"""Host-side machinery: parameter schedules, exceptional-vertex absorption,
cluster-size redistribution, and the two-phase host partition pipeline.

Phase 1 cuts the dense balanced host into a seeded equipartition (the
partition builder's round 0), searches the exact density graph D (the
pairs of density at least d, counted without sampling) for a Hamilton
cycle, and certifies only that cycle's 2k pairs: the embedding reads no
other pair.  A refuted pair leaves D and the search runs again; phase 1
fails when more than eps*k^2 pairs are refuted, when D fails a
reduced-degree gate or when the search fails.  So the regularity lemma's
global conclusion, at least (1-eps)k^2 regular pairs, is not checked here,
and the partition is never refined; ``build_regular_partition`` does both,
but the pipeline does not call it.  Phase 1 then relabels clusters along
the cycle (so pair (A_i, B_i) is a matching edge and (A_i, B_{i+1}) a cycle
edge), makes the partition super-regular on the cycle, bounds the
exceptional sets by refined_epsilon*n as the cut's are bounded by eps*n,
and absorbs the exceptional vertices into clusters where they have high
degree.  Phase 2 then adjusts the cluster sizes to externally requested
exact values by walking vertices around the cycle, one source-to-sink
route at a time.

The cycle search and both phases certify pairs through
``regularity.certify_pairs`` into one ledger, which keeps each deviation
verdict drawn by the pair's vertex sets for a later check of the same sets
at the same epsilon, and splits each batch across cores.  After absorption
both modes certify the cycle pairs at the schedule's absorbed tier
(``absorbed_epsilon``, ``absorbed_density``), which practical mode declares
equal to its (eps, d).  In practical mode, where the tiers thus share one
epsilon, the rest of phase 1 and phase 2 sample only the pairs of clusters
that super-regularisation, absorption or a route changed; faithful mode's
tiers differ, so each phase samples anew.  Phase 2 can run the caller's
placement (``meanwhile``) while its batch's helpers sample.

Faithful mode derives every constant from the proof's closed forms in
exact rational arithmetic and refuses to run when the asserted
inequalities fail or k0 is below the derived cluster bound k_min.  Its
size_slack*n is below 1 for every n under 10^19, so its phase 2 accepts
only the phase-1 target sizes.  Practical mode takes user overrides and
flags every report so overridden constants are never presented as
derived ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .graphs import BipartiteGraph, GraphError, Side, VertexId, density, iter_bits
from .hamilton import HamiltonCycle, HamiltonSearchError, find_hamilton_cycle
from .ratmath import Rational, ceil_frac, frac, sqrt_upper
from .regularity import (
    ClusterPartition,
    DeviationLedger,
    PairCertificate,
    PartitionBuildError,
    ReducedGraph,
    RegularityParams,
    Verdict,
    _check_exceptional_budget,
    certify_pairs,
    degree_at_least,
    random_equipartition,
    stream,
    super_regularize,
)

HALF = Fraction(1, 2)


class ScheduleError(ValueError):
    pass


class PipelineStageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class RootExpr:
    """Exact value of the form base + coeff * sqrt(radicand), all rational."""

    base: Fraction
    coeff: Fraction
    radicand: Fraction

    def le(self, bound: Fraction) -> bool:
        rhs = bound - self.base
        if rhs < 0:
            return False
        return self.coeff * self.coeff * self.radicand <= rhs * rhs

    def upper(self) -> Fraction:
        return self.base + self.coeff * sqrt_upper(self.radicand)


@dataclass(frozen=True)
class ParameterSchedule:
    """Derived (or overridden) constants steering the whole pipeline.

    Faithful mode: all fields below come from the closed forms, evaluated
    exactly, and ``checks`` records the audited inequalities.  Practical
    mode: the working tiers are user-supplied and ``mode`` flags that fact
    in every downstream report.
    """

    mode: str
    gamma: Fraction
    epsilon: Fraction
    k0: int
    embed_density: Fraction
    partition_epsilon: Fraction
    partition_density: Fraction
    refined_epsilon: Fraction
    refined_density: Fraction
    absorbed_epsilon: RootExpr
    absorbed_density: Fraction
    size_slack: Fraction
    target_slack: Fraction
    min_clusters_for_cycle: int
    checks: tuple[tuple[str, bool], ...] = field(default=())

    def working_params(self) -> RegularityParams:
        """Parameters used to certify the phase-1 regular partition."""
        return RegularityParams(self.partition_epsilon, self.partition_density)

    def final_params(self) -> RegularityParams:
        """Parameters the finished (G1)-(G3) partition is certified at."""
        return RegularityParams(self.epsilon, self.embed_density)


def derive_parameter_schedule(
    gamma: Rational,
    max_degree: int,
    epsilon: Rational,
    k0: int,
    mode: str = "faithful",
    *,
    d: Rational = Fraction(3, 10),
    size_slack: Rational = Fraction(3, 10),
) -> ParameterSchedule:
    """Build the constant chain for one pipeline run.

    Practical mode takes ``epsilon``, ``d`` and ``size_slack`` as given, for
    every tier.  Faithful mode ignores ``d`` and ``size_slack`` and derives
    both.  It evaluates, in exact rational arithmetic,
    embed_density = gamma^2/100, partition tiers eps' = eps^3*gamma^3 and
    d' = eps + gamma^2, the refinements eps'' = eps'/(1-2eps') and
    d'' = d' - 4eps', the post-absorption pair
    (eps'' + 6*sqrt(eps''/(gamma(1-eps''))), d'' - 4eps''/(gamma(1-eps''))),
    and slack values small enough for the final adjustment; it verifies the
    inequalities this chain is supposed to satisfy and raises
    :class:`ScheduleError` naming the first violated one.
    """
    gamma = frac(gamma)
    epsilon = frac(epsilon)
    if mode == "practical":
        d = frac(d)
        if not 0 < gamma < HALF:
            raise ScheduleError(f"gamma must lie in (0, 1/2), got {gamma}")
        if not 0 < epsilon <= 1:
            raise ScheduleError(f"epsilon must lie in (0, 1], got {epsilon}")
        if not 0 <= d <= 1:
            raise ScheduleError(f"d must lie in [0, 1], got {d}")
        return ParameterSchedule(
            mode="practical",
            gamma=gamma,
            epsilon=epsilon,
            k0=k0,
            embed_density=d,
            partition_epsilon=epsilon,
            partition_density=d,
            refined_epsilon=epsilon,
            refined_density=d,
            absorbed_epsilon=RootExpr(epsilon, Fraction(0), Fraction(0)),
            absorbed_density=d,
            size_slack=frac(size_slack),
            target_slack=Fraction(1, 4),
            min_clusters_for_cycle=k0,
            checks=(("practical-overrides", True),),
        )
    if mode != "faithful":
        raise ScheduleError(f"unknown mode {mode!r}")
    if not 0 < gamma < Fraction(1, 20):
        raise ScheduleError(f"faithful mode needs 0 < gamma < 1/20, got {gamma}")
    if not 0 < epsilon <= gamma * gamma / 1000:
        raise ScheduleError(
            f"faithful mode needs 0 < epsilon <= gamma^2/1000 = {gamma * gamma / 1000}, "
            f"got {epsilon}"
        )
    embed_density = gamma * gamma / 100
    eps_p = epsilon ** 3 * gamma ** 3
    d_p = epsilon + gamma * gamma
    eps_pp = eps_p / (1 - 2 * eps_p)
    d_pp = d_p - 4 * eps_p
    shift = eps_pp / (gamma * (1 - eps_pp))
    eps_hat = RootExpr(eps_pp, Fraction(6), shift)
    d_hat = d_pp - 4 * shift

    checks = []
    checks.append(("absorbed_epsilon <= epsilon/10", eps_hat.le(epsilon / 10)))
    checks.append(
        ("absorbed_density - epsilon >= 2*embed_density", d_hat - epsilon >= 2 * embed_density)
    )
    margin = gamma - d_p - eps_pp
    checks.append(("gamma - partition_density - refined_epsilon > 0", margin > 0))
    checks.append(
        (
            "(1/2+gamma-refined_epsilon)/(1-refined_density) >= 1/2+2*gamma/3",
            (HALF + gamma - eps_pp) / (1 - d_pp) >= HALF + 2 * gamma / 3,
        )
    )
    checks.append(
        ("refined_density/(1-refined_density) <= gamma/6", d_pp / (1 - d_pp) <= gamma / 6)
    )
    for name, ok in checks:
        if not ok:
            raise ScheduleError(f"derived-constant inequality violated: {name}")

    k_min = max(k0, ceil_frac(1 / margin))
    # slack chosen so 100*k_min*sqrt(slack) <= eps/10 and
    # 100*k_min^2*sqrt(slack) <= embed_density, exactly
    root = min(epsilon / (1000 * k_min), embed_density / (100 * k_min * k_min))
    size_slack = root * root
    target_slack = size_slack * epsilon / (100 * max_degree * k_min * k_min)
    return ParameterSchedule(
        mode="faithful",
        gamma=gamma,
        epsilon=epsilon,
        k0=k0,
        embed_density=embed_density,
        partition_epsilon=eps_p,
        partition_density=d_p,
        refined_epsilon=eps_pp,
        refined_density=d_pp,
        absorbed_epsilon=eps_hat,
        absorbed_density=d_hat,
        size_slack=size_slack,
        target_slack=target_slack,
        min_clusters_for_cycle=k_min,
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# exceptional-vertex absorption
# ---------------------------------------------------------------------------


def candidate_index_set(
    G: BipartiteGraph,
    x: VertexId,
    y: VertexId,
    partition: ClusterPartition,
    refined_density: Rational,
) -> frozenset[int]:
    """Clusters where both x (A-side) and y (B-side) have high degree."""
    if x.side is not Side.A or y.side is not Side.B:
        raise GraphError("candidate_index_set expects (A-side, B-side) vertices")
    d = frac(refined_density)
    return frozenset(
        i for i, (A_i, B_i) in enumerate(zip(partition.clusters_a, partition.clusters_b))
        if degree_at_least(G.adj_a, 1 << x.index, B_i.bits, d * B_i.size)
        and degree_at_least(G.adj_b, 1 << y.index, A_i.bits, d * A_i.size)
    )


class AbsorptionError(RuntimeError):
    def __init__(self, message: str, pair=None):
        super().__init__(message)
        self.pair = pair


@dataclass
class AbsorptionResult:
    partition: ClusterPartition
    gains: tuple[int, ...]  # exceptional pairs added per cluster
    gain_bound: int
    bound_ok: bool


def absorb_exceptional_vertices(
    G: BipartiteGraph,
    partition: ClusterPartition,
    refined_density: Rational,
    gamma: Rational,
) -> AbsorptionResult:
    """Empty the exceptional sets by assigning index-paired (x, y) vertices.

    Each pair goes to the least-loaded cluster among those where both
    vertices keep high degree; with every candidate set of size at least
    gamma*k, no cluster gains more than ceil(|A_0| / (gamma*k)) pairs.
    """
    gamma = frac(gamma)
    if partition.exceptional_a.size != partition.exceptional_b.size:
        raise AbsorptionError(
            f"exceptional sets differ in size: {partition.exceptional_a.size} vs "
            f"{partition.exceptional_b.size}"
        )
    k = partition.k
    xs = sorted(partition.exceptional_a.indices())
    ys = sorted(partition.exceptional_b.indices())
    clusters_a = [c.bits for c in partition.clusters_a]
    clusters_b = [c.bits for c in partition.clusters_b]
    work = partition
    gains = [0] * k
    for x, y in zip(xs, ys):
        cand = candidate_index_set(
            G, VertexId(Side.A, x), VertexId(Side.B, y), work, refined_density
        )
        if not cand:
            raise AbsorptionError(
                f"pair (A{x}, B{y}) has no admissible cluster", pair=(x, y)
            )
        i = min(cand, key=lambda c: (gains[c], c))
        clusters_a[i] |= 1 << x
        clusters_b[i] |= 1 << y
        gains[i] += 1
        work = ClusterPartition.from_masks(G, clusters_a, clusters_b)
    total = len(xs)
    bound = ceil_frac(Fraction(total) / (gamma * k)) if total else 0
    return AbsorptionResult(work, tuple(gains), bound, max(gains, default=0) <= bound)


# ---------------------------------------------------------------------------
# cluster-size redistribution along the cycle
# ---------------------------------------------------------------------------


class RedistributionError(RuntimeError):
    def __init__(self, message: str, cluster=None, side=None):
        super().__init__(message)
        self.cluster = cluster
        self.side = side


@dataclass
class RedistributionResult:
    partition: ClusterPartition
    iterations: int
    vertex_moves: int
    route_log: tuple[tuple[str, int, int], ...]  # (side, source, sink) per iteration
    symmetric_difference_a: tuple[int, ...]
    symmetric_difference_b: tuple[int, ...]


def redistribute_cluster_sizes(
    G: BipartiteGraph,
    partition: ClusterPartition,
    deltas_a: Sequence[int],
    deltas_b: Sequence[int],
    xi: Rational,
    params: RegularityParams,
) -> RedistributionResult:
    """Adjust cluster sizes to |A_i| + deltas_a[i] by cyclic vertex walks.

    A-side vertices only travel forward (i -> i+1) and B-side vertices only
    backward (i -> i-1): those are the directions for which the pair used
    to justify the move, (A_i, B_{i+1}), is regular.  Each iteration picks
    the lowest-index source and routes one vertex along consecutive
    clusters until a sink gains one vertex; intermediate clusters end the
    iteration at their original size.  Each move takes the lowest-index
    vertex with at least d|partner of dst| neighbours there (arrival keeps
    the target pair's degree condition) and no critical partner: a partner
    vertex with fewer than d(|src| - 1) + 1 neighbours in the source, which
    would fall below d(|src| - 1) on losing it.  No degree table or size
    table is kept across moves: each move takes both sets from
    ``degree_at_least`` on the current cluster masks, whose popcounts are
    the sizes.

    The move count t satisfies t <= k*xi*n.  The result carries no
    regularity parameters: callers certify the resized pairs themselves.
    """
    xi = frac(xi)
    k = partition.k
    n = G.size_a
    if partition.exceptional_a.size or partition.exceptional_b.size:
        raise RedistributionError("redistribution expects empty exceptional sets")
    if len(deltas_a) != k or len(deltas_b) != k:
        raise RedistributionError("delta vectors must have one entry per cluster")
    if sum(deltas_a) != 0 or sum(deltas_b) != 0:
        raise RedistributionError("deltas must sum to zero on each side")
    for i in range(k):
        if abs(deltas_a[i]) > xi * n or abs(deltas_b[i]) > xi * n:
            raise RedistributionError(
                f"delta at cluster {i} exceeds xi*n = {xi * n}", cluster=i
            )
    for i in range(k):
        if 2 * k * partition.clusters_a[i].size < n or 2 * k * partition.clusters_b[i].size < n:
            raise RedistributionError(f"cluster {i} smaller than n/(2k)", cluster=i)

    d = params.d
    other = {"A": "B", "B": "A"}
    adj = {"A": G.adj_a, "B": G.adj_b}
    masks = {
        "A": [c.bits for c in partition.clusters_a],
        "B": [c.bits for c in partition.clusters_b],
    }
    orig = {side: list(masks[side]) for side in masks}

    def move(side: str, src: int, dst: int) -> None:
        rows, partner_rows = adj[side], adj[other[side]]
        partner_src, partner_dst = masks[other[side]][src], masks[other[side]][dst]
        src_mask = masks[side][src]
        arriving = degree_at_least(rows, src_mask, partner_dst, d * partner_dst.bit_count())
        # partners that would fall below d(|src| - 1) on losing one neighbour
        critical = partner_src & ~degree_at_least(
            partner_rows, partner_src, src_mask, d * (src_mask.bit_count() - 1) + 1
        )
        for v in iter_bits(arriving):
            if not rows[v] & critical:
                break
        else:
            raise RedistributionError(
                f"no eligible vertex to move out of {side}-cluster {src}; "
                "the pair used for the move was not usably regular",
                cluster=src, side=side,
            )
        masks[side][src] &= ~(1 << v)
        masks[side][dst] |= 1 << v

    iterations = 0
    vertex_moves = 0
    route_log = []
    for side, deltas, step in (("A", deltas_a, +1), ("B", deltas_b, -1)):
        mask = masks[side]
        targets = [mask[i].bit_count() + deltas[i] for i in range(k)]
        guard = 0
        while True:
            sources = [i for i in range(k) if mask[i].bit_count() > targets[i]]
            if not sources:
                break
            src = sources[0]
            j = src
            sink = src
            while True:
                dst = (j + step) % k
                was_sink = mask[dst].bit_count() < targets[dst]
                move(side, j, dst)
                vertex_moves += 1
                if was_sink:
                    sink = dst
                    break
                j = dst
            iterations += 1
            route_log.append((side, src, sink))
            guard += 1
            if guard > k * n:  # pragma: no cover - safety valve
                raise RedistributionError("redistribution failed to converge")

    return RedistributionResult(
        ClusterPartition.from_masks(G, masks["A"], masks["B"]),
        iterations,
        vertex_moves,
        tuple(route_log),
        tuple((o ^ m).bit_count() for o, m in zip(orig["A"], masks["A"])),
        tuple((o ^ m).bit_count() for o, m in zip(orig["B"], masks["B"])),
    )


# ---------------------------------------------------------------------------
# phase 1: certify a Hamilton cycle, orient, super-regularise, absorb
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleCertification:
    """The round-0 equipartition and its certified Hamilton cycle: the
    reduced graph holds the cycle's 2k pairs, by that partition's cluster
    indices, each certified regular, and no other pair."""

    partition: ClusterPartition
    reduced: ReducedGraph


@dataclass
class HostPartitionState:
    schedule: ParameterSchedule
    partition: ClusterPartition  # cycle-ordered, exceptional sets empty
    k: int
    target_sizes: tuple[int, ...]
    matching_certificates: dict[int, PairCertificate]
    offset_certificates: dict[int, PairCertificate]
    hat_params: RegularityParams
    build: CycleCertification
    # every sampled deviation verdict of phase 1, for phase 2
    deviation_certificates: DeviationLedger

    def certificates_ok(self) -> bool:
        return not _failed_cycle_pairs(self.matching_certificates, self.offset_certificates)


def _certify_cycle_pairs(
    G: BipartiteGraph,
    part: ClusterPartition,
    params: RegularityParams,
    budget: int,
    seed: int,
    known: DeviationLedger,
    source: str,
    meanwhile: Optional[Callable[[ClusterPartition], object]] = None,
) -> tuple[dict[int, PairCertificate], dict[int, PairCertificate]]:
    """Certify each (A_i, B_i) super-regular and each (A_i, B_{i+1}) regular,
    keyed by i; a pair with an empty cluster has nothing to certify.
    ``meanwhile`` goes to ``certify_pairs``."""
    k = part.k
    pairs = [
        (i, (i + s) % k, s == 0) for i in range(k) for s in (0, 1)
        if part.clusters_a[i] and part.clusters_b[(i + s) % k]
    ]
    certs = certify_pairs(G, part, pairs, params, budget, seed, known, source,
                          meanwhile=meanwhile)
    matching = {i: c for (i, _, sup), c in zip(pairs, certs) if sup}
    offsets = {i: c for (i, _, sup), c in zip(pairs, certs) if not sup}
    return matching, offsets


def _failed_cycle_pairs(
    matching: Mapping[int, PairCertificate], offsets: Mapping[int, PairCertificate]
) -> list:
    """Matching pairs not super-regular, then offset pairs not regular."""
    return [i for i, c in matching.items() if c.verdict is not Verdict.SUPER_REGULAR] + [
        f"offset {i}" for i, c in offsets.items() if c.verdict is not Verdict.REGULAR
    ]


def _density_graph(
    G: BipartiteGraph, part: ClusterPartition, d: Fraction
) -> set[tuple[int, int]]:
    """The pairs (i, j) with e(A_i, B_j) >= d|A_i||B_j|, counted exactly."""
    return {
        (i, j)
        for i, a in enumerate(part.clusters_a)
        for j, b in enumerate(part.clusters_b)
        if density(G, a, b) >= d
    }


def _check_reduced_degree(rg: BipartiteGraph, schedule: ParameterSchedule) -> None:
    """The reduced graph's minimum-degree gates (k vertices per side)."""
    k = rg.size_a
    red_min = rg.min_degree()
    nu = HALF + schedule.gamma
    inherited = (nu - schedule.partition_density - schedule.refined_epsilon) * k
    if red_min < inherited:
        raise PipelineStageError(
            "reduced-degree",
            f"reduced graph min degree {red_min} below inherited bound {inherited}",
        )
    if red_min < Fraction(k, 2) + 1:
        raise PipelineStageError(
            "reduced-degree",
            f"reduced graph min degree {red_min} below k/2+1 = {Fraction(k, 2) + 1}; "
            "no Hamilton cycle is guaranteed",
        )


def _certified_cycle(
    G: BipartiteGraph,
    part: ClusterPartition,
    schedule: ParameterSchedule,
    budget: int,
    seed: int,
    known: DeviationLedger,
) -> tuple[HamiltonCycle, dict[tuple[int, int], PairCertificate]]:
    """A Hamilton cycle of the exact density graph D on ``part``'s cluster
    pairs (i, j), with the certificates of its 2k pairs, all regular.

    The search draws on ``stream(seed, "reduced-cycle")``.  The pairs are
    certified through ``certify_pairs`` on ``stream(seed, "round", 0)``,
    the builder's round-0 seed, so each is sampled once, and enters
    ``known``, with the verdict the builder's round 0 would hold (a pair of
    D meets the density gate).  Refuted pairs leave D and the search runs
    again.  Raises :class:`PipelineStageError` at "reduced-degree" when
    D fails a degree gate, at "reduced-hamilton-cycle" when the search
    fails, and at "cycle-certification" once more than eps*k^2 pairs are
    refuted.
    """
    params = schedule.working_params()
    k = part.k
    edges = _density_graph(G, part, params.d)
    refuted = set()
    while True:
        rg = BipartiteGraph.build(k, k, edges)
        _check_reduced_degree(rg, schedule)
        try:
            cyc = find_hamilton_cycle(rg, seed=stream(seed, "reduced-cycle"))
        except (GraphError, HamiltonSearchError) as e:
            raise PipelineStageError("reduced-hamilton-cycle", str(e)) from e
        pairs = [  # the cycle alternates A_i, B_j, A_i', ...
            (cyc.order[t].index, cyc.order[t + s].index, False)
            for t in range(0, 2 * k, 2) for s in (-1, 1)
        ]
        certs = certify_pairs(G, part, pairs, params, budget, stream(seed, "round", 0), known,
                              "the cycle certification")
        certified = {(i, j): c for (i, j, _), c in zip(pairs, certs)}
        bad = {key for key, c in certified.items() if c.verdict is not Verdict.REGULAR}
        if not bad:
            return cyc, certified
        refuted |= bad
        if len(refuted) > params.epsilon * k * k:
            raise PipelineStageError(
                "cycle-certification",
                f"{len(refuted)} cycle pairs refuted, more than eps*k^2 = "
                f"{params.epsilon * k * k}",
            )
        edges -= bad


def prepare_host_partition(
    G: BipartiteGraph,
    schedule: ParameterSchedule,
    budget: int = 2000,
    seed: int = 0,
) -> HostPartitionState:
    """Phase 1 of the host pipeline; see the module docstring.

    The equipartition draws from ``random.Random(seed)``.  The returned
    state's cycle pairs are certified on ``stream(seed, "phase-1")`` at the
    schedule's absorbed tier, ``hat_params``: every matching pair (A_i,
    B_i) super-regular and every offset pair (A_i, B_{i+1}) regular, all 2k
    of them.  Raises :class:`PipelineStageError` with the failing stage name,
    "pair-certification" when any of those pairs fails.
    """
    n = G.size_a
    if not G.is_balanced:
        raise PipelineStageError("hypotheses", "host graph is not balanced")
    if G.min_degree() < (HALF + schedule.gamma) * n:
        raise PipelineStageError(
            "hypotheses",
            f"minimum degree {G.min_degree()} below (1/2+gamma)n = {(HALF + schedule.gamma) * n}",
        )
    k0, k_min = schedule.k0, schedule.min_clusters_for_cycle  # equal in practical mode
    if k0 < k_min:
        raise PipelineStageError("regular-partition", f"k0 = {k0} is below k_min = {k_min}")
    params = schedule.working_params()
    known: DeviationLedger = {}
    try:
        part = random_equipartition(G, schedule.k0, random.Random(seed))
        _check_exceptional_budget(G, part, params.epsilon)
        cyc, certs = _certified_cycle(G, part, schedule, budget, seed, known)
    except (ValueError, PartitionBuildError) as e:
        # a GraphError, or a sampled check refusing a budget below 1
        raise PipelineStageError("regular-partition", str(e)) from e
    build = CycleCertification(part, ReducedGraph(part.k, frozenset(certs), params, certs))
    k = part.k

    # relabel clusters so the cycle reads A_0, B_1, A_1, B_2, ..., A_{k-1}, B_0
    # (old_a[i] and old_b[i] are the build's indices of the new A_i and B_i)
    old_a = [cyc.order[2 * i].index for i in range(k)]
    old_b = [cyc.order[2 * i - 1].index for i in range(k)]
    part = ClusterPartition(
        tuple(build.partition.clusters_a[i] for i in old_a),
        tuple(build.partition.clusters_b[i] for i in old_b),
        build.partition.exceptional_a,
        build.partition.exceptional_b,
    )
    rstar = [(i, i) for i in range(k)] + [(i, (i + 1) % k) for i in range(k)]

    try:
        sup = super_regularize(G, part, rstar, params)
        _check_exceptional_budget(G, sup.partition, schedule.refined_epsilon)
    except (GraphError, PartitionBuildError) as e:
        raise PipelineStageError("super-regularize", str(e)) from e
    try:
        absorption = absorb_exceptional_vertices(
            G, sup.partition, schedule.refined_density, schedule.gamma
        )
    except AbsorptionError as e:
        raise PipelineStageError("absorb-exceptional", str(e)) from e
    if not absorption.bound_ok:
        raise PipelineStageError(
            "absorb-exceptional",
            f"a cluster gained more than the bound {absorption.gain_bound}",
        )
    final = absorption.partition
    sizes_a = final.sizes_a()
    sizes_b = final.sizes_b()
    if sizes_a != sizes_b:
        raise PipelineStageError("absorb-exceptional", "cluster sizes differ between sides")
    for i, s in enumerate(sizes_a):
        if 2 * k * s < n:
            raise PipelineStageError(
                "target-sizes", f"cluster {i} of size {s} is below n/(2k)"
            )

    hat = RegularityParams(
        min(schedule.absorbed_epsilon.upper(), Fraction(1)),
        max(schedule.absorbed_density, Fraction(0)),
    )
    matching, offsets = _certify_cycle_pairs(
        G, final, hat, budget, stream(seed, "phase-1"), known, "phase 1"
    )
    bad = _failed_cycle_pairs(matching, offsets)
    if bad:
        raise PipelineStageError(
            "pair-certification", f"pairs failed at the post-absorption parameters: {bad}"
        )
    return HostPartitionState(
        schedule, final, k, tuple(sizes_a), matching, offsets, hat, build, known,
    )


# ---------------------------------------------------------------------------
# phase 2: hit exact externally requested sizes
# ---------------------------------------------------------------------------


@dataclass
class ResizeResult:
    redistribution: RedistributionResult
    matching_certificates: dict[int, PairCertificate]
    offset_certificates: dict[int, PairCertificate]

    @property
    def partition(self) -> ClusterPartition:
        return self.redistribution.partition

    @property
    def certificates_ok(self) -> bool:
        return not _failed_cycle_pairs(self.matching_certificates, self.offset_certificates)


def resize_host_partition(
    state: HostPartitionState,
    G: BipartiteGraph,
    a_sizes: Sequence[int],
    b_sizes: Sequence[int],
    budget: int = 2000,
    seed: int = 0,
    meanwhile: Optional[Callable[[ClusterPartition], object]] = None,
) -> ResizeResult:
    """Phase 2: realise |A_i| = a_sizes[i], |B_i| = b_sizes[i] exactly.

    Requested sizes may exceed the phase-1 targets by at most size_slack*n
    each.  The resized pairs are certified on ``stream(seed, "phase-2")``
    at the schedule's final parameters; a pair whose clusters no route
    changed keeps its earlier deviation verdict when the epsilon is the
    same.  ``meanwhile``, when given, is called with the resized partition
    as soon as it is known, while the certification batch's helpers
    sample; its errors propagate, and the pairs are certified once it
    returns.
    """
    sched = state.schedule
    k = state.k
    n = sum(state.target_sizes)
    if len(a_sizes) != k or len(b_sizes) != k:
        raise PipelineStageError("resize", "size vectors must have one entry per cluster")
    if sum(a_sizes) != n or sum(b_sizes) != n:
        raise PipelineStageError("resize", f"requested sizes must sum to n = {n}")
    cap = sched.size_slack * n
    for i in range(k):
        if a_sizes[i] > state.target_sizes[i] + cap or b_sizes[i] > state.target_sizes[i] + cap:
            raise PipelineStageError(
                "resize",
                f"requested size at cluster {i} exceeds target + size_slack*n = "
                f"{state.target_sizes[i]} + {cap}",
            )
    deltas_a = [a_sizes[i] - state.target_sizes[i] for i in range(k)]
    deltas_b = [b_sizes[i] - state.target_sizes[i] for i in range(k)]
    worst = max(map(abs, deltas_a + deltas_b))
    redis = redistribute_cluster_sizes(
        G, state.partition, deltas_a, deltas_b, Fraction(worst, n), state.hat_params
    )
    matching, offsets = _certify_cycle_pairs(
        G, redis.partition, sched.final_params(), budget, stream(seed, "phase-2"),
        dict(state.deviation_certificates), "phase 2", meanwhile,
    )
    return ResizeResult(redis, matching, offsets)
