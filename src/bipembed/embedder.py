"""Compatibility checking, two-phase embedding, and the end-to-end pipeline.

A partition of the target H into classes aligned with the host clusters is
"compatible" when classes fit size-wise, every H-edge lands on a certified
regular pair, and the boundary sets (vertices with edges leaving the
super-regular matching pairs, plus their neighbours) are small.  Embedding
then proceeds in two phases: the boundary vertices go first, greedily in
bandwidth order, each placed on an unused typical host vertex compatible
with its already-embedded neighbours; each matching pair is then completed
by random-greedy placement of its X side and a maximum-matching finish on
the candidate graph of its Y side, independently of the other pairs, so a
pair that fails is retried alone.  Every embedding is verified before it
is returned; no unverified output ever escapes.  The pipeline distributes
the target deterministically, in runs along the cluster cycle sized to the
phase-1 targets, so phase 2 only touches the cluster sizes up; it accepts a
distribution only when all three clauses hold at the schedule's epsilon.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .graphs import (
    BipartiteGraph, Check, GraphError, Side, VertexId, VertexSet, id_table, iter_bits,
)
from .homomorphism import (
    BandwidthLabelling,
    CycleHomomorphism,
    bandwidth_labelling,
    build_cycle_homomorphism,
    partition_runs,
    verify_cycle_homomorphism,
)
from .partitioner import (
    HostPartitionState,
    PipelineStageError,
    RedistributionError,
    ScheduleError,
    derive_parameter_schedule,
    prepare_host_partition,
    resize_host_partition,
)
from .ratmath import Rational, frac
from .regularity import (
    ClusterPartition,
    RegularityParams,
    _draw,
    _local_row,
    _mix_seed,
    _pair_rows,
    _shuffle,
    degree_at_least,
)

ClassKey = tuple[str, int]


# ---------------------------------------------------------------------------
# compatibility
# ---------------------------------------------------------------------------


@dataclass
class CompatibilityReport:
    cluster_of: dict[Side, tuple[int, ...]]  # the target partition, as each side's map
    partner: dict[ClassKey, ClassKey]  # each class's super-regular partner
    boundary: dict[ClassKey, frozenset[VertexId]]  # S_i per class
    fringe: dict[ClassKey, frozenset[VertexId]]  # T_i per class
    size_clause: Check
    edge_clause: Check
    boundary_clause: Check

    @property
    def ok(self) -> bool:
        return self.size_clause.ok and self.edge_clause.ok and self.boundary_clause.ok

    @property
    def detail(self) -> str:
        """The failing clauses' details, joined."""
        clauses = (self.size_clause, self.edge_clause, self.boundary_clause)
        return "; ".join(c.detail for c in clauses if not c.ok)


def _partners(rprime_edges: Iterable[tuple[int, int]]) -> dict[ClassKey, ClassKey]:
    """Each class's partner under the super-regular pairs, which form a matching."""
    partner: dict[ClassKey, ClassKey] = {}
    for i, j in rprime_edges:
        a, b = ("A", i), ("B", j)
        if partner.get(a, b) != b or partner.get(b, a) != a:
            raise GraphError(f"the super-regular pairs are not a matching at {(i, j)}")
        partner[a], partner[b] = b, a
    return partner


def compatibility_report(
    H: BipartiteGraph,
    cluster_of_x: Sequence[int],
    cluster_of_y: Sequence[int],
    sizes: Mapping[ClassKey, int],
    r_edges: Iterable[tuple[int, int]],
    rprime_edges: Iterable[tuple[int, int]],
    epsilon: Rational,
) -> CompatibilityReport:
    """Evaluate the three compatibility clauses exactly.

    X vertex x lies in class ("A", cluster_of_x[x]) and Y vertex y in
    ("B", cluster_of_y[y]); ``sizes`` holds the budget of every class.
    ``r_edges`` and ``rprime_edges`` list pairs (i, j) meaning the class
    pair (("A", i), ("B", j)); ``rprime_edges``, the super-regular pairs,
    must form a matching.  The boundary set of a class holds its vertices
    with a neighbour in a class other than its partner, and the fringe
    holds neighbours of boundary vertices that are not boundary themselves.
    The fringe bound uses the smaller size budget of a class and its partner.
    """
    eps = frac(epsilon)
    cluster_of = {Side.A: tuple(cluster_of_x), Side.B: tuple(cluster_of_y)}
    held: Counter[ClassKey] = Counter()
    for side, clusters in cluster_of.items():
        if len(clusters) != H.side_size(side):
            raise GraphError(f"the {side.value}-side map has {len(clusters)} entries")
        held.update((side.value, i) for i in clusters)
    unsized = held.keys() - sizes.keys()
    if unsized:
        raise GraphError(f"class {min(unsized)} is mapped to but has no size")
    r = {(i, j) for i, j in r_edges}
    partner = _partners(rprime_edges)
    if any(c[0] == "A" and (c[1], p[1]) not in r for c, p in partner.items()):
        raise GraphError("the super-regular pair list must be a subset of the regular one")

    size_clause = Check(True)
    for c in sizes:
        if held[c] > sizes[c]:
            size_clause = Check(False, f"class {c} holds {held[c]} vertices, budget {sizes[c]}")
            break

    edge_clause = Check(True)
    boundary: dict[ClassKey, set[VertexId]] = {c: set() for c in sizes}
    ids_a, ids_b = id_table(Side.A, H.size_a), id_table(Side.B, H.size_b)
    of_x, of_y = cluster_of[Side.A], cluster_of[Side.B]
    for x, y in H.edges():
        pair = (of_x[x], of_y[y])
        if pair not in r and edge_clause.ok:
            edge_clause = Check(
                False, f"edge ({x},{y}) lies over uncertified pair {pair}"
            )
        if partner.get(("A", pair[0])) != ("B", pair[1]):
            boundary[("A", pair[0])].add(ids_a[x])
            boundary[("B", pair[1])].add(ids_b[y])

    s_union: set[VertexId] = set().union(*boundary.values())
    fringe: dict[ClassKey, set[VertexId]] = {c: set() for c in sizes}
    for v in s_union:
        for w in H.neighbours(v):
            if w not in s_union:
                fringe[(w.side.value, cluster_of[w.side][w.index])].add(w)

    boundary_clause = Check(True)
    for c in sizes:
        p = partner.get(c)
        budget = min(sizes[c], sizes[p]) if p in sizes else sizes[c]
        if len(boundary[c]) > eps * sizes[c]:
            boundary_clause = Check(
                False, f"boundary of {c} has {len(boundary[c])} > eps*{sizes[c]}"
            )
            break
        if len(fringe[c]) > eps * budget:
            boundary_clause = Check(
                False,
                f"fringe of {c} has {len(fringe[c])} > eps*min-component-size {budget}",
            )
            break
    return CompatibilityReport(
        cluster_of,
        partner,
        {c: frozenset(boundary[c]) for c in sizes},
        {c: frozenset(fringe[c]) for c in sizes},
        size_clause,
        edge_clause,
        boundary_clause,
    )


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    mapping: dict[VertexId, VertexId]
    phases: dict[VertexId, str] = field(compare=False, default_factory=dict)


def verify_embedding(G: BipartiteGraph, H: BipartiteGraph, emb: Embedding) -> Check:
    """Exhaustive check: total, injective, side-respecting, edge-preserving."""
    mapping = emb.mapping
    for v in H.vertices():
        if v not in mapping:
            return Check(False, f"{v} is not mapped")
    used: set[VertexId] = set()
    for hv, gv in mapping.items():
        if not 0 <= hv.index < H.side_size(hv.side):
            return Check(False, f"{hv} is not a target vertex")
        if hv.side is not gv.side:
            return Check(False, f"{hv} mapped across sides to {gv}")
        if not 0 <= gv.index < G.side_size(gv.side):
            return Check(False, f"{hv} mapped outside the host to {gv}")
        if gv in used:
            return Check(False, f"two vertices share the image {gv}")
        used.add(gv)
    ids_a, ids_b = id_table(Side.A, H.size_a), id_table(Side.B, H.size_b)
    for x, y in H.edges():
        ga = mapping[ids_a[x]]
        gb = mapping[ids_b[y]]
        if not G.has_edge(ga.index, gb.index):
            return Check(
                False, f"edge ({x},{y}) maps to non-edge ({ga.index},{gb.index})"
            )
    return Check(True)


class EmbeddingError(RuntimeError):
    def __init__(self, message: str, stuck=None, hall_violator=None):
        super().__init__(message)
        self.stuck = stuck
        self.hall_violator = hall_violator


def _max_matching(
    cands: Sequence[Sequence[int]], right_size: int
) -> tuple[list[int], Optional[tuple[set[int], set[int]]]]:
    """Iterative augmenting-path maximum matching.

    Returns the match of each left vertex, and for the first left vertex
    whose search fails a Hall witness: the left vertices that search
    reached and the right vertices it saw, which are exactly their
    candidates and one fewer.  Later searches never change a failed
    search's tree, so the witness holds for the final matching.
    """
    match_left = [-1] * len(cands)
    match_right = [-1] * right_size
    witness = None
    for u in range(len(cands)):
        seen = [False] * right_size
        # DFS over alternating paths, explicit stack of (left, cand iterator)
        stack = [(u, iter(cands[u]))]
        path: list[tuple[int, int]] = []
        while stack:
            left, it = stack[-1]
            advanced = False
            for r in it:
                if seen[r]:
                    continue
                seen[r] = True
                holder = match_right[r]
                if holder == -1:
                    path.append((left, r))
                    for pl, pr in path:
                        match_left[pl] = pr
                        match_right[pr] = pl
                    stack.clear()
                    path.clear()
                    advanced = True
                    break
                path.append((left, r))
                stack.append((holder, iter(cands[holder])))
                advanced = True
                break
            if not advanced:
                stack.pop()
                if path:
                    path.pop()
        if match_left[u] == -1 and witness is None:
            saw = {r for r in range(right_size) if seen[r]}
            witness = ({u} | {match_right[r] for r in saw}, saw)
    return match_left, witness


def _choose(mask: int, typical: int, getrandbits) -> Optional[int]:
    """A random set bit of ``mask``, among its typical bits when it has any;
    None when it is empty."""
    opts = list(iter_bits(mask & typical)) or list(iter_bits(mask))
    return _draw(getrandbits, opts, 1)[0] if opts else None


def embed_compatible(
    G: BipartiteGraph,
    H: BipartiteGraph,
    g_partition: ClusterPartition,
    report: CompatibilityReport,
    params: RegularityParams,
    seed: int = 0,
    order: Optional[Sequence[VertexId]] = None,
    retries: int = 20,
) -> Embedding:
    """Two-phase embedding of H into G along compatible partitions.

    ``report`` is the :func:`compatibility_report` of H's cluster maps at
    ``params.epsilon``; each class must hold exactly its cluster's size in
    ``g_partition``, and the report's clauses must hold.  Phase 1 embeds
    the boundary and fringe vertices greedily in the given order.  Phase 2
    completes each matching pair: its X side is placed random-greedily on
    typical host vertices, after which every remaining Y vertex has all
    neighbours embedded and the pair is finished by a maximum matching on
    the admissible-placement graph.  A vertex outside the boundary and
    fringe has all its neighbours in its partner class, and a pair writes
    only its own two clusters, so the pairs complete independently: each
    pair gets up to ``retries`` attempts of its own, attempt t of pair i on
    the stream ``_mix_seed(seed, i, t)``, and a failed attempt's placements
    are dropped.  Placement works in cluster-local coordinates: local index
    t of a cluster is its t-th member in ascending order, and each matching
    pair's adjacency is read once, both ways.  Phase-1 exhaustion and a
    pair that fails all its attempts raise :class:`EmbeddingError` with the
    stuck vertex or a witness set violating the matching condition; the
    whole result is verified once before it is returned.
    """
    k = g_partition.k
    clusters: dict[ClassKey, VertexSet] = {}
    for i in range(k):
        clusters[("A", i)] = g_partition.clusters_a[i]
        clusters[("B", i)] = g_partition.clusters_b[i]
    cluster_of = report.cluster_of
    class_of = {v: (v.side.value, cluster_of[v.side][v.index]) for v in H.vertices()}
    nbrs = {v: H.neighbours(v) for v in H.vertices()}
    held = Counter(class_of.values())
    for c in sorted(clusters.keys() | held.keys()):
        size = clusters[c].size if c in clusters else 0
        if held[c] != size:
            raise EmbeddingError(
                f"class {c} has {held[c]} vertices but its cluster holds "
                f"{size}; spanning embedding needs exact sizes"
            )
    if not report.ok:
        raise EmbeddingError(f"partitions are not compatible: {report.detail}")
    partner = report.partner
    pairs = sorted((c, p) for c, p in partner.items() if c[0] == "A")

    # local index t of cluster c is host vertex members[c][t]; rows[c][t]
    # is its adjacency to the partner cluster, in that cluster's indices
    members = {c: list(vs.indices()) for c, vs in clusters.items()}
    rows: dict[ClassKey, list[int]] = {}
    for ca, cb in pairs:
        rows[ca], rows[cb] = _pair_rows(G, members[ca], members[cb])
    # typical host vertices per class: at least (d - eps)|partner| neighbours
    # in the partner cluster, to keep the completion phase healthy
    typical: dict[ClassKey, int] = {}
    for c, vs in clusters.items():
        p = partner.get(c)
        everyone = (1 << vs.size) - 1
        if p is None:
            typical[c] = everyone
            continue
        size = clusters[p].size
        bound = (params.d - params.epsilon) * size
        typical[c] = degree_at_least(rows[c], everyone, (1 << size) - 1, bound)

    images: dict[VertexId, int] = {}  # local index in the class's cluster
    phases: dict[VertexId, str] = {}
    free = {c: (1 << vs.size) - 1 for c, vs in clusters.items()}

    def image_row(w: VertexId, c: ClassKey) -> int:
        """The adjacency of w's image to cluster c, in c's local indices;
        outside the matching pairs it is read from G when asked for."""
        cw = class_of[w]
        if partner.get(cw) == c:
            return rows[cw][images[w]]
        adj = G.adj_a if cw[0] == "A" else G.adj_b
        return _local_row(adj[members[cw][images[w]]], members[c], clusters[c].universe)

    def phase1_mask(v: VertexId, c: ClassKey) -> int:
        mask = free[c]
        for w in nbrs[v]:
            if w in images:
                mask &= image_row(w, c)
        return mask

    # phase 1: boundary and fringe vertices, in labelling order; the others
    # are kept, in that order, for their matching pair's completion
    getrandbits = random.Random(seed).getrandbits
    early = set().union(*report.boundary.values(), *report.fringe.values())
    rest: dict[ClassKey, list[VertexId]] = {c: [] for pair in pairs for c in pair}
    for v in sorted(H.vertices()) if order is None else order:
        c = class_of[v]
        if v not in early:
            if c in rest:
                rest[c].append(v)
            continue
        t = _choose(phase1_mask(v, c), typical[c], getrandbits)
        if t is None:
            raise EmbeddingError(f"phase 1 exhausted candidates for {v} in class {c}", stuck=v)
        images[v] = t
        free[c] &= ~(1 << t)
        phases[v] = "boundary-greedy"

    # phase 2: the candidates phase 1 leaves each pair's rest, which only the
    # pair's own placements narrow: their neighbours lie in the partner class
    bases = {v: phase1_mask(v, c) for c, vs in rest.items() for v in vs}

    def complete(ca: ClassKey, cb: ClassKey, getrandbits) -> dict[VertexId, int]:
        """Place the rest of X class ca greedily, then match Y class cb;
        returns the new images."""
        new: dict[VertexId, int] = {}
        free_a = free[ca]
        for x in rest[ca]:
            t = _choose(free_a & bases[x], typical[ca], getrandbits)
            if t is None:
                raise EmbeddingError(f"completion stuck on {x} in {ca}", stuck=x)
            new[x] = t
            free_a &= ~(1 << t)
        row_a = rows[ca]
        cands: list[list[int]] = []
        for y in rest[cb]:
            mask = bases[y]
            for w in nbrs[y]:
                t = new.get(w)
                if t is not None:
                    mask &= row_a[t]
            opts = list(iter_bits(mask))
            _shuffle(getrandbits, opts)
            cands.append(opts)
        match, deficient = _max_matching(cands, clusters[cb].size)
        if deficient:
            reached, saw = deficient
            ys = rest[cb]
            raise EmbeddingError(
                f"matching completion deficient in {cb}: {len(reached)} vertices share "
                f"{len(saw)} candidates",
                stuck=ys[match.index(-1)],
                hall_violator=sorted(ys[t] for t in reached),
            )
        new.update(zip(rest[cb], match))
        return new

    for ca, cb in pairs:
        last_error: Optional[EmbeddingError] = None
        for attempt in range(retries):
            try:
                new = complete(ca, cb, random.Random(_mix_seed(seed, ca[1], attempt)).getrandbits)
            except EmbeddingError as e:
                # without its traceback, the error does not pin the attempt's frames
                last_error = e.with_traceback(None)
                continue
            images.update(new)
            for v in new:
                phases[v] = "completion-greedy" if v.side is Side.A else "completion-matching"
            break
        else:
            raise EmbeddingError(
                f"no completion of pair {ca}-{cb} within {retries} attempts: {last_error}",
                stuck=getattr(last_error, "stuck", None),
                hall_violator=getattr(last_error, "hall_violator", None),
            ) from last_error

    host_ids = {side: id_table(side, G.side_size(side)) for side in Side}
    emb = Embedding(
        {v: host_ids[v.side][members[class_of[v]][t]] for v, t in images.items()}, phases
    )
    check = verify_embedding(G, H, emb)
    if not check:
        raise EmbeddingError(f"verification failed: {check.detail}")
    return emb


# ---------------------------------------------------------------------------
# the end-to-end pipeline
# ---------------------------------------------------------------------------


@dataclass
class EmbedConfig:
    mode: str = "practical"
    epsilon: Rational = Fraction(1, 4)
    d: Rational = Fraction(3, 10)
    k0: int = 8
    ell: int = 64
    size_slack: Optional[Rational] = None
    sample_budget: int = 800
    embed_retries: int = 20  # completion attempts per matching pair
    pipeline_retries: int = 8


@dataclass
class StageRecord:
    stage: str
    ok: bool
    detail: str
    seconds: float


@dataclass
class RunReport:
    seed: int
    stages: list[StageRecord] = field(default_factory=list)
    verdict: str = "failed"
    # the end of the previous stage: stages run back to back
    stage_start: float = field(default_factory=time.perf_counter, init=False, repr=False)

    def record(self, stage: str, ok: bool, detail: str) -> None:
        now = time.perf_counter()
        self.stages.append(StageRecord(stage, ok, detail, now - self.stage_start))
        self.stage_start = now


@dataclass
class EmbedResult:
    embedding: Embedding
    report: RunReport
    state: HostPartitionState
    homomorphism: CycleHomomorphism
    partition: ClusterPartition
    labelling: BandwidthLabelling


class EmbeddingPipelineError(RuntimeError):
    def __init__(self, message: str, report: RunReport):
        super().__init__(message)
        self.report = report


def embed_bipartite(
    G: BipartiteGraph,
    H: BipartiteGraph,
    gamma: Rational,
    max_degree: int,
    config: Optional[EmbedConfig] = None,
    seed: int = 0,
    labelling: Optional[BandwidthLabelling] = None,
) -> EmbedResult:
    """Run the whole pipeline and return a verified embedding of H into G.

    Stages: hypothesis checks, bandwidth labelling, parameter schedule,
    host phase 1 (a Hamilton cycle of the density graph with its 2k pairs
    certified, super-regularisation, absorption), target distribution
    (runs along the cycle, cycle homomorphism), compatibility, host phase 2
    (exact cluster sizes), and the two-phase embedding.  Attempt a cuts the
    labelling into at most ``ell`` runs in cycle order from cluster a, one
    per group of consecutive clusters just large enough to host the 2k+1
    linking blocks;
    a run ends where the X count reaches its clusters' phase-1 targets and
    goes to its first cluster.  An attempt goes on only when the
    compatibility clauses hold at the schedule epsilon.  Verification
    failure is fatal: no unverified embedding is ever returned.
    """
    cfg = config or EmbedConfig()
    gamma = frac(gamma)
    report = RunReport(seed=seed)
    n = G.size_a
    if not (G.is_balanced and H.is_balanced and H.size_a == n):
        report.record("hypotheses", False, "graphs must be balanced on the same 2n")
        raise EmbeddingPipelineError("hypothesis check failed", report)
    if G.min_degree() < (Fraction(1, 2) + gamma) * n:
        report.record("hypotheses", False, f"host min degree {G.min_degree()} below (1/2+gamma)n")
        raise EmbeddingPipelineError("host minimum degree too small", report)
    if H.max_degree() > max_degree:
        report.record(
            "hypotheses", False, f"target max degree {H.max_degree()} exceeds {max_degree}"
        )
        raise EmbeddingPipelineError("target maximum degree too large", report)
    report.record("hypotheses", True, f"n={n}, delta={G.min_degree()}")

    if labelling is None:
        labelling = bandwidth_labelling(H)
    report.record("labelling", True, f"bandwidth {labelling.bandwidth}")

    overrides = {"d": cfg.d}
    if cfg.size_slack is not None:
        overrides["size_slack"] = cfg.size_slack
    try:
        schedule = derive_parameter_schedule(
            gamma, max_degree, cfg.epsilon, cfg.k0, cfg.mode, overrides
        )
    except ScheduleError as e:
        report.record("schedule", False, str(e))
        raise EmbeddingPipelineError(str(e), report) from e
    report.record("schedule", True, schedule.mode)

    try:
        state = prepare_host_partition(G, schedule, budget=cfg.sample_budget, seed=seed)
    except PipelineStageError as e:
        report.record(e.stage, False, str(e))
        raise EmbeddingPipelineError(str(e), report) from e
    k = state.k
    report.record(
        "host-phase-1", True,
        f"k={k}, targets={list(state.target_sizes)}, "
        f"certified=cycle {2 * k}/{2 * k}, global regularity not checked",
    )

    beta_n = max(labelling.bandwidth, 1)
    if (2 * k + 1) * beta_n > 2 * n:
        report.record(
            "distribution", False,
            f"pieces cannot host {2 * k + 1} blocks of length {beta_n}",
        )
        raise EmbeddingPipelineError("bandwidth too large for the cluster count", report)
    targets = state.target_sizes
    # a run over `group` clusters holds about 2*group*min(targets) positions,
    # enough for the 2k+1 blocks every piece must host
    group = -(-(2 * k + 1) * beta_n // (2 * min(targets)))
    ell = max(1, min(cfg.ell, k // group))
    firsts = [t * k // ell for t in range(ell + 1)]
    rprime = [(i, i) for i in range(k)]
    cycle = rprime + [(i, (i + 1) % k) for i in range(k)]

    last_failure = "no attempt"
    for attempt in range(cfg.pipeline_retries):
        start = attempt % k
        rotated = targets[start:] + targets[:start]
        phi = [(start + lo) % k for lo in firsts[:-1]]
        pieces = partition_runs(
            labelling, [sum(rotated[lo:hi]) for lo, hi in zip(firsts, firsts[1:])]
        )
        where = f"ell={ell}, first cluster={start}"
        try:
            hom = build_cycle_homomorphism(H, labelling, pieces, phi, beta_n, k)
        except GraphError as e:
            last_failure = f"homomorphism: {e}"
            report.record("distribution", False, f"{where}: {last_failure}")
            continue
        pre_a, pre_b = hom.preimage_a, hom.preimage_b
        sizes = {(s, i): size for s, pre in (("A", pre_a), ("B", pre_b))
                 for i, size in enumerate(pre)}
        rep = compatibility_report(
            H, hom.cluster_of_x, hom.cluster_of_y, sizes, cycle, rprime, schedule.epsilon
        )
        if not rep.ok:
            last_failure = f"compatibility: {rep.detail}"
            report.record("distribution", False, f"{where}: {last_failure}")
            continue
        hom_report = verify_cycle_homomorphism(H, hom, targets, schedule.target_slack)
        report.record(
            "distribution", True,
            f"{where}, gate=schedule-epsilon, "
            f"size guarantees={'ok' if hom_report.ok else 'mixed'}",
        )
        report.record("compatibility", True, "clauses hold at the schedule epsilon")

        sub = _mix_seed(seed, attempt)
        try:
            resized = resize_host_partition(
                state, G, pre_a, pre_b, budget=cfg.sample_budget, seed=sub
            )
        except (PipelineStageError, RedistributionError) as e:
            report.record("host-phase-2", False, str(e))
            last_failure = f"resize: {e}"
            continue
        report.record(
            "host-phase-2", True,
            f"iterations={resized.redistribution.iterations}, "
            f"certified={'yes' if resized.certificates_ok else 'vacuous/partial'}",
        )

        try:
            emb = embed_compatible(
                G, H, resized.partition, rep,
                schedule.final_params(), sub, order=labelling.order,
                retries=cfg.embed_retries,
            )
        except EmbeddingError as e:
            report.record("embedding", False, str(e))
            last_failure = f"embedding: {e}"
            continue
        # embed_compatible returns only embeddings that verify_embedding passed
        report.record("embedding", True, f"verified on attempt {attempt + 1}")
        report.verdict = "verified-embedding"
        return EmbedResult(emb, report, state, hom, resized.partition, labelling)
    raise EmbeddingPipelineError(
        f"pipeline exhausted {cfg.pipeline_retries} attempts ({last_failure})", report
    )
