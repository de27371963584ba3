"""Compatibility checking, two-phase embedding, and the end-to-end pipeline.

A partition of the target H into classes aligned with the host clusters is
"compatible" when classes fit size-wise, every H-edge lands on a certified
regular pair, and the boundary sets (vertices with edges leaving the
super-regular matching pairs, plus their neighbours) are small.  Embedding
then proceeds in two phases: the boundary vertices go first, greedily in
bandwidth order, each placed on an unused typical host vertex compatible
with its already-embedded neighbours; each matching pair is then completed
by random-greedy placement of its X side and a maximum-matching finish on
the candidate graph of its Y side.  Every embedding is verified before it
is returned; no unverified output ever escapes.  The pipeline distributes
the target deterministically, in runs along the cluster cycle sized to the
phase-1 targets, so phase 2 only touches the cluster sizes up; it accepts a
distribution only when all three clauses hold at the schedule's epsilon.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .graphs import BipartiteGraph, Check, GraphError, Side, VertexId, VertexSet, iter_bits
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
from .regularity import ClusterPartition, RegularityParams, _mix_seed, typical_vertices

ClassKey = tuple[str, int]


# ---------------------------------------------------------------------------
# compatibility
# ---------------------------------------------------------------------------


@dataclass
class CompatibilityReport:
    classes: dict[ClassKey, frozenset[VertexId]]  # the target partition
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
    classes: Mapping[ClassKey, Iterable[VertexId]],
    sizes: Mapping[ClassKey, int],
    r_edges: Iterable[tuple[int, int]],
    rprime_edges: Iterable[tuple[int, int]],
    epsilon: Rational,
) -> CompatibilityReport:
    """Evaluate the three compatibility clauses exactly.

    ``r_edges`` and ``rprime_edges`` list pairs (i, j) meaning the class
    pair (("A", i), ("B", j)); ``rprime_edges``, the super-regular pairs,
    must form a matching.  The boundary set of a class holds its vertices
    with a neighbour in a class other than its partner, and the fringe
    holds neighbours of boundary vertices that are not boundary themselves.
    The fringe bound uses the smaller size budget of a class and its partner.
    """
    eps = frac(epsilon)
    cls = {c: frozenset(v) for c, v in classes.items()}
    class_of: dict[VertexId, ClassKey] = {}
    for c, members in cls.items():
        for v in members:
            if v in class_of:
                raise GraphError(f"{v} appears in two classes")
            class_of[v] = c
    for v in H.vertices():
        if v not in class_of:
            raise GraphError(f"{v} not covered by the class partition")
    r = {(i, j) for i, j in r_edges}
    partner = _partners(rprime_edges)
    if any(c[0] == "A" and (c[1], p[1]) not in r for c, p in partner.items()):
        raise GraphError("the super-regular pair list must be a subset of the regular one")

    size_clause = Check(True)
    for c in cls:
        if len(cls[c]) > sizes[c]:
            size_clause = Check(
                False, f"class {c} holds {len(cls[c])} vertices, budget {sizes[c]}"
            )
            break

    edge_clause = Check(True)
    boundary: dict[ClassKey, set[VertexId]] = {c: set() for c in cls}
    for x, y in H.edges():
        vx, vy = VertexId(Side.A, x), VertexId(Side.B, y)
        cx, cy = class_of[vx], class_of[vy]
        if cx[0] == cy[0]:
            if edge_clause.ok:
                edge_clause = Check(
                    False, f"edge ({x},{y}) joins same-side classes {cx} and {cy}"
                )
            continue
        pair = (cx[1], cy[1]) if cx[0] == "A" else (cy[1], cx[1])
        if pair not in r and edge_clause.ok:
            edge_clause = Check(
                False, f"edge ({x},{y}) lies over uncertified pair {pair}"
            )
        if partner.get(cx) != cy:
            boundary[cx].add(vx)
            boundary[cy].add(vy)

    s_union: set[VertexId] = set().union(*boundary.values())
    fringe: dict[ClassKey, set[VertexId]] = {c: set() for c in cls}
    for v in s_union:
        for w in H.neighbours(v):
            if w not in s_union:
                fringe[class_of[w]].add(w)

    boundary_clause = Check(True)
    for c in cls:
        p = partner.get(c)
        budget = min(sizes[c], sizes[p]) if p in cls else sizes[c]
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
        cls,
        partner,
        {c: frozenset(boundary[c]) for c in cls},
        {c: frozenset(fringe[c]) for c in cls},
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
    for x, y in H.edges():
        ga = mapping[VertexId(Side.A, x)]
        gb = mapping[VertexId(Side.B, y)]
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

    ``report`` is the :func:`compatibility_report` of H's classes at
    ``params.epsilon``; each class must hold exactly its cluster's size in
    ``g_partition``, and the report's clauses must hold.  Phase 1 embeds
    the boundary and fringe vertices greedily in the given order.  Phase 2
    completes each matching pair: its X side is placed random-greedily on
    typical host vertices, after which every remaining Y vertex has all
    neighbours embedded and the pair is finished by a maximum matching on
    the admissible-placement graph.  Phase 2 is retried with fresh
    randomness up to ``retries`` times; phase-1 exhaustion and a deficient
    matching raise :class:`EmbeddingError` with the stuck vertex or a
    witness set violating the matching condition.
    """
    k = g_partition.k
    classes = report.classes
    g_classes: dict[ClassKey, VertexSet] = {}
    for i in range(k):
        g_classes[("A", i)] = g_partition.clusters_a[i]
        g_classes[("B", i)] = g_partition.clusters_b[i]
    for c in classes:
        if len(classes[c]) != g_classes[c].size:
            raise EmbeddingError(
                f"class {c} has {len(classes[c])} vertices but its cluster holds "
                f"{g_classes[c].size}; spanning embedding needs exact sizes"
            )
    if not report.ok:
        raise EmbeddingError(f"partitions are not compatible: {report.detail}")
    partner = report.partner

    if order is None:
        order = sorted(H.vertices())
    pos = {v: t for t, v in enumerate(order)}

    # typical host vertices per class: enough neighbours in the partner
    # cluster to keep the completion phase healthy
    typical_bits: dict[ClassKey, int] = {}
    for c, vs in g_classes.items():
        p = partner.get(c)
        if p is None:
            typical_bits[c] = vs.bits
            continue
        pset = g_classes[p]
        typical_bits[c] = typical_vertices(G, vs, pset, pset, params).vertices.bits

    # boundary and fringe vertices with their classes, in labelling order
    boundary_order = sorted(
        ((v, c) for c in classes for v in report.boundary[c] | report.fringe[c]),
        key=lambda vc: pos[vc[0]],
    )

    def admissible_mask(v: VertexId, base_bits: int, images: dict[VertexId, VertexId]) -> int:
        mask = base_bits
        for w in H.neighbours(v):
            img = images.get(w)
            if img is not None:
                mask &= G.adj_a[img.index] if img.side is Side.A else G.adj_b[img.index]
        return mask

    def place(v: VertexId, c: ClassKey, images, used, rng: random.Random) -> bool:
        """Put v on a random free host vertex of cluster c adjacent to the
        images of its placed neighbours, typical vertices first."""
        side = Side(c[0])
        free = g_classes[c].bits & ~used[side]
        mask = admissible_mask(v, free & typical_bits[c], images)
        # allow non-typical placements before giving up
        mask = mask or admissible_mask(v, free, images)
        if not mask:
            return False
        idx = rng.choice(list(iter_bits(mask)))
        images[v] = VertexId(side, idx)
        used[side] |= 1 << idx
        return True

    def complete(ca: ClassKey, cb: ClassKey, images, used, phases, rng: random.Random) -> None:
        """Place the rest of X class ca greedily, then match Y class cb."""
        x_rest = sorted((v for v in classes[ca] if v not in images), key=lambda v: pos[v])
        y_rest = sorted((v for v in classes[cb] if v not in images), key=lambda v: pos[v])
        for v in x_rest:
            if not place(v, ca, images, used, rng):
                raise EmbeddingError(f"completion stuck on {v} in {ca}", stuck=v)
            phases[v] = "completion-greedy"

        free_bits = g_classes[cb].bits & ~used[Side.B]
        free = list(iter_bits(free_bits))
        local = {b: t for t, b in enumerate(free)}
        cands: list[list[int]] = []
        for v in y_rest:
            mask = admissible_mask(v, free_bits, images)
            opts = [local[b] for b in iter_bits(mask)]
            rng.shuffle(opts)
            cands.append(opts)
        match, deficient = _max_matching(cands, len(free))
        if deficient:
            reached, saw = deficient
            raise EmbeddingError(
                f"matching completion deficient in {cb}: {len(reached)} vertices share "
                f"{len(saw)} candidates",
                stuck=y_rest[match.index(-1)],
                hall_violator=sorted(y_rest[t] for t in reached),
            )
        for t, v in enumerate(y_rest):
            b = free[match[t]]
            images[v] = VertexId(Side.B, b)
            used[Side.B] |= 1 << b
            phases[v] = "completion-matching"

    last_error: Optional[EmbeddingError] = None
    phase1_images: dict[VertexId, VertexId] = {}
    phase1_used = {Side.A: 0, Side.B: 0}
    rng1 = random.Random(seed)
    for v, c in boundary_order:
        if not place(v, c, phase1_images, phase1_used, rng1):
            raise EmbeddingError(
                f"phase 1 exhausted candidates for {v} in class {c}", stuck=v
            )

    for attempt in range(retries):
        rng = random.Random((seed + 97 * attempt + 1) & 0x7FFFFFFF)
        images = dict(phase1_images)
        used = dict(phase1_used)
        phases = {v: "boundary-greedy" for v in images}
        try:
            for ca in sorted(c for c in partner if c[0] == "A"):
                complete(ca, partner[ca], images, used, phases, rng)
            emb = Embedding(images, phases)
            check = verify_embedding(G, H, emb)
            if not check:
                raise EmbeddingError(f"verification failed: {check.detail}")
            return emb
        except EmbeddingError as e:
            last_error = e
            continue
    raise EmbeddingError(
        f"no embedding within {retries} completion attempts: {last_error}",
        stuck=getattr(last_error, "stuck", None),
        hall_violator=getattr(last_error, "hall_violator", None),
    )


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
    labelling_mode: str = "cuthill-mckee"
    sample_budget: int = 800
    embed_retries: int = 20
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
        try:
            labelling = bandwidth_labelling(H, cfg.labelling_mode)
        except ValueError as e:
            report.record("labelling", False, str(e))
            raise EmbeddingPipelineError(str(e), report) from e
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
        classes: dict[ClassKey, set[VertexId]] = {(s, i): set() for s in "AB" for i in range(k)}
        for side, cluster_of in ((Side.A, hom.cluster_of_x), (Side.B, hom.cluster_of_y)):
            for v, c in enumerate(cluster_of):
                classes[(side.value, c)].add(VertexId(side, v))
        sizes = {c: len(members) for c, members in classes.items()}
        rep = compatibility_report(
            H, classes, sizes, cycle, rprime, schedule.epsilon
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
                state, G, hom.preimage_a, hom.preimage_b, budget=cfg.sample_budget, seed=sub
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
