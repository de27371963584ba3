"""Compatibility checking, two-phase embedding, and the end-to-end pipeline.

A partition of the target H into classes A_i, B_i aligned with the host
clusters is "compatible" when every H-edge lies over a pair of the cluster
cycle A_0 B_1 A_1 B_2 ... A_{k-1} B_0, that is over (A_i, B_i) or
(A_i, B_{i+1}), the pairs the host's certificates cover, and the boundary
(vertices with an edge leaving the cycle's matching pairs (A_i, B_i)) and
its fringe of neighbours are small.  Embedding then proceeds in two
phases: the boundary vertices go first, greedily in bandwidth order, each
placed on an unused typical host vertex compatible with its
already-embedded neighbours; each matching pair is then completed by
random-greedy placement of its X side and a maximum-matching finish on
the candidate graph of its Y side, independently of the other pairs, so a
pair that fails is retried alone.  Placement keeps its state in per-side
lists indexed by target vertex and reads neighbours from H's bit rows; the
``VertexId`` maps of the ``Embedding`` are built once, at the end.  Every
embedding is verified by ``graphs.verify_embedding`` before it is returned;
no unverified output ever escapes.  The pipeline distributes
the target deterministically, in runs along the cluster cycle sized to the
phase-1 targets, so phase 2 only touches the cluster sizes up; it accepts a
distribution only when both clauses hold at the schedule's epsilon.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .graphs import (
    BipartiteGraph,
    Check,
    Embedding,
    GraphError,
    Side,
    VertexId,
    id_table,
    iter_bits,
    verify_embedding,
)
from .homomorphism import (
    BandwidthLabelling,
    CycleHomomorphism,
    _cycle_edge,
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
    _pair_rows,
    _shuffle,
    degree_at_least,
    stream,
)


# ---------------------------------------------------------------------------
# compatibility
# ---------------------------------------------------------------------------


@dataclass
class CompatibilityReport:
    cluster_of: dict[Side, tuple[int, ...]]  # the target partition, as each side's map
    boundary: dict[Side, int]  # S, one bit row per side
    fringe: dict[Side, int]  # T, one bit row per side
    edge_clause: Check
    boundary_clause: Check

    @property
    def ok(self) -> bool:
        return self.edge_clause.ok and self.boundary_clause.ok

    @property
    def detail(self) -> str:
        """The failing clauses' details, joined."""
        clauses = (self.edge_clause, self.boundary_clause)
        return "; ".join(c.detail for c in clauses if not c.ok)


def compatibility_report(
    H: BipartiteGraph,
    cluster_of_x: Sequence[int],
    cluster_of_y: Sequence[int],
    k: int,
    epsilon: Rational,
) -> CompatibilityReport:
    """Evaluate the compatibility clauses exactly along the cluster cycle.

    X vertex x lies in class ("A", cluster_of_x[x]) and Y vertex y in
    ("B", cluster_of_y[y]), every cluster in 0..k-1, and a class's budget
    is the number of vertices its map sends to it.  The regular pairs are
    the 2k pairs (A_i, B_i) and (A_i, B_{i+1}) of the cycle
    A_0 B_1 A_1 B_2 ... A_{k-1} B_0, and the super-regular pairs its
    matching (A_i, B_i).  Every H-edge must lie
    over a regular pair.  The boundary S holds the vertices with an edge
    between A_i and B_j for i != j, and the fringe T the neighbours of S
    outside S; the report keeps each as one bit row per side.  A class's
    part of S may hold at most epsilon times its budget, and its part of T
    at most epsilon times the smaller budget of the class and its partner.
    The classes are checked A_0..A_{k-1}, then B_0..B_{k-1}, the boundary
    before the fringe, and the first bound exceeded is named.
    """
    eps = frac(epsilon)
    cluster_of = {Side.A: tuple(cluster_of_x), Side.B: tuple(cluster_of_y)}
    held: dict[Side, Counter[int]] = {}
    for side, clusters in cluster_of.items():
        if len(clusters) != H.side_size(side):
            raise GraphError(f"the {side.value}-side map has {len(clusters)} entries")
        held[side] = Counter(clusters)
        stray = held[side].keys() - range(k)
        if stray:
            raise GraphError(
                f"the {side.value}-side map sends vertices to cluster {min(stray)}, "
                f"outside 0..{k - 1}"
            )

    edge_clause = Check(True)
    s_a = s_b = 0
    of_x, of_y = cluster_of[Side.A], cluster_of[Side.B]
    for x, y in H.edges():
        i, j = of_x[x], of_y[y]
        if i != j:
            s_a |= 1 << x
            s_b |= 1 << y
            if edge_clause.ok and not _cycle_edge(i, j, k):
                edge_clause = Check(False, f"edge ({x},{y}) lies over uncertified pair {(i, j)}")
    reach_a = reach_b = 0
    for y in iter_bits(s_b):
        reach_a |= H.adj_b[y]
    for x in iter_bits(s_a):
        reach_b |= H.adj_a[x]
    boundary = {Side.A: s_a, Side.B: s_b}
    fringe = {Side.A: reach_a & ~s_a, Side.B: reach_b & ~s_b}

    def excesses():
        for side in Side:
            of, size, other = cluster_of[side], held[side], held[side.opposite()]
            in_s = Counter(map(of.__getitem__, iter_bits(boundary[side])))
            in_t = Counter(map(of.__getitem__, iter_bits(fringe[side])))
            for i in range(k):
                c = (side.value, i)
                if in_s[i] > eps * size[i]:
                    yield f"boundary of {c} has {in_s[i]} > eps*{size[i]}"
                budget = min(size[i], other[i])
                if in_t[i] > eps * budget:
                    yield f"fringe of {c} has {in_t[i]} > eps*min-component-size {budget}"

    excess = next(excesses(), None)
    boundary_clause = Check(excess is None, excess or "")
    return CompatibilityReport(cluster_of, boundary, fringe, edge_clause, boundary_clause)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


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
    the boundary and fringe vertices greedily in the given order, drawing
    from ``random.Random(seed)``.  Phase 2 completes each matching pair
    (A_i, B_i): its X side is placed random-greedily on typical host
    vertices, after which every remaining Y vertex has all neighbours
    embedded and the pair is finished by a maximum matching on the
    admissible-placement graph.  A vertex outside the boundary and fringe
    has all its neighbours in its partner class, and a pair writes only its
    own two clusters, so the pairs complete independently: each pair gets
    up to ``retries`` attempts of its own, attempt t of pair i on the
    stream ``stream(seed, "completion", i, t)``, and a failed attempt's
    placements are dropped.  Placement works in cluster-local coordinates:
    local index t of a cluster is its t-th member in ascending order, and
    each matching pair's adjacency is read once, both ways.  Phase-1
    exhaustion and a pair that fails all its attempts raise
    :class:`EmbeddingError` with the stuck vertex or a witness set violating
    the matching condition; the whole result is verified once before it is
    returned.  Its ``mapping`` and ``phases`` are in placement order: phase
    1's vertices, then pair by pair the X side and the Y side.
    """
    k = g_partition.k
    # per side (0 = A, 1 = B): each target vertex's cluster, and each
    # cluster's host vertex set
    of = (report.cluster_of[Side.A], report.cluster_of[Side.B])
    groups = (g_partition.clusters_a, g_partition.clusters_b)
    for side, mine, clusters in zip(Side, of, groups):
        held = Counter(mine)
        for i in sorted(held.keys() | range(k)):
            size = clusters[i].size if 0 <= i < k else 0
            if held[i] != size:
                raise EmbeddingError(
                    f"class {(side.value, i)} has {held[i]} vertices but its cluster holds "
                    f"{size}; spanning embedding needs exact sizes"
                )
    if not report.ok:
        raise EmbeddingError(f"partitions are not compatible: {report.detail}")
    ids = (id_table(Side.A, H.size_a), id_table(Side.B, H.size_b))

    # local index t of cluster i on side s is host vertex members[s][i][t];
    # rows[s][i][t] is its adjacency to the partner cluster, in that
    # cluster's indices
    members = tuple([list(vs.indices()) for vs in clusters] for clusters in groups)
    rows: tuple[list, list] = ([None] * k, [None] * k)
    # typical host vertices per cluster: at least (d - eps)|partner|
    # neighbours in the partner cluster, to keep the completion phase healthy
    typical = ([0] * k, [0] * k)
    for i in range(k):
        rows[0][i], rows[1][i] = _pair_rows(G, members[0][i], members[1][i])
        for s in (0, 1):
            size = groups[1 - s][i].size
            bound = (params.d - params.epsilon) * size
            typical[s][i] = degree_at_least(
                rows[s][i], (1 << groups[s][i].size) - 1, (1 << size) - 1, bound
            )

    # per side and target vertex: its image's local index, -1 until placed
    image = ([-1] * H.size_a, [-1] * H.size_b)
    free = tuple([(1 << vs.size) - 1 for vs in clusters] for clusters in groups)
    h_adj, g_adj = (H.adj_a, H.adj_b), (G.adj_a, G.adj_b)

    def phase1_mask(s: int, v: int, i: int) -> int:
        """The free local indices of cluster i on side s adjacent to the
        images of v's placed neighbours; an image outside the matching pair
        has its adjacency read from G when asked for."""
        mask = free[s][i]
        o = 1 - s
        placed, of_o = image[o], of[o]
        for w in iter_bits(h_adj[s][v]):
            t = placed[w]
            if t < 0:
                continue
            j = of_o[w]
            if j == i:
                mask &= rows[o][i][t]
            else:
                row = g_adj[o][members[o][j][t]]
                mask &= _local_row(row, members[s][i], groups[s][i].universe)
        return mask

    # phase 1: boundary and fringe vertices, in labelling order; the others
    # are kept, in that order, for their matching pair's completion
    getrandbits = random.Random(seed).getrandbits
    early = tuple(report.boundary[side] | report.fringe[side] for side in Side)
    rest = ([[] for _ in range(k)], [[] for _ in range(k)])
    first: list[VertexId] = []
    for v in H.vertices() if order is None else order:
        s, x = v.side is Side.B, v.index
        i = of[s][x]
        if not early[s] >> x & 1:
            rest[s][i].append(x)
            continue
        t = _choose(phase1_mask(s, x, i), typical[s][i], getrandbits)
        if t is None:
            raise EmbeddingError(
                f"phase 1 exhausted candidates for {v} in class {(v.side.value, i)}", stuck=v
            )
        image[s][x] = t
        free[s][i] &= ~(1 << t)
        first.append(v)

    # phase 2: the candidates phase 1 leaves each pair's rest, which only the
    # pair's own placements narrow: their neighbours lie in the partner class
    bases = ([0] * H.size_a, [0] * H.size_b)
    for s in (0, 1):
        for i, vs in enumerate(rest[s]):
            for v in vs:
                bases[s][v] = phase1_mask(s, v, i)
    # an attempt's X images; a Y vertex's neighbours are phase 1's (never
    # written here) or its partner class's rest (written by the attempt)
    new_x = [-1] * H.size_a

    def complete(i: int, getrandbits) -> list[int]:
        """Place the rest of X class i greedily into ``new_x``, then match
        Y class i; returns the Y side's images."""
        free_a, typical_a, base_a = free[0][i], typical[0][i], bases[0]
        for x in rest[0][i]:
            t = _choose(free_a & base_a[x], typical_a, getrandbits)
            if t is None:
                raise EmbeddingError(
                    f"completion stuck on {ids[0][x]} in {('A', i)}", stuck=ids[0][x]
                )
            new_x[x] = t
            free_a &= ~(1 << t)
        row_a, adj_b, base_b = rows[0][i], H.adj_b, bases[1]
        cands: list[list[int]] = []
        for y in rest[1][i]:
            mask = base_b[y]
            for w in iter_bits(adj_b[y]):
                t = new_x[w]
                if t >= 0:
                    mask &= row_a[t]
            opts = list(iter_bits(mask))
            _shuffle(getrandbits, opts)
            cands.append(opts)
        match, deficient = _max_matching(cands, groups[1][i].size)
        if deficient:
            reached, saw = deficient
            ys = rest[1][i]
            raise EmbeddingError(
                f"matching completion deficient in {('B', i)}: {len(reached)} vertices "
                f"share {len(saw)} candidates",
                stuck=ids[1][ys[match.index(-1)]],
                hall_violator=[ids[1][y] for y in sorted(ys[t] for t in reached)],
            )
        return match

    for i in range(k):
        last_error: Optional[EmbeddingError] = None
        for attempt in range(retries):
            try:
                match = complete(i, random.Random(stream(seed, "completion", i, attempt)).getrandbits)
            except EmbeddingError as e:
                # without its traceback, the error does not pin the attempt's frames
                last_error = e.with_traceback(None)
                continue
            for x in rest[0][i]:
                image[0][x] = new_x[x]
            for y, t in zip(rest[1][i], match):
                image[1][y] = t
            break
        else:
            raise EmbeddingError(
                f"no completion of pair {('A', i)}-{('B', i)} within {retries} attempts: "
                f"{last_error}",
                stuck=getattr(last_error, "stuck", None),
                hall_violator=getattr(last_error, "hall_violator", None),
            ) from last_error

    # the VertexId maps, in placement order: phase 1, then each pair's X
    # side and Y side
    host = (id_table(Side.A, G.size_a), id_table(Side.B, G.size_b))
    mapping: dict[VertexId, VertexId] = {}
    phases: dict[VertexId, str] = {}

    def record(vs, phase: str) -> None:
        for v in vs:
            s, x = v.side is Side.B, v.index
            mapping[v] = host[s][members[s][of[s][x]][image[s][x]]]
            phases[v] = phase

    record(first, "boundary-greedy")
    for i in range(k):
        record(map(ids[0].__getitem__, rest[0][i]), "completion-greedy")
        record(map(ids[1].__getitem__, rest[1][i]), "completion-matching")
    emb = Embedding(mapping, phases)
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
    size_slack: Rational = Fraction(3, 10)
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
    # the end of the previous stage: stages run back to back, except that
    # placement runs inside host phase 2 and is counted in its time
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
    compatibility clauses hold at the schedule epsilon, and hands phase 2
    and placement the seed ``stream(seed, "attempt", a)``.  Placement
    (``embed_compatible``) runs on the resized partition while phase 2's
    certification batch samples: it reads none of phase 2's verdicts,
    which are claimed after it and go only into the host-phase-2 record,
    made before the embedding record whether placement succeeded or not.
    Verification failure is fatal: no unverified embedding is ever
    returned.
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

    try:
        schedule = derive_parameter_schedule(
            gamma, max_degree, cfg.epsilon, cfg.k0, cfg.mode, d=cfg.d, size_slack=cfg.size_slack
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
        rep = compatibility_report(H, hom.cluster_of_x, hom.cluster_of_y, k, schedule.epsilon)
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

        sub = stream(seed, "attempt", attempt)
        placed = []  # the embedding, or the EmbeddingError placement raised

        def place(partition: ClusterPartition) -> None:
            try:
                placed.append(embed_compatible(
                    G, H, partition, rep, schedule.final_params(), sub,
                    order=labelling.order, retries=cfg.embed_retries,
                ))
            except EmbeddingError as e:
                placed.append(e)

        try:
            resized = resize_host_partition(
                state, G, hom.preimage_a, hom.preimage_b,
                budget=cfg.sample_budget, seed=sub, meanwhile=place,
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

        [emb] = placed
        if isinstance(emb, EmbeddingError):
            report.record("embedding", False, str(emb))
            last_failure = f"embedding: {emb}"
            continue
        # embed_compatible returns only embeddings that verify_embedding passed
        report.record("embedding", True, f"verified on attempt {attempt + 1}")
        report.verdict = "verified-embedding"
        return EmbedResult(emb, report, state, hom, resized.partition, labelling)
    raise EmbeddingPipelineError(
        f"pipeline exhausted {cfg.pipeline_retries} attempts ({last_failure})", report
    )
