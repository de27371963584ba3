"""Cutting a target graph along a bandwidth order and mapping it onto a cycle.

The target H (balanced bipartite, 2n vertices, small bandwidth) is cut into
``ell`` consecutive pieces along a bandwidth labelling: pieces of equal size,
or runs holding given X counts.  A map ``phi`` assigns pieces to the k
cluster pairs; the random one of the balancing lemma keeps the per-cluster
totals below their targets (checked exactly, resampled on failure).  The map
into the doubled cycle C on A_1, B_2, A_2, ..., B_k, A_k, B_1 then sends
most of each piece to its assigned pair and walks short "linking" blocks at
the start of each piece across the intermediate cycle vertices, producing a
graph homomorphism.  The construction does not re-check H's edges itself:
``verify_cycle_homomorphism`` tests every edge against the cycle (the
``homomorphism`` command runs it on what it builds), and the pipeline's gate
is ``embedder.compatibility_report``'s edge clause.

{A_i, B_j} is an edge of C exactly when (j - i) mod k is 0 or 1.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .graphs import BipartiteGraph, Check, GraphError, Side, VertexId, id_table
from .ratmath import Rational, frac


@dataclass(frozen=True)
class BandwidthLabelling:
    order: tuple[VertexId, ...]
    bandwidth: int


def _labelling_from_order(H: BipartiteGraph, order: Sequence[VertexId]) -> BandwidthLabelling:
    if sorted(order) != sorted(H.vertices()):
        raise GraphError("order is not a permutation of the vertex set")
    pos_a = [0] * H.size_a
    pos_b = [0] * H.size_b
    for t, v in enumerate(order):
        if v.side is Side.A:
            pos_a[v.index] = t
        else:
            pos_b[v.index] = t
    bw = 0
    for x, y in H.edges():
        bw = max(bw, abs(pos_a[x] - pos_b[y]))
    return BandwidthLabelling(tuple(order), bw)


def _cuthill_mckee_order(H: BipartiteGraph) -> list[VertexId]:
    deg = {v: H.degree(v) for v in H.vertices()}
    remaining = sorted(deg, key=lambda v: (deg[v], v.side.value, v.index))
    visited: set[VertexId] = set()
    order: list[VertexId] = []
    for start in remaining:
        if start in visited:
            continue
        queue = [start]
        visited.add(start)
        while queue:
            v = queue.pop(0)
            order.append(v)
            nbrs = sorted(
                (w for w in H.neighbours(v) if w not in visited),
                key=lambda w: (deg[w], w.index),
            )
            for w in nbrs:
                visited.add(w)
                queue.append(w)
    return order


def bandwidth_labelling(
    H: BipartiteGraph, order: Optional[Sequence[VertexId]] = None
) -> BandwidthLabelling:
    """A vertex order together with its exact (scanned) bandwidth.

    A given ``order`` is validated as a permutation of H's vertices;
    without one, the Cuthill-McKee BFS level order is used (a heuristic,
    with no optimality claim).
    """
    return _labelling_from_order(H, _cuthill_mckee_order(H) if order is None else order)


# ---------------------------------------------------------------------------
# pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecePartition:
    boundaries: tuple[int, ...]  # start position of each piece
    sizes: tuple[int, ...]
    x_counts: tuple[int, ...]
    y_counts: tuple[int, ...]

    @property
    def ell(self) -> int:
        return len(self.sizes)

    @property
    def min_size(self) -> int:
        return min(self.sizes)


def _pieces_ending_at(labelling: BandwidthLabelling, ends: Sequence[int]) -> PiecePartition:
    """The consecutive intervals of the labelling that end at ``ends``."""
    starts = [0, *ends[:-1]]
    sizes = [end - start for start, end in zip(starts, ends)]
    x_counts = [sum(v.side is Side.A for v in labelling.order[start:end])
                for start, end in zip(starts, ends)]
    return PiecePartition(tuple(starts), tuple(sizes), tuple(x_counts),
                          tuple(s - x for s, x in zip(sizes, x_counts)))


def partition_pieces(
    H: BipartiteGraph, labelling: BandwidthLabelling, ell: int
) -> PiecePartition:
    """Cut the labelling into ell consecutive intervals, larger pieces first."""
    total = H.size_a + H.size_b
    if not 1 <= ell <= total:
        raise GraphError(f"need 1 <= ell <= {total}, got {ell}")
    base, extra = divmod(total, ell)
    return _pieces_ending_at(labelling, [t * base + min(t, extra) for t in range(1, ell + 1)])


def partition_runs(labelling: BandwidthLabelling, x_quotas: Sequence[int]) -> PiecePartition:
    """Cut the labelling into runs of x_quotas[t] X vertices each; every run
    but the last ends at its last X vertex."""
    x_positions = [t for t, v in enumerate(labelling.order) if v.side is Side.A]
    if sum(x_quotas) != len(x_positions) or min(x_quotas) < 1:
        raise GraphError(f"run quotas must be positive and sum to {len(x_positions)}")
    ends = [x_positions[c - 1] + 1 for c in itertools.accumulate(x_quotas[:-1])]
    return _pieces_ending_at(labelling, ends + [len(labelling.order)])


# ---------------------------------------------------------------------------
# randomized balancing of pieces over clusters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BalancingAssignment:
    phi: tuple[int, ...]
    a_totals: tuple[int, ...]
    b_totals: tuple[int, ...]
    class_counts: tuple[int, ...]
    balance_terms: tuple[Fraction, ...]
    retries_used: int
    hypothesis_ok: bool


class BalanceError(RuntimeError):
    def __init__(self, message: str, attempts: int, violation_counts: dict[int, int]):
        super().__init__(message)
        self.attempts = attempts
        self.violation_counts = violation_counts


def balance_assignment(
    targets: Sequence[int],
    x_counts: Sequence[int],
    y_counts: Sequence[int],
    xi: Rational,
    max_retries: int = 50,
    seed: int = 0,
    strict: bool = True,
) -> BalancingAssignment:
    """Sample piece-to-cluster maps until the exact size bounds hold.

    phi(j) = i is drawn with probability targets[i] / n, independently per
    piece; a sample is accepted iff for every cluster both aggregate totals
    stay strictly below targets[i] + xi*n (checked in exact arithmetic).
    With ``strict`` the lemma hypotheses (targets <= n/8, piece sizes at
    most (1+xi)2n/ell, 0 < xi <= 1/4) gate the call; otherwise they are
    only recorded in ``hypothesis_ok``.
    """
    xi = frac(xi)
    k = len(targets)
    ell = len(x_counts)
    if len(y_counts) != ell:
        raise GraphError("x and y piece counts disagree in length")
    n = sum(targets)
    if sum(x_counts) != n or sum(y_counts) != n:
        raise GraphError("piece counts must each sum to the cluster-target total")
    failed = [message for holds, message in (
        (0 < xi <= Fraction(1, 4), f"xi must lie in (0, 1/4], got {xi}"),
        (all(8 * t <= n for t in targets), "a cluster target exceeds n/8"),
        (all(Fraction(x + y) <= (1 + xi) * Fraction(2 * n, ell)
             for x, y in zip(x_counts, y_counts)), "a piece exceeds (1+xi)*2n/ell"),
    ) if not holds]
    hypothesis_ok = not failed
    if strict and failed:
        raise GraphError(failed[0])
    bound = [targets[i] + xi * n for i in range(k)]
    rng = random.Random(seed)
    violations: dict[int, int] = {i: 0 for i in range(k)}
    for attempt in range(max_retries + 1):
        phi = rng.choices(range(k), weights=targets, k=ell)
        a_tot = [0] * k
        b_tot = [0] * k
        cnt = [0] * k
        for j, i in enumerate(phi):
            a_tot[i] += x_counts[j]
            b_tot[i] += y_counts[j]
            cnt[i] += 1
        bad = [i for i in range(k) if not (a_tot[i] < bound[i] and b_tot[i] < bound[i])]
        if not bad:
            terms = tuple(
                Fraction(ell, 3 * n) * (a_tot[i] - b_tot[i]) for i in range(k)
            )
            return BalancingAssignment(
                tuple(phi), tuple(a_tot), tuple(b_tot), tuple(cnt), terms,
                attempt, hypothesis_ok,
            )
        for i in bad:
            violations[i] += 1
    raise BalanceError(
        f"no admissible assignment within {max_retries} retries",
        max_retries + 1,
        violations,
    )


# ---------------------------------------------------------------------------
# the cycle homomorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleHomomorphism:
    k: int
    cluster_of_x: tuple[int, ...]
    cluster_of_y: tuple[int, ...]
    linking: frozenset[VertexId]
    beta_n: int
    phi: tuple[int, ...]

    @property
    def preimage_a(self) -> tuple[int, ...]:
        """The number of X vertices mapped to A_i, for each cluster i."""
        return tuple(map(self.cluster_of_x.count, range(self.k)))

    @property
    def preimage_b(self) -> tuple[int, ...]:
        """The number of Y vertices mapped to B_i, for each cluster i."""
        return tuple(map(self.cluster_of_y.count, range(self.k)))


def _cycle_edge(a_idx: int, b_idx: int, k: int) -> bool:
    return (b_idx - a_idx) % k in (0, 1)


def build_cycle_homomorphism(
    H: BipartiteGraph,
    labelling: BandwidthLabelling,
    pieces: PiecePartition,
    phi: Sequence[int],
    beta_n: int,
    k: int,
) -> CycleHomomorphism:
    """Map V(H) onto the doubled cycle, linking consecutive pieces.

    Within piece t with previous cluster p = phi[t-1] (phi[0] serves as its
    own predecessor, so the first piece has no linking) and jump
    q = (phi[t] - p) mod k, the first 2q blocks of beta_n positions climb
    the cycle: block j sends its X vertices to A_{p + floor(j/2)} and its Y
    vertices to B_{p + ceil(j/2)} (indices mod k); everything else goes to
    A_{phi[t]} / B_{phi[t]}.  The linking set holds the first 2k*beta_n
    positions of every piece regardless of the jump.  H's edges are not
    walked here; ``verify_cycle_homomorphism`` checks them.
    """
    n = H.size_a
    if H.size_b != n:
        raise GraphError("target must be balanced")
    ell = pieces.ell
    if len(phi) != ell:
        raise GraphError(f"phi must assign all {ell} pieces")
    if any(not 0 <= c < k for c in phi):
        raise GraphError("phi value out of cluster range")
    if beta_n < 1:
        raise GraphError("linking block length must be at least 1")
    if labelling.bandwidth > beta_n:
        raise GraphError(
            f"labelling bandwidth {labelling.bandwidth} exceeds block length {beta_n}"
        )
    if (2 * k + 1) * beta_n > pieces.min_size:
        raise GraphError(
            f"pieces of size {pieces.min_size} cannot host 2k+1 = {2 * k + 1} "
            f"blocks of length {beta_n}"
        )
    cluster_of_x = [-1] * n
    cluster_of_y = [-1] * n
    linking: set[VertexId] = set()
    link_span = 2 * k * beta_n
    for t in range(ell):
        prev = phi[t - 1] if t > 0 else phi[0]
        q = (phi[t] - prev) % k
        limit = 2 * q
        start = pieces.boundaries[t]
        for off in range(pieces.sizes[t]):
            v = labelling.order[start + off]
            if off < link_span:
                linking.add(v)
            block = off // beta_n + 1
            if off < link_span and block <= limit:
                if v.side is Side.A:
                    c = (prev + block // 2) % k
                else:
                    c = (prev + (block + 1) // 2) % k
            else:
                c = phi[t]
            if v.side is Side.A:
                cluster_of_x[v.index] = c
            else:
                cluster_of_y[v.index] = c
    return CycleHomomorphism(
        k, tuple(cluster_of_x), tuple(cluster_of_y), frozenset(linking), beta_n, tuple(phi)
    )


@dataclass
class HomomorphismReport:
    homomorphism: Check
    linking_size: Check
    matching_edges: Check
    preimage_bounds: Check

    @property
    def ok(self) -> bool:
        return (
            self.homomorphism.ok
            and self.linking_size.ok
            and self.matching_edges.ok
            and self.preimage_bounds.ok
        )


def verify_cycle_homomorphism(
    H: BipartiteGraph,
    hom: CycleHomomorphism,
    targets: Sequence[int],
    xi: Rational,
) -> HomomorphismReport:
    """Re-check the homomorphism and its three size guarantees from the
    cluster maps alone; a cluster outside 0..k-1 fails the first clause,
    and a linking vertex outside H the linking clause."""
    xi = frac(xi)
    k = hom.k
    n = H.size_a
    if (len(hom.cluster_of_x), len(hom.cluster_of_y)) != (H.size_a, H.size_b):
        raise GraphError("the cluster maps do not cover the target's vertices")
    stray = next((c for c in hom.cluster_of_x + hom.cluster_of_y if not 0 <= c < k), None)
    homo = Check(stray is None, f"cluster {stray} outside 0..{k - 1}")
    matching = Check(True)
    ids_a, ids_b = id_table(Side.A, H.size_a), id_table(Side.B, H.size_b)
    for x, y in H.edges():
        a_idx = hom.cluster_of_x[x]
        b_idx = hom.cluster_of_y[y]
        if not _cycle_edge(a_idx, b_idx, k) and homo.ok:
            homo = Check(False, f"edge ({x},{y}) -> (A_{a_idx}, B_{b_idx})")
        vx, vy = ids_a[x], ids_b[y]
        if vx not in hom.linking and vy not in hom.linking:
            if a_idx != b_idx and matching.ok:
                matching = Check(
                    False,
                    f"non-linking edge ({x},{y}) not on a matching pair "
                    f"(A_{a_idx}, B_{b_idx})",
                )
    bound = xi * 2 * k * n
    stray_link = min(
        (v for v in hom.linking if not 0 <= v.index < H.side_size(v.side)), default=None
    )
    if stray_link is not None:
        link = Check(False, f"linking vertex {stray_link} outside the target")
    else:
        link = Check(len(hom.linking) <= bound, f"|S| = {len(hom.linking)} vs bound {bound}")
    pre = Check(True)
    for i, (pre_a, pre_b) in enumerate(zip(hom.preimage_a, hom.preimage_b)):
        lim = targets[i] + xi * n
        if not (pre_a < lim and pre_b < lim):
            pre = Check(False, f"cluster {i}: preimages {pre_a}/{pre_b} not below {lim}")
            break
    return HomomorphismReport(homo, link, matching, pre)
