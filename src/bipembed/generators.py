"""Instance generation: dense hosts with verified minimum degree, and
bounded-degree small-bandwidth targets with verified labellings.

Every generated target comes with a labelling whose bandwidth is computed
by scanning the edges, never assumed from the construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from .graphs import BipartiteGraph, GraphError, Side, VertexId
from .homomorphism import BandwidthLabelling, bandwidth_labelling
from .ratmath import ceil_frac, frac

HOST_KINDS = ("host-random-min-degree", "host-planted-blocks")
TARGET_KINDS = (
    "target-hamilton-cycle",
    "target-ladder",
    "target-moebius-ladder",
    "target-grid",
    "target-random-local",
)


@dataclass
class InstanceSpec:
    kind: str
    n: int = 0
    seed: int = 0
    params: dict = field(default_factory=dict)


def gen_host(spec: InstanceSpec) -> BipartiteGraph:
    """Generate a balanced host meeting its declared minimum degree.

    Random model: each edge independently with probability
    1/2 + gamma + slack, then deficient vertices are patched with random
    extra edges until the degree bound holds on both sides.
    """
    if spec.kind == "host-planted-blocks":
        k = int(spec.params.get("blocks", 2))
        m = int(spec.params.get("block_size", spec.n // max(k, 1)))
        edges = []
        for blk in range(k):
            for a in range(blk * m, (blk + 1) * m):
                for b in range(blk * m, (blk + 1) * m):
                    edges.append((a, b))
        return BipartiteGraph.build(k * m, k * m, edges)
    if spec.kind != "host-random-min-degree":
        raise GraphError(f"not a host kind: {spec.kind}")
    n = spec.n
    gamma = frac(spec.params.get("gamma", Fraction(1, 10)))
    slack = frac(spec.params.get("slack", Fraction(1, 20)))
    if gamma >= Fraction(1, 2):
        raise GraphError(f"gamma = {gamma} >= 1/2 is unsatisfiable")
    delta = ceil_frac((Fraction(1, 2) + gamma) * n)
    p = min(Fraction(49, 50), Fraction(1, 2) + gamma + slack)
    # a float draw lies below p exactly when it lies below the smallest
    # float >= p, so the n^2 comparisons need no rational arithmetic
    pf = float(p)
    if Fraction(pf) < p:
        pf = math.nextafter(pf, math.inf)
    rng = random.Random(spec.seed)
    adj = [[rng.random() < pf for _ in range(n)] for _ in range(n)]
    rows = [sum(adj[a]) for a in range(n)]
    for a in range(n):
        while rows[a] < delta:
            b = rng.randrange(n)
            if not adj[a][b]:
                adj[a][b] = True
                rows[a] += 1
    cols = [sum(col) for col in zip(*adj)]
    for b in range(n):
        while cols[b] < delta:
            a = rng.randrange(n)
            if not adj[a][b]:
                adj[a][b] = True
                cols[b] += 1
    g = BipartiteGraph.build(
        n, n, [(a, b) for a in range(n) for b in range(n) if adj[a][b]]
    )
    assert g.min_degree() >= delta
    return g


def _zigzag_cycle_order(n: int) -> list[VertexId]:
    # cycle vertices 0..2n-1 in cycle order; X at even cycle positions;
    # interleaving both directions keeps cycle neighbours within 2 slots
    seq = [0]
    lo, hi = 1, 2 * n - 1
    while lo <= hi:
        seq.append(lo)
        if hi > lo:
            seq.append(hi)
        lo += 1
        hi -= 1
    return [VertexId(Side.A if c % 2 == 0 else Side.B, c // 2) for c in seq]


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    edges = []
    for t in range(n):
        edges.append((t, t))
        edges.append(((t + 1) % n, t))
    return edges


def gen_target(spec: InstanceSpec) -> tuple[BipartiteGraph, BandwidthLabelling]:
    """Generate a bounded-degree target plus a verified bandwidth labelling."""
    n = spec.n
    if spec.kind == "target-hamilton-cycle":
        if n < 2:
            raise GraphError("cycle needs at least 2 vertices per side")
        g = BipartiteGraph.build(n, n, _cycle_edges(n))
        return g, bandwidth_labelling(g, "given", _zigzag_cycle_order(n))

    if spec.kind == "target-ladder":
        # P_m x K_2 with rungs interleaved: u_t, v_t at positions 2t, 2t+1
        m = n
        if m < 1:
            raise GraphError("ladder needs at least one rung")
        # u_t has colour t%2, v_t the opposite; X-index assignment in order
        side_of_u = [Side.A if t % 2 == 0 else Side.B for t in range(m)]
        idx_u, idx_v = [], []
        count = {Side.A: 0, Side.B: 0}
        for t in range(m):
            su = side_of_u[t]
            idx_u.append(count[su])
            count[su] += 1
            sv = su.opposite()
            idx_v.append(count[sv])
            count[sv] += 1
        edges = []

        def add(su, iu, sv, iv):
            a, b = (iu, iv) if su is Side.A else (iv, iu)
            edges.append((a, b))

        for t in range(m):
            add(side_of_u[t], idx_u[t], side_of_u[t].opposite(), idx_v[t])
            if t + 1 < m:
                add(side_of_u[t], idx_u[t], side_of_u[t + 1], idx_u[t + 1])
                add(side_of_u[t].opposite(), idx_v[t], side_of_u[t + 1].opposite(), idx_v[t + 1])
        g = BipartiteGraph.build(count[Side.A], count[Side.B], edges)
        if not g.is_balanced:
            raise GraphError("ladder colouring is unbalanced; use an even rung count")
        order = []
        for t in range(m):
            order.append(VertexId(side_of_u[t], idx_u[t]))
            order.append(VertexId(side_of_u[t].opposite(), idx_v[t]))
        return g, bandwidth_labelling(g, "given", order)

    if spec.kind == "target-moebius-ladder":
        # cycle 0..2m-1 plus antipodal chords i ~ i+m; bipartite iff m odd
        m = n
        if m % 2 == 0:
            raise GraphError("antipodal chords need an odd half-length to stay bipartite")
        total = 2 * m
        colour = [i % 2 for i in range(total)]
        x_idx = {}
        y_idx = {}
        for i in range(total):
            if colour[i] == 0:
                x_idx[i] = len(x_idx)
            else:
                y_idx[i] = len(y_idx)
        edges = set()

        def add(i, j):
            if colour[i] == 0:
                edges.add((x_idx[i], y_idx[j]))
            else:
                edges.add((x_idx[j], y_idx[i]))

        for i in range(total):
            add(i, (i + 1) % total)
        for i in range(m):
            add(i, i + m)
        g = BipartiteGraph.build(m, m, edges)
        # rungs {t, t+m} form a cycle of length m; zig-zag that rung cycle
        seq = [0]
        lo, hi = 1, m - 1
        while lo <= hi:
            seq.append(lo)
            if hi > lo:
                seq.append(hi)
            lo += 1
            hi -= 1
        order = []
        for t in seq:
            for v in (t, t + m):
                side = Side.A if colour[v] == 0 else Side.B
                order.append(VertexId(side, x_idx[v] if colour[v] == 0 else y_idx[v]))
        return g, bandwidth_labelling(g, "given", order)

    if spec.kind == "target-grid":
        w = int(spec.params.get("width", 4))
        h = int(spec.params.get("height", max(1, (2 * n) // max(w, 1))))
        if w * h != 2 * n or w * h % 2 == 1:
            raise GraphError(f"grid {w}x{h} does not hold 2n = {2 * n} vertices")
        colour = lambda r, c: (r + c) % 2
        x_idx, y_idx = {}, {}
        for r in range(h):
            for c in range(w):
                if colour(r, c) == 0:
                    x_idx[(r, c)] = len(x_idx)
                else:
                    y_idx[(r, c)] = len(y_idx)
        edges = set()
        for r in range(h):
            for c in range(w):
                for dr, dc in ((0, 1), (1, 0)):
                    rr, cc = r + dr, c + dc
                    if rr < h and cc < w:
                        if colour(r, c) == 0:
                            edges.add((x_idx[(r, c)], y_idx[(rr, cc)]))
                        else:
                            edges.add((x_idx[(rr, cc)], y_idx[(r, c)]))
        g = BipartiteGraph.build(len(x_idx), len(y_idx), edges)
        if not g.is_balanced:
            raise GraphError("grid colour classes are unbalanced")
        order = []
        for r in range(h):
            for c in range(w):
                side = Side.A if colour(r, c) == 0 else Side.B
                order.append(VertexId(side, x_idx[(r, c)] if side is Side.A else y_idx[(r, c)]))
        return g, bandwidth_labelling(g, "given", order)

    if spec.kind == "target-random-local":
        w = int(spec.params.get("window", 4))
        max_degree = int(spec.params.get("max_degree", 3))
        p = float(spec.params.get("edge_prob", 0.5))
        rng = random.Random(spec.seed)
        total = 2 * n
        # alternate sides along the order so both sides stay balanced
        sides = [Side.A if t % 2 == 0 else Side.B for t in range(total)]
        degree = [0] * total
        edges = []
        for t in range(total):
            for u in range(t + 1, min(total, t + w + 1)):
                if sides[t] is sides[u]:
                    continue
                if degree[t] >= max_degree or degree[u] >= max_degree:
                    continue
                if rng.random() < p:
                    a, b = (t, u) if sides[t] is Side.A else (u, t)
                    edges.append((a // 2, b // 2))
                    degree[t] += 1
                    degree[u] += 1
        g = BipartiteGraph.build(n, n, edges)
        order = [VertexId(sides[t], t // 2) for t in range(total)]
        lab = bandwidth_labelling(g, "given", order)
        assert lab.bandwidth <= w
        return g, lab

    raise GraphError(f"not a target kind: {spec.kind}")
