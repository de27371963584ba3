"""Shared instance builders and brute-force oracles for the test suite.

Everything here is deliberately independent of the package's own fast
paths: densities are recomputed from edge lists, subset enumeration is
unrestricted, and the subgraph-isomorphism oracle is a plain backtracker.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from bipembed.graphs import BipartiteGraph, Check, Side, VertexId, VertexSet


def random_bipartite(n: int, p: float, rng: random.Random) -> BipartiteGraph:
    edges = [(a, b) for a in range(n) for b in range(n) if rng.random() < p]
    return BipartiteGraph.build(n, n, edges)


def random_min_degree(n: int, delta: int, p: float, rng: random.Random) -> BipartiteGraph:
    """Random bipartite graph patched until min degree >= delta."""
    adj = [[rng.random() < p for _ in range(n)] for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for a in range(n):
            while sum(adj[a]) < delta:
                b = rng.randrange(n)
                if not adj[a][b]:
                    adj[a][b] = True
                    changed = True
        cols = [sum(adj[a][b] for a in range(n)) for b in range(n)]
        for b in range(n):
            while cols[b] < delta:
                a = rng.randrange(n)
                if not adj[a][b]:
                    adj[a][b] = True
                    cols[b] += 1
                    changed = True
    edges = [(a, b) for a in range(n) for b in range(n) if adj[a][b]]
    return BipartiteGraph.build(n, n, edges)


def cycle_graph(n_per_side: int) -> BipartiteGraph:
    """C_{2n} with X-vertices at even cycle positions."""
    edges = []
    for t in range(n_per_side):
        edges.append((t, t))
        edges.append(((t + 1) % n_per_side, t))
    return BipartiteGraph.build(n_per_side, n_per_side, edges)


def planted_blocks(k: int, m: int) -> BipartiteGraph:
    """Disjoint union of k complete K_{m,m} blocks."""
    edges = []
    for blk in range(k):
        for a in range(blk * m, (blk + 1) * m):
            for b in range(blk * m, (blk + 1) * m):
                edges.append((a, b))
    return BipartiteGraph.build(k * m, k * m, edges)


def brute_force_regular(G: BipartiteGraph, U: VertexSet, W: VertexSet, eps: Fraction):
    """Full enumeration over *all* qualifying subset pairs.

    Returns (is_regular, worst deviation) relative to the deviation clause
    only (no density threshold).
    """
    base = Fraction(
        sum((G.adj_a[a] & W.bits).bit_count() for a in U.indices()), U.size * W.size
    )
    u_members = list(U.indices())
    w_members = list(W.indices())
    worst = Fraction(0)
    su = max(1, math.ceil(eps * len(u_members)))
    sw = max(1, math.ceil(eps * len(w_members)))
    for s in range(su, len(u_members) + 1):
        for uc in combinations(u_members, s):
            for t in range(sw, len(w_members) + 1):
                for wc in combinations(w_members, t):
                    mask = 0
                    for i in wc:
                        mask |= 1 << i
                    dens = Fraction(
                        sum((G.adj_a[a] & mask).bit_count() for a in uc), s * t
                    )
                    worst = max(worst, abs(dens - base))
    return worst <= eps, worst


def oracle_is_valid_embedding(G: BipartiteGraph, H: BipartiteGraph, mapping) -> bool:
    """Independent validity check: injective, side-respecting, edge-preserving."""
    seen = set()
    for hv, gv in mapping.items():
        if hv.side is not gv.side:
            return False
        if gv in seen:
            return False
        seen.add(gv)
    for x, y in H.edges():
        gx = mapping.get(VertexId(Side.A, x))
        gy = mapping.get(VertexId(Side.B, y))
        if gx is None or gy is None:
            return False
        if not G.has_edge(gx.index, gy.index):
            return False
    return True


def reference_verify_embedding(G: BipartiteGraph, H: BipartiteGraph, mapping) -> Check:
    """``verify_embedding`` as it was written on ``VertexId`` keys: the same
    checks in the same order, with the mapping and the used images looked
    up in a dict and a set."""
    for side, size in ((Side.A, H.size_a), (Side.B, H.size_b)):
        for i in range(size):
            if VertexId(side, i) not in mapping:
                return Check(False, f"{VertexId(side, i)} is not mapped")
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
            return Check(False, f"edge ({x},{y}) maps to non-edge ({ga.index},{gb.index})")
    return Check(True)


def oracle_find_embedding(G: BipartiteGraph, H: BipartiteGraph):
    """Exhaustive backtracking subgraph-isomorphism search (side-respecting).

    Only usable for tiny instances; returns a mapping or None.
    """
    n = H.size_a
    order = []
    for i in range(n):
        order.append(VertexId(Side.A, i))
        order.append(VertexId(Side.B, i))
    order.sort(key=lambda v: -H.degree(v))
    used_a = set()
    used_b = set()
    mapping: dict[VertexId, VertexId] = {}

    def feasible(hv: VertexId, gv: VertexId) -> bool:
        for hn in H.neighbours(hv):
            gn = mapping.get(hn)
            if gn is not None:
                a, b = (gv.index, gn.index) if hv.side is Side.A else (gn.index, gv.index)
                if not G.has_edge(a, b):
                    return False
        return True

    def rec(t: int) -> bool:
        if t == len(order):
            return True
        hv = order[t]
        used = used_a if hv.side is Side.A else used_b
        size = G.size_a if hv.side is Side.A else G.size_b
        for idx in range(size):
            if idx in used:
                continue
            gv = VertexId(hv.side, idx)
            if feasible(hv, gv):
                used.add(idx)
                mapping[hv] = gv
                if rec(t + 1):
                    return True
                used.discard(idx)
                del mapping[hv]
        return False

    return dict(mapping) if rec(0) else None


def reference_sampled_check(G: BipartiteGraph, U: VertexSet, W: VertexSet, eps: Fraction,
                            budget: int, seed: int, seen: list | None = None):
    """The sampled deviation check of ``check_regular_pair``, written plainly.

    The same draws in the same order, made with ``Random.sample`` and
    ``Random.choice``; degrees are counted member by member and sorted.
    Sample t is of kind t % 4: kinds 0 and 2 draw U' and W' uniformly;
    kind 1 draws W' inside the neighbourhood of a random member of U
    (widened by up to 8 further random members' neighbourhoods while it is
    shorter than |W'|) and answers with the |U'| members of lowest, then
    of highest degree into it (ties by index); kind 3 is kind 1 with the
    sides swapped.  Returns the result, ("REGULAR", samples) or
    ("IRREGULAR", samples, witness U bits, witness W bits, witness
    density), and how a refutation was found, (kind, "uniform" | "low" |
    "high", edge count, the band's upper end), or None.  When ``seen`` is
    a list, each sample appends what it saw: (kind, edge count) for a
    uniform one, (kind, least degree, greatest degree) for a seeded one.
    """
    if U.side is Side.B:
        U, W = W, U
    us, ws = list(U.indices()), list(W.indices())
    rows_u = [sum(1 << j for j, b in enumerate(ws) if G.adj_a[a] >> b & 1) for a in us]
    rows_w = [sum(1 << i for i, row in enumerate(rows_u) if row >> j & 1) for j in range(len(ws))]
    base = Fraction(sum(row.bit_count() for row in rows_u), len(us) * len(ws))
    s_u, s_w = max(1, math.ceil(eps * len(us))), max(1, math.ceil(eps * len(ws)))
    if s_u >= len(us) and s_w >= len(ws):
        return ("REGULAR", 0), None
    hi = math.floor((base + eps) * s_u * s_w)
    rng = random.Random(seed)

    def refuted(u_local, w_local, e, t, how):
        wit = Fraction(e, s_u * s_w)
        if abs(wit - base) <= eps:
            return None
        u_bits = sum(1 << us[i] for i in u_local)
        w_bits = sum(1 << ws[j] for j in w_local)
        return ("IRREGULAR", t + 1, u_bits, w_bits, wit), (t % 4, how, e, hi)

    for t in range(budget):
        if t % 2 == 0:
            uc = range(len(us)) if s_u >= len(us) else rng.sample(range(len(us)), s_u)
            wc = range(len(ws)) if s_w >= len(ws) else rng.sample(range(len(ws)), s_w)
            w_mask = sum(1 << j for j in wc)
            e = sum((rows_u[i] & w_mask).bit_count() for i in uc)
            if seen is not None:
                seen.append((t % 4, e))
            hit = refuted(uc, wc, e, t, "uniform")
            if hit:
                return hit
            continue
        rows, s_m, s_p = (rows_u, s_u, s_w) if t % 4 == 1 else (rows_w, s_w, s_u)
        nb, widened = rng.choice(rows), 0
        while nb.bit_count() < s_p and widened < 8:
            nb |= rng.choice(rows)
            widened += 1
        if nb.bit_count() < s_p:
            continue
        chosen = rng.sample([j for j in range(nb.bit_length()) if nb >> j & 1], s_p)
        mask = sum(1 << j for j in chosen)
        ranked = sorted(((row & mask).bit_count(), i) for i, row in enumerate(rows))
        if seen is not None:
            seen.append((t % 4, ranked[0][0], ranked[-1][0]))
        for how, picked in (("low", ranked[:s_m]), ("high", ranked[-s_m:])):
            members = [i for _, i in picked]
            e = sum(degree for degree, _ in picked)
            hit = (refuted(members, chosen, e, t, how) if rows is rows_u
                   else refuted(chosen, members, e, t, how))
            if hit:
                return hit
    return ("REGULAR", budget), None


def reference_equalise(side_clusters: dict, exceptional: dict, target: int) -> None:
    """Trim every cluster (an index list per side) to the common target
    size in place, keeping its lowest indices; the trimmed indices are
    appended to that side's exceptional list."""
    for side, groups in side_clusters.items():
        for g in groups:
            g.sort()
            if len(g) > target:
                exceptional[side].extend(g[target:])
                del g[target:]
