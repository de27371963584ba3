"""Instance generation: dense hosts with verified minimum degree, and
bounded-degree small-bandwidth targets with verified labellings.

Every generated target comes with a labelling whose bandwidth is computed
by scanning the edges, never assumed from the construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .graphs import BipartiteGraph, GraphError, Side, VertexId
from .ratmath import ceil_frac, frac

if TYPE_CHECKING:
    from .homomorphism import BandwidthLabelling


@dataclass
class InstanceSpec:
    kind: str
    n: int = 0
    seed: int = 0
    params: dict = field(default_factory=dict)


def gen_host(spec: InstanceSpec) -> BipartiteGraph:
    """Generate a balanced host meeting its declared minimum degree.

    Random model: each edge independently with probability
    p = min(49/50, 1/2 + gamma + slack), then deficient vertices are patched
    with random extra edges until the degree bound holds on both sides.
    An ``n``, ``blocks`` or ``block_size`` below 1 raises ``GraphError``
    naming it, before anything is drawn, and so does a planted-blocks ``n``
    other than ``blocks * block_size`` (``block_size`` defaults to
    ``n // blocks``).

    Edge (a, b) is present when the b-th of row a's n ``Random.random()``
    draws lies below p, and the draws are made in bulk, exactly.  CPython's
    ``random()`` (``random_random``, Matsumoto and Nishimura's
    ``genrand_res53``) returns V / 2^53 with V = (w0 >> 5) * 2^26 + (w1 >> 6)
    for the next two 32-bit outputs w0, w1 of the Mersenne Twister, and its
    ``getrandbits(64 * n)`` packs the same 2n outputs, in order, as
    little-endian 32-bit words: 64-bit lane t holds draw t's w0 in its low
    half and w1 in its high half.  So one ``getrandbits`` per row stands for
    the row's n draws and leaves the generator where they would, and the
    ``randrange`` draws that then patch rows and columns are the ones a
    per-draw loop makes.  A draw is below p exactly when the integer V is
    below T = ceil(p * 2^53).  The top byte of w0 is V >> 45, so it decides
    every draw whose top byte differs from T >> 45; the rest (about 1 in
    256) are read from their own lane.
    """
    if spec.kind == "host-planted-blocks":
        k = _at_least_one("blocks", int(spec.params.get("blocks", 2)))
        m = _at_least_one("block_size", int(spec.params.get("block_size", spec.n // k)))
        if spec.n != k * m:
            raise GraphError(f"gen_host: n = {spec.n} is not blocks * block_size = {k * m}")
        # vertex v on either side is joined to every vertex of its block
        rows = [((1 << m) - 1) << (v - v % m) for v in range(k * m)]
        return BipartiteGraph(k * m, k * m, rows, rows)
    if spec.kind != "host-random-min-degree":
        raise GraphError(f"not a host kind: {spec.kind}")
    n = _at_least_one("n", spec.n)
    gamma = frac(spec.params.get("gamma", Fraction(1, 10)))
    slack = frac(spec.params.get("slack", Fraction(1, 20)))
    if gamma >= Fraction(1, 2):
        raise GraphError(f"gamma = {gamma} >= 1/2 is unsatisfiable")
    delta = ceil_frac((Fraction(1, 2) + gamma) * n)
    p = min(Fraction(49, 50), Fraction(1, 2) + gamma + slack)
    T = ceil_frac(p * (1 << 53))
    # top byte -> 1 (below T), 0 (not below) or 2 (read the whole draw)
    top = T >> 45
    decide = bytes(1 if x < top else 2 if x == top else 0 for x in range(256))
    rng = random.Random(spec.seed)
    # flat[a * n + b] is 1 when (a, b) is an edge
    flat = bytearray(n * n)
    for row in range(0, n * n, n):
        raw = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
        flat[row:row + n] = raw[3::8].translate(decide)
        i = flat.find(2, row, row + n)
        while i >= 0:
            t = 8 * (i - row)
            w0 = int.from_bytes(raw[t:t + 4], "little")
            w1 = int.from_bytes(raw[t + 4:t + 8], "little")
            flat[i] = (w0 >> 5 << 26 | w1 >> 6) < T
            i = flat.find(2, i + 1, row + n)
    for row in range(0, n * n, n):
        deg = flat.count(1, row, row + n)
        while deg < delta:
            i = row + rng.randrange(n)
            if not flat[i]:
                flat[i] = 1
                deg += 1
    for b in range(n):
        deg = flat[b::n].count(1)
        while deg < delta:
            i = rng.randrange(n) * n + b
            if not flat[i]:
                flat[i] = 1
                deg += 1
    g = BipartiteGraph._from_flat(n, n, flat)
    low = g.min_degree()
    if low < delta:
        raise GraphError(f"gen_host: minimum degree {low} is below the bound {delta}")
    return g


def _at_least_one(name: str, value: int) -> int:
    if value < 1:
        raise GraphError(f"gen_host: {name} = {value} is below 1")
    return value


def _zigzag(m: int) -> list[int]:
    """0..m-1 as 0, 1, m-1, 2, m-2, ...: interleaving both directions keeps
    neighbours on the cycle 0..m-1 within two places of each other."""
    seq = [0]
    lo, hi = 1, m - 1
    while lo <= hi:
        seq.append(lo)
        if hi > lo:
            seq.append(hi)
        lo += 1
        hi -= 1
    return seq


def _target(n: int, keys, colour, edges, order) -> tuple[BipartiteGraph, BandwidthLabelling]:
    """The n+n target on ``keys``, and its labelling along ``order``.

    Each key, taken in index order, gets the next index of its colour class
    (colour 0 is side A); ``edges`` and ``order`` name vertices by key.  The
    labelling's bandwidth is scanned from the built graph.
    """
    from .homomorphism import bandwidth_labelling

    ids = {}
    count = [0, 0]
    for key in keys:
        c = colour(key)
        ids[key] = VertexId(Side.B if c else Side.A, count[c])
        count[c] += 1
    pairs = []
    for u, v in edges:
        x, y = ids[u], ids[v]
        pairs.append((x.index, y.index) if x.side is Side.A else (y.index, x.index))
    g = BipartiteGraph.build(n, n, pairs)
    return g, bandwidth_labelling(g, [ids[key] for key in order])


def _parity(i: int) -> int:
    return i % 2


def gen_target(spec: InstanceSpec) -> tuple[BipartiteGraph, BandwidthLabelling]:
    """Generate a bounded-degree target plus a verified bandwidth labelling."""
    n = spec.n
    if spec.kind == "target-hamilton-cycle":
        # cycle vertex c is A_{c/2} for even c and B_{(c-1)/2} for odd c
        if n < 2:
            raise GraphError("cycle needs at least 2 vertices per side")
        total = 2 * n
        edges = [(c, (c + 1) % total) for c in range(total)]
        return _target(n, range(total), _parity, edges, _zigzag(total))

    if spec.kind == "target-ladder":
        # P_m x K_2 with rungs interleaved: u_t = 2t and v_t = 2t+1, where
        # u_t has colour t%2 and v_t the opposite one
        m = n
        if m < 1:
            raise GraphError("ladder needs at least one rung")
        edges = []
        for t in range(m):
            edges.append((2 * t, 2 * t + 1))
            if t + 1 < m:
                edges += [(2 * t, 2 * t + 2), (2 * t + 1, 2 * t + 3)]
        keys = range(2 * m)
        return _target(n, keys, lambda v: (v // 2 + v % 2) % 2, edges, keys)

    if spec.kind == "target-moebius-ladder":
        # cycle 0..2m-1 plus antipodal chords i ~ i+m; bipartite iff m odd
        m = n
        if m % 2 == 0:
            raise GraphError("antipodal chords need an odd half-length to stay bipartite")
        total = 2 * m
        edges = [(i, (i + 1) % total) for i in range(total)] + [(i, i + m) for i in range(m)]
        # rungs {t, t+m} form a cycle of length m; zig-zag that rung cycle
        order = [v for t in _zigzag(m) for v in (t, t + m)]
        return _target(n, range(total), _parity, edges, order)

    if spec.kind == "target-grid":
        w = int(spec.params.get("width", 4))
        h = int(spec.params.get("height", max(1, (2 * n) // max(w, 1))))
        if w * h != 2 * n:
            raise GraphError(f"grid {w}x{h} does not hold 2n = {2 * n} vertices")
        keys = [(r, c) for r in range(h) for c in range(w)]
        edges = [((r, c), (r + dr, c + dc)) for r, c in keys
                 for dr, dc in ((0, 1), (1, 0)) if r + dr < h and c + dc < w]
        return _target(n, keys, lambda rc: sum(rc) % 2, edges, keys)

    if spec.kind == "target-random-local":
        w = int(spec.params.get("window", 4))
        max_degree = int(spec.params.get("max_degree", 3))
        p = float(spec.params.get("edge_prob", 0.5))
        rng = random.Random(spec.seed)
        total = 2 * n
        # alternate sides along the order so both sides stay balanced
        degree = [0] * total
        edges = []
        for t in range(total):
            for u in range(t + 1, min(total, t + w + 1)):
                if (u - t) % 2 == 0:
                    continue
                if degree[t] >= max_degree or degree[u] >= max_degree:
                    continue
                if rng.random() < p:
                    edges.append((t, u))
                    degree[t] += 1
                    degree[u] += 1
        g, lab = _target(n, range(total), _parity, edges, range(total))
        if lab.bandwidth > w:
            raise GraphError(f"gen_target: bandwidth {lab.bandwidth} exceeds the window {w}")
        return g, lab

    raise GraphError(f"not a target kind: {spec.kind}")
