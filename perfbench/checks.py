"""Output checks of the benchmark's own, independent of bipembed's verifiers.

A graph is checked as its list of A-side rows: row ``a`` is an int whose
bit ``b`` is set when ``(a, b)`` is an edge.  A vertex is a pair
``(side, index)`` with side ``"A"`` or ``"B"``; files name vertices by
global id (``2i`` is ``A_i``, ``2j + 1`` is ``B_j``).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def vertex_of_gid(gid: int) -> tuple[str, int]:
    return ("A", gid // 2) if gid % 2 == 0 else ("B", gid // 2)


def min_degree_bound(n: int, gamma: Fraction) -> int:
    """Smallest integer at least (1/2 + gamma) * n."""
    return math.ceil((Fraction(1, 2) + gamma) * n)


# ---------------------------------------------------------------------------
# file parsers
# ---------------------------------------------------------------------------


def read_bg(path: str) -> tuple[int, int, list[int]]:
    """Parse a ``.bg`` graph file into (n_a, n_b, rows); rejects duplicates."""
    header = None
    rows: list[int] = []
    count = 0
    declared = 0
    with open(path) as f:
        for raw in f:
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if header is None:
                require(len(parts) == 4 and parts[0] == "bipartite", f"{path}: bad header")
                header = (int(parts[1]), int(parts[2]))
                declared = int(parts[3])
                rows = [0] * header[0]
                continue
            require(len(parts) == 2, f"{path}: bad edge line {raw!r}")
            a, b = int(parts[0]), int(parts[1])
            require(0 <= a < header[0] and 0 <= b < header[1], f"{path}: edge ({a},{b}) out of range")
            bit = 1 << b
            require(not rows[a] & bit, f"{path}: duplicate edge ({a},{b})")
            rows[a] |= bit
            count += 1
    require(header is not None, f"{path}: no header")
    require(count == declared, f"{path}: {count} edges, header declares {declared}")
    return header[0], header[1], rows


def read_order(path: str) -> list[tuple[str, int]]:
    """Parse a labelling file: one global id per line, in position order."""
    order = []
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if line:
                order.append(vertex_of_gid(int(line)))
    return order


def read_embedding(path: str) -> dict[tuple[str, int], tuple[str, int]]:
    with open(path) as f:
        data = json.load(f)
    require(data.get("kind") == "embedding", f"{path}: not an embedding artifact")
    mapping = {}
    for h, g in data["pairs"]:
        hv = vertex_of_gid(int(h))
        require(hv not in mapping, f"{path}: {hv} mapped twice")
        mapping[hv] = vertex_of_gid(int(g))
    return mapping


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_host(n_a: int, n_b: int, rows: list[int], min_degree: int) -> None:
    """Balanced, and every vertex of both sides has at least min_degree neighbours."""
    require(n_a == n_b, f"host is unbalanced: {n_a} + {n_b}")
    require(len(rows) == n_a, "host row count differs from its side size")
    cols = [0] * n_b
    for a, row in enumerate(rows):
        require(row >> n_b == 0, f"A_{a} has a neighbour outside B")
        deg = row.bit_count()
        require(deg >= min_degree, f"A_{a} has degree {deg} < {min_degree}")
        for b in bits(row):
            cols[b] += 1
    for b, deg in enumerate(cols):
        require(deg >= min_degree, f"B_{b} has degree {deg} < {min_degree}")


def edges_of(rows: list[int]) -> list[tuple[int, int]]:
    return [(a, b) for a, row in enumerate(rows) for b in bits(row)]


def bandwidth(order: list[tuple[str, int]], target_rows: list[int], n: int) -> int:
    """Bandwidth of a labelling, recomputed from the target's edges."""
    require(len(order) == 2 * n and len(set(order)) == 2 * n,
            "labelling is not a permutation of the target's vertices")
    pos = {v: t for t, v in enumerate(order)}
    require(all(("A", i) in pos and ("B", i) in pos for i in range(n)),
            "labelling misses a target vertex")
    return max((abs(pos[("A", x)] - pos[("B", y)]) for x, y in edges_of(target_rows)), default=0)


def check_labelling(order, target_rows, n: int, declared: int, limit: int) -> None:
    bw = bandwidth(order, target_rows, n)
    require(bw == declared, f"labelling bandwidth is {bw}, declared {declared}")
    require(bw <= limit, f"labelling bandwidth {bw} exceeds {limit}")


def check_embedding(mapping, target_rows: list[int], n_target: int,
                    host_rows: list[int], n_host: int) -> None:
    """Total, injective, side-keeping, and every target edge lands on a host edge."""
    require(len(mapping) == 2 * n_target, f"{len(mapping)} of {2 * n_target} vertices mapped")
    images = set()
    for (hs, hi), (gs, gi) in mapping.items():
        require(hs in "AB" and 0 <= hi < n_target, f"({hs},{hi}) is not a target vertex")
        require(hs == gs, f"({hs},{hi}) mapped across sides to ({gs},{gi})")
        require(0 <= gi < n_host, f"({hs},{hi}) mapped outside the host")
        require((gs, gi) not in images, f"image ({gs},{gi}) used twice")
        images.add((gs, gi))
    for x, y in edges_of(target_rows):
        ga = mapping[("A", x)][1]
        gb = mapping[("B", y)][1]
        require(host_rows[ga] >> gb & 1, f"target edge ({x},{y}) maps to non-edge ({ga},{gb})")


def check_cycle(order: list[tuple[str, int]], host_rows: list[int], n: int) -> None:
    """A Hamilton cycle: length 2n, each vertex once, sides alternate, host edges only."""
    require(len(order) == 2 * n, f"cycle length {len(order)} != {2 * n}")
    require(len(set(order)) == 2 * n, "a vertex repeats on the cycle")
    for t, (side, idx) in enumerate(order):
        require(side in "AB" and 0 <= idx < n, f"({side},{idx}) is not a host vertex")
        nside, nidx = order[(t + 1) % len(order)]
        require(nside != side, f"sides do not alternate at position {t}")
        a, b = (idx, nidx) if side == "A" else (nidx, idx)
        require(host_rows[a] >> b & 1, f"cycle hop ({a},{b}) is not a host edge")


def check_partition(clusters_a: list[int], clusters_b: list[int], exc_a: int, exc_b: int,
                    n: int, epsilon: Fraction) -> None:
    """Clusters plus exceptional set cover each side once; equal cluster sizes;
    at most epsilon*n exceptional vertices per side.  Sets are bitmasks."""
    full = (1 << n) - 1
    for side, clusters, exc in (("A", clusters_a, exc_a), ("B", clusters_b, exc_b)):
        union = exc
        total = exc.bit_count()
        for c in clusters:
            union |= c
            total += c.bit_count()
        require(union == full and total == n, f"side {side} is not covered exactly once")
        require(exc.bit_count() <= epsilon * n,
                f"side {side} has {exc.bit_count()} exceptional vertices > {epsilon}*{n}")
    sizes = {c.bit_count() for c in clusters_a + clusters_b}
    require(len(sizes) == 1 and len(clusters_a) == len(clusters_b),
            f"cluster sizes differ: {sorted(sizes)}")


def density_of(rows: list[int], u_mask: int, w_mask: int) -> Fraction:
    edges = sum((rows[a] & w_mask).bit_count() for a in bits(u_mask))
    return Fraction(edges, u_mask.bit_count() * w_mask.bit_count())


def check_witness(rows: list[int], u_mask: int, w_mask: int, base: Fraction,
                  wu_mask: int, ww_mask: int, stated: Fraction, deviation: Fraction,
                  epsilon: Fraction) -> None:
    """Recompute a refuting certificate: qualifying subsets, stated densities,
    and a deviation above epsilon."""
    require(density_of(rows, u_mask, w_mask) == base, "certificate base density is wrong")
    require(wu_mask & ~u_mask == 0 and ww_mask & ~w_mask == 0,
            "witness subsets leave the pair")
    require(wu_mask.bit_count() >= epsilon * u_mask.bit_count()
            and ww_mask.bit_count() >= epsilon * w_mask.bit_count(),
            "witness subsets are below the qualifying size")
    got = density_of(rows, wu_mask, ww_mask)
    require(got == stated, f"witness density is {got}, stated {stated}")
    require(deviation == abs(got - base), "witness deviation is misstated")
    require(deviation > epsilon, f"witness deviation {deviation} is not above {epsilon}")
