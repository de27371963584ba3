"""Hamilton cycles in dense balanced bipartite graphs.

A balanced bipartite graph on 2n vertices with minimum degree at least
n/2 + 1 always contains a Hamilton cycle; the pipeline exploits this on
small reduced graphs.  Two search modes are provided: a rotation-extension
heuristic adapted to bipartite parity (rotations keep each endpoint on its
own side) with random restarts, and an exhaustive backtracking search for
at most 12 vertices per side whose failures are definitive.
Every returned cycle is verified before being handed out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .graphs import BipartiteGraph, Check, GraphError, Side, VertexId, id_table, iter_bits

EXHAUSTIVE_LIMIT = 12


@dataclass(frozen=True)
class HamiltonCycle:
    order: tuple[VertexId, ...]


def verify_cycle(G: BipartiteGraph, cycle: HamiltonCycle) -> Check:
    order = cycle.order
    total = G.size_a + G.size_b
    if len(order) != total:
        return Check(False, f"length {len(order)} != vertex count {total}")
    if len(set(order)) != len(order):
        return Check(False, "a vertex repeats in the sequence")
    for v in order:
        if not 0 <= v.index < G.side_size(v.side):
            return Check(False, f"{v} outside the graph")
    for t, v in enumerate(order):
        w = order[(t + 1) % len(order)]
        if w.side is v.side:
            return Check(False, f"sides do not alternate at position {t}")
        a, b = (v.index, w.index) if v.side is Side.A else (w.index, v.index)
        if not G.has_edge(a, b):
            return Check(False, f"non-edge hop {v}-{w} at position {t}")
    return Check(True)


class HamiltonSearchError(RuntimeError):
    """Search ended without a cycle.

    ``definitive`` is True only for exhaustive searches (no cycle exists);
    ``hypothesis_held`` records whether the minimum-degree condition that
    guarantees a cycle was satisfied, so callers can tell a heuristic
    failure (a bug or bad luck worth investigating) from an instance that
    may simply not be Hamiltonian.
    """

    def __init__(self, message: str, hypothesis_held: bool, definitive: bool):
        super().__init__(message)
        self.hypothesis_held = hypothesis_held
        self.definitive = definitive


def _canonical(order: list[VertexId]) -> HamiltonCycle:
    a_positions = [t for t, v in enumerate(order) if v.side is Side.A]
    start = min(a_positions, key=lambda t: order[t].index)
    rolled = order[start:] + order[:start]
    return HamiltonCycle(tuple(rolled))


def _exhaustive(G: BipartiteGraph) -> Optional[HamiltonCycle]:
    n = G.size_a
    if any(m == 0 for m in G.adj_a) or any(m == 0 for m in G.adj_b):
        return None
    ids_a, ids_b = id_table(Side.A, n), id_table(Side.B, n)
    # fix A0 as the start; sequence alternates A, B, A, B, ...
    path: list[VertexId] = [ids_a[0]]
    full = (1 << n) - 1

    def dead_end(visited_a: int, visited_b: int, tail: VertexId) -> bool:
        # an unvisited vertex must keep two usable cycle neighbours, where
        # usable means unvisited, or the current tail, or the start A0
        rem_a = full & ~visited_a
        rem_b = full & ~visited_b
        usable_b = rem_b | ((1 << tail.index) if tail.side is Side.B else 0)
        usable_a = rem_a | 1 | ((1 << tail.index) if tail.side is Side.A else 0)
        return any(
            (G.adj_a[i] & usable_b).bit_count() < 2 for i in iter_bits(rem_a)
        ) or any((G.adj_b[j] & usable_a).bit_count() < 2 for j in iter_bits(rem_b))

    def rec(visited_a: int, visited_b: int) -> bool:
        if len(path) == 2 * n:
            return bool(G.adj_b[path[-1].index] & 1)  # close back to A0
        last = path[-1]
        if last.side is Side.A:
            options = G.adj_a[last.index] & ~visited_b
            side, ids, adj, visited = Side.B, ids_b, G.adj_b, visited_a
        else:
            options = G.adj_b[last.index] & ~visited_a
            side, ids, adj, visited = Side.A, ids_a, G.adj_a, visited_b
        for _, i in sorted(((adj[i] & ~visited).bit_count(), i) for i in iter_bits(options)):
            nxt = ids[i]
            path.append(nxt)
            na = visited_a | (1 << i) if side is Side.A else visited_a
            nb = visited_b | (1 << i) if side is Side.B else visited_b
            if len(path) == 2 * n or not dead_end(na, nb, nxt):
                if rec(na, nb):
                    return True
            path.pop()
        return False

    if rec(1, 0):
        return _canonical(path)
    return None


def hamilton_cycle_exists(G: BipartiteGraph) -> bool:
    """Definitive existence test by exhaustive backtracking (n <= 12)."""
    if not G.is_balanced:
        raise GraphError("Hamilton search expects a balanced graph")
    if G.size_a > EXHAUSTIVE_LIMIT:
        raise GraphError(f"exhaustive search limited to {EXHAUSTIVE_LIMIT} per side")
    if G.size_a < 2:
        return False
    return _exhaustive(G) is not None


def _rotation_extension(
    G: BipartiteGraph, rng: random.Random, restarts: int
) -> Optional[HamiltonCycle]:
    n2 = G.size_a + G.size_b
    verts = list(G.vertices())
    if G.min_degree() < 2:
        return None  # some vertex cannot lie on any cycle
    nbr_cache = {v: G.neighbours(v) for v in verts}
    for _ in range(restarts):
        start = rng.choice(verts)
        path = [start]
        in_path = {start}
        steps = 0
        max_steps = 60 * n2 + 60
        while steps < max_steps:
            steps += 1
            tail = path[-1]
            fresh = [w for w in nbr_cache[tail] if w not in in_path]
            if fresh:
                nxt = rng.choice(fresh)
                path.append(nxt)
                in_path.add(nxt)
                continue
            head = path[0]
            fresh = [w for w in nbr_cache[head] if w not in in_path]
            if fresh:
                nxt = rng.choice(fresh)
                path.insert(0, nxt)
                in_path.add(nxt)
                continue
            if len(path) == n2:
                a, b = (head, tail) if head.side is Side.A else (tail, head)
                if G.has_edge(a.index, b.index):
                    return _canonical(path)
            # rotate at the tail: an in-path neighbour u = path[i] of the
            # tail yields the new path path[:i+1] + reversed(path[i+1:]);
            # the new endpoint path[i+1] stays on the tail's side
            pos = {v: t for t, v in enumerate(path)}
            choices = [
                pos[u] for u in nbr_cache[tail]
                if u in pos and pos[u] < len(path) - 2
            ]
            if not choices:
                break
            i = rng.choice(choices)
            path[i + 1 :] = reversed(path[i + 1 :])
        # restart with a fresh random start vertex
    return None


def find_hamilton_cycle(
    G: BipartiteGraph,
    mode: Optional[str] = None,
    seed: int = 0,
    restart_budget: Optional[int] = None,
) -> HamiltonCycle:
    """Search for a verified Hamilton cycle.

    ``mode`` is "rotation-extension", "exhaustive-small", or None to pick
    by size.  Failures raise :class:`HamiltonSearchError`; with the
    exhaustive mode a failure proves no cycle exists.
    """
    if not G.is_balanced:
        raise GraphError("Hamilton search expects a balanced graph")
    n = G.size_a
    if n < 2:
        raise GraphError("need at least 2 vertices per side")
    if mode is None:
        mode = "exhaustive-small" if n <= 8 else "rotation-extension"
    hypothesis = G.min_degree() >= n / 2 + 1
    if mode == "exhaustive-small":
        if n > EXHAUSTIVE_LIMIT:
            raise GraphError(f"exhaustive search limited to {EXHAUSTIVE_LIMIT} per side")
        cycle = _exhaustive(G)
        if cycle is None:
            raise HamiltonSearchError(
                "no Hamilton cycle exists", hypothesis_held=hypothesis, definitive=True
            )
    elif mode == "rotation-extension":
        budget = restart_budget if restart_budget is not None else 50 * n
        cycle = _rotation_extension(G, random.Random(seed), budget)
        if cycle is None:
            raise HamiltonSearchError(
                f"rotation-extension exhausted {budget} restarts",
                hypothesis_held=hypothesis,
                definitive=False,
            )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    check = verify_cycle(G, cycle)
    if not check:  # pragma: no cover - internal invariant
        raise HamiltonSearchError(
            f"search produced an invalid cycle: {check.detail}",
            hypothesis_held=hypothesis,
            definitive=False,
        )
    return cycle
