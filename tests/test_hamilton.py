import random

import pytest

from bipembed.graphs import BipartiteGraph, Side, VertexId
from bipembed.hamilton import (
    HamiltonCycle,
    HamiltonSearchError,
    find_hamilton_cycle,
    hamilton_cycle_exists,
    verify_cycle,
)

from helpers import cycle_graph, random_bipartite, random_min_degree


def complete(n):
    return BipartiteGraph.build(n, n, [(a, b) for a in range(n) for b in range(n)])


class TestVerifyCycle:
    def test_valid_c4(self):
        g = cycle_graph(2)
        cycle = find_hamilton_cycle(g, "exhaustive-small")
        assert verify_cycle(g, cycle)

    def test_repeated_vertex(self):
        g = complete(2)
        bad = HamiltonCycle(
            (VertexId(Side.A, 0), VertexId(Side.B, 0), VertexId(Side.A, 0), VertexId(Side.B, 1))
        )
        res = verify_cycle(g, bad)
        assert not res and "repeat" in res.detail

    def test_non_edge_hop(self):
        edges = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
        g = BipartiteGraph.build(3, 3, edges)
        bad = HamiltonCycle(
            (
                VertexId(Side.A, 0), VertexId(Side.B, 0),
                VertexId(Side.A, 1), VertexId(Side.B, 1),
                VertexId(Side.A, 2), VertexId(Side.B, 2),
            )
        )
        res = verify_cycle(g, bad)
        assert not res and "non-edge" in res.detail

    def test_side_alternation(self):
        g = complete(2)
        bad = HamiltonCycle(
            (VertexId(Side.A, 0), VertexId(Side.A, 1), VertexId(Side.B, 0), VertexId(Side.B, 1))
        )
        assert not verify_cycle(g, bad)

    def test_wrong_length(self):
        g = complete(3)
        bad = HamiltonCycle((VertexId(Side.A, 0), VertexId(Side.B, 0)))
        assert not verify_cycle(g, bad)

    @pytest.mark.parametrize("side", [Side.A, Side.B])
    def test_negative_index_outside_the_graph(self, side):
        g = complete(2)
        order = [VertexId(Side.A, 0), VertexId(Side.B, 0), VertexId(Side.A, 1), VertexId(Side.B, 1)]
        order[2 if side is Side.A else 3] = VertexId(side, -1)
        res = verify_cycle(g, HamiltonCycle(tuple(order)))
        assert not res and "outside the graph" in res.detail


class TestFindHamiltonCycle:
    def test_c4(self):
        g = cycle_graph(2)
        cycle = find_hamilton_cycle(g)
        assert verify_cycle(g, cycle)

    def test_complete_k55(self):
        g = complete(5)
        cycle = find_hamilton_cycle(g, seed=0)
        assert verify_cycle(g, cycle)

    def test_random_dense_8_both_modes(self):
        g = random_min_degree(8, 5, 0.6, random.Random(3))
        c1 = find_hamilton_cycle(g, "exhaustive-small")
        c2 = find_hamilton_cycle(g, "rotation-extension", seed=3)
        assert verify_cycle(g, c1) and verify_cycle(g, c2)

    def test_no_cycle_is_definitive(self):
        # a 2+2 path has no Hamilton cycle
        g = BipartiteGraph.build(2, 2, [(0, 0), (1, 0), (1, 1)])
        with pytest.raises(HamiltonSearchError) as exc:
            find_hamilton_cycle(g, "exhaustive-small")
        assert exc.value.definitive
        assert not exc.value.hypothesis_held

    def test_budget_exhaustion_reports_hypothesis(self):
        g = BipartiteGraph.build(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])
        # C6 is Hamiltonian, so rotation-extension must find it
        cycle = find_hamilton_cycle(g, "rotation-extension", seed=1)
        assert verify_cycle(g, cycle)
        # remove an edge to break Hamiltonicity: a path remains
        g2 = BipartiteGraph.build(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
        with pytest.raises(HamiltonSearchError) as exc:
            find_hamilton_cycle(g2, "rotation-extension", seed=1, restart_budget=30)
        assert not exc.value.definitive
        assert not exc.value.hypothesis_held

    def test_unbalanced_rejected(self):
        g = BipartiteGraph.build(2, 3, [])
        with pytest.raises(Exception):
            find_hamilton_cycle(g)


class TestMoonMoserProperty:
    def test_small_instances_meeting_threshold_always_hamiltonian(self):
        rng = random.Random(0)
        for trial in range(40):
            n = rng.choice([4, 6, 8])
            delta = n // 2 + 1
            g = random_min_degree(n, delta, 0.4, rng)
            assert g.min_degree() >= delta
            cycle = find_hamilton_cycle(g, "exhaustive-small")
            assert verify_cycle(g, cycle)

    def test_rotation_agrees_with_exhaustive_on_existence(self):
        rng = random.Random(1)
        agree = 0
        for trial in range(60):
            n = rng.choice([3, 4, 5, 6])
            g = random_bipartite(n, rng.choice([0.35, 0.5, 0.7]), rng)
            exists = hamilton_cycle_exists(g)
            try:
                cycle = find_hamilton_cycle(
                    g, "rotation-extension", seed=trial, restart_budget=150
                )
                found = True
                assert verify_cycle(g, cycle)
            except HamiltonSearchError:
                found = False
            except Exception:
                # degenerate instances (n < 2 per side cannot occur here)
                raise
            assert found == exists, f"trial {trial}: rotation={found} exhaustive={exists}"
            agree += 1
        assert agree == 60
