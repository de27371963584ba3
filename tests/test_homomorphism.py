import random
from dataclasses import replace
from fractions import Fraction

import pytest

from bipembed.graphs import BipartiteGraph, Check, GraphError, Side, VertexId
from bipembed.homomorphism import (
    BalanceError,
    CycleHomomorphism,
    balance_assignment,
    bandwidth_labelling,
    build_cycle_homomorphism,
    partition_pieces,
    partition_runs,
    verify_cycle_homomorphism,
)

from helpers import cycle_graph


def zigzag_order(n):
    """Cycle order v0, v1, ..., v_{2n-1} interleaved from both ends: bandwidth 2.

    Cycle vertices: A_t at even cycle positions, B_t at odd ones, edges
    (A_t, B_t) and (A_{t+1}, B_t).  The zig-zag order walks 0, 1, 2n-1,
    2, 2n-2, ... so that cycle-adjacent vertices sit within 2 positions.
    """
    seq = [0]
    lo, hi = 1, 2 * n - 1
    while lo <= hi:
        seq.append(lo)
        if hi > lo:
            seq.append(hi)
        lo += 1
        hi -= 1
    out = []
    for c in seq:
        side = Side.A if c % 2 == 0 else Side.B
        out.append(VertexId(side, c // 2))
    return out


def zigzag_labelling(n):
    return bandwidth_labelling(cycle_graph(n), zigzag_order(n))


def path_graph(m):
    # alternating path on m vertices: A0-B0-A1-B1-...
    edges = []
    for t in range(m - 1):
        if t % 2 == 0:
            edges.append((t // 2, t // 2))
        else:
            edges.append((t // 2 + 1, t // 2))
    na = (m + 1) // 2
    nb = m // 2
    return BipartiteGraph.build(na, nb, edges)


class TestBandwidthLabelling:
    def test_path_natural_order(self):
        h = path_graph(6)
        order = []
        for t in range(6):
            order.append(VertexId(Side.A if t % 2 == 0 else Side.B, t // 2))
        lab = bandwidth_labelling(h, order)
        assert lab.bandwidth == 1

    def test_cycle_zigzag(self):
        lab = zigzag_labelling(4)
        assert lab.bandwidth == 2

    def test_given_rejects_non_permutation(self):
        h = path_graph(4)
        with pytest.raises(GraphError):
            bandwidth_labelling(h, [VertexId(Side.A, 0)] * 4)

    def test_cuthill_mckee_on_cycle(self):
        h = cycle_graph(16)
        lab = bandwidth_labelling(h)
        assert lab.bandwidth <= 3  # BFS orders a cycle within bandwidth 2..3
        assert sorted(lab.order) == sorted(h.vertices())


class TestPartitionRuns:
    def test_runs_end_at_their_last_x_vertex(self):
        # zig-zag sides for n=4: A B B A A B B A
        pieces = partition_runs(zigzag_labelling(4), [1, 2, 1])
        assert pieces.boundaries == (0, 1, 5)
        assert pieces.sizes == (1, 4, 3)
        assert pieces.x_counts == (1, 2, 1)
        assert pieces.y_counts == (0, 2, 2)

    def test_quotas_must_cover_the_x_side(self):
        with pytest.raises(GraphError):
            partition_runs(zigzag_labelling(4), [2, 1])


class TestPartitionPieces:
    def test_even_split(self):
        h = cycle_graph(4)
        pieces = partition_pieces(h, zigzag_labelling(4), 4)
        assert pieces.sizes == (2, 2, 2, 2)

    def test_rounding_larger_first(self):
        h = cycle_graph(5)
        pieces = partition_pieces(h, zigzag_labelling(5), 4)
        assert pieces.sizes == (3, 3, 2, 2)

    def test_zigzag_counts(self):
        h = cycle_graph(4)
        pieces = partition_pieces(h, zigzag_labelling(4), 4)
        assert pieces.x_counts == (1, 1, 1, 1)
        assert pieces.y_counts == (1, 1, 1, 1)

    def test_concatenation_and_totals(self):
        rng = random.Random(2)
        h = cycle_graph(24)
        lab = zigzag_labelling(24)
        for ell in (1, 3, 7, 16, 48):
            pieces = partition_pieces(h, lab, ell)
            assert sum(pieces.sizes) == 48
            assert sum(pieces.x_counts) == 24
            assert sum(pieces.y_counts) == 24
            assert pieces.boundaries[0] == 0
            for t in range(1, ell):
                assert pieces.boundaries[t] == pieces.boundaries[t - 1] + pieces.sizes[t - 1]


class TestBalanceAssignment:
    def test_k1_precondition(self):
        with pytest.raises(GraphError):
            balance_assignment([100], [50, 50], [50, 50], Fraction(1, 10))

    # k = 8, n = 800, 40 pieces of 20 + 20; each case breaks one hypothesis
    @pytest.mark.parametrize("targets,pieces,xi,message", [
        ([100] * 8, [20] * 40, Fraction(1, 2), "xi must lie in (0, 1/4], got 1/2"),
        ([200] + [100] * 6, [20] * 40, Fraction(1, 4), "a cluster target exceeds n/8"),
        ([100] * 8, [30, 10] + [20] * 38, Fraction(1, 4), "a piece exceeds (1+xi)*2n/ell"),
    ])
    def test_each_hypothesis_is_named_alone(self, targets, pieces, xi, message):
        with pytest.raises(GraphError) as exc:
            balance_assignment(targets, pieces, pieces, xi)
        assert str(exc.value) == message
        res = balance_assignment(targets, pieces, pieces, xi, strict=False)
        assert res.hypothesis_ok is False

    def test_locally_balanced_success(self):
        k, n, ell = 8, 8000, 200
        targets = [1000] * k
        per = 2 * n // ell
        x = [per // 2] * ell
        y = [per // 2] * ell
        res = balance_assignment(targets, x, y, Fraction(1, 10), seed=0)
        assert res.a_totals == res.b_totals
        assert res.retries_used <= 10
        for i in range(k):
            assert res.a_totals[i] < 1000 + Fraction(1, 10) * n

    def test_adversarial_alternating(self):
        k, n, ell = 8, 8000, 200
        targets = [1000] * k
        x = [80 if j % 2 == 0 else 0 for j in range(ell)]
        y = [0 if j % 2 == 0 else 80 for j in range(ell)]
        ok = 0
        for seed in range(20):
            try:
                res = balance_assignment(targets, x, y, Fraction(1, 20), 50, seed)
                ok += 1
                for i in range(k):
                    assert res.a_totals[i] < 1000 + Fraction(1, 20) * n
                    assert res.b_totals[i] < 1000 + Fraction(1, 20) * n
            except BalanceError:
                pass
        assert ok >= 19

    def test_balance_term_identity(self):
        # the bookkeeping terms satisfy (3n/ell) * D_i = a_i - b_i exactly
        k, n, ell = 8, 800, 40
        targets = [100] * k
        rng = random.Random(7)
        x = []
        y = []
        per = 2 * n // ell
        for j in range(ell // 2):  # mirrored pairs keep both side totals at n
            cx = rng.randint(0, per)
            x += [cx, per - cx]
            y += [per - cx, cx]
        res = balance_assignment(targets, x, y, Fraction(1, 4), 200, 3)
        for i in range(k):
            assert Fraction(3 * n, ell) * res.balance_terms[i] == res.a_totals[i] - res.b_totals[i]

    def test_retry_exhaustion_reports_stats(self):
        # impossible bounds: one piece holds everything
        targets = [10] * 8
        x = [80] + [0] * 79
        y = [0] * 79 + [80]
        with pytest.raises(BalanceError) as exc:
            balance_assignment(targets, x, y, Fraction(1, 4), 5, 0, strict=False)
        assert exc.value.attempts == 6
        assert sum(exc.value.violation_counts.values()) > 0


class TestBuildCycleHomomorphism:
    def test_constant_phi(self):
        n, k, ell = 64, 8, 2
        h = cycle_graph(n)
        lab = zigzag_labelling(n)
        pieces = partition_pieces(h, lab, ell)
        hom = build_cycle_homomorphism(h, lab, pieces, [3] * ell, 2, k)
        assert set(hom.cluster_of_x) == {3}
        assert set(hom.cluster_of_y) == {3}
        assert len(hom.linking) == 2 * k * 2 * ell

    def test_cycle_identityish_phi(self):
        # pieces must hold (2k+1) blocks of length 2, so 2n/ell >= 34
        n, k, ell = 144, 8, 8
        h = cycle_graph(n)
        lab = zigzag_labelling(n)
        pieces = partition_pieces(h, lab, ell)
        assert pieces.min_size >= (2 * k + 1) * 2
        hom = build_cycle_homomorphism(h, lab, pieces, list(range(8)), 2, k)
        rep = verify_cycle_homomorphism(h, hom, [n // k] * k, Fraction(1, 4))
        assert rep.homomorphism.ok
        assert rep.matching_edges.ok
        assert len(hom.linking) == ell * 2 * k * 2

    def test_jump_of_three(self):
        n, k, ell = 96, 4, 4
        h = cycle_graph(n)
        lab = zigzag_labelling(n)
        pieces = partition_pieces(h, lab, ell)
        phi = [0, 3, 2, 1]  # jumps of 3 mod 4 between consecutive pieces
        hom = build_cycle_homomorphism(h, lab, pieces, phi, 2, k)
        rep = verify_cycle_homomorphism(h, hom, [24] * k, Fraction(1, 2))
        assert rep.homomorphism.ok

    def test_bandwidth_precondition(self):
        n = 64
        h = cycle_graph(n)
        lab = zigzag_labelling(n)
        pieces = partition_pieces(h, lab, 4)
        with pytest.raises(GraphError):
            build_cycle_homomorphism(h, lab, pieces, [0] * 4, 1, 4)

    def test_piece_size_precondition(self):
        n, k = 32, 8
        h = cycle_graph(n)
        lab = zigzag_labelling(n)
        pieces = partition_pieces(h, lab, 8)  # pieces of 8 < (2k+1)*2
        with pytest.raises(GraphError):
            build_cycle_homomorphism(h, lab, pieces, [0] * 8, 2, k)

    def test_sides_map_to_own_clusters(self):
        n, k, ell = 64, 4, 4
        h = cycle_graph(n)
        lab = zigzag_labelling(n)
        pieces = partition_pieces(h, lab, ell)
        hom = build_cycle_homomorphism(h, lab, pieces, [0, 1, 2, 3], 2, k)
        assert len(hom.cluster_of_x) == n and len(hom.cluster_of_y) == n
        assert sum(hom.preimage_a) == n and sum(hom.preimage_b) == n


class TestVerifyCycleHomomorphism:
    def test_clean_run_passes_all(self):
        n, k, ell = 144, 8, 8
        h = cycle_graph(n)
        lab = zigzag_labelling(n)
        pieces = partition_pieces(h, lab, ell)
        hom = build_cycle_homomorphism(h, lab, pieces, list(range(8)), 2, k)
        rep = verify_cycle_homomorphism(h, hom, [n // k] * k, Fraction(1, 4))
        assert rep.ok

    def test_injected_fault_detected(self):
        n, k, ell = 144, 8, 8
        h = cycle_graph(n)
        lab = zigzag_labelling(n)
        pieces = partition_pieces(h, lab, ell)
        hom = build_cycle_homomorphism(h, lab, pieces, list(range(8)), 2, k)
        broken_x = list(hom.cluster_of_x)
        broken_x[10] = (broken_x[10] + 4) % k
        from dataclasses import replace

        bad = replace(hom, cluster_of_x=tuple(broken_x))
        rep = verify_cycle_homomorphism(h, bad, [n // k] * k, Fraction(1, 4))
        assert not rep.homomorphism.ok

    def test_constant_phi_fails_preimage_bound(self):
        n, k, ell = 64, 8, 2
        h = cycle_graph(n)
        lab = zigzag_labelling(n)
        pieces = partition_pieces(h, lab, ell)
        hom = build_cycle_homomorphism(h, lab, pieces, [3, 3], 2, k)
        rep = verify_cycle_homomorphism(h, hom, [8] * k, Fraction(1, 4))
        assert rep.matching_edges.ok  # all non-linking edges on (A_3, B_3)
        assert not rep.preimage_bounds.ok

    def clean(self):
        n, k = 144, 8
        h = cycle_graph(n)
        lab = zigzag_labelling(n)
        pieces = partition_pieces(h, lab, 8)
        return h, build_cycle_homomorphism(h, lab, pieces, list(range(k)), 2, k)

    def test_preimages_are_counted_from_the_maps(self):
        h, hom = self.clean()
        merged = tuple(0 if c == 1 else c for c in hom.cluster_of_x)
        bad = replace(hom, cluster_of_x=merged)
        assert bad.preimage_a[:2] == (hom.preimage_a[0] + hom.preimage_a[1], 0)
        # at xi = 1/16 each cluster may take fewer than 18 + 9 vertices a side
        xi = Fraction(1, 16)
        assert verify_cycle_homomorphism(h, hom, [18] * 8, xi).preimage_bounds.ok
        assert not verify_cycle_homomorphism(h, bad, [18] * 8, xi).preimage_bounds.ok

    def test_cluster_outside_the_cycle_fails(self):
        # k - 1 and -1 agree mod k, so every edge still lands on a cycle pair
        h, hom = self.clean()
        bad = replace(
            hom,
            cluster_of_x=tuple(-1 if c == 7 else c for c in hom.cluster_of_x),
            cluster_of_y=tuple(-1 if c == 7 else c for c in hom.cluster_of_y),
        )
        rep = verify_cycle_homomorphism(h, bad, [18] * 8, Fraction(1, 4))
        assert not rep.homomorphism.ok and "cluster -1 outside 0..7" in rep.homomorphism.detail

    @staticmethod
    def frozenset_matching_clause(h, hom):
        """The matching clause with each edge's endpoints looked up in the
        ``linking`` frozenset, as ``verify_cycle_homomorphism`` tested it
        before it built bit rows."""
        for x, y in h.edges():
            a_idx, b_idx = hom.cluster_of_x[x], hom.cluster_of_y[y]
            if VertexId(Side.A, x) not in hom.linking and VertexId(Side.B, y) not in hom.linking:
                if a_idx != b_idx:
                    return Check(
                        False,
                        f"non-linking edge ({x},{y}) not on a matching pair "
                        f"(A_{a_idx}, B_{b_idx})",
                    )
        return Check(True)

    def test_matching_clause_equals_the_frozenset_lookups(self):
        """Random targets, cluster maps and linking sets, with linking
        vertices outside the target too: the bit-row clause gives the
        frozenset version's verdict and message."""
        rng = random.Random(33)
        verdicts = set()
        for _ in range(300):
            na, nb, k = rng.randint(1, 24), rng.randint(1, 24), rng.randint(1, 4)
            p = rng.random()
            h = BipartiteGraph.build(
                na, nb, [(a, b) for a in range(na) for b in range(nb) if rng.random() < p]
            )
            cx = [rng.randrange(k) for _ in range(na)]
            cy = [cx[b % na] if rng.random() < 0.9 else rng.randrange(k) for b in range(nb)]
            q = rng.random()
            linking = {VertexId(Side.A, a) for a in range(na) if rng.random() < q}
            linking |= {VertexId(Side.B, b) for b in range(nb) if rng.random() < q}
            linking |= {VertexId(rng.choice([Side.A, Side.B]), rng.choice([-2, -1, na, nb, 99]))
                        for _ in range(rng.randint(0, 2))}
            hom = CycleHomomorphism(k, tuple(cx), tuple(cy), frozenset(linking), 1, tuple(range(k)))
            rep = verify_cycle_homomorphism(h, hom, [na] * k, Fraction(1, 4))
            assert rep.matching_edges == self.frozenset_matching_clause(h, hom)
            verdicts.add(rep.matching_edges.ok)
        assert verdicts == {True, False}

    def test_maps_must_cover_the_target(self):
        h, hom = self.clean()
        with pytest.raises(GraphError):
            verify_cycle_homomorphism(
                h, replace(hom, cluster_of_y=hom.cluster_of_y[:-1]), [18] * 8, Fraction(1, 4)
            )


class TestExecutableTheorem:
    def test_randomized_inputs_always_verify(self):
        rng = random.Random(0)
        for trial in range(60):
            n = rng.choice([48, 64, 96])
            h = cycle_graph(n)
            lab = zigzag_labelling(n)
            beta_n = rng.choice([2, 3])
            k = rng.choice([2, 3, 4, 6])
            max_ell = (2 * n) // ((2 * k + 1) * beta_n)
            if max_ell < 1:
                continue
            ell = rng.randint(1, max_ell)
            pieces = partition_pieces(h, lab, ell)
            phi = [rng.randrange(k) for _ in range(ell)]
            hom = build_cycle_homomorphism(h, lab, pieces, phi, beta_n, k)
            assert len(hom.linking) == 2 * k * ell * beta_n
            rep = verify_cycle_homomorphism(h, hom, [n // k] * k, Fraction(1, 2))
            assert rep.homomorphism.ok
            assert rep.matching_edges.ok
