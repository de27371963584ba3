import os
import random
import signal
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from bipembed import embedder, partitioner, regularity
from bipembed.embedder import EmbedConfig, embed_bipartite
from bipembed.generators import InstanceSpec, gen_host
from bipembed.graphs import BipartiteGraph, Side, VertexId, VertexSet, density
from bipembed.partitioner import (
    AbsorptionError,
    PipelineStageError,
    RedistributionError,
    ScheduleError,
    absorb_exceptional_vertices,
    candidate_index_set,
    derive_parameter_schedule,
    prepare_host_partition,
    redistribute_cluster_sizes,
    resize_host_partition,
    _certify_cycle_pairs,
)
from bipembed.regularity import (
    ClusterPartition,
    PairCertificate,
    RegularityParams,
    Strategy,
    Verdict,
    _mix_seed,
    check_regular_pair,
    check_super_regular_pair,
    maximal_reduced_graph,
    random_equipartition,
    reuse_deviation,
)

from helpers import cycle_graph, planted_blocks, random_bipartite, random_min_degree
from test_homomorphism import zigzag_labelling


def make_partition(g, k, assignment_a, assignment_b):
    ca = tuple(
        VertexSet.from_indices(Side.A, g.size_a, [v for v, c in assignment_a.items() if c == i])
        for i in range(k)
    )
    cb = tuple(
        VertexSet.from_indices(Side.B, g.size_b, [v for v, c in assignment_b.items() if c == i])
        for i in range(k)
    )
    in_a = {v for v in assignment_a}
    in_b = {v for v in assignment_b}
    ea = VertexSet.from_indices(Side.A, g.size_a, [v for v in range(g.size_a) if v not in in_a])
    eb = VertexSet.from_indices(Side.B, g.size_b, [v for v in range(g.size_b) if v not in in_b])
    return ClusterPartition(ca, cb, ea, eb)


def contiguous_partition(g, k, m):
    aa = {i: i // m for i in range(k * m)}
    return make_partition(g, k, aa, dict(aa))


def cycle_pairs(part):
    """(A bits, B bits) of the matching pairs, then of the offset pairs."""
    k = part.k
    return [(part.clusters_a[i].bits, part.clusters_b[(i + s) % k].bits)
            for s in (0, 1) for i in range(k)]


@pytest.fixture
def sampled(monkeypatch):
    """The (A bits, B bits) of every pair check that samples, in call order."""
    calls = []
    real = regularity.check_regular_pair

    def counting(G, U, W, *args, **kwargs):
        calls.append((U.bits, W.bits))
        return real(G, U, W, *args, **kwargs)

    monkeypatch.setattr(regularity, "check_regular_pair", counting)
    monkeypatch.setattr(partitioner, "check_regular_pair", counting)
    return calls


class TestSchedule:
    def test_faithful_gamma_004(self):
        g = Fraction(1, 25)  # 0.04
        eps = g * g / 1000
        sched = derive_parameter_schedule(g, 2, eps, 2, "faithful")
        assert sched.embed_density == g * g / 100
        assert sched.partition_epsilon == eps ** 3 * g ** 3
        assert sched.partition_density == eps + g * g
        assert all(ok for _, ok in sched.checks)
        assert sched.min_clusters_for_cycle >= 2
        # slack really satisfies its defining inequalities, exactly
        from bipembed.ratmath import exact_sqrt

        root = exact_sqrt(sched.size_slack)
        assert root is not None
        assert 100 * sched.min_clusters_for_cycle * root <= sched.epsilon / 10
        assert 100 * sched.min_clusters_for_cycle ** 2 * root <= sched.embed_density

    def test_practical_passthrough(self):
        sched = derive_parameter_schedule(
            Fraction(1, 25), 2, 0, 8, "practical",
            overrides={"epsilon": Fraction(1, 4), "d": Fraction(3, 10)},
        )
        assert sched.mode == "practical"
        assert sched.epsilon == Fraction(1, 4)
        assert sched.embed_density == Fraction(3, 10)

    def test_gamma_above_bound_rejected(self):
        with pytest.raises(ScheduleError):
            derive_parameter_schedule(Fraction(1, 10), 2, Fraction(1, 10**7), 2, "faithful")

    def test_epsilon_above_bound_rejected(self):
        with pytest.raises(ScheduleError):
            derive_parameter_schedule(Fraction(1, 25), 2, Fraction(1, 100), 2, "faithful")

    def test_faithful_audit_three_gammas(self):
        for g in (Fraction(1, 100), Fraction(1, 50), Fraction(1, 25)):
            sched = derive_parameter_schedule(g, 2, g * g / 1000, 2, "faithful")
            assert all(ok for _, ok in sched.checks)
            assert sched.absorbed_epsilon.le(sched.epsilon / 10)
            assert sched.absorbed_density - sched.epsilon >= 2 * sched.embed_density


class TestCandidateIndexSet:
    def test_complete_graph_full_range(self):
        g = planted_blocks(1, 16)
        part = contiguous_partition(g, 4, 4)
        out = candidate_index_set(
            g, VertexId(Side.A, 0), VertexId(Side.B, 0), part, Fraction(1)
        )
        assert out == frozenset(range(4))

    def test_isolated_vertex_empty(self):
        g = BipartiteGraph.build(16, 16, [(a, b) for a in range(1, 16) for b in range(16)])
        part = contiguous_partition(g, 4, 4)
        out = candidate_index_set(
            g, VertexId(Side.A, 0), VertexId(Side.B, 0), part, Fraction(3, 10)
        )
        assert out == frozenset()

    def test_random_instance_gamma_k_bound(self):
        rng = random.Random(0)
        n, k = 256, 4
        gamma = Fraction(1, 10)
        g = random_min_degree(n, 154, 0.62, rng)  # delta >= (1/2+0.1)*256 = 153.6
        part = contiguous_partition(g, k, n // k)
        for _ in range(20):
            x = VertexId(Side.A, rng.randrange(n))
            y = VertexId(Side.B, rng.randrange(n))
            got = candidate_index_set(g, x, y, part, Fraction(3, 10))
            assert len(got) >= gamma * k


class TestAbsorption:
    def test_empty_exceptional_identity(self):
        g = planted_blocks(2, 8)
        part = contiguous_partition(g, 2, 8)
        res = absorb_exceptional_vertices(g, part, Fraction(1, 2), Fraction(1, 10))
        assert res.partition.sizes_a() == [8, 8]
        assert res.gains == (0, 0)

    def test_forced_single_candidate(self):
        # blocks of 4; vertex A8/B8 attached only to block 1 (cluster index 1)
        edges = []
        for blk in range(2):
            for a in range(blk * 4, (blk + 1) * 4):
                for b in range(blk * 4, (blk + 1) * 4):
                    edges.append((a, b))
        edges += [(8, b) for b in range(4, 8)]
        edges += [(a, 8) for a in range(4, 8)]
        g = BipartiteGraph.build(9, 9, edges)
        aa = {i: i // 4 for i in range(8)}
        part = make_partition(g, 2, aa, dict(aa))
        assert part.exceptional_a.size == 1
        res = absorb_exceptional_vertices(g, part, Fraction(1, 2), Fraction(1, 10))
        assert res.gains == (0, 1)
        assert 8 in res.partition.clusters_a[1]
        assert 8 in res.partition.clusters_b[1]
        assert res.partition.exceptional_a.size == 0

    def test_unequal_exceptional_rejected(self):
        g = planted_blocks(2, 4)
        aa = {i: i // 4 for i in range(7)}  # A7 exceptional
        bb = {i: i // 4 for i in range(8)}
        part = make_partition(g, 2, aa, bb)
        with pytest.raises(AbsorptionError):
            absorb_exceptional_vertices(g, part, Fraction(1, 2), Fraction(1, 10))

    def test_no_candidate_reported(self):
        g = BipartiteGraph.build(9, 9, [(a, b) for a in range(8) for b in range(8)])
        aa = {i: i // 4 for i in range(8)}
        part = make_partition(g, 2, aa, dict(aa))
        with pytest.raises(AbsorptionError) as exc:
            absorb_exceptional_vertices(g, part, Fraction(1, 2), Fraction(1, 10))
        assert exc.value.pair == (8, 8)

    def test_random_instance_bound_and_recert(self):
        rng = random.Random(3)
        n, k = 256, 4
        g = random_min_degree(n, 154, 0.62, rng)
        m = 60  # clusters of 60, 16 exceptional vertices per side
        aa = {}
        order = list(range(n))
        rng.shuffle(order)
        for pos, v in enumerate(order[: k * m]):
            aa[v] = pos // m
        order_b = list(range(n))
        rng.shuffle(order_b)
        bb = {v: pos // m for pos, v in enumerate(order_b[: k * m])}
        part = make_partition(g, k, aa, bb)
        assert part.exceptional_a.size == 16
        res = absorb_exceptional_vertices(g, part, Fraction(3, 10), Fraction(1, 10))
        assert res.partition.exceptional_a.size == 0
        assert max(res.gains) <= res.gain_bound
        assert res.bound_ok
        # pairs still certify after absorption, at parameters weakened by
        # the measured per-cluster gain fraction
        from bipembed.regularity import rebound_after_perturbation, Strategy, Verdict, check_regular_pair

        worst = max(
            Fraction(res.gains[i], res.partition.clusters_a[i].size) for i in range(k)
        )
        hat = rebound_after_perturbation(
            RegularityParams(Fraction(1, 4), Fraction(3, 10)), worst, worst
        )
        for i in range(k):
            cert = check_regular_pair(
                g, res.partition.clusters_a[i], res.partition.clusters_b[i],
                hat, Strategy.SAMPLED, 400, i,
            )
            assert cert.verdict is not Verdict.IRREGULAR
        # conservation
        total = set()
        for c in res.partition.clusters_a:
            total |= set(c.indices())
        assert total == set(range(n))


class TestRedistribution:
    def make_dense_cycle_instance(self, k, m, p, seed):
        rng = random.Random(seed)
        g = random_bipartite(k * m, p, rng)
        part = contiguous_partition(g, k, m)
        return g, part

    def test_zero_deltas_identity(self):
        g, part = self.make_dense_cycle_instance(4, 32, 0.6, 0)
        res = redistribute_cluster_sizes(
            g, part, [0] * 4, [0] * 4, Fraction(1, 1000), RegularityParams(Fraction(1, 4), Fraction(3, 10)),
        )
        assert res.iterations == 0
        assert res.partition.sizes_a() == part.sizes_a()

    def test_single_forced_move(self):
        k, m = 2, 128
        rng = random.Random(1)
        g = random_bipartite(k * m, 0.6, rng)
        part = contiguous_partition(g, k, m)
        res = redistribute_cluster_sizes(
            g, part, [+1, -1], [0, 0], Fraction(1, 20 * k * k),
            RegularityParams(Fraction(1, 4), Fraction(3, 10)),
        )
        assert res.partition.sizes_a() == [m + 1, m - 1]
        assert res.partition.sizes_b() == [m, m]
        assert res.iterations == 1

    def test_exact_sizes_and_move_bound(self):
        k, m = 4, 256
        g, part = self.make_dense_cycle_instance(k, m, 0.55, 2)
        n = k * m
        xi = Fraction(1, 20 * k * k)
        cap = int(xi * n)
        rng = random.Random(5)
        for trial in range(6):
            da = self.random_deltas(rng, k, cap)
            db = self.random_deltas(rng, k, cap)
            res = redistribute_cluster_sizes(
                g, part, da, db, xi, RegularityParams(Fraction(1, 4), Fraction(3, 10)),
            )
            assert res.partition.sizes_a() == [m + d for d in da]
            assert res.partition.sizes_b() == [m + d for d in db]
            assert res.iterations <= k * xi * n
            # conservation
            all_a = set()
            for c in res.partition.clusters_a:
                assert not (set(c.indices()) & all_a)
                all_a |= set(c.indices())
            assert all_a == set(range(n))

    @staticmethod
    def random_deltas(rng, k, cap):
        while True:
            d = [rng.randint(-cap, cap) for _ in range(k - 1)]
            last = -sum(d)
            if abs(last) <= cap:
                return d + [last]

    def test_route_log_accounting(self):
        k, m = 4, 256
        g, part = self.make_dense_cycle_instance(k, m, 0.55, 7)
        xi = Fraction(1, 20 * k * k)
        res = redistribute_cluster_sizes(
            g, part, [3, -3, 0, 0], [0, -2, 2, 0], xi,
            RegularityParams(Fraction(1, 4), Fraction(3, 10)),
        )
        assert res.iterations == len(res.route_log) == 5
        for side, src, sink in res.route_log:
            assert side in ("A", "B")
            assert src != sink

    def test_pinned_routes_and_vertex_choices(self):
        # A-routes 2->3->0 and B-routes 1->0->3 cross an intermediate
        # cluster, and at d = 2/5 the eligibility tests skip some
        # lowest-index vertices, so these values pin the mover's choices
        k, m = 4, 24
        g = random_bipartite(k * m, 0.6, random.Random(11))
        part = contiguous_partition(g, k, m)
        res = redistribute_cluster_sizes(
            g, part, [2, 0, -1, -1], [1, -2, 0, 1], Fraction(1, 16),
            RegularityParams(Fraction(1, 4), Fraction(2, 5)),
        )
        assert res.route_log == (("A", 2, 0), ("A", 3, 0), ("B", 1, 0), ("B", 1, 3))
        assert res.vertex_moves == 6
        assert res.symmetric_difference_a == (2, 0, 1, 3)
        assert res.symmetric_difference_b == (3, 2, 0, 1)
        assert [c.bits for c in res.partition.clusters_a] == [
            0x21000000000000FFFFFF, 0xFFFFFF000000,
            0xFFFFFD000000000000, 0xFFFFDE000002000000000000,
        ]
        assert [c.bits for c in res.partition.clusters_b] == [
            0x5FFFFFE, 0xFFFFFA000000,
            0xFFFFFF000000000000, 0xFFFFFF000000000000000001,
        ]

    @pytest.mark.parametrize(
        "side, deltas_a, deltas_b, src",
        [("A", [-1, 1], [0, 0], 0), ("B", [0, 0], [1, -1], 1)],
    )
    def test_stuck_mover_names_side_and_source(self, side, deltas_a, deltas_b, src):
        # K_{8,8} minus a perfect matching between A_0 and B_1: at d = 1 a
        # vertex moving A_0 -> A_1 needs all of B_1 and one moving
        # B_1 -> B_0 needs all of A_0, and each misses one
        k, m = 2, 4
        n = k * m
        edges = [(a, b) for a in range(n) for b in range(n) if not (a < m and b == a + m)]
        g = BipartiteGraph.build(n, n, edges)
        part = contiguous_partition(g, k, m)
        with pytest.raises(RedistributionError) as exc:
            redistribute_cluster_sizes(
                g, part, deltas_a, deltas_b, Fraction(1, 8),
                RegularityParams(Fraction(1, 4), Fraction(1)),
            )
        assert exc.value.side == side
        assert exc.value.cluster == src

    def test_delta_bound_violation(self):
        g, part = self.make_dense_cycle_instance(2, 16, 0.9, 0)
        with pytest.raises(RedistributionError):
            redistribute_cluster_sizes(
                g, part, [5, -5], [0, 0], Fraction(1, 80),
                RegularityParams(Fraction(1, 4), Fraction(3, 10)),
            )

    def test_sum_zero_required(self):
        g, part = self.make_dense_cycle_instance(2, 16, 0.9, 0)
        with pytest.raises(RedistributionError):
            redistribute_cluster_sizes(
                g, part, [1, 0], [0, 0], Fraction(1, 80),
                RegularityParams(Fraction(1, 4), Fraction(3, 10)),
            )

    def test_recertification_at_working_params(self):
        # after real moves on a dense instance the pairs still certify at
        # the original working parameters (sampled)
        k, m = 4, 256
        g, part = self.make_dense_cycle_instance(k, m, 0.6, 9)
        xi = Fraction(1, 20 * k * k)
        res = redistribute_cluster_sizes(
            g, part, [3, -1, -2, 0], [1, 1, -1, -1], xi,
            RegularityParams(Fraction(1, 4), Fraction(3, 10)),
        )
        params = RegularityParams(Fraction(1, 4), Fraction(3, 10))
        for i in range(k):
            cert = check_super_regular_pair(g, check_regular_pair(
                g, res.partition.clusters_a[i], res.partition.clusters_b[i],
                params, Strategy.SAMPLED, 400, i,
            ))
            assert cert.verdict is Verdict.SUPER_REGULAR


class TestHostPhases:
    def practical_schedule(self, gamma, k0=4, **ov):
        overrides = {"epsilon": Fraction(1, 4), "d": Fraction(3, 10)}
        overrides.update(ov)
        return derive_parameter_schedule(gamma, 2, 0, k0, "practical", overrides)

    def test_phase1_on_dense_random_host(self):
        rng = random.Random(11)
        n = 256
        g = random_min_degree(n, 205, 0.82, rng)  # delta >= 0.8n
        sched = self.practical_schedule(Fraction(3, 10), k0=4)
        state = prepare_host_partition(g, sched, budget=400, seed=1)
        assert state.k == 4
        assert sum(state.target_sizes) == n
        assert state.partition.exceptional_a.size == 0
        state.partition.validate(g)  # conservation: still a true partition
        assert state.certificates_ok()
        # alternation: matching pairs super-regular, offset pairs regular
        for i in range(state.k):
            assert state.matching_certificates[i].verdict is Verdict.SUPER_REGULAR
            assert state.offset_certificates[i].verdict is Verdict.REGULAR

    def test_phase1_complete_host(self):
        # a complete host: any equipartition certifies, the first Hamilton
        # cycle's 2k pairs are certified, and each cluster target is n/k
        n, k0 = 64, 8
        g = BipartiteGraph.build(n, n, [(a, b) for a in range(n) for b in range(n)])
        sched = self.practical_schedule(Fraction(2, 5), k0=8)
        state = prepare_host_partition(g, sched, budget=200, seed=9)
        assert state.k == 8
        assert state.target_sizes == (8,) * 8
        assert len(state.build.reduced.edges) == len(state.build.reduced.certificates) == 16
        assert sorted(state.matching_certificates) == sorted(state.offset_certificates) == list(
            range(8))
        assert state.certificates_ok()

    def test_phase1_rejects_low_degree(self):
        g = planted_blocks(2, 16)  # disconnected: delta = 16 < (1/2+g)*32
        sched = self.practical_schedule(Fraction(1, 10), k0=2)
        with pytest.raises(PipelineStageError) as exc:
            prepare_host_partition(g, sched, budget=200, seed=0)
        assert exc.value.stage == "hypotheses"

    def test_phase2_identity_and_shift(self):
        rng = random.Random(13)
        n = 256
        g = random_min_degree(n, 205, 0.82, rng)
        sched = self.practical_schedule(Fraction(3, 10), k0=4)
        state = prepare_host_partition(g, sched, budget=400, seed=2)
        # identity
        res = resize_host_partition(state, g, state.target_sizes, state.target_sizes,
                                    budget=400, seed=3)
        assert res.partition.sizes_a() == list(state.target_sizes)
        assert res.redistribution.iterations == 0
        assert res.certificates_ok
        # shift one unit between two clusters
        a = list(state.target_sizes)
        a[0] += 1
        a[1] -= 1
        res2 = resize_host_partition(state, g, a, state.target_sizes, budget=400, seed=4)
        assert res2.partition.sizes_a() == a
        assert res2.certificates_ok

    def test_phase2_rejects_oversized_request(self):
        rng = random.Random(17)
        n = 256
        g = random_min_degree(n, 205, 0.82, rng)
        sched = self.practical_schedule(Fraction(3, 10), k0=4)
        state = prepare_host_partition(g, sched, budget=400, seed=5)
        a = list(state.target_sizes)
        bump = int(sched.size_slack * n) + 8
        a[0] += bump
        a[1] -= bump
        with pytest.raises(PipelineStageError):
            resize_host_partition(state, g, a, state.target_sizes, budget=200, seed=6)

    def test_cut_leftovers_over_budget_end_phase_1_at_the_partition(self):
        # 20 = 3*6 + 2: the cut leaves 2 vertices per side, above eps*n = 1
        n = 20
        g = BipartiteGraph.build(n, n, [(a, b) for a in range(n) for b in range(n)])
        sched = self.practical_schedule(Fraction(1, 10), k0=3, epsilon=Fraction(1, 20))
        with pytest.raises(PipelineStageError) as exc:
            prepare_host_partition(g, sched, budget=200, seed=0)
        assert exc.value.stage == "regular-partition"
        assert "exceptional sets exceed" in str(exc.value)

    def test_cleaning_over_budget_ends_phase_1_at_super_regularize(self):
        # On the seeded cut into 16 + 16, five A_0 vertices see only four
        # vertices of B_0 and five others only four of B_1, below
        # (d - eps)*16 = 4.16; every other pair is complete.  All four pairs
        # stay (1/2)-regular at density 196/256 >= d, so the cycle certifies,
        # but cleaning moves ten vertices out of A_0 and trimming to six
        # leaves 20 exceptional vertices per side, above eps*n = 16.
        n, seed = 32, 0
        cut = random_equipartition(BipartiteGraph.build(n, n, []), 2, random.Random(seed))
        a0 = sorted(cut.clusters_a[0].indices())
        b0, b1 = (sorted(c.indices()) for c in cut.clusters_b)
        missing = {a: set(b0[4:]) for a in a0[:5]}
        missing.update({a: set(b1[4:]) for a in a0[5:10]})
        g = BipartiteGraph.build(n, n, [
            (a, b) for a in range(n) for b in range(n) if b not in missing.get(a, ())
        ])
        sched = self.practical_schedule(Fraction(1, 10), k0=2, epsilon=Fraction(1, 2),
                                        d=Fraction(19, 25))
        with pytest.raises(PipelineStageError) as exc:
            prepare_host_partition(g, sched, budget=200, seed=seed)
        assert exc.value.stage == "super-regularize"
        assert "exceptional set" in str(exc.value) and "exceed" in str(exc.value)

    def test_a_failed_post_absorption_pair_ends_phase_1_by_name(self, monkeypatch):
        rng = random.Random(11)
        n = 256
        g = random_min_degree(n, 205, 0.82, rng)
        real = partitioner.check_super_regular_pair
        calls = []

        def first_fails(*args, **kwargs):
            cert = real(*args, **kwargs)
            calls.append(cert)
            return replace(cert, verdict=Verdict.SUPER_FAILED) if len(calls) == 1 else cert

        monkeypatch.setattr(partitioner, "check_super_regular_pair", first_fails)
        sched = self.practical_schedule(Fraction(3, 10), k0=4)
        with pytest.raises(PipelineStageError) as exc:
            prepare_host_partition(g, sched, budget=400, seed=1)
        assert exc.value.stage == "pair-certification"
        assert "pairs failed at the post-absorption parameters: [0]" in str(exc.value)
        # the pipeline records the failure under the same stage, last
        calls.clear()
        with pytest.raises(embedder.EmbeddingPipelineError) as exc:
            embed_bipartite(g, cycle_graph(n), Fraction(3, 10), 2,
                            EmbedConfig(k0=4, sample_budget=400), seed=1,
                            labelling=zigzag_labelling(n))
        last = exc.value.report.stages[-1]
        assert (last.stage, last.ok) == ("pair-certification", False)


class TestFaithfulPhase1:
    """Faithful mode runs phase 1 only with at least k_min clusters, the
    proof's bound k >= 1/(gamma - d' - eps'')."""

    gamma = Fraction(1, 25)

    def schedule(self, k0):
        return derive_parameter_schedule(self.gamma, 2, self.gamma ** 2 / 1000, k0, "faithful")

    @staticmethod
    def complete(n):
        return BipartiteGraph.build(n, n, [(a, b) for a in range(n) for b in range(n)])

    def test_k0_below_k_min_is_refused(self):
        sched = self.schedule(8)
        assert sched.min_clusters_for_cycle == 27
        with pytest.raises(PipelineStageError) as exc:
            prepare_host_partition(self.complete(64), sched, budget=50, seed=0)
        assert exc.value.stage == "regular-partition"
        assert "k0 = 8 is below k_min = 27" in str(exc.value)

    def test_k0_at_k_min_completes_at_the_absorbed_tier(self):
        sched = self.schedule(27)
        state = prepare_host_partition(self.complete(54), sched, budget=50, seed=0)
        assert state.k == 27 and state.target_sizes == (2,) * 27
        assert state.certificates_ok()
        # faithful phase 1 certifies at the derived post-absorption tier
        assert state.hat_params == RegularityParams(
            min(sched.absorbed_epsilon.upper(), Fraction(1)), sched.absorbed_density
        )
        assert all(c.params == state.hat_params for c in state.matching_certificates.values())

    def test_faithful_resize_refuses_every_size_change(self):
        # size_slack*n is about 2e-19 here, so a cluster can grow by no
        # vertex: the only size vector resize accepts is the targets
        sched = self.schedule(27)
        g = self.complete(54)
        state = prepare_host_partition(g, sched, budget=50, seed=0)
        assert sched.size_slack * 54 < Fraction(1, 10**18)
        res = resize_host_partition(state, g, state.target_sizes, state.target_sizes,
                                    budget=50, seed=1)
        assert res.redistribution.vertex_moves == 0
        for i, j in ((0, 1), (26, 0)):
            sizes = list(state.target_sizes)
            sizes[i] += 1
            sizes[j] -= 1
            for a_sizes, b_sizes in ((sizes, state.target_sizes), (state.target_sizes, sizes)):
                with pytest.raises(PipelineStageError) as exc:
                    resize_host_partition(state, g, a_sizes, b_sizes, budget=50, seed=1)
                assert exc.value.stage == "resize"
                assert f"requested size at cluster {i} exceeds" in str(exc.value)


REUSED = "deviation verdict reused from"


class TestDeviationReuse:
    """Each cycle pair is sampled once at a given epsilon: a later check of
    the same vertex sets takes the earlier deviation verdict."""

    params = RegularityParams(Fraction(1, 4), Fraction(3, 10))

    def dense_state(self, host_seed, seed):
        g = random_min_degree(256, 205, 0.82, random.Random(host_seed))
        sched = derive_parameter_schedule(
            Fraction(3, 10), 2, 0, 4, "practical",
            {"epsilon": Fraction(1, 4), "d": Fraction(3, 10)},
        )
        return g, prepare_host_partition(g, sched, budget=400, seed=seed)

    def test_phase1_samples_no_builder_pair_again(self, sampled, monkeypatch):
        """The cycle certification samples the builder's round-0 pairs; phase
        1 samples nothing it sampled."""
        certified = []
        real_certify = partitioner._certify_cycle_pairs

        def certify(*args, **kwargs):
            certified.append(len(sampled))
            return real_certify(*args, **kwargs)

        monkeypatch.setattr(partitioner, "_certify_cycle_pairs", certify)
        g, state = self.dense_state(11, 1)
        # nothing moves on this host, so the cycle certification sampled
        # exactly the 2k cycle pairs, and phase 1 takes all their verdicts
        assert sorted(sampled[:certified[0]]) == sorted(cycle_pairs(state.partition))
        assert sampled[certified[0]:] == []
        certs = list(state.matching_certificates.values()) + list(
            state.offset_certificates.values())
        assert len(certs) == 2 * state.k
        assert all(c.note == f"{REUSED} the cycle certification" for c in certs)
        assert all(c.samples_used == 400 for c in certs)
        assert state.certificates_ok()

    def test_absorbed_host_certifies_at_the_declared_tier(self):
        """Practical phase 1 certifies at its schedule's absorbed tier, (eps, d),
        also when it absorbs exceptional vertices: the pairs absorption left
        alone take the cycle certification's verdicts, and the changed pairs
        are sampled at eps."""
        g = gen_host(InstanceSpec(
            "host-random-min-degree", 516, 3, {"gamma": Fraction(3, 10)}
        ))
        sched = derive_parameter_schedule(
            Fraction(3, 10), 2, 0, 8, "practical",
            {"epsilon": Fraction(1, 4), "d": Fraction(3, 10)},
        )
        state = prepare_host_partition(g, sched, budget=800, seed=3)
        assert state.build.partition.exceptional_a.size > 0  # 516 = 8*64 + 4
        assert state.hat_params == RegularityParams(Fraction(1, 4), Fraction(3, 10))
        certs = list(state.matching_certificates.values()) + list(
            state.offset_certificates.values())
        assert len(certs) == 2 * state.k
        assert all(c.params.epsilon == Fraction(1, 4) for c in certs)
        reused = [c for c in certs if c.note.startswith(f"{REUSED} the cycle certification")]
        fresh = [c for c in certs if not c.note.startswith(REUSED)]
        assert reused and fresh and len(reused) + len(fresh) == len(certs)
        assert all(c.samples_used == 800 for c in fresh)
        assert state.certificates_ok()

    def test_phase2_samples_only_the_pairs_of_moved_clusters(self, sampled):
        g, state = self.dense_state(13, 2)
        k = state.k
        a = list(state.target_sizes)
        a[0] -= 1
        a[1] += 1
        del sampled[:]
        res = resize_host_partition(state, g, a, state.target_sizes, budget=400, seed=4)
        assert res.redistribution.vertex_moves == 1
        part = res.partition
        touched = [(part.clusters_a[i].bits, part.clusters_b[j].bits)
                   for i, j in ((0, 0), (0, 1), (1, 1), (1, 2))]
        assert sorted(sampled) == sorted(touched)
        certs = list(res.matching_certificates.values()) + list(
            res.offset_certificates.values())
        assert sum(c.note.startswith(REUSED) for c in certs) == 2 * k - 4
        assert res.certificates_ok

    @pytest.mark.parametrize("epsilon, d, budget, strategy, fresh", [
        (Fraction(1, 3), Fraction(3, 10), 100, Strategy.SAMPLED, 4),
        (Fraction(1, 4), Fraction(3, 10), 99, Strategy.SAMPLED, 4),
        (Fraction(1, 4), Fraction(1), 100, Strategy.SAMPLED, 4),
        (Fraction(1, 4), Fraction(3, 10), 100, Strategy.EXHAUSTIVE, 4),
        (Fraction(1, 4), Fraction(3, 10), 100, Strategy.SAMPLED, 0),
    ], ids=["other-epsilon", "short-sample-count", "density-below", "exhaustive", "reusable"])
    def test_only_a_sampled_verdict_at_the_same_epsilon_and_budget_stands(
        self, sampled, epsilon, d, budget, strategy, fresh
    ):
        g = random_min_degree(96, 80, 0.82, random.Random(3))
        part = contiguous_partition(g, 2, 48)
        known = {}
        for a_bits, b_bits in cycle_pairs(part):
            a, b = VertexSet(Side.A, 96, a_bits), VertexSet(Side.B, 96, b_bits)
            prior = check_regular_pair(g, a, b, RegularityParams(epsilon, d), budget=budget, seed=7)
            known[(a_bits, b_bits)] = (replace(prior, strategy=strategy), "an earlier check")
        del sampled[:]
        matching, offsets = _certify_cycle_pairs(
            g, part, self.params, 100, 1, known, "this check"
        )
        assert len(sampled) == fresh
        certs = list(matching.values()) + list(offsets.values())
        assert all(c.verdict in (Verdict.REGULAR, Verdict.SUPER_REGULAR) for c in certs)
        assert all(c.samples_used == 100 for c in certs)
        assert sum(c.note == f"{REUSED} an earlier check" for c in certs) == 4 - fresh
        # a fresh check replaces the prior in the ledger
        assert sum(src == "this check" for _, src in known.values()) == fresh

    def test_reused_regular_verdict_still_checks_degrees(self, sampled):
        g = random_min_degree(64, 52, 0.82, random.Random(5))
        # A-vertex 0 keeps only 2 of its neighbours in B_0 = {0..31}
        g = BipartiteGraph.build(64, 64, [
            (x, y) for x, y in g.edges() if x != 0 or y >= 32 or y < 2
        ] + [(0, 0), (0, 1)])
        U = VertexSet.from_indices(Side.A, 64, range(32))
        W = VertexSet.from_indices(Side.B, 64, range(32))
        prior = PairCertificate(
            (U, W), self.params, Verdict.REGULAR, density(g, U, W), None, Strategy.SAMPLED, 100
        )
        reused = reuse_deviation(prior, U, W, self.params, 100)
        assert reused is not None
        cert = check_super_regular_pair(g, reused)
        assert cert.verdict is Verdict.SUPER_FAILED
        assert cert.failing_vertex == VertexId(Side.A, 0)
        assert sampled == []

    def test_reused_irregular_witness_recomputes(self, sampled):
        g = planted_blocks(4, 8)  # (A_0, B_0) holds two K_{8,8} blocks
        U = VertexSet.from_indices(Side.A, 32, range(16))
        W = VertexSet.from_indices(Side.B, 32, range(16))
        prior = check_regular_pair(g, U, W, self.params, budget=200, seed=1)
        assert prior.verdict is Verdict.IRREGULAR
        del sampled[:]
        cert = check_super_regular_pair(g, reuse_deviation(prior, U, W, self.params, 200))
        assert sampled == []
        assert cert.verdict is Verdict.SUPER_FAILED
        wit = cert.witness
        assert wit == prior.witness
        eps = self.params.epsilon
        assert abs(density(g, wit.subset_u, wit.subset_w) - cert.base_density) == wit.deviation
        assert wit.deviation > eps
        assert wit.subset_u.size >= eps * U.size and wit.subset_w.size >= eps * W.size

    def test_a_failed_super_regular_pair_keeps_its_witness(self, sampled):
        """At k = 1 the matching and the offset pair are both (A_0, B_0).
        The matching pair's witness fails it as super-regular, and the ledger
        keeps that deviation verdict, so the offset pair takes the witness
        instead of sampling the pair again."""
        rng = random.Random(5)
        g = BipartiteGraph.build(24, 24, [
            (a, b) for a in range(24) for b in range(24)
            if a // 12 == b // 12 or rng.random() < 0.3
        ])
        part = contiguous_partition(g, 1, 24)
        known = {}
        matching, offsets = _certify_cycle_pairs(g, part, self.params, 200, 4, known, "the batch")
        assert matching[0].verdict is Verdict.SUPER_FAILED and matching[0].witness
        assert offsets[0].verdict is Verdict.IRREGULAR
        assert offsets[0].note == f"{REUSED} the batch"
        assert offsets[0].witness == matching[0].witness
        assert len(sampled) == 1
        ((verdict, _),) = known.values()
        assert verdict.verdict is Verdict.IRREGULAR

    def test_a_vacuous_pair_is_sampled_once(self, monkeypatch):
        """At eps = 1 only full subsets qualify, so each fresh verdict is
        regular with no samples drawn; the super-regular gate takes it as
        it is and checks no pair a second time."""
        g = BipartiteGraph.build(8, 8, [(a, b) for a in range(8) for b in range(8)])
        part = contiguous_partition(g, 2, 4)
        params = RegularityParams(Fraction(1), Fraction(1, 2))
        monkeypatch.setattr(regularity, "_cores", lambda: 1)
        bodies = []
        real = regularity._check_pair

        def counting(G, U, W, *args):
            bodies.append((U.bits, W.bits))
            return real(G, U, W, *args)

        monkeypatch.setattr(regularity, "_check_pair", counting)
        matching, offsets = _certify_cycle_pairs(g, part, params, 100, 1, {}, "the batch")
        assert sorted(bodies) == sorted(cycle_pairs(part))
        vacuous = "vacuous: only full subsets qualify at this epsilon"
        for certs, verdict in ((matching, Verdict.SUPER_REGULAR), (offsets, Verdict.REGULAR)):
            assert sorted(certs) == [0, 1]
            for i, c in certs.items():
                j = (i + (certs is offsets)) % 2
                assert c == PairCertificate(
                    (part.clusters_a[i], part.clusters_b[j]), params, verdict,
                    Fraction(1), None, Strategy.SAMPLED, 0, note=vacuous,
                )

    def test_a_vacuous_verdict_stands_in_a_later_batch(self, monkeypatch):
        """A vacuous verdict depends only on the sizes and epsilon, so a
        later batch on the same ledger takes it instead of checking again."""
        g = BipartiteGraph.build(8, 8, [(a, b) for a in range(8) for b in range(8)])
        part = contiguous_partition(g, 2, 4)
        params = RegularityParams(Fraction(1), Fraction(1, 2))
        monkeypatch.setattr(regularity, "_cores", lambda: 1)
        bodies = []
        real = regularity._check_pair

        def counting(G, *args):
            bodies.append(args)
            return real(G, *args)

        monkeypatch.setattr(regularity, "_check_pair", counting)
        known = {}
        _certify_cycle_pairs(g, part, params, 100, 1, known, "the first batch")
        assert len(bodies) == 4
        matching, offsets = _certify_cycle_pairs(g, part, params, 100, 1, known, "a later one")
        assert len(bodies) == 4
        assert {src for _, src in known.values()} == {"the first batch"}
        certs = list(matching.values()) + list(offsets.values())
        assert all(c.note.startswith(f"{REUSED} the first batch; vacuous") for c in certs)
        assert all(c.samples_used == 0 for c in certs)
        assert [c.verdict for c in certs] == [Verdict.SUPER_REGULAR] * 2 + [Verdict.REGULAR] * 2


class TestCycleFirst:
    """Phase 1 searches the exact density graph of the round-0 partition and
    samples only the Hamilton cycle's 2k pairs."""

    def dense_host(self):
        g = random_min_degree(256, 205, 0.82, random.Random(11))
        sched = derive_parameter_schedule(
            Fraction(3, 10), 2, 0, 4, "practical",
            {"epsilon": Fraction(1, 4), "d": Fraction(3, 10)},
        )
        return g, sched

    @staticmethod
    def refuting(monkeypatch, refute):
        """Make phase 1's own sampled checks refute the pairs ``refute``
        accepts; return the (A bits, B bits) of every pair so refuted."""
        refuted = []
        real = partitioner.check_regular_pair

        def check(G, U, W, *args, **kwargs):
            cert = real(G, U, W, *args, **kwargs)
            if refute(U.bits, W.bits):
                refuted.append((U.bits, W.bits))
                return replace(cert, verdict=Verdict.IRREGULAR)
            return cert

        monkeypatch.setattr(partitioner, "check_regular_pair", check)
        return refuted

    def test_cycle_certificates_are_the_builders_round_0_certificates(self):
        # criterion-1 seed 0: the host, schedule and budget embed-512 uses
        g = gen_host(InstanceSpec(
            "host-random-min-degree", 512, 40_000,
            {"gamma": Fraction(3, 10), "slack": Fraction(1, 20)},
        ))
        sched = derive_parameter_schedule(
            Fraction(3, 10), 2, Fraction(1, 4), 8, "practical", {"d": Fraction(3, 10)}
        )
        state = prepare_host_partition(g, sched, budget=800, seed=0)
        build = state.build
        assert build.partition == random_equipartition(g, 8, random.Random(0))
        round0 = maximal_reduced_graph(
            g, build.partition, sched.working_params(), budget=800, seed=_mix_seed(0, 0)
        )
        certs = build.reduced.certificates
        assert len(certs) == 2 * state.k == len(build.reduced.edges)
        assert all(c == round0.certificates[key] for key, c in certs.items())
        # the relabelled cycle pairs are the same 2k vertex-set pairs
        part = build.partition
        assert sorted(cycle_pairs(state.partition)) == sorted(
            (part.clusters_a[i].bits, part.clusters_b[j].bits) for i, j in certs)

    def test_a_refuted_pair_leaves_the_density_graph(self, monkeypatch):
        g, sched = self.dense_host()
        n = g.size_a
        part = random_equipartition(g, 4, random.Random(1))
        i, j = min(prepare_host_partition(g, sched, budget=400, seed=1).build.reduced.certificates)
        target = (part.clusters_a[i].bits, part.clusters_b[j].bits)
        refuted = self.refuting(monkeypatch, lambda a, b: (a, b) == target)
        searches = []
        real_search = partitioner.find_hamilton_cycle

        def search(*args, **kwargs):
            searches.append(set(args[0].edges()))
            return real_search(*args, **kwargs)

        monkeypatch.setattr(partitioner, "find_hamilton_cycle", search)
        # the same schedule, budget and seed as prepare_host_partition above
        res = embed_bipartite(g, cycle_graph(n), Fraction(3, 10), 2,
                              EmbedConfig(k0=4, ell=16, sample_budget=400), seed=1,
                              labelling=zigzag_labelling(n))
        assert res.report.verdict == "verified-embedding"
        state = res.state
        assert refuted == [target]
        assert len(searches) == 2
        assert (i, j) in searches[0] and (i, j) not in searches[1]
        assert state.build.partition == part
        assert (i, j) not in state.build.reduced.certificates
        assert len(state.build.reduced.edges) == 2 * state.k
        assert state.deviation_certificates[target][0].verdict is Verdict.IRREGULAR
        # nothing moves on this host, so the relabelled clusters are the
        # round-0 clusters, and the refuted pair is none of the cycle pairs
        # (A_i, B_i) and (A_i, B_{i+1}) the embedding runs along
        assert target not in cycle_pairs(state.partition)

    def test_a_second_search_takes_the_first_searchs_verdicts(self, monkeypatch):
        g, sched = self.dense_host()
        part = random_equipartition(g, 4, random.Random(1))
        i, j = min(prepare_host_partition(g, sched, budget=400, seed=1).build.reduced.certificates)
        target = (part.clusters_a[i].bits, part.clusters_b[j].bits)
        checked = []
        self.refuting(monkeypatch, lambda a, b: checked.append((a, b)) or (a, b) == target)
        known = {}
        _, certs = partitioner._certified_cycle(g, part, sched, 400, 1, known)
        # every pair is sampled once and enters the ledger
        assert len(checked) == len(set(checked)) == len(known)
        first = set(checked[:2 * part.k])
        assert target in first
        shared = 0
        for (a, b), c in certs.items():
            bits = (part.clusters_a[a].bits, part.clusters_b[b].bits)
            shared += bits in first
            assert (c.note == f"{REUSED} the cycle certification") == (bits in first)
            assert known[bits][1] == "the cycle certification"
        assert 0 < shared < 2 * part.k

    def test_more_than_eps_k2_refutations_end_phase_1(self, monkeypatch):
        g, sched = self.dense_host()
        refuted = self.refuting(monkeypatch, lambda a, b: True)
        with pytest.raises(PipelineStageError) as exc:
            prepare_host_partition(g, sched, budget=400, seed=1)
        # the first cycle's 2k = 8 refutations exceed eps*k^2 = 4
        assert len(refuted) == 8
        assert exc.value.stage == "cycle-certification"
        assert "8 cycle pairs refuted, more than eps*k^2 = 4" in str(exc.value)

    def test_a_host_that_needs_refinement_ends_phase_1(self):
        """A1-B1 and A2-B2 complete, cross pairs at density 2/5: every
        round-0 pair holds the blocks' halves, which deviate by about 3/10
        from its density 7/10.  The sampled checker refutes the cycle's
        pairs, and phase 1 fails by name rather than refining."""
        n = 256
        rng = random.Random(5)
        g = BipartiteGraph.build(n, n, [
            (a, b) for a in range(n) for b in range(n)
            if (2 * a < n) == (2 * b < n) or rng.random() < 0.4
        ])
        assert g.min_degree() >= (Fraction(1, 2) + Fraction(1, 10)) * n
        sched = derive_parameter_schedule(
            Fraction(1, 10), 2, 0, 4, "practical",
            {"epsilon": Fraction(1, 4), "d": Fraction(3, 10)},
        )
        with pytest.raises(PipelineStageError) as exc:
            prepare_host_partition(g, sched, budget=400, seed=1)
        assert exc.value.stage == "cycle-certification"

    def test_each_certification_draws_on_its_own_seed_stream(self, monkeypatch):
        """The cycle certification, phase 1 and phase 2 at attempt 0 (seed
        ``_mix_seed(seed, 0)``, as ``embed_bipartite`` passes it) sample
        with pairwise disjoint seeds."""
        g, sched = self.dense_host()
        seeds = []
        real = regularity.check_regular_pair

        def check(G, U, W, params, strategy=Strategy.SAMPLED, budget=800, seed=0, **kw):
            seeds[-1].add(seed)
            return real(G, U, W, params, strategy, budget, seed, **kw)

        monkeypatch.setattr(partitioner, "check_regular_pair", check)
        monkeypatch.setattr(regularity, "check_regular_pair", check)
        seeds.append(set())
        state = prepare_host_partition(g, sched, budget=400, seed=1)
        # sample every cycle pair again, on the streams phases 1 and 2 take
        for seed, params in (
            (_mix_seed(1, partitioner.PHASE1_STREAM), state.hat_params),
            (_mix_seed(_mix_seed(1, 0), partitioner.PHASE2_STREAM), sched.final_params()),
        ):
            seeds.append(set())
            _certify_cycle_pairs(g, state.partition, params, 400, seed, {}, "a test")
        assert [len(s) for s in seeds] == [2 * state.k] * 3
        cycle, phase1, phase2 = seeds
        assert not cycle & phase1 and not cycle & phase2 and not phase1 & phase2
        # and phase 2 at attempt 0 samples on its stream
        a = list(state.target_sizes)
        a[0] -= 1
        a[1] += 1
        seeds.append(set())
        resize_host_partition(state, g, a, state.target_sizes, budget=400, seed=_mix_seed(1, 0))
        assert len(seeds[-1]) == 4 and seeds[-1] <= phase2



class TestSampledAcrossCores:
    """A batch's fresh pair checks run on forked helpers, and the caller
    gets the certificates it would sample itself: compared against the
    inline batch, which one core gives."""

    params = RegularityParams(Fraction(1, 4), Fraction(3, 10))
    m = 12

    def host(self):
        """Four 12-vertex clusters per side: (A_0, B_0) holds a dense 6x6
        block in a sparse pair, (A_1, B_1) is below d, vertex 24 of A_2 has
        no neighbour in B_2, (A_3, B_3) is complete and every other pair is
        random at 0.6."""
        rng = random.Random(5)
        m = self.m
        edges = []
        for a in range(4 * m):
            for b in range(4 * m):
                i, j = a // m, b // m
                if (i, j) == (0, 0):
                    keep = (a < 6 and b < 6) or rng.random() < 0.3
                elif (i, j) == (1, 1):
                    keep = rng.random() < 0.1
                elif (i, j) == (2, 2):
                    keep = a != 2 * m and rng.random() < 0.7
                elif (i, j) == (3, 3):
                    keep = True
                else:
                    keep = rng.random() < 0.6
                if keep:
                    edges.append((a, b))
        g = BipartiteGraph.build(4 * m, 4 * m, edges)
        return g, contiguous_partition(g, 4, m)

    @staticmethod
    def batch(monkeypatch, cores, run):
        """``run()`` with ``cores`` cores, the number of helpers it forked
        and the number of checks it sampled in this process."""
        forked, here = [], []
        real_helper, real_check = regularity._Helper, regularity._check_pair

        def helper(*args):
            forked.append(1)
            return real_helper(*args)

        def check(*args):
            here.append(1)  # a helper appends to its own copy
            return real_check(*args)

        monkeypatch.setattr(regularity, "_cores", lambda: cores)
        monkeypatch.setattr(regularity, "_Helper", helper)
        monkeypatch.setattr(regularity, "_check_pair", check)
        return run(), len(forked), len(here)

    def test_certificates_equal_the_inline_batch(self, monkeypatch):
        g, part = self.host()
        a3, b3 = part.clusters_a[3], part.clusters_b[3]
        earlier = check_regular_pair(g, a3, b3, self.params, budget=200, seed=99)
        pairs = [(0, 0, False), (2, 2, True), (1, 1, False), (3, 3, True),
                 (0, 1, False), (1, 2, False), (2, 3, False), (3, 0, False), (0, 0, False)]

        def run():
            known = {(a3.bits, b3.bits): (earlier, "a test")}
            certs = partitioner._certify_pairs(
                g, part, pairs, self.params, 200, 7, known, "the batch")
            return certs, known

        inline = self.batch(monkeypatch, 1, run)
        certs = inline[0][0]
        assert [c.verdict for c in certs[:4]] == [
            Verdict.IRREGULAR, Verdict.SUPER_FAILED, Verdict.DENSITY_BELOW, Verdict.SUPER_REGULAR]
        assert certs[1].failing_vertex == VertexId(Side.A, 2 * self.m)
        assert certs[3].note == f"{REUSED} a test"
        assert certs[8].note == f"{REUSED} the batch"
        # seven distinct fresh checks, each sampled once: (2, 2) before its
        # degrees fail, and the repeated (0, 0) takes the first one's verdict
        assert inline[1:] == (0, 7)
        assert self.batch(monkeypatch, 2, run) == (inline[0], 1, 4)
        assert self.batch(monkeypatch, 3, run) == (inline[0], 2, 3)

    def test_every_check_handed_to_a_helper_is_claimed(self, monkeypatch):
        """The batch of ``test_certificates_equal_the_inline_batch`` hands its
        helpers only checks the loop makes, a super-regular pair whose
        degrees fail included."""
        g, part = self.host()
        a3, b3 = part.clusters_a[3], part.clusters_b[3]
        earlier = check_regular_pair(g, a3, b3, self.params, budget=200, seed=99)
        pairs = [(0, 0, False), (2, 2, True), (1, 1, False), (3, 3, True),
                 (0, 1, False), (1, 2, False), (2, 3, False), (3, 0, False), (0, 0, False)]
        real_helper, real_claim = regularity._Helper, regularity._claim

        def counted(cores):
            handed, claimed = [], []

            def helper(G, jobs):
                handed.append(len(jobs))
                return real_helper(G, jobs)

            def claim(G, job):
                claimed.append(job in regularity._prefetched)
                return real_claim(G, job)

            monkeypatch.setattr(regularity, "_cores", lambda: cores)
            monkeypatch.setattr(regularity, "_Helper", helper)
            monkeypatch.setattr(regularity, "_claim", claim)
            known = {(a3.bits, b3.bits): (earlier, "a test")}
            partitioner._certify_pairs(g, part, pairs, self.params, 200, 7, known, "the batch")
            return sum(handed), sum(claimed)

        assert counted(2) == (3, 3)
        assert counted(3) == (4, 4)

    @pytest.mark.parametrize("bad", ["no-budget", "one-side"])
    def test_a_malformed_check_raises_before_any_fork(self, monkeypatch, bad):
        g, part = self.host()
        a, b = part.clusters_a[0], part.clusters_b[0]
        checks = [(a, b, self.params, Strategy.SAMPLED, 200, seed) for seed in (1, 2)]
        if bad == "no-budget":
            checks.append((a, b, self.params, Strategy.SAMPLED, 0, 3))
        else:
            checks.append((a, part.clusters_a[1], self.params, Strategy.SAMPLED, 200, 3))
        monkeypatch.setattr(regularity, "_cores", lambda: 3)
        monkeypatch.setattr(regularity, "_Helper", lambda *args: pytest.fail("forked"))
        with pytest.raises(ValueError):
            with regularity.sampled_across_cores(g, checks):
                pytest.fail("the block ran")

    def test_k1_batch_reuses_its_repeated_pair(self, monkeypatch):
        g = BipartiteGraph.build(24, 24, [(a, b) for a in range(24) for b in range(24)])
        part = contiguous_partition(g, 1, 24)

        def run():
            return _certify_cycle_pairs(g, part, self.params, 200, 4, {}, "the batch")

        inline = self.batch(monkeypatch, 1, run)
        # (0, 0) is the matching and the offset pair: one fresh check
        assert self.batch(monkeypatch, 2, run) == inline == (inline[0], 0, 1)
        matching, offsets = inline[0]
        assert matching[0].verdict is Verdict.SUPER_REGULAR
        assert offsets[0].note == f"{REUSED} the batch"

    def test_reduced_graph_equals_the_inline_one(self, monkeypatch):
        g, part = self.host()

        def run():
            r = maximal_reduced_graph(g, part, self.params, budget=200, seed=3)
            return r, r.certificates

        inline = self.batch(monkeypatch, 1, run)
        assert inline[1:] == (0, 16)
        assert self.batch(monkeypatch, 3, run) == (inline[0], 2, 6)

    def test_a_failed_fork_leaves_its_share_to_the_caller(self, monkeypatch):
        g, part = self.host()

        def run():
            return maximal_reduced_graph(g, part, self.params, budget=200, seed=3).certificates

        def no_fork():
            raise BlockingIOError("no process to spare")

        inline = self.batch(monkeypatch, 1, run)
        monkeypatch.setattr(os, "fork", no_fork)
        assert self.batch(monkeypatch, 2, run) == (inline[0], 1, 16)

    def test_an_error_in_a_helper_reaches_the_caller(self, monkeypatch):
        """The helper sends no certificate for a check that raised; the
        caller's own call of that check meets the same error."""
        g, part = self.host()
        pairs = [(i, (i + s) % 4, False) for i in range(4) for s in (0, 1)]
        failing = _mix_seed(7, *pairs[1][:2])  # the helper's first check
        real = regularity._check_pair

        class Refused(ArithmeticError):
            pass

        def check(G, U, W, params, strategy, budget, seed, *rest):
            if seed == failing:
                raise Refused(seed)
            return real(G, U, W, params, strategy, budget, seed, *rest)

        monkeypatch.setattr(regularity, "_check_pair", check)
        monkeypatch.setattr(regularity, "_cores", lambda: 2)
        with pytest.raises(Refused):
            partitioner._certify_pairs(g, part, pairs, self.params, 200, 7, {}, "the batch")

    def test_an_error_in_the_caller_leaves_no_helper(self, monkeypatch):
        g, part = self.host()
        pairs = [(i, (i + s) % 4, False) for i in range(4) for s in (0, 1)]
        real = partitioner.check_regular_pair
        calls = []

        def check(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise KeyError("mid-batch")
            return real(*args, **kwargs)

        monkeypatch.setattr(partitioner, "check_regular_pair", check)
        monkeypatch.setattr(regularity, "_cores", lambda: 3)
        with pytest.raises(KeyError, match="mid-batch"):
            partitioner._certify_pairs(g, part, pairs, self.params, 200, 7, {}, "the batch")
        assert regularity._prefetched == {}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_killed_helper_changes_no_certificate(self, monkeypatch):
        g, part = self.host()
        pairs = [(i, j, False) for i in range(4) for j in range(4)]
        parent = os.getpid()
        real_check = regularity._check_pair
        real = partitioner.check_regular_pair

        def slow_in_a_helper(*args):
            if os.getpid() != parent:
                time.sleep(5)
            return real_check(*args)

        def check(*args, **kwargs):
            # kill every helper before it sends a certificate
            for helper in {h for h, _ in regularity._prefetched.values()}:
                os.kill(helper.pid, signal.SIGKILL)
            return real(*args, **kwargs)

        def run():
            return partitioner._certify_pairs(g, part, pairs, self.params, 200, 7, {}, "the batch")

        inline = self.batch(monkeypatch, 1, run)
        monkeypatch.setattr(regularity, "_check_pair", slow_in_a_helper)
        monkeypatch.setattr(partitioner, "check_regular_pair", check)
        # this process samples every check itself
        assert self.batch(monkeypatch, 3, run) == (inline[0], 2, 16)
