import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bipembed import embedder, partitioner, regularity
from bipembed.embedder import (
    EmbedConfig,
    Embedding,
    EmbeddingError,
    EmbeddingPipelineError,
    compatibility_report,
    embed_bipartite,
    _max_matching,
    embed_compatible,
    verify_embedding,
)
from bipembed.generators import InstanceSpec, gen_host, gen_target
from bipembed.graphs import BipartiteGraph, GraphError, Side, VertexId, VertexSet
from bipembed.hamilton import HamiltonSearchError
from bipembed.partitioner import (
    PipelineStageError,
    derive_parameter_schedule,
    prepare_host_partition,
)
from bipembed.regularity import ClusterPartition, RegularityParams

from helpers import (
    cycle_graph,
    oracle_find_embedding,
    oracle_is_valid_embedding,
    planted_blocks,
    random_min_degree,
)
from test_homomorphism import zigzag_labelling


def matching_graph(n):
    return BipartiteGraph.build(n, n, [(i, i) for i in range(n)])


def planted_partition(g, k, m):
    ca = tuple(
        VertexSet.from_indices(Side.A, g.size_a, range(i * m, (i + 1) * m)) for i in range(k)
    )
    cb = tuple(
        VertexSet.from_indices(Side.B, g.size_b, range(i * m, (i + 1) * m)) for i in range(k)
    )
    return ClusterPartition(
        ca, cb, VertexSet(Side.A, g.size_a, 0), VertexSet(Side.B, g.size_b, 0)
    )


def classes_from_ranges(k, m):
    out = {}
    for i in range(k):
        out[("A", i)] = {VertexId(Side.A, v) for v in range(i * m, (i + 1) * m)}
        out[("B", i)] = {VertexId(Side.B, v) for v in range(i * m, (i + 1) * m)}
    return out


class TestCompatibilityReport:
    def test_all_edges_on_matching_pairs(self):
        h = matching_graph(8)
        classes = classes_from_ranges(2, 4)
        sizes = {c: 4 for c in classes}
        rep = compatibility_report(
            h, classes, sizes, [(0, 0), (1, 1)], [(0, 0), (1, 1)], Fraction(1, 4)
        )
        assert rep.ok
        assert not any(rep.boundary.values())
        assert not any(rep.fringe.values())

    def test_oversized_class_fails_clause_one(self):
        h = matching_graph(8)
        classes = classes_from_ranges(2, 4)
        sizes = {c: 4 for c in classes}
        sizes[("A", 0)] = 3
        rep = compatibility_report(
            h, classes, sizes, [(0, 0), (1, 1)], [(0, 0), (1, 1)], Fraction(1, 4)
        )
        assert not rep.size_clause.ok
        assert "(3" in rep.size_clause.detail or "budget 3" in rep.size_clause.detail

    def test_edge_over_missing_pair_fails_clause_two(self):
        h = BipartiteGraph.build(8, 8, [(0, 7)])  # class (A,0) to (B,1)
        classes = classes_from_ranges(2, 4)
        sizes = {c: 4 for c in classes}
        rep = compatibility_report(
            h, classes, sizes, [(0, 0), (1, 1)], [(0, 0), (1, 1)], Fraction(1, 4)
        )
        assert not rep.edge_clause.ok

    def test_boundary_sets_recomputable(self):
        # a cycle's linking vertices leave the matching; recompute S_i, T_i
        h = cycle_graph(8)
        classes = classes_from_ranges(2, 4)
        sizes = {c: 4 for c in classes}
        r = [(0, 0), (1, 1), (0, 1), (1, 0)]
        rep = compatibility_report(h, classes, sizes, r, [(0, 0), (1, 1)], Fraction(1))
        for c, members in classes.items():
            expect = set()
            for v in members:
                for w in h.neighbours(v):
                    cw = ("A" if w.side is Side.A else "B", w.index // 4)
                    if cw[1] != c[1]:
                        expect.add(v)
            assert rep.boundary[c] == expect


class TestVerifyEmbedding:
    def test_identity_embedding(self):
        g = cycle_graph(4)
        emb = Embedding({v: v for v in g.vertices()})
        assert verify_embedding(g, g, emb)

    def test_collapsed_vertices_rejected(self):
        g = cycle_graph(4)
        mapping = {v: v for v in g.vertices()}
        mapping[VertexId(Side.A, 1)] = VertexId(Side.A, 0)
        res = verify_embedding(g, g, Embedding(mapping))
        assert not res and "share" in res.detail

    def test_missing_vertex_rejected(self):
        g = cycle_graph(4)
        mapping = {v: v for v in g.vertices()}
        del mapping[VertexId(Side.B, 2)]
        assert not verify_embedding(g, g, Embedding(mapping))

    def test_edge_to_non_edge_rejected(self):
        g = cycle_graph(4)
        h = cycle_graph(4)
        mapping = {v: v for v in g.vertices()}
        a, b = VertexId(Side.A, 0), VertexId(Side.A, 2)
        mapping[a], mapping[b] = mapping[b], mapping[a]
        res = verify_embedding(g, h, Embedding(mapping))
        assert not res

    @pytest.mark.parametrize("side", [Side.A, Side.B])
    def test_negative_host_index_rejected(self, side):
        # a negative index would read the last bit row on side A and shift
        # by a negative count on side B
        g = BipartiteGraph.build(2, 2, [(a, b) for a in range(2) for b in range(2)])
        h = BipartiteGraph.build(2, 2, [(0, 0)])
        mapping = {v: v for v in h.vertices()}
        mapping[VertexId(side, 1)] = VertexId(side, -1)
        res = verify_embedding(g, h, Embedding(mapping))
        assert not res and "outside the host" in res.detail

    def test_extra_source_vertex_rejected(self):
        g = cycle_graph(4)
        mapping = {v: v for v in g.vertices()}
        mapping[VertexId(Side.A, -1)] = VertexId(Side.A, 3)
        res = verify_embedding(g, g, Embedding(mapping))
        assert not res and "not a target vertex" in res.detail


def embed_along(g, h, part, classes, r, rprime, params, **kwargs):
    """embed_compatible with the compatibility report at the partition's
    cluster sizes, as the pipeline hands it over."""
    sizes = {("A", i): c.size for i, c in enumerate(part.clusters_a)}
    sizes.update({("B", i): c.size for i, c in enumerate(part.clusters_b)})
    rep = compatibility_report(h, classes, sizes, r, rprime, params.epsilon)
    return embed_compatible(g, h, part, rep, params, **kwargs)


class TestEmbedCompatible:
    def test_perfect_matching_into_planted_blocks(self):
        k, m = 2, 8
        g = planted_blocks(k, m)
        h = matching_graph(k * m)
        emb = embed_along(
            g, h, planted_partition(g, k, m), classes_from_ranges(k, m),
            [(0, 0), (1, 1)], [(0, 0), (1, 1)],
            RegularityParams(Fraction(1, 4), Fraction(1, 2)), seed=0,
        )
        assert verify_embedding(g, h, emb)

    def test_size_mismatch_rejected(self):
        k, m = 2, 8
        g = planted_blocks(k, m)
        h = matching_graph(k * m)
        classes = classes_from_ranges(k, m)
        moved = classes[("A", 0)].pop()
        classes[("A", 1)].add(moved)
        with pytest.raises(EmbeddingError):
            embed_along(
                g, h, planted_partition(g, k, m), classes,
                [(0, 0), (1, 1)], [(0, 0), (1, 1)],
                RegularityParams(Fraction(1, 4), Fraction(1, 2)), seed=0,
            )

    def test_cycle_into_dense_random_pairs(self):
        rng = random.Random(4)
        k, m = 2, 16
        n = k * m
        g = random_min_degree(n, int(0.75 * n), 0.78, rng)
        h = cycle_graph(n)
        lab = zigzag_labelling(n)
        # distribute the cycle over two matched pairs by position blocks
        classes = {("A", 0): set(), ("A", 1): set(), ("B", 0): set(), ("B", 1): set()}
        for t, v in enumerate(lab.order):
            key = ("A" if v.side is Side.A else "B", 0 if t < n else 1)
            classes[key].add(v)
        sizes = {c: len(vs) for c, vs in classes.items()}
        ca = tuple(
            VertexSet.from_indices(Side.A, n, range(0, sizes[("A", 0)])) if i == 0
            else VertexSet.from_indices(Side.A, n, range(sizes[("A", 0)], n))
            for i in range(2)
        )
        cb = tuple(
            VertexSet.from_indices(Side.B, n, range(0, sizes[("B", 0)])) if i == 0
            else VertexSet.from_indices(Side.B, n, range(sizes[("B", 0)], n))
            for i in range(2)
        )
        part = ClusterPartition(ca, cb, VertexSet(Side.A, n, 0), VertexSet(Side.B, n, 0))
        r = [(0, 0), (1, 1), (0, 1), (1, 0)]
        emb = embed_along(
            g, h, part, classes, r, [(0, 0), (1, 1)],
            RegularityParams(Fraction(1, 2), Fraction(1, 4)), seed=1,
            order=lab.order, retries=20,
        )
        assert verify_embedding(g, h, emb)
        assert oracle_is_valid_embedding(g, h, emb.mapping)

    def test_matching_completion_used_for_dense_planted(self):
        # success over many seeds on exactly-filling super-regular pairs
        k, m = 2, 12
        g = planted_blocks(k, m)
        h = matching_graph(k * m)
        ok = 0
        for seed in range(30):
            emb = embed_along(
                g, h, planted_partition(g, k, m), classes_from_ranges(k, m),
                [(0, 0), (1, 1)], [(0, 0), (1, 1)],
                RegularityParams(Fraction(1, 4), Fraction(1, 2)), seed=seed,
            )
            if verify_embedding(g, h, emb):
                ok += 1
            assert any(p == "completion-matching" for p in emb.phases.values())
        assert ok == 30


    def test_deficient_matching_names_a_hall_violator(self):
        # every A vertex sees only B0 and B1, so the three B vertices of
        # the target matching share two candidates
        g = BipartiteGraph.build(3, 3, [(a, b) for a in range(3) for b in (0, 1)])
        h = matching_graph(3)
        part = ClusterPartition.from_masks(g, [0b111], [0b111])
        with pytest.raises(EmbeddingError) as exc:
            embed_along(
                g, h, part, classes_from_ranges(1, 3), [(0, 0)], [(0, 0)],
                RegularityParams(Fraction(1, 4), Fraction(1, 2)), seed=0,
            )
        e = exc.value
        assert "matching completion deficient in ('B', 0): 3 vertices share 2 candidates" in str(e)
        assert e.stuck == VertexId(Side.B, 2)
        assert e.hall_violator == [VertexId(Side.B, b) for b in range(3)]

    def test_non_matching_super_regular_pairs_rejected(self):
        h = matching_graph(8)
        classes = classes_from_ranges(2, 4)
        sizes = {c: 4 for c in classes}
        r = [(0, 0), (1, 1), (0, 1)]
        with pytest.raises(GraphError, match="not a matching"):
            compatibility_report(h, classes, sizes, r, [(0, 0), (0, 1)], Fraction(1, 4))


class TestMaxMatching:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matching_and_hall_witness(self, data):
        left = data.draw(st.integers(1, 7))
        right = data.draw(st.integers(1, 7))
        cands = [
            data.draw(st.lists(st.integers(0, right - 1), unique=True, max_size=right))
            for _ in range(left)
        ]
        match, witness = _max_matching(cands, right)
        matched = [r for r in match if r != -1]
        assert len(set(matched)) == len(matched)
        assert all(r == -1 or r in cands[u] for u, r in enumerate(match))
        if witness is None:
            assert -1 not in match
            return
        reached, saw = witness
        assert match.index(-1) in reached
        assert saw == {r for t in reached for r in cands[t]}
        assert len(saw) == len(reached) - 1
        # the reached vertices other than the unmatched one hold saw's members
        assert all(match[t] in saw for t in reached if match[t] != -1)


class TestEmbedBipartite:
    def test_cycle_into_dense_host_n128(self):
        rng = random.Random(21)
        n = 128
        g = random_min_degree(n, int(0.82 * n), 0.84, rng)
        h = cycle_graph(n)
        cfg = EmbedConfig(k0=2, ell=16, sample_budget=300, pipeline_retries=8)
        res = embed_bipartite(g, h, Fraction(3, 10), 2, cfg, seed=3,
                              labelling=zigzag_labelling(n))
        assert res.report.verdict == "verified-embedding"
        assert verify_embedding(g, h, res.embedding)
        assert oracle_is_valid_embedding(g, h, res.embedding.mapping)

    def test_four_cycles_union_target(self):
        rng = random.Random(22)
        n = 128
        g = random_min_degree(n, int(0.82 * n), 0.84, rng)
        # disjoint union of 4-cycles: quads on consecutive index pairs
        edges = []
        for t in range(n // 2):
            a0, a1 = 2 * t, 2 * t + 1
            b0, b1 = 2 * t, 2 * t + 1
            edges += [(a0, b0), (a0, b1), (a1, b0), (a1, b1)]
        h = BipartiteGraph.build(n, n, edges)
        order = []
        for t in range(n // 2):
            order += [
                VertexId(Side.A, 2 * t), VertexId(Side.A, 2 * t + 1),
                VertexId(Side.B, 2 * t), VertexId(Side.B, 2 * t + 1),
            ]
        from bipembed.homomorphism import bandwidth_labelling

        lab = bandwidth_labelling(h, "given", order)
        assert lab.bandwidth == 3
        cfg = EmbedConfig(k0=2, ell=16, sample_budget=300, pipeline_retries=8)
        res = embed_bipartite(g, h, Fraction(3, 10), 4, cfg, seed=5, labelling=lab)
        assert verify_embedding(g, h, res.embedding)

    def test_low_degree_host_rejected(self):
        g = planted_blocks(2, 16)
        h = cycle_graph(32)
        with pytest.raises(EmbeddingPipelineError):
            embed_bipartite(g, h, Fraction(1, 10), 2, EmbedConfig(k0=2), seed=0)

    def test_report_records_stages(self):
        rng = random.Random(23)
        n = 128
        g = random_min_degree(n, int(0.82 * n), 0.84, rng)
        h = cycle_graph(n)
        cfg = EmbedConfig(k0=2, ell=16, sample_budget=300)
        res = embed_bipartite(g, h, Fraction(3, 10), 2, cfg, seed=7,
                              labelling=zigzag_labelling(n))
        names = [s.stage for s in res.report.stages]
        assert names[0] == "hypotheses"
        assert "host-phase-1" in names
        assert "compatibility" in names
        assert "embedding" in names
        assert all(s.seconds >= 0 for s in res.report.stages)
        # spanning tightness: every host vertex is used exactly once
        used = set(res.embedding.mapping.values())
        assert len(used) == 2 * g.size_a


class TestScheduleEpsilonGate:
    """Criterion-1 instances (n=512, C_1024 zig-zag target, criterion-1
    configuration), two of which ended phase 2 uncertified under the
    random distribution, and a width-8 grid whose runs are not compatible."""

    @pytest.fixture(scope="class")
    def runs(self):
        n = 512
        h, lab = cycle_graph(n), zigzag_labelling(n)
        cfg = EmbedConfig(
            mode="practical", epsilon=Fraction(1, 4), d=Fraction(3, 10),
            k0=8, ell=64, sample_budget=800, pipeline_retries=8,
        )
        out = {}
        for seed in (0, 4, 11, 19):
            g = gen_host(InstanceSpec(
                "host-random-min-degree", n, 40_000 + seed,
                {"gamma": Fraction(3, 10), "slack": Fraction(1, 20)},
            ))
            res = embed_bipartite(g, h, Fraction(3, 10), 2, cfg, seed=seed, labelling=lab)
            out[seed] = (g, h, res)
        return out

    def test_every_distribution_passes_at_the_schedule_epsilon(self, runs):
        for seed, (g, h, res) in runs.items():
            assert verify_embedding(g, h, res.embedding), seed
            stages = res.report.stages
            assert all(
                "gate=schedule-epsilon" in s.detail
                for s in stages if s.stage == "distribution" and s.ok
            ), seed
            assert all(s.ok for s in stages if s.stage == "compatibility"), seed
        # seed 19's embedding under the run distribution
        pairs = sorted(
            [hv.side.value, hv.index, gv.side.value, gv.index]
            for hv, gv in runs[19][2].embedding.mapping.items()
        )
        assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == (
            "a97b0b5932ea39590aed99f9ab544351e98bab38aef283c5e7a2188bf89576fb"
        )

    def test_phase_2_only_touches_up(self, runs):
        for seed, (_, _, res) in runs.items():
            k, beta = res.state.k, res.labelling.bandwidth
            before, after = res.state.partition, res.partition
            moved = sum(
                (old.bits ^ new.bits).bit_count()
                for old, new in zip(before.clusters_a + before.clusters_b,
                                    after.clusters_a + after.clusters_b)
            ) // 2
            assert moved <= 2 * k * beta, seed
            phase2 = [s for s in res.report.stages if s.stage == "host-phase-2"]
            assert phase2 and all("certified=yes" in s.detail for s in phase2), seed

    def test_failed_distribution_names_its_clause(self):
        n = 512
        g = gen_host(InstanceSpec(
            "host-random-min-degree", n, 40_000,
            {"gamma": Fraction(3, 10), "slack": Fraction(1, 20)},
        ))
        h, lab = gen_target(InstanceSpec("target-grid", n, 0, {"width": 8}))
        cfg = EmbedConfig(
            mode="practical", epsilon=Fraction(1, 4), d=Fraction(3, 10),
            k0=8, ell=64, sample_budget=800, pipeline_retries=8,
        )
        with pytest.raises(EmbeddingPipelineError) as exc:
            embed_bipartite(g, h, Fraction(3, 10), 4, cfg, seed=0, labelling=lab)
        failed = [s for s in exc.value.report.stages if s.stage == "distribution"]
        assert len(failed) == cfg.pipeline_retries
        assert all(
            not s.ok and ": compatibility: boundary of " in s.detail for s in failed
        )
        assert failed[0].detail == (
            "ell=4, first cluster=0: compatibility: boundary of ('A', 1) has 8 > eps*8"
        )

    def test_each_cycle_pair_is_sampled_once(self, monkeypatch):
        """Criterion-1 seed 0: the cycle certification samples the Hamilton
        cycle's 16 pairs and no other, phase 1 takes their verdicts, and
        phase 2 samples only the 4 pairs of the two clusters its one-vertex
        route changed."""
        calls = []
        marks = {}
        real_check = regularity.check_regular_pair
        real_certify = partitioner._certify_cycle_pairs
        real_resize = embedder.resize_host_partition

        def check(*args, **kwargs):
            calls.append(args[1:3])
            return real_check(*args, **kwargs)

        def certify(*args, **kwargs):
            marks.setdefault("phase 1", len(calls))
            return real_certify(*args, **kwargs)

        def resize(*args, **kwargs):
            marks.setdefault("phase 2", len(calls))
            return real_resize(*args, **kwargs)

        monkeypatch.setattr(regularity, "check_regular_pair", check)
        monkeypatch.setattr(partitioner, "check_regular_pair", check)
        monkeypatch.setattr(partitioner, "_certify_cycle_pairs", certify)
        monkeypatch.setattr(embedder, "resize_host_partition", resize)
        n = 512
        g = gen_host(InstanceSpec(
            "host-random-min-degree", n, 40_000,
            {"gamma": Fraction(3, 10), "slack": Fraction(1, 20)},
        ))
        cfg = EmbedConfig(
            mode="practical", epsilon=Fraction(1, 4), d=Fraction(3, 10),
            k0=8, ell=64, sample_budget=800, pipeline_retries=8,
        )
        res = embed_bipartite(
            g, cycle_graph(n), Fraction(3, 10), 2, cfg, seed=0, labelling=zigzag_labelling(n)
        )
        assert res.report.verdict == "verified-embedding"
        assert (marks["phase 1"], marks["phase 2"] - marks["phase 1"],
                len(calls) - marks["phase 2"]) == (16, 0, 4)
        assert len(set(calls[:16])) == 16
        phase1 = [s.detail for s in res.report.stages if s.stage == "host-phase-1"]
        assert phase1[0].endswith(", certified=cycle 16/16, global regularity not checked")


class TestTinyOracleSoundness:
    def test_tiny_pipeline_never_fabricates(self):
        rng = random.Random(0)
        returned = 0
        for trial in range(30):
            n = rng.choice([4, 5, 6])
            delta = n // 2 + 1
            g = random_min_degree(n, delta, 0.6, rng)
            h = cycle_graph(n)
            cfg = EmbedConfig(
                mode="practical", epsilon=Fraction(1, 2), d=Fraction(1, 5),
                k0=2, ell=4, sample_budget=150, pipeline_retries=3,
                embed_retries=8, size_slack=Fraction(3, 4),
            )
            try:
                res = embed_bipartite(
                    g, h, Fraction(1, 100), 2, cfg, seed=trial,
                    labelling=zigzag_labelling(n),
                )
            except EmbeddingPipelineError:
                continue
            returned += 1
            assert oracle_is_valid_embedding(g, h, res.embedding.mapping)
            assert oracle_find_embedding(g, h) is not None
        # soundness is the assertion; the loose slacks let some tiny runs
        # finish so the check is not vacuous
        assert returned >= 1


class TestTypedFailures:
    """embed_bipartite returns a verified embedding or raises
    EmbeddingPipelineError whose last stage record failed; nothing else
    escapes, whatever the host, mode or constants."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 12),
        host=st.sampled_from(["near-threshold", "planted-blocks"]),
        mode=st.sampled_from(["practical", "faithful"]),
        epsilon=st.sampled_from(
            [Fraction(1, 4), Fraction(1, 2), Fraction(5, 4), Fraction(0), Fraction(1, 10**6)]
        ),
        d=st.sampled_from([Fraction(0), Fraction(1, 5), Fraction(3, 10)]),
        gamma=st.sampled_from([Fraction(1, 100), Fraction(1, 25), Fraction(1, 5)]),
        k0=st.integers(1, 4),
        seed=st.integers(0, 10**4),
    )
    def test_verified_or_typed_failure(self, n, host, mode, epsilon, d, gamma, k0, seed):
        rng = random.Random(seed)
        if host == "near-threshold":
            g = random_min_degree(n, n // 2 + 1, 0.6, rng)
        else:
            blocks = 2 if n % 2 == 0 else 1
            g = planted_blocks(blocks, n // blocks)
        h = cycle_graph(n)
        cfg = EmbedConfig(
            mode=mode, epsilon=epsilon, d=d, k0=k0, ell=4, sample_budget=100,
            pipeline_retries=2, embed_retries=4,
        )
        try:
            res = embed_bipartite(g, h, gamma, 2, cfg, seed=seed,
                                  labelling=zigzag_labelling(n))
        except EmbeddingPipelineError as e:
            assert e.report.stages and not e.report.stages[-1].ok
            return
        assert verify_embedding(g, h, res.embedding)

    def test_empty_sample_budget_fails_at_the_partition(self):
        n = 32
        g = BipartiteGraph.build(n, n, [(a, b) for a in range(n) for b in range(n)])
        cfg = EmbedConfig(k0=2, sample_budget=0)
        with pytest.raises(EmbeddingPipelineError) as exc:
            embed_bipartite(g, cycle_graph(n), Fraction(1, 5), 2, cfg,
                            labelling=zigzag_labelling(n))
        last = exc.value.report.stages[-1]
        assert (last.stage, last.ok) == ("regular-partition", False)
        assert "budget of at least 1" in last.detail

    @pytest.mark.parametrize("mode,message", [
        ("bogus", "unknown labelling mode 'bogus'"),
        ("exact-small", "exact-small limited to 16 vertices"),
    ])
    def test_labelling_failure_is_typed(self, mode, message):
        n = 12
        g = BipartiteGraph.build(n, n, [(a, b) for a in range(n) for b in range(n)])
        cfg = EmbedConfig(labelling_mode=mode, k0=2)
        with pytest.raises(EmbeddingPipelineError) as exc:
            embed_bipartite(g, cycle_graph(n), Fraction(1, 5), 2, cfg)
        last = exc.value.report.stages[-1]
        assert (last.stage, last.ok, last.detail) == ("labelling", False, message)

    def test_a_failed_embedding_moves_on_to_the_next_attempt(self, monkeypatch):
        real_embed = embedder.embed_compatible
        calls = []

        def fail_once(*args, **kwargs):
            calls.append(args[3])
            if len(calls) == 1:
                raise EmbeddingError("completion stuck on purpose")
            return real_embed(*args, **kwargs)

        monkeypatch.setattr(embedder, "embed_compatible", fail_once)
        n = 32
        g = BipartiteGraph.build(n, n, [(a, b) for a in range(n) for b in range(n)])
        res = embed_bipartite(g, cycle_graph(n), Fraction(1, 5), 2, EmbedConfig(k0=2),
                              labelling=zigzag_labelling(n))
        assert verify_embedding(g, cycle_graph(n), res.embedding)
        # each attempt hands over the report its compatibility gate passed
        assert len(calls) == 2 and all(rep.ok for rep in calls)
        embedding = [(s.ok, s.detail) for s in res.report.stages if s.stage == "embedding"]
        assert embedding == [
            (False, "completion stuck on purpose"), (True, "verified on attempt 2")
        ]

    def test_a_failed_cycle_search_names_its_stage(self, monkeypatch):
        def no_cycle(*args, **kwargs):
            raise HamiltonSearchError("no cycle found", hypothesis_held=True, definitive=False)

        monkeypatch.setattr(partitioner, "find_hamilton_cycle", no_cycle)
        n = 32
        g = BipartiteGraph.build(n, n, [(a, b) for a in range(n) for b in range(n)])
        sched = derive_parameter_schedule(Fraction(1, 5), 2, Fraction(1, 4), 2, "practical")
        with pytest.raises(PipelineStageError) as exc:
            prepare_host_partition(g, sched, budget=50)
        assert exc.value.stage == "reduced-hamilton-cycle"
        with pytest.raises(EmbeddingPipelineError) as exc:
            embed_bipartite(g, cycle_graph(n), Fraction(1, 5), 2, EmbedConfig(k0=2),
                            labelling=zigzag_labelling(n))
        last = exc.value.report.stages[-1]
        assert (last.stage, last.ok) == ("reduced-hamilton-cycle", False)
        assert "no cycle found" in last.detail
