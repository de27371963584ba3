import hashlib
import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from bipembed import embedder, fileio, partitioner, regularity
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
    reference_verify_embedding,
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


def maps_of(h, classes):
    """The two cluster maps of H's partition into the given class sets."""
    of = {Side.A: [None] * h.size_a, Side.B: [None] * h.size_b}
    for (_, i), members in classes.items():
        for v in members:
            of[v.side][v.index] = i
    return of[Side.A], of[Side.B]


def as_mask(vertices, side):
    return sum(1 << v.index for v in vertices if v.side is side)


class TestCompatibilityReport:
    def test_all_edges_on_matching_pairs(self):
        h = matching_graph(8)
        rep = compatibility_report(h, *maps_of(h, classes_from_ranges(2, 4)), 2, Fraction(1, 4))
        assert rep.ok
        assert rep.boundary == rep.fringe == {Side.A: 0, Side.B: 0}

    def test_edge_over_missing_pair_fails_clause_two(self):
        # at k = 3, (A_0, B_2) and (A_1, B_0) are not cycle pairs; (A_2, B_0)
        # closes the cycle.  The first such edge in edge order is named.
        h = BipartiteGraph.build(6, 6, [(5, 0), (0, 2), (0, 5), (2, 4), (3, 0)])
        of = [0, 0, 1, 1, 2, 2]
        rep = compatibility_report(h, of, of, 3, Fraction(1))
        assert rep.boundary_clause.ok and not rep.ok
        assert rep.detail == "edge (0,5) lies over uncertified pair (0, 2)"

    @pytest.mark.parametrize("edges, of_x, of_y, epsilon, detail", [
        # C_16 over two clusters: every class has one boundary vertex, and
        # A_0, the first class walked, is named
        (list(cycle_graph(8).edges()), [0] * 4 + [1] * 4, [0] * 4 + [1] * 4, Fraction(1, 5),
         "boundary of ('A', 0) has 1 > eps*4"),
        # x0 leaves its matching pair once but sees three B_0 vertices; the
        # fringe bound takes the smaller class of the pair (A_0, B_0)
        ([(0, 4), (0, 0), (0, 1), (0, 2)], [0] * 3 + [1] * 5, [0] * 4 + [1] * 4,
         Fraction(1, 2), "fringe of ('B', 0) has 3 > eps*min-component-size 3"),
    ])
    def test_the_boundary_clause_names_the_first_class_over_its_bound(
        self, edges, of_x, of_y, epsilon, detail
    ):
        rep = compatibility_report(BipartiteGraph.build(8, 8, edges), of_x, of_y, 2, epsilon)
        assert rep.edge_clause.ok and not rep.ok
        assert rep.detail == detail

    def test_boundary_sets_recomputable(self):
        # a cycle's linking vertices leave the matching; recompute S and T
        h = cycle_graph(8)
        classes = classes_from_ranges(2, 4)
        rep = compatibility_report(h, *maps_of(h, classes), 2, Fraction(1))
        index_of = {v: c[1] for c, members in classes.items() for v in members}
        boundary = {v for v in index_of
                    if any(index_of[w] != index_of[v] for w in h.neighbours(v))}
        fringe = {v for v in index_of if v not in boundary and boundary & set(h.neighbours(v))}
        for side in Side:
            assert rep.boundary[side] == as_mask(boundary, side)
            assert rep.fringe[side] == as_mask(fringe, side)
        assert all(members & boundary and members & fringe for members in classes.values())

    def test_a_map_of_the_wrong_length_is_rejected(self):
        h = matching_graph(8)
        of_x, of_y = maps_of(h, classes_from_ranges(2, 4))
        with pytest.raises(GraphError, match="the B-side map has 9 entries"):
            compatibility_report(h, of_x, of_y + [0], 2, Fraction(1))

    @pytest.mark.parametrize("cluster", [2, -1])
    def test_a_cluster_outside_the_cycle_is_rejected(self, cluster):
        h = matching_graph(8)
        of_x, of_y = maps_of(h, classes_from_ranges(2, 4))
        of_y[5] = cluster
        with pytest.raises(GraphError, match=rf"the B-side map sends vertices to cluster "
                                             rf"{cluster}, outside 0\.\.1"):
            compatibility_report(h, of_x, of_y, 2, Fraction(1))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_clauses_and_sets_follow_the_definition(self, data):
        """On random maps of a target of maximum degree 3 onto a cycle of at
        most four clusters, the boundary, the fringe and both clauses are
        those of the definition."""
        n = data.draw(st.integers(1, 8), "n")
        k = data.draw(st.integers(1, 4), "k")
        edges, deg_a, deg_b = [], [0] * n, [0] * n
        drawn = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
        for a, b in dict.fromkeys(data.draw(drawn, "edges")):
            if deg_a[a] < 3 and deg_b[b] < 3:
                edges.append((a, b))
                deg_a[a] += 1
                deg_b[b] += 1
        h = BipartiteGraph.build(n, n, edges)
        of_x, of_y = (data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n), side)
                      for side in "XY")
        eps = data.draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2)]), "eps")
        rep = compatibility_report(h, of_x, of_y, k, eps)

        class_of = {VertexId(Side.A, x): ("A", i) for x, i in enumerate(of_x)}
        class_of.update({VertexId(Side.B, y): ("B", j) for y, j in enumerate(of_y)})
        boundary = {v for v in class_of
                    if any(class_of[w][1] != class_of[v][1] for w in h.neighbours(v))}
        fringe = {v for v in class_of
                  if v not in boundary and boundary & set(h.neighbours(v))}
        for side in Side:
            assert rep.boundary[side] == as_mask(boundary, side)
            assert rep.fringe[side] == as_mask(fringe, side)
        assert rep.edge_clause.ok == all((of_y[y] - of_x[x]) % k in (0, 1) for x, y in edges)
        size = Counter(class_of.values())
        assert rep.boundary_clause.ok == all(
            sum(class_of[v] == c for v in boundary) <= eps * size[c]
            and sum(class_of[v] == c for v in fringe)
            <= eps * min(size[c], size[("B" if c[0] == "A" else "A", c[1])])
            for c in size
        )


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

    @staticmethod
    def mutate(rng, g, h, mapping):
        """One fault, applied in place: a dropped vertex, a source vertex
        outside H, an image across sides or outside G, a shared image, or
        two images swapped across an edge."""
        kind = rng.randrange(6)
        keys = list(mapping)
        v = rng.choice(keys) if keys else VertexId(Side.A, 0)
        if kind == 0 and keys:
            del mapping[v]
        elif kind == 1:
            side = rng.choice(list(Side))
            index = rng.choice([-1, -2, h.side_size(side), h.side_size(side) + 2])
            mapping[VertexId(side, index)] = VertexId(side, rng.randrange(g.side_size(side)))
        elif kind == 2:
            other = v.side.opposite()
            mapping[v] = VertexId(other, rng.randrange(g.side_size(other)))
        elif kind == 3:
            size = g.side_size(v.side)
            mapping[v] = VertexId(v.side, rng.choice([-1, size, size + 3]))
        else:
            same = [w for w in keys if w.side is v.side and w != v]
            if not same:
                return
            w = rng.choice(same)
            if kind == 4:
                mapping[v] = mapping[w]
            else:
                # w a neighbour's other neighbour when there is one, so
                # that the swap breaks an edge more often than not
                nbrs = h.neighbours(v) if 0 <= v.index < h.side_size(v.side) else []
                far = [u for n in nbrs for u in h.neighbours(n) if u != v and u in mapping]
                w = rng.choice(far) if far else w
                mapping[v], mapping[w] = mapping[w], mapping[v]

    def test_faults_are_named_as_by_the_reference(self):
        """One to three random faults in valid embeddings of random targets
        into larger hosts: the verdict and the named fault (the first in
        the check's order, when there are several) are the reference's."""
        faults = ("is not mapped", "is not a target vertex", "mapped across sides",
                  "mapped outside the host", "share the image", "maps to non-edge")
        rng = random.Random(29)
        named = Counter()
        for case in range(600):
            na, nb = rng.randint(1, 6), rng.randint(1, 6)
            h = BipartiteGraph.build(na, nb, [
                (x, y) for x in range(na) for y in range(nb) if rng.random() < 0.4
            ])
            ga, gb = na + rng.randint(0, 3), nb + rng.randint(0, 3)
            img_a, img_b = rng.sample(range(ga), na), rng.sample(range(gb), nb)
            g = BipartiteGraph.build(ga, gb, {(img_a[x], img_b[y]) for x, y in h.edges()} | {
                (a, b) for a in range(ga) for b in range(gb) if rng.random() < 0.3
            })
            pairs = [(VertexId(Side.A, x), VertexId(Side.A, img_a[x])) for x in range(na)]
            pairs += [(VertexId(Side.B, y), VertexId(Side.B, img_b[y])) for y in range(nb)]
            rng.shuffle(pairs)
            mapping = dict(pairs)
            assert verify_embedding(g, h, Embedding(mapping))
            for _ in range(rng.randint(1, 3)):
                self.mutate(rng, g, h, mapping)
            got = verify_embedding(g, h, Embedding(mapping))
            want = reference_verify_embedding(g, h, mapping)
            assert (got.ok, got.detail) == (want.ok, want.detail), (case, mapping)
            named[next((f for f in faults if f in want.detail), "ok")] += 1
        # every fault is named in some case, and some cases stay valid
        assert named.keys() == {*faults, "ok"}, named


def embed_along(g, h, part, classes, params, **kwargs):
    """embed_compatible with the compatibility report along the
    partition's cluster cycle, as the pipeline hands it over."""
    rep = compatibility_report(h, *maps_of(h, classes), part.k, params.epsilon)
    return embed_compatible(g, h, part, rep, params, **kwargs)


class TestEmbedCompatible:
    def test_perfect_matching_into_planted_blocks(self):
        k, m = 2, 8
        g = planted_blocks(k, m)
        h = matching_graph(k * m)
        emb = embed_along(
            g, h, planted_partition(g, k, m), classes_from_ranges(k, m),
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
        emb = embed_along(
            g, h, part, classes,
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
                g, h, part, classes_from_ranges(1, 3),
                RegularityParams(Fraction(1, 4), Fraction(1, 2)), seed=0,
            )
        e = exc.value
        assert "matching completion deficient in ('B', 0): 3 vertices share 2 candidates" in str(e)
        assert e.stuck == VertexId(Side.B, 2)
        assert e.hall_violator == [VertexId(Side.B, b) for b in range(3)]

    def test_the_kept_completion_error_holds_no_traceback(self):
        # the deficient instance above: every attempt of its one pair fails
        g = BipartiteGraph.build(3, 3, [(a, b) for a in range(3) for b in (0, 1)])
        with pytest.raises(EmbeddingError) as exc:
            embed_along(
                g, matching_graph(3), ClusterPartition.from_masks(g, [0b111], [0b111]),
                classes_from_ranges(1, 3),
                RegularityParams(Fraction(1, 4), Fraction(1, 2)), seed=0, retries=3,
            )
        kept = exc.value.__cause__
        assert isinstance(kept, EmbeddingError) and "deficient" in str(kept)
        assert kept.__traceback__ is None

    @staticmethod
    def three_planted_pairs(monkeypatch, fail):
        """Embed a matching into three planted K_{6,6} pairs at seed 5,
        with the matching of each completion for which ``fail(pair,
        attempt)`` holds reported deficient; returns the (pair, attempt)
        streams drawn."""
        k, m = 3, 6
        g = planted_blocks(k, m)
        streams, seeds = [], []

        class Recorded(random.Random):
            def __init__(self, x):
                seeds.append(x)
                super().__init__(x)

        def completion(seed, stage, pair, attempt):
            assert stage == "completion"
            streams.append((pair, attempt))
            return regularity.stream(seed, stage, pair, attempt)

        def matching(cands, right_size):
            match, witness = _max_matching(cands, right_size)
            if fail(*streams[-1]):
                return [-1] + match[1:], ({0}, set())
            return match, witness

        monkeypatch.setattr(embedder, "stream", completion)
        monkeypatch.setattr(embedder, "random", SimpleNamespace(Random=Recorded))
        monkeypatch.setattr(embedder, "_max_matching", matching)
        h = matching_graph(k * m)
        emb = embed_along(
            g, h, planted_partition(g, k, m), classes_from_ranges(k, m),
            RegularityParams(Fraction(1, 4), Fraction(1, 2)), seed=5, retries=4,
        )
        assert verify_embedding(g, h, emb)
        # phase 1 draws from the seed, each completion from its own stream
        assert seeds == [5] + [regularity.stream(5, "completion", *s) for s in streams]
        return streams

    def test_only_the_failed_pair_is_retried(self, monkeypatch):
        streams = self.three_planted_pairs(monkeypatch, lambda *stream: stream == (1, 0))
        # every other pair is completed once, on its first stream
        assert streams == [(0, 0), (1, 0), (1, 1), (2, 0)]

    def test_a_pair_failing_every_attempt_is_named(self, monkeypatch):
        with pytest.raises(EmbeddingError) as exc:
            self.three_planted_pairs(monkeypatch, lambda pair, _: pair == 1)
        assert "no completion of pair ('A', 1)-('B', 1) within 4 attempts" in str(exc.value)
        assert "matching completion deficient in ('B', 1)" in str(exc.value)
        assert exc.value.stuck == VertexId(Side.B, 6)

    @staticmethod
    def random_instance(trial):
        """k clusters of m host vertices a side (k in 1..3, m in 2..4), a
        random host on them and a random target of maximum degree 2, whose
        vertex i lies in cluster i // m on both sides."""
        rng = random.Random(trial)
        k = rng.choice([1, 2, 2, 3])
        m = rng.choice([2, 3, 4])
        n = k * m
        p = rng.choice([0.4, 0.55, 0.7])
        g = BipartiteGraph.build(n, n, [
            (a, b) for a in range(n) for b in range(n) if rng.random() < p
        ])
        edges, deg_a, deg_b = set(), [0] * n, [0] * n
        for _ in range(2 * n):
            a, b = rng.randrange(n), rng.randrange(n)
            if deg_a[a] < 2 and deg_b[b] < 2 and (a, b) not in edges:
                edges.add((a, b))
                deg_a[a] += 1
                deg_b[b] += 1
        h = BipartiteGraph.build(n, n, sorted(edges))
        of = [i // m for i in range(n)]
        masks = [((1 << m) - 1) << (i * m) for i in range(k)]
        return g, h, ClusterPartition.from_masks(g, masks, masks), compatibility_report(
            h, of, of, k, Fraction(1)
        )

    @pytest.mark.parametrize("trial, message, stuck, violator, cause", [
        (226, "phase 1 exhausted candidates for B0 in class ('B', 0)", "B0", None, None),
        (26, "no completion of pair ('A', 0)-('B', 0) within 2 attempts: matching "
             "completion deficient in ('B', 0): 1 vertices share 0 candidates",
         "B0", ["B0"], "matching completion deficient in ('B', 0): 1 vertices share "
                       "0 candidates"),
        (85, "no completion of pair ('A', 1)-('B', 1) within 2 attempts: completion stuck "
             "on A7 in ('A', 1)", "A7", None, "completion stuck on A7 in ('A', 1)"),
        (180, "no completion of pair ('A', 1)-('B', 1) within 2 attempts: matching "
              "completion deficient in ('B', 1): 2 vertices share 1 candidates",
         "B3", ["B2", "B3"], "matching completion deficient in ('B', 1): 2 vertices share "
                             "1 candidates"),
    ])
    def test_failures_name_their_vertices(self, trial, message, stuck, violator, cause):
        """Each failure path on a small random instance: the message, the
        stuck vertex and the Hall violator, and those of the attempt's error
        kept as the cause."""
        g, h, part, rep = self.random_instance(trial)
        assert rep.ok
        with pytest.raises(EmbeddingError) as exc:
            embed_compatible(g, h, part, rep, RegularityParams(Fraction(1), Fraction(1, 2)),
                             seed=trial, retries=2)
        errors = [exc.value] + ([exc.value.__cause__] if cause else [])
        assert [str(e) for e in errors] == [message] + ([cause] if cause else [])
        for e in errors:
            assert repr(e.stuck) == stuck
            assert e.hall_violator is None if violator is None else (
                list(map(repr, e.hall_violator)) == violator
            )

    def test_empty_clusters_embed(self):
        # a pair of empty clusters, as on the tiniest hosts
        g = planted_blocks(1, 4)
        h = matching_graph(4)
        classes = classes_from_ranges(1, 4)
        classes[("A", 1)], classes[("B", 1)] = set(), set()
        part = ClusterPartition.from_masks(g, [0b1111, 0], [0b1111, 0])
        emb = embed_along(
            g, h, part, classes,
            RegularityParams(Fraction(1, 4), Fraction(1, 2)), seed=0,
        )
        assert verify_embedding(g, h, emb)


def test_criterion_1_phases_in_placement_order():
    """The phase of each vertex of a criterion-1 embedding (n = 512, seed
    1), in placement order: phase 1's vertices in labelling order, then
    pair by pair the X side and the Y side; the mapping has the same order."""
    g = gen_host(InstanceSpec("host-random-min-degree", 512, 40_001,
                              {"gamma": Fraction(3, 10), "slack": Fraction(1, 20)}))
    h, lab = gen_target(InstanceSpec("target-hamilton-cycle", 512))
    emb = embed_bipartite(g, h, Fraction(3, 10), 2, EmbedConfig(k0=8, ell=64),
                          seed=1, labelling=lab).embedding
    assert list(emb.phases) == list(emb.mapping)
    assert Counter(emb.phases.values()) == {
        "boundary-greedy": 56, "completion-greedy": 484, "completion-matching": 484,
    }
    data = json.dumps([[repr(v), phase] for v, phase in emb.phases.items()])
    assert hashlib.sha256(data.encode()).hexdigest() == (
        "fb0e0f02b91062ee089585dc167743738df4b7e2c90d4fb6a0a8fc88a0b59611"
    )


def test_neighbouring_seeds_share_no_completion_stream():
    """Phase 1 draws from the embed seed and attempt t of pair i from
    ``stream(seed, "completion", i, t)`` (pinned by
    ``test_only_the_failed_pair_is_retried``).  No completion stream of one
    seed is a stream of the next, for embed seeds s and s+1 and for the
    embed seeds ``stream(s, "attempt", a)`` that pipeline seeds s and s+1
    hand over at attempts a < 8; k = 8 pairs, 20 attempts each."""

    def streams(seeds):
        completion = {
            regularity.stream(e, "completion", i, t)
            for e in seeds for i in range(8) for t in range(20)
        }
        return set(seeds) | completion, completion

    for s in range(0, 4000, 97):
        for one, other in (
            ([s], [s + 1]),
            ([regularity.stream(s, "attempt", a) for a in range(8)],
             [regularity.stream(s + 1, "attempt", a) for a in range(8)]),
        ):
            (every, completion), (their_every, their_completion) = streams(one), streams(other)
            assert not completion & their_every and not every & their_completion, s


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

        lab = bandwidth_labelling(h, order)
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
            "9a601188031e35d6b7c69498f98d0f4fc93435875005f33b5df7489add06ffe2"
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

    def test_an_edge_off_the_cycle_stops_every_attempt(self, monkeypatch):
        """The homomorphism's build does not walk H's edges, so the
        compatibility gate's edge clause is what refuses an H-edge off the
        cluster cycle: here one Y vertex is moved two clusters along."""
        real_build = embedder.build_cycle_homomorphism
        embedded = []

        def off_cycle(H, labelling, pieces, phi, beta_n, k):
            hom = real_build(H, labelling, pieces, phi, beta_n, k)
            moved = list(hom.cluster_of_y)
            moved[0] = (moved[0] + 2) % k
            return replace(hom, cluster_of_y=tuple(moved))

        monkeypatch.setattr(embedder, "build_cycle_homomorphism", off_cycle)
        monkeypatch.setattr(embedder, "embed_compatible", lambda *a, **kw: embedded.append(a))
        n = 512
        g = gen_host(InstanceSpec(
            "host-random-min-degree", n, 40_000,
            {"gamma": Fraction(3, 10), "slack": Fraction(1, 20)},
        ))
        cfg = EmbedConfig(
            mode="practical", epsilon=Fraction(1, 4), d=Fraction(3, 10),
            k0=8, ell=64, sample_budget=800, pipeline_retries=8,
        )
        with pytest.raises(EmbeddingPipelineError) as exc:
            embed_bipartite(g, cycle_graph(n), Fraction(3, 10), 2, cfg, seed=0,
                            labelling=zigzag_labelling(n))
        stages = exc.value.report.stages
        assert [s.detail[:4] for s in stages if s.stage == "host-phase-1"] == ["k=8,"]
        distribution = [s for s in stages if s.stage == "distribution"]
        assert len(distribution) == cfg.pipeline_retries
        assert all(
            not s.ok and "lies over uncertified pair" in s.detail for s in distribution
        )
        assert embedded == []

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


class TestPlacementBesidePhase2:
    """Placement runs while phase 2's certification batch samples, and the
    run reads as it does when one core samples every pair: phase 2's
    verdicts only fill its report line, recorded after placement."""

    cfg = EmbedConfig(
        mode="practical", epsilon=Fraction(1, 4), d=Fraction(3, 10),
        k0=8, ell=64, sample_budget=800, pipeline_retries=8,
    )

    @staticmethod
    def criterion_1(seed):
        n = 512
        g = gen_host(InstanceSpec(
            "host-random-min-degree", n, 40_000 + seed,
            {"gamma": Fraction(3, 10), "slack": Fraction(1, 20)},
        ))
        return g, cycle_graph(n), zigzag_labelling(n)

    def run(self, monkeypatch, cores, instance, seed, place=None):
        """``embed_bipartite`` on ``instance`` with ``cores`` cores: its
        result, every phase-2 result, and for each placement whether it
        ran inside an open batch.  ``place(call)`` runs before each
        placement, numbered from 0."""
        resized, beside = [], []
        real_resize, real_embed = partitioner.resize_host_partition, embedder.embed_compatible

        def resize(*args, **kwargs):
            resized.append(real_resize(*args, **kwargs))
            return resized[-1]

        def embed(*args, **kwargs):
            beside.append(bool(regularity._prefetched))
            if place is not None:
                place(len(beside) - 1)
            return real_embed(*args, **kwargs)

        monkeypatch.setattr(regularity, "_cores", lambda: cores)
        monkeypatch.setattr(embedder, "resize_host_partition", resize)
        monkeypatch.setattr(embedder, "embed_compatible", embed)
        g, h, lab = instance
        res = embed_bipartite(g, h, Fraction(3, 10), 2, self.cfg, seed=seed, labelling=lab)
        certs = [(r.matching_certificates, r.offset_certificates) for r in resized]
        return res, certs, beside

    @staticmethod
    def report_bytes(report) -> str:
        return json.dumps(fileio.run_report_to_json(report), indent=2)

    def test_criterion_1_reads_as_on_one_core(self, monkeypatch):
        placed_beside = []
        for seed in range(5):
            instance = self.criterion_1(seed)
            one, certs_one, _ = self.run(monkeypatch, 1, instance, seed)
            two, certs_two, beside = self.run(monkeypatch, 2, instance, seed)
            assert self.report_bytes(two.report) == self.report_bytes(one.report), seed
            assert two.embedding.mapping == one.embedding.mapping, seed
            assert certs_two == certs_one, seed
            placed_beside += beside
        # phase 2 samples at least two fresh pairs at some seeds: there
        # placement runs while a helper samples
        assert any(placed_beside)

    def test_a_failed_placement_is_recorded_after_phase_2(self, monkeypatch):
        def fail_first(call):
            if call == 0:
                raise EmbeddingError("completion stuck on purpose")

        instance = self.criterion_1(0)
        runs = [self.run(monkeypatch, cores, instance, 0, fail_first) for cores in (1, 2)]
        (one, _, _), (two, _, beside) = runs
        assert beside[0]
        assert self.report_bytes(two.report) == self.report_bytes(one.report)
        stages = [(s.stage, s.ok) for s in two.report.stages]
        first = stages.index(("embedding", False))
        assert stages[first - 1] == ("host-phase-2", True)
        assert two.report.stages[first].detail == "completion stuck on purpose"
        assert two.report.verdict == "verified-embedding"

    def test_another_error_in_placement_propagates(self, monkeypatch):
        beside = []

        def fail(call):
            beside.append(bool(regularity._prefetched))
            raise KeyError("placement broke")

        with pytest.raises(KeyError, match="placement broke"):
            self.run(monkeypatch, 2, self.criterion_1(0), 0, fail)
        # placement raised while a helper sampled; the conftest fixture
        # checks that the helper was reaped
        assert beside == [True]
        assert regularity._prefetched == {}


def test_few_samples_read_their_lanes(monkeypatch):
    """Over the pair checks of the criterion-1 instance at seed 1, on one
    core, only two samples read their degrees out of the lane integer: the
    floors below ceil(lo/s) keep every other seeded sample in the band
    without a sort.  Sorting every seeded sample with a degree below
    ceil(lo/s) would read 2,230."""
    reads = []
    real_lanes = regularity._lanes

    def lanes(*args):
        reads.append(args)
        return real_lanes(*args)

    monkeypatch.setattr(regularity, "_lanes", lanes)
    runs = TestPlacementBesidePhase2()
    res, _, _ = runs.run(monkeypatch, 1, runs.criterion_1(1), 1)
    assert res.report.verdict == "verified-embedding"
    assert len(reads) == 2


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
