import hashlib
import math
import pickle
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bipembed import regularity
from bipembed.graphs import (
    BipartiteGraph, Side, SideMismatchError, VertexId, VertexSet, density, iter_bits,
)
from bipembed.partitioner import (
    RedistributionError,
    candidate_index_set,
    redistribute_cluster_sizes,
)
from bipembed.regularity import (
    ClusterPartition,
    EnumerationCapExceeded,
    PairCertificate,
    PartitionBuildError,
    RegularityParams,
    Strategy,
    Verdict,
    _clears_floors,
    _degree_lanes,
    _draw,
    _drawn_sum,
    _even_lanes,
    _lane_keys,
    _lanes,
    _local_row,
    _mix_seed,
    _pair_rows,
    _pool_steps,
    _shuffle,
    build_regular_partition,
    check_regular_pair,
    check_super_regular_pair,
    degree_at_least,
    maximal_reduced_graph,
    min_subset_size,
    rebound_after_perturbation,
    super_regularize,
)

from helpers import (
    brute_force_regular, planted_blocks, random_bipartite, reference_equalise,
    reference_sampled_check,
)

C6_EDGES = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]


def full_sides(g):
    return VertexSet.full(Side.A, g.size_a), VertexSet.full(Side.B, g.size_b)


def complete(n):
    return BipartiteGraph.build(n, n, [(a, b) for a in range(n) for b in range(n)])


class TestCheckRegularPair:
    def test_complete_pair_regular(self):
        g = complete(4)
        U, W = full_sides(g)
        cert = check_regular_pair(
            g, U, W, RegularityParams(Fraction(1, 4), Fraction(1, 2)),
            Strategy.EXHAUSTIVE,
        )
        assert cert.verdict is Verdict.REGULAR
        assert cert.base_density == 1

    def test_empty_pair_density_below(self):
        g = BipartiteGraph.build(4, 4, [])
        U, W = full_sides(g)
        cert = check_regular_pair(
            g, U, W, RegularityParams(Fraction(1, 4), Fraction(1, 4)),
            Strategy.EXHAUSTIVE,
        )
        assert cert.verdict is Verdict.DENSITY_BELOW
        assert cert.base_density == 0
        assert cert.witness is None

    @pytest.mark.parametrize("strategy", ["sampled", "exhaustive"])
    def test_a_one_side_pair_is_refused(self, strategy):
        g = BipartiteGraph.build(4, 4, [(a, b) for a in range(4) for b in range(4)])
        U, _ = full_sides(g)
        with pytest.raises(SideMismatchError, match="pair must span both sides"):
            check_regular_pair(g, U, U, RegularityParams(Fraction(1, 4), Fraction(1, 4)),
                               strategy)

    def test_two_blocks_irregular(self):
        g = planted_blocks(2, 2)  # K_{2,2} + K_{2,2} on 4+4
        U, W = full_sides(g)
        cert = check_regular_pair(
            g, U, W, RegularityParams(Fraction(1, 4), Fraction(0)),
            Strategy.EXHAUSTIVE,
        )
        assert cert.verdict is Verdict.IRREGULAR
        wit = cert.witness
        assert wit is not None
        # witness soundness: recomputing the witness density reproduces the deviation
        assert abs(density(g, wit.subset_u, wit.subset_w) - cert.base_density) == wit.deviation
        assert wit.deviation > Fraction(1, 4)

    def test_cap_refusal(self):
        # C(40, 10) = 847,660,528 minimal-size subsets per side exceed the cap
        g = random_bipartite(40, 0.5, random.Random(0))
        U, W = full_sides(g)
        with pytest.raises(EnumerationCapExceeded, match="847660528 minimal-size subsets"):
            check_regular_pair(
                g, U, W, RegularityParams(Fraction(1, 4), Fraction(0)), Strategy.EXHAUSTIVE
            )

    def test_exhaustive_decides_12x12_under_default_cap(self):
        # the cap counts the minimal-size subsets of one side (C(12, 3) = 220),
        # not every qualifying subset pair
        g = random_bipartite(12, 0.5, random.Random(12))
        U, W = full_sides(g)
        eps = Fraction(1, 4)
        cert = check_regular_pair(g, U, W, RegularityParams(eps, Fraction(0)), Strategy.EXHAUSTIVE)
        assert cert.strategy is Strategy.EXHAUSTIVE
        assert cert.verdict in (Verdict.REGULAR, Verdict.IRREGULAR)
        if cert.witness is not None:
            wit = cert.witness
            assert abs(density(g, wit.subset_u, wit.subset_w) - cert.base_density) == wit.deviation
            assert wit.deviation > eps

    @pytest.mark.parametrize("strategy", [Strategy.EXHAUSTIVE, Strategy.SAMPLED])
    def test_deviation_exactly_epsilon_is_regular(self, strategy):
        # K_{2,2} + K_{2,2}: base density 1/2, and a 2x2 block has density 1,
        # so the largest deviation over 2x2 subset pairs is exactly 1/2
        g = planted_blocks(2, 2)
        U, W = full_sides(g)
        at = check_regular_pair(
            g, U, W, RegularityParams(Fraction(1, 2), Fraction(0)), strategy, budget=40,
        )
        assert at.verdict is Verdict.REGULAR
        # the same 2x2 subset size at a smaller epsilon refutes with that pair
        below = check_regular_pair(
            g, U, W, RegularityParams(Fraction(2, 5), Fraction(0)), strategy, budget=40,
        )
        assert below.verdict is Verdict.IRREGULAR
        assert below.witness.deviation == Fraction(1, 2)
        assert below.witness.subset_u.size == below.witness.subset_w.size == 2

    def test_witness_soundness_over_random_instances(self):
        rng = random.Random(31)
        found = 0
        for trial in range(40):
            g = random_bipartite(10, rng.choice([0.25, 0.5]), rng)
            if g.edge_count == 0:
                continue
            U, W = full_sides(g)
            cert = check_regular_pair(
                g, U, W, RegularityParams(Fraction(1, 3), Fraction(0)),
                Strategy.SAMPLED, budget=600, seed=trial,
            )
            if cert.verdict is Verdict.IRREGULAR:
                found += 1
                wit = cert.witness
                dev = abs(density(g, wit.subset_u, wit.subset_w) - cert.base_density)
                assert dev == wit.deviation
                assert dev > Fraction(1, 3)
                assert wit.subset_u.size >= Fraction(1, 3) * U.size
                assert wit.subset_w.size >= Fraction(1, 3) * W.size
        assert found > 0

    def test_sampled_finds_block_witness(self):
        g = planted_blocks(2, 8)
        U, W = full_sides(g)
        cert = check_regular_pair(
            g, U, W, RegularityParams(Fraction(1, 4), Fraction(0)),
            Strategy.SAMPLED, budget=2000, seed=1,
        )
        assert cert.verdict is Verdict.IRREGULAR
        assert cert.samples_used >= 1

    def test_exhaustive_matches_bruteforce_on_random_pairs(self):
        rng = random.Random(7)
        eps = Fraction(1, 3)
        for trial in range(12):
            g = random_bipartite(5, rng.choice([0.2, 0.5, 0.8]), rng)
            U, W = full_sides(g)
            if g.edge_count == 0:
                continue
            cert = check_regular_pair(
                g, U, W, RegularityParams(eps, Fraction(0)), Strategy.EXHAUSTIVE
            )
            ok, worst = brute_force_regular(g, U, W, eps)
            assert (cert.verdict is Verdict.REGULAR) == ok, f"trial {trial}"
            if cert.verdict is Verdict.IRREGULAR:
                assert cert.witness.deviation <= worst

    def test_exhaustive_matches_bruteforce_on_unbalanced_pairs(self):
        # |U| < |W| makes the exhaustive check enumerate U's subsets
        rng = random.Random(17)
        cases = refuted = 0
        for trial in range(4):
            g = random_bipartite(10, rng.choice([0.3, 0.5, 0.7]), rng)
            for u_size in range(2, 5):
                for w_size in range(6, 11):
                    U = VertexSet.from_indices(Side.A, 10, rng.sample(range(10), u_size))
                    W = VertexSet.from_indices(Side.B, 10, rng.sample(range(10), w_size))
                    for eps in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
                        s_u, s_w = min_subset_size(eps, u_size), min_subset_size(eps, w_size)
                        assert math.comb(u_size, s_u) < math.comb(w_size, s_w)
                        cert = check_regular_pair(
                            g, U, W, RegularityParams(eps, Fraction(0)), Strategy.EXHAUSTIVE
                        )
                        ok, worst = brute_force_regular(g, U, W, eps)
                        where = f"trial {trial}, |U|={u_size}, |W|={w_size}, eps={eps}"
                        assert (cert.verdict is Verdict.REGULAR) == ok, where
                        cases += 1
                        if cert.verdict is not Verdict.IRREGULAR:
                            continue
                        refuted += 1
                        wit = cert.witness
                        assert wit.subset_u.bits & ~U.bits == 0, where
                        assert wit.subset_w.bits & ~W.bits == 0, where
                        assert wit.subset_u.size >= eps * u_size, where
                        assert wit.subset_w.size >= eps * w_size, where
                        recomputed = density(g, wit.subset_u, wit.subset_w)
                        assert recomputed == wit.witness_density, where
                        assert wit.deviation == abs(recomputed - cert.base_density) > eps
                        assert wit.deviation <= worst, where
        assert cases == 180 and 0 < refuted < cases

    def test_monotone_in_epsilon(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_bipartite(6, 0.5, rng)
            if g.edge_count == 0:
                continue
            U, W = full_sides(g)
            small = check_regular_pair(
                g, U, W, RegularityParams(Fraction(1, 3), Fraction(0)),
                Strategy.EXHAUSTIVE,
            )
            if small.verdict is Verdict.REGULAR:
                for eps in (Fraction(1, 2), Fraction(2, 3), Fraction(1)):
                    big = check_regular_pair(
                        g, U, W, RegularityParams(eps, Fraction(0)),
                        Strategy.EXHAUSTIVE,
                    )
                    assert big.verdict is Verdict.REGULAR


# (graph, epsilon, seed) -> (verdict, samples used, and for a refutation
# the witness bits on each side and the witness density), all at budget 800
# on 64x64 pairs
PINNED_CERTIFICATES = [
    ("dense", "1/4", 0, ("REGULAR", 800)),
    ("dense", "5/24", 0, ("IRREGULAR", 164, 0xc83a100051000206, 0x15804202200f0090, "115/196")),
    ("dense", "5/24", 1, ("IRREGULAR", 26, 0x60509291002205, 0x8460860202096010, "115/196")),
    ("dense", "3/16", 2, ("IRREGULAR", 18, 0x8004012820c300c0, 0x64052108080013, "1")),
    ("dense", "1/16", 0, ("IRREGULAR", 1, 0x22000200000020, 0x6008004000000000, "15/16")),
    ("blocks", "1/4", 0, ("IRREGULAR", 2, 0xffff, 0xffff, "1")),
]


@pytest.mark.parametrize("graph, eps, seed, expected", PINNED_CERTIFICATES)
def test_sampled_certificates_are_pinned(graph, eps, seed, expected):
    # uniform draws (1 sample), both seeded draw kinds, low and high
    # responses; any change to the sampler's random stream or to its
    # deviation test moves one of these
    g = random_bipartite(64, 0.8, random.Random(64)) if graph == "dense" else planted_blocks(4, 16)
    U, W = full_sides(g)
    cert = check_regular_pair(
        g, U, W, RegularityParams(Fraction(eps), Fraction(0)), Strategy.SAMPLED,
        budget=800, seed=seed,
    )
    got = (cert.verdict.name, cert.samples_used)
    if cert.witness is not None:
        wit = cert.witness
        got += (wit.subset_u.bits, wit.subset_w.bits, str(wit.witness_density))
        assert wit.deviation == abs(wit.witness_density - cert.base_density)
    assert got == expected


def _scattered_pair():
    """U = every third A vertex of a 192+192 graph, W = a seeded 64-subset of B."""
    U = VertexSet.from_indices(Side.A, 192, range(0, 192, 3))
    W = VertexSet.from_indices(Side.B, 192, random.Random(7).sample(range(192), 64))
    return U, W


@pytest.fixture(scope="module")
def scattered_graphs():
    U, W = _scattered_pair()
    u_pos = {a: i for i, a in enumerate(U.indices())}
    w_pos = {b: j for j, b in enumerate(W.indices())}
    rng = random.Random(5)
    # 8 disjoint K_{8,8} on U x W (blocks by position within U and W), random
    # edges everywhere else; every neighbourhood in the pair holds 8 < 16
    edges = [
        (a, b) for a in range(192) for b in range(192)
        if (u_pos[a] // 8 == w_pos[b] // 8 if a in u_pos and b in w_pos
            else rng.random() < 0.5)
    ]
    return {
        "random": random_bipartite(192, 0.8, random.Random(192)),
        "blocks": BipartiteGraph.build(192, 192, edges),
    }


# (graph, epsilon, seed, strategy, small pair) -> as in PINNED_CERTIFICATES,
# at budget 800 on the scattered pair (or, for "small", on its 12x12
# counterpart); witness bits are global, so a slip in mapping the checker's
# pair-local indices back to vertices moves them
SCATTERED_CERTIFICATES = [
    ("random", "1/4", 0, "sampled", False, ("REGULAR", 800)),
    # uniform draw, high response
    ("random", "1/16", 0, "sampled", False, (
        "IRREGULAR", 1, 0x8008000000000008000000000000000000008000,
        0x90000000008000000100000000000000000000000000000, "7/8")),
    # seeded from U (kind 1), low and high response
    ("random", "1/5", 10, "sampled", False, (
        "IRREGULAR", 2, 0x8200000048001000200008000000208208240,
        0x240000000008010100010040000a050000400800000, "99/169")),
    ("random", "3/16", 11, "sampled", False, (
        "IRREGULAR", 2, 0x200001008200000000040008008000008008200009000,
        0xb0009800200000800200000000000000004001200, "47/48")),
    # seeded from W (kind 3), low and high response
    ("random", "1/5", 0, "sampled", False, (
        "IRREGULAR", 4, 0x200040041040000200000001000048200040040200000,
        0x2000001060000008020100000000100005004020200, "98/169")),
    ("random", "1/6", 11, "sampled", False, (
        "IRREGULAR", 4, 0x8000001001008040000008248200000001000000,
        0x284000420020000000000800000000000000400041040000, "116/121")),
    # a late witness, after many draws from the same neighbourhoods
    ("random", "5/24", 2, "sampled", False, (
        "IRREGULAR", 312, 0x40000200000009008208200000240200000008000000208,
        0x80000020000020080008820000004002041004080000200, "111/196")),
    # widened draws: every neighbourhood is shorter than the subset size
    ("blocks", "1/4", 2, "sampled", False, (
        "IRREGULAR", 2, 0x249249000000249249000000000000000000000000000000,
        0x294082480000f60280000000000000000000000000000000, "1/2")),
    ("random", "1/4", 0, "exhaustive", True, (
        "IRREGULAR", 0, 0x8200200, 0x402000000000000000000800000000000, "2/9")),
    ("random", "1/2", 0, "exhaustive", True, ("REGULAR", 0)),
]


@pytest.mark.parametrize("graph, eps, seed, strategy, small, expected", SCATTERED_CERTIFICATES)
def test_scattered_certificates_are_pinned(scattered_graphs, graph, eps, seed, strategy,
                                           small, expected):
    g = scattered_graphs[graph]
    if small:
        U = VertexSet.from_indices(Side.A, 192, range(0, 36, 3))
        W = VertexSet.from_indices(Side.B, 192, random.Random(11).sample(range(192), 12))
    else:
        U, W = _scattered_pair()
    cert = check_regular_pair(
        g, U, W, RegularityParams(Fraction(eps), Fraction(0)), Strategy(strategy),
        budget=800, seed=seed,
    )
    got = (cert.verdict.name, cert.samples_used)
    if cert.witness is not None:
        wit = cert.witness
        got += (wit.subset_u.bits, wit.subset_w.bits, str(wit.witness_density))
        assert wit.subset_u.bits & ~U.bits == 0 and wit.subset_w.bits & ~W.bits == 0
        assert density(g, wit.subset_u, wit.subset_w) == wit.witness_density
    assert got == expected


# (graph, seed) -> as in PINNED_CERTIFICATES, at budget 40 and eps = 1/4 on
# 1200x1200 pairs, with the witness bits as a digest: subsets have 300
# members, so a member's degree into the drawn partners can exceed 255 and
# the checker's degree lanes must be wider than a byte ("dense" and the two
# K_{600,600} reach such degrees; every neighbourhood of the 150- and
# 75-vertex blocks is widened before drawing)
WIDE_CERTIFICATES = [
    ("dense", 0, ("REGULAR", 40)),
    ("blocks-600", 0, ("IRREGULAR", 2, "1e6986d380da261e", "0")),
    ("blocks-150", 0, ("IRREGULAR", 2, "089eec4ac8918719", "1/2")),
    ("blocks-150", 1, ("IRREGULAR", 2, "e58c5c80b17ba3dd", "1/2")),
    ("blocks-75", 0, ("REGULAR", 40)),
]


@pytest.fixture(scope="module")
def wide_graphs():
    return {
        "dense": random_bipartite(1200, 0.95, random.Random(1200)),
        "blocks-600": planted_blocks(2, 600),
        "blocks-150": planted_blocks(8, 150),
        "blocks-75": planted_blocks(16, 75),
    }


@pytest.mark.parametrize("graph, seed, expected", WIDE_CERTIFICATES)
def test_wide_subset_certificates_are_pinned(wide_graphs, graph, seed, expected):
    g = wide_graphs[graph]
    U, W = full_sides(g)
    cert = check_regular_pair(
        g, U, W, RegularityParams(Fraction(1, 4), Fraction(0)), Strategy.SAMPLED,
        budget=40, seed=seed,
    )
    got = (cert.verdict.name, cert.samples_used)
    if cert.witness is not None:
        wit = cert.witness
        bits = b"%x %x" % (wit.subset_u.bits, wit.subset_w.bits)
        got += (hashlib.sha256(bits).hexdigest()[:16], str(wit.witness_density))
        assert wit.subset_u.size == wit.subset_w.size == 300
        assert density(g, wit.subset_u, wit.subset_w) == wit.witness_density
    assert got == expected


def _oracle_cases():
    """(name, graph, U, W, epsilon, budget, seed): sampled checks that reach
    every branch of the sampler's loop."""
    dense = random_bipartite(64, 0.8, random.Random(64))
    sparse = random_bipartite(64, 0.15, random.Random(65))
    # B-vertices 0..15 adjacent to every A-vertex, the rest to none: a
    # seeded draw inside N(a) gives every A-vertex full degree, so even the
    # low response lies above the band
    columns = BipartiteGraph.build(32, 32, [(a, b) for a in range(32) for b in range(16)])
    # 40 + 600 vertices, A-vertices 0..19 complete to B-vertices 0..299: at
    # eps = 1/2, W' has 300 members, so degrees into it need two-byte lanes
    star = BipartiteGraph.build(40, 600, [(a, b) for a in range(20) for b in range(300)])
    banded = BipartiteGraph.build(40, 600, [
        (a, b) for a in range(40) for b in range(600) if (a * 7 + b * 13) % 10 < 9
    ])
    # neighbourhoods of 4 partners, short of s = 8
    blocks = planted_blocks(8, 4)
    odd = random_bipartite(96, 0.5, random.Random(96))
    half_u = VertexSet.from_indices(Side.A, 96, range(0, 96, 2))
    most_w = VertexSet.from_indices(Side.B, 96, range(90))
    for seed in range(6):
        # s = 4: uniform draws and pools of about 51 take the set branch
        yield "set branch", dense, *full_sides(dense), Fraction(1, 16), 50, seed
        # base + eps >= 1, so only the low side of the band can fail
        yield "late witness", dense, *full_sides(dense), Fraction(5, 24), 400, seed
        # base <= eps, so only the high side can fail
        yield "sparse", sparse, *full_sides(sparse), Fraction(1, 5), 100, seed
    for seed in range(3):
        yield "widened pools", blocks, *full_sides(blocks), Fraction(1, 4), 100, seed
        yield "low response above the band", columns, *full_sides(columns), Fraction(1, 4), 50, seed
        yield "unbalanced", odd, half_u, most_w, Fraction(1, 6), 200, seed
        yield "unbalanced, B first", odd, most_w, half_u, Fraction(1, 7), 200, seed
    even = random_bipartite(64, 0.5, random.Random(66))
    yield "both sides open, regular", even, *full_sides(even), Fraction(1, 4), 200, 0
    yield "low side only, regular", dense, *full_sides(dense), Fraction(1, 4), 200, 0
    yield "high side only, regular", sparse, *full_sides(sparse), Fraction(1, 4), 200, 0
    # a draw whose greatest U degree is exactly the most the band allows
    sparser = random_bipartite(64, 0.1, random.Random(66))
    yield "high side only, at the bound", sparser, *full_sides(sparser), Fraction(1, 4), 100, 0
    # every neighbourhood is one vertex, and nine of them stay short of 16
    matching = BipartiteGraph.build(64, 64, [(a, a) for a in range(64)])
    yield "short pools, regular", matching, *full_sides(matching), Fraction(1, 4), 40, 0
    yield "two-byte lanes", star, *full_sides(star), Fraction(1, 2), 40, 0
    yield "two-byte lanes, regular", banded, *full_sides(banded), Fraction(1, 2), 40, 0
    # responses whose s members all have the same degree, one edge outside
    # the band: K_{32,32} minus a perfect matching at eps = 1/7 (s = 5, low
    # response 20 against lo = 21), and a perfect matching on 8 + 8 at
    # eps = 1/8 (s = 1, high response 1 against hi = 0)
    near_complete = BipartiteGraph.build(32, 32, [
        (a, b) for a in range(32) for b in range(32) if a != b
    ])
    yield "low response one edge below", near_complete, *full_sides(near_complete), \
        Fraction(1, 7), 20, 1
    small_matching = BipartiteGraph.build(8, 8, [(a, a) for a in range(8)])
    yield "high response one edge above", small_matching, *full_sides(small_matching), \
        Fraction(1, 8), 20, 1
    odd24 = random_bipartite(24, 0.7, random.Random(247))
    yield "uniform refutation at kind 2", odd24, *full_sides(odd24), Fraction(1, 4), 8, 17
    # s = 16 at eps = 1/4, so a uniform pair has 256 vertex pairs and one-byte
    # lanes: counts of 255 and 256 leave the lane sum's remainder mod 255
    full = complete(64)
    yield "uniform counts of 256", full, *full_sides(full), Fraction(1, 4), 20, 0
    missing = BipartiteGraph.build(64, 64, [(a, b) for a in range(64) for b in range(64) if a != b])
    yield "uniform counts up to 255", missing, *full_sides(missing), Fraction(1, 4), 40, 0
    # the cluster size of the n = 1024 benchmark: 1024 vertex pairs per subset pair
    wide = random_bipartite(128, 0.5, random.Random(128))
    yield "128 per side", wide, *full_sides(wide), Fraction(1, 4), 40, 0
    # W' has 128 members, one past what a one-byte lane holds below its top bit
    narrow = BipartiteGraph.build(16, 256, [
        (a, b) for a in range(16) for b in range(256) if (a * 5 + b * 3) % 7 < 4
    ])
    yield "two-byte lanes at s = 128", narrow, *full_sides(narrow), Fraction(1, 2), 20, 0


def _lane_readings(g, U, W, eps, seen):
    """How the sampler reads the lanes of each sample the reference saw,
    and how many samples it reads out of their lane integer (``_lanes``).

    The readings: the lane width; a uniform count its remainder modulo
    2^width - 1 cannot tell, and one above that modulus read on lanes twice
    as wide; a seeded sample whose least or greatest degree is exactly the
    least or greatest one the band lets every member have; and for a seeded
    sample with a degree below t_lo = ceil(lo/s), a deficit of the floors
    below t_lo at the slack s*t_lo - lo, one past it with the low response
    still in the band, and more than s degrees below t_lo."""
    U, W = (U, W) if U.side is Side.A else (W, U)
    s_u, s_w = min_subset_size(eps, U.size), min_subset_size(eps, W.size)
    denom = s_u * s_w
    base = density(g, U, W)
    lo, hi = math.ceil((base - eps) * denom), math.floor((base + eps) * denom)
    readings, reads = set(), 0
    for kind, saw in seen:
        if kind in (0, 2):
            width = _degree_lanes([0], 1, s_w)[2]
            modulus = (1 << width) - 1
            readings.add(("uniform", width))
            if denom >= 2 * modulus - 1:
                if saw >= modulus:
                    readings.add(("folded count above the lane modulus", width))
                modulus = (1 << 2 * width) - 1
            if saw % modulus + modulus <= denom:
                readings.add(("count beyond the modulus", saw))
                reads += 1
            continue
        s_m, s_p = (s_u, s_w) if kind == 1 else (s_w, s_u)
        readings.add(("seeded", _degree_lanes([0], 1, s_p)[2]))
        t_lo, t_hi = -(-lo // s_m), hi // s_m
        if lo > 0 and saw[0] == t_lo:
            readings.add(("least degree at its bound", kind))
        if hi < denom and saw[-1] == t_hi:
            readings.add(("greatest degree at its bound", kind))
        slack = s_m * t_lo - lo
        deficit = sum(min(s_m, sum(d < t for d in saw)) for t in range(1, t_lo + 1))
        if saw[0] < t_lo:
            if deficit == slack:
                readings.add(("deficit at the slack", kind))
            if deficit == slack + 1 and sum(saw[:s_m]) >= lo:
                readings.add(("deficit past the slack, in band", kind))
            if sum(d < t_lo for d in saw) > s_m:
                readings.add(("more than s degrees below t_lo", kind))
        if saw[-1] > t_hi or deficit > slack:
            reads += 1
    return readings, reads


def test_sampled_checks_match_a_plain_reference_sampler(monkeypatch):
    # the sampler answers each draw from one sum of tagged lane integers,
    # reads a uniform count as that sum's remainder and decides most seeded
    # samples by testing every lane against the band at once, floor by
    # floor below ceil(lo/s); a plain transcription on random.Random draws
    # the same subsets and must reach the same certificates on every
    # branch, and the sampler must read out of the lane integer exactly
    # the samples those tests leave undecided
    reads = []
    real_lanes = regularity._lanes

    def lanes(*args):
        reads.append(args)
        return real_lanes(*args)

    monkeypatch.setattr(regularity, "_lanes", lanes)
    found, read = set(), set()
    for name, g, U, W, eps, budget, seed in _oracle_cases():
        seen = []
        expected, how = reference_sampled_check(g, U, W, eps, budget, seed, seen)
        readings, expected_reads = _lane_readings(g, U, W, eps, seen)
        read |= readings
        reads.clear()
        cert = check_regular_pair(g, U, W, RegularityParams(eps, Fraction(0)),
                                  Strategy.SAMPLED, budget, seed)
        got = (cert.verdict.name, cert.samples_used)
        if cert.witness is not None:
            wit = cert.witness
            got += (wit.subset_u.bits, wit.subset_w.bits, wit.witness_density)
        assert got == expected, (name, seed)
        assert len(reads) == expected_reads, (name, seed)
        if how:
            kind, response, e, hi = how
            found.add((kind, response, response == "low" and e > hi))
    assert {(0, "uniform", False), (2, "uniform", False), (1, "low", False), (1, "high", False),
            (3, "low", False), (3, "high", False), (1, "low", True)} <= found
    assert {("uniform", 8), ("uniform", 16), ("seeded", 8), ("seeded", 16),
            ("count beyond the modulus", 255), ("count beyond the modulus", 256),
            ("folded count above the lane modulus", 8),
            ("least degree at its bound", 1), ("least degree at its bound", 3),
            ("greatest degree at its bound", 1), ("greatest degree at its bound", 3),
            ("deficit at the slack", 1), ("deficit at the slack", 3),
            ("deficit past the slack, in band", 1), ("more than s degrees below t_lo", 1),
            } <= read, read


@st.composite
def lane_integers(draw):
    """Lanes one or two bytes wide below their top bit, bounds at, just
    inside and just outside their least and greatest lane, and a subset
    size s with a least sum lo at, just below and just above what the s
    lowest lanes sum to (at most s times the greatest a lane holds)."""
    width = draw(st.sampled_from([8, 16]))
    lanes = draw(st.lists(st.integers(0, (1 << width - 1) - 1), min_size=1, max_size=70))
    t_min = min(lanes) + draw(st.integers(-3, 3))
    t_max = max(lanes) + draw(st.integers(-3, 3))
    s = draw(st.integers(1, len(lanes)))
    lo = sum(sorted(lanes)[:s]) + draw(st.integers(-s - 2, 2))
    return width, lanes, t_min, t_max, s, min(lo, s * ((1 << width - 1) - 1))


@settings(max_examples=300, deadline=None)
@given(lane_integers())
@example((8, [5, 9, 12], 5, 12, 2, 14))
@example((8, [0, 127, 64], -1, 127, 3, 191))
@example((16, [128, 32767, 0], 0, 32766, 1, 0))
# s = 2, lo = 9: t_lo = 5 with slack 1; one lane below floor 5, none
# below floor 4 (a deficit at the slack), then one below floors 5 and 4
# (one past it, with the two lowest lanes at 10 still in the band)
@example((8, [4, 6, 6], 4, 6, 2, 9))
@example((8, [3, 7, 9], 3, 9, 2, 9))
# three lanes below t_lo = 6 against s = 2
@example((8, [1, 2, 3, 9, 9], 1, 9, 2, 12))
def test_lane_keys_test_every_lane_at_once(case):
    width, lanes, t_min, t_max, s, lo = case
    shift = width * len(lanes)
    tag = 0b1011
    x = sum(v << width * i for i, v in enumerate(lanes)) | tag << shift
    assert list(_lanes(x, shift, width)) == lanes
    top, k_min, k_max = _lane_keys(len(lanes), width, t_min, t_max)
    assert ((x + k_min) & top == top) == (min(lanes) >= t_min)
    assert (not (x + k_max) & top) == (max(lanes) <= t_max)
    # no lane carries into the next, nor into the tag above the lanes
    assert (x + k_min) >> shift == (x + k_max) >> shift == tag
    # the floors t <= t_lo = ceil(lo/s): the lanes clear them exactly when
    # the sum of min(s, lanes below t) over 1 <= t <= t_lo is at most the
    # slack s*t_lo - lo, and then the s lowest lanes sum to at least lo
    t_lo = -(-lo // s)
    _, k_lo, _ = _lane_keys(len(lanes), width, t_lo, t_max)
    deficit = sum(min(s, sum(v < t for v in lanes)) for t in range(1, t_lo + 1))
    clears = _clears_floors(x + k_lo, top, len(lanes), width, -lo % s)
    assert clears == (deficit <= s * t_lo - lo)
    if clears:
        assert sum(sorted(lanes)[:s]) >= lo
    # the even lanes plus the odd ones shifted onto them: lanes twice as
    # wide whose remainder modulo 2^(2*width) - 1 is the lane sum
    even, bare = _even_lanes(len(lanes), width), x & (1 << shift) - 1
    assert ((bare & even) + (bare >> width & even)) % ((1 << 2 * width) - 1) == sum(lanes)


def test_degree_lanes_keep_their_top_bit_spare():
    # a lane key adds up to 2^(width-1) to a lane, which must not carry
    widths = [_degree_lanes([1], 1, most)[2] for most in (127, 128, 32767, 32768)]
    assert widths == [8, 16, 16, 32]


def test_sampled_check_needs_a_sample():
    # a sampled check with no budget used to certify a pair it never sampled
    g = planted_blocks(2, 4)
    U, W = full_sides(g)
    params = RegularityParams(Fraction(1, 4), Fraction(0))
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget of at least 1"):
            check_regular_pair(g, U, W, params, Strategy.SAMPLED, budget=budget)
    # the exhaustive strategy draws nothing and ignores the budget
    cert = check_regular_pair(g, U, W, params, Strategy.EXHAUSTIVE, budget=0)
    assert cert.verdict is Verdict.IRREGULAR
    assert check_regular_pair(g, U, W, params, budget=1).samples_used == 1


class TestShortNeighbourhoodPool:
    """Neighbourhoods smaller than the minimal subset size are widened by
    those of further members, so blocks smaller than eps*n are found."""

    PARAMS = RegularityParams(Fraction(1, 4), Fraction(0))

    @pytest.mark.parametrize("seed", range(5))
    def test_blocks_below_subset_size_refuted(self, seed):
        # 8 blocks K_{4,4}: each neighbourhood holds 4 < eps*32 = 8 vertices
        g = planted_blocks(8, 4)
        U, W = full_sides(g)
        cert = check_regular_pair(g, U, W, self.PARAMS, Strategy.SAMPLED, 200, seed)
        assert cert.verdict is Verdict.IRREGULAR
        wit = cert.witness
        su, sw = wit.subset_u, wit.subset_w
        assert su.size >= self.PARAMS.epsilon * U.size
        assert sw.size >= self.PARAMS.epsilon * W.size
        edges = sum(1 for a in su.indices() for b in sw.indices() if g.has_edge(a, b))
        assert wit.witness_density == Fraction(edges, su.size * sw.size)
        assert cert.base_density == Fraction(1, 8)
        assert wit.deviation == abs(wit.witness_density - cert.base_density)
        assert wit.deviation > self.PARAMS.epsilon

    @pytest.mark.parametrize("seed", range(5))
    def test_regular_small_blocks_stay_regular(self, seed):
        # 16 blocks K_{4,4} at base density 1/16: 16x16 subsets span at most
        # 4*16 edges (density 1/4), so every deviation is at most 3/16
        g = planted_blocks(16, 4)
        U, W = full_sides(g)
        cert = check_regular_pair(g, U, W, self.PARAMS, Strategy.SAMPLED, 200, seed)
        assert cert.verdict is Verdict.REGULAR


class TestCheckSuperRegularPair:
    def test_k33_super_regular(self):
        g = complete(3)
        U, W = full_sides(g)
        cert = check_super_regular_pair(g, check_regular_pair(
            g, U, W, RegularityParams(Fraction(1, 3), Fraction(1, 2)),
            Strategy.EXHAUSTIVE,
        ))
        assert cert.verdict is Verdict.SUPER_REGULAR

    def test_isolated_vertex_fails_degree(self):
        edges = [(a, b) for a in range(1, 3) for b in range(3)]
        g = BipartiteGraph.build(3, 3, edges)
        U, W = full_sides(g)
        cert = check_super_regular_pair(g, check_regular_pair(
            g, U, W, RegularityParams(Fraction(1, 3), Fraction(1, 2)),
            Strategy.EXHAUSTIVE,
        ))
        assert cert.verdict is Verdict.SUPER_FAILED
        assert cert.failing_vertex == VertexId(Side.A, 0)

    def test_lowest_failing_vertex_is_named(self):
        # every A vertex has degree at least 2 = d|B|; B1 and B3 have degree 1
        edges = [(a, b) for a in range(4) for b in (0, 2)] + [(0, 1), (0, 3)]
        g = BipartiteGraph.build(4, 4, edges)
        U, W = full_sides(g)
        cert = check_super_regular_pair(g, check_regular_pair(
            g, U, W, RegularityParams(Fraction(1, 4), Fraction(1, 2)),
            Strategy.EXHAUSTIVE,
        ))
        assert cert.verdict is Verdict.SUPER_FAILED
        assert cert.failing_vertex == VertexId(Side.B, 1)
        assert cert.note == "degree below 2 into partner"

    def test_c6_fails_regularity(self):
        g = BipartiteGraph.build(3, 3, C6_EDGES)
        U, W = full_sides(g)
        cert = check_super_regular_pair(g, check_regular_pair(
            g, U, W, RegularityParams(Fraction(1, 3), Fraction(1, 2)),
            Strategy.EXHAUSTIVE,
        ))
        # degrees 2 >= 3/2 pass, but a singleton witness deviates by 2/3 > 1/3
        assert cert.verdict is Verdict.SUPER_FAILED
        assert cert.failing_vertex is None
        assert cert.witness is not None
        assert cert.witness.deviation > Fraction(1, 3)

    def test_certificates_survive_a_pickle_round_trip(self):
        """Helpers send certificates through pickle; both kinds come back
        equal field by field, and a rebuilt VertexSet stays immutable."""
        params = RegularityParams(Fraction(1, 3), Fraction(1, 2))
        certs = []
        for edges in (C6_EDGES, [(a, b) for a in range(1, 3) for b in range(3)]):
            g = BipartiteGraph.build(3, 3, edges)
            U, W = full_sides(g)
            certs.append(check_super_regular_pair(
                g, check_regular_pair(g, U, W, params, Strategy.EXHAUSTIVE)))
        witnessed, degree_failed = certs
        assert witnessed.witness is not None and degree_failed.failing_vertex is not None
        for cert in (witnessed, degree_failed):
            back = pickle.loads(pickle.dumps(cert))
            for f in fields(PairCertificate):
                assert getattr(back, f.name) == getattr(cert, f.name), f.name
            assert back.witness == cert.witness
            with pytest.raises(AttributeError):
                back.pair[0].bits = 0
            assert back.pair[0].bits == U.bits


    def test_gate_takes_only_a_deviation_certificate(self):
        g = complete(3)
        U, W = full_sides(g)
        params = RegularityParams(Fraction(1, 3), Fraction(1, 2))
        deviation = check_regular_pair(g, U, W, params, Strategy.EXHAUSTIVE)
        gated = check_super_regular_pair(g, deviation)
        assert gated == replace(deviation, verdict=Verdict.SUPER_REGULAR)
        with pytest.raises(ValueError, match="not a deviation verdict"):
            check_super_regular_pair(g, gated)


class TestRebound:
    def test_identity(self):
        p = rebound_after_perturbation(
            RegularityParams(Fraction(1, 10), Fraction(1, 2)), 0, 0
        )
        assert p.epsilon == Fraction(1, 10)
        assert p.d == Fraction(1, 2)

    def test_paper_values(self):
        p = rebound_after_perturbation(
            RegularityParams(Fraction(1, 10), Fraction(1, 2)), Fraction(1, 100), 0
        )
        assert p.epsilon == Fraction(1, 10) + 3 * Fraction(1, 10)
        assert p.d == Fraction(1, 2) - Fraction(2, 100)

    def test_clamping(self):
        p = rebound_after_perturbation(
            RegularityParams(Fraction(1, 10), Fraction(1, 2)),
            Fraction(1, 25), Fraction(1, 25),
        )
        assert p.epsilon == 1  # 0.1 + 3*(0.2+0.2) clamps
        assert p.d == Fraction(1, 2) - 2 * Fraction(2, 25)

    @given(
        st.fractions(min_value=0, max_value=1),
        st.fractions(min_value=0, max_value=Fraction(1, 2)),
        st.fractions(min_value=0, max_value=Fraction(1, 4)),
        st.fractions(min_value=0, max_value=Fraction(1, 4)),
    )
    @settings(max_examples=100)
    def test_exact_on_square_inputs(self, e, d, ra, rb):
        # alpha, beta drawn as squares so the closed form stays rational
        e = max(e, Fraction(1, 1000))
        params = RegularityParams(e, d)
        out = rebound_after_perturbation(params, ra * ra, rb * rb)
        assert out.epsilon == min(Fraction(1), e + 3 * (ra + rb))
        assert out.d == max(Fraction(0), d - 2 * (ra * ra + rb * rb))


class TestPartitionBuilder:
    def test_planted_blocks_certify(self):
        g = planted_blocks(2, 16)
        res = build_regular_partition(
            g, RegularityParams(Fraction(1, 4), Fraction(1, 2)), k0=2, kmax=8,
            strategy=Strategy.SAMPLED, budget=300, seed=0,
        )
        res.partition.validate(g)
        assert res.fraction_regular >= Fraction(3, 4)
        # reduced graph keeps only the dense intra-block pairs
        for (i, j) in res.reduced.edges:
            cert = res.reduced.certificates[(i, j)]
            assert cert.verdict is Verdict.REGULAR
            assert cert.base_density >= Fraction(1, 2)

    def test_two_complete_blocks_reduced_edges(self):
        g = planted_blocks(2, 128)
        res = build_regular_partition(
            g, RegularityParams(Fraction(1, 4), Fraction(1, 2)), k0=2, kmax=8,
            strategy=Strategy.SAMPLED, budget=400, seed=1,
        )
        assert res.k == 2
        assert len(res.reduced.edges) == 2
        for (i, j) in res.reduced.edges:
            a = res.partition.clusters_a[i]
            b = res.partition.clusters_b[j]
            assert density(g, a, b) > Fraction(95, 100)

    def test_random_graph_complete_reduced(self):
        g = random_bipartite(256, 0.6, random.Random(1))
        res = build_regular_partition(
            g, RegularityParams(Fraction(1, 4), Fraction(3, 10)), k0=4, kmax=8,
            strategy=Strategy.SAMPLED, budget=400, seed=2,
        )
        assert res.k == 4
        assert len(res.reduced.edges) == 16

    def test_kmax_guard(self):
        # two blocks cannot certify at k=1 and kmax=1 forbids growth
        g = planted_blocks(2, 8)
        with pytest.raises(PartitionBuildError) as exc:
            build_regular_partition(
                g, RegularityParams(Fraction(1, 8), Fraction(1, 2)), k0=1, kmax=1,
                strategy=Strategy.SAMPLED, budget=400, seed=0,
            )
        assert exc.value.best is not None


class TestMaximalReducedGraph:
    def test_planted_two_blocks(self):
        g = planted_blocks(2, 8)
        part = _planted_partition(g, 2, 8)
        red = maximal_reduced_graph(
            g, part, RegularityParams(Fraction(1, 4), Fraction(1, 2)),
            Strategy.EXHAUSTIVE,
        )
        assert red.edges == frozenset({(0, 0), (1, 1)})

    def test_edgeless(self):
        g = BipartiteGraph.build(8, 8, [])
        part = _planted_partition(g, 2, 4)
        red = maximal_reduced_graph(
            g, part, RegularityParams(Fraction(1, 4), Fraction(1, 4)),
            Strategy.EXHAUSTIVE,
        )
        assert red.edges == frozenset()

    def test_random_complete_reduced_with_exhaustive_cross_check(self):
        g = random_bipartite(256, 0.6, random.Random(5))
        part = _planted_partition(g, 4, 64)
        params = RegularityParams(Fraction(1, 4), Fraction(3, 10))
        red = maximal_reduced_graph(g, part, params, Strategy.SAMPLED, budget=500, seed=3)
        assert len(red.edges) == 16
        # exhaustive ground truth at m <= 12 agrees with the sampled verdict
        # on a small planted sub-pair (small random pairs genuinely deviate)
        sub_u = VertexSet.from_indices(Side.A, 256, range(10))
        sub_w = VertexSet.from_indices(Side.B, 256, range(10))
        loose = RegularityParams(Fraction(1, 2), Fraction(0))
        exact = check_regular_pair(g, sub_u, sub_w, loose, Strategy.EXHAUSTIVE)
        sampled = check_regular_pair(g, sub_u, sub_w, loose, Strategy.SAMPLED,
                                     budget=3000, seed=9)
        if sampled.verdict is Verdict.IRREGULAR:
            assert exact.verdict is Verdict.IRREGULAR
        if exact.verdict is Verdict.REGULAR:
            assert sampled.verdict is Verdict.REGULAR


def _planted_partition(g, k, m):
    from bipembed.regularity import ClusterPartition

    ca = tuple(
        VertexSet.from_indices(Side.A, g.size_a, range(i * m, (i + 1) * m)) for i in range(k)
    )
    cb = tuple(
        VertexSet.from_indices(Side.B, g.size_b, range(i * m, (i + 1) * m)) for i in range(k)
    )
    return ClusterPartition(
        ca, cb, VertexSet(Side.A, g.size_a, 0), VertexSet(Side.B, g.size_b, 0)
    )


class TestSuperRegularize:
    def test_planted_blocks_unchanged(self):
        g = planted_blocks(2, 8)
        part = _planted_partition(g, 2, 8)
        res = super_regularize(
            g, part, [(0, 0), (1, 1)], RegularityParams(Fraction(1, 4), Fraction(1)),
        )
        assert res.partition.sizes_a() == [8, 8]
        assert res.partition.exceptional_a.size == 0
        assert all(not v for v in res.moved_a.values())

    def test_isolated_vertex_moves_and_trims(self):
        # planted blocks on 9+9; A8 isolated, B8 fully joined to block 1
        edges = []
        for blk in range(2):
            for a in range(blk * 4, (blk + 1) * 4):
                for b in range(blk * 4, (blk + 1) * 4):
                    edges.append((a, b))
        edges += [(a, 8) for a in range(4)]  # B8 sees block-1 A vertices
        g = BipartiteGraph.build(9, 9, edges)
        from bipembed.regularity import ClusterPartition

        part = ClusterPartition(
            (
                VertexSet.from_indices(Side.A, 9, [0, 1, 2, 3, 8]),
                VertexSet.from_indices(Side.A, 9, [4, 5, 6, 7]),
            ),
            (
                VertexSet.from_indices(Side.B, 9, [0, 1, 2, 3, 8]),
                VertexSet.from_indices(Side.B, 9, [4, 5, 6, 7]),
            ),
            VertexSet(Side.A, 9, 0),
            VertexSet(Side.B, 9, 0),
        )
        res = super_regularize(
            g, part, [(0, 0), (1, 1)], RegularityParams(Fraction(1, 4), Fraction(1)),
        )
        assert res.moved_a[0] == [8]
        assert all(not v for v in res.moved_b.values())
        assert sorted(res.partition.exceptional_a.indices()) == [8]
        assert sorted(res.partition.exceptional_b.indices()) == [8]
        # B8 is trimmed, not moved: cluster 0 kept 5 B vertices, one too many
        assert res.partition.exceptional_b.size - sum(map(len, res.moved_b.values())) == 1
        assert res.partition.sizes_a() == [4, 4]
        assert res.partition.sizes_b() == [4, 4]

    def test_random_instance_move_bound(self):
        rng = random.Random(11)
        g = random_bipartite(256, 0.6, rng)
        res = build_regular_partition(
            g, RegularityParams(Fraction(1, 4), Fraction(3, 10)), k0=4, kmax=8,
            strategy=Strategy.SAMPLED, budget=300, seed=4,
        )
        part = res.partition
        cyc = [(i, i) for i in range(4)] + [(i, (i + 1) % 4) for i in range(4)]
        out = super_regularize(
            g, part, cyc, RegularityParams(Fraction(1, 4), Fraction(3, 10)),
        )
        eps = Fraction(1, 4)
        for i, moved in out.moved_a.items():
            assert len(moved) <= eps * part.clusters_a[i].size
        cleaned = out.partition
        for i, j in cyc:
            cert = check_super_regular_pair(g, check_regular_pair(
                g, cleaned.clusters_a[i], cleaned.clusters_b[j],
                RegularityParams(Fraction(1, 2), Fraction(1, 10)), Strategy.SAMPLED,
                300, _mix_seed(0, i, j),
            ))
            assert cert.verdict is Verdict.SUPER_REGULAR


@st.composite
def cleaning_instances(draw):
    """A random host with some vertices of random low density, cut into k
    random clusters per side (some vertices left exceptional), and a
    subgraph of the cluster cycle's pairs."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    k = draw(st.integers(1, 4))
    n = k * draw(st.integers(1, 6)) + draw(st.integers(0, 3))
    row_p = [rng.choice([0.1, 0.4, 0.9, 1.0]) for _ in range(n)]
    g = BipartiteGraph.build(n, n, [
        (a, b) for a in range(n) for b in range(n) if rng.random() < min(row_p[a], row_p[b])
    ])
    masks = []
    for _ in range(2):
        owner = [rng.randrange(k + 1) for _ in range(n)]  # k: exceptional
        masks.append([sum(1 << v for v in range(n) if owner[v] == i) for i in range(k + 1)])
    pairs = [(i, i) for i in range(k)] + [(i, (i + 1) % k) for i in range(k)]
    edges = [e for e in pairs if draw(st.booleans())]
    params = RegularityParams(Fraction(draw(st.integers(1, 4)), 8),
                              Fraction(draw(st.integers(0, 8)), 8))
    return g, masks, edges, params


def reference_cleaning(g, part, edges, params):
    """Degree cleaning with every degree counted vertex by vertex, then the
    index-list trimming: the partition's masks, moved_a and moved_b."""
    floor = params.d - params.epsilon
    members_a = [sorted(c.indices()) for c in part.clusters_a]
    members_b = [sorted(c.indices()) for c in part.clusters_b]
    moved = {Side.A: {i: set() for i in range(part.k)}, Side.B: {i: set() for i in range(part.k)}}
    for i, j in set(edges):
        for side, own, partner, adj, idx in (
            (Side.A, members_a[i], members_b[j], g.adj_a, i),
            (Side.B, members_b[j], members_a[i], g.adj_b, j),
        ):
            for v in own:
                if sum(adj[v] >> w & 1 for w in partner) < floor * len(partner):
                    moved[side][idx].add(v)
    groups = {
        Side.A: [[v for v in c if v not in moved[Side.A][i]] for i, c in enumerate(members_a)],
        Side.B: [[v for v in c if v not in moved[Side.B][j]] for j, c in enumerate(members_b)],
    }
    exceptional = {
        Side.A: list(part.exceptional_a.indices()) + [v for m in moved[Side.A].values() for v in m],
        Side.B: list(part.exceptional_b.indices()) + [v for m in moved[Side.B].values() for v in m],
    }
    reference_equalise(groups, exceptional, min(len(c) for s in groups.values() for c in s))
    masks = tuple(
        [sum(1 << v for v in c) for c in groups[side]] + [sum(1 << v for v in exceptional[side])]
        for side in (Side.A, Side.B)
    )
    return (masks,
            {i: sorted(m) for i, m in moved[Side.A].items()},
            {j: sorted(m) for j, m in moved[Side.B].items()})


@settings(max_examples=200, deadline=None)
@given(instance=cleaning_instances())
def test_cleaning_trims_like_the_index_list_rule(instance):
    g, (masks_a, masks_b), edges, params = instance
    part = ClusterPartition.from_masks(g, masks_a[:-1], masks_b[:-1], masks_a[-1], masks_b[-1])
    res = super_regularize(g, part, edges, params)
    got = res.partition
    res_masks = (
        [c.bits for c in got.clusters_a] + [got.exceptional_a.bits],
        [c.bits for c in got.clusters_b] + [got.exceptional_b.bits],
    )
    assert (res_masks, res.moved_a, res.moved_b) == reference_cleaning(g, part, edges, params)


class TestPerturbationSoundness:
    def test_moved_pair_not_irregular_at_rebound(self):
        rng = random.Random(2)
        for seed in range(5):
            g = random_bipartite(96, 0.55, random.Random(seed))
            A = VertexSet.from_indices(Side.A, 96, range(64))
            B = VertexSet.from_indices(Side.B, 96, range(64))
            params = RegularityParams(Fraction(1, 4), Fraction(3, 10))
            before = check_regular_pair(g, A, B, params, Strategy.SAMPLED, 400, seed)
            assert before.verdict is Verdict.REGULAR
            # swap two vertices per side in/out: alpha = beta = 2/64
            newA = VertexSet.from_indices(Side.A, 96, [*range(2, 64), 64, 65])
            newB = VertexSet.from_indices(Side.B, 96, [0, 1, *range(4, 64), 66, 67])
            hat = rebound_after_perturbation(params, Fraction(2, 64), Fraction(2, 64))
            after = check_regular_pair(g, newA, newB, hat, Strategy.SAMPLED, 400, seed + 1)
            assert after.verdict is not Verdict.IRREGULAR


def test_min_subset_size():
    assert min_subset_size(Fraction(1, 4), 4) == 1
    assert min_subset_size(Fraction(1, 4), 5) == 2
    assert min_subset_size(Fraction(1), 6) == 6
    assert min_subset_size(Fraction(1, 100), 4) == 1


@st.composite
def draw_calls(draw):
    """Interleaved (n, k) sample calls and (n, None) choice calls, k in 0..n."""
    calls = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 400))
        calls.append((n, draw(st.none() | st.integers(0, n))))
    return calls


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64), calls=draw_calls())
@example(seed=0, calls=[(300, 10), (64, 16), (300, None)])  # set branch, pool branch
@example(seed=1, calls=[(21, 1), (22, 1), (85, 16), (86, 16), (5, 5), (400, 0)])
def test_draw_equals_standard_library(seed, calls):
    ref = random.Random(seed)
    gen = random.Random(seed)
    for n, k in calls:
        population = [f"v{i}" for i in range(n)]
        if k is None:
            assert _draw(gen.getrandbits, population, 1)[0] == ref.choice(population)
        else:
            assert _draw(gen.getrandbits, population, k) == ref.sample(population, k)
            # distinct powers of two: the sum names the drawn set
            powers = [1 << i for i in range(n)]
            steps = _pool_steps(n, k)
            assert _drawn_sum(gen.getrandbits, powers, k, steps) == sum(ref.sample(powers, k))
    assert gen.getrandbits(32) == ref.getrandbits(32)


@pytest.mark.parametrize("seed", [0, 1, 97, 2**32 + 5, 2**64 - 1])
def test_shuffle_equals_standard_library(seed):
    ref = random.Random(seed)
    gen = random.Random(seed)
    for n in range(201):
        expected = [f"v{i}" for i in range(n)]
        ref.shuffle(expected)
        got = [f"v{i}" for i in range(n)]
        _shuffle(gen.getrandbits, got)
        assert got == expected, n
    assert gen.getrandbits(32) == ref.getrandbits(32)


@st.composite
def graph_and_clusters(draw):
    """A bipartite graph and a cluster on each side, each cluster empty,
    one member or any ascending subset of its side."""
    na, nb = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    edges = draw(st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11))))
    g = BipartiteGraph.build(na, nb, [(a, b) for a, b in edges if a < na and b < nb])
    u = sorted(draw(st.sets(st.integers(0, na - 1)) if na else st.just(set())))
    w = sorted(draw(st.sets(st.integers(0, nb - 1)) if nb else st.just(set())))
    return g, u, w


@settings(max_examples=300, deadline=None)
@given(gc=graph_and_clusters())
@example(gc=(BipartiteGraph.build(2, 2, [(0, 1)]), [], [1]))
@example(gc=(BipartiteGraph.build(2, 2, [(0, 1)]), [0], []))
@example(gc=(BipartiteGraph.build(2, 2, [(0, 1)]), [0], [1]))
@example(gc=(BipartiteGraph.build(0, 0, []), [], []))
def test_local_rows_equal_the_restricted_adjacency(gc):
    g, u, w = gc
    rows_u, rows_w = _pair_rows(g, u, w)
    assert rows_u == [sum(1 << j for j, b in enumerate(w) if g.has_edge(a, b)) for a in u]
    assert rows_w == [sum(1 << i for i, a in enumerate(u) if g.has_edge(a, b)) for b in w]
    # any row of either side, read in the other side's cluster
    for a in range(g.size_a):
        assert _local_row(g.adj_a[a], w, g.size_b) == sum(
            1 << j for j, b in enumerate(w) if g.has_edge(a, b)
        )
    for b in range(g.size_b):
        assert _local_row(g.adj_b[b], u, g.size_a) == sum(
            1 << i for i, a in enumerate(u) if g.has_edge(a, b)
        )


def test_draw_refuses_more_than_the_population():
    for population, k in (([], 1), ([0, 1], 3), ([0], -1)):
        with pytest.raises(ValueError):
            _draw(random.Random(0).getrandbits, population, k)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.integers(0, 2**8 - 1), max_size=8),
    members=st.integers(0, 2**8 - 1),
    partner=st.integers(0, 2**8 - 1),
    bound=st.integers(-3, 10) | st.fractions(-3, 10, max_denominator=12),
)
@example(rows=[3, 1], members=3, partner=3, bound=-2)  # negative: every member
@example(rows=[3, 0], members=3, partner=3, bound=0)  # zero: every member
@example(rows=[3, 1], members=3, partner=3, bound=2)  # integer, met exactly
@example(rows=[3, 1], members=3, partner=3, bound=Fraction(3, 2))  # ceiling 2
@example(rows=[3, 3], members=3, partner=3, bound=3)  # above |partner|: none
@example(rows=[3, 1], members=0, partner=3, bound=1)  # no members
@example(rows=[3, 1], members=3, partner=0, bound=0)  # empty partner, zero bound
@example(rows=[3, 1], members=3, partner=0, bound=Fraction(1, 3))  # empty partner
def test_degree_gate_matches_a_rational_comparison(rows, members, partner, bound):
    members &= (1 << len(rows)) - 1
    assert degree_at_least(rows, members, partner, bound) == sum(
        1 << v for v in range(len(rows))
        if members >> v & 1 and Fraction((rows[v] & partner).bit_count()) >= Fraction(bound)
    )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), d=st.fractions(0, 1), eps=st.fractions(0, 1))
def test_degree_gates_match_rational_thresholds(seed, d, eps):
    rng = random.Random(seed)
    g = random_bipartite(7, rng.random(), rng)
    A, B = full_sides(g)
    params = RegularityParams(max(eps, Fraction(1, 100)), d)
    cert = check_super_regular_pair(
        g, check_regular_pair(g, A, B, params, Strategy.SAMPLED, budget=8, seed=seed))
    low = [
        VertexId(X.side, v) for X, Y, adj in ((A, B, g.adj_a), (B, A, g.adj_b))
        for v in X.indices() if (adj[v] & Y.bits).bit_count() < params.d * Y.size
    ]
    if cert.base_density >= params.d:
        assert cert.failing_vertex == (low[0] if low else None)

    # absorption's candidate sets and one redistribution move, on a random 4+3 split
    clusters = {}
    for side in (Side.A, Side.B):
        perm = rng.sample(range(7), 7)
        clusters[side] = tuple(VertexSet.from_indices(side, 7, c) for c in (perm[:4], perm[4:]))
    part = ClusterPartition(
        clusters[Side.A], clusters[Side.B], VertexSet(Side.A, 7, 0), VertexSet(Side.B, 7, 0)
    )
    a0, a1 = part.clusters_a
    b0, b1 = part.clusters_b

    def deg(row, cluster):
        return (row & cluster.bits).bit_count()

    x, y = rng.randrange(7), rng.randrange(7)
    assert candidate_index_set(g, VertexId(Side.A, x), VertexId(Side.B, y), part, d) == {
        i for i in range(2)
        if deg(g.adj_a[x], part.clusters_b[i]) >= d * part.clusters_b[i].size
        and deg(g.adj_b[y], part.clusters_a[i]) >= d * part.clusters_a[i].size
    }
    eligible = [
        v for v in a0.indices()
        if deg(g.adj_a[v], b1) >= d * b1.size
        and all(
            deg(g.adj_b[w], a0) - 1 >= d * (a0.size - 1) for w in iter_bits(g.adj_a[v] & b0.bits)
        )
    ]
    try:
        moved = redistribute_cluster_sizes(
            g, part, [-1, 1], [0, 0], Fraction(1, 7), params
        )
    except RedistributionError:
        assert not eligible
    else:
        assert eligible and moved.partition.clusters_a[1].bits == a1.bits | 1 << eligible[0]


_NO_ELIGIBLE = ("no eligible vertex to move out of {}-cluster {}; "
                "the pair used for the move was not usably regular")


def _bits(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def reference_redistribution(g, masks_a, masks_b, deltas_a, deltas_b, d):
    """The mover's documented rule, with every degree recounted on each move:
    A-side walks go forward and B-side walks backward from the lowest-index
    source until a cluster short of its target takes one vertex, and each
    move takes the lowest-index vertex with at least d*|partner of dst|
    neighbours there whose departure leaves every partner of the source
    with at least d*(|source| - 1) neighbours in it.  Returns the final
    masks, the route log and the move count, or (side, cluster, message)
    of the move that found no vertex."""
    adj = {"A": g.adj_a, "B": g.adj_b}
    masks = {"A": list(masks_a), "B": list(masks_b)}
    other = {"A": "B", "B": "A"}
    k = len(masks_a)
    route_log, moves = [], 0
    for side, deltas, step in (("A", deltas_a, 1), ("B", deltas_b, -1)):
        cl, partners = masks[side], masks[other[side]]
        targets = [cl[i].bit_count() + deltas[i] for i in range(k)]
        while any(cl[i].bit_count() > targets[i] for i in range(k)):
            src = j = min(i for i in range(k) if cl[i].bit_count() > targets[i])
            while True:
                dst = (j + step) % k
                was_sink = cl[dst].bit_count() < targets[dst]
                eligible = [
                    v for v in _bits(cl[j])
                    if (adj[side][v] & partners[dst]).bit_count()
                    >= d * partners[dst].bit_count()
                    and all(
                        (adj[other[side]][w] & cl[j]).bit_count() - 1
                        >= d * (cl[j].bit_count() - 1)
                        for w in _bits(adj[side][v] & partners[j])
                    )
                ]
                if not eligible:
                    return side, j, _NO_ELIGIBLE.format(side, j)
                cl[j] ^= 1 << eligible[0]
                cl[dst] |= 1 << eligible[0]
                moves += 1
                if was_sink:
                    break
                j = dst
            route_log.append((side, src, dst))
    return masks["A"], masks["B"], tuple(route_log), moves


@st.composite
def mover_instances(draw):
    """A random host cut into k equal clusters per side, zero-sum deltas of
    a few vertices per side and a degree threshold high enough that many
    instances get stuck."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    k = draw(st.integers(2, 4))
    m = draw(st.integers(3, 8))
    n = k * m
    p = draw(st.sampled_from([0.5, 0.7, 0.85, 0.95]))
    g = BipartiteGraph.build(n, n, [(a, b) for a in range(n) for b in range(n) if rng.random() < p])
    masks = []
    for _ in range(2):
        perm = rng.sample(range(n), n)
        masks.append([sum(1 << v for v in perm[i * m:(i + 1) * m]) for i in range(k)])
    deltas = []
    for _ in range(2):
        delta = [0] * k
        for _ in range(draw(st.integers(0, 4))):
            i, j = rng.sample(range(k), 2)
            if delta[i] < m // 2 and delta[j] > -(m // 2):
                delta[i] += 1
                delta[j] -= 1
        deltas.append(delta)
    d = Fraction(draw(st.integers(0, 10)), 10)
    return g, masks, deltas, d


@settings(max_examples=200, deadline=None)
@given(instance=mover_instances())
def test_mover_follows_its_documented_rule(instance):
    g, (masks_a, masks_b), (deltas_a, deltas_b), d = instance
    part = ClusterPartition.from_masks(g, masks_a, masks_b)
    expected = reference_redistribution(g, masks_a, masks_b, deltas_a, deltas_b, d)
    try:
        res = redistribute_cluster_sizes(
            g, part, deltas_a, deltas_b, Fraction(1), RegularityParams(Fraction(1, 4), d),
        )
    except RedistributionError as e:
        assert (e.side, e.cluster, str(e)) == expected
    else:
        final_a = [c.bits for c in res.partition.clusters_a]
        final_b = [c.bits for c in res.partition.clusters_b]
        assert (final_a, final_b, res.route_log, res.vertex_moves) == expected
        assert res.iterations == len(res.route_log)
        assert res.symmetric_difference_a == tuple(
            (o ^ f).bit_count() for o, f in zip(masks_a, final_a))
        assert res.symmetric_difference_b == tuple(
            (o ^ f).bit_count() for o, f in zip(masks_b, final_b))


# ---------------------------------------------------------------------------
# the sampled checker's error rate against exhaustive ground truth
# ---------------------------------------------------------------------------


def _pair_with_block(m, rng, p, block=0, q=None):
    """An m x m pair at edge probability p, with a block x block sub-pair
    on random rows and columns at probability q."""
    rows = set(rng.sample(range(m), block))
    cols = set(rng.sample(range(m), block))
    edges = [(a, b) for a in range(m) for b in range(m)
             if rng.random() < (q if a in rows and b in cols else p)]
    return BipartiteGraph.build(m, m, edges)


GROUND_TRUTH_FAMILIES = {
    "random": lambda m, rng: _pair_with_block(m, rng, 0.5),
    "planted": lambda m, rng: _pair_with_block(m, rng, 0.5, m // 2, 1.0),
    "near-threshold": lambda m, rng: _pair_with_block(m, rng, 0.6, m // 3, 0.85),
}

# (epsilon, pair sizes, sampler seeds) -> per family: (pairs irregular by
# exhaustive check, most of them the sampled checker may call regular).
# The bounds are what this instance set measured at budget 800; a change
# to the sampler may lower them, never raise them.
GROUND_TRUTH_BOUNDS = [
    (Fraction(1, 4), (16, 18, 20), range(5),
     {"random": (15, 0), "planted": (15, 0), "near-threshold": (15, 0)}),
    (Fraction(1, 3), (16,), range(20),
     {"random": (20, 2), "planted": (20, 0), "near-threshold": (18, 2)}),
]


@pytest.mark.parametrize("eps, sizes, seeds, bounds", GROUND_TRUTH_BOUNDS)
def test_sampled_false_regular_rate_against_exhaustive(eps, sizes, seeds, bounds):
    params = RegularityParams(eps, Fraction(0))
    for family, make in GROUND_TRUTH_FAMILIES.items():
        irregular = missed = 0
        kinds = [0, 0, 0, 0]  # refutations per draw kind: 0/2 uniform, 1/3 seeded
        for m in sizes:
            for seed in seeds:
                g = make(m, random.Random(f"{family}:{m}:{seed}"))
                U, W = full_sides(g)
                exact = check_regular_pair(g, U, W, params, Strategy.EXHAUSTIVE)
                sampled = check_regular_pair(g, U, W, params, Strategy.SAMPLED, 800, seed)
                if exact.verdict is Verdict.REGULAR:
                    # a sampled refutation carries a witness, so it cannot be wrong
                    assert sampled.verdict is Verdict.REGULAR
                    continue
                irregular += 1
                if sampled.verdict is Verdict.REGULAR:
                    missed += 1
                    continue
                kinds[(sampled.samples_used - 1) & 3] += 1
                wit = sampled.witness
                edges = sum(g.has_edge(a, b) for a in wit.subset_u.indices()
                            for b in wit.subset_w.indices())
                share = Fraction(edges, wit.subset_u.size * wit.subset_w.size)
                assert abs(share - sampled.base_density) > eps
        # shown with pytest -s
        print(f"eps={eps} {family}: {missed}/{irregular} irregular pairs called "
              f"regular; refutations by draw kind 0-3: {kinds}")
        want_irregular, most_missed = bounds[family]
        assert irregular == want_irregular  # the instance set is fixed
        assert missed <= most_missed


def _pair_with_hole(m, key):
    """An m x m pair at edge probability 0.85 holding a ceil(m/4)-square
    hole at 0.3, the minimal qualifying size at eps = 1/4; returns the
    pair and the hole's rows and columns."""
    block = -(-m // 4)
    g = _pair_with_block(m, random.Random(key), 0.85, block, 0.3)
    replay = random.Random(key)  # the same draws pick the hole's rows, then its columns
    rows, cols = replay.sample(range(m), block), replay.sample(range(m), block)
    return g, VertexSet.from_indices(Side.A, m, rows), VertexSet.from_indices(Side.B, m, cols)


# cluster size m -> most of the 20 planted-hole pairs the sampled checker
# may call regular at eps = 1/4 and budget 800.  Every hole deviates by
# 0.45-0.56, yet this instance set measured 3/20 missed at m = 64 and 20/20
# at m = 128: a uniform draw holds only about an eps share of a hole's rows
# and columns, so at the pipeline's cluster sizes (64 on embed-512, 128 on
# cli-1024) the sampler misses holes it finds on 16-20-vertex pairs.  A
# change to the sampler may lower these bounds, never raise them.
HOLE_BOUNDS = {64: 3, 128: 20}


@pytest.mark.parametrize("m", sorted(HOLE_BOUNDS))
def test_sampled_false_regular_rate_on_cluster_size_holes(m):
    eps = Fraction(1, 4)
    params = RegularityParams(eps, Fraction(0))
    missed = 0
    for seed in range(20):
        g, hole_u, hole_w = _pair_with_hole(m, f"hole:{m}:{seed}")
        U, W = full_sides(g)
        base = density(g, U, W)
        # the ground truth comes from construction: the hole deviates
        assert abs(density(g, hole_u, hole_w) - base) > eps
        sampled = check_regular_pair(g, U, W, params, Strategy.SAMPLED, 800, seed)
        if sampled.verdict is Verdict.REGULAR:
            missed += 1
            continue
        wit = sampled.witness
        assert abs(density(g, wit.subset_u, wit.subset_w) - base) > eps
    # shown with pytest -s
    print(f"m={m}: {missed}/20 planted-hole pairs called regular")
    assert missed <= HOLE_BOUNDS[m]
