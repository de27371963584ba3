"""gen_host's bulk draw against the per-draw loop it stands for, pinned
hosts at the benchmark shapes, and the generators' typed postconditions."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from bipembed import generators
from bipembed.graphs import BipartiteGraph, GraphError
from bipembed.generators import InstanceSpec, gen_host, gen_target


def per_draw_host(n: int, seed: int, gamma: Fraction, slack: Fraction):
    """adj_a of the random host drawn one ``random()`` per edge, then
    patched row by row and column by column; and how many draws had the
    top byte of the bulk draw's threshold."""
    delta = math.ceil((Fraction(1, 2) + gamma) * n)
    p = min(Fraction(49, 50), Fraction(1, 2) + gamma + slack)
    pf = float(p)
    if Fraction(pf) < p:
        pf = math.nextafter(pf, math.inf)
    top = math.ceil(p * 2 ** 53) >> 45
    rng = random.Random(seed)
    draws = [[rng.random() for _ in range(n)] for _ in range(n)]
    ties = sum(int(x * 2 ** 53) >> 45 == top for row in draws for x in row)
    adj = [[x < pf for x in row] for row in draws]
    rows = [sum(adj[a]) for a in range(n)]
    for a in range(n):
        while rows[a] < delta:
            b = rng.randrange(n)
            if not adj[a][b]:
                adj[a][b] = True
                rows[a] += 1
    cols = [sum(col) for col in zip(*adj)]
    for b in range(n):
        while cols[b] < delta:
            a = rng.randrange(n)
            if not adj[a][b]:
                adj[a][b] = True
                cols[b] += 1
    return [sum(1 << b for b in range(n) if adj[a][b]) for a in range(n)], ties


# (gamma, slack): slack 0 leaves about half the rows and columns to patch,
# 1/2 + 2/7 + 1/3 is capped at 49/50, and two put p at or below one half
PARAMS = [
    (Fraction(3, 10), Fraction(1, 20)),
    (Fraction(1, 10), Fraction(0)),
    (Fraction(3, 10), Fraction(0)),
    (Fraction(2, 7), Fraction(1, 3)),
    (Fraction(0), Fraction(0)),
    (Fraction(-1, 9), Fraction(1, 20)),
]
SPECS = [(n, seed, gamma, slack)
         for n, seed in [(1, 0), (2, 5), (3, 1), (7, 2), (16, 3), (31, 4), (48, 8), (64, 9), (64, 11)]
         for gamma, slack in PARAMS]


def test_gen_host_is_the_per_draw_loop():
    assert len(SPECS) >= 50
    ties = 0
    for n, seed, gamma, slack in SPECS:
        g = gen_host(InstanceSpec("host-random-min-degree", n, seed,
                                  {"gamma": gamma, "slack": slack}))
        want, spec_ties = per_draw_host(n, seed, gamma, slack)
        assert list(g.adj_a) == want, (n, seed, gamma, slack)
        ties += spec_ties
    # the specs reach the draws that the top byte does not decide
    assert ties >= 20


def test_gen_host_reads_w1_when_w0_ties():
    """p put on the first draw's (w0 >> 5) * 2^26 plus 2^25, so that draw's
    coin is w1 >> 6 < 2^25, which the top 27 bits leave open."""
    outcomes = set()
    for seed in range(40):
        v = int(random.Random(seed).random() * 2 ** 53)
        if not 2 ** 52 <= v < 2 ** 53 * 49 // 50:
            continue
        slack = Fraction((v >> 26 << 26) + 2 ** 25, 2 ** 53) - Fraction(1, 2)
        g = gen_host(InstanceSpec("host-random-min-degree", 8, seed,
                                  {"gamma": Fraction(0), "slack": slack}))
        want, _ = per_draw_host(8, seed, Fraction(0), slack)
        assert list(g.adj_a) == want, seed
        outcomes.add(v % 2 ** 26 < 2 ** 25)
    assert outcomes == {False, True}


# sha256 of adj_a of the hosts the three benchmark workloads build: an
# embed-512 seed, and the first hamilton-threshold and cli-1024 instance at
# workload seed 1
PINNED = [
    (512, 40_001, {"gamma": Fraction(3, 10), "slack": Fraction(1, 20)},
     "7aceda03c148886551cf1da245c8adc27a37cc2a96f2b4b8ca7a95ef67e6c6c9"),
    (400, 1_380_939_752, {"gamma": Fraction(2, 400)},
     "00a7105293184843fed4b9dca247e35ead419287bffc54b6638c211495db42ba"),
    (1024, 542_412_318, {"gamma": Fraction(3, 10), "slack": Fraction(1, 20)},
     "bfa550c93ee96b79a743a49827bf1e50a94b07dc96896b7a85c2bad3639ba256"),
]


@pytest.mark.parametrize("n,seed,params,digest", PINNED)
def test_pinned_benchmark_hosts(n, seed, params, digest):
    g = gen_host(InstanceSpec("host-random-min-degree", n, seed, dict(params)))
    assert hashlib.sha256(json.dumps(list(g.adj_a)).encode()).hexdigest() == digest


def test_random_is_two_words_of_getrandbits():
    """What gen_host's bulk draw relies on: ``random()`` is
    ((w0 >> 5) * 2^26 + (w1 >> 6)) / 2^53 for the next two 32-bit words,
    which ``getrandbits`` packs little-endian, and both leave the generator
    in the same state."""
    for seed in range(500):
        one, bulk = random.Random(seed), random.Random(seed)
        lanes = bulk.getrandbits(64 * 3)
        for t in range(3):
            w0 = lanes >> 64 * t & 0xFFFFFFFF
            w1 = lanes >> 64 * t + 32 & 0xFFFFFFFF
            assert one.random() == ((w0 >> 5) * 2 ** 26 + (w1 >> 6)) / 2 ** 53
        assert one.getstate() == bulk.getstate()


def test_gen_host_raises_when_a_degree_is_short(monkeypatch):
    build = BipartiteGraph._from_flat
    # drop every edge of A0 after patching
    monkeypatch.setattr(BipartiteGraph, "_from_flat", staticmethod(
        lambda size_a, size_b, flat: build(size_a, size_b, bytes(size_b) + flat[size_b:])
    ))
    with pytest.raises(GraphError, match=r"gen_host: minimum degree 0 is below the bound 13"):
        gen_host(InstanceSpec("host-random-min-degree", 16, 1, {"gamma": Fraction(3, 10)}))


def test_gen_target_raises_when_the_bandwidth_exceeds_the_window(monkeypatch):
    target = generators._target
    # label one colour class before the other
    monkeypatch.setattr(generators, "_target", lambda n, keys, colour, edges, order:
                        target(n, keys, colour, edges, sorted(order, key=colour)))
    with pytest.raises(GraphError, match=r"gen_target: bandwidth \d+ exceeds the window 4"):
        gen_target(InstanceSpec("target-random-local", 16, 1, {"window": 4}))


@pytest.mark.parametrize("kind,n,params,field", [
    ("host-random-min-degree", 0, {}, "n = 0"),
    ("host-random-min-degree", -4, {"gamma": Fraction(3, 10)}, "n = -4"),
    ("host-planted-blocks", -6, {"blocks": -2, "block_size": 3}, "blocks = -2"),
    ("host-planted-blocks", 0, {"blocks": 0}, "blocks = 0"),
    ("host-planted-blocks", 6, {"blocks": 2, "block_size": 0}, "block_size = 0"),
    ("host-planted-blocks", 1, {"blocks": 2}, "block_size = 0"),
])
def test_gen_host_refuses_a_side_below_one(monkeypatch, kind, n, params, field):
    """Before anything is drawn, naming the field."""
    monkeypatch.setattr(generators.random, "Random", lambda *a: pytest.fail("drew"))
    with pytest.raises(GraphError, match=rf"gen_host: {field} is below 1"):
        gen_host(InstanceSpec(kind, n, 1, params))


@pytest.mark.parametrize("n,params", [
    (100, {"blocks": 2, "block_size": 3}),
    (7, {"blocks": 2}),
])
def test_planted_blocks_refuse_an_n_they_do_not_build(n, params):
    # both used to return a 6 + 6 host: n was ignored, or rounded down
    with pytest.raises(GraphError, match=rf"gen_host: n = {n} is not blocks \* block_size = 6"):
        gen_host(InstanceSpec("host-planted-blocks", n, 1, params))
    assert gen_host(InstanceSpec("host-planted-blocks", 6, 1, params)).size_a == 6
