"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is part of the default pytest run.
"""

import random
import time
from fractions import Fraction

from bipembed.embedder import (
    EmbedConfig,
    EmbeddingPipelineError,
    embed_bipartite,
    verify_embedding,
)
from bipembed.generators import InstanceSpec, gen_host, gen_target
from bipembed.graphs import Side, VertexId, VertexSet
from bipembed.hamilton import (
    HamiltonSearchError,
    find_hamilton_cycle,
    hamilton_cycle_exists,
    verify_cycle,
)
from bipembed.homomorphism import (
    BalanceError,
    balance_assignment,
    build_cycle_homomorphism,
    partition_pieces,
    verify_cycle_homomorphism,
)
from bipembed.partitioner import (
    candidate_index_set,
    derive_parameter_schedule,
    redistribute_cluster_sizes,
)
from bipembed.regularity import (
    ClusterPartition,
    RegularityParams,
    Strategy,
    Verdict,
    build_regular_partition,
    check_regular_pair,
    check_super_regular_pair,
    rebound_after_perturbation,
)

from helpers import (
    cycle_graph,
    oracle_find_embedding,
    oracle_is_valid_embedding,
    random_bipartite,
    random_min_degree,
)
from test_homomorphism import zigzag_labelling


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_end_to_end_embedding():
    """n=512, random host with min degree >= 0.8n, C_1024 target,
    practical config: verified embedding in >= 18 of 20 seeds, each < 120 s."""
    n = 512
    h = cycle_graph(n)
    lab = zigzag_labelling(n)
    assert lab.bandwidth == 2
    cfg = EmbedConfig(
        mode="practical", epsilon=Fraction(1, 4), d=Fraction(3, 10),
        k0=8, ell=64, sample_budget=800, pipeline_retries=8,
    )
    successes = 0
    worst = 0.0
    for seed in range(20):
        g = gen_host(InstanceSpec(
            "host-random-min-degree", n, 40_000 + seed,
            {"gamma": Fraction(3, 10), "slack": Fraction(1, 20)},
        ))
        assert g.min_degree() >= Fraction(8, 10) * n
        t0 = time.perf_counter()
        try:
            res = embed_bipartite(g, h, Fraction(3, 10), 2, cfg, seed=seed, labelling=lab)
            ok = bool(verify_embedding(g, h, res.embedding))
        except EmbeddingPipelineError:
            ok = False
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        successes += ok
        assert dt < 120, f"seed {seed} took {dt:.1f}s"
    report(
        "1 end-to-end embedding", successes >= 18,
        f"{successes}/20 verified, slowest run {worst:.1f}s (< 120s)",
    )


def test_criterion_2_zero_false_positives():
    """200 tiny random (G, H): every pipeline embedding passes the
    exhaustive subgraph-isomorphism oracle's validity check."""
    rng = random.Random(2)
    cfg = EmbedConfig(
        mode="practical", epsilon=Fraction(1, 2), d=Fraction(1, 5),
        k0=2, ell=4, sample_budget=120, pipeline_retries=3,
        embed_retries=8, size_slack=Fraction(3, 4),
    )
    returned = 0
    violations = 0
    for trial in range(200):
        n = rng.choice([3, 4, 5, 6])
        delta = n // 2 + 1
        g = random_min_degree(n, delta, 0.6, rng)
        h = cycle_graph(n)
        try:
            res = embed_bipartite(
                g, h, Fraction(1, 100), 2, cfg, seed=trial,
                labelling=zigzag_labelling(n),
            )
        except EmbeddingPipelineError:
            continue
        returned += 1
        if not oracle_is_valid_embedding(g, h, res.embedding.mapping):
            violations += 1
        # the oracle must agree such an embedding exists at all
        if oracle_find_embedding(g, h) is None:
            violations += 1
    report(
        "2 zero false positives", violations == 0,
        f"{returned}/200 runs returned an embedding, {violations} oracle violations",
    )


def test_criterion_3_moon_moser_suite():
    """100 random n=50 graphs with min degree 26: cycle found and verified
    100/100; on >= 200 tiny instances the heuristic matches the exhaustive
    oracle on existence exactly."""
    rng = random.Random(3)
    found = 0
    for trial in range(100):
        g = random_min_degree(50, 26, 0.52, rng)
        assert g.min_degree() >= 26
        cycle = find_hamilton_cycle(g, "rotation-extension", seed=trial)
        if verify_cycle(g, cycle):
            found += 1
    agree = 0
    total = 0
    for trial in range(200):
        n = rng.choice([3, 4, 5, 6, 7, 8])
        g = random_bipartite(n, rng.choice([0.35, 0.5, 0.7]), rng)
        exists = hamilton_cycle_exists(g)
        try:
            cycle = find_hamilton_cycle(g, "rotation-extension", seed=trial,
                                        restart_budget=200)
            got = bool(verify_cycle(g, cycle))
        except HamiltonSearchError:
            got = False
        total += 1
        agree += got == exists
    report(
        "3 Moon-Moser suite", found == 100 and agree == total,
        f"{found}/100 dense searches verified; oracle agreement {agree}/{total}",
    )


def test_criterion_4_balancing_suite():
    """k=8, n=8000, targets 1000, ell=200, xi=1/20, adversarial alternating
    pieces: success within 50 retries in >= 99/100 seeds; returned totals
    satisfy the exact bounds with zero tolerance."""
    k, n, ell = 8, 8000, 200
    targets = [1000] * k
    xi = Fraction(1, 20)
    x = [80 if j % 2 == 0 else 0 for j in range(ell)]
    y = [0 if j % 2 == 0 else 80 for j in range(ell)]
    assert sum(x) == n and sum(y) == n
    successes = 0
    for seed in range(100):
        try:
            res = balance_assignment(targets, x, y, xi, 50, seed)
        except BalanceError:
            continue
        # exact re-check of the bound, independent of the implementation
        bound = [Fraction(targets[i]) + xi * n for i in range(k)]
        ok = all(
            Fraction(res.a_totals[i]) < bound[i] and Fraction(res.b_totals[i]) < bound[i]
            for i in range(k)
        )
        recompute_a = [0] * k
        recompute_b = [0] * k
        for j, c in enumerate(res.phi):
            recompute_a[c] += x[j]
            recompute_b[c] += y[j]
        ok = ok and tuple(recompute_a) == res.a_totals and tuple(recompute_b) == res.b_totals
        assert ok, f"seed {seed}: returned assignment violates the exact bounds"
        successes += 1
    report(
        "4 balancing suite", successes >= 99,
        f"{successes}/100 seeds succeeded within 50 retries; bounds exact",
    )


def test_criterion_5_homomorphism_executable_theorem():
    """500 randomized inputs satisfying the construction's preconditions:
    ``verify_cycle_homomorphism``'s edge-by-edge homomorphism clause passes
    500/500, the linking set has size 2k*ell*beta_n exactly, and the clause
    checks match an independent recomputation."""
    rng = random.Random(5)
    runs = 0
    trial = 0
    while runs < 500:
        trial += 1
        kind = rng.choice(["cycle", "local"])
        if kind == "cycle":
            n = rng.choice([48, 64, 96, 128])
            h = cycle_graph(n)
            lab = zigzag_labelling(n)
            beta_n = rng.choice([2, 3])
        else:
            n = rng.choice([50, 80])
            h, lab = gen_target(InstanceSpec(
                "target-random-local", n, trial, {"window": 4, "max_degree": 3}
            ))
            beta_n = max(lab.bandwidth, rng.choice([3, 4]))
        k = rng.choice([2, 3, 4, 6])
        max_ell = (2 * n) // ((2 * k + 1) * beta_n)
        if max_ell < 1:
            continue
        ell = rng.randint(1, max_ell)
        pieces = partition_pieces(h, lab, ell)
        phi = [rng.randrange(k) for _ in range(ell)]
        hom = build_cycle_homomorphism(h, lab, pieces, phi, beta_n, k)
        assert len(hom.linking) == 2 * k * ell * beta_n
        targets = [n // k] * k
        xi = Fraction(rng.choice([1, 2]), 4)
        rep = verify_cycle_homomorphism(h, hom, targets, xi)  # verifies every edge
        # independent recomputation of every clause
        img = {}
        for xx, c in enumerate(hom.cluster_of_x):
            img[VertexId(Side.A, xx)] = ("A", c)
        for yy, c in enumerate(hom.cluster_of_y):
            img[VertexId(Side.B, yy)] = ("B", c)
        homo_ok = True
        match_ok = True
        for xx, yy in h.edges():
            a = img[VertexId(Side.A, xx)][1]
            b = img[VertexId(Side.B, yy)][1]
            if (b - a) % k not in (0, 1):
                homo_ok = False
            vx, vy = VertexId(Side.A, xx), VertexId(Side.B, yy)
            if vx not in hom.linking and vy not in hom.linking and a != b:
                match_ok = False
        link_ok = len(hom.linking) <= xi * 2 * k * n
        pre_ok = all(
            hom.preimage_a[i] < targets[i] + xi * n
            and hom.preimage_b[i] < targets[i] + xi * n
            for i in range(k)
        )
        assert rep.homomorphism.ok == homo_ok == True
        assert rep.matching_edges.ok == match_ok == True
        assert rep.linking_size.ok == link_ok
        assert rep.preimage_bounds.ok == pre_ok
        runs += 1
    report("5 homomorphism executable theorem", runs == 500,
           "500/500 constructions verified; clause checks match recomputation")


def test_criterion_6_redistribution_suite():
    """Planted clusters of 500 at density about 1/2, k=4, xi=1/10000,
    50 admissible delta vectors: exact final sizes, iteration count at most
    k*xi*n, and all 2k pairs re-certify at the weakened parameters
    (sampled, 2000 subset pairs) in 50/50 runs.

    At these values xi*n = 1/5, so the only admissible integer deltas are
    zero; the suite asserts exactly what the stated tolerances allow (the
    movement machinery is exercised with nonzero deltas in the unit tests).
    """
    k, m = 4, 500
    n = k * m
    xi = Fraction(1, 10000)
    rng = random.Random(6)
    g = random_bipartite(n, 0.5, rng)
    ca = tuple(
        VertexSet.from_indices(Side.A, n, range(i * m, (i + 1) * m)) for i in range(k)
    )
    cb = tuple(
        VertexSet.from_indices(Side.B, n, range(i * m, (i + 1) * m)) for i in range(k)
    )
    part = ClusterPartition(ca, cb, VertexSet(Side.A, n, 0), VertexSet(Side.B, n, 0))
    params = RegularityParams(Fraction(1, 4), Fraction(3, 10))
    cap = int(xi * n)  # = 0: the zero vector is the only admissible one

    def draw(seed):
        r = random.Random(seed)
        return [r.randint(-cap, cap) for _ in range(k - 1)] + [0]

    reb_eps = min(params.epsilon + 100 * k * Fraction(1, 100), Fraction(1))
    reb_d = max(params.d - 100 * k * k * Fraction(1, 100) - params.epsilon, Fraction(0))
    good = 0
    for seed in range(50):
        da = draw(seed)
        da[-1] = -sum(da[:-1])
        db = draw(1000 + seed)
        db[-1] = -sum(db[:-1])
        res = redistribute_cluster_sizes(g, part, da, db, xi, params)
        sizes_ok = (
            res.partition.sizes_a() == [m + d for d in da]
            and res.partition.sizes_b() == [m + d for d in db]
        )
        count_ok = res.iterations <= k * xi * n
        recert_ok = True
        reb = RegularityParams(reb_eps, reb_d)
        for i in range(k):
            c1 = check_super_regular_pair(g, check_regular_pair(
                g, res.partition.clusters_a[i], res.partition.clusters_b[i],
                reb, Strategy.SAMPLED, 2000, seed * 31 + i,
            ))
            c2 = check_regular_pair(
                g, res.partition.clusters_a[i], res.partition.clusters_b[(i + 1) % k],
                reb, Strategy.SAMPLED, 2000, seed * 37 + i,
            )
            if c1.verdict is not Verdict.SUPER_REGULAR or c2.verdict is not Verdict.REGULAR:
                recert_ok = False
        good += sizes_ok and count_ok and recert_ok
    report(
        "6 redistribution suite", good == 50,
        f"{good}/50 runs: exact sizes, iterations <= k*xi*n = {float(k * xi * n)}, "
        "all pairs re-certified at the weakened parameters",
    )


def test_criterion_7_perturbation_arithmetic():
    """100 random rational inputs with perfect-square perturbations: the
    weakened parameters match the closed forms exactly."""
    rng = random.Random(7)
    exact = 0
    for _ in range(100):
        eps = Fraction(rng.randint(1, 50), 100)
        d = Fraction(rng.randint(0, 100), 100)
        ra = Fraction(rng.randint(0, 20), 100)
        rb = Fraction(rng.randint(0, 20), 100)
        out = rebound_after_perturbation(RegularityParams(eps, d), ra * ra, rb * rb)
        want_eps = min(Fraction(1), eps + 3 * (ra + rb))
        want_d = max(Fraction(0), d - 2 * (ra * ra + rb * rb))
        exact += out.epsilon == want_eps and out.d == want_d
    report("7 perturbation arithmetic", exact == 100, f"{exact}/100 inputs exact")


def test_criterion_8_candidate_set_claim():
    """20 hosts with min degree >= (1/2+0.1)n and practical partitions:
    100 sampled vertex pairs per host all have candidate sets of size at
    least gamma*k; zero violations."""
    gamma = Fraction(1, 10)
    n, k0 = 256, 4
    violations = 0
    checked = 0
    for host_no in range(20):
        g = gen_host(InstanceSpec(
            "host-random-min-degree", n, 80_000 + host_no,
            {"gamma": gamma, "slack": Fraction(1, 10)},
        ))
        res = build_regular_partition(
            g, RegularityParams(Fraction(1, 4), Fraction(3, 10)), k0, 2 * k0,
            Strategy.SAMPLED, 300, host_no,
        )
        part = res.partition
        k = res.k
        rng = random.Random(host_no)
        for _ in range(100):
            x = VertexId(Side.A, rng.randrange(n))
            y = VertexId(Side.B, rng.randrange(n))
            got = candidate_index_set(g, x, y, part, Fraction(3, 10))
            checked += 1
            if len(got) < gamma * k:
                violations += 1
    report(
        "8 candidate-set claim", violations == 0,
        f"{checked} sampled pairs on 20 hosts, {violations} below gamma*k",
    )


def test_criterion_9_faithful_constant_audit():
    """Faithful schedules for gamma in {0.01, 0.02, 0.04} reproduce every
    asserted inequality by exact rational evaluation."""
    half = Fraction(1, 2)
    audited = 0
    for gamma in (Fraction(1, 100), Fraction(1, 50), Fraction(1, 25)):
        eps = gamma * gamma / 1000
        sched = derive_parameter_schedule(gamma, 2, eps, 2, "faithful")
        # independent exact recomputation of the whole chain
        d_embed = gamma * gamma / 100
        eps_p = eps ** 3 * gamma ** 3
        d_p = eps + gamma * gamma
        eps_pp = eps_p / (1 - 2 * eps_p)
        d_pp = d_p - 4 * eps_p
        shift = eps_pp / (gamma * (1 - eps_pp))
        d_hat = d_pp - 4 * shift
        assert sched.embed_density == d_embed
        assert sched.partition_epsilon == eps_p
        assert sched.partition_density == d_p
        assert sched.refined_epsilon == eps_pp
        assert sched.refined_density == d_pp
        assert sched.absorbed_density == d_hat
        # eps_pp + 6*sqrt(shift) <= eps/10, checked by exact squaring
        rhs = eps / 10 - eps_pp
        assert rhs >= 0 and 36 * shift <= rhs * rhs
        assert d_hat - eps >= 2 * d_embed
        assert gamma - d_p - eps_pp > 0
        assert (half + gamma - eps_pp) / (1 - d_pp) >= half + 2 * gamma / 3
        assert d_pp / (1 - d_pp) <= gamma / 6
        assert all(ok for _, ok in sched.checks)
        audited += 1
    report(
        "9 faithful constant audit", audited == 3,
        "all inequalities hold by exact rational evaluation for gamma in "
        "{1/100, 1/50, 1/25}",
    )
