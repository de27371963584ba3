"""The three workloads: how each sets up its inputs, runs one operation, and
checks and summarises what the operation returned.

Functions of bipembed are looked up on their modules at call time, so the
tracer's wrappers see the benchmark's own calls as well as the package's.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from bipembed import cli, embedder, generators, hamilton
from bipembed.generators import InstanceSpec

import checks
from checks import require

HERE = os.path.dirname(os.path.abspath(__file__))


def derive(seed: int, *parts) -> int:
    """A sub-seed that depends only on the workload seed and the parts."""
    return random.Random(":".join(map(str, (seed,) + parts))).randrange(1 << 31)


def gids(pairs) -> list:
    return [[2 * v.index + (v.side.value == "B") for v in p] for p in pairs]


def cert_summary(certs: dict) -> list:
    return [[list(key) if isinstance(key, tuple) else key, c.verdict.value, c.samples_used]
            for key, c in sorted(certs.items())]


def check_certificates(rows: list[int], certs) -> None:
    """Recompute the witness of every refuting certificate."""
    for c in certs:
        if c.witness is not None:
            u, w = c.pair
            checks.check_witness(
                rows, u.bits, w.bits, c.base_density,
                c.witness.subset_u.bits, c.witness.subset_w.bits,
                c.witness.witness_density, c.witness.deviation, c.params.epsilon,
            )


class Embed512:
    """Criterion-1 instances: random hosts (n=512, gamma=3/10, slack 1/20),
    the zig-zag labelled cycle C_1024, the practical configuration."""

    name = "embed-512"
    setups = 5
    n = 512
    gamma = Fraction(3, 10)
    epsilon = Fraction(1, 4)

    def setup(self, seed: int, i: int):
        # the acceptance suite's 20 criterion-1 seeds, five per run
        s = random.Random(f"{self.name}:{seed}").sample(range(20), self.setups)[i]
        g = generators.gen_host(InstanceSpec(
            "host-random-min-degree", self.n, 40_000 + s,
            {"gamma": self.gamma, "slack": Fraction(1, 20)},
        ))
        h, lab = generators.gen_target(InstanceSpec("target-hamilton-cycle", self.n))
        return {"seed": s, "g": g, "h": h, "lab": lab}

    def check_input(self, inst) -> None:
        g, h, lab = inst["g"], inst["h"], inst["lab"]
        checks.check_host(g.size_a, g.size_b, list(g.adj_a),
                          checks.min_degree_bound(self.n, self.gamma))
        order = [(v.side.value, v.index) for v in lab.order]
        checks.check_labelling(order, list(h.adj_a), self.n, lab.bandwidth, 2)

    def op_key(self, inst, round_no: int):
        return inst["seed"]

    def op(self, inst, round_no: int):
        cfg = embedder.EmbedConfig(
            mode="practical", epsilon=self.epsilon, d=Fraction(3, 10),
            k0=8, ell=64, sample_budget=800, pipeline_retries=8,
        )
        return embedder.embed_bipartite(
            inst["g"], inst["h"], self.gamma, 2, cfg, seed=inst["seed"], labelling=inst["lab"],
        )

    def check(self, inst, res) -> dict:
        g, h = inst["g"], inst["h"]
        mapping = {(a.side.value, a.index): (b.side.value, b.index)
                   for a, b in res.embedding.mapping.items()}
        checks.check_embedding(mapping, list(h.adj_a), self.n, list(g.adj_a), self.n)
        build = res.state.build
        part = build.partition
        checks.check_partition(
            [c.bits for c in part.clusters_a], [c.bits for c in part.clusters_b],
            part.exceptional_a.bits, part.exceptional_b.bits, self.n, self.epsilon,
        )
        state_certs = list(res.state.matching_certificates.values()) + list(
            res.state.offset_certificates.values())
        check_certificates(list(g.adj_a), list(build.reduced.certificates.values()) + state_certs)
        require(res.report.verdict == "verified-embedding", f"verdict {res.report.verdict}")
        return {
            "seed": inst["seed"],
            "embedding": sorted(gids(res.embedding.mapping.items())),
            "report": [[s.stage, s.ok, s.detail] for s in res.report.stages],
            "verdict": res.report.verdict,
            "build_certificates": cert_summary(build.reduced.certificates),
            "matching_certificates": cert_summary(res.state.matching_certificates),
            "offset_certificates": cert_summary(res.state.offset_certificates),
        }


class Cli1024:
    """The command line at n=1024: gen-host and gen-target set up, then an
    embed and verify command pair per operation.  Commands run as
    subprocesses, or in-process through ``bipembed.cli.main`` when traced."""

    name = "cli-1024"
    setups = 1
    # one operation takes about 14 s; the run's median is that of two
    min_ops = 2
    n = 1024
    gamma = "3/10"
    window = 4

    def __init__(self, workdir: str, src: str, in_process: bool, clock):
        self.workdir = workdir
        self.src = src
        self.in_process = in_process
        self.clock = clock
        self.host_rows: dict[str, list[int]] = {}

    def command(self, argv: list[str], cwd: str) -> str:
        """Run one bipembed command; return its standard output."""
        if self.in_process:
            out = io.StringIO()
            old = os.getcwd()
            os.chdir(cwd)
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
            finally:
                os.chdir(old)
            text = out.getvalue()
        else:
            # the child samples the reference itself; see sampled_cli.py
            env = dict(os.environ, PYTHONPATH=self.src)
            samples = os.path.join(self.workdir, "samples.json")
            with self.clock.paused():
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "sampled_cli.py"), samples] + argv,
                    cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                )
            if os.path.exists(samples):
                with open(samples) as f:
                    got = json.load(f)
                os.remove(samples)
                self.clock.absorb(got["refs"], got["in_tick"])
            code, text = proc.returncode, proc.stdout
            if code:
                sys.stderr.write(proc.stderr)
        if code != 0:
            raise RuntimeError(f"bipembed {argv[0]} exited with {code}")
        return text

    def setup(self, seed: int, i: int):
        d = os.path.join(self.workdir, f"instance-{i}")
        os.makedirs(d, exist_ok=True)
        s = derive(seed, self.name, i)
        self.command(["gen-host", "--n", str(self.n), "--gamma", self.gamma, "--slack", "1/20",
                      "--seed", str(s), "--out", "g.bg"], d)
        out = self.command(["gen-target", "--family", "random-local", "--n", str(self.n),
                            "--window", str(self.window), "--max-degree", "3", "--seed", str(s),
                            "--out", "h.bg", "--labelling-out", "h.lab"], d)
        return {"seed": s, "dir": d, "gen_target_stdout": out}

    def check_input(self, inst) -> None:
        d = inst["dir"]
        n_a, n_b, rows = checks.read_bg(os.path.join(d, "g.bg"))
        checks.check_host(n_a, n_b, rows, checks.min_degree_bound(self.n, Fraction(self.gamma)))
        self.host_rows[d] = rows
        tn_a, tn_b, trows = checks.read_bg(os.path.join(d, "h.bg"))
        require(tn_a == tn_b == self.n, "target is not balanced on 2n vertices")
        words = inst["gen_target_stdout"].replace(",", " ").split()
        declared = int(words[words.index("bandwidth") + 1])
        order = checks.read_order(os.path.join(d, "h.lab"))
        checks.check_labelling(order, trows, self.n, declared, self.window)
        inst["target_rows"] = trows

    def op_key(self, inst, round_no: int):
        return inst["seed"]

    def op(self, inst, round_no: int):
        d = inst["dir"]
        self.command(["embed", "--host", "g.bg", "--target", "h.bg", "--labelling", "h.lab",
                      "--gamma", self.gamma, "--max-degree", "3", "--seed", str(inst["seed"]),
                      "--out", "emb.json", "--report", "report.json"], d)
        return self.command(["verify", "--host", "g.bg", "--target", "h.bg",
                             "--embedding", "emb.json"], d)

    def check(self, inst, verify_stdout: str) -> dict:
        d = inst["dir"]
        require("verification passed" in verify_stdout, "verify did not pass")
        mapping = checks.read_embedding(os.path.join(d, "emb.json"))
        checks.check_embedding(mapping, inst["target_rows"], self.n, self.host_rows[d], self.n)
        with open(os.path.join(d, "report.json")) as f:
            report_text = f.read()
        require(json.loads(report_text).get("verdict") == "verified-embedding",
                "run report verdict is not verified-embedding")
        with open(os.path.join(d, "emb.json")) as f:
            embedding_text = f.read()
        return {"seed": inst["seed"], "embedding": embedding_text, "report": report_text}


class HamiltonThreshold:
    """find_hamilton_cycle on random hosts at the Moon-Moser threshold:
    gen_host with gamma = 2/n at n=400 (min degree n/2 + 2)."""

    name = "hamilton-threshold"
    setups = 5
    n = 400

    def setup(self, seed: int, i: int):
        g = generators.gen_host(InstanceSpec(
            "host-random-min-degree", self.n, derive(seed, self.name, i),
            {"gamma": Fraction(2, self.n)},
        ))
        return {"seed": seed, "index": i, "g": g}

    def check_input(self, inst) -> None:
        g = inst["g"]
        checks.check_host(g.size_a, g.size_b, list(g.adj_a),
                          checks.min_degree_bound(self.n, Fraction(2, self.n)))

    def op_key(self, inst, round_no: int):
        return derive(inst["seed"], self.name, "search", round_no, inst["index"])

    def op(self, inst, round_no: int):
        return hamilton.find_hamilton_cycle(inst["g"], seed=self.op_key(inst, round_no))

    def check(self, inst, cycle) -> dict:
        order = [(v.side.value, v.index) for v in cycle.order]
        checks.check_cycle(order, list(inst["g"].adj_a), self.n)
        return {"cycle": [2 * i + (s == "B") for s, i in order]}


NAMES = [Embed512.name, Cli1024.name, HamiltonThreshold.name]


def make(name: str, workdir: str, src: str, traced: bool, clock):
    if name == Cli1024.name:
        return Cli1024(workdir, src, traced, clock)
    return {w.name: w for w in (Embed512, HamiltonThreshold)}[name]()


def uses_children(workload) -> bool:
    """True when the workload's program runs in child processes."""
    return isinstance(workload, Cli1024) and not workload.in_process
