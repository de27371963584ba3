"""The benchmark under ``perfbench/`` traces bipembed's layers by name and
reads fields of its results; every function it names must exist, and one
operation of each in-process workload must still pass the benchmark's own
checks and give the recorded output."""

import hashlib
import importlib
import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    importlib.import_module("workloads")  # binds bipembed names at import
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for module, name, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def rederive(seed: int) -> str:
    """The benchmark run whose operations a declared re-baseline copies
    the recorded digests from."""
    return f"python3 perfbench/run.py --workload all --seed {seed} --seconds 0 --trace 0"


# sha256 of the check record of instance 0 at seed 1, round 0; a change of
# behaviour that is declared a re-baseline updates these
RECORDS = {
    "embed-512": "d7a22595aa8c3da90da66f467b6d9e1d0dde4b4ae5dc09d5f6b18a487fd2827d",
    "hamilton-threshold": "a79724edd1e80b888187aed7a1d56093fb12e6e51ebf152c4890936c32f6a54a",
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_one_operation_passes_the_benchmark_checks(monkeypatch, name):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    w = {cls.name: cls for cls in (workloads.Embed512, workloads.HamiltonThreshold)}[name]()
    inst = w.setup(1, 0)
    w.check_input(inst)
    record = w.check(inst, w.op(inst, 0))
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    assert digest == RECORDS[name], f"{name} record {digest}, an operation of `{rederive(1)}`"


def test_traced_pair_checks_do_not_depend_on_the_core_count(monkeypatch):
    """A helper's checks reach the tracer through the caller's own
    ``check_regular_pair`` call, so one ``embed-512`` operation reads the
    same pair checks and samples on one core as on two."""
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    from bipembed import regularity

    w = workloads.Embed512()
    inst = w.setup(1, 0)
    counts = []
    for cores in (1, 2):
        monkeypatch.setattr(regularity, "_cores", lambda: cores)
        tracer = tracing.Tracer()
        with tracer.operation("op-0"):
            w.op(inst, 0)
        m = tracer.layer_metrics(0, 1)
        counts.append((m["regularity.pair_checks"], m["regularity.samples"]))
    assert counts == [(20, 16_000)] * 2


def test_one_command_line_operation_passes_the_benchmark_checks(monkeypatch, tmp_path):
    """``cli-1024`` runs ``bipembed.cli.main`` in-process when traced, so
    drift in the command line or the file formats shows here."""
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    reference = importlib.import_module("reference")
    src = os.path.join(os.path.dirname(PERFBENCH), "src")
    w = workloads.make("cli-1024", str(tmp_path), src, True, reference.Clock())
    inst = w.setup(1, 0)
    w.check_input(inst)
    record = w.check(inst, w.op(inst, 0))
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    assert digest == "93760a822f5514bfe43fcf1e596aaefd2a58a63391852f9b8ab3a32233e30f49", (
        f"cli-1024 record {digest}, an operation of `{rederive(1)}`"
    )


def test_benchmark_reader_skips_the_row_index(monkeypatch, tmp_path):
    """``cli-1024`` checks the files ``gen-host`` and ``gen-target`` write
    with ``checks.read_bg``; the row index is comment lines, which it skips,
    so it reads the rows ``write_graph`` was given."""
    monkeypatch.syspath_prepend(PERFBENCH)
    checks = importlib.import_module("checks")
    from bipembed.fileio import write_graph
    from bipembed.generators import InstanceSpec, gen_host, gen_target

    graphs = [
        gen_host(InstanceSpec("host-random-min-degree", 64, 3, {"gamma": "3/10"})),
        gen_target(InstanceSpec("target-random-local", 64, 5, {"window": 4, "max_degree": 3}))[0],
    ]
    for i, g in enumerate(graphs):
        path = str(tmp_path / f"g{i}.bg")
        write_graph(path, g)
        assert checks.read_bg(path) == (g.size_a, g.size_b, list(g.adj_a))


# the digest lines ``perfbench/run.py --workload all`` prints at seeds 1, 4
# and 17 (one set-up per instance, one operation each): a moved
# certificate, embedding or Hamilton cycle changes them, whichever process
# sampled or searched
DIGESTS = {
    "embed-512": {
        1: "98184e06409a559c990acfc90fd9b6b523f274d9709484a3306e648057a2e4cf",
        4: "95767498600bbd1d9b5afa72c7a88ed6edeb19bb68e520d2043b20e97314f499",
        17: "53e62111ae701cfd1d37c8921c73d41027e37c7a843d33a13de41f0df721d955",
    },
    "cli-1024": {
        1: "9324a4f5208c3bf1924c1e63ad79a477df4637dbeab3fbccb978323f51d9aad3",
        4: "a2e5890fff5efaee3c6e5fc2ae74a050b79ee42d92fcc8507411bb8eda3f2f07",
        17: "4c33a34febfca456c2e3e0e7f547fa478919eb06681cf5b8dc738ec0e9a7c7eb",
    },
    "hamilton-threshold": {
        1: "71963526a88e8afdbd739df0f56a009c925f837f7368e2e3f8129c4aa24085dc",
        4: "b3ad100ea679526e50a03ff2bc9f4d93e5ae6cd9dc4191d9ac30ae7d6208d851",
        17: "b6e15807d9825fad8d56d90e59e04d8a23e0ac268e029f12c123ba34314793b1",
    },
}


@pytest.fixture(scope="module")
def printed_lines():
    """Every line one ``--workload all`` run prints, for each seed; the
    seeds' runs go side by side."""
    runs = [
        subprocess.Popen(
            [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", "all",
             "--seed", str(seed), "--seconds", "0", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in sorted(next(iter(DIGESTS.values())))
    ]
    lines = []
    try:
        for run in runs:
            out, err = run.communicate(timeout=600)
            assert run.returncode == 0, err
            lines += out.splitlines()
    finally:
        for run in runs:
            run.kill()
            run.wait()
    return lines


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_the_benchmark_prints_the_recorded_digest(printed_lines, name):
    printed = {}
    for seed in DIGESTS[name]:
        head = f"digest {name} seed={seed}: "
        printed[seed] = [line[len(head):] for line in printed_lines if line.startswith(head)]
    assert printed == {seed: [digest] for seed, digest in DIGESTS[name].items()}, "; ".join(
        f"`{rederive(seed)}` printed {name} {digests}" for seed, digests in printed.items()
    )
