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


# sha256 of the check record of instance 0 at seed 1, round 0; a change of
# behaviour that is declared a re-baseline updates these
RECORDS = {
    "embed-512": "8490d8139e7313930fe2d69a8ddeae438bcb2d83aa3f9af741971e9dc480ff30",
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
    assert digest == RECORDS[name]


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
    assert digest == "40f2e0ca4208ea5121b6966abb03dd12451c26407dd4843bb17d19bb6ca79d1d"


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
        1: "66818f1d397ab4c66700f0fa9769bb93a60d51fd6876daaa2a13f8a74ab06c63",
        4: "6c478beb7fff38832424cec5fb05893bedc27e6271e9869a20292aee51346742",
        17: "b57a3848b37b8c38878437dcc60270334520c649e7d2d282ac633a324ce48cf0",
    },
    "cli-1024": {
        1: "293afecc8f7babe8ccc0f3d9c52d052db403a3926203b1d3a8f1032da929c20b",
        4: "ee470db7ae38fb694069d0c991367f16f91b9455b3cf013a87c034a54646f439",
        17: "f11b5c38ee88b7cd7b2669070657a78292854bce199d2c0500d18943ae8282f0",
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
    for seed, digest in DIGESTS[name].items():
        assert f"digest {name} seed={seed}: {digest}" in printed_lines
