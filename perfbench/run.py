"""Benchmark of bipembed: three workloads, end-to-end metrics, and a traced
run for per-layer metrics.  Run from the repository root:

    python3 perfbench/run.py --workload embed-512 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One run sets up the workload's inputs from ``--seed`` (timed: ``setup_s``),
then runs whole rounds of operations, one per input, until the operations
have taken ``--seconds`` seconds and at least the workload's ``min_ops``
operations were attempted.  Set-up and operation times are reported at a
fixed machine speed, measured with a reference computation that runs
beside them (``reference.py``); the wall times are printed too.  Every output is checked by the
benchmark's own code (``checks.py``).  With ``--trace 1`` each operation
runs untraced and then traced on the same input, and the run reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results and spans are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_min": "1/min", "peak_rss_mb": "MB"}


def import_workloads():
    """Import the workloads against the checkout's own ``src/bipembed``."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import bipembed
    except ImportError as e:
        sys.exit(f"cannot import bipembed from {SRC}: {e}")
    if os.path.dirname(os.path.dirname(os.path.abspath(bipembed.__file__))) != SRC:
        sys.exit(f"bipembed was imported from {bipembed.__file__}, not from {SRC}")
    import tracing
    import workloads
    return workloads, tracing


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def run_workload(workloads, tracing, name: str, seed: int, seconds: float, traced: bool) -> dict:
    from checks import CheckFailed
    from reference import Clock

    workdir = os.path.join(OUT, "work", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    clock = Clock()
    w = workloads.make(name, workdir, SRC, traced, clock)
    tracer = tracing.Tracer() if traced else None
    correct = True
    attempted = failed = verified = 0
    # times at the reference speed (see reference.py), and as measured
    setup_times: list[float] = []
    op_times: list[float] = []
    traced_times: list[float] = []
    wall: dict[str, list[float]] = {"setup": [], "op": [], "traced": []}
    first_records: list = []
    records_by_key: dict = {}
    try:
        instances = []
        for i in range(w.setups):
            with clock.step(), tracer.operation(f"setup-{i}") if traced else nullcontext():
                inst = w.setup(seed, i)
            wall["setup"].append(clock.last[0])
            setup_times.append(clock.last[1])
            w.check_input(inst)
            instances.append(inst)

        spent = 0.0
        round_no = 0
        while round_no == 0 or spent < seconds or attempted < getattr(w, "min_ops", 1):
            for inst in instances:
                key = json.dumps(w.op_key(inst, round_no))
                for traced_pass in ((False, True) if traced else (False,)):
                    attempted += 1
                    try:
                        ctx = tracer.operation(f"op-{len(traced_times)}") if traced_pass else nullcontext()
                        with clock.step(), ctx:
                            out = w.op(inst, round_no)
                    except Exception:
                        failed += 1
                        traceback.print_exc()
                        continue
                    finally:
                        spent += clock.last[0]
                        wall["traced" if traced_pass else "op"].append(clock.last[0])
                        (traced_times if traced_pass else op_times).append(clock.last[1])
                    try:
                        record = w.check(inst, out)
                    except CheckFailed as e:
                        correct = False
                        print(f"check failed: {e}", file=sys.stderr)
                        continue
                    if key in records_by_key and records_by_key[key] != record:
                        correct = False
                        print(f"operation {key} gave a different output on a repeat", file=sys.stderr)
                        continue
                    if key not in records_by_key:
                        records_by_key[key] = record
                        if round_no == 0:
                            first_records.append(record)
                    if not traced_pass:
                        verified += 1
            round_no += 1
    except CheckFailed as e:
        correct = False
        print(f"input check failed: {e}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = hashlib.sha256(json.dumps(first_records, sort_keys=True).encode()).hexdigest()
    print(f"digest {name} seed={seed}: {digest}")
    if traced:
        metrics = tracer.layer_metrics(len(setup_times), max(len(traced_times), 1))
        if op_times and traced_times:
            metrics["trace.overhead_pct"] = (
                statistics.median(traced_times) / statistics.median(op_times) - 1) * 100
        units = tracing.UNITS
    else:
        metrics = {}
        if setup_times:
            metrics["setup_s"] = statistics.median(setup_times)
        if op_times:
            metrics["op_p50_s"] = statistics.median(op_times)
            metrics["ops_per_min"] = 60 * verified / sum(op_times)
        metrics["peak_rss_mb"] = peak_rss_mb(workloads.uses_children(w))
        units = END_TO_END_UNITS
    for m, v in metrics.items():
        print(f"{name} {m} = {v:.6g} {units[m]}")
    for step, times in wall.items():
        if times:
            print(f"{name} {step} wall median = {statistics.median(times):.6g} s "
                  f"(min {min(times):.6g}, max {max(times):.6g}, n {len(times)})")
    print(f"{name} reference median = {statistics.median(clock.refs):.6g} s "
          f"(min {min(clock.refs):.6g}, max {max(clock.refs):.6g}, n {len(clock.refs)})")
    print(f"{name} attempted {attempted} failed {failed} correct {correct} "
          f"(ops {len(op_times)}, set-ups {len(setup_times)})")

    result = {
        "correct": correct and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    with open(os.path.join(OUT, "results", stem + ".json"), "w") as f:
        json.dump(dict(result, digest=digest, setup_times=setup_times, op_times=op_times,
                       traced_times=traced_times, wall_times=wall, reference_times=clock.refs),
                  f, indent=1)
    if traced:
        tracer.write(os.path.join(OUT, "results", stem + ".spans.jsonl"))
    return result


def run_all(args, names) -> dict:
    """Run each workload in its own process and combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for m, v in res["metrics"].items():
            combined["metrics"][f"{name}/{m}"] = v
    return combined


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    workloads, tracing = import_workloads()
    if args.workload == "all":
        result = run_all(args, workloads.NAMES)
    elif args.workload in workloads.NAMES:
        result = run_workload(workloads, tracing, args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        sys.exit(f"unknown workload {args.workload!r}; choose from {workloads.NAMES + ['all']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
