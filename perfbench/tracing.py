"""Span tracing of bipembed's layers, from outside the package.

While an operation is traced, each public function listed in ``TARGETS`` is
replaced by a wrapper wherever a bipembed module binds it (the defining
module and every module that imported it by name), so calls made inside
the package are timed too.  Each call records a span (name, start, end,
parent span, operation id) and the counters its result carries.  Spans stay
in memory until the run writes them out.

A layer's time is the self time of its spans: duration minus the part
covered by child spans.  Per-layer metrics are reported per traced
operation plus per set-up, so runs of different lengths compare.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager


def _path_size(args, kwargs) -> int:
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _count_pair_check(c, args, kwargs, result, error):
    if result is not None:
        c["pair_checks"] = 1
        c["samples"] = result.samples_used
        c["refutations"] = int(result.verdict.value == "certified-irregular")


def _count_rounds(c, args, kwargs, result, error):
    if result is not None:
        c["partition_rounds"] = result.rounds


def _count_moves(c, args, kwargs, result, error):
    if result is not None:
        c["vertex_moves"] = result.vertex_moves


def _count_balance(c, args, kwargs, result, error):
    c["balance_failures"] = int(error is not None)


def _count_attempts(c, args, kwargs, result, error):
    report = result.report if result is not None else getattr(error, "report", None)
    if report is not None:
        c["pipeline_attempts"] = sum(s.stage == "distribution" for s in report.stages)


def _count_read(c, args, kwargs, result, error):
    c["bytes_read"] = _path_size(args, kwargs)


def _count_write(c, args, kwargs, result, error):
    c["bytes_written"] = _path_size(args, kwargs)


# (module, function, span name, counter hook)
TARGETS = [
    ("bipembed.generators", "gen_host", "generators.gen_host", None),
    ("bipembed.generators", "gen_target", "generators.gen_target", None),
    ("bipembed.fileio", "read_graph", "fileio.read_graph", _count_read),
    ("bipembed.fileio", "read_labelling", "fileio.read_other", _count_read),
    ("bipembed.fileio", "read_json", "fileio.read_other", _count_read),
    ("bipembed.fileio", "write_graph", "fileio.write", _count_write),
    ("bipembed.fileio", "write_labelling", "fileio.write", _count_write),
    ("bipembed.fileio", "write_json", "fileio.write", _count_write),
    ("bipembed.regularity", "check_regular_pair", "regularity.pair_check", _count_pair_check),
    ("bipembed.regularity", "check_super_regular_pair", "regularity.super_pair_check", None),
    ("bipembed.regularity", "build_regular_partition", "regularity.build_partition", _count_rounds),
    ("bipembed.hamilton", "find_hamilton_cycle", "hamilton.find_cycle", None),
    ("bipembed.partitioner", "prepare_host_partition", "partitioner.phase1", None),
    ("bipembed.partitioner", "resize_host_partition", "partitioner.phase2", None),
    ("bipembed.partitioner", "redistribute_cluster_sizes", "partitioner.redistribute", _count_moves),
    ("bipembed.homomorphism", "partition_pieces", "homomorphism.pieces", None),
    ("bipembed.homomorphism", "balance_assignment", "homomorphism.balance", _count_balance),
    ("bipembed.homomorphism", "build_cycle_homomorphism", "homomorphism.build", None),
    ("bipembed.homomorphism", "verify_cycle_homomorphism", "homomorphism.verify", None),
    ("bipembed.embedder", "compatibility_report", "embedder.compatibility", None),
    ("bipembed.embedder", "embed_compatible", "embedder.embed_compatible", None),
    ("bipembed.embedder", "verify_embedding", "embedder.verify", None),
    ("bipembed.embedder", "embed_bipartite", "embedder.pipeline", _count_attempts),
    ("bipembed.cli", "cmd_embed", "cli.embed_cmd", None),
    ("bipembed.cli", "cmd_verify", "cli.verify_cmd", None),
]

# metric -> (unit, kind, spans or counter); kind "self" sums the self time
# of the named spans, "calls" counts them, "count" sums a counter
LAYER_METRICS = {
    "generators.gen_host_s": ("s", "self", ["generators.gen_host"]),
    "generators.gen_target_s": ("s", "self", ["generators.gen_target"]),
    "fileio.read_graph_s": ("s", "self", ["fileio.read_graph"]),
    "fileio.read_other_s": ("s", "self", ["fileio.read_other"]),
    "fileio.write_s": ("s", "self", ["fileio.write"]),
    "fileio.bytes_read": ("B", "count", "bytes_read"),
    "fileio.bytes_written": ("B", "count", "bytes_written"),
    "regularity.pair_checks": ("count", "count", "pair_checks"),
    "regularity.pair_check_s": ("s", "self", ["regularity.pair_check", "regularity.super_pair_check"]),
    "regularity.samples": ("count", "count", "samples"),
    "regularity.refutations": ("count", "count", "refutations"),
    "regularity.build_partition_s": ("s", "self", ["regularity.build_partition"]),
    "regularity.partition_rounds": ("count", "count", "partition_rounds"),
    "hamilton.find_cycle_s": ("s", "self", ["hamilton.find_cycle"]),
    "hamilton.calls": ("count", "calls", ["hamilton.find_cycle"]),
    "partitioner.phase1_s": ("s", "self", ["partitioner.phase1"]),
    "partitioner.phase2_s": ("s", "self", ["partitioner.phase2"]),
    "partitioner.phase2_calls": ("count", "calls", ["partitioner.phase2"]),
    "partitioner.redistribute_s": ("s", "self", ["partitioner.redistribute"]),
    "partitioner.vertex_moves": ("count", "count", "vertex_moves"),
    "homomorphism.distribution_s": ("s", "self", [
        "homomorphism.pieces", "homomorphism.balance", "homomorphism.build", "homomorphism.verify",
    ]),
    "homomorphism.balance_calls": ("count", "calls", ["homomorphism.balance"]),
    "homomorphism.balance_failures": ("count", "count", "balance_failures"),
    "homomorphism.build_calls": ("count", "calls", ["homomorphism.build"]),
    "embedder.compatibility_s": ("s", "self", ["embedder.compatibility"]),
    "embedder.compatibility_calls": ("count", "calls", ["embedder.compatibility"]),
    "embedder.embed_compatible_s": ("s", "self", ["embedder.embed_compatible"]),
    "embedder.verify_s": ("s", "self", ["embedder.verify"]),
    "embedder.verify_calls": ("count", "calls", ["embedder.verify"]),
    "embedder.pipeline_attempts": ("count", "count", "pipeline_attempts"),
    "embedder.self_s": ("s", "self", ["embedder.pipeline"]),
    "cli.embed_cmd_s": ("s", "self", ["cli.embed_cmd"]),
    "cli.verify_cmd_s": ("s", "self", ["cli.verify_cmd"]),
}


class Tracer:
    """Spans in memory; ``spans[i]`` is [name, start, end, parent, op, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self._op, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                error = e
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if hook is not None:
                    hook(span[5], args, kwargs, result, error)

        return traced

    @contextmanager
    def operation(self, op_id: str):
        """Trace one operation: install the wrappers, record a root span, undo."""
        undo = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "bipembed" or name.startswith("bipembed.")]
        for module, attr, span_name, hook in TARGETS:
            orig = getattr(sys.modules[module], attr)
            wrapped = self._wrap(span_name, orig, hook)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is orig]:
                    setattr(m, key, wrapped)
                    undo.append((m, key, orig))
        self._op = op_id
        root = [op_id, time.perf_counter(), None, None, op_id, {}]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        try:
            yield
        finally:
            root[2] = time.perf_counter()
            self._stack.pop()
            self._op = None
            for m, key, orig in undo:
                setattr(m, key, orig)

    def layer_metrics(self, n_setups: int, n_ops: int) -> dict[str, float]:
        """Each metric per set-up (spans under a set-up) plus per traced operation."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_by_name: dict[str, float] = {}
        calls_by_name: dict[str, float] = {}
        counts: dict[str, float] = {}
        for i, (name, start, end, parent, op, c) in enumerate(self.spans):
            w = 1 / n_setups if op.startswith("setup") else 1 / n_ops
            self_by_name[name] = self_by_name.get(name, 0.0) + (end - start - child[i]) * w
            calls_by_name[name] = calls_by_name.get(name, 0.0) + w
            for key, v in c.items():
                counts[key] = counts.get(key, 0.0) + v * w
        out = {}
        for metric, (unit, kind, what) in LAYER_METRICS.items():
            if kind == "self":
                out[metric] = sum(self_by_name.get(s, 0.0) for s in what)
            elif kind == "calls":
                out[metric] = sum(calls_by_name.get(s, 0.0) for s in what)
            else:
                out[metric] = counts.get(what, 0.0)
        samples = out["regularity.samples"]
        out["regularity.us_per_sample"] = (
            out["regularity.pair_check_s"] / samples * 1e6 if samples else 0.0
        )
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, start, end, parent, op, c) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "start": round(start - t0, 6),
                    "end": round(end - t0, 6), "parent": parent, "op": op, "counts": c,
                }) + "\n")


UNITS = {m: u for m, (u, _, _) in LAYER_METRICS.items()}
UNITS["regularity.us_per_sample"] = "us"
UNITS["trace.overhead_pct"] = "%"
