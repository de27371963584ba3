"""The benchmark under ``perfbench/`` traces bipembed's layers by name; every
function it names must exist, or a traced benchmark run fails."""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    importlib.import_module("workloads")  # binds bipembed names at import
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for module, name, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
