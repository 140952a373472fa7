"""Guards for tooling that reaches into the package from outside it."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_benchmark_hook_binding_resolves(monkeypatch):
    # The benchmark's per-layer trace wraps these module attributes by name, so
    # a binding renamed or dropped from the package would silently go untraced.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    bound = tracing.bindings()  # raises AttributeError on a missing binding
    assert len(bound) == len(tracing.HOOKS)
    assert all(callable(obj) for obj in bound.values())
    names = {f"{h.module}.{h.attr}" for h in tracing.HOOKS}
    assert {"protodet.cli.run_support_stage", "protodet.cli.run_end_to_end",
            "protodet.postproc.mask_coverage"} <= names


def test_every_all_name_resolves():
    # a stale ``__all__`` entry fails only on ``from module import *``
    import protodet

    checked = []
    for info in pkgutil.iter_modules(protodet.__path__, prefix="protodet."):
        module = importlib.import_module(info.name)
        if hasattr(module, "__all__"):
            missing = [n for n in module.__all__ if not hasattr(module, n)]
            assert missing == [], f"{info.name}.__all__ names missing attributes: {missing}"
            checked.append(info.name)
    assert {"protodet.interchange", "protodet.generator"} <= set(checked)
