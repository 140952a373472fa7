"""Guards for tooling that reaches into the package from outside it, and for
the package's own layering."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing


def test_every_benchmark_hook_binding_resolves(monkeypatch):
    # The benchmark's per-layer trace wraps these module attributes by name, so
    # a binding renamed or dropped from the package would silently go untraced.
    tracing = _load_tracing(monkeypatch)
    bound = tracing.bindings()  # raises AttributeError on a missing binding
    assert len(bound) == len(tracing.HOOKS)
    assert all(callable(obj) for obj in bound.values())
    names = {f"{h.module}.{h.attr}" for h in tracing.HOOKS}
    assert {"protodet.cli.run_support_stage", "protodet.cli.run_end_to_end",
            "protodet.postproc.mask_coverage"} <= names


def test_benchmark_observers_read_real_results(monkeypatch, acceptance_manifest):
    # The traced benchmark reads fields of what the wrapped layers return; a
    # result type reshaped under it breaks the traced run alone.
    from protodet.diffusion import DiffusionParams, diffuse
    from protodet.interchange import load_dataset
    from protodet.pipeline import run_query_stage, run_support_stage

    tracing = _load_tracing(monkeypatch)
    dataset = load_dataset(acceptance_manifest)
    image = next(iter(run_query_stage(dataset, run_support_stage(dataset)).values()))
    graph = next(iter(image.graphs.values()))  # built by diffusion.build_class_graph
    result = diffuse(graph, DiffusionParams())
    n = len(graph.node_ids)
    expected = {
        "synthio.load_dataset": (
            {"synthio.proposals_loaded": sum(map(len, dataset.proposals.values()))}, {}),
        "diffusion.build_class_graph": (
            {"diffusion.graph_cells": n * n}, {"diffusion.graph_nodes.max": n}),
        "diffusion.diffuse": ({"diffusion.diffuse.steps": result.steps_taken,
                               "diffusion.diffuse.converged": int(result.converged)}, {}),
    }
    results = {"synthio.load_dataset": dataset, "diffusion.build_class_graph": graph,
               "diffusion.diffuse": result}
    observed = [hook for hook in tracing.HOOKS if hook.observe is not None]
    assert {hook.name for hook in observed} == set(expected)
    for hook in observed:
        counts, maxima = {}, {}
        hook.observe(counts, maxima, (), results[hook.name])
        assert (counts, maxima) == expected[hook.name]
    assert n > 1 and result.steps_taken > 0


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


def _calls(*names):
    """(module, enclosing function) for each call of each of ``names`` in the
    package's source."""
    calls = {name: set() for name in names}

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in calls:
                calls[name].add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted((ROOT / "src" / "protodet").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return calls


def test_no_stage_decodes_or_encodes_a_raster():
    # Masks stay run-length from load to report.  Only the scalar coverage
    # oracle decodes a mask, and only the generator, which draws its shapes as
    # rasters, encodes one; a decode anywhere else would allocate W*H, however
    # large the manifest declares an image.
    calls = _calls("to_array", "from_array")
    assert calls["to_array"] == {("geometry", "mask_coverage")}
    assert {module for module, _ in calls["from_array"]} == {"generator"}


def test_overlap_is_computed_once_per_image_class():
    # Mask coverage comes only from the class graph, which every method that
    # needs it shares.  Box IoU comes pair by pair only where no array fits,
    # in wbf, whose fused box moves as it grows; the evaluator computes all its
    # (detection, ground truth) pairs in one box_iou_pairs call.
    calls = _calls("coverage_matrix", "box_iou", "box_iou_pairs")
    assert calls["coverage_matrix"] == {("diffusion", "build_class_graph")}
    assert calls["box_iou"] == {("postproc", "wbf")}
    assert {module for module, _ in calls["box_iou_pairs"]} == {"evaluation"}


@pytest.mark.parametrize("node_id", [
    "tests/test_pipeline.py::TestQueryStage::test_matched_proposals_keep_no_feature_vectors",
    "tests/test_pipeline.py::TestRefineStage::test_class_graphs_retain_one_n_by_n_array",
    "tests/test_pipeline.py::TestDeclaredDimensions",
    "tests/test_geometry.py::TestCoverageMatrix::test_memory_of_heavily_overlapping_masks",
    "tests/test_synthio.py::TestProposalFeatureBlob::"
    "test_header_declaring_a_huge_matrix_allocates_nothing",
])
def test_memory_bound_tests_pass_in_a_fresh_interpreter(node_id):
    # These tests measure allocations with tracemalloc, so a lazy import that
    # an earlier test of the same process has already paid for can hide
    # behind them; each must also pass as the first thing a process runs.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node_id],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
