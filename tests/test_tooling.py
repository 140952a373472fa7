"""Guards for tooling that reaches into the package from outside it, and for
the package's own layering."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
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


# functions a user calls that no stage calls
USER_ENTRY_POINTS = ("ap_101", "save_prototypes")


def test_every_module_function_pays_for_itself():
    # A module-level function must be referred to by code in the package (its
    # re-export from __init__ aside), be named by the benchmark, or be a user
    # entry point; a function only tests call is a reference and belongs in
    # tests/oracles.py.
    package = ROOT / "src" / "protodet"
    defined, referenced = [], set(USER_ENTRY_POINTS)
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        if path.name != "__init__.py":
            referenced.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
            referenced.update(node.attr for node in ast.walk(tree)
                              if isinstance(node, ast.Attribute))
    for path in sorted((ROOT / "bench").glob("*.py")):
        referenced.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unused = [f"{module}.{name}" for module, name in defined if name not in referenced]
    assert unused == []


def _calls(*names, where=lambda call: True):
    """(module, enclosing function) for each call of each of ``names`` in the
    package's source that ``where`` accepts."""
    calls = {name: set() for name in names}

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in calls and where(node):
                calls[name].add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted((ROOT / "src" / "protodet").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return calls


def test_the_writer_leaves_the_loaders_rules_to_the_loader():
    # write_dataset publishes only what load_dataset reads back, so none of the
    # loader's rules needs a copy in the writer; the TSV-row rule, once
    # mirrored there, is called only where ids are read or detections written.
    calls = _calls("load_dataset", "_splits_a_tsv_row")
    assert ("interchange", "write_dataset") in calls["load_dataset"]
    assert calls["_splits_a_tsv_row"] == {("interchange", "load_dataset"),
                                          ("interchange", "export_run")}


def _writes(call):
    """Whether an ``open`` or ``os.open`` call opens for writing: a mode string
    of "w", "a", "x" or "+", or flags with ``O_WRONLY`` or ``O_RDWR``."""
    mode = call.args[1] if len(call.args) > 1 else None
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return mode is not None and re.search(r"\bO_(WRONLY|RDWR)\b", ast.unparse(mode)) is not None


def test_every_file_is_read_by_one_reader():
    # interchange._read alone opens a file to read it, so that a file missing,
    # unreadable or not UTF-8 is one DataFormatError (exit 3) wherever it is
    # named; a check before the read would be a second rule, and a race.
    reads = _calls("is_file", "exists", "read_text", "read_bytes", "open",
                   where=lambda call: not _writes(call))
    assert set().union(*reads.values()) == {("interchange", "_read")}


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
    # in wbf, whose fused box moves as it grows.  Every other box IoU comes
    # from the one array kernel: the NMS family's per-class matrix, and the
    # evaluator's (detection, ground truth) pairs in one call.
    calls = _calls("coverage_matrix", "box_iou", "box_iou_pairs")
    assert calls["coverage_matrix"] == {("diffusion", "build_class_graph")}
    assert calls["box_iou"] == {("postproc", "wbf")}
    assert calls["box_iou_pairs"] == {("postproc", "_iou_matrix"), ("evaluation", "_match")}


def test_every_by_score_order_comes_from_rank():
    # Descending score, ties in position order, is one rule in one place:
    # postproc.rank.  The only other keyed orders are by class id.
    keyed = _calls("sorted", "min", "max",
                   where=lambda call: any(kw.arg == "key" for kw in call.keywords))
    assert set().union(*keyed.values()) == {("postproc", "rank"),
                                           ("features", "match_proposal"),
                                           ("interchange", "save_prototypes")}


def test_pipeline_runs_the_list_baselines_at_their_defaults():
    # A baseline's threshold has one home, its postproc default: the pipeline
    # passes nms, soft_nms and wbf the detection list alone.
    baselines = ("nms", "soft_nms", "wbf")
    called = _calls(*baselines)
    with_more = _calls(*baselines, where=lambda call: len(call.args) + len(call.keywords) != 1)
    for name in baselines:
        assert "pipeline" in {module for module, _ in called[name]}
        assert "pipeline" not in {module for module, _ in with_more[name]}


def test_kernels_take_runs_as_arrays():
    # A mask's runs are an int64 array from load to kernel, and the kernels join
    # them with np.concatenate; np.fromiter or itertools.chain over the runs
    # would walk every run in Python again.
    tree = ast.parse((ROOT / "src" / "protodet" / "geometry.py").read_text(encoding="utf-8"))
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not names & {"fromiter", "chain", "itertools"} and "itertools" not in modules


def test_no_set_routine_reaches_numpy_ma():
    # np.unique, and the set routines built on it, import numpy.ma on their
    # first call in a process: 13.6 ms, once per command, which a run pays in
    # its first load or graph build.
    calls = _calls("unique", "intersect1d", "setdiff1d", "union1d", "setxor1d")
    assert calls == {name: set() for name in calls}


def test_loading_checks_proposal_boxes_as_one_array(monkeypatch, acceptance_manifest):
    # Proposal boxes are checked in one numpy pass per file and built without
    # a second check; only supports and ground truth build one box at a time.
    from protodet.geometry import BoundingBox
    from protodet.interchange import load_dataset

    checked = []
    post_init = BoundingBox.__post_init__
    monkeypatch.setattr(BoundingBox, "__post_init__",
                        lambda box: checked.append(box) or post_init(box))
    dataset = load_dataset(acceptance_manifest)
    proposals = sum(map(len, dataset.proposals.values()))
    assert proposals > len(checked) == len(dataset.supports) + len(dataset.ground_truth)


@pytest.mark.parametrize("node_id", [
    "tests/test_pipeline.py::TestQueryStage::test_matched_proposals_keep_no_feature_vectors",
    "tests/test_pipeline.py::TestRefineStage::test_class_graphs_retain_one_n_by_n_array",
    "tests/test_pipeline.py::TestDeclaredDimensions",
    "tests/test_geometry.py::TestCoverageMatrix::test_memory_of_heavily_overlapping_masks",
    "tests/test_geometry.py::TestCoverageMatrix::test_memory_of_many_masks_is_a_few_results",
    "tests/test_features.py::TestFeatureMap::test_f4_input_is_widened_once",
    "tests/test_synthio.py::TestProposalFeatureBlob::"
    "test_header_declaring_a_huge_matrix_allocates_nothing",
    "tests/test_synthio.py::TestMaskRunBlob::test_header_declaring_a_huge_run_table_allocates_nothing",
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
