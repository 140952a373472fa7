"""Self-tests of the benchmark: python3 -m pytest bench -q"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

# Each workload shrunk to two images; its command and checks stay the same.
TINY = {
    "run-hires": dict(images=2, fragments_per_object=(4, 4), image_size=64, grid_size=8),
    "compare-overlap": dict(images=2, image_size=64, grid_size=8),
    "sweep-fmap": dict(images=2, image_size=64, grid_size=8),
}


def _tiny(name: str) -> run.Workload:
    w = run.WORKLOADS[name]
    return dataclasses.replace(w, generator={**w.generator, **TINY[name]})


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_of_each_command(tmp_path, name, trace):
    args = argparse.Namespace(workload=name, seed=1, seconds=0.0, trace=trace)
    record, result = run.measure(args, _tiny(name), tmp_path / "run")
    assert record["failed_checks"] == []
    assert result["correct"] and result["failed"] == 0
    expected = (run.E2E_METRICS if trace == 0 else run.LAYER_METRICS)
    assert sorted(result["metrics"]) == sorted(expected)
    if trace:
        # traced and untraced outputs are checked against one reference digest
        assert len(record["reps"]) == len(record["traced_reps"]) == run.MIN_PAIRS
        # the --jobs 2 run of sweep-fmap is checked against the same digest
        assert len(record["pool_reps"]) == (run.MIN_PAIRS if name == "sweep-fmap" else 0)
        digests = {r["digest"]
                   for r in record["reps"] + record["traced_reps"] + record["pool_reps"]}
        assert digests == {record["output_digest"]}
        assert (tmp_path / "run" / "spans.json").is_file()


def test_child_peak_rss_is_its_own(tmp_path):
    from protodet import GeneratorConfig, generate_dataset

    w = _tiny("compare-overlap")
    manifest = generate_dataset(GeneratorConfig(seed=1, **w.generator), tmp_path / "corpus")
    ballast = bytearray(160 * 2**20)
    ballast[:: 4096] = b"\1" * len(ballast[:: 4096])  # make the parent's pages resident
    child = run.run_child(w, manifest, tmp_path / "rep", traced=False)
    assert child["rc"] == 0
    assert child["peak_rss_kb"] < 150 * 1024  # a tiny compare needs far less than the parent


def test_generation_failure_is_a_failed_setup(tmp_path):
    # Sixty disjoint boxes of at least 2x2 px do not fit in a 16x16 image.
    w = dataclasses.replace(
        run.WORKLOADS["compare-overlap"],
        generator={**run.WORKLOADS["compare-overlap"].generator, "images": 1,
                   "objects_per_image": (60, 60), "image_size": 16, "grid_size": 2},
    )
    args = argparse.Namespace(workload="compare-overlap", seed=3, seconds=0.0, trace=0)
    record, result = run.measure(args, w, tmp_path / "run")
    assert record["setup_error"].startswith("GenerationError")
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_every_binding_restored_after_traced_run(tmp_path):
    from protodet import GeneratorConfig, generate_dataset
    from protodet.cli import main as cli_main

    manifest = generate_dataset(
        GeneratorConfig(seed=2, images=2, image_size=64, grid_size=8), tmp_path / "corpus"
    )
    before = tracing.bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert len(tracing.unrestored(before)) == len(tracing.HOOKS)
        assert cli_main(["compare", str(manifest), "--out", str(tmp_path / "out")]) == 0
    assert tracing.unrestored(before) == []
    assert tracer.spans() and tracer.counts()[0]["geometry.box_iou"] > 0

    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    assert tracing.unrestored(before) == []


def test_self_time_on_hand_built_tree():
    spans = [
        (1, None, "root", 0.0, 10.0, 1),
        (2, 1, "a", 1.0, 4.0, 1),
        (3, 1, "b", 3.0, 6.0, 2),      # overlaps a: another thread
        (4, 2, "a.child", 2.0, 3.0, 1),
        (5, 1, "late", 9.0, 12.0, 2),  # runs past its parent: clipped at 10
        (6, None, "other", 20.0, 21.0, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0, 6: 1.0}
    )


def test_pool_thread_spans_hang_under_the_submitting_span():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    with tracer.installed():
        traced_inner = tracer.span_wrapper(inner, "inner")

        def outer():
            with ThreadPoolExecutor(max_workers=2) as pool:
                return list(pool.map(traced_inner, range(4)))

        assert tracer.span_wrapper(outer, "outer")() == [1, 2, 3, 4]
    spans = tracer.spans()
    (outer_span,) = [s for s in spans if s[2] == "outer"]
    inner_spans = [s for s in spans if s[2] == "inner"]
    assert len(inner_spans) == 4
    assert {s[1] for s in inner_spans} == {outer_span[0]}
    assert {s[5] for s in inner_spans} != {threading.get_ident()}


def test_layer_metrics_names_match_benchmark_json():
    import json

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.E2E_METRICS)
    assert [m["name"] for m in doc["per_layer"]] == list(run.LAYER_METRICS)
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS)
