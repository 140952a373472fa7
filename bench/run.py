"""protodet benchmark: three CLI workloads, each repetition in a fresh interpreter.

    python3 bench/run.py --workload run-hires --seed 1 --seconds 38 --trace 0

The corpus is generated from ``--seed`` before measuring.  ``--trace 0``
repeats, for about ``--seconds``, a round in a fresh interpreter: one untraced
run of the workload's command, then a few timed ``load_dataset`` calls (the
set-up); it reports the end-to-end metrics as medians.  ``--trace 1``
alternates untraced and traced repetitions (and, where the workload has one,
its command on the ``--jobs`` pool) and reports the per-layer metrics (medians
over the traced ones), the tracing overhead and the pool's speed-up.  Both
modes check the outputs.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
The run's full record (environment, corpus and output digests, every
repetition) is written under .bench_work/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REPS = 3          # rounds per --trace 0 run, even past --seconds
MIN_PAIRS = 2         # rounds (untraced + traced run) per --trace 1 run
CHILD_TIMEOUT_S = 120
# One BLAS thread.  On a 2-vCPU shared VM the default second OpenBLAS thread
# bought no wall time (run-hires, six runs alternating with and without it:
# median wall_s 1.49 s against 1.48 s) but took half again the CPU, and it made
# the command wait for the host to run both vCPUs at once: the run medians of
# wall_s spread 39% (IQR / median) with it and 5% without.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}

# Overlap regime: noisy features and overlapping fragment/whole objectness, so
# no method saturates and a change to a baseline can lose nAP.
OVERLAP = dict(
    feature_noise=0.6,
    allow_score_overlap=True,
    fragment_score_range=(0.05, 0.7),
    whole_score_range=(0.3, 0.95),
)


@dataclass(frozen=True)
class Workload:
    generator: dict        # GeneratorConfig fields besides the seed
    argv: tuple[str, ...]  # protodet command; the manifest and --out are added
    output: str            # the command's deterministic output file
    pool_argv: tuple[str, ...] = ()  # the command on the --jobs pool, run only when traced


# Object, fragment and distractor counts are fixed (lo == hi) so that every
# seed yields the same amount of work and seeds differ only in geometry.  Each
# command takes about a second: a shared VM loses its vCPUs in bursts of a few
# hundred ms, and the median of many short rounds is one that no burst hit,
# whereas every long round would hold a burst-rate-dependent number of them.
WORKLOADS = {
    # Few large class graphs at 512x512: graph build dominates time and memory.
    "run-hires": Workload(
        dict(images=2, classes=1, objects_per_image=(3, 3), fragments_per_object=(60, 60),
             distractors_per_image=(2, 2), image_size=512, grid_size=32),
        ("run", "--jobs", "1"),
        "detections.tsv",
    ),
    # Every method on many small graphs: soft_merge, diffusion, evaluate, NMS family.
    "compare-overlap": Workload(
        dict(images=25, objects_per_image=(3, 3), fragments_per_object=(11, 11),
             distractors_per_image=(2, 2), image_size=128, grid_size=16, **OVERLAP),
        ("compare", "--jobs", "1"),
        "compare.tsv",
    ),
    # Query features pooled from feature maps, and sweep.  Timed at --jobs 1: at
    # --jobs 2 the wall time depends on the host running both vCPUs at once, and
    # its run medians spread twice as wide.  The traced run times the pool.
    "sweep-fmap": Workload(
        dict(images=20, objects_per_image=(3, 3), fragments_per_object=(6, 6),
             distractors_per_image=(2, 2), query_feature_maps=True, image_size=128,
             grid_size=16, **OVERLAP),
        ("sweep", "--lambdas", "0.5", "1.0", "--alphas", "0.0", "0.3",
         "--steps-grid", "30", "--jobs", "1"),
        "sweep.tsv",
        ("sweep", "--lambdas", "0.5", "1.0", "--alphas", "0.0", "0.3",
         "--steps-grid", "30", "--jobs", "2"),
    ),
}

SWEEP_DEFAULT_CELL = (0.5, 0.3, 30)  # lambda, alpha, steps: the `run` defaults
BASELINE_METRICS = {
    "none": "nAP.none", "nms": "nAP.nms", "softnms": "nAP.softnms", "wbf": "nAP.wbf",
    "softmerge": "nAP.softmerge", "diffusion+nms": "nAP.diffusion_nms",
}

LAYER_METRICS = (
    *tracing.layer_metrics([], {}, {}), *BASELINE_METRICS.values(), "trace.overhead_ratio",
    "pipeline.pool_speedup",
)
E2E_METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "ok_ratio", "nAP", "nAP50", "nAP75")


class Checks:
    """Operations attempted in a run, each passed or failed."""

    def __init__(self) -> None:
        self.items: list[tuple[str, bool]] = []

    def add(self, name: str, ok: bool) -> bool:
        self.items.append((name, bool(ok)))
        return ok

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.items if not ok]


def corpus_digest(corpus: Path) -> str:
    """SHA-256 over every generated file, in path order (path, then bytes)."""
    h = hashlib.sha256()
    for path in sorted(p for p in corpus.rglob("*") if p.is_file()):
        h.update(path.relative_to(corpus).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def output_digest(path: Path) -> str:
    """Digest of a command's output table; sweep.tsv loses its timing column."""
    text = path.read_text(encoding="utf-8")
    if path.name == "sweep.tsv":
        text = "\n".join(line.rsplit("\t", 1)[0] for line in text.splitlines()) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_table(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "cpu_count": os.cpu_count(),
        "loadavg_start": _loadavg(),
    }


def run_child(workload: Workload, manifest: Path, rep_dir: Path, traced: bool,
              argv: tuple[str, ...] = ()) -> dict | None:
    """One repetition of the workload's command (or of ``argv``) in a fresh
    interpreter; an untraced one also times the set-up.  Returns the child's
    result, or None."""
    argv = argv or workload.argv
    rep_dir.mkdir(parents=True)
    result_path = rep_dir / "child.json"
    mode = ["--spans", str(rep_dir / "spans.json")] if traced else ["--setup", str(manifest)]
    cmd = [sys.executable, str(BENCH / "child.py"), "--result", str(result_path), *mode,
           "--", argv[0], str(manifest), *argv[1:],
           "--out", str(rep_dir / "out")]
    with open(rep_dir / "child.log", "wb") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=CHILD_ENV)
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not result_path.is_file():
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_rep(workload: Workload, rep_dir: Path, child: dict | None, checks: Checks,
              reference: dict, traced: bool) -> dict | None:
    """Count the operations of one repetition; returns its record when it ran."""
    label = rep_dir.name
    if not checks.add(f"{label}: exit 0", child is not None and child["rc"] == 0):
        return None
    out = rep_dir / "out" / workload.output
    if not checks.add(f"{label}: {workload.output} written", out.is_file()):
        return None
    rows = read_table(out)
    if workload.output == "compare.tsv":
        from protodet import METHODS

        methods = [r[0] for r in rows]
        checks.add(f"{label}: compare lists every method", tuple(methods) == tuple(METHODS))
        for r in rows:
            checks.add(f"{label}: compare row {r[0]}", len(r) == 4 and r[1] != "skipped")
    elif workload.output == "sweep.tsv":
        checks.add(f"{label}: sweep has 4 cells", len(rows) == 4)
        for r in rows:
            checks.add(f"{label}: sweep cell {r[:3]}", len(r) == 5 and r[3] != "failed")
    if traced:
        checks.add(f"{label}: every wrapped binding restored", not child["unrestored"])
    digest = output_digest(out)
    if "digest" in reference:
        checks.add(f"{label}: {workload.output} identical to {reference['label']}",
                   digest == reference["digest"])
    else:
        reference.update(digest=digest, label=label)
    return {
        "label": label,
        "wall_s": child["wall_s"],
        "cpu_s": child["cpu_s"],
        "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
        "digest": digest,
    }


def quality(name: str, out_dir: Path, dataset, checks: Checks) -> dict[str, float]:
    """nAP figures of the workload, with the cross-checks that recompute them."""
    from protodet import DiffusionParams, PipelineConfig, evaluate, load_detections
    from protodet import run_end_to_end

    if name == "run-hires":
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        again = evaluate(load_detections(out_dir / "detections.tsv"), dataset.ground_truth,
                         max_dets=100)
        checks.add("report.json nAP triple equals evaluate(load_detections(...))",
                   (again.nap, again.nap50, again.nap75)
                   == (report["nAP"], report["nAP50"], report["nAP75"]))
        return {"nAP": report["nAP"], "nAP50": report["nAP50"], "nAP75": report["nAP75"]}
    if name == "compare-overlap":
        rows = {r[0]: r for r in read_table(out_dir / "compare.tsv")}
        out = {"nAP": float(rows["diffusion"][1]), "nAP50": float(rows["diffusion"][2]),
               "nAP75": float(rows["diffusion"][3])}
        out.update({metric: float(rows[m][1]) for m, metric in BASELINE_METRICS.items()})
        return out
    # sweep-fmap: nAP50 is the default cell's; nAP and nAP75, which sweep does not
    # print, come from the same cell run once through the library.
    lam, alpha, steps = SWEEP_DEFAULT_CELL
    cell = [r for r in read_table(out_dir / "sweep.tsv")
            if (float(r[0]), float(r[1]), int(r[2])) == (lam, alpha, steps)]
    nap50 = float(cell[0][3])
    params = DiffusionParams(alpha=alpha, lam=lam, max_steps=steps)
    _, report = run_end_to_end(dataset, PipelineConfig(diffusion=params, jobs=1))
    checks.add("sweep default cell nAP50 equals run_end_to_end's", report.nap50 == nap50)
    return {"nAP": report.nap, "nAP50": nap50, "nAP75": report.nap75}


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def measure(args, workload: Workload, run_dir: Path) -> tuple[dict, dict]:
    from protodet import GeneratorConfig, GenerationError, generate_dataset, load_dataset

    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "environment": environment()}
    checks = Checks()

    t0 = time.perf_counter()
    cfg = GeneratorConfig(seed=args.seed, **workload.generator)
    try:
        manifest = generate_dataset(cfg, run_dir / "corpus")
    except GenerationError as exc:
        # Reported as a failed set-up; the seed is never swapped for another.
        record["setup_error"] = f"GenerationError: {exc}"
        checks.add("corpus generation", False)
        return record, _result(checks, {})
    checks.add("corpus generation", True)
    record["generate_s"] = time.perf_counter() - t0
    record["corpus_sha256"] = corpus_digest(run_dir / "corpus")

    dataset = load_dataset(manifest)  # for the output checks
    record["proposals"] = sum(len(v) for v in dataset.proposals.values())

    loads: list[float] = []
    reps: list[dict] = []
    traced: list[dict] = []
    pooled: list[dict] = []
    reference: dict = {}
    start = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        rep_dir = run_dir / f"rep{rounds}"
        child = run_child(workload, manifest, rep_dir, traced=False)
        rep = check_rep(workload, rep_dir, child, checks, reference, traced=False)
        if rep is not None:
            reps.append(rep)
            loads.extend(child["load_s"])
        if args.trace:
            rep_dir = run_dir / f"rep{rounds}-spans"
            child = run_child(workload, manifest, rep_dir, traced=True)
            rep = check_rep(workload, rep_dir, child, checks, reference, traced=True)
            if rep is not None:
                rep["layers"] = _layers(rep_dir / "spans.json")
                traced.append(rep)
                shutil.copyfile(rep_dir / "spans.json", run_dir / "spans.json")
        if args.trace and workload.pool_argv:
            rep_dir = run_dir / f"rep{rounds}-pool"
            child = run_child(workload, manifest, rep_dir, traced=False, argv=workload.pool_argv)
            rep = check_rep(workload, rep_dir, child, checks, reference, traced=False)
            if rep is not None:
                pooled.append(rep)
        elapsed = time.perf_counter() - start
        if rounds >= (MIN_PAIRS if args.trace else MIN_REPS) and \
                elapsed + elapsed / rounds > args.seconds:
            break
    record["measure_s"] = time.perf_counter() - start
    record["load_dataset_s"] = loads
    record["output_digest"] = reference.get("digest")
    record["reps"] = [{k: v for k, v in r.items() if k != "layers"} for r in reps]
    record["traced_reps"] = [{k: v for k, v in r.items() if k != "layers"} for r in traced]
    record["pool_reps"] = pooled

    metrics: dict[str, tuple[float, str]] = {}
    nap: dict[str, float] = {}
    if reps:
        try:
            nap = quality(args.workload, run_dir / reps[0]["label"] / "out", dataset, checks)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            checks.add(f"nAP figures readable: {exc!r}", False)
        record["nAP"] = nap
    if not args.trace and reps and loads:
        metrics = {
            "wall_s": (_median([r["wall_s"] for r in reps]), "s"),
            "cpu_s": (_median([r["cpu_s"] for r in reps]), "s"),
            "setup_s": (_median(loads), "s"),
            "peak_rss_mb": (_median([r["peak_rss_mb"] for r in reps]), "MiB"),
            "ok_ratio": (1.0 - len(checks.failed) / len(checks.items), "ratio"),
        }
        metrics.update({k: (nap[k], "1") for k in ("nAP", "nAP50", "nAP75") if k in nap})
    elif args.trace and reps and traced:
        for name in traced[0]["layers"]:
            values = [t["layers"][name][0] for t in traced]
            metrics[name] = (_median(values), traced[0]["layers"][name][1])
        for metric in BASELINE_METRICS.values():
            metrics[metric] = (nap.get(metric, 0.0), "1")
        untraced_wall = _median([r["wall_s"] for r in reps])
        metrics["trace.overhead_ratio"] = (
            _median([t["wall_s"] for t in traced]) / untraced_wall, "ratio")
        metrics["pipeline.pool_speedup"] = (
            untraced_wall / _median([r["wall_s"] for r in pooled]) if pooled else 0.0, "ratio")
    record["environment"]["loadavg_end"] = _loadavg()
    record["failed_checks"] = checks.failed
    return record, _result(checks, metrics)


def _layers(spans_path: Path) -> dict:
    doc = json.loads(spans_path.read_text(encoding="utf-8"))
    return tracing.layer_metrics([tuple(s) for s in doc["spans"]], doc["counts"], doc["maxima"])


def _result(checks: Checks, metrics: dict[str, tuple[float, str]]) -> dict:
    failed = len(checks.failed)
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(checks.items),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "protodet" / "__init__.py").is_file():
        print(f"error: no protodet sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import protodet

    if Path(protodet.__file__).resolve().parent != SRC / "protodet":
        print(f"error: imported protodet from {protodet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # The sweep cell recomputed in-process would repeat the command's warnings.
    logging.getLogger("protodet").setLevel(logging.ERROR)
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        record, result = measure(args, WORKLOADS[args.workload], run_dir)
        if (run_dir / "spans.json").is_file():
            shutil.copyfile(run_dir / "spans.json", WORK / f"spans-{stem}.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record_path = WORK / f"record-{stem}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, m in result["metrics"].items():
        print(f"{name}\t{m['value']!r}\t{m['unit']}")
    for name in record["failed_checks"]:
        print(f"FAILED CHECK\t{name}")
    print(f"record\t{record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if "setup_error" not in record else 1


if __name__ == "__main__":
    sys.exit(main())
