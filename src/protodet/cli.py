"""Command-line entry points: dataset generation, runs, sweeps, comparisons.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 pipeline or
generation error.  Flags override values read from an optional key=value
config file (``--config``); the environment variable PROTODET_OUTPUT_DIR
supplies the base for default output directories.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .diffusion import DiffusionParams
from .errors import DataFormatError, GenerationError, PipelineError
from .evaluation import evaluate
from .pipeline import (
    METHODS,
    PipelineConfig,
    resolve_prototypes,
    run_query_stage,
    run_refine_stage,
)
# unused here, but benchmark tracing wraps these stages through these bindings
from .pipeline import run_end_to_end, run_support_stage  # noqa: F401
from .synthio import Dataset, GeneratorConfig, export_run, generate_dataset, load_dataset

ENV_OUTPUT_DIR = "PROTODET_OUTPUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_PIPELINE = 4


def _default_out(kind: str) -> str:
    return str(Path(os.environ.get(ENV_OUTPUT_DIR, ".")) / f"protodet_{kind}")


def _add_diffusion_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.3,
                   help="restart probability of the score diffusion")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                   help="decay strength of the (1 - pi)^lambda score transform")
    p.add_argument("--tau", type=float, default=1e-6,
                   help="early-stop threshold on the iterate difference norm")
    p.add_argument("--max-steps", type=int, default=30,
                   help="diffusion step budget")


def _add_common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-output", type=int, default=100,
                   help="detections kept per image, ranked by final score")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker threads across images")
    p.add_argument("--prototypes", default=None,
                   help="load class prototypes from this file instead of "
                        "building them from the support annotations")
    p.add_argument("--config", default=None,
                   help="key=value file; command-line flags take precedence")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protodet",
        description="Training-free few-shot detection post-processing on "
                    "interchange-format proposal data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    gen = sub.add_parser("gen", formatter_class=fmt,
                         help="generate a seeded synthetic dataset")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")
    gen.add_argument("--images", type=int, default=20, help="query image count")
    gen.add_argument("--classes", type=int, default=3, help="object class count")
    gen.add_argument("--shots", type=int, default=1, help="support annotations per class")
    gen.add_argument("--objects", nargs=2, type=int, default=[2, 4],
                     metavar=("LO", "HI"), help="objects per image (inclusive range)")
    gen.add_argument("--fragments", nargs=2, type=int, default=[3, 6],
                     metavar=("LO", "HI"), help="fragment proposals per object")
    gen.add_argument("--distractors", nargs=2, type=int, default=[1, 3],
                     metavar=("LO", "HI"), help="background distractors per image")
    gen.add_argument("--feature-dim", type=int, default=64, help="feature dimensionality")
    gen.add_argument("--noise", type=float, default=0.15,
                     help="fraction of isotropic noise mixed into proposal features")
    gen.add_argument("--fragment-scores", nargs=2, type=float, default=[0.05, 0.45],
                     metavar=("LO", "HI"), help="objectness range of fragment proposals")
    gen.add_argument("--whole-scores", nargs=2, type=float, default=[0.55, 0.95],
                     metavar=("LO", "HI"), help="objectness range of whole-object proposals")
    gen.add_argument("--image-size", type=int, default=96, help="square image side, pixels")
    gen.add_argument("--grid-size", type=int, default=12, help="feature grid side, cells")
    gen.add_argument("--allow-score-overlap", action="store_true",
                     help="let fragment and whole score ranges overlap (tie stress)")
    gen.add_argument("--query-feature-maps", action="store_true",
                     help="emit per-image feature maps instead of per-proposal vectors")
    gen.add_argument("--config", default=None,
                     help="key=value file; command-line flags take precedence")
    gen.add_argument("--out", default=None,
                     help=f"output directory (default {_default_out('dataset')})")

    run = sub.add_parser("run", formatter_class=fmt,
                         help="run the detection pipeline on a dataset manifest")
    run.add_argument("manifest", help="path to manifest.json")
    _add_diffusion_flags(run)
    run.add_argument("--method", choices=METHODS, default="diffusion",
                     help="score refinement method")
    _add_common_run_flags(run)
    run.add_argument("--out", default=None,
                     help=f"output directory (default {_default_out('run')})")

    sweep = sub.add_parser("sweep", formatter_class=fmt,
                           help="grid-sweep diffusion hyperparameters")
    sweep.add_argument("manifest", help="path to manifest.json")
    sweep.add_argument("--lambdas", nargs="+", type=float, default=[0.5],
                       help="decay strengths to sweep")
    sweep.add_argument("--alphas", nargs="+", type=float, default=[0.3],
                       help="restart probabilities to sweep")
    sweep.add_argument("--steps-grid", nargs="+", type=int, default=[30],
                       help="step budgets to sweep")
    sweep.add_argument("--tau", type=float, default=1e-6,
                       help="early-stop threshold on the iterate difference norm")
    _add_common_run_flags(sweep)
    sweep.add_argument("--out", default=None,
                       help=f"output directory (default {_default_out('sweep')})")

    comp = sub.add_parser("compare", formatter_class=fmt,
                          help="run every post-processing method on one dataset")
    comp.add_argument("manifest", help="path to manifest.json")
    _add_diffusion_flags(comp)
    _add_common_run_flags(comp)
    comp.add_argument("--out", default=None,
                      help=f"output directory (default {_default_out('compare')})")
    return parser


def _config_argv(path: str) -> list[str]:
    """The key=value config file as flags: ``key=v`` gives ``--key=v``,
    ``key=v1 v2`` (or ``v1,v2``) gives ``--key v1 v2``; a switch is set by
    ``key=true`` or ``yes`` and left unset by ``key=false`` or ``no``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read config file {path}: {exc}") from exc
    argv: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = (part.strip() for part in line.partition("="))
        values = raw.replace(",", " ").split()
        if raw.lower() in ("false", "no"):
            continue
        if raw.lower() in ("true", "yes"):
            values = []
        argv += [f"--{key}={values[0]}"] if len(values) == 1 else [f"--{key}", *values]
    return argv


def _base_config(args: argparse.Namespace, method: str = "diffusion") -> PipelineConfig:
    """The config of the flags every pipeline command has; the diffusion knobs
    besides tau keep their defaults until ``_with_knobs`` sets them."""
    return PipelineConfig(
        diffusion=DiffusionParams(tau=args.tau),
        method=method,
        max_output=args.max_output,
        jobs=args.jobs,
        prototype_path=args.prototypes,
    )


def _with_knobs(cfg: PipelineConfig, alpha: float, lam: float, max_steps: int) -> PipelineConfig:
    return replace(cfg, diffusion=replace(cfg.diffusion, alpha=alpha, lam=lam,
                                          max_steps=max_steps))


def _usage_error(exc: ValueError) -> int:
    print(f"usage error: {exc}", file=sys.stderr)
    return EXIT_USAGE


def _query_once(args: argparse.Namespace, base: PipelineConfig) -> tuple[Dataset, dict]:
    """Load, resolve prototypes and match every proposal: the stages that no
    refinement config affects, run once per command."""
    dataset = load_dataset(args.manifest)
    prototypes = resolve_prototypes(dataset, base)
    return dataset, run_query_stage(dataset, prototypes, jobs=base.jobs)


def _refine_and_evaluate(dataset: Dataset, props: dict, cfg: PipelineConfig):
    detections = run_refine_stage(props, cfg)
    return detections, evaluate(detections, dataset.ground_truth, max_dets=cfg.max_output)


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        cfg = GeneratorConfig(
            seed=args.seed,
            images=args.images,
            classes=args.classes,
            shots=args.shots,
            objects_per_image=tuple(args.objects),
            fragments_per_object=tuple(args.fragments),
            distractors_per_image=tuple(args.distractors),
            feature_dim=args.feature_dim,
            feature_noise=args.noise,
            fragment_score_range=tuple(args.fragment_scores),
            whole_score_range=tuple(args.whole_scores),
            image_size=args.image_size,
            grid_size=args.grid_size,
            allow_score_overlap=args.allow_score_overlap,
            query_feature_maps=args.query_feature_maps,
        )
    except ValueError as exc:
        return _usage_error(exc)
    out = args.out or _default_out("dataset")
    manifest = generate_dataset(cfg, out)
    print(manifest)
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = _with_knobs(_base_config(args, args.method), args.alpha, args.lam, args.max_steps)
    except ValueError as exc:
        return _usage_error(exc)
    dataset, props = _query_once(args, cfg)
    detections, report = _refine_and_evaluate(dataset, props, cfg)
    out = args.out or _default_out("run")
    paths = export_run(detections, report, out)
    print(f"nAP={report.nap:.4f} nAP50={report.nap50:.4f} nAP75={report.nap75:.4f}")
    print(paths["detections"].parent)
    return EXIT_OK


def _write_table(args: argparse.Namespace, kind: str, rows: list[str]) -> Path:
    out = Path(args.out or _default_out(kind))
    out.mkdir(parents=True, exist_ok=True)
    table = out / f"{kind}.tsv"
    table.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return table


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        base = _base_config(args)
    except ValueError as exc:
        return _usage_error(exc)
    dataset, props = _query_once(args, base)
    n_images = max(len(dataset.query_image_ids()), 1)
    rows = ["lambda\talpha\tsteps\tnAP50\tsec_per_image"]
    for lam, alpha, steps in itertools.product(
        dict.fromkeys(args.lambdas), dict.fromkeys(args.alphas), dict.fromkeys(args.steps_grid)
    ):
        try:
            cfg = _with_knobs(base, alpha, lam, steps)
            start = time.perf_counter()
            _, report = _refine_and_evaluate(dataset, props, cfg)
            per_image = (time.perf_counter() - start) / n_images
            rows.append(f"{lam!r}\t{alpha!r}\t{steps}\t{report.nap50!r}\t{per_image:.6f}")
        except (ValueError, PipelineError) as exc:
            print(f"sweep cell lambda={lam} alpha={alpha} steps={steps} "
                  f"failed: {exc}", file=sys.stderr)
            rows.append(f"{lam!r}\t{alpha!r}\t{steps}\tfailed\tfailed")
    print(_write_table(args, "sweep", rows))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        base = _with_knobs(_base_config(args), args.alpha, args.lam, args.max_steps)
    except ValueError as exc:
        return _usage_error(exc)
    dataset, props = _query_once(args, base)
    rows = ["method\tnAP\tnAP50\tnAP75"]
    for method in METHODS:
        try:
            _, report = _refine_and_evaluate(dataset, props, replace(base, method=method))
            rows.append(f"{method}\t{report.nap!r}\t{report.nap50!r}\t{report.nap75!r}")
        except PipelineError as exc:
            print(f"notice: method {method!r} skipped: {exc}", file=sys.stderr)
            rows.append(f"{method}\tskipped\tskipped\tskipped")
    table = _write_table(args, "compare", rows)
    print("\n".join(rows))
    print(table)
    return EXIT_OK


_COMMANDS = {"gen": _cmd_gen, "run": _cmd_run, "sweep": _cmd_sweep, "compare": _cmd_compare}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's flags go ahead of argv's, so a flag on argv wins; the
            # --config after them ends a multi-valued flag before argv's positionals
            args, unknown = parser.parse_known_args(
                [argv[0], *_config_argv(args.config), f"--config={args.config}", *argv[1:]]
            )
            if unknown:
                raise DataFormatError(f"config file: unknown option {unknown[0]!r}")
        return _COMMANDS[args.command](args)
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except GenerationError as exc:
        print(f"generation error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
