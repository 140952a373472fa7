"""Command-line entry points: dataset generation, runs, sweeps, comparisons.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 pipeline or
generation error.  Flags override values read from an optional key=value
config file (``--config``); the environment variable PROTODET_OUTPUT_DIR
supplies the base for default output directories.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .diffusion import DiffusionParams
from .errors import DataFormatError, GenerationError, PipelineError
from .evaluation import evaluate
from .pipeline import (
    METHODS,
    PipelineConfig,
    resolve_prototypes,
    run_end_to_end,
    run_query_stage,
    run_refine_stage,
)
# unused here, but benchmark tracing wraps the support stage through this binding
from .pipeline import run_support_stage  # noqa: F401
from .synthio import GeneratorConfig, export_run, generate_dataset, load_dataset

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


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _apply_config_file(args: argparse.Namespace, argv: list[str],
                       parser: argparse.ArgumentParser) -> None:
    """Fill namespace values from the config file unless the flag was on argv."""
    if not getattr(args, "config", None):
        return
    sub_actions = {}
    for action in parser._subparsers._group_actions[0].choices[args.command]._actions:
        for opt in action.option_strings:
            sub_actions[opt.lstrip("-")] = action
    for key, raw in _read_config_file(args.config).items():
        action = sub_actions.get(key)
        if action is None:
            raise DataFormatError(f"config file: unknown option {key!r}")
        if f"--{key}" in argv:
            continue  # explicit flag wins
        if isinstance(action, (argparse._StoreTrueAction,)):
            setattr(args, action.dest, raw.lower() in ("1", "true", "yes"))
            continue
        convert = action.type or str
        parts = raw.replace(",", " ").split()
        if action.nargs in (None,):
            setattr(args, action.dest, convert(parts[0]))
        else:
            setattr(args, action.dest, [convert(v) for v in parts])


def _pipeline_config(args: argparse.Namespace, method: str | None = None,
                     **overrides) -> PipelineConfig:
    def pick(name: str, default):
        return overrides[name] if name in overrides else getattr(args, name, default)

    params = DiffusionParams(
        alpha=pick("alpha", 0.3),
        lam=pick("lam", 0.5),
        tau=pick("tau", 1e-6),
        max_steps=pick("max_steps", 30),
    )
    return PipelineConfig(
        diffusion=params,
        method=method if method is not None else getattr(args, "method", "diffusion"),
        max_output=args.max_output,
        jobs=args.jobs,
        prototype_path=getattr(args, "prototypes", None),
    )


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
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = args.out or _default_out("dataset")
    manifest = generate_dataset(cfg, out)
    print(manifest)
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = _pipeline_config(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    detections, report = run_end_to_end(args.manifest, cfg)
    out = args.out or _default_out("run")
    paths = export_run(detections, report, out)
    print(f"nAP={report.nap:.4f} nAP50={report.nap50:.4f} nAP75={report.nap75:.4f}")
    print(paths["detections"].parent)
    return EXIT_OK


def _dedup(values: list) -> list:
    seen = set()
    out = []
    for v in values:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _cmd_sweep(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.manifest)
    n_images = max(len(dataset.query_image_ids()), 1)
    rows = ["lambda\talpha\tsteps\tnAP50\tsec_per_image"]
    for lam in _dedup(args.lambdas):
        for alpha in _dedup(args.alphas):
            for steps in _dedup(args.steps_grid):
                try:
                    cfg = _pipeline_config(args, method="diffusion",
                                           lam=lam, alpha=alpha, max_steps=steps)
                    start = time.perf_counter()
                    _, report = run_end_to_end(dataset, cfg)
                    per_image = (time.perf_counter() - start) / n_images
                    rows.append(
                        f"{lam!r}\t{alpha!r}\t{steps}\t{report.nap50!r}\t{per_image:.6f}"
                    )
                except (ValueError, PipelineError, DataFormatError) as exc:
                    print(f"sweep cell lambda={lam} alpha={alpha} steps={steps} "
                          f"failed: {exc}", file=sys.stderr)
                    rows.append(f"{lam!r}\t{alpha!r}\t{steps}\tfailed\tfailed")
    out = Path(args.out or _default_out("sweep"))
    out.mkdir(parents=True, exist_ok=True)
    table = out / "sweep.tsv"
    table.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(table)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        base_cfg = _pipeline_config(args, method="diffusion")
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    dataset = load_dataset(args.manifest)
    prototypes = resolve_prototypes(dataset, base_cfg)
    props = run_query_stage(dataset, prototypes, jobs=args.jobs)
    rows = ["method\tnAP\tnAP50\tnAP75"]
    for method in METHODS:
        cfg = PipelineConfig(diffusion=base_cfg.diffusion, method=method,
                             max_output=args.max_output, jobs=args.jobs)
        try:
            detections = run_refine_stage(props, cfg)
            report = evaluate(detections, dataset.ground_truth, max_dets=cfg.max_output)
            rows.append(f"{method}\t{report.nap!r}\t{report.nap50!r}\t{report.nap75!r}")
        except PipelineError as exc:
            print(f"notice: method {method!r} skipped: {exc}", file=sys.stderr)
            rows.append(f"{method}\tskipped\tskipped\tskipped")
    out = Path(args.out or _default_out("compare"))
    out.mkdir(parents=True, exist_ok=True)
    table = out / "compare.tsv"
    table.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print("\n".join(rows))
    print(table)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, argv, parser)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_compare(args)
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
