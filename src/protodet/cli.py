"""Command-line entry points: dataset generation, runs, sweeps, comparisons.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 pipeline or
generation error.  Flags override values read from an optional key=value
config file (``--config``) whose keys are the command's long option names,
matched in full; the environment variable PROTODET_OUTPUT_DIR supplies the
base for default output directories.  Flag defaults are those of
``GeneratorConfig``, ``DiffusionParams`` and ``PipelineConfig``.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

from .diffusion import DiffusionParams
from .errors import DataFormatError, GenerationError, PipelineError
from .evaluation import evaluate
from .generator import GeneratorConfig, generate_dataset
from .interchange import Dataset, export_run, load_dataset
from .pipeline import (
    METHODS,
    PipelineConfig,
    resolve_prototypes,
    run_end_to_end,
    run_query_stage,
    run_refine_stage,
)
# unused here, but benchmark tracing wraps this stage through this binding
from .pipeline import run_support_stage  # noqa: F401

ENV_OUTPUT_DIR = "PROTODET_OUTPUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_PIPELINE = 4


def _default_out(kind: str) -> str:
    return str(Path(os.environ.get(ENV_OUTPUT_DIR, ".")) / f"protodet_{kind}")


_CONFIG_HELP = ("key=value file whose keys are this command's option names; "
                "command-line flags take precedence")


def _add_diffusion_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=DiffusionParams.alpha,
                   help="restart probability of the score diffusion")
    p.add_argument("--lambda", dest="lam", type=float, default=DiffusionParams.lam,
                   help="decay strength of the (1 - pi)^lambda score transform")
    p.add_argument("--tau", type=float, default=DiffusionParams.tau,
                   help="early-stop threshold on the iterate difference norm")
    p.add_argument("--max-steps", type=int, default=DiffusionParams.max_steps,
                   help="diffusion step budget")


def _add_common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-output", type=int, default=PipelineConfig.max_output,
                   help="detections kept per image, ranked by final score")
    p.add_argument("--jobs", type=int, default=PipelineConfig.jobs,
                   help="accepted for compatibility and checked to be >= 1; "
                        "work runs on one thread")
    p.add_argument("--prototypes",
                   help="load class prototypes from this file instead of "
                        "building them from the support annotations")
    p.add_argument("--config", help=_CONFIG_HELP)


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
    gen.add_argument("--seed", type=int, help="generator seed")
    gen.add_argument("--images", type=int, help="query image count")
    gen.add_argument("--classes", type=int, help="object class count")
    gen.add_argument("--shots", type=int, help="support annotations per class")
    gen.add_argument("--objects", dest="objects_per_image", nargs=2, type=int,
                     metavar=("LO", "HI"), help="objects per image (inclusive range)")
    gen.add_argument("--fragments", dest="fragments_per_object", nargs=2, type=int,
                     metavar=("LO", "HI"), help="fragment proposals per object")
    gen.add_argument("--distractors", dest="distractors_per_image", nargs=2, type=int,
                     metavar=("LO", "HI"), help="background distractors per image")
    gen.add_argument("--feature-dim", type=int, help="feature dimensionality")
    gen.add_argument("--noise", dest="feature_noise", type=float, metavar="NOISE",
                     help="fraction of isotropic noise mixed into proposal features")
    gen.add_argument("--fragment-scores", dest="fragment_score_range", nargs=2, type=float,
                     metavar=("LO", "HI"), help="objectness range of fragment proposals")
    gen.add_argument("--whole-scores", dest="whole_score_range", nargs=2, type=float,
                     metavar=("LO", "HI"), help="objectness range of whole-object proposals")
    gen.add_argument("--image-size", type=int, help="square image side, pixels")
    gen.add_argument("--grid-size", type=int, help="feature grid side, cells")
    gen.add_argument("--allow-score-overlap", action="store_true",
                     help="let fragment and whole score ranges overlap (tie stress)")
    gen.add_argument("--query-feature-maps", action="store_true",
                     help="emit per-image feature maps instead of per-proposal vectors")
    # each flag above sets the GeneratorConfig field its dest names, and its default
    gen.set_defaults(**asdict(GeneratorConfig()))
    gen.add_argument("--config", help=_CONFIG_HELP)
    gen.add_argument("--out", help=f"output directory (default {_default_out('dataset')})")

    run = sub.add_parser("run", formatter_class=fmt,
                         help="run the detection pipeline on a dataset manifest")
    run.add_argument("manifest", help="path to manifest.json")
    _add_diffusion_flags(run)
    run.add_argument("--method", choices=METHODS, default=PipelineConfig.method,
                     help="score refinement method")
    _add_common_run_flags(run)
    run.add_argument("--out", help=f"output directory (default {_default_out('run')})")

    sweep = sub.add_parser("sweep", formatter_class=fmt,
                           help="grid-sweep diffusion hyperparameters")
    sweep.add_argument("manifest", help="path to manifest.json")
    sweep.add_argument("--lambdas", nargs="+", type=float, default=[DiffusionParams.lam],
                       help="decay strengths to sweep")
    sweep.add_argument("--alphas", nargs="+", type=float, default=[DiffusionParams.alpha],
                       help="restart probabilities to sweep")
    sweep.add_argument("--steps-grid", nargs="+", type=int,
                       default=[DiffusionParams.max_steps], help="step budgets to sweep")
    sweep.add_argument("--tau", type=float, default=DiffusionParams.tau,
                       help="early-stop threshold on the iterate difference norm")
    _add_common_run_flags(sweep)
    sweep.add_argument("--out", help=f"output directory (default {_default_out('sweep')})")

    comp = sub.add_parser("compare", formatter_class=fmt,
                          help="run every post-processing method on one dataset")
    comp.add_argument("manifest", help="path to manifest.json")
    _add_diffusion_flags(comp)
    _add_common_run_flags(comp)
    comp.add_argument("--out", help=f"output directory (default {_default_out('compare')})")
    return parser


def _config_argv(path: str, command_parser: argparse.ArgumentParser) -> list[str]:
    """The key=value config file as flags of ``command_parser``: a key is one of
    its long option names in full, but not ``help`` or ``config``.  ``key=v1 v2``
    (or ``v1,v2``) gives ``--key v1 v2``; a switch is set by ``true``/``yes`` and
    left off by ``false``/``no``; these four leave any other flag without a value."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: bytes that are not UTF-8
        raise DataFormatError(f"cannot read config file {path}: {exc}") from exc
    options = {opt[2:]: action for opt, action in command_parser._option_string_actions.items()
               if opt.startswith("--") and opt not in ("--help", "--config")}
    argv: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = (part.strip() for part in line.partition("="))
        if key not in options:
            raise DataFormatError(f"{path}:{lineno}: {key!r} is not a config key")
        values = raw.replace(",", " ").split()
        # argparse reads a token that starts with "-" as a flag, unless it is a number
        if any(v.startswith("-") and not re.fullmatch(r"-\d+|-\d*\.\d+", v) for v in values):
            raise DataFormatError(f"{path}:{lineno}: value {raw!r} of {key!r} reads as a flag")
        if raw.lower() in ("true", "yes", "false", "no"):
            if options[key].nargs == 0 and raw.lower() in ("false", "no"):
                continue
            values = []
        argv += [f"--{key}={values[0]}"] if len(values) == 1 else [f"--{key}", *values]
    return argv


def _config(args: argparse.Namespace, method: str = PipelineConfig.method,
            **knobs) -> PipelineConfig:
    """The config of the flags every pipeline command has; the diffusion knobs
    besides tau come from ``knobs``, or keep their defaults."""
    return PipelineConfig(
        diffusion=DiffusionParams(tau=args.tau, **knobs),
        method=method,
        max_output=args.max_output,
        jobs=args.jobs,
        prototype_path=args.prototypes,
    )


def _usage_error(exc: ValueError) -> int:
    print(f"usage error: {exc}", file=sys.stderr)
    return EXIT_USAGE


def _query_once(args: argparse.Namespace, base: PipelineConfig) -> tuple[Dataset, dict]:
    """Load, resolve prototypes and match every proposal: the stages that no
    refinement config affects, run once per command.  The class graphs each
    image builds on first use are kept, so every config refines from the same
    ones."""
    dataset = load_dataset(args.manifest)
    prototypes = resolve_prototypes(dataset, base)
    return dataset, run_query_stage(dataset, prototypes)


def _refine_and_evaluate(dataset: Dataset, images: dict, cfg: PipelineConfig):
    detections = run_refine_stage(images, cfg)
    return detections, evaluate(detections, dataset.ground_truth, max_dets=cfg.max_output)


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        values = {f.name: getattr(args, f.name) for f in fields(GeneratorConfig)}
        cfg = GeneratorConfig(**{name: tuple(v) if isinstance(v, list) else v
                                 for name, v in values.items()})
    except ValueError as exc:
        return _usage_error(exc)
    print(generate_dataset(cfg, args.out or _default_out("dataset")))
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = _config(args, args.method, alpha=args.alpha, lam=args.lam,
                      max_steps=args.max_steps)
    except ValueError as exc:
        return _usage_error(exc)
    detections, report = run_end_to_end(args.manifest, cfg)
    paths = export_run(detections, report, args.out or _default_out("run"))
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
        base = _config(args)  # the shared flags, checked before the query pass
    except ValueError as exc:
        return _usage_error(exc)
    dataset, images = _query_once(args, base)
    n_images = max(len(dataset.query_image_ids()), 1)
    rows = ["lambda\talpha\tsteps\tnAP50\tsec_per_image"]
    for lam, alpha, steps in itertools.product(
        dict.fromkeys(args.lambdas), dict.fromkeys(args.alphas), dict.fromkeys(args.steps_grid)
    ):
        try:
            cfg = _config(args, alpha=alpha, lam=lam, max_steps=steps)
            start = time.perf_counter()
            _, report = _refine_and_evaluate(dataset, images, cfg)
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
        base = _config(args, alpha=args.alpha, lam=args.lam, max_steps=args.max_steps)
    except ValueError as exc:
        return _usage_error(exc)
    dataset, images = _query_once(args, base)
    rows = ["method\tnAP\tnAP50\tnAP75"]
    for method in METHODS:
        try:
            _, report = _refine_and_evaluate(dataset, images, replace(base, method=method))
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
            [commands] = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            flags = _config_argv(args.config, commands.choices[args.command])
            args = parser.parse_args([argv[0], *flags, f"--config={args.config}", *argv[1:]])
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader left: every command writes its files before it prints
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        return EXIT_OK
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
