"""Run one protodet CLI command in this (fresh) interpreter and record its cost.

    python3 bench/child.py --result R.json [--spans S.json | --setup MANIFEST] -- <protodet args...>

Writes R.json with the exit code, the wall and CPU seconds of ``cli.main`` and
the process's peak RSS.  With ``--spans`` the command runs with every layer
binding wrapped (see tracing.py); the spans and counts go to S.json, and
R.json lists any binding that was not restored afterwards.  With ``--setup``,
after the command and after its peak RSS is read, the process also times
``load_dataset(MANIFEST)``, the set-up a user's run pays once, ``SETUP_LOADS``
times in a row.  Doing so in the command's process saves an interpreter start
per round, so a run holds more rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SETUP_LOADS = 3  # load_dataset samples per set-up process


def _peak_rss_kb() -> int:
    """High-water RSS of this process's own address space, in KiB.

    Not ru_maxrss: Linux carries the parent's high-water mark across the exec
    that started this interpreter, so a large parent would hide a small child.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run(cli_main, argv: list[str]) -> int:
    try:
        return cli_main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup", default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, str(ROOT / "src"))
    from protodet import load_dataset
    from protodet.cli import main as cli_main

    tracer = tracing.Tracer() if args.spans else None
    before = tracing.bindings()
    with tracer.installed() if tracer else contextlib.nullcontext():
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        rc = _run(cli_main, argv)
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "rc": rc,
        "wall_s": t1 - t0,
        "cpu_s": (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime),
        "peak_rss_kb": _peak_rss_kb(),
        "unrestored": tracing.unrestored(before),
    }
    if args.setup:
        result["load_s"] = []
        for _ in range(SETUP_LOADS):
            t0 = time.perf_counter()
            load_dataset(args.setup)
            result["load_s"].append(time.perf_counter() - t0)
    if tracer is not None:
        counts, maxima = tracer.counts()
        Path(args.spans).write_text(
            json.dumps({"spans": tracer.spans(), "counts": counts, "maxima": maxima}),
            encoding="utf-8",
        )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
