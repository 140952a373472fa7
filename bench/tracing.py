"""In-memory span tracing of protodet's layer calls, installed from outside the package.

The program binds most layer functions by name at import (``from .x import f``),
so a wrapper must replace every binding the program calls through, not just the
defining module's attribute.  ``HOOKS`` lists those bindings.  ``Tracer.installed``
swaps each for a timing wrapper and puts the original object back on exit.

A span is ``(id, parent_id, name, start, end, thread_id)``.  Parent stacks are kept
per thread because ``--jobs N`` runs layer calls on pool threads; a pool thread's
outermost span takes as parent the innermost open span of the installing thread,
which is the stage that submitted the work.  The hottest functions get count-only
wrappers, because a span per call would cost more than the call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

Span = tuple  # (id, parent_id | None, name, start, end, thread_id)


def _observe_load(counts: dict, maxima: dict, args: tuple, result) -> None:
    counts["synthio.proposals_loaded"] = counts.get("synthio.proposals_loaded", 0) + sum(
        len(v) for v in result.proposals.values()
    )


def _observe_graph(counts: dict, maxima: dict, args: tuple, result) -> None:
    n = len(result.node_ids)
    counts["diffusion.graph_cells"] = counts.get("diffusion.graph_cells", 0) + n * n
    maxima["diffusion.graph_nodes.max"] = max(maxima.get("diffusion.graph_nodes.max", 0), n)


def _observe_diffuse(counts: dict, maxima: dict, args: tuple, result) -> None:
    counts["diffusion.diffuse.steps"] = counts.get("diffusion.diffuse.steps", 0) + result.steps_taken
    counts["diffusion.diffuse.converged"] = (
        counts.get("diffusion.diffuse.converged", 0) + int(result.converged)
    )


def _count_decoded_px(counts: dict, args: tuple) -> None:
    mask = args[0]
    counts["geometry.decoded_px"] = counts.get("geometry.decoded_px", 0) + mask.width * mask.height


@dataclass(frozen=True)
class Hook:
    """One binding to wrap: ``getattr(import_module(module), attr)`` (dotted attr
    reaches a class member).  ``kind`` is "span" or "count"."""

    module: str
    attr: str
    name: str
    kind: str = "span"
    observe: Callable | None = None  # span: (counts, maxima, args, result)
    before: Callable | None = None   # count: (counts, args)


HOOKS: tuple[Hook, ...] = (
    # cli: every call the command handlers make into the layers
    Hook("protodet.cli", "load_dataset", "synthio.load_dataset", observe=_observe_load),
    Hook("protodet.cli", "export_run", "synthio.export_run"),
    Hook("protodet.cli", "run_end_to_end", "pipeline.run_end_to_end"),
    Hook("protodet.cli", "run_support_stage", "pipeline.run_support_stage"),
    Hook("protodet.cli", "run_query_stage", "pipeline.run_query_stage"),
    Hook("protodet.cli", "run_refine_stage", "pipeline.run_refine_stage"),
    Hook("protodet.cli", "evaluate", "evaluation.evaluate"),
    # pipeline: its own stages are reached through its module globals
    Hook("protodet.pipeline", "load_dataset", "synthio.load_dataset", observe=_observe_load),
    Hook("protodet.pipeline", "run_support_stage", "pipeline.run_support_stage"),
    Hook("protodet.pipeline", "run_query_stage", "pipeline.run_query_stage"),
    Hook("protodet.pipeline", "run_refine_stage", "pipeline.run_refine_stage"),
    Hook("protodet.pipeline", "build_prototypes", "features.build_prototypes"),
    Hook("protodet.pipeline", "masked_roi_pool", "features.masked_roi_pool"),
    Hook("protodet.pipeline", "match_proposal", "features.match_proposal"),
    Hook("protodet.pipeline", "mask_downsample", "geometry.mask_downsample"),
    Hook("protodet.pipeline", "diffuse_all_classes", "diffusion.diffuse_all_classes"),
    Hook("protodet.pipeline", "topk_by_score", "postproc.topk_by_score"),
    Hook("protodet.pipeline", "evaluate", "evaluation.evaluate"),
    # pipeline reaches the baselines as attributes of the postproc module
    Hook("protodet.postproc", "nms", "postproc.nms"),
    Hook("protodet.postproc", "soft_nms", "postproc.soft_nms"),
    Hook("protodet.postproc", "wbf", "postproc.wbf"),
    Hook("protodet.postproc", "soft_merge", "postproc.soft_merge"),
    # diffusion reaches its steps through its module globals
    Hook("protodet.diffusion", "build_class_graph", "diffusion.build_class_graph",
         observe=_observe_graph),
    Hook("protodet.diffusion", "diffuse", "diffusion.diffuse", observe=_observe_diffuse),
    Hook("protodet.diffusion", "refine_scores", "diffusion.refine_scores"),
    Hook("protodet.evaluation", "match_detections", "evaluation.match_detections"),
    Hook("protodet.evaluation", "topk_by_score", "postproc.topk_by_score"),
    # hot geometry kernels: counted, not timed
    Hook("protodet.postproc", "box_iou", "geometry.box_iou", kind="count"),
    Hook("protodet.evaluation", "box_iou", "geometry.box_iou", kind="count"),
    Hook("protodet.postproc", "mask_coverage", "geometry.mask_coverage", kind="count"),
    Hook("protodet.geometry", "BinaryMask.to_array", "geometry.to_array", kind="count",
         before=_count_decoded_px),
)


def _resolve(hook: Hook):
    owner = importlib.import_module(hook.module)
    *path, leaf = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}


class Tracer:
    """Collects spans and counts; one instance per traced run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._root: _ThreadState | None = None

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def span_wrapper(self, fn: Callable, name: str, observe: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            if st.stack:
                parent = st.stack[-1]
            elif st is not self._root and self._root is not None:
                top = self._root.stack[-1:]  # a slice, so a concurrent pop cannot raise
                parent = top[0] if top else None
            else:
                parent = None
            sid = next(self._ids)
            st.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                st.stack.pop()
                st.spans.append((sid, parent, name, start, end, threading.get_ident()))
            if observe is not None:
                observe(st.counts, st.maxima, args, result)
            return result

        return traced

    def count_wrapper(self, fn: Callable, name: str, before: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts = self._state().counts
            counts[name] = counts.get(name, 0) + 1
            if before is not None:
                before(counts, args)
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every hook for the duration of the block; originals are restored
        even when the block raises."""
        self._root = self._state()
        saved = []
        try:
            for hook in HOOKS:
                owner, leaf = _resolve(hook)
                original = getattr(owner, leaf)
                if hook.kind == "span":
                    wrapper = self.span_wrapper(original, hook.name, hook.observe)
                else:
                    wrapper = self.count_wrapper(original, hook.name, hook.before)
                saved.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def spans(self) -> list[Span]:
        with self._lock:
            states = list(self._states)
        return sorted((s for st in states for s in st.spans), key=lambda s: s[0])

    def counts(self) -> tuple[dict[str, int], dict[str, int]]:
        """Counts summed and maxima taken across threads."""
        counts: dict[str, int] = {}
        maxima: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for k, v in st.counts.items():
                counts[k] = counts.get(k, 0) + v
            for k, v in st.maxima.items():
                maxima[k] = max(maxima.get(k, v), v)
        return counts, maxima


def bindings() -> dict[str, object]:
    """The object currently bound at each hook, keyed "module.attr"."""
    out = {}
    for hook in HOOKS:
        owner, leaf = _resolve(hook)
        out[f"{hook.module}.{hook.attr}"] = getattr(owner, leaf)
    return out


def unrestored(before: dict[str, object]) -> list[str]:
    """Hooks whose binding is no longer the object recorded in ``before``."""
    return [key for key, obj in bindings().items() if obj is not before[key]]


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that children cover.

    Children may overlap one another (pool threads), so their intervals are
    merged before subtracting.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def _percentile_ms(durations: list[float], pct: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[pct - 1] * 1e3


# name -> which aggregates of that span to report
_SPAN_METRICS = {
    "synthio.load_dataset": ("s",),
    "synthio.export_run": ("s",),
    "pipeline.run_query_stage": ("s", "calls"),
    "pipeline.run_support_stage": ("calls",),
    "pipeline.run_refine_stage": ("s", "self_s"),
    "features.masked_roi_pool": ("s", "calls"),
    "features.match_proposal": ("s", "calls"),
    "geometry.mask_downsample": ("s", "calls"),
    "diffusion.diffuse_all_classes": ("s", "p50_ms", "p95_ms"),
    "diffusion.build_class_graph": ("s", "calls"),
    "diffusion.diffuse": ("s",),
    "diffusion.refine_scores": ("s",),
    "postproc.nms": ("s", "p95_ms"),
    "postproc.soft_nms": ("s", "p95_ms"),
    "postproc.wbf": ("s", "p95_ms"),
    "postproc.soft_merge": ("s", "p95_ms"),
    "postproc.topk_by_score": ("s",),
    "evaluation.evaluate": ("s", "calls"),
    "evaluation.match_detections": ("s", "calls"),
}

_COUNT_METRICS = (
    "synthio.proposals_loaded",
    "geometry.decoded_px",
    "geometry.to_array.calls",
    "geometry.box_iou.calls",
    "geometry.mask_coverage.calls",
    "diffusion.graph_cells",
    "diffusion.diffuse.steps",
)

_UNITS = {"s": "s", "self_s": "s", "calls": "count", "p50_ms": "ms", "p95_ms": "ms"}


def layer_metrics(spans: Sequence[Span], counts: dict, maxima: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: name -> (value, unit).

    A layer the command never called reports 0.
    """
    durations: dict[str, list[float]] = {}
    selfs: dict[str, float] = {}
    self_by_id = self_times(spans)
    for sid, _, name, start, end, _ in spans:
        durations.setdefault(name, []).append(end - start)
        selfs[name] = selfs.get(name, 0.0) + self_by_id[sid]
    out: dict[str, tuple[float, str]] = {}
    for name, aggs in _SPAN_METRICS.items():
        d = durations.get(name, [])
        values = {
            "s": sum(d),
            "self_s": selfs.get(name, 0.0),
            "calls": len(d),
            "p50_ms": _percentile_ms(d, 50),
            "p95_ms": _percentile_ms(d, 95),
        }
        for agg in aggs:
            out[f"{name}.{agg}"] = (float(values[agg]), _UNITS[agg])
    for name in _COUNT_METRICS:
        unit = "px" if name == "geometry.decoded_px" else "count"
        key = name[: -len(".calls")] if name.endswith(".calls") else name
        out[name] = (float(counts.get(key, 0)), unit)
    out["diffusion.graph_nodes.max"] = (float(maxima.get("diffusion.graph_nodes.max", 0)), "count")
    n_diffuse = len(durations.get("diffusion.diffuse", []))
    converged = counts.get("diffusion.diffuse.converged", 0)
    out["diffusion.diffuse.converged_ratio"] = (
        converged / n_diffuse if n_diffuse else 0.0, "ratio"
    )
    return out
