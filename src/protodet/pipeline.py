"""End-to-end orchestration: prototypes -> matching -> refinement -> capped output.

Stage 1 pools each support's masked features and averages them into per-class
prototypes.  Stage 2 classifies every query proposal by cosine against those
prototypes (using its precomputed vector when present, else pooling it from
the image feature map).  Stage 3 rescores with the selected method and keeps
the best ``max_output`` detections per image.  Images are independent after
stage 1, so stages 2-3 can fan out over a thread pool; results merge by image
id and are identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import postproc
from .diffusion import DiffusionParams, Proposal, diffuse_all_classes
from .errors import PipelineError
from .evaluation import EvalReport, evaluate
from .features import (
    ClassPrototype,
    build_prototypes,
    masked_roi_pool,
    match_proposal,
)
from .geometry import mask_downsample
from .postproc import ScoredDetection, topk_by_score
from .synthio import Dataset, ProposalRecord, load_dataset, load_prototypes

__all__ = [
    "METHODS",
    "PipelineConfig",
    "resolve_prototypes",
    "run_support_stage",
    "run_query_stage",
    "run_refine_stage",
    "run_end_to_end",
]

NMS_IOU_THR = 0.5
SOFT_NMS_SIGMA = 0.5
WBF_IOU_THR = 0.5


def _as_detections(scored) -> list[ScoredDetection]:
    return [ScoredDetection(box=p.box, class_id=p.pred_class, score=s, mask=p.mask)
            for p, s in scored]


def _raw(props: list[Proposal]) -> list[ScoredDetection]:
    return _as_detections((p, p.similarity) for p in props)


def _diffused(props: list[Proposal], cfg: PipelineConfig) -> list[ScoredDetection]:
    return _as_detections(diffuse_all_classes(props, cfg.diffusion))


# Rescoring methods, name -> fn(props, cfg), in report order.  The entries look
# up the postproc functions and diffuse_all_classes when called, not at import,
# so a rebinding of those names (a wrapper, a test double) takes effect.
METHODS: dict[str, Callable[[list[Proposal], PipelineConfig], list[ScoredDetection]]] = {
    "none": lambda props, cfg: _raw(props),
    "nms": lambda props, cfg: postproc.nms(_raw(props), NMS_IOU_THR),
    "softnms": lambda props, cfg: postproc.soft_nms(_raw(props), SOFT_NMS_SIGMA),
    "wbf": lambda props, cfg: postproc.wbf(_raw(props), WBF_IOU_THR),
    "softmerge": lambda props, cfg: postproc.soft_merge(_raw(props)),
    "diffusion": _diffused,
    "diffusion+nms": lambda props, cfg: postproc.nms(_diffused(props, cfg), NMS_IOU_THR),
}


@dataclass(frozen=True)
class PipelineConfig:
    diffusion: DiffusionParams = field(default_factory=DiffusionParams)
    method: str = "diffusion"
    max_output: int = 100
    jobs: int = 1
    prototype_path: str | Path | None = None  # None: build prototypes from supports

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {tuple(METHODS)}, got {self.method!r}")
        if self.max_output < 1:
            raise ValueError(f"max_output must be >= 1, got {self.max_output}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


def _map_images(fn: Callable, image_ids: Sequence[str], jobs: int) -> dict:
    if jobs <= 1 or len(image_ids) <= 1:
        return {image_id: fn(image_id) for image_id in image_ids}
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(fn, image_ids))
    return dict(zip(image_ids, results))


def run_support_stage(dataset: Dataset) -> list[ClassPrototype]:
    """Pool every support annotation and build one prototype per class."""
    present = {s.class_id for s in dataset.supports}
    missing = sorted(set(range(dataset.num_classes)) - present)
    if missing:
        raise PipelineError(f"support stage: no support annotations for class ids {missing}")
    pairs = []
    for s in dataset.supports:
        fm = dataset.feature_maps.get(s.image_id)
        if fm is None:
            raise PipelineError(
                f"support stage: no feature map for support image {s.image_id!r}"
            )
        soft = mask_downsample(s.mask, fm.grid_w, fm.grid_h)
        try:
            pairs.append((s.class_id, masked_roi_pool(fm, s.box, soft)))
        except ValueError as exc:
            raise PipelineError(f"support stage: {s.image_id!r}: {exc}") from exc
    try:
        return build_prototypes(pairs)
    except ValueError as exc:
        raise PipelineError(f"support stage: {exc}") from exc


def _match_one(
    rec: ProposalRecord, dataset: Dataset, prototypes: Sequence[ClassPrototype]
) -> Proposal:
    feature = rec.feature
    if feature is None:
        fm = dataset.feature_maps.get(rec.image_id)
        if fm is None:
            raise PipelineError(
                f"query stage: proposal in image {rec.image_id!r} has no precomputed "
                "feature and the image has no feature map"
            )
        soft = mask_downsample(rec.mask, fm.grid_w, fm.grid_h)
        feature = masked_roi_pool(fm, rec.box, soft)
    pred_class, similarity = match_proposal(feature, prototypes)
    return Proposal(
        box=rec.box,
        mask=rec.mask,
        upn_score=rec.upn_score,
        feature=feature,
        pred_class=pred_class,
        similarity=similarity,
    )


def run_query_stage(
    dataset: Dataset, prototypes: Sequence[ClassPrototype], jobs: int = 1
) -> dict[str, list[Proposal]]:
    """Classify every proposal of every query image against the prototypes."""
    if not prototypes:
        raise PipelineError("query stage: no prototypes")

    def one_image(image_id: str) -> list[Proposal]:
        try:
            return [
                _match_one(rec, dataset, prototypes) for rec in dataset.proposals[image_id]
            ]
        except PipelineError:
            raise
        except ValueError as exc:
            raise PipelineError(f"query stage: image {image_id!r}: {exc}") from exc

    return _map_images(one_image, dataset.query_image_ids(), jobs)


def _refine_one_image(props: list[Proposal], cfg: PipelineConfig) -> list[ScoredDetection]:
    if not props:
        return []
    return topk_by_score(METHODS[cfg.method](props, cfg), cfg.max_output)


def run_refine_stage(
    props_by_image: Mapping[str, list[Proposal]], cfg: PipelineConfig
) -> dict[str, list[ScoredDetection]]:
    """Apply the configured rescoring method and cap detections per image."""

    def one_image(image_id: str) -> list[ScoredDetection]:
        try:
            return _refine_one_image(props_by_image[image_id], cfg)
        except ValueError as exc:
            raise PipelineError(f"refine stage: image {image_id!r}: {exc}") from exc

    return _map_images(one_image, list(props_by_image), cfg.jobs)


def resolve_prototypes(dataset: Dataset, cfg: PipelineConfig) -> list[ClassPrototype]:
    """Prototypes from the configured file, or freshly built from supports."""
    if cfg.prototype_path is None:
        return run_support_stage(dataset)
    prototypes = load_prototypes(cfg.prototype_path)
    if not prototypes:
        raise PipelineError(f"prototype file {cfg.prototype_path} holds no prototypes")
    return prototypes


def run_end_to_end(
    dataset: Dataset | Path | str, cfg: PipelineConfig
) -> tuple[dict[str, list[ScoredDetection]], EvalReport]:
    """Run all three stages and evaluate against the dataset's ground truth."""
    if not isinstance(dataset, Dataset):
        dataset = load_dataset(dataset)
    prototypes = resolve_prototypes(dataset, cfg)
    props = run_query_stage(dataset, prototypes, jobs=cfg.jobs)
    detections = run_refine_stage(props, cfg)
    report = evaluate(detections, dataset.ground_truth, max_dets=cfg.max_output)
    return detections, report
