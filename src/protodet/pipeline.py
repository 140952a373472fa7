"""End-to-end orchestration: prototypes -> matching -> refinement -> capped output.

Stage 1 pools each support's masked features and averages them into per-class
prototypes.  Stage 2 classifies every query proposal by cosine against those
prototypes (using its precomputed vector when present, else pooling it from
the image feature map) into one ``QueryImage`` per image, whose class graphs
are built on first use and then shared by every method and sweep cell that
reads them.  Stage 3 rescores with the selected method and keeps the best
``max_output`` detections per image.  Stages 2-3 handle one image at a time,
in image order, on the calling thread; ``PipelineConfig.jobs`` is validated
but selects no code path, so outputs are identical for any value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import postproc
from .diffusion import (ClassGraph, DiffusionParams, Proposal, build_class_graphs,
                        diffuse_all_classes)
from .errors import DataFormatError, PipelineError
from .evaluation import EvalReport, evaluate
from .features import (
    ClassPrototype,
    build_prototypes,
    masked_roi_pool,
    match_proposal,
)
from .geometry import mask_downsample
from .postproc import ScoredDetection, topk_by_score
from .interchange import Dataset, ProposalRecord, load_dataset, load_prototypes

__all__ = [
    "METHODS",
    "PipelineConfig",
    "QueryImage",
    "resolve_prototypes",
    "run_support_stage",
    "run_query_stage",
    "run_refine_stage",
    "run_end_to_end",
]

NMS_IOU_THR = 0.5
SOFT_NMS_SIGMA = 0.5
WBF_IOU_THR = 0.5


@dataclass(frozen=True, eq=False)
class QueryImage:
    """One query image's matched proposals and its class graphs, built on first
    use (``softmerge`` and the diffusion methods read them) and then kept."""

    proposals: tuple[Proposal, ...]

    @cached_property
    def graphs(self) -> dict[int, ClassGraph]:
        return build_class_graphs(self.proposals)


def _as_detections(scored) -> list[ScoredDetection]:
    return [ScoredDetection(box=p.box, class_id=p.pred_class, score=s) for p, s in scored]


def _raw(image: QueryImage) -> list[ScoredDetection]:
    return _as_detections((p, p.similarity) for p in image.proposals)


def _diffused(image: QueryImage, cfg: PipelineConfig) -> list[ScoredDetection]:
    return _as_detections(diffuse_all_classes(image.graphs, cfg.diffusion))


# Rescoring methods, name -> fn(image, cfg), in report order.  The entries look
# up the postproc functions and diffuse_all_classes when called, not at import,
# so a rebinding of those names (a wrapper, a test double) takes effect.
METHODS: dict[str, Callable[[QueryImage, PipelineConfig], list[ScoredDetection]]] = {
    "none": lambda image, cfg: _raw(image),
    "nms": lambda image, cfg: postproc.nms(_raw(image), NMS_IOU_THR),
    "softnms": lambda image, cfg: postproc.soft_nms(_raw(image), SOFT_NMS_SIGMA),
    "wbf": lambda image, cfg: postproc.wbf(_raw(image), WBF_IOU_THR),
    "softmerge": lambda image, cfg: postproc.soft_merge(_raw(image), image.graphs),
    "diffusion": _diffused,
    "diffusion+nms": lambda image, cfg: postproc.nms(_diffused(image, cfg), NMS_IOU_THR),
}


@dataclass(frozen=True)
class PipelineConfig:
    diffusion: DiffusionParams = field(default_factory=DiffusionParams)
    method: str = "diffusion"
    max_output: int = 100
    jobs: int = 1  # accepted for compatibility; work runs on one thread
    prototype_path: str | Path | None = None  # None: build prototypes from supports

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {tuple(METHODS)}, got {self.method!r}")
        if self.max_output < 1:
            raise ValueError(f"max_output must be >= 1, got {self.max_output}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


def run_support_stage(dataset: Dataset) -> list[ClassPrototype]:
    """Pool every support annotation and build one prototype per class."""
    present = {s.class_id for s in dataset.supports}
    # ids below len(present) + 10 hold every missing id, or 10, however large num_classes is
    missing = sorted(set(range(min(dataset.num_classes, len(present) + 10))) - present)
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
    dataset: Dataset, prototypes: Sequence[ClassPrototype]
) -> dict[str, QueryImage]:
    """Classify every proposal of every query image against the prototypes."""
    if not prototypes:
        raise PipelineError("query stage: no prototypes")
    out: dict[str, QueryImage] = {}
    for image_id in dataset.query_image_ids():
        try:
            out[image_id] = QueryImage(tuple(
                _match_one(rec, dataset, prototypes) for rec in dataset.proposals[image_id]
            ))
        except ValueError as exc:
            raise PipelineError(f"query stage: image {image_id!r}: {exc}") from exc
    return out


def _refine_one_image(image: QueryImage, cfg: PipelineConfig) -> list[ScoredDetection]:
    if not image.proposals:
        return []
    return topk_by_score(METHODS[cfg.method](image, cfg), cfg.max_output)


def run_refine_stage(
    images: Mapping[str, QueryImage], cfg: PipelineConfig
) -> dict[str, list[ScoredDetection]]:
    """Apply the configured rescoring method and cap detections per image."""
    out: dict[str, list[ScoredDetection]] = {}
    for image_id, image in images.items():
        try:
            out[image_id] = _refine_one_image(image, cfg)
        except ValueError as exc:
            raise PipelineError(f"refine stage: image {image_id!r}: {exc}") from exc
    return out


def resolve_prototypes(dataset: Dataset, cfg: PipelineConfig) -> list[ClassPrototype]:
    """Prototypes from the configured file, checked to fit the dataset, or built
    from supports."""
    path = cfg.prototype_path
    if path is None:
        return run_support_stage(dataset)
    prototypes = load_prototypes(path)
    outside = [p.class_id for p in prototypes if p.class_id >= dataset.num_classes]
    if outside:
        raise DataFormatError(f"{path}: class ids {outside} outside [0, {dataset.num_classes})")
    dim = prototypes[0].vector.size
    dims = {fm.channels for fm in dataset.feature_maps.values()}
    dims.update(rec.feature.size for recs in dataset.proposals.values() for rec in recs
                if rec.feature is not None)
    if dims - {dim}:
        raise DataFormatError(f"{path}: prototype dimension {dim} differs from the "
                              f"dataset's feature dimension {sorted(dims)}")
    return prototypes


def run_end_to_end(
    dataset: Dataset | Path | str, cfg: PipelineConfig
) -> tuple[dict[str, list[ScoredDetection]], EvalReport]:
    """Run all three stages and evaluate against the dataset's ground truth."""
    if not isinstance(dataset, Dataset):
        dataset = load_dataset(dataset)
    prototypes = resolve_prototypes(dataset, cfg)
    images = run_query_stage(dataset, prototypes)
    detections = run_refine_stage(images, cfg)
    report = evaluate(detections, dataset.ground_truth, max_dets=cfg.max_output)
    return detections, report
