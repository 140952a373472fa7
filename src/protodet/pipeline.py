"""End-to-end orchestration: prototypes -> matching -> refinement -> capped output.

Stage 1 pools each support's masked features and averages them into per-class
prototypes.  Stage 2 classifies every query proposal by cosine against those
prototypes (using its precomputed vector when present, else pooling it from
the image feature map) into one ``QueryImage`` per image, whose class graphs
are built on first use and then shared by every method and sweep cell that
reads them.  Stages 1-2 make one pass per image: one ``mask_downsample`` and
one ``masked_roi_pool`` call over the image's masks that need pooling, and in
stage 2 one ``match_proposal`` call over all of its proposals.  Stage 3
rescores with the selected method and keeps the best ``max_output``
detections per image.  Stages 2-3 handle one image at a time,
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
    FeatureMap,
    build_prototypes,
    masked_roi_pool,
    match_proposal,
)
from .geometry import mask_downsample
from .postproc import ScoredDetection, topk_by_score
from .interchange import Dataset, load_dataset, load_prototypes

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


# Rescoring methods, name -> fn(image, cfg), in report order; each baseline runs
# at its postproc default.  The entries look up postproc and diffuse_all_classes
# when called, not at import, so a rebinding (a wrapper, a test double) applies.
METHODS: dict[str, Callable[[QueryImage, PipelineConfig], list[ScoredDetection]]] = {
    "none": lambda image, cfg: _raw(image),
    "nms": lambda image, cfg: postproc.nms(_raw(image)),
    "softnms": lambda image, cfg: postproc.soft_nms(_raw(image)),
    "wbf": lambda image, cfg: postproc.wbf(_raw(image)),
    "softmerge": lambda image, cfg: postproc.soft_merge(image.graphs),
    "diffusion": _diffused,
    "diffusion+nms": lambda image, cfg: postproc.nms(_diffused(image, cfg)),
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


def _pool(fm: FeatureMap, items: Sequence, index: Sequence[int], image_id: str, kind: str):
    """The features of ``items[i]`` for i in ``index``, records of one image with a
    mask and a box, from one downsample and one pooling call; the boxes map to
    the grid in the pixel frame of the masks, which share one size."""
    masks = [items[i].mask for i in index]
    soft = mask_downsample(masks, fm.grid_w, fm.grid_h)
    names = [f"image {image_id!r} {kind} {i}" for i in index]
    return masked_roi_pool(fm, [items[i].box for i in index], soft,
                           masks[0].width, masks[0].height, names)


def run_support_stage(dataset: Dataset) -> list[ClassPrototype]:
    """Pool every support annotation, one pass per support image, and build one
    prototype per class."""
    present = {s.class_id for s in dataset.supports}
    # ids below len(present) + 10 hold every missing id, or 10, however large num_classes is
    missing = sorted(set(range(min(dataset.num_classes, len(present) + 10))) - present)
    if missing:
        raise PipelineError(f"support stage: no support annotations for class ids {missing}")
    by_image: dict[str, list[int]] = {}
    for i, s in enumerate(dataset.supports):
        by_image.setdefault(s.image_id, []).append(i)
    features = {}
    for image_id, idx in by_image.items():
        fm = dataset.feature_maps.get(image_id)
        if fm is None:
            raise PipelineError(f"support stage: no feature map for support image {image_id!r}")
        group = [dataset.supports[i] for i in idx]
        try:
            features.update(zip(idx, _pool(fm, group, range(len(group)), image_id, "support")))
        except ValueError as exc:
            raise PipelineError(f"support stage: {image_id!r}: {exc}") from exc
    try:
        return build_prototypes((s.class_id, features[i]) for i, s in enumerate(dataset.supports))
    except ValueError as exc:
        raise PipelineError(f"support stage: {exc}") from exc


def run_query_stage(
    dataset: Dataset, prototypes: Sequence[ClassPrototype]
) -> dict[str, QueryImage]:
    """Classify every proposal of every query image against the prototypes: per
    image, one pooling pass over the proposals without a precomputed feature,
    then one matching call."""
    if not prototypes:
        raise PipelineError("query stage: no prototypes")
    out: dict[str, QueryImage] = {}
    for image_id in dataset.query_image_ids():
        recs = dataset.proposals[image_id]
        features = [rec.feature for rec in recs]
        todo = [i for i, f in enumerate(features) if f is None]
        fm = dataset.feature_maps.get(image_id)
        if todo and fm is None:
            raise PipelineError(f"query stage: proposal in image {image_id!r} has no precomputed "
                                "feature and the image has no feature map")
        try:
            if todo:
                for i, feature in zip(todo, _pool(fm, recs, todo, image_id, "proposal")):
                    features[i] = feature
            out[image_id] = QueryImage(tuple(
                Proposal(box=rec.box, mask=rec.mask, upn_score=rec.upn_score,
                         pred_class=pred_class, similarity=similarity)
                for rec, (pred_class, similarity) in zip(recs, match_proposal(features, prototypes))
            ))
        except ValueError as exc:
            raise PipelineError(f"query stage: image {image_id!r}: {exc}") from exc
    return out


def run_refine_stage(
    images: Mapping[str, QueryImage], cfg: PipelineConfig
) -> dict[str, list[ScoredDetection]]:
    """Apply the configured rescoring method and cap detections per image."""
    out: dict[str, list[ScoredDetection]] = {}
    for image_id, image in images.items():
        try:
            out[image_id] = (topk_by_score(METHODS[cfg.method](image, cfg), cfg.max_output)
                             if image.proposals else [])
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
