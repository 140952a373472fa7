"""Classical detection post-processing baselines: NMS, Soft-NMS, WBF, soft merging.

All methods suppress per class and return detections sorted by descending
score with ties broken by input position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BinaryMask, BoundingBox, box_iou, coverage_matrix
# unused here, but benchmark tracing counts calls through this module's binding
from .geometry import mask_coverage  # noqa: F401

__all__ = [
    "ScoredDetection",
    "nms",
    "soft_nms",
    "wbf",
    "soft_merge",
    "topk_by_score",
]


@dataclass(frozen=True)
class ScoredDetection:
    box: BoundingBox
    class_id: int
    score: float
    mask: BinaryMask | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise ValueError(f"detection score must be finite, got {self.score}")


def _indices_by_class(dets: list[ScoredDetection]) -> dict[int, list[int]]:
    by_class: dict[int, list[int]] = {}
    for i, d in enumerate(dets):
        by_class.setdefault(d.class_id, []).append(i)
    return by_class


def _score_order(dets: list[ScoredDetection], idx: list[int]) -> list[int]:
    return sorted(idx, key=lambda i: (-dets[i].score, i))


def nms(dets: list[ScoredDetection], iou_thr: float = 0.5) -> list[ScoredDetection]:
    """Greedy hard suppression: drop any box whose IoU with a kept, higher-scored
    box of the same class exceeds the threshold."""
    if not 0.0 < iou_thr < 1.0:
        raise ValueError(f"iou_thr must be in (0, 1), got {iou_thr}")
    kept: list[int] = []
    for idx in _indices_by_class(dets).values():
        for i in _score_order(dets, idx):
            if all(
                box_iou(dets[i].box, dets[j].box) <= iou_thr
                for j in kept
                if dets[j].class_id == dets[i].class_id
            ):
                kept.append(i)
    return [dets[i] for i in sorted(kept, key=lambda i: (-dets[i].score, i))]


def soft_nms(dets: list[ScoredDetection], sigma: float = 0.5) -> list[ScoredDetection]:
    """Gaussian score decay: instead of removal, every not-yet-selected box's
    score is multiplied by exp(-iou^2 / sigma) against each selected box."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    final: dict[int, float] = {}
    for idx in _indices_by_class(dets).values():
        current = {i: dets[i].score for i in idx}
        while current:
            top = min(current, key=lambda i: (-current[i], i))
            final[top] = current.pop(top)
            for i in current:
                iou = box_iou(dets[top].box, dets[i].box)
                current[i] *= math.exp(-(iou * iou) / sigma)
    out = [
        ScoredDetection(box=dets[i].box, class_id=dets[i].class_id,
                        score=final[i], mask=dets[i].mask)
        for i in range(len(dets))
    ]
    return [out[i] for i in sorted(range(len(out)), key=lambda i: (-out[i].score, i))]


def wbf(dets: list[ScoredDetection], iou_thr: float = 0.5) -> list[ScoredDetection]:
    """Weighted boxes fusion: greedily cluster same-class boxes whose IoU with a
    cluster's running fused box exceeds the threshold; each cluster becomes one
    box with score-weighted mean coordinates and the plain mean of its scores."""
    if not 0.0 < iou_thr < 1.0:
        raise ValueError(f"iou_thr must be in (0, 1), got {iou_thr}")
    fused_out: list[ScoredDetection] = []
    by_class = _indices_by_class(dets)
    for class_id in sorted(by_class):
        idx = by_class[class_id]
        clusters: list[dict] = []
        for i in _score_order(dets, idx):
            d = dets[i]
            home = None
            for c in clusters:
                if box_iou(d.box, c["fused"]) > iou_thr:
                    home = c
                    break
            if home is None:
                clusters.append({"members": [d], "fused": d.box})
            else:
                home["members"].append(d)
                coords = np.array([m.box.as_tuple() for m in home["members"]])
                weights = np.array([m.score for m in home["members"]])
                x1, y1, x2, y2 = (coords * weights[:, None]).sum(axis=0) / weights.sum()
                home["fused"] = BoundingBox(x1, y1, x2, y2)
        for c in clusters:
            score = float(np.mean([m.score for m in c["members"]]))
            fused_out.append(
                ScoredDetection(box=c["fused"], class_id=class_id, score=score, mask=None)
            )
    # stable sort keeps (class, cluster-creation) order among equal scores
    return sorted(fused_out, key=lambda d: -d.score)


def soft_merge(dets: list[ScoredDetection]) -> list[ScoredDetection]:
    """Single-pass mask-coverage decay: walking each class by descending score,
    a detection keeps score * (1 - max coverage of its mask by any
    higher-ranked mask).  A fully swallowed fragment drops to zero."""
    if any(d.mask is None for d in dets):
        raise ValueError("soft merging requires a mask on every detection")
    new_scores: dict[int, float] = {}
    for idx in _indices_by_class(dets).values():
        order = _score_order(dets, idx)
        cov = coverage_matrix([dets[i].mask for i in order])
        for rank, i in enumerate(order):
            penalty = float(cov[rank, :rank].max(initial=0.0))
            new_scores[i] = dets[i].score * (1.0 - penalty)
    out = [
        ScoredDetection(box=d.box, class_id=d.class_id, score=new_scores[i], mask=d.mask)
        for i, d in enumerate(dets)
    ]
    return [out[i] for i in sorted(range(len(out)), key=lambda i: (-out[i].score, i))]


def topk_by_score(dets: list[ScoredDetection], k: int) -> list[ScoredDetection]:
    """The k highest-scored detections across classes; ties keep input order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    return [dets[i] for i in order[:k]]
