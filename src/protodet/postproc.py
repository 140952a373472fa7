"""Classical detection post-processing baselines: NMS, Soft-NMS, WBF, soft merging.

All methods suppress per class and return detections sorted by descending
score with ties broken by input position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .diffusion import ClassGraph
from .geometry import BinaryMask, BoundingBox, box_iou, box_iou_matrix
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


def _by_score(dets: list[ScoredDetection]) -> list[ScoredDetection]:
    """Descending score; the sort is stable, so ties keep list position."""
    return sorted(dets, key=lambda d: -d.score)


def _ranked_by_class(dets: list[ScoredDetection]) -> dict[int, list[int]]:
    """Each class's indices into ``dets``, in ``_by_score`` order."""
    by_class: dict[int, list[int]] = {}
    for i in sorted(range(len(dets)), key=lambda i: -dets[i].score):
        by_class.setdefault(dets[i].class_id, []).append(i)
    return by_class


def _iou_matrix(dets: list[ScoredDetection], idx: list[int]) -> list[list[float]]:
    """IoU of every pair of ``dets[idx]``, rows and columns in ``idx`` order."""
    boxes = np.array([dets[i].box.as_tuple() for i in idx], dtype=np.float64)
    return box_iou_matrix(boxes, boxes).tolist()


def nms(dets: list[ScoredDetection], iou_thr: float = 0.5) -> list[ScoredDetection]:
    """Greedy hard suppression: drop any box whose IoU with a kept, higher-scored
    box of the same class exceeds the threshold."""
    if not 0.0 < iou_thr < 1.0:
        raise ValueError(f"iou_thr must be in (0, 1), got {iou_thr}")
    kept: list[int] = []
    for idx in _ranked_by_class(dets).values():
        iou = _iou_matrix(dets, idx)
        kept_here: list[int] = []
        for r in range(len(idx)):
            if all(iou[r][k] <= iou_thr for k in kept_here):
                kept_here.append(r)
        kept += [idx[r] for r in kept_here]
    return _by_score([dets[i] for i in sorted(kept)])


def soft_nms(dets: list[ScoredDetection], sigma: float = 0.5) -> list[ScoredDetection]:
    """Gaussian score decay: instead of removal, every not-yet-selected box's
    score is multiplied by exp(-iou^2 / sigma) against each selected box.  Of
    equal decayed scores, the lowest input position is selected first."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    final: dict[int, float] = {}
    for idx in _ranked_by_class(dets).values():
        iou = _iou_matrix(dets, idx)
        current = {r: dets[i].score for r, i in enumerate(idx)}  # keyed by position in idx
        while current:
            top = min(current, key=lambda r: (-current[r], idx[r]))
            final[idx[top]] = current.pop(top)
            row = iou[top]
            for r in current:
                current[r] *= math.exp(-(row[r] * row[r]) / sigma)
    return _by_score([replace(d, score=final[i]) for i, d in enumerate(dets)])


def wbf(dets: list[ScoredDetection], iou_thr: float = 0.5) -> list[ScoredDetection]:
    """Weighted boxes fusion: greedily cluster same-class boxes whose IoU with a
    cluster's running fused box exceeds the threshold; each cluster becomes one
    box with score-weighted mean coordinates and the plain mean of its scores."""
    if not 0.0 < iou_thr < 1.0:
        raise ValueError(f"iou_thr must be in (0, 1), got {iou_thr}")
    fused_out: list[ScoredDetection] = []
    by_class = _ranked_by_class(dets)
    for class_id in sorted(by_class):
        clusters: list[dict] = []
        for i in by_class[class_id]:
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
    # ties keep (class, cluster-creation) order
    return _by_score(fused_out)


def soft_merge(
    dets: list[ScoredDetection], graphs: Mapping[int, ClassGraph]
) -> list[ScoredDetection]:
    """Single-pass mask-coverage decay: walking each class by descending score,
    a detection keeps score * (1 - max coverage of its mask by any
    higher-ranked mask).  A fully swallowed fragment drops to zero.  The
    coverage is read from ``graphs``, the ``build_class_graphs`` of the
    proposals ``dets`` were made from, permuted into rank order."""
    new_scores: dict[int, float] = {}
    for class_id, order in _ranked_by_class(dets).items():
        graph = graphs.get(class_id)
        if graph is None or sorted(graph.node_ids) != sorted(order):
            raise ValueError(f"no class graph over the class {class_id} detections")
        pos = {node: k for k, node in enumerate(graph.node_ids)}
        perm = [pos[i] for i in order]
        cov = graph.coverage[np.ix_(perm, perm)]
        penalties = np.tril(cov, -1).max(axis=1, initial=0.0).tolist()
        for i, penalty in zip(order, penalties):
            new_scores[i] = dets[i].score * (1.0 - penalty)
    return _by_score([replace(d, score=new_scores[i]) for i, d in enumerate(dets)])


def topk_by_score(dets: list[ScoredDetection], k: int) -> list[ScoredDetection]:
    """The k highest-scored detections across classes; ties keep input order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _by_score(dets)[:k]
