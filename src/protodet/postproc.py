"""Classical detection post-processing baselines: NMS, Soft-NMS, WBF, soft merging.

All methods suppress per class and return detections sorted by descending
score with ties broken by input position.  ``nms``, ``soft_nms`` and ``wbf``
take a detection list; ``soft_merge`` takes the class graphs of the proposals
alone, and a proposal's position is its node id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .diffusion import ClassGraph
from .geometry import BoundingBox, box_iou, box_iou_matrix
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

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise ValueError(f"detection score must be finite, got {self.score}")


def _by_score(dets: list[ScoredDetection]) -> list[ScoredDetection]:
    """Descending score; the sort is stable, so ties keep list position."""
    return sorted(dets, key=lambda d: -d.score)


def _ranked_by_class(dets: list[ScoredDetection]) -> dict[int, list[int]]:
    """Each class's indices into ``dets``, in ``_by_score`` order."""
    negated = [-d.score for d in dets]
    by_class: dict[int, list[int]] = {}
    for i in sorted(range(len(dets)), key=negated.__getitem__):
        by_class.setdefault(dets[i].class_id, []).append(i)
    return by_class


def _iou_matrix(dets: list[ScoredDetection], idx: list[int]) -> np.ndarray:
    """IoU of every pair of ``dets[idx]``, rows and columns in ``idx`` order."""
    boxes = np.array([dets[i].box.as_tuple() for i in idx], dtype=np.float64)
    return box_iou_matrix(boxes, boxes)


def nms(dets: list[ScoredDetection], iou_thr: float = 0.5) -> list[ScoredDetection]:
    """Greedy hard suppression: drop any box whose IoU with a kept, higher-scored
    box of the same class exceeds the threshold."""
    if not 0.0 < iou_thr < 1.0:
        raise ValueError(f"iou_thr must be in (0, 1), got {iou_thr}")
    kept: list[int] = []
    for idx in _ranked_by_class(dets).values():
        # row-major over the pairs above the threshold: every pair (q, r), q < r,
        # comes before row r, so r's own fate is settled when its row is read
        rows, cols = np.nonzero(np.triu(_iou_matrix(dets, idx) > iou_thr, 1))
        suppressed: set[int] = set()
        for r, c in zip(rows.tolist(), cols.tolist()):
            if r not in suppressed:
                suppressed.add(c)
        kept += [i for r, i in enumerate(idx) if r not in suppressed]
    return _by_score([dets[i] for i in sorted(kept)])


def soft_nms(dets: list[ScoredDetection], sigma: float = 0.5) -> list[ScoredDetection]:
    """Gaussian score decay: instead of removal, every not-yet-selected box's
    score is multiplied by exp(-iou^2 / sigma) against each selected box.  Of
    equal decayed scores, the lowest input position is selected first."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    final: dict[int, float] = {}
    for idx in _ranked_by_class(dets).values():
        # only overlapping pairs decay: at IoU 0 the factor is exp(-0.0) == 1.0
        iou = _iou_matrix(dets, idx)
        rows, cols = np.nonzero(iou)
        bounds = np.searchsorted(rows, np.arange(len(idx) + 1)).tolist()
        pairs = list(zip(cols.tolist(), iou[rows, cols].tolist()))
        current = [dets[i].score for i in idx]  # by position in idx; -inf once selected
        for _ in idx:
            best = max(current)
            top = current.index(best)
            if current.count(best) > 1:
                top = min((r for r, s in enumerate(current) if s == best), key=idx.__getitem__)
            final[idx[top]] = current[top]
            current[top] = -math.inf
            for r, v in pairs[bounds[top]:bounds[top + 1]]:
                if current[r] != -math.inf:
                    current[r] *= math.exp(-(v * v) / sigma)
    return _by_score([ScoredDetection(d.box, d.class_id, final[i]) for i, d in enumerate(dets)])


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
            members = c["members"]
            # np.mean of one score is that score
            score = members[0].score if len(members) == 1 else np.mean([m.score for m in members])
            fused_out.append(ScoredDetection(box=c["fused"], class_id=class_id, score=float(score)))
    # ties keep (class, cluster-creation) order
    return _by_score(fused_out)


def soft_merge(graphs: Mapping[int, ClassGraph]) -> list[ScoredDetection]:
    """Single-pass mask-coverage decay over ``build_class_graphs(props)``:
    walking each class by descending similarity (of equal ones, the earlier
    node first), a proposal keeps similarity * (1 - max coverage of its mask by
    any higher-ranked mask).  A fully swallowed fragment drops to zero."""
    merged: dict[int, ScoredDetection] = {}
    for graph in graphs.values():
        members = graph.members
        order = sorted(range(len(members)), key=lambda k: -members[k].similarity)
        cov = graph.coverage[np.ix_(order, order)]
        penalties = np.tril(cov, -1).max(axis=1, initial=0.0).tolist()
        for k, penalty in zip(order, penalties):
            p = members[k]
            merged[graph.node_ids[k]] = ScoredDetection(
                box=p.box, class_id=p.pred_class, score=p.similarity * (1.0 - penalty))
    return _by_score([merged[i] for i in sorted(merged)])


def topk_by_score(dets: list[ScoredDetection], k: int) -> list[ScoredDetection]:
    """The k highest-scored detections across classes; ties keep input order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _by_score(dets)[:k]
