"""Classical detection post-processing baselines: NMS, Soft-NMS, WBF, soft merging.

All methods suppress per class and return detections in ``rank`` order:
descending score, ties by input position.  ``nms``, ``soft_nms`` and ``wbf``
take a detection list; ``soft_merge`` takes the class graphs of the proposals
alone, and a proposal's position is its node id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .diffusion import ClassGraph
from .geometry import BoundingBox, box_iou, box_iou_pairs
# unused here, but benchmark tracing counts calls through this module's binding
from .geometry import mask_coverage  # noqa: F401

__all__ = [
    "ScoredDetection",
    "nms",
    "soft_nms",
    "wbf",
    "soft_merge",
    "topk_by_score",
    "rank",
]


@dataclass(frozen=True)
class ScoredDetection:
    box: BoundingBox
    class_id: int
    score: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise ValueError(f"detection score must be finite, got {self.score}")


def rank(scores: Sequence[float]) -> list[int]:
    """Positions of ``scores`` by descending score; a reversed sort stays
    stable, so of equal scores the earlier position comes first."""
    return sorted(range(len(scores)), key=scores.__getitem__, reverse=True)


def _by_score(dets: list[ScoredDetection]) -> list[ScoredDetection]:
    return [dets[i] for i in rank([d.score for d in dets])]


def _class_table(dets: list[ScoredDetection]) -> Iterator[tuple[list[int], np.ndarray]]:
    """Per class, in ascending class id: the class's indices into ``dets`` in
    ``rank`` order, and their boxes as an (n, 4) float64 array."""
    by_class: dict[int, list[int]] = {}
    for i in rank([d.score for d in dets]):
        by_class.setdefault(dets[i].class_id, []).append(i)
    for _, idx in sorted(by_class.items()):
        yield idx, np.array([dets[i].box.as_tuple() for i in idx], dtype=np.float64)


def _iou_matrix(boxes: np.ndarray) -> np.ndarray:
    """IoU of every pair of rows of an (n, 4) box array."""
    return box_iou_pairs(boxes[:, None], boxes[None])


def nms(dets: list[ScoredDetection], iou_thr: float = 0.5) -> list[ScoredDetection]:
    """Greedy hard suppression: drop any box whose IoU with a kept, higher-scored
    box of the same class exceeds the threshold."""
    if not 0.0 < iou_thr < 1.0:
        raise ValueError(f"iou_thr must be in (0, 1), got {iou_thr}")
    kept: list[int] = []
    for idx, boxes in _class_table(dets):
        # row-major over the pairs above the threshold: every pair (q, r), q < r,
        # comes before row r, so r's own fate is settled when its row is read
        rows, cols = np.nonzero(np.triu(_iou_matrix(boxes) > iou_thr, 1))
        suppressed: set[int] = set()
        for r, c in zip(rows.tolist(), cols.tolist()):
            if r not in suppressed:
                suppressed.add(c)
        kept += [i for r, i in enumerate(idx) if r not in suppressed]
    return _by_score([dets[i] for i in sorted(kept)])


def soft_nms(dets: list[ScoredDetection], sigma: float = 0.5) -> list[ScoredDetection]:
    """Gaussian score decay: instead of removal, every not-yet-selected box's
    positive score is multiplied by exp(-iou^2 / sigma) against each selected
    box (a score <= 0 is kept, as decay would raise it).  Of equal decayed
    scores, the lowest input position is selected first."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    final: dict[int, float] = {}
    for idx, boxes in _class_table(dets):
        # by input position (the "stable" kind: the default pages in numpy's SIMD sort)
        boxes, idx = boxes[np.argsort(idx, kind="stable")], sorted(idx)
        # only overlapping pairs decay: at IoU 0 the factor is exp(-0.0) == 1.0
        iou = _iou_matrix(boxes)
        rows, cols = np.nonzero(iou)
        bounds = np.searchsorted(rows, np.arange(len(idx) + 1)).tolist()
        pairs = list(zip(cols.tolist(), iou[rows, cols].tolist()))
        current = [dets[i].score for i in idx]  # by position in idx; -inf once selected
        for _ in idx:
            top = current.index(max(current))
            final[idx[top]] = current[top]
            current[top] = -math.inf
            for r, v in pairs[bounds[top]:bounds[top + 1]]:
                if current[r] > 0.0:  # neither selected (-inf) nor at or below zero
                    current[r] *= math.exp(-(v * v) / sigma)
    return _by_score([ScoredDetection(d.box, d.class_id, final[i]) for i, d in enumerate(dets)])


def wbf(dets: list[ScoredDetection], iou_thr: float = 0.5) -> list[ScoredDetection]:
    """Weighted boxes fusion: greedily cluster same-class boxes whose IoU with a
    cluster's running fused box exceeds the threshold; each cluster becomes one
    box, its members' mean weighted by max(score, 0) (its first box while those
    weights sum to 0), scored by the plain mean of its scores."""
    if not 0.0 < iou_thr < 1.0:
        raise ValueError(f"iou_thr must be in (0, 1), got {iou_thr}")
    fused_out: list[ScoredDetection] = []
    for idx, boxes in _class_table(dets):
        scores = np.array([dets[i].score for i in idx])
        weights = np.maximum(scores, 0.0)
        weighted = boxes * weights[:, None]
        clusters: list[list[int]] = []  # each cluster's rows of the table
        fused: list[BoundingBox] = []
        for r, i in enumerate(idx):
            box = dets[i].box
            for c, f in enumerate(fused):
                if box_iou(box, f) > iou_thr:
                    rows = clusters[c]
                    rows.append(r)
                    total = weights[rows].sum()
                    if total > 0.0:
                        # Python floats: a numpy scalar's repr does not read back as a float
                        fused[c] = BoundingBox(*(weighted[rows].sum(axis=0) / total).tolist())
                    break
            else:
                clusters.append([r])
                fused.append(box)
        for rows, box in zip(clusters, fused):
            # np.mean of one score is that score
            score = scores[rows[0]] if len(rows) == 1 else np.mean(scores[rows])
            fused_out.append(ScoredDetection(box, dets[idx[0]].class_id, float(score)))
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
        order = rank([p.similarity for p in members])
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
