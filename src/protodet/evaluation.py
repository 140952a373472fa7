"""COCO-convention average precision over novel classes.

AP per (class, IoU threshold) uses greedy highest-IoU matching and 101-point
interpolated precision/recall.  The IoUs of all same-image, same-class
(detection, ground truth) pairs come from one array call per match, and every
threshold reads them; the headline number averages the thresholds
0.50:0.05:0.95 over every class that has at least one ground-truth box.
All tie-breaks are by input position, so reports are bit-identical across
runs for fixed inputs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .geometry import BoundingBox, box_iou_pairs
# unused here, but benchmark tracing counts calls through this module's binding
from .geometry import box_iou  # noqa: F401
from .postproc import ScoredDetection, topk_by_score

__all__ = [
    "IOU_THRESHOLDS",
    "GroundTruthBox",
    "EvalReport",
    "match_detections",
    "ap_101",
    "evaluate",
]

IOU_THRESHOLDS = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)
RECALL_GRID = tuple(i / 100 for i in range(101))


@dataclass(frozen=True)
class GroundTruthBox:
    image_id: str
    box: BoundingBox
    class_id: int


@dataclass(frozen=True)
class EvalReport:
    """nAP metrics plus the per-class AP values they average."""

    nap: float
    nap50: float
    nap75: float
    per_class_ap: dict[int, tuple[float, ...]]  # class_id -> AP per IoU threshold
    det_count: int
    gt_count: int

    def to_text(self) -> str:
        """``report.txt``: one ``key=repr`` line per field of ``to_json_dict``, then
        one ``class_<id>_ap=`` line of comma-joined APs per class."""
        fields = self.to_json_dict()
        per_class = fields.pop("per_class_ap")
        lines = [f"{key}={value!r}" for key, value in fields.items()]
        lines += [f"class_{c}_ap={','.join(map(repr, aps))}" for c, aps in per_class.items()]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "nAP": self.nap,
            "nAP50": self.nap50,
            "nAP75": self.nap75,
            "det_count": self.det_count,
            "gt_count": self.gt_count,
            "per_class_ap": {
                str(c): list(self.per_class_ap[c]) for c in sorted(self.per_class_ap)
            },
        }


def _match(dets: Sequence[tuple[str, ScoredDetection]], gts: Sequence[GroundTruthBox],
           thresholds: Sequence[float]) -> np.ndarray:
    """``match_detections`` flags at each threshold, shape (thresholds, dets).
    The IoUs of all same-image, same-class (detection, ground truth) pairs come
    from one ``box_iou_pairs`` call, each detection's in ground-truth index
    order.  The greedy pick ignores the threshold, and a pick below it claims
    nothing, so a threshold skips every detection whose best IoU is below it."""
    gt_index: dict[tuple[str, int], list[int]] = {}
    for g_idx, g in enumerate(gts):
        gt_index.setdefault((g.image_id, g.class_id), []).append(g_idx)
    groups = [gt_index.get((image_id, det.class_id), []) for image_id, det in dets]
    sizes = np.array([len(group) for group in groups], dtype=np.int64)
    pair_gt = np.array([g_idx for group in groups for g_idx in group], dtype=np.int64)
    flags = np.zeros((len(thresholds), len(dets)), dtype=bool)
    if not pair_gt.size:
        return flags
    det_boxes = np.repeat([det.box.as_tuple() for _, det in dets], sizes, axis=0)
    ious = box_iou_pairs(det_boxes, np.array([g.box.as_tuple() for g in gts])[pair_gt])
    best = np.zeros(len(dets))
    best[sizes > 0] = np.maximum.reduceat(ious, (np.cumsum(sizes) - sizes)[sizes > 0])
    # only the detections that reach the lowest threshold become Python lists
    live = best >= min(thresholds)
    keep = np.repeat(live, sizes)
    pairs = zip(pair_gt[keep].tolist(), ious[keep].tolist())
    rows = [(d, top, list(itertools.islice(pairs, size))) for d, top, size in
            zip(np.flatnonzero(live).tolist(), best[live].tolist(), sizes[live].tolist())]
    for t, thr in enumerate(thresholds):
        matched: set[int] = set()
        for d, top, row in rows:
            if top < thr:
                continue
            best_idx, best_iou = -1, 0.0
            for g_idx, iou in row:
                # strict ">" keeps the lowest gt index on ties, and IoU 0 never matches
                if iou > best_iou and g_idx not in matched:
                    best_idx, best_iou = g_idx, iou
            if best_idx >= 0 and best_iou >= thr:
                matched.add(best_idx)
                flags[t, d] = True
    return flags


def match_detections(
    dets: Sequence[tuple[str, ScoredDetection]],
    gts: Sequence[GroundTruthBox],
    iou_thr: float,
) -> list[bool]:
    """True-positive flag per detection under greedy matching.

    ``dets`` are (image_id, detection) pairs already sorted by descending
    score (ties by input position).  Within each image and class, a detection
    claims the still-unmatched ground truth of highest IoU when that IoU
    reaches the threshold; every ground truth matches at most once.
    """
    return _match(dets, gts, (iou_thr,))[0].tolist()


def _ap_101_rows(flags: np.ndarray, total_gt: int) -> list[float]:
    """``ap_101`` of each row of a (rows, ranks) flag array, all rows at once."""
    if total_gt < 0:
        raise ValueError(f"total_gt must be >= 0, got {total_gt}")
    rows, n = flags.shape
    if total_gt == 0:
        return [0.0] * rows
    tp = np.cumsum(flags, axis=1, dtype=np.int64)
    # precision envelope: running max from the right, then 0.0 past the last rank
    precisions = np.zeros((rows, n + 1))
    precisions[:, :n] = np.maximum.accumulate((tp / np.arange(1, n + 1))[:, ::-1], axis=1)[:, ::-1]
    # each grid recall reads the first rank that reaches it: recall tp / total_gt
    # reaches r exactly when tp reaches need[r], and offsetting row t by t * (n + 1)
    # keeps every row's tp in one sorted array
    need = np.searchsorted(np.arange(total_gt + 1) / total_gt, RECALL_GRID, side="left")
    offset = np.arange(rows)[:, None] * (n + 1)
    first = np.searchsorted((tp + offset).ravel(), np.minimum(need, n + 1) + offset, side="left")
    interpolated = precisions.ravel()[first + np.arange(rows)[:, None]]
    # Python's sequential sum: np.sum's pairwise order can move the last bit
    return [sum(row) / len(RECALL_GRID) for row in interpolated.tolist()]


def ap_101(tp_flags: Sequence[bool], total_gt: int) -> float:
    """101-point interpolated AP from score-ordered TP/FP flags."""
    return _ap_101_rows(np.asarray(tp_flags, dtype=bool).reshape(1, -1), total_gt)[0]


def evaluate(
    detections: Mapping[str, Sequence[ScoredDetection]],
    gts: Sequence[GroundTruthBox],
    max_dets: int = 100,
) -> EvalReport:
    """Score a detection run: nAP, nAP50, nAP75 and per-class AP curves.

    Detections are truncated to the ``max_dets`` best per image before
    scoring.  Classes without any ground truth are excluded from the averages
    (their detections simply count as false positives of an unscored class).
    """
    if max_dets < 1:
        raise ValueError(f"max_dets must be >= 1, got {max_dets}")
    flat: list[tuple[str, ScoredDetection]] = []
    for image_id in sorted(detections):
        for det in topk_by_score(list(detections[image_id]), max_dets):
            flat.append((image_id, det))

    # one match over every class: classes share no ground truth, and filtering
    # a stable sort keeps each class's own (score, position) order
    ranked = sorted(flat, key=lambda pair: -pair[1].score)
    flags = _match(ranked, gts, IOU_THRESHOLDS)
    det_classes = np.array([det.class_id for _, det in ranked])
    gt_counts = Counter(g.class_id for g in gts)
    per_class_ap = {
        class_id: tuple(_ap_101_rows(flags[:, det_classes == class_id], gt_counts[class_id]))
        for class_id in sorted(gt_counts)
    }

    all_aps = [ap for aps in per_class_ap.values() for ap in aps]
    nap = sum(all_aps) / len(all_aps) if all_aps else 0.0
    ap50 = [aps[IOU_THRESHOLDS.index(0.50)] for aps in per_class_ap.values()]
    ap75 = [aps[IOU_THRESHOLDS.index(0.75)] for aps in per_class_ap.values()]
    nap50 = sum(ap50) / len(ap50) if ap50 else 0.0
    nap75 = sum(ap75) / len(ap75) if ap75 else 0.0
    return EvalReport(
        nap=nap,
        nap50=nap50,
        nap75=nap75,
        per_class_ap=per_class_ap,
        det_count=len(flat),
        gt_count=len(gts),
    )
