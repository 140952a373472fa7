"""Reference implementations the library must equal bit for bit.

Each is the plain loop a faster library routine replaced: every pair is
visited and every IoU comes from one ``box_iou`` call.  They take and return
the library's own types, so a test compares the two results with ``==``.
"""

import math

import numpy as np

from protodet.geometry import box_iou
from protodet.postproc import ScoredDetection


def _ranked_by_class(dets):
    """Each class's indices into ``dets``, by descending score, ties by position."""
    by_class = {}
    for i in sorted(range(len(dets)), key=lambda i: -dets[i].score):
        by_class.setdefault(dets[i].class_id, []).append(i)
    return by_class


def _by_score(dets):
    return sorted(dets, key=lambda d: -d.score)


def match(dets, gts, thresholds):
    """``evaluation._match``: flags of shape (thresholds, dets).  At each
    threshold every detection, in the given order, takes the unmatched ground
    truth of its image and class with the highest IoU (the lowest index on
    ties, never one at IoU 0) and claims it when that IoU reaches the
    threshold."""
    rows = [[(g_idx, box_iou(det.box, g.box)) for g_idx, g in enumerate(gts)
             if (g.image_id, g.class_id) == (image_id, det.class_id)]
            for image_id, det in dets]
    flags = np.zeros((len(thresholds), len(dets)), dtype=bool)
    for t, thr in enumerate(thresholds):
        matched = set()
        for d, row in enumerate(rows):
            best_idx, best_iou = -1, 0.0
            for g_idx, iou in row:
                if iou > best_iou and g_idx not in matched:
                    best_idx, best_iou = g_idx, iou
            if best_idx >= 0 and best_iou >= thr:
                matched.add(best_idx)
                flags[t, d] = True
    return flags


def nms(dets, iou_thr):
    """Greedy NMS: a box is kept when its IoU with every kept, higher-ranked box
    of its class is at most the threshold."""
    kept = []
    for idx in _ranked_by_class(dets).values():
        kept_here = []
        for i in idx:
            if all(box_iou(dets[i].box, dets[k].box) <= iou_thr for k in kept_here):
                kept_here.append(i)
        kept += kept_here
    return _by_score([dets[i] for i in sorted(kept)])


def soft_nms(dets, sigma):
    """Gaussian Soft-NMS: select the highest current score (of equal ones, the
    lowest input position), then decay every unselected box of its class by
    exp(-iou^2 / sigma)."""
    final = {}
    for idx in _ranked_by_class(dets).values():
        current = {i: dets[i].score for i in idx}
        while current:
            top = min(current, key=lambda i: (-current[i], i))
            final[top] = current.pop(top)
            for i in current:
                iou = box_iou(dets[top].box, dets[i].box)
                current[i] *= math.exp(-(iou * iou) / sigma)
    return _by_score([ScoredDetection(d.box, d.class_id, final[i]) for i, d in enumerate(dets)])
