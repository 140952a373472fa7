"""Evaluator tests.  The brute-force 101-point reference below is written
independently of the library: plain tuples, per-grid-point max loops, and its
own IoU/matching code.  The library must agree with it exactly."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protodet import evaluation
from protodet.evaluation import (
    IOU_THRESHOLDS,
    EvalReport,
    GroundTruthBox,
    ap_101,
    evaluate,
    match_detections,
)
from protodet.geometry import BoundingBox
from protodet.postproc import ScoredDetection

# ---------------------------------------------------------------------------
# brute-force reference evaluator
# ---------------------------------------------------------------------------

ORACLE_THRESHOLDS = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)


def _oracle_iou(a, b):
    ix1 = max(a[0], b[0])
    iy1 = max(a[1], b[1])
    ix2 = min(a[2], b[2])
    iy2 = min(a[3], b[3])
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union


def _oracle_ap(dets, gts, class_id, thr, max_dets):
    """dets: (image_id, class_id, score, box) tuples; gts likewise without score."""
    per_image = {}
    for idx, d in enumerate(dets):
        per_image.setdefault(d[0], []).append((idx, d))
    kept = []
    for image_id in sorted(per_image):
        rows = per_image[image_id]
        rows = sorted(rows, key=lambda r: (-r[1][2], r[0]))[:max_dets]
        kept.extend(r for r in sorted(rows, key=lambda r: r[0]))
    class_dets = [r for r in kept if r[1][1] == class_id]
    class_dets = sorted(class_dets, key=lambda r: (-r[1][2], kept.index(r)))

    gt_idx = [i for i, g in enumerate(gts) if g[1] == class_id]
    total_gt = len(gt_idx)
    if total_gt == 0:
        return None
    matched = set()
    flags = []
    for _, (image_id, _, _, box) in class_dets:
        best = -1
        best_iou = 0.0
        for i in gt_idx:
            if i in matched or gts[i][0] != image_id:
                continue
            iou = _oracle_iou(box, gts[i][2])
            if iou > best_iou:
                best_iou = iou
                best = i
        if best >= 0 and best_iou >= thr:
            matched.add(best)
            flags.append(True)
        else:
            flags.append(False)
    recalls = []
    precisions = []
    tp = 0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            tp += 1
        recalls.append(tp / total_gt)
        precisions.append(tp / rank)
    vals = []
    for i in range(101):
        r = i / 100
        candidates = [p for p, rc in zip(precisions, recalls) if rc >= r]
        vals.append(max(candidates) if candidates else 0.0)
    return sum(vals) / 101


def _oracle_evaluate(dets, gts, max_dets=100):
    classes = sorted({g[1] for g in gts})
    per_class = {}
    for c in classes:
        per_class[c] = [_oracle_ap(dets, gts, c, thr, max_dets) for thr in ORACLE_THRESHOLDS]
    all_aps = [ap for aps in per_class.values() for ap in aps]
    nap = sum(all_aps) / len(all_aps) if all_aps else 0.0
    ap50 = [aps[0] for aps in per_class.values()]
    nap50 = sum(ap50) / len(ap50) if ap50 else 0.0
    return nap, nap50, per_class


def _to_library_inputs(dets, gts):
    by_image = {}
    for image_id, class_id, score, box in dets:
        by_image.setdefault(image_id, []).append(
            ScoredDetection(box=BoundingBox(*box), class_id=class_id, score=score)
        )
    gt_list = [GroundTruthBox(image_id=g[0], box=BoundingBox(*g[2]), class_id=g[1]) for g in gts]
    return by_image, gt_list


# ---------------------------------------------------------------------------
# library tests
# ---------------------------------------------------------------------------

class TestMatchDetections:
    def test_single_true_positive(self):
        det = ScoredDetection(box=BoundingBox(0, 0, 10, 10), class_id=0, score=0.9)
        gts = [GroundTruthBox(image_id="a", box=BoundingBox(0, 0, 10, 9), class_id=0)]
        assert match_detections([("a", det)], gts, 0.5) == [True]

    def test_detection_without_gt_is_fp(self):
        det = ScoredDetection(box=BoundingBox(0, 0, 10, 10), class_id=0, score=0.9)
        assert match_detections([("a", det)], [], 0.5) == [False]

    def test_gt_matches_at_most_once(self):
        d1 = ScoredDetection(box=BoundingBox(0, 0, 10, 10), class_id=0, score=0.9)
        d2 = ScoredDetection(box=BoundingBox(0, 0, 10, 9), class_id=0, score=0.8)
        gts = [GroundTruthBox(image_id="a", box=BoundingBox(0, 0, 10, 10), class_id=0)]
        assert match_detections([("a", d1), ("a", d2)], gts, 0.5) == [True, False]

    def test_prefers_highest_iou_gt(self):
        det = ScoredDetection(box=BoundingBox(0, 0, 10, 10), class_id=0, score=0.9)
        gts = [
            GroundTruthBox(image_id="a", box=BoundingBox(0, 0, 10, 6), class_id=0),
            GroundTruthBox(image_id="a", box=BoundingBox(0, 0, 10, 9), class_id=0),
        ]
        flags = match_detections([("a", det)], gts, 0.5)
        assert flags == [True]
        # a second overlapping detection can still claim the weaker gt
        d2 = ScoredDetection(box=BoundingBox(0, 0, 10, 7), class_id=0, score=0.8)
        assert match_detections([("a", det), ("a", d2)], gts, 0.5) == [True, True]


class TestAp101:
    def test_single_tp_single_gt(self):
        assert ap_101([True], 1) == 1.0

    def test_no_detections(self):
        assert ap_101([], 3) == 0.0

    def test_fp_then_tp_hand_case(self):
        # sorted [FP@0.9, TP@0.8], one gt: envelope precision 0.5 everywhere
        assert ap_101([False, True], 1) == 0.5

    def test_zero_gt(self):
        assert ap_101([False, False], 0) == 0.0


def _perfect_instance():
    gts = [
        ("a", 0, (0.0, 0.0, 10.0, 10.0)),
        ("a", 1, (20.0, 0.0, 30.0, 10.0)),
        ("b", 0, (5.0, 5.0, 9.0, 9.0)),
    ]
    dets = [(img, cls, 0.9, box) for img, cls, box in gts]
    return dets, gts


class TestEvaluate:
    def test_perfect_detections_score_one(self):
        dets, gts = _perfect_instance()
        by_image, gt_list = _to_library_inputs(dets, gts)
        report = evaluate(by_image, gt_list)
        assert report.nap == 1.0 and report.nap50 == 1.0 and report.nap75 == 1.0
        assert report.det_count == 3 and report.gt_count == 3

    def test_empty_detections_score_zero(self):
        _, gts = _perfect_instance()
        _, gt_list = _to_library_inputs([], gts)
        report = evaluate({}, gt_list)
        assert report.nap == 0.0 and report.nap50 == 0.0 and report.nap75 == 0.0

    def test_unknown_class_detections_do_not_crash(self):
        dets, gts = _perfect_instance()
        dets = dets + [("a", 99, 0.95, (0.0, 0.0, 10.0, 10.0))]
        by_image, gt_list = _to_library_inputs(dets, gts)
        report = evaluate(by_image, gt_list)
        assert 99 not in report.per_class_ap
        assert report.nap == 1.0

    def test_matches_oracle_on_200_random_micro_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n_images = int(rng.integers(1, 6))
            images = [f"im{i}" for i in range(n_images)]
            gts = []
            for img in images:
                for _ in range(int(rng.integers(0, 4))):
                    x = np.sort(rng.uniform(0, 20, 2))
                    y = np.sort(rng.uniform(0, 20, 2))
                    gts.append(
                        (img, int(rng.integers(0, 3)),
                         (x[0], y[0], x[1] + 0.5, y[1] + 0.5))
                    )
            dets = []
            for _ in range(int(rng.integers(0, 11))):
                img = images[int(rng.integers(n_images))]
                score = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))  # forces ties
                if gts and rng.random() < 0.5:
                    g = gts[int(rng.integers(len(gts)))]
                    bx = g[2]
                    jitter = rng.uniform(-1.0, 1.0, 2)
                    x1 = max(0.0, bx[0] + jitter[0])
                    y1 = max(0.0, bx[1] + jitter[1])
                    box = (x1, y1, max(bx[2], x1 + 0.2), max(bx[3], y1 + 0.2))
                    dets.append((img, g[1], score, box))
                else:
                    x = np.sort(rng.uniform(0, 20, 2))
                    y = np.sort(rng.uniform(0, 20, 2))
                    dets.append(
                        (img, int(rng.integers(0, 3)), score,
                         (x[0], y[0], x[1] + 0.5, y[1] + 0.5))
                    )
            if not gts:
                continue
            by_image, gt_list = _to_library_inputs(dets, gts)
            max_dets = int(rng.integers(1, 8))
            report = evaluate(by_image, gt_list, max_dets=max_dets)
            nap, nap50, per_class = _oracle_evaluate(dets, gts, max_dets=max_dets)
            assert report.nap == nap
            assert report.nap50 == nap50
            for c, aps in per_class.items():
                assert list(report.per_class_ap[c]) == aps


class TestProperties:
    def _random_instance(self, rng):
        gts = []
        dets = []
        for img in ("a", "b"):
            for _ in range(int(rng.integers(1, 4))):
                x = np.sort(rng.uniform(0, 20, 2))
                y = np.sort(rng.uniform(0, 20, 2))
                gts.append((img, int(rng.integers(2)), (x[0], y[0], x[1] + 1, y[1] + 1)))
            for _ in range(int(rng.integers(1, 6))):
                x = np.sort(rng.uniform(0, 20, 2))
                y = np.sort(rng.uniform(0, 20, 2))
                dets.append(
                    (img, int(rng.integers(2)), float(rng.uniform(0.05, 1.0)),
                     (x[0], y[0], x[1] + 1, y[1] + 1))
                )
        return dets, gts

    def test_invariant_to_monotone_score_transforms(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            dets, gts = self._random_instance(rng)
            by_image, gt_list = _to_library_inputs(dets, gts)
            base = evaluate(by_image, gt_list)
            a = float(rng.uniform(0.2, 3.0))
            b = float(rng.uniform(0.0, 2.0))
            warped = [(img, cls, a * s + b, box) for img, cls, s, box in dets]
            by_image_w, _ = _to_library_inputs(warped, gts)
            again = evaluate(by_image_w, gt_list)
            assert again.nap == base.nap
            assert again.per_class_ap == base.per_class_ap

    def test_low_fp_never_raises_ap_and_tp_never_lowers_it(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            dets, gts = self._random_instance(rng)
            by_image, gt_list = _to_library_inputs(dets, gts)
            base = evaluate(by_image, gt_list)
            min_score = min(d[2] for d in dets)
            with_fp = dets + [("a", 0, min_score / 2, (0.0, 0.0, 0.5, 0.5))]
            by_image_fp, _ = _to_library_inputs(with_fp, gts)
            assert evaluate(by_image_fp, gt_list).nap <= base.nap + 1e-15
            g = gts[0]
            with_tp = dets + [(g[0], g[1], 1.0, g[2])]
            by_image_tp, _ = _to_library_inputs(with_tp, gts)
            assert evaluate(by_image_tp, gt_list).nap >= base.nap - 1e-15

    def test_nap_never_exceeds_nap50(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            dets, gts = self._random_instance(rng)
            by_image, gt_list = _to_library_inputs(dets, gts)
            report = evaluate(by_image, gt_list)
            assert report.nap <= report.nap50 + 1e-15


def test_report_text_roundtrip_format():
    dets, gts = _perfect_instance()
    by_image, gt_list = _to_library_inputs(dets, gts)
    report = evaluate(by_image, gt_list)
    text = report.to_text()
    assert text.startswith("nAP=")
    assert "nAP50=" in text and "nAP75=" in text
    assert f"class_0_ap=" in text
    doc = report.to_json_dict()
    assert doc["nAP"] == report.nap
    assert set(doc["per_class_ap"]) == {"0", "1"}
    # the format line by line: fields in to_json_dict order, classes by id
    hand = EvalReport(nap=0.55, nap50=2 / 3, nap75=0.1, det_count=7, gt_count=5,
                      per_class_ap={10: (1.0, 0.5, 1 / 3), 2: (0.25, 0.0, 1e-05)})
    assert hand.to_text() == ("nAP=0.55\nnAP50=0.6666666666666666\nnAP75=0.1\n"
                              "det_count=7\ngt_count=5\n"
                              "class_2_ap=0.25,0.0,1e-05\n"
                              "class_10_ap=1.0,0.5,0.3333333333333333\n")


# ---------------------------------------------------------------------------
# one IoU per (detection, ground truth); the array ap_101 keeps the loop's bits
# ---------------------------------------------------------------------------

def _loop_ap_101(tp_flags, total_gt):
    """The scalar-loop ``ap_101`` that the array version replaced, as its oracle."""
    if total_gt == 0:
        return 0.0
    recalls = []
    precisions = []
    tp = 0
    for rank, flag in enumerate(tp_flags, start=1):
        if flag:
            tp += 1
        recalls.append(tp / total_gt)
        precisions.append(tp / rank)
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    interpolated = []
    j = 0
    for r in (i / 100 for i in range(101)):
        while j < len(recalls) and recalls[j] < r:
            j += 1
        interpolated.append(precisions[j] if j < len(recalls) else 0.0)
    return sum(interpolated) / 101


@settings(deadline=None)  # timing is not under test; a loaded machine must not fail it
@given(st.lists(st.booleans(), max_size=60), st.integers(0, 70))
@example([], 0)
@example([], 4)
@example([True, False, True], 0)
def test_ap_101_is_bit_identical_to_the_loop_version(flags, total_gt):
    assert ap_101(flags, total_gt) == _loop_ap_101(flags, total_gt)


def test_evaluate_computes_each_same_class_pair_at_most_once(monkeypatch):
    rng = np.random.default_rng(8)
    gts, dets = [], []
    for img in ("a", "b", "c"):
        for class_id in (0, 1):
            for _ in range(3):
                x, y = rng.uniform(0, 30, 2)
                gts.append((img, class_id, (x, y, x + 8, y + 8)))
                for _ in range(2):  # near copies: IoUs spread across the thresholds
                    dx, dy = rng.uniform(0, 3, 2)
                    dets.append((img, class_id, float(rng.uniform(0.1, 1.0)),
                                 (x + dx, y + dy, x + 8 + dx, y + 8 + dy)))
    by_image, gt_list = _to_library_inputs(dets, gts)
    expected = evaluate(by_image, gt_list)

    key_of = {id(g.box): (g.image_id, g.class_id) for g in gt_list}
    key_of.update({id(d.box): (img, d.class_id) for img, ds in by_image.items() for d in ds})
    calls = Counter()
    real = evaluation.box_iou

    def counting(a, b):
        calls[id(a), id(b)] += 1
        return real(a, b)

    monkeypatch.setattr(evaluation, "box_iou", counting)
    assert evaluate(by_image, gt_list) == expected
    assert calls and max(calls.values()) == 1
    assert all(key_of[a] == key_of[b] for a, b in calls)
