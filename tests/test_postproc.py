import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_mask, soft_merge_of_detections
from protodet.diffusion import Proposal, build_class_graphs
from protodet.geometry import BinaryMask, BoundingBox, box_iou, mask_coverage
from protodet.postproc import (
    ScoredDetection,
    nms,
    soft_merge,
    soft_nms,
    topk_by_score,
    wbf,
)


def _det(box, score, class_id=0):
    return ScoredDetection(box=BoundingBox(*box), class_id=class_id, score=score)


def _mask(arr):
    return BinaryMask.from_array(np.asarray(arr, dtype=bool))


def _soft_merge(dets, masks):
    """``soft_merge`` over the class graphs of proposals with these boxes,
    classes and masks, whose similarities are the detections' scores."""
    return soft_merge(build_class_graphs([
        Proposal(box=d.box, mask=m, upn_score=0.5, pred_class=d.class_id, similarity=d.score)
        for d, m in zip(dets, masks, strict=True)
    ]))


@st.composite
def _detections(draw):
    """Multi-class detections on a half-pixel grid, so boxes touch, nest and
    repeat, with scores from a short list, so input scores tie."""
    dets = []
    for _ in range(draw(st.integers(0, 14))):
        x1, x2 = sorted(draw(st.lists(st.integers(0, 24), min_size=2, max_size=2, unique=True)))
        y1, y2 = sorted(draw(st.lists(st.integers(0, 24), min_size=2, max_size=2, unique=True)))
        score = draw(st.sampled_from([0.25, 0.5, 0.5, 0.75, 0.9]))
        dets.append(_det((x1 / 2, y1 / 2, x2 / 2, y2 / 2), score, class_id=draw(st.integers(0, 2))))
    return dets


_SAME = (0, 0, 1, 1)


class TestNmsFamilyAgainstPerPairLoops:
    @settings(deadline=None)
    @given(_detections(), st.sampled_from([0.1, 0.3, 0.5, 0.7]))
    # IoU exactly at the threshold keeps the box; identical tied boxes; disjoint pairs
    @example([_det((0, 0, 2, 1), 0.5), _det((0, 0, 1, 1), 0.5), _det((0, 0, 1, 1), 0.9)], 0.5)
    @example([_det(_SAME, 0.5), _det(_SAME, 0.5), _det((1, 0, 2, 1), 0.5)], 0.1)
    def test_nms_equals_reference(self, dets, iou_thr):
        assert nms(dets, iou_thr) == oracles.nms(dets, iou_thr)

    @settings(deadline=None)
    @given(_detections(), st.sampled_from([0.1, 0.5, 2.0]))
    # identical boxes decay to exactly 0.0, so every later pick is a tie
    @example([_det(_SAME, 0.5), _det(_SAME, 0.9), _det(_SAME, 0.5), _det((1, 0, 2, 1), 0.5)], 1e-3)
    @example([_det((0, 0, 2, 1), 0.5), _det((0, 0, 1, 1), 0.5, class_id=1)], 0.5)
    def test_soft_nms_equals_reference(self, dets, sigma):
        got = soft_nms(dets, sigma)
        assert got == oracles.soft_nms(dets, sigma)
        assert all(type(d.score) is float for d in got)

    def test_equal_decayed_scores_select_the_lowest_input_position(self):
        # after a is selected, b decays to exactly c's score; c comes first in the
        # input but after b in the input-score ranking, and must be selected first
        a = _det((0, 0, 10, 10), 0.9)
        b = _det((5, 0, 15, 10), 0.8)  # iou(a, b) = 1/3
        decay = math.exp(-(box_iou(a.box, b.box) ** 2) / 0.5)
        c = _det((12, 0, 22, 10), 0.8 * decay)  # disjoint from a, overlaps b
        dets = [a, c, b]
        got = soft_nms(dets, 0.5)
        assert got == oracles.soft_nms(dets, 0.5)
        later = 0.8 * decay * math.exp(-(box_iou(c.box, b.box) ** 2) / 0.5)
        assert [(d.box, d.score) for d in got] == [
            (a.box, 0.9), (c.box, 0.8 * decay), (b.box, later)]


class TestNms:
    def test_high_overlap_drops_lower_score(self):
        a = _det((0, 0, 10, 10), 0.9)
        b = _det((0, 0, 10, 8), 0.7)  # iou 0.8
        assert box_iou(a.box, b.box) == pytest.approx(0.8)
        assert nms([a, b], 0.5) == [a]

    def test_low_overlap_keeps_both(self):
        a = _det((0, 0, 10, 10), 0.9)
        b = _det((7, 0, 17, 10), 0.7)  # iou = 3/17 < 0.5
        assert nms([a, b], 0.5) == [a, b]

    def test_classes_do_not_suppress_each_other(self):
        a = _det((0, 0, 10, 10), 0.9, class_id=0)
        b = _det((0, 0, 10, 10), 0.7, class_id=1)
        assert nms([b, a], 0.5) == [a, b]

    def test_survivors_form_an_antichain(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dets = []
            for _ in range(int(rng.integers(1, 20))):
                x = np.sort(rng.uniform(0, 20, 2))
                y = np.sort(rng.uniform(0, 20, 2))
                dets.append(
                    _det((x[0], y[0], x[1] + 0.5, y[1] + 0.5),
                         float(rng.uniform(0, 1)), class_id=int(rng.integers(2)))
                )
            kept = nms(dets, 0.5)
            for i, a in enumerate(kept):
                for b in kept[i + 1:]:
                    if a.class_id == b.class_id:
                        assert box_iou(a.box, b.box) <= 0.5

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            nms([], 0.0)


class TestSoftNms:
    def test_disjoint_boxes_unchanged(self):
        a = _det((0, 0, 2, 2), 0.9)
        b = _det((5, 5, 7, 7), 0.7)
        out = soft_nms([a, b], sigma=0.5)
        assert [d.score for d in out] == [0.9, 0.7]

    def test_gaussian_decay_by_hand(self):
        a = _det((0, 0, 10, 10), 0.9)
        b = _det((0, 0, 10, 8), 0.7)  # iou 0.8
        out = soft_nms([a, b], sigma=0.5)
        assert out[0].score == 0.9
        assert out[1].score == pytest.approx(0.7 * math.exp(-(0.8**2) / 0.5), abs=1e-12)

    def test_single_detection_unchanged(self):
        a = _det((0, 0, 2, 2), 0.4)
        assert soft_nms([a], sigma=0.5)[0].score == 0.4

    def test_never_increases_scores_and_keeps_boxes(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            dets = []
            for _ in range(int(rng.integers(1, 15))):
                x = np.sort(rng.uniform(0, 15, 2))
                y = np.sort(rng.uniform(0, 15, 2))
                dets.append(_det((x[0], y[0], x[1] + 0.5, y[1] + 0.5), float(rng.uniform(0, 1))))
            out = soft_nms(dets, sigma=0.5)
            assert len(out) == len(dets)
            assert {d.box.as_tuple() for d in out} == {d.box.as_tuple() for d in dets}
            by_box = {d.box.as_tuple(): d.score for d in out}
            for d in dets:
                assert by_box[d.box.as_tuple()] <= d.score + 1e-15


class TestWbf:
    def test_single_box_unchanged(self):
        a = _det((1, 2, 3, 4), 0.5)
        out = wbf([a], 0.5)
        assert len(out) == 1
        assert out[0].box.as_tuple() == (1, 2, 3, 4)
        assert out[0].score == 0.5

    def test_weighted_mean_by_hand(self):
        a = _det((0, 0, 10, 10), 0.8)
        b = _det((2, 0, 12, 10), 0.4)  # iou 2/3 > 0.5
        out = wbf([a, b], 0.5)
        assert len(out) == 1
        fused = out[0]
        assert fused.box.x1 == pytest.approx(2 / 3)
        assert fused.box.x2 == pytest.approx((10 * 0.8 + 12 * 0.4) / 1.2)
        assert fused.box.y1 == 0.0 and fused.box.y2 == pytest.approx(10.0)
        assert fused.score == pytest.approx(0.6)

    def test_disjoint_boxes_stay_separate(self):
        a = _det((0, 0, 2, 2), 0.9)
        b = _det((5, 5, 7, 7), 0.7)
        out = wbf([a, b], 0.5)
        assert len(out) == 2
        assert {d.box.as_tuple() for d in out} == {(0, 0, 2, 2), (5, 5, 7, 7)}

    def test_fused_boxes_inside_member_hull(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            dets = []
            for _ in range(int(rng.integers(1, 12))):
                x = np.sort(rng.uniform(0, 12, 2))
                y = np.sort(rng.uniform(0, 12, 2))
                dets.append(_det((x[0], y[0], x[1] + 0.5, y[1] + 0.5), float(rng.uniform(0.1, 1))))
            out = wbf(dets, 0.5)
            assert len(out) <= len(dets)
            lo_x = min(d.box.x1 for d in dets)
            hi_x = max(d.box.x2 for d in dets)
            lo_y = min(d.box.y1 for d in dets)
            hi_y = max(d.box.y2 for d in dets)
            for f in out:
                assert lo_x - 1e-9 <= f.box.x1 and f.box.x2 <= hi_x + 1e-9
                assert lo_y - 1e-9 <= f.box.y1 and f.box.y2 <= hi_y + 1e-9


_FULL = np.ones((8, 8), dtype=bool)
_INNER = np.zeros((8, 8), dtype=bool)
_INNER[2:6, 2:6] = True


def _proposal(class_id, arr, upn_score, similarity):
    ys, xs = np.nonzero(arr)
    return Proposal(box=BoundingBox(float(xs.min()), float(ys.min()), float(xs.max() + 1),
                                    float(ys.max() + 1)),
                    mask=_mask(arr), upn_score=upn_score, pred_class=class_id,
                    similarity=similarity)


@st.composite
def _class_prop(draw, side=8):
    """A proposal of one of three classes with a rectangle mask, often nested
    in or equal to another, and a similarity from a small set, so ties are common."""
    x1, y1 = draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1))
    x2, y2 = draw(st.integers(x1 + 1, side)), draw(st.integers(y1 + 1, side))
    arr = np.zeros((side, side), dtype=bool)
    arr[y1:y2, x1:x2] = True
    similarity = draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.01, 1.0))
    return _proposal(draw(st.integers(0, 2)), arr, draw(st.floats(0.0, 1.0)), similarity)


class TestSoftMerge:
    def test_fully_covered_fragment_zeroed(self):
        whole = _det((0, 0, 4, 4), 0.9)
        frag_arr = np.zeros((4, 4)); frag_arr[1:3, 1:3] = 1
        frag = _det((1, 1, 3, 3), 0.6)
        out = _soft_merge([whole, frag], [_mask(np.ones((4, 4))), _mask(frag_arr)])
        scores = {d.box.as_tuple(): d.score for d in out}
        assert scores[(0, 0, 4, 4)] == 0.9
        assert scores[(1, 1, 3, 3)] == 0.0

    def test_no_overlap_unchanged(self):
        left = np.zeros((4, 4)); left[:, :2] = 1
        right = np.zeros((4, 4)); right[:, 2:] = 1
        a = _det((0, 0, 2, 4), 0.9)
        b = _det((2, 0, 4, 4), 0.7)
        assert [d.score for d in _soft_merge([a, b], [_mask(left), _mask(right)])] == [0.9, 0.7]

    def test_half_coverage_by_hand(self):
        whole = np.zeros((4, 4)); whole[:, :2] = 1
        half = np.zeros((4, 4)); half[:, 1:3] = 1  # half of it under the whole
        a = _det((0, 0, 2, 4), 0.9)
        b = _det((1, 0, 3, 4), 0.6)
        out = _soft_merge([a, b], [_mask(whole), _mask(half)])
        scores = {d.box.as_tuple(): d.score for d in out}
        assert scores[(1, 0, 3, 4)] == pytest.approx(0.3)

    def test_top_detection_untouched(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dets, masks = [], []
            for _ in range(int(rng.integers(1, 10))):
                arr = rng.random((6, 6)) < 0.5
                if not arr.any():
                    arr[0, 0] = True
                dets.append(_det((0, 0, 6, 6), float(rng.uniform(0, 1))))
                masks.append(_mask(arr))
            top = max(range(len(dets)), key=lambda i: (dets[i].score, -i))
            out = _soft_merge(dets, masks)
            assert out[0].score == dets[top].score

    def test_matches_per_pair_reference(self):
        def reference(dets, masks):
            scores = {}
            for c in {d.class_id for d in dets}:
                order = sorted((i for i, d in enumerate(dets) if d.class_id == c),
                               key=lambda i: (-dets[i].score, i))
                for rank, i in enumerate(order):
                    penalty = max((mask_coverage(masks[i], masks[j])
                                   for j in order[:rank]), default=0.0)
                    scores[i] = dets[i].score * (1.0 - penalty)
            return sorted(((scores[i], i) for i in range(len(dets))), key=lambda t: (-t[0], t[1]))

        rng = np.random.default_rng(31)
        for _ in range(40):
            dets, masks = [], []
            for _ in range(int(rng.integers(1, 14))):
                mask, box = random_mask(rng, size=12)
                score = float(rng.choice([0.25, 0.5, rng.uniform(0.01, 1.0)]))  # ties too
                dets.append(_det(box, score, class_id=int(rng.integers(0, 3))))
                masks.append(mask)
            want = reference(dets, masks)
            got = _soft_merge(dets, masks)
            assert [(d.score, d.box, d.class_id) for d in got] == [
                (s, dets[i].box, dets[i].class_id) for s, i in want
            ]
            assert all(type(d.score) is float for d in got)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_class_prop(), max_size=12))
    @example([])
    @example([_proposal(0, _FULL, 0.5, 0.9), _proposal(0, _INNER, 0.5, 0.6),  # swallowed
              _proposal(1, _INNER, 0.5, 0.6), _proposal(0, _FULL, 0.25, 0.6)])  # tied
    def test_equals_the_two_input_reference(self, props):
        graphs = build_class_graphs(props)
        raw = [ScoredDetection(box=p.box, class_id=p.pred_class, score=p.similarity)
               for p in props]
        got, want = soft_merge(graphs), soft_merge_of_detections(raw, graphs)
        assert got == want
        assert [type(d.score) for d in got] == [type(d.score) for d in want]


class TestTopK:
    def test_fewer_inputs_than_k(self):
        dets = [_det((0, 0, 1, 1), 0.5), _det((1, 1, 2, 2), 0.4)]
        assert topk_by_score(dets, 10) == dets

    def test_k_equals_one_takes_global_max(self):
        dets = [_det((0, 0, 1, 1), 0.5, class_id=0), _det((1, 1, 2, 2), 0.9, class_id=1)]
        assert topk_by_score(dets, 1) == [dets[1]]

    def test_ties_prefer_earlier_input(self):
        dets = [_det((0, 0, 1, 1), 0.5), _det((1, 1, 2, 2), 0.5), _det((2, 2, 3, 3), 0.5)]
        assert topk_by_score(dets, 2) == dets[:2]

    def test_k_validated(self):
        with pytest.raises(ValueError):
            topk_by_score([], 0)
