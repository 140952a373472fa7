import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protodet.errors import DataFormatError
from protodet.geometry import (
    BinaryMask,
    BoundingBox,
    box_area,
    box_iou,
    box_to_full_mask,
    coverage_matrix,
    mask_area,
    mask_coverage,
    mask_downsample,
)


def test_box_area_examples():
    assert box_area(BoundingBox(0, 0, 2, 2)) == 4
    assert box_area(BoundingBox(1, 1, 1.5, 3)) == pytest.approx(1.0)
    assert box_area(BoundingBox(0, 0, 10, 10)) == 100


def test_box_validation():
    with pytest.raises(ValueError):
        BoundingBox(2, 0, 1, 1)
    with pytest.raises(ValueError):
        BoundingBox(0, 0, 1, 0)
    with pytest.raises(ValueError):
        BoundingBox(-1, 0, 1, 1)
    with pytest.raises(ValueError):
        BoundingBox(0, 0, math.inf, 1)


def test_box_iou_examples():
    a = BoundingBox(0, 0, 2, 2)
    assert box_iou(a, a) == 1.0
    assert box_iou(a, BoundingBox(5, 5, 7, 7)) == 0.0
    assert box_iou(a, BoundingBox(1, 0, 3, 2)) == pytest.approx(1 / 3)


def test_box_iou_properties():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = np.sort(rng.uniform(0, 50, size=2))
        y = np.sort(rng.uniform(0, 50, size=2))
        u = np.sort(rng.uniform(0, 50, size=2))
        v = np.sort(rng.uniform(0, 50, size=2))
        a = BoundingBox(x[0], y[0], x[1] + 0.1, y[1] + 0.1)
        b = BoundingBox(u[0], v[0], u[1] + 0.1, v[1] + 0.1)
        iou = box_iou(a, b)
        assert iou == box_iou(b, a)
        assert 0.0 <= iou <= 1.0
        assert box_iou(a, a) == 1.0


class TestRle:
    def test_mask_area_examples(self):
        zero = BinaryMask(4, 4, (16,))
        assert mask_area(zero) == 0
        ones = BinaryMask(4, 4, (0, 16))
        assert mask_area(ones) == 16
        assert mask_area(BinaryMask(4, 4, (2, 3, 11))) == 3

    def test_malformed_rle_rejected(self):
        with pytest.raises(DataFormatError):
            BinaryMask(4, 4, (2, 3))  # sums to 5, not 16
        with pytest.raises(DataFormatError):
            BinaryMask(4, 4, (20, -4))

    def test_roundtrip_identity_on_random_rasters(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            h = int(rng.integers(1, 12))
            w = int(rng.integers(1, 12))
            arr = rng.random((h, w)) < rng.uniform(0.0, 1.0)
            mask = BinaryMask.from_array(arr)
            assert mask.width == w and mask.height == h
            np.testing.assert_array_equal(mask.to_array(), arr)
            again = BinaryMask(w, h, mask.runs)
            np.testing.assert_array_equal(again.to_array(), arr)


class TestCoverage:
    def _mask(self, arr):
        return BinaryMask.from_array(np.asarray(arr, dtype=bool))

    def test_examples(self):
        a = self._mask(np.ones((4, 4)))
        assert mask_coverage(a, a) == 1.0
        left = np.zeros((4, 4)); left[:, :2] = 1
        right = np.zeros((4, 4)); right[:, 2:] = 1
        assert mask_coverage(self._mask(left), self._mask(right)) == 0.0
        sub = np.zeros((4, 4)); sub[1:3, 1:3] = 1
        assert mask_coverage(self._mask(sub), a) == 1.0

    def test_errors(self):
        a = self._mask(np.ones((4, 4)))
        b = self._mask(np.ones((5, 4)))
        with pytest.raises(ValueError):
            mask_coverage(a, b)
        empty = BinaryMask(4, 4, (16,))
        with pytest.raises(ValueError):
            mask_coverage(empty, a)

    def test_integer_identity_before_division(self):
        # coverage must be the exact integer intersection divided by the exact
        # integer source area (no float drift before the division)
        rng = np.random.default_rng(5)
        for _ in range(300):
            a_arr = rng.random((9, 9)) < 0.5
            b_arr = rng.random((9, 9)) < 0.5
            if not a_arr.any():
                a_arr[0, 0] = True
            a = BinaryMask.from_array(a_arr)
            b = BinaryMask.from_array(b_arr)
            inter = int(np.logical_and(a_arr, b_arr).sum())
            cov = mask_coverage(a, b)
            assert cov == inter / mask_area(a)
            assert mask_area(a) == int(a_arr.sum())


@st.composite
def _same_size_masks(draw, max_side=7, max_masks=6):
    """Non-empty masks of one size, with RLEs drawn directly from sorted cut
    points: repeated cuts give zero-length runs anywhere, a cut at 0 a leading
    1-run, and a duplicated prefix repeats masks."""
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    total = w * h
    cut_lists = st.lists(st.integers(0, total), max_size=10).map(sorted)
    one_mask = cut_lists.map(
        lambda cuts: BinaryMask(w, h, tuple(np.diff([0, *cuts, total]).tolist()))
    ).filter(lambda m: m.area > 0)
    masks = draw(st.lists(one_mask, min_size=1, max_size=max_masks))
    return masks + masks[: draw(st.integers(0, 2))]


class TestCoverageMatrix:
    @settings(deadline=None)  # timing is not under test; a loaded machine must not fail it
    @given(_same_size_masks())
    @example([BinaryMask(4, 4, (0, 16))])  # N = 1, full mask
    @example([  # leading 1-run, zero-length interior runs, run on the last pixel
        BinaryMask(4, 4, (0, 3, 0, 2, 0, 0, 9, 2)),
        BinaryMask(4, 4, (2, 3, 0, 0, 11)),
        BinaryMask(4, 4, (0, 16)),
        BinaryMask(4, 4, (14, 2)),
        BinaryMask(4, 4, (2, 3, 0, 0, 11)),
    ])
    def test_equals_scalar_oracle_exactly(self, masks):
        got = coverage_matrix(masks)
        want = np.array([[mask_coverage(a, b) for b in masks] for a in masks])
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tolist() == want.tolist()

    def test_mismatched_dims_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            coverage_matrix([BinaryMask(4, 4, (0, 16)), BinaryMask(4, 5, (0, 20))])

    @pytest.mark.parametrize("others,position", [(1, 0), (1, 1), (0, 0)])
    def test_empty_mask_rejected(self, others, position):
        masks = [BinaryMask(4, 4, (0, 16))] * others
        masks.insert(position, BinaryMask(4, 4, (16,)))
        with pytest.raises(ValueError, match="empty"):
            coverage_matrix(masks)


def _bilinear_oracle(src, tw, th):
    """Scalar pixel-center bilinear resampler, clamped at the borders."""
    hh, ww = len(src), len(src[0])
    out = [[0.0] * tw for _ in range(th)]
    for ty in range(th):
        for tx in range(tw):
            sx = min(max((tx + 0.5) * (ww / tw) - 0.5, 0.0), ww - 1.0)
            sy = min(max((ty + 0.5) * (hh / th) - 0.5, 0.0), hh - 1.0)
            x0, y0 = int(math.floor(sx)), int(math.floor(sy))
            x1, y1 = min(x0 + 1, ww - 1), min(y0 + 1, hh - 1)
            fx, fy = sx - x0, sy - y0
            top = src[y0][x0] * (1 - fx) + src[y0][x1] * fx
            bot = src[y1][x0] * (1 - fx) + src[y1][x1] * fx
            out[ty][tx] = top * (1 - fy) + bot * fy
    return out


class TestDownsample:
    def test_constant_masks_stay_constant(self):
        ones = BinaryMask(6, 5, (0, 30))
        for tw, th in ((2, 2), (3, 7), (11, 1)):
            sm = mask_downsample(ones, tw, th)
            np.testing.assert_array_equal(sm.weights, np.ones((th, tw)))
        zeros = BinaryMask(6, 5, (30,))
        np.testing.assert_array_equal(mask_downsample(zeros, 3, 3).weights, np.zeros((3, 3)))

    def test_left_half_mask_against_scalar_oracle(self):
        arr = np.zeros((4, 4)); arr[:, :2] = 1
        mask = BinaryMask.from_array(arr)
        sm = mask_downsample(mask, 2, 2)
        expected = _bilinear_oracle(arr.tolist(), 2, 2)
        np.testing.assert_allclose(sm.weights, expected, atol=1e-12)
        # frozen values from the oracle: target centers land on all-1 / all-0 columns
        np.testing.assert_array_equal(sm.weights, [[1.0, 0.0], [1.0, 0.0]])

    def test_random_masks_match_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            h = int(rng.integers(1, 10))
            w = int(rng.integers(1, 10))
            arr = rng.random((h, w)) < 0.5
            tw = int(rng.integers(1, 9))
            th = int(rng.integers(1, 9))
            sm = mask_downsample(BinaryMask.from_array(arr), tw, th)
            expected = _bilinear_oracle(arr.astype(float).tolist(), tw, th)
            np.testing.assert_allclose(sm.weights, expected, atol=1e-12)
            assert sm.weights.min() >= 0.0 and sm.weights.max() <= 1.0


class TestBoxToFullMask:
    def test_full_image_box(self):
        mask, ok = box_to_full_mask(BoundingBox(0, 0, 5, 3), 5, 3)
        assert ok and mask.area == 15

    def test_box_outside_image(self):
        mask, ok = box_to_full_mask(BoundingBox(10, 10, 12, 12), 5, 5)
        assert not ok and mask.area == 0

    def test_center_inclusion_rule(self):
        mask, ok = box_to_full_mask(BoundingBox(1, 1, 3, 3), 4, 4)
        assert ok and mask.area == 4
        expected = np.zeros((4, 4), dtype=bool)
        expected[1:3, 1:3] = True
        np.testing.assert_array_equal(mask.to_array(), expected)
