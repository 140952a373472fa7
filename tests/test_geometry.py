import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import downsample_by_decoding
from protodet import geometry
from protodet.errors import DataFormatError
from protodet.geometry import (
    BinaryMask,
    BoundingBox,
    box_iou,
    box_iou_pairs,
    box_to_full_mask,
    coverage_matrix,
    mask_coverage,
    mask_downsample,
)


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


_coord = st.one_of(st.integers(0, 40).map(lambda k: k / 2),  # half-integers: touching, nested
                   st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False))


@st.composite
def _box(draw):
    x1, x2 = sorted(draw(st.lists(_coord, min_size=2, max_size=2, unique=True)))
    y1, y2 = sorted(draw(st.lists(_coord, min_size=2, max_size=2, unique=True)))
    return BoundingBox(x1, y1, x2, y2)


def _rows(boxes):
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


class TestBoxIouPairs:
    @settings(deadline=None)
    @given(st.lists(_box(), max_size=6), st.lists(_box(), min_size=1, max_size=6))
    @example([BoundingBox(0, 0, 2, 2)], [BoundingBox(2, 0, 4, 2), BoundingBox(0, 2, 2, 4)])  # touching
    @example([BoundingBox(0, 0, 1, 1)], [BoundingBox(5, 5, 7, 7)])  # disjoint
    @example([BoundingBox(0, 0, 10, 10)], [BoundingBox(2.5, 2, 3, 3.5)])  # nested
    @example([BoundingBox(1.5, 2.5, 3.5, 4.5)], [BoundingBox(1.5, 2.5, 3.5, 4.5)])  # identical
    @example([BoundingBox(0.5, 0.5, 2.5, 1.5)], [BoundingBox(1.5, 0.0, 3.5, 2.5)])  # half-integers
    @example([BoundingBox(0.1, 0.2, 0.7, 0.3)], [BoundingBox(0.3, 0.1, 0.9, 0.25)])  # inexact floats
    def test_equals_box_iou_exactly(self, a, b):
        # all pairs, by broadcasting (n, 1, 4) against (1, m, 4)
        got = box_iou_pairs(_rows(a)[:, None], _rows(b)[None])
        assert got.dtype == np.float64 and got.shape == (len(a), len(b))
        assert got.tolist() == [[box_iou(x, y) for y in b] for x in a]
        # the same pairs as rows k of two (n * m, 4) arrays
        rows = box_iou_pairs(np.repeat(_rows(a), len(b), axis=0), np.tile(_rows(b), (len(a), 1)))
        assert rows.tolist() == [box_iou(x, y) for x in a for y in b]


class TestRle:
    def test_mask_area_examples(self):
        zero = BinaryMask(4, 4, (16,))
        assert zero.area == 0
        ones = BinaryMask(4, 4, (0, 16))
        assert ones.area == 16
        assert BinaryMask(4, 4, (2, 3, 11)).area == 3

    def test_malformed_rle_rejected(self):
        with pytest.raises(DataFormatError):
            BinaryMask(4, 4, (2, 3))  # sums to 5, not 16
        with pytest.raises(DataFormatError):
            BinaryMask(4, 4, (20, -4))

    @pytest.mark.parametrize("runs, message", [
        ((2, 3), "RLE runs sum to 5, expected 16 for a 4x4 mask"),
        ((20, -4), "negative run length in RLE"),
        ((), "RLE runs sum to 0, expected 16"),
        ((2.9, 13.1), "RLE run lengths must be integers"),
        ((6.0, 10), "RLE run lengths must be integers"),
        ((15, True), "RLE run lengths must be integers"),
        ((15, np.True_), "RLE run lengths must be integers"),
        (("6", 10), "RLE run lengths must be integers"),
        ((np.float64(6), 10), "RLE run lengths must be integers"),
        ((2**70, 0), "RLE run length outside int64"),
        ((2**63 - 1, 2**63 - 1, 18), "RLE runs sum to 18446744073709551632, expected 16"),
    ])
    def test_malformed_rle_message(self, runs, message):
        with pytest.raises(DataFormatError, match=message):
            BinaryMask(4, 4, runs)

    def test_numpy_integer_runs_stored_as_read_only_int64(self):
        mask = BinaryMask(4, 4, (np.int64(6), np.int32(4), np.uint8(6)))
        assert mask.runs.tolist() == [6, 4, 6]
        assert mask.runs.dtype == np.int64 and not mask.runs.flags.writeable
        assert type(mask.area) is int and mask.area == 4

    def test_runs_are_the_masks_own_copy(self):
        given = np.array([6, 4, 6])
        mask = BinaryMask(4, 4, given)
        given[:] = (0, 16, 0)
        assert mask.runs.tolist() == [6, 4, 6] and mask.area == 4
        assert given.flags.writeable

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


@st.composite
def _run_table(draw):
    """A mask size and a list of run lists for it: valid masks (odd and even
    lengths, empty and full ones among them), masks of no run, bad sums,
    negative runs, and runs whose int64 sum wraps to exactly W*H."""
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    total = width * height
    cuts = st.lists(st.integers(0, total), max_size=6).map(sorted)
    valid = cuts.map(lambda c: np.diff([0, *c, total]).tolist())
    mask = st.one_of(valid, st.just([total]), st.just([0, total]),
                     st.lists(st.integers(-3, total + 3), max_size=6),
                     st.just([2**63 - 1, 2**63 - 1, total + 2]))
    return width, height, draw(st.lists(mask, max_size=5))


class TestSplit:
    @settings(deadline=None, max_examples=300)
    @given(_run_table())
    def test_accepts_and_refuses_what_each_mask_does(self, table):
        width, height, masks = table

        def one(runs):
            with contextlib.suppress(DataFormatError):
                return BinaryMask(width, height, runs)

        singles = [one(runs) for runs in masks]
        flat = np.array([r for runs in masks for r in runs], dtype=np.int64)
        try:
            batch = BinaryMask.split(width, height, flat, [len(runs) for runs in masks])
        except DataFormatError:
            batch = None
        if None in singles:
            assert batch is None
        else:
            assert [(m.runs.tolist(), m.area) for m in batch] == [
                (m.runs.tolist(), m.area) for m in singles]
            assert all(type(m.area) is int for m in batch)

    def test_masks_are_read_only_views_into_one_copy(self):
        given = np.array([6, 4, 6, 0, 16, 16])
        masks = BinaryMask.split(4, 4, given, np.array([3, 2, 1]))
        assert [m.runs.tolist() for m in masks] == [[6, 4, 6], [0, 16], [16]]
        assert [m.area for m in masks] == [4, 16, 0]
        assert not any(m.runs.flags.writeable for m in masks)
        assert len({id(m.runs.base) for m in masks}) == 1
        assert given.flags.writeable and not np.shares_memory(given, masks[0].runs)

    @pytest.mark.parametrize("runs, counts, message", [
        ([6, 4, 6], [3, 0], r"mask 1: run count 0, not >= 1"),
        ([6, 4, 6], [2], r"run counts sum to 2, not to the 3 runs"),
        ([6, 4, 6, 16], [3, 1, 1], r"run counts sum to 5, not to the 4 runs"),
        ([6, 4, 6, 3, -1, 14], [3, 3], r"mask 1: negative run length in RLE"),
        ([6, 4, 6, 2**63 - 1, 2**63 - 1, 18], [3, 3],
         r"mask 1: RLE runs sum to 18446744073709551632, expected 16 for a 4x4 mask"),
    ], ids=["empty-mask", "too-few-counted", "too-many-counted", "negative", "wraps-to-w-h"])
    def test_bad_table_names_its_mask(self, runs, counts, message):
        with pytest.raises(DataFormatError, match=message):
            BinaryMask.split(4, 4, np.array(runs, dtype=np.int64), np.array(counts))


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
            assert cov == inter / a.area
            assert a.area == int(a_arr.sum())


def _mask_of(width, height, rects):
    """A width x height mask that is the union of ``(y1, x1, y2, x2)`` rectangles."""
    arr = np.zeros((height, width), dtype=bool)
    for y1, x1, y2, x2 in rects:
        arr[y1:y2, x1:x2] = True
    return BinaryMask.from_array(arr)


def _embed_far(m, width, height):
    """``m`` placed in the bottom-right corner of a width x height raster."""
    ys, xs = np.nonzero(m.to_array())
    flat = (ys + height - m.height).astype(np.int64) * width + (xs + width - m.width)
    gaps = np.flatnonzero(np.diff(flat) != 1) + 1
    starts = flat[np.concatenate(([0], gaps))]
    ends = flat[np.concatenate((gaps - 1, [flat.size - 1]))] + 1
    bounds = np.concatenate(([0], np.column_stack((starts, ends)).ravel(), [width * height]))
    return BinaryMask(width, height, tuple(np.diff(bounds).tolist()))


def _coverage_and_passes(masks):
    """``coverage_matrix(masks)`` and the number of its N**2 ``bincount`` passes."""
    n, calls, bincount = len(masks), [], np.bincount

    def spy(*args, **kwargs):
        calls.append(kwargs.get("minlength") == n * n)
        return bincount(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "bincount", spy)
        got = coverage_matrix(masks)
    return got, sum(calls)


@st.composite
def _tall_rectangles(draw, max_masks=6):
    """Rectangles of a w x 128 raster that all cover its middle column and rows
    16 .. 111.  The first keeps column 0 clear, so each of its 96 or more rows
    is an interval that every other mask overlaps: at least 96 * (N - 1)
    interval pairs, over ten times N**2 for N <= 8.  A later one may span whole
    rows, one interval that overlaps many.  A prefix may repeat."""
    w = draw(st.integers(3, 9))
    masks = []
    for i in range(draw(st.integers(2, max_masks))):
        x1 = draw(st.integers(1 if i == 0 else 0, w // 2))
        x2 = draw(st.integers(w // 2 + 1, w))
        y1, y2 = draw(st.integers(0, 16)), draw(st.integers(112, 128))
        masks.append(_mask_of(w, 128, [(y1, x1, y2, x2)]))
    return masks + masks[: draw(st.integers(0, 2))]


def _spanning_rectangles(n, width, height, seed):
    """n rectangles whose columns all include [width / 4, 3 * width / 4), and
    their number of overlapping interval pairs.  No rectangle spans a whole
    row, so each of its rows is an interval, and every two rectangles on a row
    make one pair."""
    rng = np.random.default_rng(seed)
    y1, y2 = rng.integers(0, height // 4, n), rng.integers(3 * height // 4, height, n)
    x1, x2 = rng.integers(0, width // 4, n), rng.integers(3 * width // 4, width, n)
    masks = [_mask_of(width, height, [rect]) for rect in zip(y1, x1, y2, x2)]
    on_row = np.zeros(height, dtype=np.int64)
    for lo, hi in zip(y1, y2):
        on_row[lo:hi] += 1
    return masks, int((on_row * (on_row - 1) // 2).sum())


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

    @settings(deadline=None)
    @given(_same_size_masks())
    @example([_mask_of(4, 4, [(0, 0, 4, 2)]), _mask_of(4, 4, [(0, 3, 4, 4)])])  # shared rows only
    @example([  # the first 1-run wraps from column 2 of row 0 to pixel 5, in column 1
        BinaryMask(4, 4, (2, 4, 10)), BinaryMask(4, 4, (5, 1, 10)), BinaryMask(4, 4, (7, 6, 3)),
    ])
    @example([  # extents touching at adjacent columns, then at adjacent rows
        _mask_of(6, 6, [(0, 0, 3, 3)]), _mask_of(6, 6, [(0, 3, 3, 6)]),
        _mask_of(6, 6, [(3, 0, 6, 3)]), _mask_of(6, 6, [(3, 3, 6, 6)]),
        _mask_of(6, 6, [(2, 2, 3, 3)]),  # shares one column and one row with the first
    ])
    @example([  # a chain 0-2-3-1 of column overlaps
        _mask_of(8, 1, [(0, 0, 1, 2)]), _mask_of(8, 1, [(0, 5, 1, 7)]),
        _mask_of(8, 1, [(0, 1, 1, 4)]), _mask_of(8, 1, [(0, 3, 1, 6)]),
    ])
    @example([  # six masks, pairwise disjoint
        _mask_of(9, 9, [(y, x, y + 2, x + 2)]) for y in (0, 7) for x in (0, 4, 7)
    ])
    def test_equals_scalar_oracle_where_extents_meet(self, masks):
        got = coverage_matrix(masks)
        want = np.array([[mask_coverage(a, b) for b in masks] for a in masks])
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("least_pass", [1, 50])
    @settings(deadline=None)
    @given(_tall_rectangles())
    @example([  # the full mask's one interval overlaps all 96 rows of the other
        _mask_of(3, 128, [(16, 1, 112, 2)]), _mask_of(3, 128, [(0, 0, 128, 3)]),
    ])
    def test_equals_scalar_oracle_over_many_passes(self, least_pass, masks):
        # a pass holds max(least_pass, N**2) interval pairs, here fewer than the
        # masks have, and its limits may fall inside an interval's pairs
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_PAIRS_PER_PASS", least_pass)
            got, passes = _coverage_and_passes(masks)
        assert passes > 1
        assert got.tolist() == [[mask_coverage(a, b) for b in masks] for a in masks]

    @pytest.mark.parametrize("n", [120, 150])  # N**2 below and above _PAIRS_PER_PASS
    def test_passes_hold_max_of_least_pass_and_n_squared_pairs(self, n):
        # pass limits are pair numbers, not interval limits: every pass but the
        # last is full, however many pairs one interval has
        masks, pairs = _spanning_rectangles(n, 256, 256, seed=25)
        got, passes = _coverage_and_passes(masks)
        assert 1 < passes <= math.ceil(pairs / max(geometry._PAIRS_PER_PASS, n * n))
        rng = np.random.default_rng(25)
        for i, j in rng.integers(0, n, size=(50, 2)):
            assert got[i, j] == mask_coverage(masks[i], masks[j])

    @settings(deadline=None, max_examples=50)
    @given(_same_size_masks())
    def test_exact_at_2_53_pixels(self, masks):
        # the masks moved to the far corner of a 2**27 x 2**26 raster keep
        # their coverages; intervals there end just below 2**53
        side_w, side_h = 2**27, 2**26
        big = [_embed_far(m, side_w, side_h) for m in masks]
        assert coverage_matrix(big).tolist() == [[mask_coverage(a, b) for b in masks] for a in masks]

    def test_disjoint_groups_equal_scalar_oracle(self):
        # two groups of overlapping rectangles, left and right of column 16:
        # every row is shared, no column is
        rng = np.random.default_rng(12)
        masks = []
        for lo, hi in ((0, 15), (17, 32)):
            for _ in range(24):
                x1 = int(rng.integers(lo, hi - 4))
                y1 = int(rng.integers(0, 12))
                masks.append(_mask_of(32, 16, [(y1, x1, y1 + 4, x1 + 4)]))
        got = coverage_matrix(masks)
        assert got.tolist() == [[mask_coverage(a, b) for b in masks] for a in masks]

    def test_memory_of_heavily_overlapping_masks(self):
        # 120 rectangles that each span the middle of a 256 x 256 raster: 22,835
        # intervals in 1.2 million overlapping pairs, summed a pass at a time,
        # so memory is O(intervals + masks**2 + pass), not O(masks * intervals)
        rng = np.random.default_rng(18)
        lo, hi = rng.integers(0, 64, size=(120, 2)), rng.integers(192, 256, size=(120, 2))
        masks = [_mask_of(256, 256, [(y1, x1, y2, x2)]) for (y1, x1), (y2, x2) in zip(lo, hi)]
        tracemalloc.start()
        try:
            got = coverage_matrix(masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**22
        for i, j in rng.integers(0, len(masks), size=(200, 2)):
            assert got[i, j] == mask_coverage(masks[i], masks[j])

    def test_memory_of_many_masks_is_a_few_results(self):
        # 200 rectangles in 16 rows: 2,425 intervals in 216,544 overlapping
        # pairs, 5.4 * N**2, summed N**2 at a time, so the pass temporaries
        # are a few N x N float64 arrays, not a few P-long ones
        masks, pairs = _spanning_rectangles(200, 256, 16, seed=25)
        assert pairs > 4 * len(masks) ** 2
        tracemalloc.start()
        try:
            got = coverage_matrix(masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * got.nbytes
        rng = np.random.default_rng(25)
        for i, j in rng.integers(0, len(masks), size=(50, 2)):
            assert got[i, j] == mask_coverage(masks[i], masks[j])

    def test_mismatched_dims_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            coverage_matrix([BinaryMask(4, 4, (0, 16)), BinaryMask(4, 5, (0, 20))])
        with pytest.raises(ValueError, match="dimension"):  # checked before emptiness
            coverage_matrix([BinaryMask(4, 4, (16,)), BinaryMask(4, 5, (0, 20))])

    # the caller's index is named, among one, two or 46 masks
    @pytest.mark.parametrize("others,position", [(1, 0), (1, 1), (0, 0), (45, 41)])
    def test_empty_mask_rejected(self, others, position):
        masks = [BinaryMask(4, 4, (0, 16))] * others
        masks.insert(position, BinaryMask(4, 4, (16,)))
        with pytest.raises(ValueError, match=rf"empty source mask \(index {position}\)"):
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


@st.composite
def _mask_and_target(draw, max_side=12, max_target=16):
    """Any mask, empty and full included, and any target size, larger than the
    mask included; runs come from sorted cut points as in ``_same_size_masks``."""
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    cuts = sorted(draw(st.lists(st.integers(0, w * h), max_size=12)))
    mask = BinaryMask(w, h, tuple(np.diff([0, *cuts, w * h]).tolist()))
    return mask, draw(st.integers(1, max_target)), draw(st.integers(1, max_target))


@st.composite
def _masks_and_target(draw, max_side=12, max_target=16, max_masks=6):
    """One to ``max_masks`` masks of one size, empty and full included, and any
    target size; an odd or even run count each, so the masks' offsets vary."""
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    cut_lists = st.lists(st.integers(0, w * h), max_size=12).map(sorted)
    one_mask = cut_lists.map(
        lambda cuts: BinaryMask(w, h, tuple(np.diff([0, *cuts, w * h]).tolist())))
    masks = draw(st.lists(one_mask, min_size=1, max_size=max_masks))
    return masks, draw(st.integers(1, max_target)), draw(st.integers(1, max_target))


class TestDownsample:
    @settings(deadline=None)
    @given(_masks_and_target())
    @example(([BinaryMask(4, 4, (2, 3, 0, 0, 0, 2, 9)),  # zero-length interior runs
               BinaryMask(4, 4, (0, 3, 13)),  # leading 1-run
               BinaryMask(4, 4, (15, 1)),  # a run ending on the last pixel
               BinaryMask(4, 4, (0, 16)), BinaryMask(4, 4, (16,))], 3, 3))
    @example(([BinaryMask(4, 4, (15, 1)), BinaryMask(4, 4, (0, 3, 13))], 4, 4))
    @example(([BinaryMask(1, 1, (0, 1)), BinaryMask(1, 1, (1,))], 3, 2))
    @example(([BinaryMask(3, 2, (1, 2, 1, 2)), BinaryMask(3, 2, (0, 6)),  # target larger
               BinaryMask(3, 2, (1, 2, 1, 2))], 11, 7))                   # than the mask
    def test_one_pass_equals_decode_based_version_per_mask(self, case):
        masks, tw, th = case
        got = mask_downsample(masks, tw, th)
        assert type(got) is np.ndarray and got.shape == (len(masks), th, tw)
        for mask, weights in zip(masks, got):
            assert weights.tobytes() == downsample_by_decoding(mask, tw, th).tobytes()

    # A 1x1 target reads 4 samples a mask, so only the int64 index limit splits the
    # 1,100 masks; an 8x8 target reads 256, and the passes hold 32 masks each.
    @pytest.mark.parametrize("target", [1, 8])
    def test_one_pass_is_exact_for_over_1024_masks_of_2_53_pixels(self, target):
        # Mask i's samples sit at i * 2**53 + p, past 2**63 from mask 1,024 on: the
        # masks are read in passes that keep every index in int64.  Runs only, no raster.
        w, h = 2**27, 2**26
        rng = np.random.default_rng(53)
        masks = [BinaryMask(w, h, tuple(np.diff([0, *np.sort(rng.integers(0, w * h, 40)), w * h])
                                        .tolist())) for _ in range(1100)]
        got = mask_downsample(masks, target, target)
        assert len({weights.tobytes() for weights in got}) > 1  # not all alike
        for mask, weights in zip(masks, got):
            assert weights.tobytes() == mask_downsample([mask], target, target)[0].tobytes()

    def test_masks_of_different_sizes_rejected(self):
        with pytest.raises(ValueError, match="one size"):
            mask_downsample([BinaryMask(2, 2, (4,)), BinaryMask(2, 3, (6,))], 2, 2)
        with pytest.raises(ValueError, match="one size"):
            mask_downsample([], 2, 2)

    @settings(deadline=None)
    @given(_mask_and_target())
    @example((BinaryMask(4, 4, (2, 3, 0, 0, 0, 2, 9)), 3, 3))  # zero-length interior runs
    @example((BinaryMask(4, 4, (0, 3, 13)), 2, 2))  # leading 1-run
    @example((BinaryMask(4, 4, (15, 1)), 4, 4))  # a run ending on the last pixel
    @example((BinaryMask(5, 3, (0, 15)), 2, 3))  # full mask
    @example((BinaryMask(1, 1, (0, 1)), 1, 1))  # one-pixel mask
    @example((BinaryMask(1, 1, (1,)), 3, 2))
    @example((BinaryMask(7, 5, (8, 4, 3, 4, 16)), 1, 1))  # 1x1 target
    @example((BinaryMask(3, 2, (1, 2, 1, 2)), 11, 7))  # target larger than the mask
    def test_equals_decode_based_version_exactly(self, case):
        mask, tw, th = case
        (got,) = mask_downsample([mask], tw, th)
        want = downsample_by_decoding(mask, tw, th)
        assert got.dtype == want.dtype and got.shape == want.shape == (th, tw)
        assert got.tobytes() == want.tobytes()

    def test_constant_masks_stay_constant(self):
        ones = BinaryMask(6, 5, (0, 30))
        for tw, th in ((2, 2), (3, 7), (11, 1)):
            np.testing.assert_array_equal(mask_downsample([ones], tw, th), np.ones((1, th, tw)))
        zeros = BinaryMask(6, 5, (30,))
        np.testing.assert_array_equal(mask_downsample([zeros], 3, 3), np.zeros((1, 3, 3)))

    def test_left_half_mask_against_scalar_oracle(self):
        arr = np.zeros((4, 4)); arr[:, :2] = 1
        mask = BinaryMask.from_array(arr)
        (weights,) = mask_downsample([mask], 2, 2)
        expected = _bilinear_oracle(arr.tolist(), 2, 2)
        np.testing.assert_allclose(weights, expected, atol=1e-12)
        # frozen values from the oracle: target centers land on all-1 / all-0 columns
        np.testing.assert_array_equal(weights, [[1.0, 0.0], [1.0, 0.0]])

    def test_random_masks_match_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            h = int(rng.integers(1, 10))
            w = int(rng.integers(1, 10))
            arr = rng.random((h, w)) < 0.5
            tw = int(rng.integers(1, 9))
            th = int(rng.integers(1, 9))
            (weights,) = mask_downsample([BinaryMask.from_array(arr)], tw, th)
            expected = _bilinear_oracle(arr.astype(float).tolist(), tw, th)
            np.testing.assert_allclose(weights, expected, atol=1e-12)
            assert weights.min() >= 0.0 and weights.max() <= 1.0


def _box_mask_by_raster(box, width, height):
    """The raster-plus-``from_array`` version that ``box_to_full_mask`` replaced."""
    x1, y1 = max(box.x1, 0.0), max(box.y1, 0.0)
    x2, y2 = min(box.x2, float(width)), min(box.y2, float(height))
    arr = np.zeros((height, width), dtype=bool)
    if x2 > x1 and y2 > y1:
        cx1 = max(math.ceil(x1 - 0.5), 0)
        cx2 = min(math.ceil(x2 - 0.5), width)
        cy1 = max(math.ceil(y1 - 0.5), 0)
        cy2 = min(math.ceil(y2 - 0.5), height)
        arr[cy1:cy2, cx1:cx2] = True
    mask = BinaryMask.from_array(arr)
    return mask, mask.area > 0


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

    @pytest.mark.parametrize("box, width, height", [
        ((0.0, 0.0, 2.0, 2.0), 6, 5),   # starts on the first pixel: a leading 1-run
        ((0.0, 1.0, 3.0, 3.0), 6, 5),   # on the left edge
        ((2.0, 0.0, 9.0, 3.0), 6, 5),   # on the top edge, clamped at the right edge
        ((1.0, 2.0, 3.0, 7.5), 6, 5),   # clamped at the bottom edge
        ((4.5, 3.5, 6.0, 5.0), 6, 5),   # ends on the last pixel
        ((0.0, 0.0, 6.0, 5.0), 6, 5),   # the whole image
        ((0.0, 1.0, 6.0, 3.0), 6, 5),   # whole rows: one 1-run
        ((0.2, 3.4, 9.0, 9.0), 6, 5),   # whole rows to the end
        ((0.0, 0.0, 0.5, 0.5), 6, 5),   # a pixel center on the box's edge is outside
        ((1.6, 1.0, 2.4, 4.0), 6, 5),   # between two pixel centers
        ((7.0, 1.0, 9.0, 3.0), 6, 5),   # outside the image
        ((0.0, 0.0, 1.0, 1.0), 1, 1),
        ((0.0, 0.5, 1.0, 1.0), 1, 1),
    ])
    def test_runs_equal_raster_version(self, box, width, height):
        box = BoundingBox(*box)
        got, ok = box_to_full_mask(box, width, height)
        want, want_ok = _box_mask_by_raster(box, width, height)
        assert (got.runs.tolist(), ok) == (want.runs.tolist(), want_ok)

    def test_runs_equal_raster_version_on_random_boxes(self):
        rng = np.random.default_rng(11)
        for k in range(3000):
            width, height = (int(v) for v in rng.integers(1, 14, size=2))
            coords = rng.uniform(0.0, max(width, height) + 3.0, size=4)
            if k % 2:
                coords = np.round(coords * 2) / 2
            x1, x2 = sorted(coords[:2])
            y1, y2 = sorted(coords[2:])
            if not (x1 < x2 and y1 < y2):
                continue
            box = BoundingBox(float(x1), float(y1), float(x2), float(y2))
            got, ok = box_to_full_mask(box, width, height)
            want, want_ok = _box_mask_by_raster(box, width, height)
            assert (got.runs.tolist(), ok) == (want.runs.tolist(), want_ok), (box, width, height)
