"""Boxes, run-length encoded binary masks, and the overlap ratios built on them.

Masks are stored as uncompressed row-major run lengths that alternate 0-runs
and 1-runs, always starting with the count of leading zeros (a first run of 0
is legal).  All operations here are pure functions on immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataFormatError

__all__ = [
    "BoundingBox",
    "BinaryMask",
    "box_iou",
    "box_iou_pairs",
    "mask_coverage",
    "coverage_matrix",
    "mask_downsample",
    "box_to_full_mask",
]


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box in pixel coordinates, origin top-left.

    Invariants: x1 < x2, y1 < y2, all coordinates finite and >= 0.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        coords = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"box coordinates must be finite, got {coords}")
        if min(coords) < 0:
            raise ValueError(f"box coordinates must be >= 0, got {coords}")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError(f"degenerate box {coords}: need x1 < x2 and y1 < y2")

    @classmethod
    def rows(cls, coords: np.ndarray) -> list["BoundingBox"]:
        """One box per row of the (n, 4) float64 array ``coords``, checked in
        one pass as ``BoundingBox(*row)`` checks one box: the first row that
        it would refuse raises that ValueError."""
        ok = (np.isfinite(coords).all(axis=1) & (coords >= 0).all(axis=1)
              & (coords[:, 0] < coords[:, 2]) & (coords[:, 1] < coords[:, 3]))
        if not ok.all():
            cls(*coords[np.argmin(ok)].tolist())
        boxes = []
        for x1, y1, x2, y2 in coords.tolist():
            # checked above, with all the others
            box = object.__new__(cls)
            object.__setattr__(box, "x1", x1)
            object.__setattr__(box, "y1", y1)
            object.__setattr__(box, "x2", x2)
            object.__setattr__(box, "y2", y2)
            boxes.append(box)
        return boxes

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def box_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union; 0.0 for disjoint boxes."""
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter
    return inter / union


def box_iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of broadcast ``(..., 4)`` arrays of ``x1, y1, x2, y2`` rows, with the
    operations of ``box_iou`` in its order and 0.0 where the intersection is
    empty: ``out[k] == box_iou(a[k], b[k])`` bit for bit, and
    ``box_iou_pairs(a[:, None], b[None])`` is the all-pairs matrix."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = iw * ih
    union = ((a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
             + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]) - inter)
    overlap = (iw > 0) & (ih > 0)
    return np.divide(inter, union, out=np.zeros_like(inter), where=overlap)


@dataclass(frozen=True, eq=False, slots=True)
class BinaryMask:
    """Binary raster stored as alternating run lengths, zeros first.

    ``runs`` walks the raster in row-major order; even positions count 0s,
    odd positions count 1s.  The first run may be 0 (mask starts with a 1).
    It is a read-only int64 array: the mask's own copy of the runs it is
    given, or, from ``split``, a view into one array of many masks' runs.
    ``area`` counts the 1s.  Masks compare by identity.
    """

    width: int
    height: int
    runs: np.ndarray
    area: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        runs = self.runs  # read here, never kept: the mask keeps its own array
        if not isinstance(runs, (list, tuple)):
            runs = runs.tolist() if isinstance(runs, np.ndarray) else tuple(runs)
        if not {int}.issuperset(map(type, runs)):  # a bool is no int here
            if not all(isinstance(r, (int, np.integer)) and type(r) is not bool for r in runs):
                raise DataFormatError("RLE run lengths must be integers")
            runs = tuple(map(int, runs))
        try:
            array = np.array(runs, dtype=np.int64)
        except OverflowError:
            raise DataFormatError("RLE run length outside int64") from None
        if self.width < 1 or self.height < 1:
            raise DataFormatError(f"mask dims must be >= 1, got {self.width}x{self.height}")
        # the checks and the area are summed over Python ints, so they are exact
        if min(runs, default=0) < 0:
            raise DataFormatError("negative run length in RLE")
        total = sum(runs)
        if total != self.width * self.height:
            raise DataFormatError(
                f"RLE runs sum to {total}, expected {self.width * self.height} "
                f"for a {self.width}x{self.height} mask"
            )
        array.setflags(write=False)
        object.__setattr__(self, "runs", array)
        object.__setattr__(self, "area", sum(runs[1::2]))

    @classmethod
    def split(cls, width: int, height: int, runs: np.ndarray,
              counts: np.ndarray) -> list["BinaryMask"]:
        """The width x height masks whose runs lie back to back in the int64
        array ``runs``, ``counts[i]`` of them for mask i; each mask's ``runs`` is
        a view into ``runs`` (a read-only copy of it, if it is writable).

        One pass over the whole table accepts and refuses each mask as
        ``BinaryMask(width, height, ...)`` does, naming mask i as ``mask i: ``;
        a count below 1, or counts that do not sum to ``len(runs)``, are refused
        too (a mask of no runs is refused either way).

        The sums are exact although int64 sums wrap.  Each run's end within its
        mask comes from one cumsum, modulo 2**64.  With no run negative, a mask's
        true ends only grow, by less than 2**63 a step, so the first of them that
        reaches 2**63 lies below 2**64 and reads negative; if none reads negative,
        every end is exact.
        """
        runs = np.asarray(runs, dtype=np.int64)
        if runs.flags.writeable:
            runs = runs.copy()
            runs.flags.writeable = False
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size == 0 and runs.size == 0:
            return []
        empty = np.flatnonzero(counts < 1)
        if empty.size:
            raise DataFormatError(f"mask {empty[0]}: run count {counts[empty[0]]}, not >= 1")
        declared = sum(counts.tolist())
        if declared != runs.size:
            raise DataFormatError(f"run counts sum to {declared}, not to the {runs.size} runs")
        if width < 1 or height < 1:
            raise DataFormatError(f"mask dims must be >= 1, got {width}x{height}")
        total = width * height
        starts = np.cumsum(counts) - counts
        if runs.min() < 0:
            k = np.searchsorted(starts, np.argmax(runs < 0), side="right") - 1
            raise DataFormatError(f"mask {k}: negative run length in RLE")
        ends = np.cumsum(runs)
        ends -= np.repeat(ends[starts] - runs[starts], counts)
        bad = ends[starts + counts - 1] != total
        if ends.min() < 0 or bad.any():
            bad[np.searchsorted(starts, np.flatnonzero(ends < 0), side="right") - 1] = True
            k = int(np.argmax(bad))
            got = sum(runs[starts[k]:starts[k] + counts[k]].tolist())
            raise DataFormatError(f"mask {k}: RLE runs sum to {got}, expected {total} "
                                  f"for a {width}x{height} mask")
        # a mask's 1s are its runs at odd indices of the table if it starts at an
        # even one, else the rest of its W*H pixels
        odd = runs.copy()
        odd[::2] = 0
        odd_sums = np.add.reduceat(odd, starts)
        areas = np.where(starts & 1, total - odd_sums, odd_sums).tolist()
        masks = []
        for lo, hi, area in zip(starts.tolist(), (starts + counts).tolist(), areas):
            # checked above, with all the others
            mask = object.__new__(cls)
            object.__setattr__(mask, "width", width)
            object.__setattr__(mask, "height", height)
            object.__setattr__(mask, "runs", runs[lo:hi])
            object.__setattr__(mask, "area", area)
            masks.append(mask)
        return masks

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BinaryMask":
        """Encode a 2D (height, width) array; any nonzero value counts as 1."""
        a = np.asarray(arr)
        if a.ndim != 2:
            raise ValueError(f"expected a 2D array, got shape {a.shape}")
        flat = (a != 0).ravel()
        n = flat.size
        changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
        runs = np.diff(np.concatenate(([0], changes, [n])))
        if flat[0]:  # the first run, of zeros, is empty
            runs = np.concatenate(([0], runs))
        return cls(width=a.shape[1], height=a.shape[0], runs=runs)

    def to_array(self) -> np.ndarray:
        """Decode to a (height, width) bool array."""
        values = np.zeros(len(self.runs), dtype=bool)
        values[1::2] = True
        flat = np.repeat(values, self.runs)
        return flat.reshape(self.height, self.width)


def mask_coverage(src: BinaryMask, dst: BinaryMask) -> float:
    """|src AND dst| / |src| -- how much of ``src`` the mask ``dst`` covers."""
    if (src.width, src.height) != (dst.width, dst.height):
        raise ValueError(
            f"mask dimension mismatch: {src.width}x{src.height} vs {dst.width}x{dst.height}"
        )
    area = src.area
    if area == 0:
        raise ValueError("coverage undefined for an empty source mask")
    inter = int(np.logical_and(src.to_array(), dst.to_array()).sum())
    return inter / area


_ZERO_RUN = np.zeros(1, dtype=np.int64)


def _even_runs(masks: Sequence[BinaryMask]) -> np.ndarray:
    """All masks' runs back to back, each mask's padded with a 0-run to an even
    count, so that every mask's first run has an even index."""
    return np.concatenate([part for m in masks
                           for part in ((m.runs, _ZERO_RUN) if m.runs.size % 2 else (m.runs,))])


_PAIRS_PER_PASS = 2**14  # overlapping interval pairs summed per bincount, unless N**2 is more


def coverage_matrix(masks: Sequence[BinaryMask]) -> np.ndarray:
    """All pairwise coverages: ``out[i, j] == mask_coverage(masks[i], masks[j])``.

    Works on the run lengths and never decodes a raster.  Each mask's 1-runs
    become flat ``[start, end)`` intervals; two of one mask at most touch.
    Sorted by start, the intervals after interval i that overlap it are exactly
    those that start strictly before it ends, so every overlapping pair (a, b)
    is met once, no two intervals of one mask pair, and the pair adds
    ``min(end[a], end[b]) - start[b]`` shared pixels to its two masks' entry.
    Every partial sum is an integer of at most W*H <= 2**53, hence exact in
    float64 in any grouping, and the final division is the same correctly
    rounded quotient of two integers that ``mask_coverage`` computes: the
    values agree bit for bit.

    The pairs are summed in passes of max(_PAIRS_PER_PASS, N**2) consecutive
    pair numbers, so each pass's N**2 ``bincount`` is spread over at least N**2
    pairs and its temporaries stay a few times the size of the result.  Cost:
    O(R*log(R) + P + N**2) time and O(R + N**2) memory for R intervals and P
    overlapping interval pairs, whatever the declared W*H.  Disjoint masks add
    no pair.

    Raises ValueError when the masks differ in dimensions or one is empty.
    """
    dims = {(m.width, m.height) for m in masks}
    if len(dims) > 1:
        raise ValueError(f"mask dimension mismatch: {sorted(dims)}")
    n = len(masks)
    if n == 0:
        return np.zeros((0, 0))
    width, height = dims.pop()
    total = width * height

    # each mask's runs padded to (0-run, 1-run) pairs
    pairs = np.array([(m.runs.size + 1) // 2 for m in masks], dtype=np.int64)
    runs = _even_runs(masks)
    row = np.repeat(np.arange(n), pairs)
    ones = runs[1::2]
    # every mask's runs sum to W*H, so the running total minus row * W*H is a run's end
    end = np.cumsum(runs)[1::2] - row * total
    areas = np.bincount(row, weights=ones, minlength=n)
    if not areas.all():
        empty = int(np.argmin(areas))
        raise ValueError(f"coverage undefined for an empty source mask (index {empty})")
    row, end = row[ones > 0], end[ones > 0]
    start = end - ones[ones > 0]

    order = np.argsort(start, kind="stable")
    # pixel indices are at most W*H <= 2**53, so float64 holds them exactly
    row, start, end = row[order], start[order].astype(np.float64), end[order].astype(np.float64)
    # interval i overlaps the count[i] intervals after it; its pairs are numbered
    # offset[i] .. offset[i + 1] - 1, and pair k of interval a is with b = k + shift[a]
    count = np.searchsorted(start, end) - np.arange(1, start.size + 1)
    offset = np.concatenate(([0], np.cumsum(count)))
    shift = np.arange(1, start.size + 1) - offset[:-1]
    cell = row * n
    inter = np.zeros(n * n)
    step = max(_PAIRS_PER_PASS, n * n)  # the N**2 bincount is spread over >= N**2 pairs
    n_pairs = int(offset[-1])
    for p0 in range(0, n_pairs, step):
        # pairs p0 .. p1 - 1, of intervals lo .. hi - 1; the first and the last
        # of them may also have pairs in the passes before and after
        p1 = min(p0 + step, n_pairs)
        lo = int(np.searchsorted(offset, p0, side="right")) - 1
        hi = int(np.searchsorted(offset, p1))
        reps = count[lo:hi].copy()
        reps[0] -= p0 - offset[lo]
        reps[-1] -= offset[hi] - p1
        b = np.arange(p0, p1)
        b += np.repeat(shift[lo:hi], reps)
        shared = np.repeat(end[lo:hi], reps)
        np.minimum(shared, end[b], out=shared)
        shared -= start[b]
        ab = np.repeat(cell[lo:hi], reps)
        ab += row[b]
        inter += np.bincount(ab, weights=shared, minlength=n * n)
    inter = inter.reshape(n, n)
    inter += inter.T
    np.fill_diagonal(inter, areas)
    return inter / areas[:, None]


# 2**62 // (W*H) masks per searchsorted pass keep the offset indices i*W*H + p below
# 2**63; past it (1,024 masks of 2**53 pixels) they wrap and read wrong runs
_SAMPLE_INDEX_LIMIT = 2**62
_SAMPLES_PER_PASS = 2**13  # keeps each pass's temporaries at 64 KiB per array


def mask_downsample(masks: Sequence[BinaryMask], target_w: int, target_h: int) -> np.ndarray:
    """Bilinear resample of each binary raster to (target_h, target_w): a float64
    array of shape (len(masks), target_h, target_w) with values in [0, 1].

    Pixel centers align (source coordinate of target cell i is
    (i + 0.5) * scale - 0.5), samples beyond the border clamp to the edge
    pixel, and fractional values are kept.  A constant mask stays constant.
    The masks share their dimensions, hence their 2*target_h x 2*target_w
    corner pixels, which are read from the runs of all masks at once: with the
    runs concatenated, mask i's pixel p lies at i*W*H + p, its run number is
    #(run ends <= i*W*H + p) minus the (even) number of runs of masks before
    it, and odd runs hold the 1s.  The masks must be non-empty and of one size.
    """
    if target_w < 1 or target_h < 1:
        raise ValueError(f"target dims must be >= 1, got {target_w}x{target_h}")
    dims = {(m.width, m.height) for m in masks}
    if len(dims) != 1:
        raise ValueError(f"need masks of one size, got {sorted(dims)}")
    width, height = dims.pop()
    sx = (np.arange(target_w) + 0.5) * (width / target_w) - 0.5
    sy = (np.arange(target_h) + 0.5) * (height / target_h) - 0.5
    sx = np.clip(sx, 0.0, width - 1.0)
    sy = np.clip(sy, 0.0, height - 1.0)

    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = sx - x0
    fy = sy - y0

    flat = (np.concatenate((y0, y1))[:, None] * width + np.concatenate((x0, x1))).ravel()
    out = np.empty((len(masks), target_h, target_w))
    step = max(min(_SAMPLE_INDEX_LIMIT // (width * height), _SAMPLES_PER_PASS // flat.size), 1)
    for lo in range(0, len(masks), step):
        chunk = masks[lo:lo + step]
        ends = np.cumsum(_even_runs(chunk))
        at = flat + np.arange(len(chunk))[:, None] * (width * height)
        src = (np.searchsorted(ends, at, side="right") & 1).reshape(-1, 2 * target_h, 2, target_w)
        rows = src[:, :, 0] * (1.0 - fx) + src[:, :, 1] * fx
        out[lo:lo + step] = rows[:, :target_h] * (1.0 - fy[:, None]) + rows[:, target_h:] * fy[:, None]
    return np.clip(out, 0.0, 1.0, out=out)


def box_to_full_mask(box: BoundingBox, width: int, height: int) -> tuple[BinaryMask, bool]:
    """The mask whose 1s are exactly the pixels with centers inside the box.

    Pixel i (center i + 0.5) is inside iff x1 <= i + 0.5 < x2, with the box
    clamped to the image; the runs are one 1-run per row, or one in all for
    whole rows, with no raster.  Returns (mask, ok); ok is False when it is empty.
    """
    cx1, cx2 = max(math.ceil(box.x1 - 0.5), 0), min(math.ceil(box.x2 - 0.5), width)
    cy1, cy2 = max(math.ceil(box.y1 - 0.5), 0), min(math.ceil(box.y2 - 0.5), height)
    w, rows, total = cx2 - cx1, cy2 - cy1, width * height
    if w <= 0 or rows <= 0:
        return BinaryMask(width, height, np.array([total])), False
    if w == width:
        w, rows = w * rows, 1
    start = cy1 * width + cx1
    end = start + (rows - 1) * width + w
    runs = np.empty(2 * rows + 1, dtype=np.int64)  # start, w, then (width - w, w) per row, tail
    runs[0::2], runs[1::2] = width - w, w
    runs[0], runs[-1] = start, total - end
    return BinaryMask(width, height, runs if end < total else runs[:-1]), True
