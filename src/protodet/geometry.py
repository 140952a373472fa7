"""Boxes, run-length encoded binary masks, and the overlap ratios built on them.

Masks are stored as uncompressed row-major run lengths that alternate 0-runs
and 1-runs, always starting with the count of leading zeros (a first run of 0
is legal).  All operations here are pure functions on immutable values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataFormatError

__all__ = [
    "BoundingBox",
    "BinaryMask",
    "box_area",
    "box_iou",
    "box_iou_matrix",
    "box_iou_pairs",
    "mask_coverage",
    "coverage_matrix",
    "mask_downsample",
    "box_to_full_mask",
]


@dataclass(frozen=True)
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

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def box_area(box: BoundingBox) -> float:
    """Area in pixels squared."""
    return (box.x2 - box.x1) * (box.y2 - box.y1)


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


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of broadcast ``x1, y1, x2, y2`` rows: the operations of ``box_iou`` in
    its order, with 0.0 where the intersection is empty."""
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = iw * ih
    union = ((a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
             + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]) - inter)
    overlap = (iw > 0) & (ih > 0)
    return np.divide(inter, union, out=np.zeros_like(inter), where=overlap)


def _box_rows(boxes: np.ndarray) -> np.ndarray:
    return np.asarray(boxes, dtype=np.float64).reshape(-1, 4)


def box_iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise IoUs of (n, 4) and (m, 4) ``x1, y1, x2, y2`` rows:
    ``out[i, j] == box_iou(a[i], b[j])`` bit for bit."""
    return _iou(_box_rows(a)[:, None, :], _box_rows(b)[None, :, :])


def box_iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each row of an (n, 4) array with the same row of another:
    ``out[k] == box_iou(a[k], b[k])`` bit for bit."""
    a, b = _box_rows(a), _box_rows(b)
    if a.shape != b.shape:
        raise ValueError(f"need as many boxes on each side, got {len(a)} and {len(b)}")
    return _iou(a, b)


@dataclass(frozen=True)
class BinaryMask:
    """Binary raster stored as alternating run lengths, zeros first.

    ``runs`` walks the raster in row-major order; even positions count 0s,
    odd positions count 1s.  The first run may be 0 (mask starts with a 1).
    """

    width: int
    height: int
    runs: tuple[int, ...]

    def __post_init__(self) -> None:
        runs = tuple(self.runs)
        if not {int}.issuperset(map(type, runs)):  # a bool is no int here
            if not all(isinstance(r, (int, np.integer)) and type(r) is not bool for r in runs):
                raise DataFormatError("RLE run lengths must be integers")
            runs = tuple(map(int, runs))
        object.__setattr__(self, "runs", runs)
        if self.width < 1 or self.height < 1:
            raise DataFormatError(f"mask dims must be >= 1, got {self.width}x{self.height}")
        if min(runs, default=0) < 0:
            raise DataFormatError("negative run length in RLE")
        total = sum(runs)
        if total != self.width * self.height:
            raise DataFormatError(
                f"RLE runs sum to {total}, expected {self.width * self.height} "
                f"for a {self.width}x{self.height} mask"
            )

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BinaryMask":
        """Encode a 2D (height, width) array; any nonzero value counts as 1."""
        a = np.asarray(arr)
        if a.ndim != 2:
            raise ValueError(f"expected a 2D array, got shape {a.shape}")
        flat = (a != 0).ravel()
        n = flat.size
        changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
        bounds = np.concatenate(([0], changes, [n]))
        runs = np.diff(bounds).tolist()
        if flat[0]:
            runs = [0] + runs
        return cls(width=a.shape[1], height=a.shape[0], runs=tuple(runs))

    def to_array(self) -> np.ndarray:
        """Decode to a (height, width) bool array."""
        values = np.zeros(len(self.runs), dtype=bool)
        values[1::2] = True
        flat = np.repeat(values, np.asarray(self.runs, dtype=np.int64))
        return flat.reshape(self.height, self.width)

    @property
    def area(self) -> int:
        return sum(self.runs[1::2])


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


_PAIRS_PER_PASS = 2**14  # overlapping interval pairs summed per bincount: 128 KiB per array


def coverage_matrix(masks: Sequence[BinaryMask]) -> np.ndarray:
    """All pairwise coverages: ``out[i, j] == mask_coverage(masks[i], masks[j])``.

    Works on the run lengths and never decodes a raster.  Each mask's 1-runs
    become flat ``[start, end)`` intervals, touching ones merged, so two
    intervals of one mask never overlap.  Sorted by start, the intervals after
    interval i that overlap it are exactly those that start before it ends, so
    every overlapping pair (a, b) is met once, and it adds
    ``min(end[a], end[b]) - start[b]`` shared pixels to its two masks' entry.
    Every partial sum is an integer of at most W*H <= 2**53, hence exact in
    float64, and the final division is the same correctly rounded quotient of
    two integers that ``mask_coverage`` computes: the values agree bit for bit.

    Cost: O(R*log(R) + P + N**2) time and O(R + N**2 + _PAIRS_PER_PASS) memory
    for R intervals and P overlapping interval pairs, whatever the declared
    W*H.  Disjoint masks add no pair.

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
    pairs = np.array([(len(m.runs) + 1) // 2 for m in masks], dtype=np.int64)
    padded = itertools.chain.from_iterable(m.runs + (0,) * (len(m.runs) % 2) for m in masks)
    runs = np.fromiter(padded, dtype=np.int64, count=2 * int(pairs.sum()))
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
    # a zero-length 0-run between two 1-runs joins them into one interval
    apart = ~((row[1:] == row[:-1]) & (start[1:] == end[:-1]))
    first = np.concatenate(([True], apart))
    row, start, end = row[first], start[first], end[np.concatenate((apart, [True]))]

    order = np.argsort(start, kind="stable")
    row, start, end = row[order], start[order], end[order]
    # interval i overlaps the count[i] intervals after it; its pairs are numbered
    # offset[i] .. offset[i + 1] - 1
    count = np.searchsorted(start, end) - np.arange(1, start.size + 1)
    offset = np.concatenate(([0], np.cumsum(count)))
    inter = np.zeros(n * n)
    lo = 0
    while lo < start.size:
        # as many intervals as fit in one pass, and at least one
        hi = int(np.searchsorted(offset, offset[lo] + _PAIRS_PER_PASS, side="right")) - 1
        hi = max(hi, lo + 1)
        a = np.repeat(np.arange(lo, hi), count[lo:hi])
        b = np.arange(offset[lo], offset[hi]) - offset[a] + a + 1
        shared = np.minimum(end[a], end[b]) - start[b]
        inter += np.bincount(row[a] * n + row[b], weights=shared, minlength=n * n)
        lo = hi
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
        # each mask's runs padded to an even count, so its first run's index is even
        runs = itertools.chain.from_iterable(m.runs + (0,) * (len(m.runs) % 2) for m in chunk)
        ends = np.cumsum(np.fromiter(runs, dtype=np.int64))
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
        return BinaryMask(width, height, (total,)), False
    if w == width:
        w, rows = w * rows, 1
    start = cy1 * width + cx1
    end = start + (rows - 1) * width + w
    runs = (start, w) + (width - w, w) * (rows - 1) + ((total - end,) if end < total else ())
    return BinaryMask(width, height, runs), True
