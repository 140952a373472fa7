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
    "SoftMask",
    "box_area",
    "box_iou",
    "mask_area",
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
    union = box_area(a) + box_area(b) - inter
    return inter / union


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
        object.__setattr__(self, "runs", tuple(int(r) for r in self.runs))
        if self.width < 1 or self.height < 1:
            raise DataFormatError(f"mask dims must be >= 1, got {self.width}x{self.height}")
        if any(r < 0 for r in self.runs):
            raise DataFormatError("negative run length in RLE")
        total = sum(self.runs)
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
        return int(sum(self.runs[1::2]))


@dataclass(frozen=True, eq=False)
class SoftMask:
    """Fractional mask on a feature-map grid; weights lie in [0, 1]."""

    weights: np.ndarray  # (height, width) float64

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"soft mask weights must be 2D, got shape {w.shape}")
        if w.size == 0:
            raise ValueError("soft mask must be non-empty")
        if not np.all(np.isfinite(w)) or w.min() < 0.0 or w.max() > 1.0:
            raise ValueError("soft mask weights must be finite and within [0, 1]")
        object.__setattr__(self, "weights", w)

    @property
    def width(self) -> int:
        return self.weights.shape[1]

    @property
    def height(self) -> int:
        return self.weights.shape[0]


def mask_area(m: BinaryMask) -> int:
    """Count of 1-pixels."""
    return m.area


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


_SEGMENT_CHUNK = 4096  # segment columns per product block: O(N**2 + N * chunk) floats


def coverage_matrix(masks: Sequence[BinaryMask]) -> np.ndarray:
    """All pairwise coverages: ``out[i, j] == mask_coverage(masks[i], masks[j])``.

    Works on the run lengths and never decodes a raster.  Each mask's 1-runs
    become flat ``[start, end)`` intervals.  The starts and ends of all masks
    cut the raster into K segments, each lying wholly inside or wholly outside
    every mask, so a 0/1 (N, K) membership matrix weighted by segment length
    gives the intersection counts in one matrix product.  Every partial sum is
    an integer below 2**53, hence exact in float64, and the final division is
    the same correctly rounded quotient of two integers that ``mask_coverage``
    computes: the values agree bit for bit.

    Cost: O(runs + N*K + N**2*K) time with K <= min(2*runs, W*H); memory
    O(N*K + N**2) plus a W*H+1 byte array marking the cuts.

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

    lens = np.array([len(m.runs) for m in masks], dtype=np.int64)
    runs = np.fromiter(
        itertools.chain.from_iterable(m.runs for m in masks), dtype=np.int64, count=int(lens.sum())
    )
    row = np.repeat(np.arange(n), lens)
    # every mask's runs sum to W*H, so the running total minus row * W*H is a run's end
    end = np.cumsum(runs) - row * total
    local = np.arange(runs.size) - np.repeat(np.cumsum(lens) - lens, lens)
    ones = (local % 2 == 1) & (runs > 0)
    areas = np.bincount(row[ones], weights=runs[ones], minlength=n)
    if not areas.all():
        empty = int(np.argmin(areas))
        raise ValueError(f"coverage undefined for an empty source mask (index {empty})")
    row, end = row[ones], end[ones]
    start = end - runs[ones]
    # a zero-length 0-run between two 1-runs joins them into one interval
    apart = ~((row[1:] == row[:-1]) & (start[1:] == end[:-1]))
    first = np.concatenate(([True], apart))
    row, start, end = row[first], start[first], end[np.concatenate((apart, [True]))]

    cut = np.zeros(total + 1, dtype=bool)
    cut[start] = True
    cut[end] = True
    cuts = np.flatnonzero(cut)
    seg_of = np.cumsum(cut, dtype=np.int64) - 1  # seg_of[cuts[k]] == k
    k = cuts.size - 1
    delta = np.zeros((n, k + 1), dtype=np.int8)
    delta[row, seg_of[start]] = 1  # a row's intervals are disjoint and apart: no index repeats
    delta[row, seg_of[end]] = -1
    member = np.cumsum(delta, axis=1, dtype=np.int8)[:, :k]
    seglen = np.diff(cuts).astype(np.float64)

    inter = np.zeros((n, n))
    for lo in range(0, k, _SEGMENT_CHUNK):
        block = member[:, lo:lo + _SEGMENT_CHUNK].astype(np.float64)
        inter += (block * seglen[lo:lo + _SEGMENT_CHUNK]) @ block.T
    return inter / areas[:, None]


def mask_downsample(m: BinaryMask, target_w: int, target_h: int) -> SoftMask:
    """Bilinear resample of the binary raster to (target_h, target_w).

    Pixel centers align (source coordinate of target cell i is
    (i + 0.5) * scale - 0.5), samples beyond the border clamp to the edge
    pixel, and fractional values are kept.  A constant mask stays constant.
    """
    if target_w < 1 or target_h < 1:
        raise ValueError(f"target dims must be >= 1, got {target_w}x{target_h}")
    src = m.to_array().astype(np.float64)

    sx = (np.arange(target_w) + 0.5) * (m.width / target_w) - 0.5
    sy = (np.arange(target_h) + 0.5) * (m.height / target_h) - 0.5
    sx = np.clip(sx, 0.0, m.width - 1.0)
    sy = np.clip(sy, 0.0, m.height - 1.0)

    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    x1 = np.minimum(x0 + 1, m.width - 1)
    y1 = np.minimum(y0 + 1, m.height - 1)
    fx = sx - x0
    fy = sy - y0

    top = src[y0][:, x0] * (1.0 - fx) + src[y0][:, x1] * fx
    bot = src[y1][:, x0] * (1.0 - fx) + src[y1][:, x1] * fx
    out = top * (1.0 - fy[:, None]) + bot * fy[:, None]
    return SoftMask(weights=np.clip(out, 0.0, 1.0))


def box_to_full_mask(box: BoundingBox, width: int, height: int) -> tuple[BinaryMask, bool]:
    """Rasterize a box: 1s exactly on pixels whose centers fall inside it.

    The box is clamped to the image first.  Returns (mask, ok); ok is False
    when the clamped box covers no pixel center and the mask is empty.
    """
    x1 = max(box.x1, 0.0)
    y1 = max(box.y1, 0.0)
    x2 = min(box.x2, float(width))
    y2 = min(box.y2, float(height))
    arr = np.zeros((height, width), dtype=bool)
    if x2 > x1 and y2 > y1:
        # pixel i has center i + 0.5; included iff x1 <= i + 0.5 < x2
        cx1 = max(math.ceil(x1 - 0.5), 0)
        cx2 = min(math.ceil(x2 - 0.5), width)
        cy1 = max(math.ceil(y1 - 0.5), 0)
        cy2 = min(math.ceil(y2 - 0.5), height)
        arr[cy1:cy2, cx1:cx2] = True
    mask = BinaryMask.from_array(arr)
    return mask, mask.area > 0
