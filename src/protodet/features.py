"""Dense feature maps, mask-weighted RoI pooling, prototypes, cosine matching."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import BinaryMask, BoundingBox

__all__ = [
    "FeatureMap",
    "ClassPrototype",
    "SupportAnnotation",
    "map_box_to_grid",
    "masked_roi_pool",
    "l2_normalize",
    "build_prototypes",
    "match_proposal",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Per-image dense features of shape (channels, grid_h, grid_w), one grid over
    the whole image; pooling takes the image's pixel size from its caller."""

    data: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.data, dtype=np.float64)
        if d.flags.writeable and np.may_share_memory(d, self.data):
            d = d.copy()  # so that setflags below leaves the caller's array writable
        if d.ndim != 3 or min(d.shape) < 1:
            raise ValueError(f"feature map must be (C, h, w) with all dims >= 1, got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("feature map contains non-finite values")
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def grid_h(self) -> int:
        return self.data.shape[1]

    @property
    def grid_w(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class SupportAnnotation:
    """One labeled exemplar: an image id, a box, its class, and its mask."""

    image_id: str
    box: BoundingBox
    class_id: int
    mask: BinaryMask

    def __post_init__(self) -> None:
        if self.class_id < 0:
            raise ValueError(f"class_id must be >= 0, got {self.class_id}")


@dataclass(frozen=True, eq=False)
class ClassPrototype:
    """Unit-norm class representative built from pooled support features."""

    class_id: int
    vector: np.ndarray
    support_count: int


def map_box_to_grid(boxes: Sequence[BoundingBox], fm: FeatureMap, width: int,
                    height: int) -> np.ndarray:
    """Map pixel boxes of a ``width`` x ``height`` image to inclusive grid-cell
    ranges, one (gx1, gy1, gx2, gy2) row of the (len(boxes), 4) int64 result
    per box.

    Coordinates scale by grid/image; the min corner floors and the max corner
    ceils minus one, so every cell the box touches is kept.  The range is
    clamped to the grid and never empty.
    """
    if width < 1 or height < 1:
        raise ValueError(f"image dims must be >= 1, got {width}x{height}")
    size = np.array([width, height] * 2, dtype=np.float64)
    b = np.minimum(np.maximum(np.array([x.as_tuple() for x in boxes]).reshape(-1, 4), 0.0), size)
    g = b * ([fm.grid_w / width, fm.grid_h / height] * 2)
    last = [fm.grid_w - 1, fm.grid_h - 1]
    lo = np.minimum(np.maximum(np.floor(g[:, :2]).astype(np.int64), 0), last)
    hi = np.minimum(np.maximum(np.ceil(g[:, 2:]).astype(np.int64) - 1, lo), last)
    return np.concatenate((lo, hi), axis=1)


def masked_roi_pool(
    fm: FeatureMap, boxes: Sequence[BoundingBox], weights: np.ndarray, width: int, height: int,
    names: Sequence[str] | None = None,
) -> np.ndarray:
    """Weighted mean of feature columns over each box's grid range: row i of
    the (len(boxes), channels) result pools box i under ``weights[i]``.

    The boxes, and the masks behind ``weights``, are in the pixel frame of one
    ``width`` x ``height`` image.  ``weights`` is the (len(boxes), grid_h,
    grid_w) array of cell weights in [0, 1] that ``mask_downsample`` returns,
    and the sums run only over the mapped cell range, so the result describes
    the object region rather than the whole rectangle.  If a mask contributes
    zero weight there, pooling falls back to a plain mean over the range, with
    a warning that names the box by ``names[i]`` (default ``box i``).
    """
    if weights.shape != (len(boxes), fm.grid_h, fm.grid_w):
        raise ValueError(
            f"weights of shape {weights.shape} do not match {len(boxes)} boxes "
            f"on feature grid {fm.grid_w}x{fm.grid_h}"
        )
    out = np.empty((len(boxes), fm.channels))
    for i, (gx1, gy1, gx2, gy2) in enumerate(map_box_to_grid(boxes, fm, width, height).tolist()):
        w = weights[i, gy1 : gy2 + 1, gx1 : gx2 + 1]
        total = float(w.sum())
        if total == 0.0:
            log.warning(
                "%s: mask contributes zero weight inside grid box (%d,%d)-(%d,%d); "
                "falling back to unweighted mean",
                f"box {i}" if names is None else names[i], gx1, gy1, gx2, gy2,
            )
            w = np.ones_like(w)
            total = float(w.sum())
        block = fm.data[:, gy1 : gy2 + 1, gx1 : gx2 + 1]
        out[i] = (block * w).sum(axis=(1, 2)) / total
    return out


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale to unit Euclidean length; rejects the zero vector."""
    arr = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return arr / norm


def build_prototypes(features_by_class: Iterable[tuple[int, np.ndarray]]) -> list[ClassPrototype]:
    """Mean each class's support features, then normalize to unit length.

    Input is (class_id, feature) pairs; output is ordered by class_id.
    """
    groups: dict[int, list[np.ndarray]] = {}
    for class_id, feat in features_by_class:
        groups.setdefault(int(class_id), []).append(np.asarray(feat, dtype=np.float64))
    protos = []
    for class_id in sorted(groups):
        feats = groups[class_id]
        mean = np.mean(np.stack(feats, axis=0), axis=0)
        protos.append(
            ClassPrototype(class_id=class_id, vector=l2_normalize(mean), support_count=len(feats))
        )
    return protos


def match_proposal(
    features: Iterable[np.ndarray], prototypes: Sequence[ClassPrototype]
) -> list[tuple[int, float]]:
    """Each feature's best (class_id, cosine similarity); ties break toward the
    lowest class_id.  Each similarity is the pair's dot product over the
    product of the two norms, each norm ``sqrt(v . v)`` taken once; one
    ``np.vecdot`` gives all of them, and its float64 loop calls the same dot
    per pair that ``np.dot`` and ``np.linalg.norm`` call on one vector."""
    if not prototypes:
        raise ValueError("cannot match against an empty prototype list")
    feats = np.array([np.asarray(f, dtype=np.float64) for f in features])
    if len(feats) == 0:
        return []
    protos = sorted(prototypes, key=lambda p: p.class_id)
    vectors = np.array([np.asarray(p.vector, dtype=np.float64) for p in protos])
    feat_norms = np.sqrt(np.vecdot(feats, feats))
    proto_norms = np.sqrt(np.vecdot(vectors, vectors))
    if not (feat_norms.all() and proto_norms.all()):
        raise ValueError("cosine undefined for a zero vector")
    sims = np.vecdot(feats[:, None], vectors[None]) / (feat_norms[:, None] * proto_norms)
    best = sims.argmax(axis=1)  # the first maximum, in class_id order
    return [(protos[k].class_id, sim) for k, sim in zip(best.tolist(), sims.max(axis=1).tolist())]
