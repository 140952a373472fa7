"""A seeded generator of synthetic corpora in the interchange format.

The generator plants unit class prototypes, places whole objects (one
clean proposal each) plus deliberately fragmented sub-proposals whose scores
sit strictly below the whole-object range, and background distractors with
features orthogonal to every prototype.  Output is byte-deterministic for a
fixed config: every image draws from its own PCG64 stream seeded with
``(seed, stream_index)``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import GenerationError
from .evaluation import GroundTruthBox
from .features import FeatureMap, SupportAnnotation, l2_normalize
from .geometry import BinaryMask, BoundingBox, mask_downsample
from .interchange import SCORE_FLOOR, Dataset, ImageInfo, ProposalRecord, write_dataset

__all__ = ["GeneratorConfig", "planted_prototypes", "generate_dataset"]


@dataclass(frozen=True)
class GeneratorConfig:
    """Synthetic corpus knobs.  All count ranges are inclusive."""

    seed: int = 0
    images: int = 20
    classes: int = 3
    shots: int = 1
    objects_per_image: tuple[int, int] = (2, 4)
    fragments_per_object: tuple[int, int] = (3, 6)
    distractors_per_image: tuple[int, int] = (1, 3)
    feature_dim: int = 64
    feature_noise: float = 0.15
    fragment_score_range: tuple[float, float] = (0.05, 0.45)
    whole_score_range: tuple[float, float] = (0.55, 0.95)
    image_size: int = 96
    grid_size: int = 12
    allow_score_overlap: bool = False
    query_feature_maps: bool = False

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.images < 0 or self.classes < 1 or self.shots < 1:
            raise ValueError("images must be >= 0, classes and shots >= 1")
        for name in ("objects_per_image", "fragments_per_object", "distractors_per_image"):
            lo, hi = getattr(self, name)
            if not (0 <= lo <= hi):
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi, got ({lo}, {hi})")
        lo, hi = self.objects_per_image
        if lo < 1:
            raise ValueError("objects_per_image must start at >= 1")
        if self.feature_dim < 2:
            raise ValueError("feature_dim must be >= 2")
        if not 0.0 <= self.feature_noise < 1.0:
            raise ValueError("feature_noise must be in [0, 1)")
        for name in ("fragment_score_range", "whole_score_range"):
            lo, hi = getattr(self, name)
            if not (SCORE_FLOOR <= lo <= hi <= 1.0):
                raise ValueError(f"{name} must be a sub-range of [{SCORE_FLOOR}, 1], got ({lo}, {hi})")
        if not self.allow_score_overlap and self.whole_score_range[0] <= self.fragment_score_range[1]:
            raise ValueError(
                "whole_score_range must sit strictly above fragment_score_range "
                "(pass allow_score_overlap to stress score ties)"
            )
        if self.image_size < 16 or self.grid_size < 2:
            raise ValueError("image_size must be >= 16 and grid_size >= 2")


def _stream(cfg: GeneratorConfig, index: int) -> np.random.Generator:
    # stream 0: prototypes, 1: supports, 2 + i: query image i
    return np.random.default_rng([cfg.seed, index])


def planted_prototypes(cfg: GeneratorConfig) -> np.ndarray:
    """The (classes, feature_dim) unit vectors the generator builds features from."""
    rng = _stream(cfg, 0)
    protos = rng.standard_normal((cfg.classes, cfg.feature_dim))
    return protos / np.linalg.norm(protos, axis=1, keepdims=True)


def _mix_feature(rng: np.random.Generator, base: np.ndarray, eps: float) -> np.ndarray:
    noise = l2_normalize(rng.standard_normal(base.shape[0]))
    return l2_normalize((1.0 - eps) * base + eps * noise)


def _background_direction(rng: np.random.Generator, protos: np.ndarray) -> np.ndarray:
    # orthogonal to every planted prototype, so matching similarity is ~0
    for _ in range(16):
        v = rng.standard_normal(protos.shape[1])
        v = v - protos.T @ (protos @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            return v / norm
    raise GenerationError("could not draw a direction orthogonal to the prototypes")


def _disjoint(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    return a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1]


def _place_box(
    rng: np.random.Generator,
    image_size: int,
    w: int,
    h: int,
    taken: list[tuple[int, int, int, int]],
    what: str,
    retries: int = 100,
) -> tuple[int, int, int, int]:
    for _ in range(retries):
        x1 = int(rng.integers(0, image_size - w + 1))
        y1 = int(rng.integers(0, image_size - h + 1))
        box = (x1, y1, x1 + w, y1 + h)
        if all(_disjoint(box, t) for t in taken):
            taken.append(box)
            return box
    raise GenerationError(f"no room left to place a {w}x{h} {what} after {retries} tries")


def _object_array(
    image_size: int, box: tuple[int, int, int, int], elliptical: bool
) -> np.ndarray:
    x1, y1, x2, y2 = box
    arr = np.zeros((image_size, image_size), dtype=bool)
    if not elliptical:
        arr[y1:y2, x1:x2] = True
        return arr
    cx = (x1 + x2) / 2.0
    cy = (y1 + y2) / 2.0
    rx = (x2 - x1) / 2.0
    ry = (y2 - y1) / 2.0
    ys, xs = np.mgrid[0:image_size, 0:image_size]
    arr[((xs + 0.5 - cx) / rx) ** 2 + ((ys + 0.5 - cy) / ry) ** 2 <= 1.0] = True
    return arr


def _fragment_array(
    rng: np.random.Generator, obj_arr: np.ndarray, box: tuple[int, int, int, int]
) -> np.ndarray:
    """A random sub-rectangle of the object that contains its center pixel."""
    x1, y1, x2, y2 = box
    cx = (x1 + x2 - 1) // 2
    cy = (y1 + y2 - 1) // 2
    for _ in range(10):
        xl = int(rng.integers(x1, cx + 1))
        xr = int(rng.integers(cx, x2))
        yt = int(rng.integers(y1, cy + 1))
        yb = int(rng.integers(cy, y2))
        if not (xl == x1 and yt == y1 and xr == x2 - 1 and yb == y2 - 1):
            break
    else:  # degenerate full-box draw ten times in a row: trim one column
        xl, yt, yb = x1, y1, y2 - 1
        xr = max(cx, x2 - 2)
    frag = np.zeros_like(obj_arr)
    frag[yt : yb + 1, xl : xr + 1] = True
    return frag & obj_arr


def _tight_box(arr: np.ndarray) -> BoundingBox:
    rows = np.flatnonzero(arr.any(axis=1))
    cols = np.flatnonzero(arr.any(axis=0))
    return BoundingBox(float(cols[0]), float(rows[0]), float(cols[-1] + 1), float(rows[-1] + 1))


def _planted_feature_map(
    rng: np.random.Generator,
    cfg: GeneratorConfig,
    planted: Sequence[tuple[BinaryMask, np.ndarray]],
) -> FeatureMap:
    """Background noise, with the grid cells under each mask set to its
    direction plus small per-cell noise; a later mask overwrites shared cells."""
    g = cfg.grid_size
    data = rng.standard_normal((cfg.feature_dim, g, g)) * 0.1
    for mask, direction in planted:
        inside = mask_downsample([mask], g, g)[0] > 0.0
        noise = rng.standard_normal((g, g, cfg.feature_dim)) * 0.02
        data[:, inside] = (direction[None, :] + noise[inside]).T
    return FeatureMap(data)


def generate_dataset(cfg: GeneratorConfig, out_dir: Path | str) -> Path:
    """Write a complete synthetic corpus; returns the manifest path.

    Identical config (seed included) yields byte-identical files.
    """
    protos = planted_prototypes(cfg)
    size = cfg.image_size
    ds = Dataset(num_classes=cfg.classes, shots=cfg.shots, images=[], supports=[], proposals={},
                 ground_truth=[], feature_maps={})

    # supports: one dedicated image per (class, shot) with a dense feature map
    rng_s = _stream(cfg, 1)
    for class_id in range(cfg.classes):
        for shot in range(cfg.shots):
            image_id = f"support_c{class_id}_s{shot}"
            w = int(rng_s.integers(size // 4, size // 2 + 1))
            h = int(rng_s.integers(size // 4, size // 2 + 1))
            box = _place_box(rng_s, size, w, h, [], "support object")
            arr = _object_array(size, box, elliptical=bool(rng_s.integers(2)))
            mask = BinaryMask.from_array(arr)
            ds.images.append(ImageInfo(image_id, size, size))
            ds.feature_maps[image_id] = _planted_feature_map(rng_s, cfg, [(mask, protos[class_id])])
            ds.supports.append(SupportAnnotation(image_id, _tight_box(arr), class_id, mask))

    f_lo, f_hi = cfg.fragment_score_range
    w_lo, w_hi = cfg.whole_score_range

    for i in range(cfg.images):
        image_id = f"img_{i:04d}"
        rng = _stream(cfg, 2 + i)
        ds.images.append(ImageInfo(image_id, size, size))
        taken: list[tuple[int, int, int, int]] = []
        image_props = ds.proposals[image_id] = []
        planted: list[tuple[BinaryMask, np.ndarray]] = []  # objects and distractors, in order

        def propose(box: BoundingBox, score: float, mask: BinaryMask, direction: np.ndarray):
            feature = None
            if not cfg.query_feature_maps:
                feature = _mix_feature(rng, direction, cfg.feature_noise)
            image_props.append(ProposalRecord(box, mask, float(score), feature))

        n_objects = int(rng.integers(cfg.objects_per_image[0], cfg.objects_per_image[1] + 1))
        for _ in range(n_objects):
            class_id = int(rng.integers(cfg.classes))
            w = int(rng.integers(size // 6, size // 3 + 1))
            h = int(rng.integers(size // 6, size // 3 + 1))
            box = _place_box(rng, size, w, h, taken, "object")
            arr = _object_array(size, box, elliptical=bool(rng.integers(2)))
            obj_mask = BinaryMask.from_array(arr)
            gt_box = BoundingBox(*(float(v) for v in box))
            ds.ground_truth.append(GroundTruthBox(image_id, gt_box, class_id))
            propose(gt_box, rng.uniform(w_lo, w_hi), obj_mask, protos[class_id])
            planted.append((obj_mask, protos[class_id]))

            n_frags = int(
                rng.integers(cfg.fragments_per_object[0], cfg.fragments_per_object[1] + 1)
            )
            for _ in range(n_frags):
                frag_arr = _fragment_array(rng, arr, box)
                frag_mask = BinaryMask.from_array(frag_arr)
                rel_area = frag_mask.area / obj_mask.area
                score = f_lo + (f_hi - f_lo) * rel_area * float(rng.uniform(0.5, 1.0))
                propose(_tight_box(frag_arr), score, frag_mask, protos[class_id])

        n_distract = int(
            rng.integers(cfg.distractors_per_image[0], cfg.distractors_per_image[1] + 1)
        )
        for _ in range(n_distract):
            w = int(rng.integers(size // 8, size // 5 + 1))
            h = int(rng.integers(size // 8, size // 5 + 1))
            box = _place_box(rng, size, w, h, taken, "distractor")
            d_mask = BinaryMask.from_array(_object_array(size, box, elliptical=False))
            direction = _background_direction(rng, protos)
            propose(BoundingBox(*(float(v) for v in box)), rng.uniform(f_lo, f_hi), d_mask,
                    direction)
            planted.append((d_mask, direction))

        if cfg.query_feature_maps:
            ds.feature_maps[image_id] = _planted_feature_map(rng, cfg, planted)

    manifest_path = write_dataset(ds, out_dir)
    (Path(out_dir) / "generator_config.json").write_text(
        json.dumps(asdict(cfg), indent=2) + "\n", encoding="utf-8"
    )
    return manifest_path
