"""Interchange formats for precomputed pipeline inputs, and a seeded generator.

Files (see docs/FORMATS.md for byte-level examples):

* ``manifest.json``      -- format_version, class/shot counts, image table,
                            record-file paths, feature-map path table.
* ``*.jsonl`` records    -- one JSON object per line for supports, query
                            proposals, and ground truth.
* ``*.fmap`` blobs       -- 16-byte header (magic ``FMAP``, version, C, h, w)
                            followed by little-endian float32 data in channel-
                            major, row-major order.
* ``detections.tsv``     -- exported detections, one row per box.

The generator plants unit class prototypes, places whole objects (one
clean proposal each) plus deliberately fragmented sub-proposals whose scores
sit strictly below the whole-object range, and background distractors with
features orthogonal to every prototype.  Output is byte-deterministic for a
fixed config: every image draws from its own PCG64 stream seeded with
``(seed, stream_index)``, so parallel generation cannot reorder draws.
"""

from __future__ import annotations

import contextlib
import json
import logging
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DataFormatError, GenerationError
from .evaluation import EvalReport, GroundTruthBox
from .features import ClassPrototype, FeatureMap, SupportAnnotation, l2_normalize
from .geometry import BinaryMask, BoundingBox, box_to_full_mask, mask_downsample
from .postproc import ScoredDetection

__all__ = [
    "FORMAT_VERSION",
    "SCORE_FLOOR",
    "MAX_PROPOSALS_PER_IMAGE",
    "ImageInfo",
    "ProposalRecord",
    "Dataset",
    "GeneratorConfig",
    "planted_prototypes",
    "generate_dataset",
    "load_dataset",
    "write_feature_map",
    "read_feature_map",
    "save_prototypes",
    "load_prototypes",
    "export_run",
    "load_detections",
]

log = logging.getLogger(__name__)

FORMAT_VERSION = 1
FMAP_MAGIC = b"FMAP"
_FMAP_HEADER = struct.Struct("<4sIIHH")  # magic, version, channels, grid_h, grid_w
PROTO_MAGIC = b"PRTO"
_PROTO_HEADER = struct.Struct("<4sIIHH")  # magic, version, count, dim, reserved
_PROTO_RECORD = struct.Struct("<II")  # class_id, support_count

SCORE_FLOOR = 0.01
MAX_PROPOSALS_PER_IMAGE = 500


@dataclass(frozen=True)
class ImageInfo:
    image_id: str
    width: int
    height: int


@dataclass(frozen=True, eq=False)
class ProposalRecord:
    image_id: str
    box: BoundingBox
    mask: BinaryMask
    upn_score: float
    feature: np.ndarray | None


@dataclass(eq=False)
class Dataset:
    """Validated in-memory dataset: supports, query proposals, GT, feature maps."""

    num_classes: int
    shots: int
    images: list[ImageInfo]
    supports: list[SupportAnnotation]
    proposals: dict[str, list[ProposalRecord]]
    ground_truth: list[GroundTruthBox]
    feature_maps: dict[str, FeatureMap]

    def query_image_ids(self) -> list[str]:
        return [im.image_id for im in self.images if im.image_id in self.proposals]


# --------------------------------------------------------------------------
# feature-map blobs
# --------------------------------------------------------------------------

def write_feature_map(path: Path | str, fm: FeatureMap) -> None:
    data = np.ascontiguousarray(fm.data, dtype="<f4")
    header = _FMAP_HEADER.pack(FMAP_MAGIC, FORMAT_VERSION, fm.channels, fm.grid_h, fm.grid_w)
    Path(path).write_bytes(header + data.tobytes())


def read_feature_map(path: Path | str, image_w: int, image_h: int) -> FeatureMap:
    raw = Path(path).read_bytes()
    if len(raw) < _FMAP_HEADER.size:
        raise DataFormatError(f"{path}: truncated feature-map header")
    magic, version, channels, grid_h, grid_w = _FMAP_HEADER.unpack_from(raw)
    if magic != FMAP_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported feature-map version {version}")
    expected = _FMAP_HEADER.size + 4 * channels * grid_h * grid_w
    if len(raw) != expected:
        raise DataFormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    data = np.frombuffer(raw, dtype="<f4", offset=_FMAP_HEADER.size)
    data = data.reshape(channels, grid_h, grid_w).astype(np.float64)
    return FeatureMap(data=data, image_w=image_w, image_h=image_h)


def save_prototypes(path: Path | str, prototypes: Sequence[ClassPrototype]) -> None:
    """Serialize class prototypes; vectors are stored as little-endian float32."""
    protos = sorted(prototypes, key=lambda p: p.class_id)
    dim = protos[0].vector.size if protos else 0
    parts = [_PROTO_HEADER.pack(PROTO_MAGIC, FORMAT_VERSION, len(protos), dim, 0)]
    for p in protos:
        if p.vector.size != dim:
            raise ValueError("all prototype vectors must share one dimensionality")
        parts.append(_PROTO_RECORD.pack(p.class_id, p.support_count))
        parts.append(np.ascontiguousarray(p.vector, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_prototypes(path: Path | str) -> list[ClassPrototype]:
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"prototype file not found: {path}")
    raw = path.read_bytes()
    if len(raw) < _PROTO_HEADER.size:
        raise DataFormatError(f"{path}: truncated prototype header")
    magic, version, count, dim, _ = _PROTO_HEADER.unpack_from(raw)
    if magic != PROTO_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported prototype version {version}")
    record = _PROTO_RECORD.size + 4 * dim
    if len(raw) != _PROTO_HEADER.size + count * record:
        raise DataFormatError(f"{path}: expected {count} records of {record} bytes")
    protos: list[ClassPrototype] = []
    seen: set[int] = set()
    offset = _PROTO_HEADER.size
    for _ in range(count):
        class_id, support_count = _PROTO_RECORD.unpack_from(raw, offset)
        if class_id in seen:
            raise DataFormatError(f"{path}: duplicate prototype for class {class_id}")
        seen.add(class_id)
        vec = np.frombuffer(raw, dtype="<f4", count=dim, offset=offset + _PROTO_RECORD.size)
        protos.append(
            ClassPrototype(
                class_id=class_id,
                vector=vec.astype(np.float64),
                support_count=support_count,
            )
        )
        offset += record
    return protos


# --------------------------------------------------------------------------
# JSON helpers
# --------------------------------------------------------------------------

def _mask_to_json(mask: BinaryMask) -> dict:
    return {"w": mask.width, "h": mask.height, "counts": list(mask.runs)}


def _mask_from_json(doc: dict) -> BinaryMask:
    return BinaryMask(width=int(doc["w"]), height=int(doc["h"]), runs=tuple(doc["counts"]))


def _box_to_json(box: BoundingBox) -> list[float]:
    return [box.x1, box.y1, box.x2, box.y2]


def _box_from_json(vals: Sequence[float]) -> BoundingBox:
    x1, y1, x2, y2 = (float(v) for v in vals)
    return BoundingBox(x1, y1, x2, y2)


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _iter_jsonl(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from exc


# --------------------------------------------------------------------------
# generator
# --------------------------------------------------------------------------

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


def _unit(v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=np.float64) / np.linalg.norm(v)


def _mix_feature(rng: np.random.Generator, base: np.ndarray, eps: float) -> np.ndarray:
    noise = _unit(rng.standard_normal(base.shape[0]))
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


def _support_feature_map(
    rng: np.random.Generator, cfg: GeneratorConfig, proto: np.ndarray, mask: BinaryMask
) -> FeatureMap:
    g = cfg.grid_size
    soft = mask_downsample(mask, g, g)
    background = rng.standard_normal((cfg.feature_dim, g, g)) * 0.1
    cell_noise = rng.standard_normal((g, g, cfg.feature_dim)) * 0.02
    inside = soft.weights > 0.0
    data = background.copy()
    data[:, inside] = (proto[None, :] + cell_noise[inside]).T
    return FeatureMap(data=data, image_w=cfg.image_size, image_h=cfg.image_size)


def generate_dataset(cfg: GeneratorConfig, out_dir: Path | str) -> Path:
    """Write a complete synthetic corpus; returns the manifest path.

    Identical config (seed included) yields byte-identical files.
    """
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    protos = planted_prototypes(cfg)
    size = cfg.image_size
    fscale = float(size)

    images: list[dict] = []
    fmap_paths: dict[str, str] = {}
    support_records: list[dict] = []
    proposal_records: list[dict] = []
    gt_records: list[dict] = []

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
            fm = _support_feature_map(rng_s, cfg, protos[class_id], mask)
            rel = f"features/{image_id}.fmap"
            write_feature_map(out / rel, fm)
            images.append({"id": image_id, "width": size, "height": size})
            fmap_paths[image_id] = rel
            support_records.append(
                {
                    "image_id": image_id,
                    "class_id": class_id,
                    "box": _box_to_json(_tight_box(arr)),
                    "mask": _mask_to_json(mask),
                }
            )

    f_lo, f_hi = cfg.fragment_score_range
    w_lo, w_hi = cfg.whole_score_range

    for i in range(cfg.images):
        image_id = f"img_{i:04d}"
        rng = _stream(cfg, 2 + i)
        images.append({"id": image_id, "width": size, "height": size})
        taken: list[tuple[int, int, int, int]] = []
        image_props: list[dict] = []
        query_cells: list[tuple[np.ndarray, np.ndarray]] = []  # (grid mask, direction)

        n_objects = int(rng.integers(cfg.objects_per_image[0], cfg.objects_per_image[1] + 1))
        for _ in range(n_objects):
            class_id = int(rng.integers(cfg.classes))
            w = int(rng.integers(size // 6, size // 3 + 1))
            h = int(rng.integers(size // 6, size // 3 + 1))
            box = _place_box(rng, size, w, h, taken, "object")
            arr = _object_array(size, box, elliptical=bool(rng.integers(2)))
            obj_mask = BinaryMask.from_array(arr)
            gt_box = BoundingBox(float(box[0]), float(box[1]), float(box[2]), float(box[3]))
            gt_records.append(
                {"image_id": image_id, "class_id": class_id, "box": _box_to_json(gt_box)}
            )
            whole = {
                "image_id": image_id,
                "box": _box_to_json(gt_box),
                "score": float(rng.uniform(w_lo, w_hi)),
                "mask": _mask_to_json(obj_mask),
            }
            if not cfg.query_feature_maps:
                whole["feature"] = _mix_feature(rng, protos[class_id], cfg.feature_noise).tolist()
            image_props.append(whole)

            n_frags = int(
                rng.integers(cfg.fragments_per_object[0], cfg.fragments_per_object[1] + 1)
            )
            for _ in range(n_frags):
                frag_arr = _fragment_array(rng, arr, box)
                frag_mask = BinaryMask.from_array(frag_arr)
                rel_area = frag_mask.area / obj_mask.area
                score = f_lo + (f_hi - f_lo) * rel_area * float(rng.uniform(0.5, 1.0))
                frag = {
                    "image_id": image_id,
                    "box": _box_to_json(_tight_box(frag_arr)),
                    "score": float(score),
                    "mask": _mask_to_json(frag_mask),
                }
                if not cfg.query_feature_maps:
                    frag["feature"] = _mix_feature(
                        rng, protos[class_id], cfg.feature_noise
                    ).tolist()
                image_props.append(frag)
            if cfg.query_feature_maps:
                soft = mask_downsample(obj_mask, cfg.grid_size, cfg.grid_size)
                query_cells.append((soft.weights > 0.0, protos[class_id]))

        n_distract = int(
            rng.integers(cfg.distractors_per_image[0], cfg.distractors_per_image[1] + 1)
        )
        for _ in range(n_distract):
            w = int(rng.integers(size // 8, size // 5 + 1))
            h = int(rng.integers(size // 8, size // 5 + 1))
            box = _place_box(rng, size, w, h, taken, "distractor")
            arr = _object_array(size, box, elliptical=False)
            d_mask = BinaryMask.from_array(arr)
            direction = _background_direction(rng, protos)
            distractor = {
                "image_id": image_id,
                "box": _box_to_json(
                    BoundingBox(float(box[0]), float(box[1]), float(box[2]), float(box[3]))
                ),
                "score": float(rng.uniform(f_lo, f_hi)),
                "mask": _mask_to_json(d_mask),
            }
            if not cfg.query_feature_maps:
                distractor["feature"] = _mix_feature(rng, direction, cfg.feature_noise).tolist()
            image_props.append(distractor)
            if cfg.query_feature_maps:
                soft = mask_downsample(d_mask, cfg.grid_size, cfg.grid_size)
                query_cells.append((soft.weights > 0.0, direction))

        if cfg.query_feature_maps:
            g = cfg.grid_size
            data = rng.standard_normal((cfg.feature_dim, g, g)) * 0.1
            for inside, direction in query_cells:
                noise = rng.standard_normal((g, g, cfg.feature_dim)) * 0.02
                data[:, inside] = (direction[None, :] + noise[inside]).T
            rel = f"features/{image_id}.fmap"
            write_feature_map(out / rel, FeatureMap(data=data, image_w=size, image_h=size))
            fmap_paths[image_id] = rel

        proposal_records.extend(image_props)

    _write_jsonl(out / "supports.jsonl", support_records)
    _write_jsonl(out / "proposals.jsonl", proposal_records)
    _write_jsonl(out / "ground_truth.jsonl", gt_records)

    manifest = {
        "format_version": FORMAT_VERSION,
        "num_classes": cfg.classes,
        "shots": cfg.shots,
        "images": images,
        "supports": "supports.jsonl",
        "proposals": "proposals.jsonl",
        "ground_truth": "ground_truth.jsonl",
        "feature_maps": fmap_paths,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    (out / "generator_config.json").write_text(
        json.dumps(asdict(cfg), indent=2) + "\n", encoding="utf-8"
    )
    return manifest_path


# --------------------------------------------------------------------------
# loading
# --------------------------------------------------------------------------

def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise DataFormatError(f"{where}: missing required key {key!r}")
    return doc[key]


@contextlib.contextmanager
def _invalid_as_format_error(where: str, what: str):
    """Turn any error raised while parsing ``what`` into a DataFormatError that
    starts with ``where``."""
    try:
        yield
    except DataFormatError as exc:
        if str(exc).startswith(where):
            raise
        raise DataFormatError(f"{where}: {exc}") from exc
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataFormatError(f"{where}: invalid {what} ({exc})") from exc


def _load_records(manifest: Path, file: Path, kind: str, parse: Callable) -> list:
    """Run ``parse(rec, where)`` on every record of the manifest's ``kind`` file
    ("supports"; one record is a "support record") and keep each non-None result."""
    if not file.is_file():
        raise DataFormatError(f"{manifest}: missing {kind} file {file}")
    out = []
    # the outer guard reports bytes that are not UTF-8; a record's error passes
    # it unchanged, since it starts with the file name
    with _invalid_as_format_error(str(file), f"{kind} file"):
        for lineno, rec in _iter_jsonl(file):
            where = f"{file}:{lineno}"
            with _invalid_as_format_error(where, f"{kind.removesuffix('s')} record"):
                item = parse(rec, where)
            if item is not None:
                out.append(item)
    return out


def load_dataset(manifest_path: Path | str) -> Dataset:
    """Parse and validate a dataset; proposals below the score floor are
    dropped and each image keeps at most the 500 best-scored proposals."""
    path = Path(manifest_path)
    if not path.is_file():
        raise DataFormatError(f"manifest not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise DataFormatError(f"{path}: cannot parse manifest ({exc})") from exc

    with _invalid_as_format_error(str(path), "manifest"):
        version = _require(doc, "format_version", str(path))
        if version != FORMAT_VERSION:
            raise DataFormatError(f"{path}: unsupported format_version {version}")
        num_classes = int(_require(doc, "num_classes", str(path)))
        shots = int(_require(doc, "shots", str(path)))
        if num_classes < 1 or shots < 1:
            raise DataFormatError(f"{path}: num_classes and shots must be >= 1")

        base = path.parent
        images: list[ImageInfo] = []
        by_id: dict[str, ImageInfo] = {}
        for entry in _require(doc, "images", str(path)):
            info = ImageInfo(
                image_id=str(entry["id"]), width=int(entry["width"]), height=int(entry["height"])
            )
            if info.image_id in by_id:
                raise DataFormatError(f"{path}: duplicate image id {info.image_id!r}")
            if info.width < 1 or info.height < 1:
                raise DataFormatError(f"{path}: image {info.image_id!r} has empty dimensions")
            images.append(info)
            by_id[info.image_id] = info

        feature_maps: dict[str, FeatureMap] = {}
        for image_id, rel in doc.get("feature_maps", {}).items():
            if image_id not in by_id:
                raise DataFormatError(f"{path}: feature map for unknown image {image_id!r}")
            blob = base / rel
            if not blob.is_file():
                raise DataFormatError(f"{path}: missing feature-map file {blob}")
            info = by_id[image_id]
            feature_maps[image_id] = read_feature_map(blob, info.width, info.height)
        supports_file, proposals_file, gt_file = (
            base / _require(doc, key, str(path))
            for key in ("supports", "proposals", "ground_truth")
        )

    def image_of(doc_line: dict, where: str) -> ImageInfo:
        image_id = str(_require(doc_line, "image_id", where))
        if image_id not in by_id:
            raise DataFormatError(f"{where}: unknown image id {image_id!r}")
        return by_id[image_id]

    def class_of(doc_line: dict, where: str) -> int:
        class_id = int(_require(doc_line, "class_id", where))
        if not 0 <= class_id < num_classes:
            raise DataFormatError(f"{where}: class_id {class_id} outside [0, {num_classes})")
        return class_id

    def parse_support(rec: dict, where: str) -> SupportAnnotation:
        info = image_of(rec, where)
        class_id = class_of(rec, where)
        mask = _mask_from_json(_require(rec, "mask", where))
        if (mask.width, mask.height) != (info.width, info.height):
            raise DataFormatError(f"{where}: mask dims do not match image dims")
        return SupportAnnotation(
            image_id=info.image_id,
            box=_box_from_json(_require(rec, "box", where)),
            class_id=class_id,
            mask=mask,
        )

    feature_dims: set[int] = {fm.channels for fm in feature_maps.values()}
    dropped = 0
    substituted = 0

    def parse_proposal(rec: dict, where: str) -> ProposalRecord | None:
        nonlocal dropped, substituted
        info = image_of(rec, where)
        score = float(_require(rec, "score", where))
        if not 0.0 <= score <= 1.0:
            raise DataFormatError(f"{where}: score {score} outside [0, 1]")
        if score < SCORE_FLOOR:
            dropped += 1
            return None
        box = _box_from_json(_require(rec, "box", where))
        mask = _mask_from_json(_require(rec, "mask", where))
        if (mask.width, mask.height) != (info.width, info.height):
            raise DataFormatError(f"{where}: mask dims do not match image dims")
        if mask.area == 0:
            mask, ok = box_to_full_mask(box, info.width, info.height)
            if not ok:
                raise DataFormatError(
                    f"{where}: empty mask and box covers no pixel, record unusable"
                )
            substituted += 1
        feature = None
        if rec.get("feature") is not None:
            feature = np.asarray([float(v) for v in rec["feature"]], dtype=np.float64)
            if feature.ndim != 1 or feature.size == 0 or not np.all(np.isfinite(feature)):
                raise DataFormatError(f"{where}: invalid feature vector")
            if not np.any(feature):
                raise DataFormatError(f"{where}: all-zero feature vector (cosine undefined)")
            feature_dims.add(feature.size)
        return ProposalRecord(
            image_id=info.image_id,
            box=box,
            mask=mask,
            upn_score=score,
            feature=feature,
        )

    def parse_ground_truth(rec: dict, where: str) -> GroundTruthBox:
        info = image_of(rec, where)
        class_id = class_of(rec, where)
        return GroundTruthBox(
            image_id=info.image_id,
            box=_box_from_json(_require(rec, "box", where)),
            class_id=class_id,
        )

    supports = _load_records(path, supports_file, "supports", parse_support)

    proposals: dict[str, list[ProposalRecord]] = {}
    for prop in _load_records(path, proposals_file, "proposals", parse_proposal):
        proposals.setdefault(prop.image_id, []).append(prop)
    if dropped:
        log.info("dropped %d proposals below the %.2f score floor", dropped, SCORE_FLOOR)
    if substituted:
        log.warning("substituted %d empty proposal masks with box rasters", substituted)
    if len(feature_dims) > 1:
        raise DataFormatError(
            f"inconsistent feature dimensions across inputs: {sorted(feature_dims)}"
        )

    for image_id, recs in proposals.items():
        if len(recs) > MAX_PROPOSALS_PER_IMAGE:
            order = sorted(
                range(len(recs)), key=lambda i: (-recs[i].upn_score, i)
            )[:MAX_PROPOSALS_PER_IMAGE]
            proposals[image_id] = [recs[i] for i in sorted(order)]

    ground_truth = _load_records(path, gt_file, "ground-truth", parse_ground_truth)

    return Dataset(
        num_classes=num_classes,
        shots=shots,
        images=images,
        supports=supports,
        proposals=proposals,
        ground_truth=ground_truth,
        feature_maps=feature_maps,
    )


# --------------------------------------------------------------------------
# run export
# --------------------------------------------------------------------------

_DET_HEADER = "image_id\tclass_id\tscore\tx1\ty1\tx2\ty2"


def export_run(
    detections: Mapping[str, Sequence[ScoredDetection]],
    report: EvalReport | None,
    out_dir: Path | str,
) -> dict[str, Path]:
    """Write detections.tsv (+ report.txt / report.json when a report is given).

    Ordering is image id ascending, then the per-image order as passed in;
    floats round-trip exactly through their repr.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"detections": out / "detections.tsv"}
    lines = [_DET_HEADER]
    for image_id in sorted(detections):
        for det in detections[image_id]:
            b = det.box
            lines.append(
                f"{image_id}\t{det.class_id}\t{det.score!r}\t{b.x1!r}\t{b.y1!r}\t{b.x2!r}\t{b.y2!r}"
            )
    paths["detections"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    if report is not None:
        paths["report_txt"] = out / "report.txt"
        paths["report_txt"].write_text(report.to_text(), encoding="utf-8")
        paths["report_json"] = out / "report.json"
        paths["report_json"].write_text(
            json.dumps(report.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )
    return paths


def load_detections(path: Path | str) -> dict[str, list[ScoredDetection]]:
    """Read back a detections.tsv written by export_run."""
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"detections file not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != _DET_HEADER:
        raise DataFormatError(f"{path}: missing or wrong header line")
    out: dict[str, list[ScoredDetection]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 7:
            raise DataFormatError(f"{path}:{lineno}: expected 7 columns, got {len(parts)}")
        try:
            image_id = parts[0]
            det = ScoredDetection(
                box=BoundingBox(*(float(v) for v in parts[3:7])),
                class_id=int(parts[1]),
                score=float(parts[2]),
                mask=None,
            )
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: invalid detection row ({exc})") from exc
        out.setdefault(image_id, []).append(det)
    return out
