"""Interchange formats for precomputed pipeline inputs and run outputs.

Files (see docs/FORMATS.md for byte-level examples):

* ``manifest.json``      -- format_version, class/shot counts, image table,
                            record-file paths, feature-map and proposal-feature
                            path tables.
* ``*.jsonl`` records    -- one JSON object per line for supports, query
                            proposals, and ground truth.
* ``*.fmap`` blobs       -- 16-byte header (magic ``FMAP``, version, C, h, w)
                            followed by little-endian float32 data in channel-
                            major, row-major order.
* ``*.pfeat`` blobs      -- 16-byte header (magic ``PFEA``, version, rows, dim)
                            followed by one little-endian float64 feature row
                            per proposal of one query image.
* ``*.runs`` blobs       -- 16-byte header (magic ``RUNS``, version, masks, runs)
                            followed by each proposal mask's little-endian
                            int64 run count, then all of their runs, for one
                            query image.
* ``detections.tsv``     -- exported detections, one row per box.

``write_dataset`` writes a dataset in this format and ``load_dataset`` reads
it back to equal values.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import shutil
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataFormatError
from .evaluation import EvalReport, GroundTruthBox
from .features import ClassPrototype, FeatureMap, SupportAnnotation
from .geometry import BinaryMask, BoundingBox, box_to_full_mask
from .postproc import ScoredDetection, rank

__all__ = [
    "FORMAT_VERSION",
    "SCORE_FLOOR",
    "MAX_PROPOSALS_PER_IMAGE",
    "ImageInfo",
    "ProposalRecord",
    "Dataset",
    "load_dataset",
    "write_dataset",
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
PFEAT_MAGIC = b"PFEA"
_PFEAT_HEADER = struct.Struct("<4sIII")  # magic, version, rows, dim
RUNS_MAGIC = b"RUNS"
_RUNS_HEADER = struct.Struct("<4sIII")  # magic, version, masks, runs

SCORE_FLOOR = 0.01
MAX_PROPOSALS_PER_IMAGE = 500
# coverage_matrix and mask_downsample count pixels in int64 and float64; every
# count up to 2**53 is exact in both
MAX_IMAGE_PIXELS = 2**53


@dataclass(frozen=True)
class ImageInfo:
    image_id: str
    width: int
    height: int


@dataclass(frozen=True, eq=False, slots=True)
class ProposalRecord:
    """One query proposal; its image is its key in ``Dataset.proposals``."""

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


def _read(path: Path | str, what: str, text: bool = False) -> bytes | str:
    """The bytes of ``path``, or its UTF-8 text with universal newlines.  Every
    file protodet reads is read here: a file that is missing, unreadable or not
    UTF-8 is a DataFormatError that names it as a ``what`` file."""
    try:
        with open(path, "r" if text else "rb", encoding="utf-8" if text else None) as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise DataFormatError(f"missing {what} file {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {what} file {path}: {exc}") from exc


# --------------------------------------------------------------------------
# binary blobs: feature maps, proposal features, mask runs, prototypes
# --------------------------------------------------------------------------

def write_feature_map(path: Path | str, fm: FeatureMap) -> None:
    data = np.ascontiguousarray(fm.data, dtype="<f4")
    header = _FMAP_HEADER.pack(FMAP_MAGIC, FORMAT_VERSION, fm.channels, fm.grid_h, fm.grid_w)
    Path(path).write_bytes(header + data.tobytes())


def _read_blob(path: Path | str, header: struct.Struct, magic: bytes, kind: str,
               body: Callable, what: str | None = None) -> tuple[np.ndarray, list[int]]:
    """The blob's body as one read-only array, and the header's fields after
    magic and version.  ``body`` maps those fields to the array's dtype and
    shape, which must account for every byte of the file before any array is
    made.  The file is a ``what`` file, by default a ``kind`` file."""
    raw = _read(path, what or kind)
    if len(raw) < header.size:
        raise DataFormatError(f"{path}: truncated {kind} header")
    found, version, *fields = header.unpack_from(raw)
    if found != magic:
        raise DataFormatError(f"{path}: bad magic {found!r}")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported {kind} version {version}")
    dtype, shape = body(*fields)
    if 0 in shape:
        raise DataFormatError(f"{path}: {kind} blob of shape {shape} holds no values")
    count = math.prod(shape)
    expected = header.size + np.dtype(dtype).itemsize * count
    if len(raw) != expected:
        raise DataFormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    return np.frombuffer(raw, dtype, count=count, offset=header.size).reshape(shape), fields


def read_feature_map(path: Path | str, what: str | None = None) -> FeatureMap:
    """The blob's ``<f4`` values; ``FeatureMap`` widens them to float64."""
    data, _ = _read_blob(path, _FMAP_HEADER, FMAP_MAGIC, "feature-map",
                         lambda channels, h, w: ("<f4", (channels, h, w)), what)
    return FeatureMap(data)


def _check_features(matrix: np.ndarray, prefix: Callable[[int], str]) -> None:
    """Reject the first row of ``matrix`` that no cosine can use: its float64 L2
    norm is nan (a non-finite value), inf (a non-finite value, or an overflow)
    or 0 (all zeros, or an underflow).  The message starts with ``prefix(k)``
    for row k."""
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(matrix, axis=1)
    bad = np.flatnonzero(~((norms > 0) & (norms < np.inf)))
    if bad.size:
        k = int(bad[0])
        what = "all-zero feature vector" if not np.any(matrix[k]) else "feature vector"
        raise DataFormatError(f"{prefix(k)}{what} of L2 norm {norms[k]} (cosine undefined)")


def _read_proposal_features(path: Path, what: str) -> np.ndarray:
    """The ``(rows, dim)`` float64 matrix of a ``.pfeat`` blob, every row checked."""
    matrix, _ = _read_blob(path, _PFEAT_HEADER, PFEAT_MAGIC, "proposal-feature",
                           lambda rows, dim: ("<f8", (rows, dim)), what)
    _check_features(matrix, lambda k: f"{path}: row {k}: ")
    return matrix


def _read_mask_runs(path: Path, info: ImageInfo, what: str) -> list[BinaryMask]:
    """The masks of a ``.runs`` blob, each a view into the blob's one array, all
    checked in one pass."""
    table, (masks, _) = _read_blob(path, _RUNS_HEADER, RUNS_MAGIC, "mask-run",
                                   lambda masks, runs: ("<i8", (masks + runs,)), what)
    with _invalid_as_format_error(str(path), "mask-run blob"):
        return BinaryMask.split(info.width, info.height, table[masks:], table[:masks])


def _proto_records(dim: int) -> np.dtype:
    return np.dtype([("class_id", "<u4"), ("support_count", "<u4"), ("vector", "<f4", (dim,))])


def save_prototypes(path: Path | str, prototypes: Sequence[ClassPrototype]) -> None:
    """Serialize class prototypes; vectors are stored as little-endian float32."""
    protos = sorted(prototypes, key=lambda p: p.class_id)
    if not protos:
        raise ValueError("a prototype file holds at least one prototype")
    repeated = [a.class_id for a, b in zip(protos, protos[1:]) if a.class_id == b.class_id]
    if repeated:
        raise ValueError(f"duplicate prototype for class {repeated[0]}")
    dim = protos[0].vector.size
    if any(p.vector.size != dim for p in protos):
        raise ValueError("all prototype vectors must share one dimensionality")
    if dim > 0xFFFF:
        raise ValueError(f"prototype dimension {dim} does not fit the header's uint16")
    if not all(0 <= n <= 0xFFFFFFFF for p in protos for n in (p.class_id, p.support_count)):
        raise ValueError("class ids and support counts must fit the records' uint32")
    records = np.array([(p.class_id, p.support_count, p.vector) for p in protos],
                       dtype=_proto_records(dim))
    header = _PROTO_HEADER.pack(PROTO_MAGIC, FORMAT_VERSION, len(protos), dim, 0)
    Path(path).write_bytes(header + records.tobytes())


def load_prototypes(path: Path | str) -> list[ClassPrototype]:
    records, _ = _read_blob(path, _PROTO_HEADER, PROTO_MAGIC, "prototype",
                            lambda count, dim, _: (_proto_records(dim), (count,)))
    protos: list[ClassPrototype] = []
    seen: set[int] = set()
    for rec in records:
        class_id, vec = int(rec["class_id"]), rec["vector"]
        if class_id in seen:
            raise DataFormatError(f"{path}: duplicate prototype for class {class_id}")
        seen.add(class_id)
        if not (np.all(np.isfinite(vec)) and np.any(vec)):
            raise DataFormatError(f"{path}: class {class_id} prototype is not finite and non-zero")
        protos.append(ClassPrototype(class_id=class_id, vector=vec.astype(np.float64),
                                     support_count=int(rec["support_count"])))
    return protos


# --------------------------------------------------------------------------
# JSON helpers
# --------------------------------------------------------------------------

_NUMBER_TYPES = {int, float}


def _box_values(vals) -> list:
    """A box's four JSON numbers as given, not yet checked as coordinates;
    anything else raises the error that ``_box_from_json`` raises."""
    if type(vals) is list and len(vals) == 4 and _NUMBER_TYPES.issuperset(map(type, vals)):
        return vals
    x1, y1, x2, y2 = _json_numbers(vals, "box coordinate")
    return [x1, y1, x2, y2]


def _box_from_json(vals: list) -> BoundingBox:
    return BoundingBox(*map(float, _box_values(vals)))


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # JSON true and false parse to bool, which is no number here
        raise TypeError(f"{what} must be a JSON integer, got {json.dumps(value)}")
    return value


def _json_numbers(values: list, what: str) -> list[float]:
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in (int, float))
        raise TypeError(f"{what} must be a JSON number, got {json.dumps(bad)}")
    return [float(v) for v in values]


def _write_jsonl(path: Path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


_raw_decode = json.JSONDecoder().raw_decode


def _iter_jsonl(path: Path, what: str):
    """(line number, record) for each non-blank line of a ``what`` file.
    ``json.loads`` decodes only a line that ``raw_decode`` refuses or does not
    read to its end, so that the error keeps the decoder's own wording."""
    for lineno, line in enumerate(_read(path, what, text=True).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec, end = _raw_decode(line)
        except json.JSONDecodeError:
            end = -1
        if end != len(line):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        yield lineno, rec


# --------------------------------------------------------------------------
# datasets: read and write
# --------------------------------------------------------------------------

def _require(doc: dict, key: str):
    if key not in doc:
        raise DataFormatError(f"missing required key {key!r}")
    return doc[key]


_PARSE_ERRORS = (DataFormatError, ValueError, KeyError, TypeError, AttributeError, OverflowError)


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
    except _PARSE_ERRORS as exc:
        raise DataFormatError(f"{where}: invalid {what} ({exc})") from exc


def _load_records(file: Path, kind: str, parse: Callable) -> tuple[list, list]:
    """Run ``parse(rec)`` on every record of the manifest's ``kind`` file
    ("supports"; one record is a "support record"); each non-None result is
    kept, and its line number beside it.  An error that ``parse`` raises is
    named by the record's ``file:line``."""
    lines, items = [], []
    for lineno, rec in _iter_jsonl(file, kind):
        try:
            item = parse(rec)
        except _PARSE_ERRORS:  # the record guard, entered only on an error
            with _invalid_as_format_error(f"{file}:{lineno}", f"{kind.removesuffix('s')} record"):
                raise
        if item is not None:
            lines.append(lineno)
            items.append(item)
    return lines, items


def _mask_of(rec: dict, info: ImageInfo) -> BinaryMask:
    doc = _require(rec, "mask")
    mask = BinaryMask(width=_json_int(doc["w"], "mask w"), height=_json_int(doc["h"], "mask h"),
                      runs=doc["counts"])
    if (mask.width, mask.height) != (info.width, info.height):
        raise DataFormatError("mask dims do not match image dims")
    return mask


def _blob_row(rec: dict, key: str) -> int:
    """The row of its image's blob that the record's ``key`` (``mask_row`` or
    ``feature_row``) names, if it does not also hold the field inline."""
    row = _json_int(rec[key], key)
    inline = key.removesuffix("_row")
    if rec.get(inline) is not None:
        raise DataFormatError(f"both {inline} and {key}")
    return row


def _load_proposals(file: Path, images: list[ImageInfo],
                    mask_runs: Mapping[str, list[BinaryMask]],
                    proposal_features: Mapping[str, np.ndarray],
                    feature_maps: Mapping[str, FeatureMap],
                    feature_dims: set[int]) -> dict[str, list[ProposalRecord]]:
    """Each image's proposal records, in file order, at most the 500 best.

    One pass over the file takes from each record what only the record can
    tell: its image; its score, whose type and range it checks, dropping a
    record below the score floor with no other check; the JSON types of its
    box, ``mask_row`` and ``feature_row``; and an inline mask or feature,
    parsed in place.  Then each of the other checks runs once over every kept
    record, in this order: boxes, blob rows of masks, empty masks, blob rows
    of features, records with no feature.  A failure names the first record
    that fails that check.
    """
    position = {info.image_id: i for i, info in enumerate(images)}
    coords: list = []  # each kept record's four box values
    dropped = 0

    def parse(rec: dict):
        nonlocal dropped
        image_id = str(_require(rec, "image_id"))
        img = position.get(image_id)
        if img is None:
            raise DataFormatError(f"unknown image id {image_id!r}")
        score = _require(rec, "score")
        if type(score) is not float:
            (score,) = _json_numbers([score], "score")
        if not 0.0 <= score <= 1.0:
            raise DataFormatError(f"score {score} outside [0, 1]")
        if score < SCORE_FLOOR:
            dropped += 1
            return None
        box = _box_values(_require(rec, "box"))
        mask = _blob_row(rec, "mask_row") if "mask_row" in rec else _mask_of(rec, images[img])
        if "feature_row" in rec:
            feature = _blob_row(rec, "feature_row")
        else:
            feature = rec.get("feature")
            if feature is not None:
                feature = np.asarray(_json_numbers(feature, "feature value"), dtype=np.float64)
                _check_features(feature[None], lambda _: "")
                feature_dims.add(feature.size)
        coords.extend(box)
        return img, score, mask, feature

    lines, kept = _load_records(file, "proposals", parse)
    if dropped:
        log.info("dropped %d proposals below the %.2f score floor", dropped, SCORE_FLOOR)
    if not kept:
        return {}
    imgs, scores, masks, features = zip(*kept)
    owner_of = np.array(imgs)  # each kept record's index into images

    def refuse(k: int, message: str):
        raise DataFormatError(f"{file}:{lines[k]}: {message}")

    def blob_rows(column: Sequence, key: str, tables: Mapping, suffix: str) -> list:
        """``column`` with each row number replaced by the row of its image's
        blob that it names; no record may name a blob that its image lacks, a
        row outside the blob, or a row that another record of its image names."""
        out = list(column)
        at = np.array([k for k, v in enumerate(column) if type(v) is int], dtype=np.int64)
        if not at.size:
            return out
        numbers = [column[k] for k in at.tolist()]
        owner = owner_of[at]
        size = np.array([len(tables[i.image_id]) if i.image_id in tables else -1
                         for i in images])[owner]
        lacking = np.flatnonzero(size < 0)
        if lacking.size:
            refuse(at[lacking[0]], f"{key}, but its image has no {suffix} blob")
        try:
            row = np.array(numbers, dtype=np.int64)
        except OverflowError:  # outside int64, hence outside any blob
            row = np.array([r if -2**63 <= r < 2**63 else -1 for r in numbers], dtype=np.int64)
        outside = np.flatnonzero((row < 0) | (row >= size))
        if outside.size:
            k = outside[0]
            refuse(at[k], f"{key} {numbers[k]} outside [0, {size[k]})")
        # by image, then row, then file order: a record whose row is its
        # predecessor's names a row used before it
        order = np.lexsort((np.arange(at.size), row, owner))
        a, b = order[:-1], order[1:]
        twice = b[(owner[a] == owner[b]) & (row[a] == row[b])]
        if twice.size:
            k = twice.min()
            refuse(at[k], f"{key} {numbers[k]} used twice in its image")
        for k, i, r in zip(at.tolist(), owner.tolist(), row.tolist()):
            out[k] = tables[images[i].image_id][r]
        return out

    try:
        boxes = BoundingBox.rows(np.array(coords, dtype=np.float64).reshape(-1, 4))
    except (OverflowError, ValueError):
        for k in range(len(kept)):  # the first record whose box one BoundingBox refuses
            with _invalid_as_format_error(f"{file}:{lines[k]}", "proposal record"):
                _box_from_json(coords[4 * k:4 * k + 4])
        raise
    masks = blob_rows(masks, "mask_row", mask_runs, ".runs")
    empty = [k for k, mask in enumerate(masks) if not mask.area]
    for k in empty:
        info = images[imgs[k]]
        masks[k], ok = box_to_full_mask(boxes[k], info.width, info.height)
        if not ok:
            refuse(k, "empty mask and box covers no pixel, record unusable")
    if empty:
        log.warning("substituted %d empty proposal masks with their box masks", len(empty))
    features = blob_rows(features, "feature_row", proposal_features, ".pfeat")
    for k, feature in enumerate(features):
        if feature is None and images[imgs[k]].image_id not in feature_maps:
            refuse(k, "no feature, and its image has no feature map")

    by_image = [[] for _ in images]
    for i, box, mask, score, feature in zip(imgs, boxes, masks, scores, features):
        by_image[i].append(ProposalRecord(box, mask, score, feature))
    proposals = {images[i].image_id: by_image[i] for i in dict.fromkeys(imgs)}
    for image_id, recs in proposals.items():
        if len(recs) > MAX_PROPOSALS_PER_IMAGE:
            best = sorted(rank([r.upn_score for r in recs])[:MAX_PROPOSALS_PER_IMAGE])
            proposals[image_id] = [recs[i] for i in best]
            log.info("image %s: kept the %d best of %d proposals, dropped %d",
                     image_id, MAX_PROPOSALS_PER_IMAGE, len(recs),
                     len(recs) - MAX_PROPOSALS_PER_IMAGE)
    return proposals


def load_dataset(manifest_path: Path | str) -> Dataset:
    """Parse and validate a dataset; proposals below the score floor are
    dropped and each image keeps at most the 500 best-scored proposals."""
    path = Path(manifest_path)
    try:
        doc = json.loads(_read(path, "manifest", text=True))
    except ValueError as exc:  # bad JSON
        raise DataFormatError(f"{path}: cannot parse manifest ({exc})") from exc

    with _invalid_as_format_error(str(path), "manifest"):
        version = _json_int(_require(doc, "format_version"), "format_version")
        if version != FORMAT_VERSION:
            raise DataFormatError(f"unsupported format_version {version}")
        num_classes = _json_int(_require(doc, "num_classes"), "num_classes")
        shots = _json_int(_require(doc, "shots"), "shots")
        if num_classes < 1 or shots < 1:
            raise DataFormatError("num_classes and shots must be >= 1")

        base = path.parent
        by_id: dict[str, ImageInfo] = {}
        for entry in _require(doc, "images"):
            info = ImageInfo(image_id=str(entry["id"]),
                             width=_json_int(entry["width"], "image width"),
                             height=_json_int(entry["height"], "image height"))
            if info.image_id in by_id:
                raise DataFormatError(f"duplicate image id {info.image_id!r}")
            if _splits_a_tsv_row(info.image_id):
                raise DataFormatError(f"image id {info.image_id!r} holds a tab or a line break, "
                                      "which detections.tsv cannot hold")
            if info.width < 1 or info.height < 1:
                raise DataFormatError(f"image {info.image_id!r} has empty dimensions")
            if info.width * info.height > MAX_IMAGE_PIXELS:
                raise DataFormatError(f"image {info.image_id!r} declares "
                                      f"{info.width}x{info.height} pixels, more than 2**53")
            by_id[info.image_id] = info

        def blobs(key: str, read: Callable[[Path, ImageInfo, str], object]) -> dict:
            """``read(blob, image, key)`` by image id for each entry of the ``key`` table."""
            tables = {}
            for image_id, rel in doc.get(key, {}).items():
                if image_id not in by_id:
                    raise DataFormatError(f"{key} entry for unknown image {image_id!r}")
                tables[image_id] = read(base / rel, by_id[image_id], key)
            return tables

        feature_maps = blobs("feature_maps", lambda b, _, key: read_feature_map(b, key))
        proposal_features = blobs("proposal_features",
                                  lambda b, _, key: _read_proposal_features(b, key))
        mask_runs = blobs("mask_runs", _read_mask_runs)
        supports_file, proposals_file, gt_file = (
            base / _require(doc, key) for key in ("supports", "proposals", "ground_truth")
        )

    def image_of(rec: dict) -> ImageInfo:
        image_id = str(_require(rec, "image_id"))
        if image_id not in by_id:
            raise DataFormatError(f"unknown image id {image_id!r}")
        return by_id[image_id]

    def class_of(rec: dict) -> int:
        class_id = _json_int(_require(rec, "class_id"), "class_id")
        if not 0 <= class_id < num_classes:
            raise DataFormatError(f"class_id {class_id} outside [0, {num_classes})")
        return class_id

    def parse_support(rec: dict) -> SupportAnnotation:
        info = image_of(rec)
        if info.image_id not in feature_maps:
            raise DataFormatError(f"support image {info.image_id!r} has no feature map")
        class_id = class_of(rec)
        mask = _mask_of(rec, info)
        return SupportAnnotation(image_id=info.image_id, box=_box_from_json(_require(rec, "box")),
                                 class_id=class_id, mask=mask)

    def parse_ground_truth(rec: dict) -> GroundTruthBox:
        info = image_of(rec)
        class_id = class_of(rec)
        return GroundTruthBox(image_id=info.image_id, box=_box_from_json(_require(rec, "box")),
                              class_id=class_id)

    _, supports = _load_records(supports_file, "supports", parse_support)
    feature_dims = ({fm.channels for fm in feature_maps.values()}
                    | {m.shape[1] for m in proposal_features.values()})
    proposals = _load_proposals(proposals_file, list(by_id.values()), mask_runs,
                                proposal_features, feature_maps, feature_dims)
    if len(feature_dims) > 1:
        raise DataFormatError(
            f"inconsistent feature dimensions across inputs: {sorted(feature_dims)}"
        )
    _, ground_truth = _load_records(gt_file, "ground-truth", parse_ground_truth)

    return Dataset(
        num_classes=num_classes,
        shots=shots,
        images=list(by_id.values()),
        supports=supports,
        proposals=proposals,
        ground_truth=ground_truth,
        feature_maps=feature_maps,
    )


def _write_files(dataset: Dataset, root: Path) -> None:
    """Write ``dataset``'s files under ``root``, as ``write_dataset`` says."""
    queries = [im for im in dataset.images if dataset.proposals.get(im.image_id)]
    for image_id in (*dataset.feature_maps, *(im.image_id for im in queries)):  # blob names
        name = f"{image_id}.fmap"
        if Path(name).name != name:
            raise ValueError(f"image id {image_id!r} of a blob is not a plain file name")
    for im in queries:  # a .runs blob holds no dims for the loader to check
        for m in (p.mask for p in dataset.proposals[im.image_id]):
            if (m.width, m.height) != (im.width, im.height):
                raise ValueError(f"a {m.width}x{m.height} mask in image {im.image_id!r} of "
                                 f"{im.width}x{im.height}")
    (root / "features").mkdir(parents=True)
    fmap_paths: dict[str, str] = {}
    for image_id, fm in dataset.feature_maps.items():
        fmap_paths[image_id] = f"features/{image_id}.fmap"
        write_feature_map(root / fmap_paths[image_id], fm)
    pfeat_paths: dict[str, str] = {}
    runs_paths: dict[str, str] = {}
    for im in queries:
        props = dataset.proposals[im.image_id]
        vectors = [p.feature for p in props if p.feature is not None]
        if vectors:
            pfeat_paths[im.image_id] = f"features/{im.image_id}.pfeat"
            matrix = np.array(vectors, dtype="<f8")
            header = _PFEAT_HEADER.pack(PFEAT_MAGIC, FORMAT_VERSION, *matrix.shape)
            (root / pfeat_paths[im.image_id]).write_bytes(header + matrix.tobytes())
        runs_paths[im.image_id] = f"features/{im.image_id}.runs"
        tables = [p.mask.runs for p in props]
        counts = np.array([t.size for t in tables], dtype="<i8")
        runs = np.concatenate(tables).astype("<i8", copy=False)
        header = _RUNS_HEADER.pack(RUNS_MAGIC, FORMAT_VERSION, counts.size, runs.size)
        (root / runs_paths[im.image_id]).write_bytes(header + counts.tobytes() + runs.tobytes())

    def proposal_lines():
        for im in queries:
            row = 0
            for k, p in enumerate(dataset.proposals[im.image_id]):
                rec = {"image_id": im.image_id, "box": p.box.as_tuple(),
                       "score": p.upn_score, "mask_row": k}
                if p.feature is not None:
                    rec["feature_row"] = row
                    row += 1
                yield rec

    _write_jsonl(root / "supports.jsonl", (
        {"image_id": s.image_id, "class_id": s.class_id, "box": s.box.as_tuple(),
         "mask": {"w": s.mask.width, "h": s.mask.height, "counts": s.mask.runs.tolist()}}
        for s in dataset.supports
    ))
    _write_jsonl(root / "proposals.jsonl", proposal_lines())
    _write_jsonl(root / "ground_truth.jsonl", (
        {"image_id": g.image_id, "class_id": g.class_id, "box": g.box.as_tuple()}
        for g in dataset.ground_truth
    ))
    manifest = {
        "format_version": FORMAT_VERSION,
        "num_classes": dataset.num_classes,
        "shots": dataset.shots,
        "images": [{"id": im.image_id, "width": im.width, "height": im.height}
                   for im in dataset.images],
        "supports": "supports.jsonl",
        "proposals": "proposals.jsonl",
        "ground_truth": "ground_truth.jsonl",
        "feature_maps": fmap_paths,
    }
    if pfeat_paths:  # so that a corpus with no precomputed proposal features lacks the key
        manifest["proposal_features"] = pfeat_paths
    if runs_paths:
        manifest["mask_runs"] = runs_paths
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def write_dataset(dataset: Dataset, out_dir: Path | str) -> Path:
    """Write ``dataset`` in the interchange format; returns the manifest path.

    The inverse of ``load_dataset``, which judges what is published: the
    files are staged beside ``out_dir`` and loaded back, and reach ``out_dir``
    only if every proposal of ``dataset.proposals`` loads, with its mask area.
    Otherwise ``ValueError`` gives the loader's reason, naming the file and
    line in ``out_dir`` of the record at fault, and ``out_dir`` is left as it
    was.  The writer checks only what its files would hide from the loader:
    an image id of a blob must make a plain file name, or the blob lands
    outside ``out_dir``, and a proposal mask must have its image's dims,
    which a ``.runs`` blob does not hold.
    """
    out = Path(out_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f".{out.name}.", dir=out.parent) as tmp:
        stage = Path(tmp, "dataset")  # made as out_dir would be; copytree copies its mode
        _write_files(dataset, stage)
        # the load-back reads no data of the caller's, so it logs nothing
        disabled, log.disabled = log.disabled, True
        try:
            loaded = load_dataset(stage / "manifest.json")
        except DataFormatError as exc:
            raise ValueError(str(exc).replace(str(stage), str(out))) from None
        finally:
            log.disabled = disabled
        written, back = ([(im.image_id, p.upn_score, p.mask.area) for im in dataset.images
                          for p in proposals.get(im.image_id, ())]  # file order
                         for proposals in (dataset.proposals, loaded.proposals))
        if back != written:  # back keeps file order: the first record that differs is at fault
            j = next(j for j, rec in enumerate(written) if j == len(back) or rec != back[j])
            why = ("an empty mask loads as its box's" if not written[j][2] else
                   f"a score below {SCORE_FLOOR}, or not among its {MAX_PROPOSALS_PER_IMAGE} best")
            raise ValueError(f"{out / 'proposals.jsonl'}:{j + 1}: a proposal of image "
                             f"{written[j][0]!r} does not load back ({why})")
        lost = [i for i, props in dataset.proposals.items() if props and i not in loaded.proposals]
        if lost:  # proposals that no line holds
            raise ValueError(f"image {lost[0]!r} has proposals but is not in dataset.images")
        shutil.copytree(stage, out, dirs_exist_ok=True)
    return out / "manifest.json"


# --------------------------------------------------------------------------
# run export
# --------------------------------------------------------------------------

_DET_HEADER = "image_id\tclass_id\tscore\tx1\ty1\tx2\ty2"


def _splits_a_tsv_row(image_id: str) -> bool:
    """Whether ``image_id`` holds a tab or a character that ``str.splitlines``
    breaks on, either of which would split its row in ``load_detections``."""
    return "\t" in image_id or len(f"{image_id}.".splitlines()) != 1


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
        if _splits_a_tsv_row(image_id):
            raise ValueError(f"image id {image_id!r} holds a tab or a line break")
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
    lines = _read(path, "detections", text=True).splitlines()
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
            )
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: invalid detection row ({exc})") from exc
        out.setdefault(image_id, []).append(det)
    return out
