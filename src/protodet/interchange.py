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
* ``detections.tsv``     -- exported detections, one row per box.

``write_dataset`` writes a dataset in this format and ``load_dataset`` reads
it back to equal values.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataFormatError
from .evaluation import EvalReport, GroundTruthBox
from .features import ClassPrototype, FeatureMap, SupportAnnotation
from .geometry import BinaryMask, BoundingBox, box_to_full_mask
from .postproc import ScoredDetection

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
# binary blobs: feature maps, proposal features, prototypes
# --------------------------------------------------------------------------

def write_feature_map(path: Path | str, fm: FeatureMap) -> None:
    data = np.ascontiguousarray(fm.data, dtype="<f4")
    header = _FMAP_HEADER.pack(FMAP_MAGIC, FORMAT_VERSION, fm.channels, fm.grid_h, fm.grid_w)
    Path(path).write_bytes(header + data.tobytes())


def _read_blob(path: Path | str, header: struct.Struct, magic: bytes, kind: str,
               body: Callable) -> np.ndarray:
    """The blob's body as one read-only array.  ``body`` maps the header's fields
    after magic and version to the array's dtype and shape, which must account
    for every byte of the file before any array is made."""
    raw = Path(path).read_bytes()
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
    return np.frombuffer(raw, dtype, count=count, offset=header.size).reshape(shape)


def read_feature_map(path: Path | str, image_w: int, image_h: int) -> FeatureMap:
    data = _read_blob(path, _FMAP_HEADER, FMAP_MAGIC, "feature-map",
                      lambda channels, grid_h, grid_w: ("<f4", (channels, grid_h, grid_w)))
    return FeatureMap(data=data.astype(np.float64), image_w=image_w, image_h=image_h)


def _check_features(matrix: np.ndarray, where: Callable[[int], str]) -> None:
    """Reject the first row of ``matrix`` that no cosine can use: its float64 L2
    norm is nan (a non-finite value), inf (a non-finite value, or an overflow)
    or 0 (all zeros, or an underflow)."""
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(matrix, axis=1)
    bad = np.flatnonzero(~((norms > 0) & (norms < np.inf)))
    if bad.size:
        k = int(bad[0])
        what = "all-zero feature vector" if not np.any(matrix[k]) else "feature vector"
        raise DataFormatError(f"{where(k)}: {what} of L2 norm {norms[k]} (cosine undefined)")


def _read_proposal_features(path: Path) -> np.ndarray:
    """The ``(rows, dim)`` float64 matrix of a ``.pfeat`` blob, every row checked."""
    matrix = _read_blob(path, _PFEAT_HEADER, PFEAT_MAGIC, "proposal-feature",
                        lambda rows, dim: ("<f8", (rows, dim)))
    _check_features(matrix, lambda k: f"{path}: row {k}")
    return matrix


def _proto_records(dim: int) -> np.dtype:
    return np.dtype([("class_id", "<u4"), ("support_count", "<u4"), ("vector", "<f4", (dim,))])


def save_prototypes(path: Path | str, prototypes: Sequence[ClassPrototype]) -> None:
    """Serialize class prototypes; vectors are stored as little-endian float32."""
    protos = sorted(prototypes, key=lambda p: p.class_id)
    dim = protos[0].vector.size if protos else 0
    if any(p.vector.size != dim for p in protos):
        raise ValueError("all prototype vectors must share one dimensionality")
    records = np.array([(p.class_id, p.support_count, p.vector) for p in protos],
                       dtype=_proto_records(dim))
    header = _PROTO_HEADER.pack(PROTO_MAGIC, FORMAT_VERSION, len(protos), dim, 0)
    Path(path).write_bytes(header + records.tobytes())


def load_prototypes(path: Path | str) -> list[ClassPrototype]:
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"prototype file not found: {path}")
    records = _read_blob(path, _PROTO_HEADER, PROTO_MAGIC, "prototype",
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

def _mask_to_json(mask: BinaryMask) -> dict:
    return {"w": mask.width, "h": mask.height, "counts": list(mask.runs)}


def _mask_from_json(doc: dict) -> BinaryMask:
    return BinaryMask(width=_json_int(doc["w"], "mask w"), height=_json_int(doc["h"], "mask h"),
                      runs=tuple(doc["counts"]))


def _box_to_json(box: BoundingBox) -> list[float]:
    return [box.x1, box.y1, box.x2, box.y2]


def _box_from_json(vals: list) -> BoundingBox:
    x1, y1, x2, y2 = _json_numbers(vals, "box coordinate")
    return BoundingBox(x1, y1, x2, y2)


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # JSON true and false parse to bool, which is no number here
        raise TypeError(f"{what} must be a JSON integer, got {json.dumps(value)}")
    return value


def _json_numbers(values: list, what: str) -> list[float]:
    if not {int, float}.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in (int, float))
        raise TypeError(f"{what} must be a JSON number, got {json.dumps(bad)}")
    return [float(v) for v in values]


def _write_jsonl(path: Path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


_decode_json = json.JSONDecoder().decode  # json.loads's decoder, without its per-call checks


def _iter_jsonl(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:  # only json.loads's message names a leading BOM
                yield lineno, (json.loads if line[0] == "\ufeff" else _decode_json)(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from exc


# --------------------------------------------------------------------------
# datasets: read and write
# --------------------------------------------------------------------------

def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise DataFormatError(f"{where}: missing required key {key!r}")
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
            try:
                item = parse(rec, where)
            except _PARSE_ERRORS:  # the record guard, entered only on an error
                with _invalid_as_format_error(where, f"{kind.removesuffix('s')} record"):
                    raise
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
        version = _json_int(_require(doc, "format_version", str(path)), "format_version")
        if version != FORMAT_VERSION:
            raise DataFormatError(f"{path}: unsupported format_version {version}")
        num_classes = _json_int(_require(doc, "num_classes", str(path)), "num_classes")
        shots = _json_int(_require(doc, "shots", str(path)), "shots")
        if num_classes < 1 or shots < 1:
            raise DataFormatError(f"{path}: num_classes and shots must be >= 1")

        base = path.parent
        by_id: dict[str, ImageInfo] = {}
        for entry in _require(doc, "images", str(path)):
            info = ImageInfo(image_id=str(entry["id"]),
                             width=_json_int(entry["width"], "image width"),
                             height=_json_int(entry["height"], "image height"))
            if info.image_id in by_id:
                raise DataFormatError(f"{path}: duplicate image id {info.image_id!r}")
            if _splits_a_tsv_row(info.image_id):
                raise DataFormatError(f"{path}: image id {info.image_id!r} holds a tab or a "
                                      "line break, which detections.tsv cannot hold")
            if info.width < 1 or info.height < 1:
                raise DataFormatError(f"{path}: image {info.image_id!r} has empty dimensions")
            if info.width * info.height > MAX_IMAGE_PIXELS:
                raise DataFormatError(f"{path}: image {info.image_id!r} declares "
                                      f"{info.width}x{info.height} pixels, more than 2**53")
            by_id[info.image_id] = info

        def blobs(key: str):
            """(image, blob path) for each entry of the manifest's ``key`` table."""
            for image_id, rel in doc.get(key, {}).items():
                if image_id not in by_id:
                    raise DataFormatError(f"{path}: {key} entry for unknown image {image_id!r}")
                blob = base / rel
                if not blob.is_file():
                    raise DataFormatError(f"{path}: missing {key} file {blob}")
                yield by_id[image_id], blob

        feature_maps = {info.image_id: read_feature_map(blob, info.width, info.height)
                        for info, blob in blobs("feature_maps")}
        proposal_features = {info.image_id: _read_proposal_features(blob)
                             for info, blob in blobs("proposal_features")}
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
        class_id = _json_int(_require(doc_line, "class_id", where), "class_id")
        if not 0 <= class_id < num_classes:
            raise DataFormatError(f"{where}: class_id {class_id} outside [0, {num_classes})")
        return class_id

    def mask_of(doc_line: dict, where: str, info: ImageInfo) -> BinaryMask:
        mask = _mask_from_json(_require(doc_line, "mask", where))
        if (mask.width, mask.height) != (info.width, info.height):
            raise DataFormatError(f"{where}: mask dims do not match image dims")
        return mask

    def parse_support(rec: dict, where: str) -> SupportAnnotation:
        info = image_of(rec, where)
        if info.image_id not in feature_maps:
            raise DataFormatError(f"{where}: support image {info.image_id!r} has no feature map")
        class_id = class_of(rec, where)
        mask = mask_of(rec, where, info)
        return SupportAnnotation(
            image_id=info.image_id,
            box=_box_from_json(_require(rec, "box", where)),
            class_id=class_id,
            mask=mask,
        )

    feature_dims = ({fm.channels for fm in feature_maps.values()}
                    | {m.shape[1] for m in proposal_features.values()})
    rows_used: set[tuple[str, int]] = set()
    dropped = 0
    substituted = 0

    def parse_proposal(rec: dict, where: str) -> ProposalRecord | None:
        nonlocal dropped, substituted
        info = image_of(rec, where)
        score = _require(rec, "score", where)
        if type(score) is not float:
            (score,) = _json_numbers([score], "score")
        if not 0.0 <= score <= 1.0:
            raise DataFormatError(f"{where}: score {score} outside [0, 1]")
        if score < SCORE_FLOOR:
            dropped += 1
            return None
        box = _box_from_json(_require(rec, "box", where))
        mask = mask_of(rec, where, info)
        if mask.area == 0:
            mask, ok = box_to_full_mask(box, info.width, info.height)
            if not ok:
                raise DataFormatError(
                    f"{where}: empty mask and box covers no pixel, record unusable"
                )
            substituted += 1
        feature = rec.get("feature")
        if "feature_row" in rec:
            row = _json_int(rec["feature_row"], "feature_row")
            matrix = proposal_features.get(info.image_id)
            if feature is not None:
                raise DataFormatError(f"{where}: both feature and feature_row")
            if matrix is None:
                raise DataFormatError(f"{where}: feature_row, but its image has no .pfeat blob")
            if not 0 <= row < len(matrix):
                raise DataFormatError(f"{where}: feature_row {row} outside [0, {len(matrix)})")
            if (info.image_id, row) in rows_used:
                raise DataFormatError(f"{where}: feature_row {row} used twice in its image")
            rows_used.add((info.image_id, row))
            feature = matrix[row]
        elif feature is not None:
            feature = np.asarray(_json_numbers(feature, "feature value"), dtype=np.float64)
            _check_features(feature[None], lambda _: where)
            feature_dims.add(feature.size)
        elif info.image_id not in feature_maps:
            raise DataFormatError(f"{where}: no feature, and its image has no feature map")
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
        log.warning("substituted %d empty proposal masks with their box masks", substituted)
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
        images=list(by_id.values()),
        supports=supports,
        proposals=proposals,
        ground_truth=ground_truth,
        feature_maps=feature_maps,
    )


def write_dataset(dataset: Dataset, out_dir: Path | str) -> Path:
    """Write ``dataset`` in the interchange format; returns the manifest path.

    The inverse of ``load_dataset``.  Feature maps go to
    ``features/<image id>.fmap``, each query image's precomputed proposal
    features to ``features/<image id>.pfeat`` in proposal order, and proposals
    are written in image order.
    """
    features: dict[str, list[np.ndarray]] = {}  # each image's precomputed proposal features
    for im in dataset.images:
        if _splits_a_tsv_row(im.image_id):
            raise ValueError(f"image id {im.image_id!r} holds a tab or a line break")
        if im.image_id in features:
            raise ValueError(f"duplicate image id {im.image_id!r}")
        features[im.image_id] = [p.feature for p in dataset.proposals.get(im.image_id, ())
                                 if p.feature is not None]
    features = {image_id: vectors for image_id, vectors in features.items() if vectors}
    for image_id in (*dataset.feature_maps, *features):
        name = f"{image_id}.fmap"
        if Path(name).name != name:
            raise ValueError(f"image id {image_id!r} of a blob is not a plain file name")
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    fmap_paths: dict[str, str] = {}
    for image_id, fm in dataset.feature_maps.items():
        fmap_paths[image_id] = f"features/{image_id}.fmap"
        write_feature_map(out / fmap_paths[image_id], fm)
    pfeat_paths: dict[str, str] = {}
    for image_id, vectors in features.items():
        pfeat_paths[image_id] = f"features/{image_id}.pfeat"
        matrix = np.array(vectors, dtype="<f8")
        header = _PFEAT_HEADER.pack(PFEAT_MAGIC, FORMAT_VERSION, *matrix.shape)
        (out / pfeat_paths[image_id]).write_bytes(header + matrix.tobytes())

    def proposal_lines():
        for im in dataset.images:
            row = 0
            for p in dataset.proposals.get(im.image_id, ()):
                rec = {"image_id": p.image_id, "box": _box_to_json(p.box),
                       "score": p.upn_score, "mask": _mask_to_json(p.mask)}
                if p.feature is not None:
                    rec["feature_row"] = row
                    row += 1
                yield rec

    _write_jsonl(out / "supports.jsonl", (
        {"image_id": s.image_id, "class_id": s.class_id, "box": _box_to_json(s.box),
         "mask": _mask_to_json(s.mask)}
        for s in dataset.supports
    ))
    _write_jsonl(out / "proposals.jsonl", proposal_lines())
    _write_jsonl(out / "ground_truth.jsonl", (
        {"image_id": g.image_id, "class_id": g.class_id, "box": _box_to_json(g.box)}
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
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest_path


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
            )
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: invalid detection row ({exc})") from exc
        out.setdefault(image_id, []).append(det)
    return out
