"""Reference implementations the library must equal bit for bit.

Each is the plain form a faster library routine replaced: a loop that visits
every pair, with every IoU from one ``box_iou`` call, or the per-item form of
a kernel that now does a whole image at once.  They take and return the
library's own types, so a test compares the two results with ``==``.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from protodet.errors import DataFormatError
from protodet.geometry import BoundingBox, box_iou, box_to_full_mask, coverage_matrix
from protodet.interchange import (
    MAX_PROPOSALS_PER_IMAGE,
    SCORE_FLOOR,
    ImageInfo,
    ProposalRecord,
    _check_features,
    _invalid_as_format_error,
    _json_int,
    _json_numbers,
    _mask_from_json,
    _read_mask_runs,
    _read_proposal_features,
    read_feature_map,
)
from protodet.postproc import ScoredDetection


def _ranked_by_class(dets):
    """Each class's indices into ``dets``, by descending score, ties by position."""
    by_class = {}
    for i in sorted(range(len(dets)), key=lambda i: -dets[i].score):
        by_class.setdefault(dets[i].class_id, []).append(i)
    return by_class


def _by_score(dets):
    return sorted(dets, key=lambda d: -d.score)


def match(dets, gts, thresholds):
    """``evaluation._match``: flags of shape (thresholds, dets).  At each
    threshold every detection, in the given order, takes the unmatched ground
    truth of its image and class with the highest IoU (the lowest index on
    ties, never one at IoU 0) and claims it when that IoU reaches the
    threshold."""
    rows = [[(g_idx, box_iou(det.box, g.box)) for g_idx, g in enumerate(gts)
             if (g.image_id, g.class_id) == (image_id, det.class_id)]
            for image_id, det in dets]
    flags = np.zeros((len(thresholds), len(dets)), dtype=bool)
    for t, thr in enumerate(thresholds):
        matched = set()
        for d, row in enumerate(rows):
            best_idx, best_iou = -1, 0.0
            for g_idx, iou in row:
                if iou > best_iou and g_idx not in matched:
                    best_idx, best_iou = g_idx, iou
            if best_idx >= 0 and best_iou >= thr:
                matched.add(best_idx)
                flags[t, d] = True
    return flags


def nms(dets, iou_thr):
    """Greedy NMS: a box is kept when its IoU with every kept, higher-ranked box
    of its class is at most the threshold."""
    kept = []
    for idx in _ranked_by_class(dets).values():
        kept_here = []
        for i in idx:
            if all(box_iou(dets[i].box, dets[k].box) <= iou_thr for k in kept_here):
                kept_here.append(i)
        kept += kept_here
    return _by_score([dets[i] for i in sorted(kept)])


def soft_nms(dets, sigma):
    """Gaussian Soft-NMS: select the highest current score (of equal ones, the
    lowest input position), then decay every unselected positive score of its
    class by exp(-iou^2 / sigma)."""
    final = {}
    for idx in _ranked_by_class(dets).values():
        current = {i: dets[i].score for i in idx}
        while current:
            top = min(current, key=lambda i: (-current[i], i))
            final[top] = current.pop(top)
            for i in current:
                if current[i] > 0.0:
                    iou = box_iou(dets[top].box, dets[i].box)
                    current[i] *= math.exp(-(iou * iou) / sigma)
    return _by_score([ScoredDetection(d.box, d.class_id, final[i]) for i, d in enumerate(dets)])


def wbf(dets, iou_thr):
    """Weighted boxes fusion: each box, by rank, joins the first cluster of its
    class whose fused box it overlaps by more than the threshold.  The fused box
    is the members' mean weighted by max(score, 0), rebuilt from every member
    on each join (the first box while the weights sum to 0); the score is the
    mean of the members' scores."""
    out = []
    by_class = _ranked_by_class(dets)
    for class_id in sorted(by_class):
        clusters = []  # [members, fused box]
        for i in by_class[class_id]:
            d = dets[i]
            home = next((c for c in clusters if box_iou(d.box, c[1]) > iou_thr), None)
            if home is None:
                clusters.append([[d], d.box])
                continue
            home[0].append(d)
            coords = np.array([m.box.as_tuple() for m in home[0]])
            weights = np.array([max(m.score, 0.0) for m in home[0]])
            if weights.sum() > 0.0:
                fused = (coords * weights[:, None]).sum(axis=0) / weights.sum()
                home[1] = BoundingBox(*fused.tolist())
        out += [ScoredDetection(fused, class_id, float(np.mean([m.score for m in members])))
                for members, fused in clusters]
    return _by_score(out)


def cosine(a, b):
    """Cosine similarity; both vectors must be nonzero."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for a zero vector")
    return float(np.dot(va, vb) / (na * nb))


# Per-item references for the query stage's one-pass-per-image kernels: the
# forms they took before they batched an image's masks, boxes and features.

def downsample_by_decoding(m, target_w, target_h):
    """The decode-based resampler that ``mask_downsample`` replaced: it reads
    the same corner pixels from the full ``H x W`` raster."""
    src = m.to_array().astype(np.float64)
    sx = np.clip((np.arange(target_w) + 0.5) * (m.width / target_w) - 0.5, 0.0, m.width - 1.0)
    sy = np.clip((np.arange(target_h) + 0.5) * (m.height / target_h) - 0.5, 0.0, m.height - 1.0)
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    x1 = np.minimum(x0 + 1, m.width - 1)
    y1 = np.minimum(y0 + 1, m.height - 1)
    fx = sx - x0
    fy = sy - y0
    top = src[y0][:, x0] * (1.0 - fx) + src[y0][:, x1] * fx
    bot = src[y1][:, x0] * (1.0 - fx) + src[y1][:, x1] * fx
    out = top * (1.0 - fy[:, None]) + bot * fy[:, None]
    return np.clip(out, 0.0, 1.0)


def pool_one_box(fm, box, weights, width, height):
    """One box of a ``width`` x ``height`` image pooled under its (grid_h, grid_w)
    weights: the inclusive grid range by scaling, floor and ceil minus one,
    clamped; then the weighted mean, or the plain mean where the mask has no
    weight in the range."""
    sx, sy = fm.grid_w / width, fm.grid_h / height
    gx1 = int(np.floor(min(max(box.x1, 0.0), float(width)) * sx))
    gy1 = int(np.floor(min(max(box.y1, 0.0), float(height)) * sy))
    gx2 = int(np.ceil(min(max(box.x2, 0.0), float(width)) * sx)) - 1
    gy2 = int(np.ceil(min(max(box.y2, 0.0), float(height)) * sy)) - 1
    gx1 = min(max(gx1, 0), fm.grid_w - 1)
    gy1 = min(max(gy1, 0), fm.grid_h - 1)
    gx2 = min(max(gx2, gx1), fm.grid_w - 1)
    gy2 = min(max(gy2, gy1), fm.grid_h - 1)
    w = weights[gy1 : gy2 + 1, gx1 : gx2 + 1]
    total = float(w.sum())
    if total == 0.0:
        w = np.ones_like(w)
        total = float(w.sum())
    block = fm.data[:, gy1 : gy2 + 1, gx1 : gx2 + 1]
    return (block * w).sum(axis=(1, 2)) / total


def match_one(fq, prototypes):
    """One feature's best (class_id, similarity): ``cosine`` against each
    prototype in class order, the first maximum kept."""
    best_id, best_sim = -1, -np.inf
    for proto in sorted(prototypes, key=lambda p: p.class_id):
        sim = cosine(fq, proto.vector)
        if sim > best_sim:
            best_id, best_sim = proto.class_id, sim
    return best_id, best_sim


def build_time_graph(props):
    """coverage, edges, prior and transition as the graph build once computed
    and stored them: the formulas that ``ClassGraph.edges`` and the walk that
    ``diffuse`` derives from it must reproduce bit for bit."""
    coverage = coverage_matrix([p.mask for p in props])
    scores = np.array([p.upn_score for p in props], dtype=np.float64)
    edges = np.where(scores[:, None] > scores[None, :], 0.0, coverage)
    np.fill_diagonal(edges, 0.0)
    return (coverage, edges, *walk_arrays(edges))


def walk_arrays(edges):
    """prior (each row's largest edge) and transition (each row scaled to sum
    1, all-zero rows kept zero) of an (N, N) edge matrix."""
    row_sums = edges.sum(axis=1)
    transition = np.zeros_like(edges)
    nonzero = row_sums > 0.0
    transition[nonzero] = edges[nonzero] / row_sums[nonzero, None]
    return edges.max(axis=1), transition


def walk(transition, prior, params, start):
    """``diffuse``'s iteration from any ``start``: (pi, steps taken, converged)."""
    restart = (1.0 - params.alpha) * prior
    pi = np.asarray(start, dtype=np.float64)
    for steps in range(1, params.max_steps + 1):
        nxt = np.clip(params.alpha * (transition @ pi) + restart, 0.0, 1.0)
        delta, pi = float(np.linalg.norm(nxt - pi)), nxt
        if delta < params.tau:
            return pi, steps, True
    return pi, params.max_steps, False


def soft_merge_of_detections(dets, graphs):
    """The two-input ``soft_merge`` that the one-input form replaced: it ranks
    the detections of each class by descending score, reads the coverage of
    that class's graph permuted into rank order, and checks that the graph's
    nodes are those detections."""
    ranked = {}
    for i in sorted(range(len(dets)), key=lambda i: -dets[i].score):
        ranked.setdefault(dets[i].class_id, []).append(i)
    new_scores = {}
    for class_id, order in ranked.items():
        graph = graphs.get(class_id)
        if graph is None or sorted(graph.node_ids) != sorted(order):
            raise ValueError(f"no class graph over the class {class_id} detections")
        pos = {node: k for k, node in enumerate(graph.node_ids)}
        perm = [pos[i] for i in order]
        cov = graph.coverage[np.ix_(perm, perm)]
        penalties = np.tril(cov, -1).max(axis=1, initial=0.0).tolist()
        for i, penalty in zip(order, penalties):
            new_scores[i] = dets[i].score * (1.0 - penalty)
    return sorted((replace(d, score=new_scores[i]) for i, d in enumerate(dets)),
                  key=lambda d: -d.score)


def proposals_by_record(manifest_path):
    """``load_dataset(manifest_path).proposals`` as the loader once computed it:
    every proposal record parsed and checked on its own, in file order, each
    check in turn, so that the first record that fails any check is named.
    The manifest, the blobs and every other record file must be valid."""
    path = Path(manifest_path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    base = path.parent
    images = {e["id"]: e for e in doc["images"]}
    feature_maps = {i: read_feature_map(base / rel) for i, rel in doc["feature_maps"].items()}
    features = {i: _read_proposal_features(base / rel)
                for i, rel in doc.get("proposal_features", {}).items()}
    mask_runs = {}
    for i, rel in doc.get("mask_runs", {}).items():
        info = ImageInfo(i, images[i]["width"], images[i]["height"])
        mask_runs[i] = _read_mask_runs(base / rel, info)
    feature_dims = ({fm.channels for fm in feature_maps.values()}
                    | {m.shape[1] for m in features.values()})
    rows_used = set()

    def require(rec, key, where):
        if key not in rec:
            raise DataFormatError(f"{where}: missing required key {key!r}")
        return rec[key]

    def box_of(vals):
        x1, y1, x2, y2 = _json_numbers(vals, "box coordinate")
        return BoundingBox(x1, y1, x2, y2)

    def blob_row(rec, where, image_id, key, tables, suffix):
        row = _json_int(rec[key], key)
        inline = key.removesuffix("_row")
        table = tables.get(image_id)
        if rec.get(inline) is not None:
            raise DataFormatError(f"{where}: both {inline} and {key}")
        if table is None:
            raise DataFormatError(f"{where}: {key}, but its image has no {suffix} blob")
        if not 0 <= row < len(table):
            raise DataFormatError(f"{where}: {key} {row} outside [0, {len(table)})")
        if (key, image_id, row) in rows_used:
            raise DataFormatError(f"{where}: {key} {row} used twice in its image")
        rows_used.add((key, image_id, row))
        return table[row]

    def parse(rec, where):
        image_id = str(require(rec, "image_id", where))
        if image_id not in images:
            raise DataFormatError(f"{where}: unknown image id {image_id!r}")
        width, height = images[image_id]["width"], images[image_id]["height"]
        score = require(rec, "score", where)
        if type(score) is not float:
            (score,) = _json_numbers([score], "score")
        if not 0.0 <= score <= 1.0:
            raise DataFormatError(f"{where}: score {score} outside [0, 1]")
        if score < SCORE_FLOOR:
            return None
        box = box_of(require(rec, "box", where))
        if "mask_row" in rec:
            mask = blob_row(rec, where, image_id, "mask_row", mask_runs, ".runs")
        else:
            mask = _mask_from_json(require(rec, "mask", where))
            if (mask.width, mask.height) != (width, height):
                raise DataFormatError(f"{where}: mask dims do not match image dims")
        if mask.area == 0:
            mask, ok = box_to_full_mask(box, width, height)
            if not ok:
                raise DataFormatError(f"{where}: empty mask and box covers no pixel, "
                                      "record unusable")
        feature = rec.get("feature")
        if "feature_row" in rec:
            feature = blob_row(rec, where, image_id, "feature_row", features, ".pfeat")
        elif feature is not None:
            feature = np.asarray(_json_numbers(feature, "feature value"), dtype=np.float64)
            _check_features(feature[None], lambda _: f"{where}: ")
            feature_dims.add(feature.size)
        elif image_id not in feature_maps:
            raise DataFormatError(f"{where}: no feature, and its image has no feature map")
        return image_id, ProposalRecord(box=box, mask=mask, upn_score=score, feature=feature)

    proposals = {}
    file = base / doc["proposals"]
    for lineno, line in enumerate(file.read_text(encoding="utf-8").split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{file}:{lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{where}: invalid JSON ({exc})") from exc
        with _invalid_as_format_error(where, "proposal record"):
            parsed = parse(rec, where)
        if parsed is not None:
            proposals.setdefault(parsed[0], []).append(parsed[1])
    if len(feature_dims) > 1:
        raise DataFormatError(
            f"inconsistent feature dimensions across inputs: {sorted(feature_dims)}")
    for image_id, recs in proposals.items():
        best = sorted(range(len(recs)), key=lambda i: (-recs[i].upn_score, i))
        proposals[image_id] = [recs[i] for i in sorted(best[:MAX_PROPOSALS_PER_IMAGE])]
    return proposals

