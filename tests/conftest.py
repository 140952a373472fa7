from dataclasses import replace

import numpy as np
import pytest

from protodet.diffusion import Proposal
from protodet.features import cosine
from protodet.generator import GeneratorConfig, generate_dataset
from protodet.geometry import BinaryMask, BoundingBox, coverage_matrix
from protodet.interchange import load_dataset

# The fixed-seed corpus the acceptance criteria are calibrated against.
ACCEPTANCE_CFG = GeneratorConfig(
    seed=17,
    images=50,
    classes=3,
    objects_per_image=(2, 4),
    fragments_per_object=(3, 6),
)


@pytest.fixture(scope="session")
def acceptance_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_corpus")
    return generate_dataset(ACCEPTANCE_CFG, out / "ds")


@pytest.fixture(scope="session")
def acceptance_dataset(acceptance_manifest):
    return load_dataset(acceptance_manifest)


def random_mask(rng, size=24):
    """Random non-empty rectangle mask on a size x size raster."""
    x1 = int(rng.integers(0, size - 1))
    y1 = int(rng.integers(0, size - 1))
    x2 = int(rng.integers(x1 + 1, size + 1))
    y2 = int(rng.integers(y1 + 1, size + 1))
    arr = np.zeros((size, size), dtype=bool)
    arr[y1:y2, x1:x2] = True
    return BinaryMask.from_array(arr), (x1, y1, x2, y2)


def random_class_props(rng, n, class_id=0, size=24, scores=None):
    """n same-class proposals with random rectangle masks and random scores."""
    props = []
    for k in range(n):
        mask, (x1, y1, x2, y2) = random_mask(rng, size)
        score = float(scores[k]) if scores is not None else float(rng.uniform(0.02, 0.98))
        props.append(
            Proposal(
                box=BoundingBox(float(x1), float(y1), float(x2), float(y2)),
                mask=mask,
                upn_score=score,
                pred_class=class_id,
                similarity=float(rng.uniform(0.1, 1.0)),
            )
        )
    return props


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


def pool_one_box(fm, box, weights):
    """One box pooled under its (grid_h, grid_w) weights: the inclusive grid range
    by scaling, floor and ceil minus one, clamped; then the weighted mean, or the
    plain mean where the mask has no weight in the range."""
    sx, sy = fm.grid_w / fm.image_w, fm.grid_h / fm.image_h
    gx1 = int(np.floor(min(max(box.x1, 0.0), float(fm.image_w)) * sx))
    gy1 = int(np.floor(min(max(box.y1, 0.0), float(fm.image_h)) * sy))
    gx2 = int(np.ceil(min(max(box.x2, 0.0), float(fm.image_w)) * sx)) - 1
    gy2 = int(np.ceil(min(max(box.y2, 0.0), float(fm.image_h)) * sy)) - 1
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
    n = len(props)
    coverage = coverage_matrix([p.mask for p in props])
    scores = np.array([p.upn_score for p in props], dtype=np.float64)
    edges = np.where(scores[:, None] > scores[None, :], 0.0, coverage)
    np.fill_diagonal(edges, 0.0)
    prior = edges.max(axis=1) if n > 1 else np.zeros(1)
    row_sums = edges.sum(axis=1)
    transition = np.zeros_like(edges)
    nonzero = row_sums > 0.0
    transition[nonzero] = edges[nonzero] / row_sums[nonzero, None]
    return coverage, edges, prior, transition


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
