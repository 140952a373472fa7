"""Metamorphic relations: transforms of a dataset whose detections must come
out the same, bit for bit, once ids, classes and boxes are mapped back.  They
need no ground truth and no oracle, so they check every method on any corpus."""

from collections import Counter
from dataclasses import replace

import pytest

from protodet.generator import GeneratorConfig, generate_dataset
from protodet.geometry import BinaryMask, BoundingBox
from protodet.interchange import ImageInfo, load_dataset
from protodet.pipeline import METHODS, PipelineConfig, run_end_to_end

# the overlap regime of the benchmark: fragment and whole scores overlap and
# features are noisy, so the methods disagree and nAP is not saturated
OVERLAP = dict(feature_noise=0.6, allow_score_overlap=True,
               fragment_score_range=(0.05, 0.7), whole_score_range=(0.3, 0.95))
CORPORA = {
    "precomputed": GeneratorConfig(seed=4, images=5, objects_per_image=(3, 3),
                                   fragments_per_object=(6, 6), distractors_per_image=(2, 2),
                                   **OVERLAP),
    "feature-maps": GeneratorConfig(seed=5, images=5, objects_per_image=(2, 3),
                                    fragments_per_object=(4, 6), query_feature_maps=True,
                                    **OVERLAP),
}


@pytest.fixture(scope="module", params=list(CORPORA))
def corpus(request, tmp_path_factory):
    """A generated dataset, and its detections by each method."""
    manifest = generate_dataset(CORPORA[request.param], tmp_path_factory.mktemp("ds") / "ds")
    dataset = load_dataset(manifest)
    detections = {method: _detections(dataset, method) for method in METHODS}
    # overlapping proposals, so that suppression has something to decide
    assert sum(map(len, detections["none"].values())) > sum(map(len, detections["nms"].values()))
    return dataset, detections


def _detections(dataset, method):
    return run_end_to_end(dataset, PipelineConfig(method=method))[0]


def _multisets(detections, image_id=lambda i: i, class_id=lambda c: c, scale=1.0):
    """Each image's detections as a multiset of exact (class, score, box)
    keys, with the image id, class id and box coordinates mapped back."""
    return {image_id(i): Counter((class_id(d.class_id), d.score.hex(),
                                  *((v / scale).hex() for v in d.box.as_tuple()))
                                 for d in dets)
            for i, dets in detections.items()}


def _assert_same_detections(corpus, transformed, **back):
    _, expected = corpus
    for method in METHODS:
        got = _multisets(_detections(transformed, method), **back)
        assert got == _multisets(expected[method]), method


def test_renaming_every_image_id(corpus):
    dataset, _ = corpus
    # reverses the images' sort order as well as changing every id
    new = {im.image_id: f"renamed-{len(dataset.images) - k:03d}"
           for k, im in enumerate(dataset.images)}
    old = {v: k for k, v in new.items()}
    renamed = replace(
        dataset,
        images=[replace(im, image_id=new[im.image_id]) for im in dataset.images],
        supports=[replace(s, image_id=new[s.image_id]) for s in dataset.supports],
        proposals={new[i]: props for i, props in dataset.proposals.items()},
        ground_truth=[replace(g, image_id=new[g.image_id]) for g in dataset.ground_truth],
        feature_maps={new[i]: fm for i, fm in dataset.feature_maps.items()},
    )
    _assert_same_detections(corpus, renamed, image_id=old.__getitem__)


def test_permuting_class_ids(corpus):
    dataset, _ = corpus
    n = dataset.num_classes
    assert n > 2
    perm = [(c + 1) % n for c in range(n)]  # moves every class
    permuted = replace(
        dataset,
        supports=[replace(s, class_id=perm[s.class_id]) for s in dataset.supports],
        ground_truth=[replace(g, class_id=perm[g.class_id]) for g in dataset.ground_truth],
    )
    _assert_same_detections(corpus, permuted, class_id=perm.index)


def _upscaled_mask(mask):
    """``mask`` at twice the size, each pixel replicated into a 2x2 block."""
    return BinaryMask.from_array(mask.to_array().repeat(2, axis=0).repeat(2, axis=1))


def _upscaled_box(box):
    return BoundingBox(*(2.0 * v for v in box.as_tuple()))


def test_integer_upscaling_by_two(corpus):
    # feature maps keep their grids: only the pixel frame doubles
    dataset, _ = corpus
    upscaled = replace(
        dataset,
        images=[ImageInfo(im.image_id, 2 * im.width, 2 * im.height) for im in dataset.images],
        supports=[replace(s, box=_upscaled_box(s.box), mask=_upscaled_mask(s.mask))
                  for s in dataset.supports],
        proposals={i: [replace(p, box=_upscaled_box(p.box), mask=_upscaled_mask(p.mask))
                       for p in props] for i, props in dataset.proposals.items()},
        ground_truth=[replace(g, box=_upscaled_box(g.box)) for g in dataset.ground_truth],
    )
    _assert_same_detections(corpus, upscaled, scale=2.0)
