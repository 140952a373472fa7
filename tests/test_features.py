import math
import tracemalloc

import numpy as np
import pytest

from oracles import cosine, match_one, pool_one_box
from protodet.features import (
    ClassPrototype,
    FeatureMap,
    build_prototypes,
    l2_normalize,
    map_box_to_grid,
    masked_roi_pool,
    match_proposal,
)
from protodet.geometry import BoundingBox


def _fm(data):
    return FeatureMap(data=np.asarray(data, dtype=np.float64))


class TestFeatureMap:
    def test_writable_input_stays_the_callers(self):
        d = np.zeros((2, 2, 2))
        fm = FeatureMap(d)
        d[0, 0, 0] = 1
        assert not fm.data.flags.writeable
        assert fm.data.tolist() == np.zeros((2, 2, 2)).tolist()

    def test_read_only_input_is_kept_without_a_copy(self):
        d = np.zeros((2, 2, 2))
        d.setflags(write=False)
        assert FeatureMap(d).data is d

    def test_f4_input_is_widened_once(self):
        # a read-only <f4 view, as a feature-map blob is read: the float64
        # conversion is its only allocation
        d = np.frombuffer(np.arange(2**16, dtype="<f4").tobytes(), dtype="<f4").reshape(4, 128, 128)
        tracemalloc.start()
        try:
            fm = FeatureMap(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fm.data.dtype == np.float64 and not fm.data.flags.writeable
        assert fm.data.tolist() == d.tolist()
        assert peak < 1.25 * fm.data.nbytes


class TestMapBoxToGrid:
    def test_full_image_box_covers_full_grid(self):
        fm = _fm(np.zeros((2, 7, 9)))
        assert map_box_to_grid([BoundingBox(0, 0, 90, 70)], fm, 90, 70).tolist() == [[0, 0, 8, 6]]

    def test_single_patch_box(self):
        fm = _fm(np.zeros((1, 45, 45)))
        assert map_box_to_grid([BoundingBox(0, 0, 14, 14)], fm, 630, 630).tolist() == [[0, 0, 0, 0]]

    def test_scale_floor_ceil_rule_by_hand(self):
        # scale 45/630 = 1/14:
        #   x: floor(100/14) = 7 .. ceil(300/14) - 1 = 21
        #   y: floor(200/14) = 14 .. ceil(400/14) - 1 = 28
        fm = _fm(np.zeros((1, 45, 45)))
        got = map_box_to_grid([BoundingBox(100, 200, 300, 400)], fm, 630, 630)
        assert got.tolist() == [[7, 14, 21, 28]]

    def test_range_never_empty(self):
        fm = _fm(np.zeros((1, 4, 4)))
        gx1, gy1, gx2, gy2 = map_box_to_grid([BoundingBox(99.4, 99.4, 99.6, 99.6)], fm, 100, 100)[0]
        assert gx1 <= gx2 and gy1 <= gy2

    @pytest.mark.parametrize("width, height", [(0, 8), (8, 0), (-1, -1)])
    def test_image_without_pixels_rejected(self, width, height):
        fm = _fm(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="image dims must be >= 1"):
            map_box_to_grid([BoundingBox(0, 0, 1, 1)], fm, width, height)
        with pytest.raises(ValueError, match="image dims must be >= 1"):
            masked_roi_pool(fm, [BoundingBox(0, 0, 1, 1)], np.ones((1, 2, 2)), width, height)


class TestMaskedRoiPool:
    def test_constant_map_pools_to_constant(self):
        fm = _fm(np.full((3, 4, 4), 2.5))
        (vec,) = masked_roi_pool(fm, [BoundingBox(0, 0, 8, 8)], np.eye(4)[None] * 0.5, 8, 8)
        np.testing.assert_allclose(vec, [2.5, 2.5, 2.5])

    def test_single_cell_mask_selects_that_column(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((5, 3, 3))
        fm = _fm(data)
        w = np.zeros((3, 3)); w[1, 2] = 1.0
        (vec,) = masked_roi_pool(fm, [BoundingBox(0, 0, 9, 9)], w[None], 9, 9)
        np.testing.assert_allclose(vec, data[:, 1, 2])

    def test_two_selected_cells_average(self):
        data = np.zeros((2, 2, 2))
        data[:, 0, 0] = [1.0, 3.0]
        data[:, 0, 1] = [5.0, 7.0]
        fm = _fm(data)
        w = np.array([[1.0, 1.0], [0.0, 0.0]])
        (vec,) = masked_roi_pool(fm, [BoundingBox(0, 0, 2, 2)], w[None], 2, 2)
        np.testing.assert_allclose(vec, [3.0, 5.0])

    def test_all_ones_mask_equals_unweighted_mean(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            c = int(rng.integers(1, 6))
            gh = int(rng.integers(1, 8))
            gw = int(rng.integers(1, 8))
            data = rng.standard_normal((c, gh, gw))
            fm = _fm(data)
            x = np.sort(rng.uniform(0, gw * 10, size=2))
            y = np.sort(rng.uniform(0, gh * 10, size=2))
            box = BoundingBox(x[0], y[0], x[1] + 1e-3, y[1] + 1e-3)
            weights = np.ones((1, gh, gw))
            gx1, gy1, gx2, gy2 = map_box_to_grid([box], fm, gw * 10, gh * 10)[0]
            expected = data[:, gy1 : gy2 + 1, gx1 : gx2 + 1].mean(axis=(1, 2))
            got = masked_roi_pool(fm, [box], weights, gw * 10, gh * 10)[0]
            np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_zero_weight_falls_back_to_plain_mean(self, caplog):
        data = np.arange(8, dtype=float).reshape(2, 2, 2)
        fm = _fm(data)
        weights = np.zeros((1, 2, 2))
        with caplog.at_level("WARNING"):
            (vec,) = masked_roi_pool(fm, [BoundingBox(0, 0, 2, 2)], weights, 2, 2)
        assert "falling back" in caplog.text
        np.testing.assert_allclose(vec, data.mean(axis=(1, 2)))

    def test_dimension_mismatch_rejected(self):
        fm = _fm(np.zeros((1, 3, 3)))
        with pytest.raises(ValueError):
            masked_roi_pool(fm, [BoundingBox(0, 0, 3, 3)], np.ones((1, 2, 2)), 3, 3)


class TestOnePassAgainstPerItem:
    def test_pooling_equals_per_box_reference(self):
        rng = np.random.default_rng(1313)
        for _ in range(40):
            c, gh, gw = (int(v) for v in rng.integers(1, 8, size=3))
            fm = _fm(rng.standard_normal((c, gh, gw)))
            n = int(rng.integers(1, 12))
            weights = rng.uniform(0.0, 1.0, size=(n, gh, gw))
            weights[rng.random(n) < 0.3] = 0.0  # falls back to the plain mean
            weights[rng.random(n) < 0.3] = 1.0
            corners = rng.uniform(0.0, 1.2, size=(n, 4)) * ([gw * 7, gh * 5] * 2)  # some outside
            boxes = [BoundingBox(min(x1, x2), min(y1, y2), max(x1, x2) + 0.5, max(y1, y2) + 0.5)
                     for x1, y1, x2, y2 in corners]
            got = masked_roi_pool(fm, boxes, weights, gw * 7, gh * 5)
            assert got.shape == (n, c)
            for row, box, w in zip(got, boxes, weights):
                assert row.tobytes() == pool_one_box(fm, box, w, gw * 7, gh * 5).tobytes()

    def test_box_and_mask_counts_must_agree(self):
        fm = _fm(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="do not match 2 boxes"):
            masked_roi_pool(fm, [BoundingBox(0, 0, 1, 1)] * 2, np.ones((1, 2, 2)), 2, 2)

    def test_matching_equals_per_prototype_cosine(self):
        rng = np.random.default_rng(1414)
        for _ in range(30):
            dim, k = (int(v) for v in rng.integers(1, 6, size=2))
            vectors = rng.standard_normal((k, dim))
            ids = rng.permutation(np.arange(1, 20))[:k]
            # vectors[0] again under a lower and a higher class id: exact ties
            protos = [ClassPrototype(int(i), v, 1) for i, v in zip(ids, vectors)]
            protos += [ClassPrototype(99, vectors[0].copy(), 1),
                       ClassPrototype(0, vectors[0].copy(), 1)]
            feats = [*rng.standard_normal((int(rng.integers(0, 20)), dim)), vectors[0] * 3.0]
            got = match_proposal(feats, protos)
            assert got == [match_one(f, protos) for f in feats]
            assert got[-1][0] == 0

    def test_zero_vector_is_rejected(self):
        protos = [ClassPrototype(0, np.array([1.0, 0.0]), 1)]
        with pytest.raises(ValueError, match="zero vector"):
            match_proposal([np.array([1.0, 1.0]), np.zeros(2)], protos)
        with pytest.raises(ValueError, match="zero vector"):
            match_proposal([np.array([1.0, 1.0])], protos + [ClassPrototype(1, np.zeros(2), 1)])


class TestNormalizeAndCosine:
    def test_l2_normalize_examples(self):
        e1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(l2_normalize(e1), e1)
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8])
        with pytest.raises(ValueError):
            l2_normalize(np.zeros(4))

    def test_cosine_examples(self):
        v = np.array([0.3, -1.2, 2.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)
        assert cosine([1, 0], [0, 1]) == 0.0
        assert cosine(v, -v) == pytest.approx(-1.0, abs=1e-12)
        with pytest.raises(ValueError):
            cosine(v, np.zeros(3))

    def test_cosine_symmetry_and_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            a = rng.standard_normal(6)
            b = rng.standard_normal(6)
            assert cosine(a, b) == cosine(b, a)
            assert abs(cosine(a, b)) <= 1.0 + 1e-9


class TestPrototypes:
    def test_single_support_is_normalized_feature(self):
        protos = build_prototypes([(2, np.array([3.0, 4.0]))])
        assert len(protos) == 1 and protos[0].class_id == 2
        np.testing.assert_allclose(protos[0].vector, [0.6, 0.8])
        assert protos[0].support_count == 1

    def test_duplicate_features_match_single(self):
        f = np.array([1.0, 2.0, 2.0])
        one = build_prototypes([(0, f)])[0]
        two = build_prototypes([(0, f), (0, f.copy())])[0]
        np.testing.assert_allclose(one.vector, two.vector)
        assert two.support_count == 2

    def test_orthogonal_pair(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        proto = build_prototypes([(1, e1), (1, e2)])[0]
        np.testing.assert_allclose(proto.vector, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_matches_mean_then_normalize_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n_class = int(rng.integers(1, 4))
            pairs = []
            expected = {}
            for c in range(n_class):
                feats = [rng.standard_normal(5) for _ in range(int(rng.integers(1, 5)))]
                pairs.extend((c, f) for f in feats)
                mean = sum(feats) / len(feats)
                expected[c] = mean / np.linalg.norm(mean)
            protos = build_prototypes(pairs)
            assert [p.class_id for p in protos] == sorted(expected)
            for p in protos:
                np.testing.assert_allclose(p.vector, expected[p.class_id], atol=1e-12)


class TestMatchProposal:
    def _protos(self, vectors):
        return [
            ClassPrototype(class_id=i, vector=np.asarray(v, dtype=float), support_count=1)
            for i, v in enumerate(vectors)
        ]

    def test_exact_prototype_match(self):
        protos = self._protos(np.eye(4))
        ((cls, sim),) = match_proposal([np.array([0.0, 0.0, 0.0, 1.0])], protos)
        assert cls == 3
        assert sim == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_query_ties_to_lowest_class(self):
        protos = self._protos([[1, 0, 0], [0, 1, 0]])
        ((cls, sim),) = match_proposal([np.array([0.0, 0.0, 5.0])], protos)
        assert (cls, sim) == (0, 0.0)

    def test_mixture_query_by_hand(self):
        # fq = normalize(0.9 p0 + 0.1 p1): cos to p0 is 0.9 / sqrt(0.82)
        protos = self._protos([[1, 0], [0, 1]])
        fq = np.array([0.9, 0.1]) / math.sqrt(0.82)
        ((cls, sim),) = match_proposal([fq], protos)
        assert cls == 0
        assert sim == pytest.approx(0.9 / math.sqrt(0.82), abs=1e-12)

    def test_argmax_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(8)
        protos = self._protos([l for l in np.linalg.qr(rng.standard_normal((5, 5)))[0].T])
        for _ in range(100):
            fq = rng.standard_normal(5)
            scaled = fq * float(rng.uniform(0.1, 50.0))
            (cls, _), (scaled_cls, _) = match_proposal([fq, scaled], protos)
            assert cls == scaled_cls

    def test_empty_prototypes_rejected(self):
        with pytest.raises(ValueError):
            match_proposal([np.ones(3)], [])
