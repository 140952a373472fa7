import json
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import ACCEPTANCE_CFG
from oracles import (cosine, downsample_by_decoding, match_one, pool_one_box,
                     soft_merge_of_detections)
from protodet.cli import main
from protodet.diffusion import DiffusionParams, Proposal
from protodet.errors import PipelineError
from protodet.features import ClassPrototype, FeatureMap, SupportAnnotation, build_prototypes
from protodet.generator import GeneratorConfig, generate_dataset, planted_prototypes
from protodet.geometry import BinaryMask, BoundingBox
from protodet.interchange import Dataset, ImageInfo, ProposalRecord, load_dataset, write_dataset
from protodet.pipeline import (
    METHODS,
    PipelineConfig,
    QueryImage,
    run_end_to_end,
    run_query_stage,
    run_refine_stage,
    run_support_stage,
)
from protodet.postproc import ScoredDetection


def _tiny_dataset(support_vec=(1.0, 0.0), feature=(1.0, 0.0), with_query_fmap=False):
    """One class, one support image with a flat feature map, one proposal."""
    dim = len(support_vec)
    data = np.tile(np.asarray(support_vec, dtype=float)[:, None, None], (1, 4, 4))
    fm = FeatureMap(data=data)
    mask = BinaryMask.from_array(np.ones((8, 8), dtype=bool))
    support = SupportAnnotation(
        image_id="sup0", box=BoundingBox(0, 0, 8, 8), class_id=0, mask=mask
    )
    from protodet.interchange import ImageInfo

    images = [ImageInfo("sup0", 8, 8), ImageInfo("q0", 8, 8)]
    rec = ProposalRecord(
        box=BoundingBox(0, 0, 8, 8),
        mask=mask,
        upn_score=0.9,
        feature=None if with_query_fmap else np.asarray(feature, dtype=float),
    )
    feature_maps = {"sup0": fm}
    if with_query_fmap:
        feature_maps["q0"] = fm
    return Dataset(
        num_classes=1,
        shots=1,
        images=images,
        supports=[support],
        proposals={"q0": [rec]},
        ground_truth=[],
        feature_maps=feature_maps,
    )


class TestSupportStage:
    def test_single_shot_prototype_is_normalized_pooled_feature(self):
        ds = _tiny_dataset(support_vec=(3.0, 4.0))
        protos = run_support_stage(ds)
        assert len(protos) == 1
        np.testing.assert_allclose(protos[0].vector, [0.6, 0.8], atol=1e-12)

    def test_duplicated_support_matches_single(self):
        ds = _tiny_dataset(support_vec=(3.0, 4.0))
        ds.supports.append(ds.supports[0])
        protos = run_support_stage(ds)
        np.testing.assert_allclose(protos[0].vector, [0.6, 0.8], atol=1e-12)
        assert protos[0].support_count == 2

    def test_missing_class_reported_with_ids(self):
        ds = _tiny_dataset()
        ds.num_classes = 3
        with pytest.raises(PipelineError, match=r"\[1, 2\]"):
            run_support_stage(ds)

    def test_declared_class_count_allocates_nothing(self):
        # a manifest may declare any num_classes; listing the missing ids must not
        # build a set of that size (10**12 would exhaust memory)
        ds = _tiny_dataset()
        ds.num_classes = 10**6
        tracemalloc.start()
        try:
            with pytest.raises(PipelineError, match=r"class ids \[1, 2, .*, 10\]"):
                run_support_stage(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_two_shot_planted_prototype_close_to_planted_direction(self, tmp_path):
        cfg = GeneratorConfig(seed=21, images=2, classes=2, shots=2)
        ds = load_dataset(generate_dataset(cfg, tmp_path / "ds"))
        protos = run_support_stage(ds)
        planted = planted_prototypes(cfg)
        assert [p.class_id for p in protos] == [0, 1]
        for p in protos:
            assert p.support_count == 2
            assert cosine(p.vector, planted[p.class_id]) >= 0.99


def _pool_per_item(fm, item):
    return pool_one_box(fm, item.box, downsample_by_decoding(item.mask, fm.grid_w, fm.grid_h),
                        item.mask.width, item.mask.height)


def _query_stage_per_proposal(dataset, prototypes):
    """The query stage with each proposal pooled and matched on its own, by the
    per-item references, as (feature bytes, class, similarity) per proposal."""
    out = {}
    for image_id in dataset.query_image_ids():
        rows = []
        for rec in dataset.proposals[image_id]:
            feature = rec.feature
            if feature is None:
                feature = _pool_per_item(dataset.feature_maps[image_id], rec)
            rows.append((feature.tobytes(), *match_one(feature, prototypes)))
        out[image_id] = rows
    return out


def _spy_on_matching(monkeypatch):
    """The features handed to each ``match_proposal`` call the query stage makes,
    one list per call (one call per image, in image order)."""
    import protodet.pipeline

    calls = []

    def spy(features, prototypes, _original=protodet.pipeline.match_proposal):
        calls.append(list(features))
        return _original(calls[-1], prototypes)

    monkeypatch.setattr(protodet.pipeline, "match_proposal", spy)
    return calls


@pytest.fixture(scope="module")
def mixed_fmap_dataset(tmp_path_factory):
    """Query features pooled from feature maps, except every other proposal of
    the first image, which carries a precomputed feature."""
    cfg = GeneratorConfig(seed=23, images=4, query_feature_maps=True)
    ds = load_dataset(generate_dataset(cfg, tmp_path_factory.mktemp("mixed_fmap") / "ds"))
    first = ds.query_image_ids()[0]
    rng = np.random.default_rng(23)
    ds.proposals[first] = [
        replace(rec, feature=rng.standard_normal(cfg.feature_dim)) if i % 2 else rec
        for i, rec in enumerate(ds.proposals[first])
    ]
    return ds


@pytest.fixture(scope="module")
def overlap_dataset(tmp_path_factory):
    """The compare-overlap regime: noisy features, overlapping fragment and
    whole scores, many fragments per object."""
    cfg = GeneratorConfig(seed=1, images=6, objects_per_image=(3, 3),
                          fragments_per_object=(11, 11), distractors_per_image=(2, 2),
                          image_size=128, grid_size=16, feature_noise=0.6,
                          allow_score_overlap=True, fragment_score_range=(0.05, 0.7),
                          whole_score_range=(0.3, 0.95))
    return load_dataset(generate_dataset(cfg, tmp_path_factory.mktemp("overlap") / "ds"))


class TestQueryStage:
    @pytest.mark.parametrize("corpus", ["acceptance_dataset", "mixed_fmap_dataset"])
    def test_one_pass_per_image_equals_per_proposal_stage(self, corpus, request, monkeypatch):
        ds = request.getfixturevalue(corpus)
        prototypes = run_support_stage(ds)
        want = build_prototypes((s.class_id, _pool_per_item(ds.feature_maps[s.image_id], s))
                                for s in ds.supports)
        assert [(p.class_id, p.vector.tobytes()) for p in prototypes] == [
            (p.class_id, p.vector.tobytes()) for p in want]
        matched = _spy_on_matching(monkeypatch)
        got = run_query_stage(ds, prototypes)
        assert {image_id: [(f.tobytes(), p.pred_class, p.similarity)
                           for f, p in zip(features, image.proposals, strict=True)]
                for (image_id, image), features in zip(got.items(), matched, strict=True)
                } == _query_stage_per_proposal(ds, prototypes)

    def test_each_layer_is_called_once_per_query_image(self, mixed_fmap_dataset, monkeypatch):
        # an image's masks are downsampled, pooled and matched in one call each
        import protodet.pipeline

        ds = mixed_fmap_dataset
        prototypes = run_support_stage(ds)
        sizes = {name: [] for name in ("mask_downsample", "masked_roi_pool", "match_proposal")}
        for name in sizes:
            def spy(*args, _original=getattr(protodet.pipeline, name), _name=name):
                sizes[_name].append(len(args[_name == "masked_roi_pool"]))
                return _original(*args)

            monkeypatch.setattr(protodet.pipeline, name, spy)
        run_query_stage(ds, prototypes)
        counts = [len(ds.proposals[i]) for i in ds.query_image_ids()]
        pooled = [sum(r.feature is None for r in ds.proposals[i]) for i in ds.query_image_ids()]
        assert min(counts) > 0 and pooled[0] < counts[0]
        assert sizes == {"mask_downsample": pooled, "masked_roi_pool": pooled,
                         "match_proposal": counts}

    def test_zero_weight_warnings_name_the_image_and_proposal(self, caplog, monkeypatch):
        ds = _tiny_dataset(support_vec=(3.0, 4.0), with_query_fmap=True)
        # the mask's one pixel lies outside the box's grid cell
        corner, box = BinaryMask(8, 8, (63, 1)), BoundingBox(0, 0, 2, 2)
        rec = ds.proposals["q0"][0]
        ds.proposals["q0"] = [replace(rec, feature=np.array([1.0, 0.0])),
                              replace(rec, mask=corner, box=box)]
        ds.supports.append(replace(ds.supports[0], mask=corner, box=box))
        matched = _spy_on_matching(monkeypatch)
        with caplog.at_level("WARNING", logger="protodet.features"):
            protos = run_support_stage(ds)
            run_query_stage(ds, protos)
        ((_, pooled),) = matched  # q0's two features
        assert [r.getMessage().split(": mask contributes zero weight")[0] for r in caplog.records
                ] == ["image 'sup0' support 1", "image 'q0' proposal 1"]
        assert all("falling back to unweighted mean" in r.getMessage() for r in caplog.records)
        # the fallback is the plain mean over the box's cell: the flat map's vector
        np.testing.assert_allclose(protos[0].vector, [0.6, 0.8], atol=1e-12)
        np.testing.assert_allclose(pooled, [3.0, 4.0], atol=1e-12)

    def test_matched_proposals_keep_no_feature_vectors(self, tmp_path):
        # Refinement reads a proposal's box, mask, objectness, class and
        # similarity only.  A pooled feature is a row of the image's (n, C)
        # pooled array, which it would keep alive: 4 KiB per proposal at C = 512.
        cfg = GeneratorConfig(seed=1, images=4, feature_dim=512, query_feature_maps=True)
        ds = load_dataset(generate_dataset(cfg, tmp_path / "ds"))
        prototypes = run_support_stage(ds)
        run_query_stage(ds, prototypes)  # pays for lazy imports and first-call caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            images = run_query_stage(ds, prototypes)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n = sum(len(image.proposals) for image in images.values())
        assert n == sum(len(recs) for recs in ds.proposals.values()) > 0
        assert retained < 1024 * n

    def test_planted_feature_matches_its_class_exactly(self):
        ds = _tiny_dataset()
        protos = [
            ClassPrototype(class_id=0, vector=np.array([1.0, 0.0]), support_count=1),
            ClassPrototype(class_id=1, vector=np.array([0.0, 1.0]), support_count=1),
        ]
        props = run_query_stage(ds, protos)
        (p,) = props["q0"].proposals
        assert p.pred_class == 0
        assert p.similarity == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_feature_ties_to_lowest_class(self):
        ds = _tiny_dataset(feature=(0.0, 1.0))
        protos = [
            ClassPrototype(class_id=0, vector=np.array([1.0, 0.0]), support_count=1),
            ClassPrototype(class_id=2, vector=np.array([1.0, 0.0]), support_count=1),
        ]
        (p,) = run_query_stage(ds, protos)["q0"].proposals
        assert p.pred_class == 0 and p.similarity == 0.0

    def test_pooled_path_used_when_no_precomputed_feature(self):
        ds = _tiny_dataset(support_vec=(1.0, 0.0), with_query_fmap=True)
        protos = run_support_stage(ds)
        (p,) = run_query_stage(ds, protos)["q0"].proposals
        assert p.similarity == pytest.approx(1.0, abs=1e-9)

    def test_missing_feature_and_map_is_pipeline_error(self):
        ds = _tiny_dataset(with_query_fmap=True)
        del ds.feature_maps["q0"]
        protos = [ClassPrototype(class_id=0, vector=np.array([1.0, 0.0]), support_count=1)]
        with pytest.raises(PipelineError, match="q0"):
            run_query_stage(ds, protos)

    def test_matches_brute_force_cosine_argmax(self, acceptance_dataset):
        protos = run_support_stage(acceptance_dataset)
        props = run_query_stage(acceptance_dataset, protos)
        image_id = acceptance_dataset.query_image_ids()[0]
        for rec, p in zip(acceptance_dataset.proposals[image_id], props[image_id].proposals):
            sims = [cosine(rec.feature, q.vector) for q in protos]
            best = max(range(len(sims)), key=lambda i: (sims[i], -protos[i].class_id))
            assert p.pred_class == protos[best].class_id
            assert p.similarity == pytest.approx(sims[best], abs=1e-12)


class TestRefineStage:
    def test_lambda_zero_diffusion_equals_none_bit_for_bit(self, acceptance_dataset):
        protos = run_support_stage(acceptance_dataset)
        props = run_query_stage(acceptance_dataset, protos)
        cfg_none = PipelineConfig(method="none")
        cfg_l0 = PipelineConfig(
            method="diffusion", diffusion=DiffusionParams(lam=0.0)
        )
        dets_none = run_refine_stage(props, cfg_none)
        dets_l0 = run_refine_stage(props, cfg_l0)
        for image_id in dets_none:
            a = [(d.box.as_tuple(), d.class_id, d.score) for d in dets_none[image_id]]
            b = [(d.box.as_tuple(), d.class_id, d.score) for d in dets_l0[image_id]]
            assert a == b

    def test_two_node_fragment_decays_by_alpha_to_lambda(self):
        ds = _tiny_dataset()
        full = BinaryMask.from_array(np.ones((8, 8), dtype=bool))
        half_arr = np.zeros((8, 8), dtype=bool)
        half_arr[:, :4] = True
        half = BinaryMask.from_array(half_arr)
        ds.proposals["q0"] = [
            ProposalRecord(BoundingBox(0, 0, 8, 8), full, 0.9, np.array([1.0, 0.0])),
            ProposalRecord(BoundingBox(0, 0, 4, 8), half, 0.5, np.array([1.0, 0.0])),
        ]
        protos = [ClassPrototype(class_id=0, vector=np.array([1.0, 0.0]), support_count=1)]
        props = run_query_stage(ds, protos)
        alpha, lam = 0.3, 0.5
        cfg = PipelineConfig(method="diffusion", diffusion=DiffusionParams(alpha=alpha, lam=lam))
        dets = run_refine_stage(props, cfg)["q0"]
        by_box = {d.box.as_tuple(): d.score for d in dets}
        whole_sim = props["q0"].proposals[0].similarity
        frag_sim = props["q0"].proposals[1].similarity
        assert by_box[(0, 0, 8, 8)] == whole_sim
        assert by_box[(0, 0, 4, 8)] == (1.0 - (1.0 - alpha)) ** lam * frag_sim

    def test_diffusion_plus_nms_is_nms_of_diffusion(self, acceptance_dataset):
        from protodet.postproc import nms

        protos = run_support_stage(acceptance_dataset)
        props = run_query_stage(acceptance_dataset, protos)
        diffused = run_refine_stage(props, PipelineConfig(method="diffusion", max_output=1000))
        composed = run_refine_stage(props, PipelineConfig(method="diffusion+nms", max_output=1000))
        for image_id in composed:
            expected = nms(diffused[image_id], 0.5)
            got = composed[image_id]
            assert [(d.box.as_tuple(), d.score) for d in got] == [
                (d.box.as_tuple(), d.score) for d in expected
            ]

    def test_max_output_caps_detections_per_image(self, acceptance_dataset):
        protos = run_support_stage(acceptance_dataset)
        props = run_query_stage(acceptance_dataset, protos)
        dets = run_refine_stage(props, PipelineConfig(method="none", max_output=3))
        assert all(len(v) <= 3 for v in dets.values())

    @pytest.mark.parametrize("corpus", ["acceptance_dataset", "overlap_dataset"])
    def test_softmerge_equals_the_two_input_reference(self, corpus, request):
        ds = request.getfixturevalue(corpus)
        images = run_query_stage(ds, run_support_stage(ds))
        cfg = PipelineConfig(method="softmerge")
        zeroed = 0
        for image in images.values():
            raw = [ScoredDetection(box=p.box, class_id=p.pred_class, score=p.similarity)
                   for p in image.proposals]
            got = METHODS["softmerge"](image, cfg)
            assert got == soft_merge_of_detections(raw, image.graphs)
            zeroed += sum(d.score == 0.0 for d in got)
        assert zeroed > 0  # some fragment is swallowed whole

    def test_all_methods_run(self, acceptance_dataset):
        protos = run_support_stage(acceptance_dataset)
        props = run_query_stage(acceptance_dataset, protos)
        for method in METHODS:
            dets = run_refine_stage(props, PipelineConfig(method=method))
            assert set(dets) == set(props)


    def test_class_graphs_retain_one_n_by_n_array(self):
        # A QueryImage keeps its class graphs for every method and sweep cell
        # it serves, so a graph should hold its coverage matrix and nothing of
        # the same size that can be derived from it.
        n, side = 160, 16
        image = QueryImage(tuple(  # nested: each mask is a prefix of the next one
            Proposal(box=BoundingBox(0, 0, side, side),
                     mask=BinaryMask(side, side, (0, k + 1, side * side - k - 1)),
                     upn_score=0.1 + 0.005 * k, pred_class=0, similarity=0.5)
            for k in range(n)
        ))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graphs = image.graphs
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert [len(g.node_ids) for g in graphs.values()] == [n]
        assert retained < 2 * n * n * 8


class TestEndToEnd:
    def test_noiseless_fragment_free_corpus_is_perfect_with_lambda_zero(self, tmp_path):
        cfg = GeneratorConfig(
            seed=3, images=8, feature_noise=0.0, fragments_per_object=(0, 0)
        )
        manifest = generate_dataset(cfg, tmp_path / "ds")
        _, report = run_end_to_end(
            manifest, PipelineConfig(method="diffusion", diffusion=DiffusionParams(lam=0.0))
        )
        assert report.nap50 == 1.0

    def test_diffusion_beats_none_on_fragmented_corpus(self, acceptance_dataset):
        _, rep_diff = run_end_to_end(acceptance_dataset, PipelineConfig(method="diffusion"))
        _, rep_none = run_end_to_end(acceptance_dataset, PipelineConfig(method="none"))
        assert rep_diff.nap50 > rep_none.nap50

    def test_rerun_is_identical(self, acceptance_dataset):
        cfg = PipelineConfig(method="diffusion")
        _, r1 = run_end_to_end(acceptance_dataset, cfg)
        _, r2 = run_end_to_end(acceptance_dataset, cfg)
        assert r1 == r2

    def test_parallel_jobs_match_sequential(self, acceptance_dataset):
        dets1, rep1 = run_end_to_end(acceptance_dataset, PipelineConfig(jobs=1))
        dets8, rep8 = run_end_to_end(acceptance_dataset, PipelineConfig(jobs=8))
        assert rep1 == rep8
        assert set(dets1) == set(dets8)
        for image_id in dets1:
            a = [(d.box.as_tuple(), d.class_id, d.score) for d in dets1[image_id]]
            b = [(d.box.as_tuple(), d.class_id, d.score) for d in dets8[image_id]]
            assert a == b

    def test_every_layer_call_runs_on_the_calling_thread(self, acceptance_dataset,
                                                         monkeypatch):
        import protodet.pipeline
        import protodet.postproc

        threads = {"match_proposal": [], "nms": []}
        for module, name in ((protodet.pipeline, "match_proposal"),
                             (protodet.postproc, "nms")):
            original = getattr(module, name)

            def traced(*args, _original=original, _name=name, **kwargs):
                threads[_name].append(threading.get_ident())
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, traced)
        run_end_to_end(acceptance_dataset, PipelineConfig(method="diffusion+nms", jobs=4))
        assert all(threads.values())
        assert {t for calls in threads.values() for t in calls} == {threading.get_ident()}

    @pytest.mark.parametrize("corpus", ["acceptance_dataset", "mixed_fmap_dataset"])
    def test_written_copy_runs_like_the_dataset_in_memory(self, corpus, request, tmp_path):
        ds = request.getfixturevalue(corpus)
        cfg = PipelineConfig()
        assert (run_end_to_end(load_dataset(write_dataset(ds, tmp_path / "ds")), cfg)
                == run_end_to_end(ds, cfg))

    def test_validates_config(self):
        with pytest.raises(ValueError):
            PipelineConfig(method="magic")
        with pytest.raises(ValueError):
            PipelineConfig(max_output=0)
        with pytest.raises(ValueError):
            PipelineConfig(jobs=0)


def _embed(mask, width, height):
    """The same pixels in the top-left corner of a width x height raster, built
    from the pixel indices without a width x height array."""
    ys, xs = np.nonzero(mask.to_array())
    flat = ys.astype(np.int64) * width + xs
    gaps = np.flatnonzero(np.diff(flat) != 1) + 1
    starts = flat[np.concatenate(([0], gaps))]
    ends = flat[np.concatenate((gaps - 1, [flat.size - 1]))] + 1
    bounds = np.concatenate(([0], np.column_stack((starts, ends)).ravel(), [width * height]))
    return BinaryMask(width, height, tuple(np.diff(bounds).tolist()))


class TestDeclaredDimensions:
    SIDE = 100_000  # a W*H byte array would be 9.3 GiB

    @classmethod
    def _declared_huge(cls, small, out):
        """``small`` with every query image declared SIDE x SIDE and its masks
        embedded, written to ``out``; returns the manifest path.  A query
        image's feature map takes its image dimensions from the manifest."""
        queries = set(small.query_image_ids())
        huge = replace(
            small,
            images=[ImageInfo(i.image_id, cls.SIDE, cls.SIDE) if i.image_id in queries else i
                    for i in small.images],
            proposals={image_id: [replace(r, mask=_embed(r.mask, cls.SIDE, cls.SIDE)) for r in recs]
                       for image_id, recs in small.proposals.items()},
        )
        return write_dataset(huge, out)

    @pytest.fixture(scope="class")
    def corpora(self, tmp_path_factory):
        """A small corpus with precomputed query features, and the same corpus
        declared huge."""
        tmp = tmp_path_factory.mktemp("declared_dims")
        small = load_dataset(generate_dataset(GeneratorConfig(seed=17, images=3), tmp / "small"))
        return small, load_dataset(self._declared_huge(small, tmp / "huge"))

    @pytest.fixture(scope="class")
    def fmap_corpus(self, tmp_path_factory):
        """A corpus whose query features are pooled from feature maps, declared huge."""
        tmp = tmp_path_factory.mktemp("declared_dims_fmap")
        cfg = GeneratorConfig(seed=17, images=3, query_feature_maps=True)
        small = load_dataset(generate_dataset(cfg, tmp / "small"))
        return load_dataset(self._declared_huge(small, tmp / "huge"))

    @pytest.mark.parametrize("method", ["diffusion", "softmerge"])
    def test_run_memory_is_bounded_by_the_runs(self, corpora, method):
        small, huge = corpora
        cfg = PipelineConfig(method=method)
        tracemalloc.start()
        try:
            dets, report = run_end_to_end(huge, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**21
        small_dets, small_report = run_end_to_end(small, cfg)
        assert report == small_report
        assert {k: [(d.box, d.score) for d in v] for k, v in dets.items()} == {
            k: [(d.box, d.score) for d in v] for k, v in small_dets.items()}

    def test_image_over_2_53_pixels_is_data_error(self, corpora, tmp_path, capsys):
        # pixel counts of 10**20 would overflow the kernels' int64 arithmetic; no
        # int64 run can reach across such an image, so only its manifest declares it
        small, _ = corpora
        manifest = write_dataset(small, tmp_path / "ds")
        doc = json.loads(manifest.read_text())
        for image in doc["images"]:
            if image["id"] in small.query_image_ids():
                image["width"] = image["height"] = 10**10
        manifest.write_text(json.dumps(doc))
        assert main(["run", str(manifest), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(manifest) in err and repr(small.query_image_ids()[0]) in err

    def test_feature_map_run_memory_is_bounded_by_the_runs(self, fmap_corpus):
        queries = fmap_corpus.query_image_ids()
        assert queries and all(rec.mask.width == self.SIDE
                               for i in queries for rec in fmap_corpus.proposals[i])
        tracemalloc.start()
        try:
            dets, report = run_end_to_end(fmap_corpus, PipelineConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**21
        assert sorted(dets) == sorted(queries) and report.det_count > 0
