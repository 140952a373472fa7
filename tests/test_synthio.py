import contextlib
import hashlib
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import ACCEPTANCE_CFG
from protodet.errors import DataFormatError
from protodet import generator
from protodet.cli import main
from protodet.evaluation import GroundTruthBox, evaluate
from protodet.features import ClassPrototype, FeatureMap
from protodet.generator import GeneratorConfig, generate_dataset, planted_prototypes
from protodet.geometry import BinaryMask, BoundingBox, mask_coverage
from protodet.interchange import (
    Dataset,
    ImageInfo,
    export_run,
    load_dataset,
    load_detections,
    load_prototypes,
    read_feature_map,
    save_prototypes,
    write_dataset,
    write_feature_map,
)
from protodet.pipeline import run_support_stage
from protodet.postproc import ScoredDetection


def _dir_digest(root):
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _write_manifest(tmp_path, manifest=None, supports=(), proposals=(), gts=(), images=None):
    if images is None:
        images = [{"id": "q0", "width": 8, "height": 8}]
    doc = {
        "format_version": 1,
        "num_classes": 1,
        "shots": 1,
        "images": images,
        "supports": "supports.jsonl",
        "proposals": "proposals.jsonl",
        "ground_truth": "ground_truth.jsonl",
        "feature_maps": {},
    }
    if manifest:
        doc.update(manifest)
    for name, rows in (
        ("supports.jsonl", supports),
        ("proposals.jsonl", proposals),
        ("ground_truth.jsonl", gts),
    ):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in rows))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


def _proposal_row(score, image_id="q0", w=8, h=8, runs=None, feature=(1.0, 0.0)):
    return {
        "image_id": image_id,
        "box": [0.0, 0.0, 4.0, 4.0],
        "score": score,
        "mask": {"w": w, "h": h, "counts": runs if runs is not None else [0, w * h]},
        "feature": list(feature),
    }


def _write_pfeat(path, matrix, magic=b"PFEA", version=1):
    matrix = np.asarray(matrix, dtype="<f8")
    path.write_bytes(struct.pack("<4sIII", magic, version, *matrix.shape) + matrix.tobytes())


def _blob_row(k, score=0.5):
    row = _proposal_row(score)
    del row["feature"]
    row["feature_row"] = k
    return row


def _blob_manifest(tmp_path, matrix=((1.0, 0.0), (0.0, 1.0)), rows=(0, 1), **blob):
    """A one-image dataset whose proposals name rows of ``q0.pfeat``."""
    _write_pfeat(tmp_path / "q0.pfeat", matrix, **blob)
    return _write_manifest(tmp_path, manifest={"proposal_features": {"q0": "q0.pfeat"}},
                           proposals=[_blob_row(k) for k in rows])


def _assert_data_error(path, tmp_path, pattern):
    """``load_dataset`` raises a DataFormatError matching ``pattern``, and ``run``
    exits 3 on the dataset without writing anything."""
    with pytest.raises(DataFormatError, match=pattern):
        load_dataset(path)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 3
    assert not out.exists()


# A tab splits a detections.tsv row into columns, and each of the others is a
# line break to ``str.splitlines``, which ``load_detections`` reads rows with.
_ROW_BREAKERS = ["\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


class TestFeatureMapBlob:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((5, 3, 4)).astype(np.float32).astype(np.float64)
        fm = FeatureMap(data=data, image_w=40, image_h=30)
        path = tmp_path / "x.fmap"
        write_feature_map(path, fm)
        assert path.stat().st_size == 16 + 4 * 5 * 3 * 4
        back = read_feature_map(path, 40, 30)
        np.testing.assert_array_equal(back.data, data)
        assert (back.image_w, back.image_h) == (40, 30)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.fmap"
        path.write_bytes(b"JUNK" + b"\0" * 28)
        with pytest.raises(DataFormatError):
            read_feature_map(path, 4, 4)

    def test_truncated_body_rejected(self, tmp_path):
        rng = np.random.default_rng(0)
        fm = FeatureMap(data=rng.standard_normal((2, 2, 2)), image_w=4, image_h=4)
        path = tmp_path / "x.fmap"
        write_feature_map(path, fm)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataFormatError):
            read_feature_map(path, 4, 4)


class TestGeneratorConfig:
    def test_score_ranges_must_be_separated(self):
        with pytest.raises(ValueError):
            GeneratorConfig(fragment_score_range=(0.05, 0.6), whole_score_range=(0.55, 0.95))
        GeneratorConfig(
            fragment_score_range=(0.05, 0.6),
            whole_score_range=(0.55, 0.95),
            allow_score_overlap=True,
        )

    def test_ranges_must_respect_score_floor(self):
        with pytest.raises(ValueError):
            GeneratorConfig(fragment_score_range=(0.001, 0.4))

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(objects_per_image=(0, 3))
        with pytest.raises(ValueError):
            GeneratorConfig(fragments_per_object=(4, 2))


class TestGenerate:
    def test_fixed_seed_is_byte_identical(self, tmp_path):
        cfg = GeneratorConfig(seed=123, images=6)
        generate_dataset(cfg, tmp_path / "a")
        generate_dataset(cfg, tmp_path / "b")
        assert _dir_digest(tmp_path / "a") == _dir_digest(tmp_path / "b")

    def test_different_seeds_differ(self, tmp_path):
        generate_dataset(GeneratorConfig(seed=1, images=3), tmp_path / "a")
        generate_dataset(GeneratorConfig(seed=2, images=3), tmp_path / "b")
        assert _dir_digest(tmp_path / "a") != _dir_digest(tmp_path / "b")

    def test_load_after_generate_is_clean(self, tmp_path, caplog):
        manifest = generate_dataset(GeneratorConfig(seed=5, images=5), tmp_path / "ds")
        with caplog.at_level("WARNING"):
            ds = load_dataset(manifest)
        assert caplog.text == ""
        assert ds.num_classes == 3 and ds.shots == 1
        assert len(ds.supports) == 3
        assert len(ds.query_image_ids()) == 5

    def test_seed17_corpus_statistics_audit(self, acceptance_manifest):
        """Re-parse the acceptance corpus and check every count against the
        configured ranges; identify wholes by score band, fragments by full
        coverage under a whole."""
        cfg = ACCEPTANCE_CFG
        ds = load_dataset(acceptance_manifest)
        gt_by_image = {}
        for g in ds.ground_truth:
            gt_by_image.setdefault(g.image_id, []).append(g)
        assert len(gt_by_image) == cfg.images
        for image_id in ds.query_image_ids():
            gts = gt_by_image[image_id]
            assert cfg.objects_per_image[0] <= len(gts) <= cfg.objects_per_image[1]
            recs = ds.proposals[image_id]
            wholes = [r for r in recs if r.upn_score >= cfg.whole_score_range[0]]
            rest = [r for r in recs if r.upn_score < cfg.whole_score_range[0]]
            assert len(wholes) == len(gts)
            for w in wholes:  # whole proposals reuse the gt boxes exactly
                assert any(w.box == g.box for g in gts)
            frag_counts = {id(w): 0 for w in wholes}
            distractors = 0
            for r in rest:
                parents = [w for w in wholes if mask_coverage(r.mask, w.mask) == 1.0]
                if parents:
                    assert len(parents) == 1  # objects are disjoint
                    frag_counts[id(parents[0])] += 1
                else:
                    distractors += 1
            lo, hi = cfg.fragments_per_object
            for count in frag_counts.values():
                assert lo <= count <= hi
            dlo, dhi = cfg.distractors_per_image
            assert dlo <= distractors <= dhi

    def test_fragment_scores_sit_below_whole_scores(self, acceptance_dataset):
        cfg = ACCEPTANCE_CFG
        for recs in acceptance_dataset.proposals.values():
            for r in recs:
                in_frag = cfg.fragment_score_range[0] <= r.upn_score <= cfg.fragment_score_range[1]
                in_whole = cfg.whole_score_range[0] <= r.upn_score <= cfg.whole_score_range[1]
                assert in_frag or in_whole

    def test_planted_prototypes_are_deterministic_units(self):
        cfg = GeneratorConfig(seed=9)
        p1 = planted_prototypes(cfg)
        p2 = planted_prototypes(cfg)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_allclose(np.linalg.norm(p1, axis=1), 1.0, atol=1e-12)

    def test_query_feature_map_mode_emits_maps_not_vectors(self, tmp_path):
        cfg = GeneratorConfig(seed=4, images=3, query_feature_maps=True)
        manifest = generate_dataset(cfg, tmp_path / "ds")
        ds = load_dataset(manifest)
        for image_id in ds.query_image_ids():
            assert image_id in ds.feature_maps
            assert all(r.feature is None for r in ds.proposals[image_id])
        # the writer omits an empty proposal-feature table and writes no blob
        assert "proposal_features" not in json.loads(manifest.read_text())
        assert list((manifest.parent / "features").glob("*.pfeat")) == []


class TestLoadValidation:
    def test_empty_query_set_is_fine(self, tmp_path):
        support = {
            "image_id": "q0",
            "class_id": 0,
            "box": [0.0, 0.0, 4.0, 4.0],
            "mask": {"w": 8, "h": 8, "counts": [0, 64]},
        }
        write_feature_map(tmp_path / "q0.fmap",
                          FeatureMap(data=np.ones((2, 2, 2)), image_w=8, image_h=8))
        path = _write_manifest(tmp_path, manifest={"feature_maps": {"q0": "q0.fmap"}},
                               supports=[support])
        ds = load_dataset(path)
        assert ds.proposals == {} and ds.query_image_ids() == []

    def test_score_floor_filters_proposals(self, tmp_path):
        path = _write_manifest(
            tmp_path, proposals=[_proposal_row(0.005), _proposal_row(0.5)]
        )
        ds = load_dataset(path)
        assert len(ds.proposals["q0"]) == 1
        assert ds.proposals["q0"][0].upn_score == 0.5

    def test_proposals_truncated_to_500_best(self, tmp_path):
        rows = [_proposal_row(0.2 + 0.001 * (i % 600)) for i in range(600)]
        path = _write_manifest(tmp_path, proposals=rows)
        ds = load_dataset(path)
        recs = ds.proposals["q0"]
        assert len(recs) == 500
        dropped = sorted(r["score"] for r in rows)[:100]
        assert min(r.upn_score for r in recs) >= max(dropped)

    def test_bad_rle_names_file_and_line(self, tmp_path):
        path = _write_manifest(
            tmp_path, proposals=[_proposal_row(0.5), _proposal_row(0.6, runs=[3, 3])]
        )
        with pytest.raises(DataFormatError, match=r"proposals\.jsonl:2"):
            load_dataset(path)

    @pytest.mark.parametrize("line, message", [
        (json.dumps(_proposal_row("high")),
         'invalid proposal record (score must be a JSON number, got "high")'),
        (json.dumps(_proposal_row(0.5, runs=[3, 3])),
         "RLE runs sum to 6, expected 64 for a 8x8 mask"),
        ("\ufeff" + json.dumps(_proposal_row(0.5)),
         "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0))"),
    ])
    def test_bad_twelfth_record_is_named_by_its_line(self, tmp_path, line, message):
        path = _write_manifest(tmp_path, proposals=[_proposal_row(0.5)] * 11)
        with open(tmp_path / "proposals.jsonl", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(DataFormatError) as info:
            load_dataset(path)
        assert str(info.value) == f"{tmp_path / 'proposals.jsonl'}:12: {message}"

    def test_empty_mask_substituted_with_box_raster(self, tmp_path, caplog):
        path = _write_manifest(tmp_path, proposals=[_proposal_row(0.5, runs=[64])])
        with caplog.at_level("WARNING"):
            ds = load_dataset(path)
        assert "substituted" in caplog.text
        rec = ds.proposals["q0"][0]
        assert rec.mask.area == 16  # 4x4 box rasterized

    def test_huge_empty_mask_substituted_without_a_raster(self, tmp_path):
        side = 100_000  # an H x W bool raster would be 9.3 GiB
        path = _write_manifest(
            tmp_path, images=[{"id": "q0", "width": side, "height": side}],
            proposals=[_proposal_row(0.5, w=side, h=side, runs=[side * side])])
        tracemalloc.start()
        try:
            ds = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        mask = ds.proposals["q0"][0].mask
        assert mask.runs == (0, 4, side - 4, 4, side - 4, 4, side - 4, 4, side * side - 3 * side - 4)

    def test_unsupported_version_rejected(self, tmp_path):
        path = _write_manifest(tmp_path, manifest={"format_version": 2})
        with pytest.raises(DataFormatError, match="format_version"):
            load_dataset(path)

    def test_missing_file_reported(self, tmp_path):
        path = _write_manifest(tmp_path)
        (tmp_path / "ground_truth.jsonl").unlink()
        with pytest.raises(DataFormatError, match="ground_truth"):
            load_dataset(path)

    def test_unknown_image_id_rejected(self, tmp_path):
        path = _write_manifest(tmp_path, proposals=[_proposal_row(0.5, image_id="nope")])
        with pytest.raises(DataFormatError, match="nope"):
            load_dataset(path)

    @pytest.mark.parametrize("char", _ROW_BREAKERS)
    def test_image_id_that_would_split_a_detections_row_is_data_error(self, tmp_path, char,
                                                                      capsys):
        image_id = f"a{char}b"
        path = _write_manifest(tmp_path, images=[{"id": image_id, "width": 8, "height": 8}],
                               proposals=[_proposal_row(0.5, image_id=image_id)])
        with pytest.raises(DataFormatError, match="tab or a line break"):
            load_dataset(path)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert repr(image_id) in capsys.readouterr().err

    def test_score_out_of_range_rejected(self, tmp_path):
        path = _write_manifest(tmp_path, proposals=[_proposal_row(1.5)])
        with pytest.raises(DataFormatError, match="score"):
            load_dataset(path)

    @pytest.mark.parametrize("class_id", [1, -1])
    def test_ground_truth_class_out_of_range_rejected(self, tmp_path, class_id):
        gt = {"image_id": "q0", "box": [0.0, 0.0, 4.0, 4.0], "class_id": class_id}
        path = _write_manifest(tmp_path, gts=[gt])
        with pytest.raises(DataFormatError, match=r"ground_truth\.jsonl:1: class_id"):
            load_dataset(path)

    def test_inconsistent_feature_dims_rejected(self, tmp_path):
        path = _write_manifest(
            tmp_path,
            proposals=[_proposal_row(0.5, feature=(1.0, 0.0)),
                       _proposal_row(0.6, feature=(1.0, 0.0, 0.0))],
        )
        with pytest.raises(DataFormatError, match="feature dimensions"):
            load_dataset(path)

    @pytest.mark.parametrize("manifest, images", [
        ({}, [{"width": 8, "height": 8}]),                # image without an id
        ({"num_classes": "three"}, None),
        ({}, [{"id": "q0", "width": "wide", "height": 8}]),
        ({"images": 7}, None),                            # images not a list
        ({"feature_maps": ["q0.fmap"]}, None),            # feature_maps not a dict
    ], ids=["missing-id", "num-classes", "width", "images", "feature-maps"])
    def test_malformed_manifest_table_is_format_error(self, tmp_path, manifest, images):
        path = _write_manifest(tmp_path, manifest=manifest, images=images)
        with pytest.raises(DataFormatError, match=r"manifest\.json: invalid manifest"):
            load_dataset(path)

    def test_all_zero_feature_rejected_at_load(self, tmp_path):
        path = _write_manifest(tmp_path, proposals=[_proposal_row(0.5, feature=(0.0, 0.0))])
        with pytest.raises(DataFormatError, match=r"proposals\.jsonl:1: all-zero feature"):
            load_dataset(path)

    def test_empty_inline_feature_rejected(self, tmp_path):
        path = _write_manifest(tmp_path, proposals=[_proposal_row(0.5, feature=())])
        with pytest.raises(DataFormatError, match=r"proposals\.jsonl:1: all-zero feature"):
            load_dataset(path)

    def test_proposal_without_feature_or_map_rejected(self, tmp_path):
        row = _proposal_row(0.5)
        del row["feature"]
        path = _write_manifest(tmp_path, proposals=[_proposal_row(0.5), row])
        with pytest.raises(DataFormatError, match=r"proposals\.jsonl:2: no feature"):
            load_dataset(path)

    def test_featureless_proposal_below_score_floor_is_dropped(self, tmp_path):
        row = _proposal_row(0.005)
        del row["feature"]
        path = _write_manifest(tmp_path, proposals=[row, _proposal_row(0.5)])
        assert len(load_dataset(path).proposals["q0"]) == 1


class TestProposalFeatureBlob:
    def test_rows_load_as_the_records_name_them(self, tmp_path):
        ds = load_dataset(_blob_manifest(tmp_path, matrix=[[1.0, 2.0], [3.0, 4.0]], rows=(1, 0)))
        got = [rec.feature.tolist() for rec in ds.proposals["q0"]]
        assert got == [[3.0, 4.0], [1.0, 2.0]]

    @pytest.mark.parametrize("blob, pattern", [
        (dict(magic=b"JUNK"), r"q0\.pfeat: bad magic b'JUNK'"),
        (dict(version=2), r"q0\.pfeat: unsupported proposal-feature version 2"),
    ], ids=["magic", "version"])
    def test_bad_header_rejected(self, tmp_path, blob, pattern):
        _assert_data_error(_blob_manifest(tmp_path, **blob), tmp_path, pattern)

    def test_zero_dimension_rejected(self, tmp_path):
        path = _blob_manifest(tmp_path, matrix=np.zeros((2, 0)), rows=())
        _assert_data_error(path, tmp_path, r"q0\.pfeat: proposal-feature blob of shape \(2, 0\) "
                                           "holds no values")

    @pytest.mark.parametrize("edit, pattern", [
        (lambda raw: raw[:8], "truncated proposal-feature header"),
        (lambda raw: raw[:-8], "expected 48 bytes, found 40"),
        (lambda raw: raw + bytes(8), "expected 48 bytes, found 56"),
    ], ids=["header", "body-short", "body-long"])
    def test_size_that_disagrees_with_header_rejected(self, tmp_path, edit, pattern):
        path = _blob_manifest(tmp_path)  # 16 + 2 * 2 * 8 = 48 bytes
        blob = tmp_path / "q0.pfeat"
        blob.write_bytes(edit(blob.read_bytes()))
        _assert_data_error(path, tmp_path, rf"q0\.pfeat: {pattern}")

    @pytest.mark.parametrize("row, pattern", [
        ((np.nan, 1.0), r"feature vector of L2 norm nan \(cosine undefined\)"),
        ((1.0, np.inf), r"feature vector of L2 norm inf \(cosine undefined\)"),
        ((0.0, 0.0), r"all-zero feature vector of L2 norm 0\.0 \(cosine undefined\)"),
    ], ids=["nan", "inf", "zero"])
    def test_unusable_row_rejected(self, tmp_path, row, pattern):
        path = _blob_manifest(tmp_path, matrix=[(1.0, 0.0), row], rows=(0,))
        _assert_data_error(path, tmp_path, rf"q0\.pfeat: row 1: {pattern}")

    @pytest.mark.parametrize("rows, pattern", [
        ((0, 2), r"proposals\.jsonl:2: feature_row 2 outside \[0, 2\)"),
        ((0, -1), r"proposals\.jsonl:2: feature_row -1 outside \[0, 2\)"),
        ((1, 1), r"proposals\.jsonl:2: feature_row 1 used twice in its image"),
        ((1.0,), r"proposals\.jsonl:1: invalid proposal record \(feature_row must be a JSON "
                 r"integer, got 1\.0\)"),
        ((True,), r"proposals\.jsonl:1: .*feature_row must be a JSON integer, got true"),
        (("0",), r'proposals\.jsonl:1: .*feature_row must be a JSON integer, got "0"'),
        ((None,), r"proposals\.jsonl:1: .*feature_row must be a JSON integer, got null"),
    ], ids=["past-end", "negative", "twice", "float", "bool", "str", "null"])
    def test_bad_feature_row_rejected(self, tmp_path, rows, pattern):
        _assert_data_error(_blob_manifest(tmp_path, rows=rows), tmp_path, pattern)

    def test_feature_row_beside_inline_feature_rejected(self, tmp_path):
        path = _blob_manifest(tmp_path)
        rows = [_blob_row(0), {**_blob_row(1), "feature": [0.0, 1.0]}]
        (tmp_path / "proposals.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        _assert_data_error(path, tmp_path, r"proposals\.jsonl:2: both feature and feature_row")

    def test_feature_row_without_blob_rejected(self, tmp_path):
        path = _write_manifest(tmp_path, proposals=[_proposal_row(0.5), _blob_row(0)])
        _assert_data_error(path, tmp_path,
                           r"proposals\.jsonl:2: feature_row, but its image has no \.pfeat blob")

    def test_blob_dimension_joins_the_consistency_check(self, tmp_path):
        path = _blob_manifest(tmp_path)
        rows = [_blob_row(0), _proposal_row(0.5, feature=(1.0, 0.0, 0.0))]
        (tmp_path / "proposals.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        _assert_data_error(path, tmp_path, r"inconsistent feature dimensions .*\[2, 3\]")

    @pytest.mark.parametrize("table, pattern", [
        ({"nope": "q0.pfeat"}, r"manifest\.json: proposal_features entry for unknown image 'nope'"),
        ({"q0": "gone.pfeat"}, r"manifest\.json: missing proposal_features file .*gone\.pfeat"),
        (["q0.pfeat"], r"manifest\.json: invalid manifest"),
    ], ids=["unknown-image", "missing-file", "not-a-table"])
    def test_bad_manifest_table_rejected(self, tmp_path, table, pattern):
        _write_pfeat(tmp_path / "q0.pfeat", [[1.0, 0.0]])
        path = _write_manifest(tmp_path, manifest={"proposal_features": table},
                               proposals=[_proposal_row(0.5)])
        _assert_data_error(path, tmp_path, pattern)

    def test_header_declaring_a_huge_matrix_allocates_nothing(self, tmp_path):
        (tmp_path / "q0.pfeat").write_bytes(struct.pack("<4sIII", b"PFEA", 1, 2**32 - 1, 2**32 - 1))
        path = _write_manifest(tmp_path, manifest={"proposal_features": {"q0": "q0.pfeat"}})
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match=r"q0\.pfeat: expected \d+ bytes, found 16"):
                load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("value", [1e300, 1e308, 1e-200])
    @pytest.mark.parametrize("form", ["inline", "blob"])
    def test_feature_whose_norm_is_no_positive_float_rejected(self, tmp_path, form, value):
        # 1e300 overflows the norm to inf and used to give similarity 0.0 and a
        # changed nAP; 1e308 ended in a nan score (exit 4); 1e-200 underflows
        # the norm to 0, which no cosine can divide by
        if form == "inline":
            path = _write_manifest(tmp_path, proposals=[_proposal_row(0.5, feature=(value, value))])
            where = r"proposals\.jsonl:1"
        else:
            path = _blob_manifest(tmp_path, matrix=[(1.0, 0.0), (value, value)])
            where = r"q0\.pfeat: row 1"
        norm = "inf" if value > 1 else r"0\.0"
        _assert_data_error(path, tmp_path, rf"{where}: feature vector of L2 norm {norm} \(cosine "
                                           r"undefined\)")


class TestGeneratedProposalFeatures:
    def test_features_load_bit_for_bit(self, tmp_path, monkeypatch):
        written = []

        def spy(dataset, out_dir):
            written.append(dataset)
            return write_dataset(dataset, out_dir)

        monkeypatch.setattr(generator, "write_dataset", spy)
        manifest = generate_dataset(GeneratorConfig(seed=5, images=4, feature_dim=96),
                                    tmp_path / "ds")
        (expected,) = written
        loaded = load_dataset(manifest)
        assert loaded.query_image_ids() == expected.query_image_ids() != []
        for image_id in expected.query_image_ids():
            want = [rec.feature for rec in expected.proposals[image_id]]
            got = [rec.feature for rec in loaded.proposals[image_id]]
            assert [f.dtype for f in got] == [np.dtype(np.float64)] * len(want)
            assert [f.tobytes() for f in got] == [f.tobytes() for f in want]

    def test_records_name_blob_rows_not_inline_vectors(self, tmp_path):
        manifest = generate_dataset(GeneratorConfig(seed=5, images=3), tmp_path / "ds")
        records = [json.loads(line) for line in
                   (manifest.parent / "proposals.jsonl").read_text().splitlines()]
        assert all("feature" not in rec for rec in records)
        rows = {}
        for rec in records:
            rows.setdefault(rec["image_id"], []).append(rec["feature_row"])
        assert all(got == list(range(len(got))) for got in rows.values())
        table = json.loads(manifest.read_text())["proposal_features"]
        assert table == {image_id: f"features/{image_id}.pfeat" for image_id in rows}

    def test_inline_form_loads_equal_to_blob_form(self, tmp_path):
        manifest = generate_dataset(GeneratorConfig(seed=5, images=3), tmp_path / "ds")
        blob_form = load_dataset(manifest)
        # rewrite as a hand-made export would: each vector inline, no blobs
        props = manifest.parent / "proposals.jsonl"
        records = [json.loads(line) for line in props.read_text().splitlines()]
        vectors = [rec.feature for image_id in blob_form.query_image_ids()
                   for rec in blob_form.proposals[image_id]]
        for rec, vector in zip(records, vectors, strict=True):
            del rec["feature_row"]
            rec["feature"] = vector.tolist()
        props.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        doc = json.loads(manifest.read_text())
        del doc["proposal_features"]
        manifest.write_text(json.dumps(doc))
        for blob in (manifest.parent / "features").glob("*.pfeat"):
            blob.unlink()
        inline_form = load_dataset(manifest)
        for image_id in blob_form.query_image_ids():
            assert ([rec.feature.tobytes() for rec in inline_form.proposals[image_id]]
                    == [rec.feature.tobytes() for rec in blob_form.proposals[image_id]])


class TestPrototypeFile:
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_non_finite_or_zero_vector_rejected(self, tmp_path, value):
        path = tmp_path / "p.protos"
        save_prototypes(path, [
            ClassPrototype(class_id=0, vector=np.array([1.0, 0.0]), support_count=1),
            ClassPrototype(class_id=1, vector=np.array([value, 0.0]), support_count=1),
        ])
        with pytest.raises(DataFormatError, match="class 1 prototype is not finite"):
            load_prototypes(path)


def _mutate_json(doc, rng):
    """``doc`` with one key (or list item) dropped or its value replaced, at a
    random depth."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, keys[rng.integers(len(keys))]
        node = node[key]
        if rng.random() < 0.5:
            break
    if parent is None:
        return _BAD_VALUES[rng.integers(len(_BAD_VALUES))]
    if rng.random() < 0.5:
        del parent[key]
    else:
        parent[key] = _BAD_VALUES[rng.integers(len(_BAD_VALUES))]
    return doc


_BAD_VALUES = (None, -1, 0, 2**40, 1e300, -0.5, 0.5, "x", "", [], {}, True, [0, 1])
# little-endian 4-byte words: 0, the largest uint32 (a float32 NaN), float32 inf and NaN, small ints
_BAD_WORDS = (0, 0xFFFFFFFF, 0x7F800000, 0x7FC00000, 1, 3)


def _mutant(raw: bytes, suffix: str, rng) -> bytes:
    """Truncate, flip one byte, or (JSON: drop a key or replace a value of the
    document or of one JSONL record; binary: overwrite one aligned 4-byte word)."""
    op = rng.integers(3)
    if op == 0:
        return raw[:rng.integers(len(raw))]
    if op == 1:
        i = rng.integers(len(raw))
        return raw[:i] + bytes([raw[i] ^ int(rng.integers(1, 256))]) + raw[i + 1:]
    if suffix not in (".json", ".jsonl"):
        i = 4 * rng.integers(len(raw) // 4)
        word = _BAD_WORDS[rng.integers(len(_BAD_WORDS))]
        return raw[:i] + word.to_bytes(4, "little") + raw[i + 4:]
    if suffix == ".json":
        return json.dumps(_mutate_json(json.loads(raw), rng)).encode()
    lines = raw.decode().splitlines()
    i = rng.integers(len(lines))
    lines[i] = json.dumps(_mutate_json(json.loads(lines[i]), rng))
    return ("\n".join(lines) + "\n").encode()


class TestMutationFuzz:
    """Seeded mutations of every input file of a tiny corpus and of a prototype
    file: the loaders raise only DataFormatError, and ``run`` exits 0, 3 or 4
    without a traceback (4 stays reachable, e.g. through ``num_classes``)."""

    MUTANTS = 600

    def test_loaders_and_run_survive_mutations(self, tmp_path):
        cfg = GeneratorConfig(seed=3, images=2, classes=2, objects_per_image=(1, 2),
                              fragments_per_object=(1, 2), distractors_per_image=(1, 1),
                              feature_dim=6, image_size=32, grid_size=4)
        manifest = generate_dataset(cfg, tmp_path / "ds")
        protos = tmp_path / "p.protos"
        save_prototypes(protos, run_support_stage(load_dataset(manifest)))
        ds = manifest.parent
        targets = [manifest, ds / "supports.jsonl", ds / "proposals.jsonl",
                   ds / "ground_truth.jsonl", ds / "features" / "support_c0_s0.fmap",
                   ds / "features" / "img_0000.pfeat", protos]
        originals = {path: path.read_bytes() for path in targets}
        rng = np.random.default_rng(2026)
        codes = set()
        for n in range(self.MUTANTS):
            target = targets[rng.integers(len(targets))]
            target.write_bytes(_mutant(originals[target], target.suffix, rng))
            try:
                argv = ["run", str(manifest), "--out", str(tmp_path / "o")]
                if target == protos:
                    with contextlib.suppress(DataFormatError):
                        load_prototypes(protos)
                    argv += ["--prototypes", str(protos)]
                else:
                    with contextlib.suppress(DataFormatError):
                        load_dataset(manifest)
                code = main(argv)
                # with the corpus intact, only a bad prototype file could fail the run
                allowed = (0, 3) if target == protos else (0, 3, 4)
                assert code in allowed, f"mutant {n} of {target.name}: exit {code}"
                if code == 0:  # nothing predicted outside the corpus's classes
                    dets = load_detections(tmp_path / "o" / "detections.tsv")
                    assert {d.class_id for v in dets.values() for d in v} <= set(range(cfg.classes))
                codes.add(code)
            finally:
                target.write_bytes(originals[target])
        assert {0, 3} <= codes  # mutants that still run, and mutants rejected


class TestWriteDataset:
    @pytest.mark.parametrize("query_maps", [False, True], ids=["acceptance", "query-maps"])
    def test_rewrite_of_loaded_corpus_is_byte_identical(self, acceptance_manifest, tmp_path,
                                                        query_maps):
        manifest = acceptance_manifest
        if query_maps:
            cfg = GeneratorConfig(seed=5, classes=4, shots=2, query_feature_maps=True)
            manifest = generate_dataset(cfg, tmp_path / "gen")
        src = manifest.parent
        out = tmp_path / "out"
        assert write_dataset(load_dataset(manifest), out) == out / "manifest.json"

        def files(root):
            return {str(p.relative_to(root)): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        expected = files(src)
        del expected["generator_config.json"]
        assert len(expected) > 4  # blobs as well as the manifest and three record files
        assert files(out) == expected

    @pytest.mark.parametrize("image_id", ["../x", "a/b"])
    def test_image_id_that_is_no_file_name_rejected(self, tmp_path, image_id):
        fm = FeatureMap(data=np.ones((2, 2, 2)), image_w=8, image_h=8)
        ds = Dataset(num_classes=1, shots=1, images=[ImageInfo(image_id, 8, 8)], supports=[],
                     proposals={}, ground_truth=[], feature_maps={image_id: fm})
        out = tmp_path / "root" / "out"
        with pytest.raises(ValueError, match="not a plain file name"):
            write_dataset(ds, out)
        outside = [p for p in tmp_path.rglob("*") if p.is_file() and out not in p.parents]
        assert outside == []

    def test_duplicate_image_id_rejected(self, tmp_path):
        # load_dataset refuses a manifest that lists an id twice
        ds = Dataset(num_classes=1, shots=1, images=[ImageInfo("a", 8, 8), ImageInfo("a", 8, 8)],
                     supports=[], proposals={}, ground_truth=[], feature_maps={})
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="duplicate image id 'a'"):
            write_dataset(ds, out)
        assert not (out / "manifest.json").exists()
        assert not out.exists()

    @pytest.mark.parametrize("char", _ROW_BREAKERS)
    def test_image_id_that_would_split_a_detections_row_rejected(self, tmp_path, char):
        # load_dataset refuses such an id, so the writer must not write one
        ds = Dataset(num_classes=1, shots=1, images=[ImageInfo(f"a{char}b", 8, 8)], supports=[],
                     proposals={}, ground_truth=[], feature_maps={})
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="tab or a line break"):
            write_dataset(ds, out)
        assert not (out / "manifest.json").exists()
        assert not out.exists()  # raised before any file or directory was made


class TestExport:
    def _detections(self):
        return {
            "img_b": [
                ScoredDetection(box=BoundingBox(0.5, 1.25, 3.75, 9.5), class_id=1, score=0.875),
            ],
            "img_a": [
                ScoredDetection(box=BoundingBox(1, 2, 3, 4), class_id=0, score=1 / 3),
                ScoredDetection(box=BoundingBox(0, 0, 7, 3), class_id=2, score=0.1),
            ],
        }

    def test_empty_detections_writes_header_only(self, tmp_path):
        paths = export_run({}, None, tmp_path / "out")
        text = paths["detections"].read_text()
        assert text == "image_id\tclass_id\tscore\tx1\ty1\tx2\ty2\n"

    def test_roundtrip_is_bit_exact(self, tmp_path):
        dets = self._detections()
        paths = export_run(dets, None, tmp_path / "out")
        back = load_detections(paths["detections"])
        assert set(back) == set(dets)
        for image_id in dets:
            assert len(back[image_id]) == len(dets[image_id])
            for orig, loaded in zip(dets[image_id], back[image_id]):
                assert loaded.box == orig.box
                assert loaded.score == orig.score
                assert loaded.class_id == orig.class_id

    def test_report_files_written(self, tmp_path):
        gts = [GroundTruthBox(image_id="img_a", box=BoundingBox(1, 2, 3, 4), class_id=0)]
        report = evaluate(self._detections(), gts)
        paths = export_run(self._detections(), report, tmp_path / "out")
        assert paths["report_txt"].read_text().startswith("nAP=")
        doc = json.loads(paths["report_json"].read_text())
        assert doc["nAP"] == report.nap

    @pytest.mark.parametrize("char", _ROW_BREAKERS)
    def test_image_id_that_would_split_its_row_rejected(self, tmp_path, char):
        dets = {f"a{char}b": [ScoredDetection(box=BoundingBox(0, 0, 1, 1), class_id=0,
                                              score=0.5)]}
        with pytest.raises(ValueError, match="tab or a line break"):
            export_run(dets, None, tmp_path / "out")
        assert not (tmp_path / "out" / "detections.tsv").exists()

    def test_bad_header_rejected_on_load(self, tmp_path):
        bad = tmp_path / "dets.tsv"
        bad.write_text("nope\n")
        with pytest.raises(DataFormatError):
            load_detections(bad)
