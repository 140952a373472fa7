import contextlib
import hashlib
import json
import math
import re
import shutil
import struct
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ACCEPTANCE_CFG
from oracles import proposals_by_record
from protodet.errors import DataFormatError
from protodet import generator
from protodet.cli import main
from protodet.evaluation import GroundTruthBox, evaluate
from protodet.features import ClassPrototype, FeatureMap, SupportAnnotation
from protodet.generator import GeneratorConfig, generate_dataset, planted_prototypes
from protodet.geometry import BinaryMask, BoundingBox, mask_coverage
from protodet.interchange import (
    Dataset,
    ImageInfo,
    ProposalRecord,
    SCORE_FLOOR,
    export_run,
    load_dataset,
    load_detections,
    load_prototypes,
    read_feature_map,
    save_prototypes,
    write_dataset,
    write_feature_map,
)
from protodet.pipeline import PipelineConfig, run_end_to_end, run_support_stage
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


def _write_runs(path, masks=((0, 64), (48, 16)), counts=None, magic=b"RUNS", version=1):
    """A ``.runs`` blob of ``masks``, or of ``counts`` and the runs of ``masks``
    back to back."""
    runs = np.array([r for m in masks for r in m], dtype="<i8")
    counts = np.array([len(m) for m in masks] if counts is None else counts, dtype="<i8")
    path.write_bytes(struct.pack("<4sIII", magic, version, counts.size, runs.size)
                     + counts.tobytes() + runs.tobytes())


def _mask_row(k, score=0.5):
    row = _proposal_row(score)
    del row["mask"]
    row["mask_row"] = k
    return row


def _runs_manifest(tmp_path, rows=(0, 1), **blob):
    """A one-image dataset whose proposals name masks of ``q0.runs``."""
    _write_runs(tmp_path / "q0.runs", **blob)
    return _write_manifest(tmp_path, manifest={"mask_runs": {"q0": "q0.runs"}},
                           proposals=[_mask_row(k) for k in rows])


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
        fm = FeatureMap(data=data)
        path = tmp_path / "x.fmap"
        write_feature_map(path, fm)
        assert path.stat().st_size == 16 + 4 * 5 * 3 * 4
        back = read_feature_map(path)
        np.testing.assert_array_equal(back.data, data)
        assert back.data.dtype == np.float64 and not back.data.flags.writeable

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.fmap"
        path.write_bytes(b"JUNK" + b"\0" * 28)
        with pytest.raises(DataFormatError):
            read_feature_map(path)

    def test_truncated_body_rejected(self, tmp_path):
        rng = np.random.default_rng(0)
        fm = FeatureMap(data=rng.standard_normal((2, 2, 2)))
        path = tmp_path / "x.fmap"
        write_feature_map(path, fm)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataFormatError):
            read_feature_map(path)


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
                          FeatureMap(data=np.ones((2, 2, 2))))
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

    def test_proposals_truncated_to_500_best(self, tmp_path, caplog):
        rows = [_proposal_row(0.2 + 0.001 * (i % 600)) for i in range(600)]
        path = _write_manifest(tmp_path, proposals=rows)
        with caplog.at_level("INFO", logger="protodet.interchange"):
            ds = load_dataset(path)
        recs = ds.proposals["q0"]
        assert len(recs) == 500
        dropped = sorted(r["score"] for r in rows)[:100]
        assert min(r.upn_score for r in recs) >= max(dropped)
        assert [r.getMessage() for r in caplog.records] == [
            "image q0: kept the 500 best of 600 proposals, dropped 100"]

    def test_cap_keeps_the_earlier_of_equal_scores(self, tmp_path):
        # 450 distinct scores above 0.5 and, interleaved with them, 150 rows at
        # 0.5, of which the cap keeps the first 50 in file order
        rows = [_proposal_row(0.5 if k % 4 == 1 else 0.6 + k / 10_000, feature=(1.0, k))
                for k in range(600)]
        assert sum(r["score"] == 0.5 for r in rows) == 150
        ds = load_dataset(_write_manifest(tmp_path, proposals=rows))
        kept = [int(r.feature[1]) for r in ds.proposals["q0"]]
        tied = [k for k in range(600) if k % 4 == 1]
        assert kept == sorted(set(range(600)) - set(tied[50:]))

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

    @pytest.mark.parametrize("run", [2**70, 2**63, -(2**63) - 1])
    def test_inline_run_outside_int64_is_data_error(self, tmp_path, run):
        # numpy raises OverflowError converting such a run to int64
        runs = [run, 64 - run]  # sums to W*H as Python ints
        path = _write_manifest(tmp_path, proposals=[_proposal_row(0.5, runs=runs)])
        _assert_data_error(path, tmp_path, r"proposals\.jsonl:1: RLE run length outside int64")

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
        assert mask.runs.tolist() == [0, 4, side - 4, 4, side - 4, 4, side - 4, 4,
                                      side * side - 3 * side - 4]

    def test_unsupported_version_rejected(self, tmp_path):
        path = _write_manifest(tmp_path, manifest={"format_version": 2})
        with pytest.raises(DataFormatError, match="format_version"):
            load_dataset(path)

    def test_missing_file_reported(self, tmp_path):
        path = _write_manifest(tmp_path)
        (tmp_path / "ground_truth.jsonl").unlink()
        with pytest.raises(DataFormatError, match="ground_truth"):
            load_dataset(path)

    def test_unreadable_record_file_is_data_error(self, tmp_path, capsys, unreadable):
        path = _write_manifest(tmp_path, proposals=[_proposal_row(0.5)])
        props = tmp_path / "proposals.jsonl"
        unreadable(props)
        message = f"cannot read proposals file {props}: "
        _assert_data_error(path, tmp_path, re.escape(message) + ".*Permission denied")
        assert f"data error: {message}" in capsys.readouterr().err

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
        ({"q0": "."}, r"manifest\.json: cannot read proposal_features file .*Is a directory"),
        (["q0.pfeat"], r"manifest\.json: invalid manifest"),
    ], ids=["unknown-image", "missing-file", "directory", "not-a-table"])
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


class TestMaskRunBlob:
    def test_rows_load_as_the_records_name_them(self, tmp_path):
        ds = load_dataset(_runs_manifest(tmp_path, rows=(1, 0)))
        got = [(rec.mask.runs.tolist(), rec.mask.area) for rec in ds.proposals["q0"]]
        assert got == [([48, 16], 16), ([0, 64], 64)]
        assert not any(rec.mask.runs.flags.writeable for rec in ds.proposals["q0"])

    def test_empty_blob_mask_substituted_with_box_raster(self, tmp_path, caplog):
        path = _runs_manifest(tmp_path, masks=((0, 64), (64,)))
        with caplog.at_level("WARNING"):
            ds = load_dataset(path)
        assert "substituted 1 empty proposal masks" in caplog.text
        assert [rec.mask.area for rec in ds.proposals["q0"]] == [64, 16]

    @pytest.mark.parametrize("blob, pattern", [
        (dict(magic=b"JUNK"), r"q0\.runs: bad magic b'JUNK'"),
        (dict(version=2), r"q0\.runs: unsupported mask-run version 2"),
        (dict(masks=()), r"q0\.runs: mask-run blob of shape \(0,\) holds no values"),
    ], ids=["magic", "version", "empty"])
    def test_bad_header_rejected(self, tmp_path, blob, pattern):
        _assert_data_error(_runs_manifest(tmp_path, rows=(), **blob), tmp_path, pattern)

    @pytest.mark.parametrize("edit, pattern", [
        (lambda raw: raw[:8], "truncated mask-run header"),
        (lambda raw: raw[:-8], "expected 64 bytes, found 56"),
        (lambda raw: raw + bytes(8), "expected 64 bytes, found 72"),
    ], ids=["header", "body-short", "body-long"])
    def test_size_that_disagrees_with_header_rejected(self, tmp_path, edit, pattern):
        path = _runs_manifest(tmp_path)  # 16 + 8 * (2 counts + 4 runs) = 64 bytes
        blob = tmp_path / "q0.runs"
        blob.write_bytes(edit(blob.read_bytes()))
        _assert_data_error(path, tmp_path, rf"q0\.runs: {pattern}")

    @pytest.mark.parametrize("blob, pattern", [
        (dict(counts=(2, 0)), r"mask 1: run count 0, not >= 1"),
        (dict(masks=((0, 64),), counts=(3,)), r"run counts sum to 3, not to the 2 runs"),
        (dict(masks=((0, 64),), counts=(2**63 - 1, 2**63 - 1, 4)),
         r"run counts sum to 18446744073709551618, not to the 2 runs"),
        (dict(masks=((70, -6),)), r"mask 0: negative run length in RLE"),
        (dict(masks=((0, 64), (48, 15))), r"mask 1: RLE runs sum to 63, expected 64 for a 8x8 "
                                           r"mask"),
        (dict(masks=((2**63 - 1, 2**63 - 1, 66),)),
         r"mask 0: RLE runs sum to 18446744073709551680, expected 64 for a 8x8 mask"),
    ], ids=["count-0", "counts-past-runs", "counts-wrap-to-runs", "negative", "sum",
            "runs-wrap-to-w-h"])
    def test_bad_run_table_names_its_mask(self, tmp_path, blob, pattern):
        # the wrapping cases sum to exactly the run count and to W*H in int64
        _assert_data_error(_runs_manifest(tmp_path, rows=(0,), **blob), tmp_path,
                           rf"q0\.runs: {pattern}")

    @pytest.mark.parametrize("rows, pattern", [
        ((0, 2), r"proposals\.jsonl:2: mask_row 2 outside \[0, 2\)"),
        ((0, -1), r"proposals\.jsonl:2: mask_row -1 outside \[0, 2\)"),
        ((1, 1), r"proposals\.jsonl:2: mask_row 1 used twice in its image"),
        ((1.0,), r"proposals\.jsonl:1: invalid proposal record \(mask_row must be a JSON "
                 r"integer, got 1\.0\)"),
        ((True,), r"proposals\.jsonl:1: .*mask_row must be a JSON integer, got true"),
        (("0",), r'proposals\.jsonl:1: .*mask_row must be a JSON integer, got "0"'),
        ((None,), r"proposals\.jsonl:1: .*mask_row must be a JSON integer, got null"),
    ], ids=["past-end", "negative", "twice", "float", "bool", "str", "null"])
    def test_bad_mask_row_rejected(self, tmp_path, rows, pattern):
        _assert_data_error(_runs_manifest(tmp_path, rows=rows), tmp_path, pattern)

    @pytest.mark.parametrize("edits, pattern", [
        ({1: {"mask_row": 0}, 2: {"mask_row": 0}}, r":2: mask_row 0 used twice in its image"),
        ({0: {"mask_row": 3}, 2: {"mask_row": 4}}, r":1: mask_row 3 outside \[0, 3\)"),
        ({0: {"mask_row": 1}, 2: {"mask_row": 5}}, r":3: mask_row 5 outside \[0, 3\)"),
        ({0: {"mask_row": 5}, 2: {"box": [4.0, 0.0, 2.0, 4.0]}}, r":3: .*degenerate box"),
        ({0: {"box": [4.0, 0.0, 2.0, 4.0]}, 2: {"score": "high"}}, r":3: .*score must be"),
    ], ids=["twice", "outside", "outside-before-twice", "box-before-rows", "read-before-box"])
    def test_several_faulty_records_name_the_first_of_the_first_check(self, tmp_path, edits,
                                                                      pattern):
        # the checks run in a fixed order, each over every record at once
        path = _runs_manifest(tmp_path, masks=((0, 64), (48, 16), (60, 4)))
        rows = [{**_mask_row(k), **edits.get(k, {})} for k in range(3)]
        (tmp_path / "proposals.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        _assert_data_error(path, tmp_path, rf"proposals\.jsonl{pattern}")

    def test_mask_row_beside_inline_mask_rejected(self, tmp_path):
        path = _runs_manifest(tmp_path)
        rows = [_mask_row(0), {**_mask_row(1), "mask": {"w": 8, "h": 8, "counts": [0, 64]}}]
        (tmp_path / "proposals.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        _assert_data_error(path, tmp_path, r"proposals\.jsonl:2: both mask and mask_row")

    def test_mask_row_without_blob_rejected(self, tmp_path):
        path = _write_manifest(tmp_path, proposals=[_proposal_row(0.5), _mask_row(0)])
        _assert_data_error(path, tmp_path,
                           r"proposals\.jsonl:2: mask_row, but its image has no \.runs blob")

    @pytest.mark.parametrize("table, pattern", [
        ({"nope": "q0.runs"}, r"manifest\.json: mask_runs entry for unknown image 'nope'"),
        ({"q0": "gone.runs"}, r"manifest\.json: missing mask_runs file .*gone\.runs"),
        ({"q0": "."}, r"manifest\.json: cannot read mask_runs file .*Is a directory"),
        (["q0.runs"], r"manifest\.json: invalid manifest"),
    ], ids=["unknown-image", "missing-file", "directory", "not-a-table"])
    def test_bad_manifest_table_rejected(self, tmp_path, table, pattern):
        _write_runs(tmp_path / "q0.runs")
        path = _write_manifest(tmp_path, manifest={"mask_runs": table},
                               proposals=[_proposal_row(0.5)])
        _assert_data_error(path, tmp_path, pattern)

    def test_header_declaring_a_huge_run_table_allocates_nothing(self, tmp_path):
        (tmp_path / "q0.runs").write_bytes(struct.pack("<4sIII", b"RUNS", 1, 2**32 - 1, 2**32 - 1))
        path = _write_manifest(tmp_path, manifest={"mask_runs": {"q0": "q0.runs"}})
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match=r"q0\.runs: expected \d+ bytes, found 16"):
                load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _generated(tmp_path, monkeypatch, cfg):
    """The dataset the generator hands ``write_dataset``, and its manifest."""
    written = []

    def spy(dataset, out_dir):
        written.append(dataset)
        return write_dataset(dataset, out_dir)

    monkeypatch.setattr(generator, "write_dataset", spy)
    manifest = generate_dataset(cfg, tmp_path / "ds")
    (dataset,) = written
    return dataset, manifest


def _masks(dataset):
    return {image_id: [(r.mask.width, r.mask.height, r.mask.runs.tolist(), r.mask.area)
                       for r in recs] for image_id, recs in dataset.proposals.items()}


class TestGeneratedProposalMasks:
    def test_masks_load_equal_to_the_written_dataset(self, tmp_path, monkeypatch):
        expected, manifest = _generated(tmp_path, monkeypatch, GeneratorConfig(seed=5, images=4))
        loaded = load_dataset(manifest)
        assert loaded.query_image_ids() == expected.query_image_ids() != []
        assert _masks(loaded) == _masks(expected)

    def test_records_name_blob_rows_not_inline_masks(self, tmp_path):
        manifest = generate_dataset(GeneratorConfig(seed=5, images=3), tmp_path / "ds")
        records = [json.loads(line) for line in
                   (manifest.parent / "proposals.jsonl").read_text().splitlines()]
        assert all("mask" not in rec for rec in records)
        rows = {}
        for rec in records:
            rows.setdefault(rec["image_id"], []).append(rec["mask_row"])
        assert all(got == list(range(len(got))) for got in rows.values())
        table = json.loads(manifest.read_text())["mask_runs"]
        assert table == {image_id: f"features/{image_id}.runs" for image_id in rows}

    def test_inline_form_loads_equal_to_blob_form(self, tmp_path):
        manifest = generate_dataset(GeneratorConfig(seed=5, images=3), tmp_path / "ds")
        blob_form = load_dataset(manifest)
        # rewrite as a hand-made export would: each mask's counts inline, no blobs
        props = manifest.parent / "proposals.jsonl"
        records = [json.loads(line) for line in props.read_text().splitlines()]
        masks = [rec.mask for image_id in blob_form.query_image_ids()
                 for rec in blob_form.proposals[image_id]]
        for rec, mask in zip(records, masks, strict=True):
            del rec["mask_row"]
            rec["mask"] = {"w": mask.width, "h": mask.height, "counts": mask.runs.tolist()}
        props.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        doc = json.loads(manifest.read_text())
        del doc["mask_runs"]
        manifest.write_text(json.dumps(doc))
        for blob in (manifest.parent / "features").glob("*.runs"):
            blob.unlink()
        assert _masks(load_dataset(manifest)) == _masks(blob_form)

    @pytest.mark.parametrize("query_maps", [False, True], ids=["pfeat", "query-maps"])
    def test_written_copy_runs_byte_identically(self, tmp_path, query_maps):
        # a loaded dataset, so that its feature maps hold float32 values, as written
        cfg = GeneratorConfig(seed=5, images=4, query_feature_maps=query_maps)
        dataset = load_dataset(generate_dataset(cfg, tmp_path / "ds"))
        copy = load_dataset(write_dataset(dataset, tmp_path / "copy"))
        outputs = {}
        for name, ds in (("memory", dataset), ("copy", copy)):
            paths = export_run(*run_end_to_end(ds, PipelineConfig()), tmp_path / name)
            outputs[name] = {key: path.read_bytes() for key, path in paths.items()}
        assert outputs["copy"] == outputs["memory"]


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

    # each of these would write a file that load_prototypes refuses
    @pytest.mark.parametrize("class_ids, dim, message", [
        ((), 2, "at least one prototype"),
        ((2, 0, 2), 2, "duplicate prototype for class 2"),
        ((0,), 2**16, "dimension 65536"),
    ], ids=["empty", "repeated-class", "dimension-beyond-uint16"])
    def test_unloadable_file_refused_before_writing(self, tmp_path, class_ids, dim, message):
        path = tmp_path / "p.protos"
        protos = [ClassPrototype(class_id=c, vector=np.ones(dim), support_count=1)
                  for c in class_ids]
        with pytest.raises(ValueError, match=message):
            save_prototypes(path, protos)
        assert not path.exists()

    @pytest.mark.parametrize("class_id, support_count", [
        (-1, 1), (2**32, 1), (0, -1), (0, 2**32),
    ], ids=["class-id-negative", "class-id-2**32", "support-count-negative",
            "support-count-2**32"])
    def test_record_field_outside_uint32_refused_before_writing(self, tmp_path, class_id,
                                                                support_count):
        path = tmp_path / "p.protos"
        proto = ClassPrototype(class_id=class_id, vector=np.ones(2), support_count=support_count)
        with pytest.raises(ValueError, match="uint32"):
            save_prototypes(path, [proto])
        assert not path.exists()


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
    """Seeded mutations of every input file of a tiny corpus (a ``.runs`` blob
    among them) and of a prototype file, for both query-feature layouts
    (``.pfeat`` blobs or feature maps): the
    loaders raise only DataFormatError, and ``run`` exits 0, 3 or 4 without a
    traceback (4 stays reachable, e.g. through ``num_classes``)."""

    MUTANTS = 300  # per layout

    @staticmethod
    def _config(query_maps):
        return GeneratorConfig(seed=3, images=2, classes=2, objects_per_image=(1, 2),
                               fragments_per_object=(1, 2), distractors_per_image=(1, 1),
                               feature_dim=6, image_size=32, grid_size=4,
                               query_feature_maps=query_maps)

    @pytest.mark.parametrize("query_maps", [False, True], ids=["pfeat", "query-maps"])
    def test_loaders_and_run_survive_mutations(self, tmp_path, query_maps):
        cfg = self._config(query_maps)
        manifest = generate_dataset(cfg, tmp_path / "ds")
        protos = tmp_path / "p.protos"
        save_prototypes(protos, run_support_stage(load_dataset(manifest)))
        ds = manifest.parent
        query_blob = "img_0000.fmap" if query_maps else "img_0000.pfeat"
        targets = [manifest, ds / "supports.jsonl", ds / "proposals.jsonl",
                   ds / "ground_truth.jsonl", ds / "features" / "support_c0_s0.fmap",
                   ds / "features" / query_blob, ds / "features" / "img_0000.runs", protos]
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

    @pytest.mark.parametrize("query_maps", [False, True], ids=["pfeat", "query-maps"])
    def test_run_survives_duplicated_and_inserted_lines(self, tmp_path, query_maps):
        """Each line of a record file repeated in place, and each line of the other
        two record files and a few JSON values that are no record inserted at a
        seeded position: ``run`` exits 0 or 3."""
        manifest = generate_dataset(self._config(query_maps), tmp_path / "ds")
        files = [manifest.parent / f"{kind}.jsonl"
                 for kind in ("supports", "proposals", "ground_truth")]
        lines = {path: path.read_text().splitlines(keepends=True) for path in files}
        rng = np.random.default_rng(2027)
        codes = set()
        for path in files:
            own = lines[path]
            mutants = [own[:i + 1] + own[i:] for i in range(len(own))]
            for line in [*(ln for other in files if other != path for ln in lines[other]),
                         "null\n", "[]\n", "{}\n", '"x"\n', "7\n"]:
                at = int(rng.integers(len(own) + 1))
                mutants.append(own[:at] + [line] + own[at:])
            try:
                for n, mutant in enumerate(mutants):
                    path.write_text("".join(mutant))
                    code = main(["run", str(manifest), "--out", str(tmp_path / "o")])
                    assert code in (0, 3), f"mutant {n} of {path.name}: exit {code}"
                    codes.add(code)
            finally:
                path.write_text("".join(own))
        assert codes == {0, 3}


_DELETE = object()  # drops the field
_BAD_ROWS = (0, 1, 2, -1, 99, 10**30, 1.0, True, "0", None, _DELETE)
_EMPTY_MASK = {"w": 32, "h": 32, "counts": [1024]}
# each entry is one record's fault: the (field, value) pairs set on it
_RECORD_EDITS = [
    *(((("image_id", v),) for v in ("nope", "img_0001", "support_c0_s0", 7, None, _DELETE))),
    *(((("score", v),) for v in ("high", True, None, -0.1, 1.5, math.nan, 0.005, 0, 1, _DELETE))),
    *(((("box", v),) for v in (
        [5, 5, 5, 9], [4.0, 0.0, 2.0, 4.0], [-1, 0, 4, 4], [0, 0, math.inf, 4],
        [math.nan, 0, 4, 4], [0, 0, 4], [0, 0, 4, 4, 4], "abcd", None, {}, [0, 0, "4", 4],
        [True, 0, 4, 4], [0, 0, 10**400, 4], [2**70, 0, 2**71, 4], [40, 40, 50, 50], _DELETE))),
    (("score", 0.005), ("box", "garbage")),  # below the floor, so never read
    *(((("mask_row", v),) for v in _BAD_ROWS)),
    *(((("feature_row", v),) for v in _BAD_ROWS)),
    # in inline form, a row of a blob that the image lacks
    (("mask", _DELETE), ("mask_row", 0)),
    (("feature", _DELETE), ("feature_row", 0)),
    *(((("mask", v),) for v in (
        _EMPTY_MASK, {"w": 32, "h": 32, "counts": [3, 3]}, {"w": 8, "h": 8, "counts": [0, 64]},
        {"w": 32, "h": 32, "counts": [-5, 1029]}, {"w": 32, "h": 32, "counts": [0.5, 1023.5]},
        {"h": 32, "counts": [1024]}, "x", None, _DELETE))),
    (("mask", _EMPTY_MASK), ("box", [40, 40, 50, 50])),  # and the box covers no pixel either
    *(((("feature", v),) for v in (
        [0.0] * 6, [1.0] * 5, [math.nan] + [1.0] * 5, ["x"] * 6, [], [1e300] * 6, None, _DELETE))),
]


@pytest.fixture(scope="module")
def record_forms(tmp_path_factory):
    """A tiny generated corpus in blob form (``mask_row``, ``feature_row``) and
    in inline form (``mask``, ``feature``): form -> (manifest, its records)."""
    cfg = GeneratorConfig(seed=3, images=2, classes=2, objects_per_image=(1, 2),
                          fragments_per_object=(1, 2), distractors_per_image=(1, 1),
                          feature_dim=6, image_size=32, grid_size=4)
    forms = {}
    for form in ("blob", "inline"):
        manifest = generate_dataset(cfg, tmp_path_factory.mktemp(form) / "ds")
        props = manifest.parent / "proposals.jsonl"
        records = [json.loads(line) for line in props.read_text().splitlines()]
        if form == "inline":
            loaded = load_dataset(manifest)
            recs = [r for image_id in loaded.query_image_ids() for r in loaded.proposals[image_id]]
            for rec, loaded_rec in zip(records, recs, strict=True):
                del rec["mask_row"], rec["feature_row"]
                mask = loaded_rec.mask
                rec["mask"] = {"w": mask.width, "h": mask.height, "counts": mask.runs.tolist()}
                rec["feature"] = loaded_rec.feature.tolist()
            doc = json.loads(manifest.read_text())
            del doc["mask_runs"], doc["proposal_features"]
            manifest.write_text(json.dumps(doc))
        forms[form] = manifest, records
    return forms


def _load_both(manifest, records, edits):
    """Write ``records`` with ``edits`` ({index: record edit}) applied, then load
    them with ``load_dataset`` and with the per-record oracle: for each, the
    proposals as plain values, or the DataFormatError's text."""
    lines = []
    for k, rec in enumerate(records):
        rec = dict(rec)
        for field, value in edits.get(k, ()):
            if value is _DELETE:
                rec.pop(field, None)
            else:
                rec[field] = value
        lines.append(json.dumps(rec) + "\n")
    (manifest.parent / "proposals.jsonl").write_text("".join(lines))
    outcomes = []
    for load in (lambda: load_dataset(manifest).proposals, lambda: proposals_by_record(manifest)):
        try:
            proposals = load()
        except DataFormatError as exc:
            outcomes.append(str(exc))
            continue
        outcomes.append([(image_id, [(r.box.as_tuple(), r.mask.width, r.mask.height,
                                      r.mask.runs.tolist(), r.mask.area, r.upn_score,
                                      None if r.feature is None else r.feature.tobytes())
                                     for r in recs])
                         for image_id, recs in proposals.items()])
    return outcomes


class TestColumnChecksAgainstPerRecordParse:
    """``load_dataset`` checks proposal records a column at a time; the oracle
    parses and checks them one record at a time, as the loader once did."""

    @pytest.mark.parametrize("form", ["blob", "inline"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_one_faulty_record_loads_or_is_refused_alike(self, record_forms, form, data):
        manifest, records = record_forms[form]
        k = data.draw(st.integers(0, len(records) - 1))
        edit = data.draw(st.sampled_from(_RECORD_EDITS))
        columns, by_record = _load_both(manifest, records, {k: edit})
        assert columns == by_record

    @pytest.mark.parametrize("form", ["blob", "inline"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_two_faulty_records_are_refused_alike(self, record_forms, form, data):
        # which record a refusal names depends on the order of the checks
        manifest, records = record_forms[form]
        i, j = data.draw(st.lists(st.integers(0, len(records) - 1), min_size=2, max_size=2,
                                  unique=True))
        edits = {i: data.draw(st.sampled_from(_RECORD_EDITS)),
                 j: data.draw(st.sampled_from(_RECORD_EDITS))}
        columns, by_record = _load_both(manifest, records, edits)
        if isinstance(by_record, str):
            assert isinstance(columns, str)
        else:
            assert columns == by_record

    def test_the_edits_reach_every_check(self, record_forms):
        refusals = []
        for manifest, records in record_forms.values():
            for edit in _RECORD_EDITS:
                columns, by_record = _load_both(manifest, records, {1: edit})
                assert columns == by_record
                refusals += [by_record] if isinstance(by_record, str) else []
        for fragment in (
            "missing required key", "unknown image id", "must be a JSON number",
            "score -0.1 outside [0, 1]", "box coordinates must be finite",
            "box coordinates must be >= 0", "degenerate box", "not enough values to unpack",
            "int too large to convert to float", "both mask and mask_row",
            "both feature and feature_row", "mask_row, but its image has no .runs blob",
            "feature_row, but its image has no .pfeat blob", "mask_row 99 outside [0, ",
            "feature_row 10" + "0" * 29 + " outside", "mask_row 0 used twice in its image",
            "feature_row 0 used twice in its image", "must be a JSON integer",
            "empty mask and box covers no pixel", "RLE runs sum to", "negative run length",
            "mask dims do not match image dims", "all-zero feature vector",
            "feature vector of L2 norm inf", "no feature, and its image has no feature map",
            "inconsistent feature dimensions",
        ):
            assert any(fragment in text for text in refusals), fragment


def _files(root):
    """Each file under ``root`` by its relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def _first_line(dataset, image_id):
    """The line of ``image_id``'s first record in a written ``proposals.jsonl``,
    which holds the listed images' proposals in image order."""
    ids = [im.image_id for im in dataset.images]
    before = ids[:ids.index(image_id)]
    return 1 + sum(len(dataset.proposals.get(i, ())) for i in before)


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

    @pytest.mark.parametrize("table, message", [
        ("proposals", r"image 'ghost' has proposals but is not in dataset\.images"),
        ("feature_maps", r"manifest\.json: feature_maps entry for unknown image 'ghost'"),
    ], ids=["proposals", "feature_maps"])
    def test_entry_of_an_unlisted_image_rejected(self, acceptance_dataset, tmp_path, table,
                                                 message):
        # load_dataset reads proposals and feature maps only of the images it lists
        entries = getattr(acceptance_dataset, table)
        ghost = {**entries, "ghost": next(iter(entries.values()))}
        ds = replace(acceptance_dataset, **{table: ghost})
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=message):
            write_dataset(ds, out)
        assert not out.exists()

    @pytest.mark.parametrize("table", ["supports", "ground_truth"])
    def test_record_of_an_unlisted_image_rejected(self, acceptance_dataset, tmp_path, table):
        # load_dataset refuses a record whose image id the manifest does not list
        records = getattr(acceptance_dataset, table)
        ds = replace(acceptance_dataset,
                     **{table: [replace(records[0], image_id="ghost"), *records[1:]]})
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=rf"{table}\.jsonl:1: unknown image id 'ghost'"):
            write_dataset(ds, out)
        assert not (out / "manifest.json").exists()
        assert not out.exists()

    @pytest.mark.parametrize("table, class_id", [  # a support refuses a negative class itself
        ("supports", ACCEPTANCE_CFG.classes), ("ground_truth", ACCEPTANCE_CFG.classes),
        ("ground_truth", -1),
    ])
    def test_record_of_a_class_outside_num_classes_rejected(self, acceptance_dataset, tmp_path,
                                                            table, class_id):
        # load_dataset refuses a class id outside [0, num_classes)
        records = getattr(acceptance_dataset, table)
        ds = replace(acceptance_dataset,
                     **{table: [*records[:-1], replace(records[-1], class_id=class_id)]})
        out = tmp_path / "out"
        line = len(records)
        with pytest.raises(ValueError, match=rf"{table}\.jsonl:{line}: class_id {class_id} "
                                             rf"outside \[0, {ACCEPTANCE_CFG.classes}\)"):
            write_dataset(ds, out)
        assert not (out / "manifest.json").exists()
        assert not out.exists()

    @pytest.mark.parametrize("table", ["supports", "proposals"])
    def test_mask_of_another_size_than_its_image_rejected(self, acceptance_dataset, tmp_path,
                                                          table):
        # load_dataset refuses a mask whose dims differ from its image's
        ds = acceptance_dataset
        small = BinaryMask(4, 4, (0, 16))
        if table == "supports":
            ds = replace(ds, supports=[replace(ds.supports[0], mask=small), *ds.supports[1:]])
            message = r"supports\.jsonl:1: mask dims do not match image dims"
        else:
            image_id, props = next(iter(ds.proposals.items()))
            ds = replace(ds, proposals={**ds.proposals,
                                        image_id: [replace(props[0], mask=small), *props[1:]]})
            message = f"a 4x4 mask in image '{image_id}' of "
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=message):
            write_dataset(ds, out)
        assert not (out / "manifest.json").exists()
        assert not out.exists()

    def test_support_image_without_a_feature_map_rejected(self, acceptance_dataset, tmp_path):
        # load_dataset refuses a support whose image has no feature map
        image_id = acceptance_dataset.supports[0].image_id
        maps = {i: fm for i, fm in acceptance_dataset.feature_maps.items() if i != image_id}
        ds = replace(acceptance_dataset, feature_maps=maps)
        out = tmp_path / "out"
        message = rf"supports\.jsonl:1: support image '{image_id}' has no feature map"
        with pytest.raises(ValueError, match=message):
            write_dataset(ds, out)
        assert not (out / "manifest.json").exists()
        assert not out.exists()

    def test_featureless_proposal_of_an_image_without_a_map_rejected(self, acceptance_dataset,
                                                                      tmp_path):
        # load_dataset refuses a proposal that has neither a feature nor a map to pool one from
        ds = acceptance_dataset
        image_id = next(i for i in ds.proposals if i not in ds.feature_maps)
        props = ds.proposals[image_id]
        ds = replace(ds, proposals={**ds.proposals,
                                    image_id: [*props[:-1], replace(props[-1], feature=None)]})
        out = tmp_path / "out"
        line = _first_line(ds, image_id) + len(props) - 1
        with pytest.raises(ValueError, match=rf"proposals\.jsonl:{line}: no feature, and its "
                                             "image has no feature map"):
            write_dataset(ds, out)
        assert not (out / "manifest.json").exists()
        assert not out.exists()

    def test_proposal_mask_of_its_images_pixel_count_but_other_dims_rejected(
            self, acceptance_dataset, tmp_path):
        # A .runs blob holds runs but no dims, so the loader would read these
        # runs at the image's dims and load another mask: only the writer sees it.
        ds = acceptance_dataset
        image_id, props = next(iter(ds.proposals.items()))
        info = next(im for im in ds.images if im.image_id == image_id)
        w, h = 2 * info.width, info.height // 2
        wide = BinaryMask(w, h, props[0].mask.runs)
        ds = replace(ds, proposals={**ds.proposals,
                                    image_id: [replace(props[0], mask=wide), *props[1:]]})
        out = tmp_path / "out"
        message = f"a {w}x{h} mask in image '{image_id}' of {info.width}x{info.height}"
        with pytest.raises(ValueError, match=message):
            write_dataset(ds, out)
        assert not out.exists()

    @pytest.mark.parametrize("hole", ["score-above-one", "nan-score", "all-zero-feature",
                                      "score-below-floor", "over-the-cap"])
    def test_proposal_the_loader_would_refuse_or_drop_rejected(self, acceptance_dataset,
                                                               tmp_path, hole):
        # The first three were once written as files the loader refuses, and
        # the last two as files that load with fewer proposals.
        ds = acceptance_dataset
        image_id, props = list(ds.proposals.items())[1]
        k = 2
        edits = {"score-above-one": {"upn_score": 1.5}, "nan-score": {"upn_score": math.nan},
                 "all-zero-feature": {"feature": np.zeros_like(props[k].feature)},
                 "score-below-floor": {"upn_score": SCORE_FLOOR / 2}}
        if hole == "over-the-cap":  # 501 proposals; the one of the lowest score is dropped
            high, low = (replace(props[0], upn_score=s) for s in (0.5, 0.4))
            props = [high] * k + [low] + [high] * (500 - k)
        else:
            props = [*props[:k], replace(props[k], **edits[hole]), *props[k + 1:]]
        ds = replace(ds, proposals={**ds.proposals, image_id: props})
        out = tmp_path / "out"
        where = f"{out / 'proposals.jsonl'}:{_first_line(ds, image_id) + k}: "
        message = {
            "score-above-one": where + "score 1.5 outside [0, 1]",
            "nan-score": where + "score nan outside [0, 1]",
            "all-zero-feature": f"{out / 'features' / image_id}.pfeat: row {k}: all-zero feature",
            "score-below-floor": where + f"a proposal of image '{image_id}' does not load back",
            "over-the-cap": where + f"a proposal of image '{image_id}' does not load back",
        }[hole]
        with pytest.raises(ValueError, match=re.escape(message)) as refusal:
            write_dataset(ds, out)
        assert str(refusal.value).startswith(str(out))  # never the staging directory's name
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []  # nor any staging directory

    def test_empty_proposal_mask_rejected(self, tmp_path):
        # The loader would load this proposal with its box's 16-pixel mask in
        # place of the empty one, so the dataset would not load back as written.
        box, fm = BoundingBox(0.0, 0.0, 4.0, 4.0), FeatureMap(data=np.full((2, 2, 2), 0.5))
        full, empty = BinaryMask(8, 8, (0, 64)), BinaryMask(8, 8, (64,))
        props = [ProposalRecord(box, full, 0.5, np.array([1.0, 0.0])),
                 ProposalRecord(box, empty, 0.5, np.array([1.0, 0.0]))]
        ds = Dataset(num_classes=1, shots=1, images=[ImageInfo("q0", 8, 8)], supports=[],
                     proposals={"q0": props}, ground_truth=[], feature_maps={"q0": fm})
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("untouched")
        before = _files(out)
        message = (f"{out / 'proposals.jsonl'}:2: a proposal of image 'q0' does not load back "
                   "(an empty mask loads as its box's)")
        with pytest.raises(ValueError, match=re.escape(message)):
            write_dataset(ds, out)
        assert _files(out) == before
        assert list(tmp_path.iterdir()) == [out]  # no staging directory left behind
        write_dataset(replace(ds, proposals={"q0": props[:1]}), tmp_path / "whole")

    def test_refused_writes_log_nothing_the_loader_would(self, tmp_path, caplog):
        # The load-back of a staged copy is no load of the caller's data: a
        # substitution or a cap it meets ends in the ValueError, not the log.
        box, fm = BoundingBox(0.0, 0.0, 4.0, 4.0), FeatureMap(data=np.full((2, 2, 2), 0.5))
        full = ProposalRecord(box, BinaryMask(8, 8, (0, 64)), 0.5, np.array([1.0, 0.0]))
        ds = Dataset(num_classes=1, shots=1, images=[ImageInfo("q0", 8, 8)], supports=[],
                     proposals={}, ground_truth=[], feature_maps={"q0": fm})
        refused = {
            "an empty mask loads as its box's": [replace(full, mask=BinaryMask(8, 8, (64,)))],
            "not among its 500 best": [full] * 500 + [replace(full, upn_score=0.4)],
            "score 1.5 outside": [replace(full, upn_score=1.5)],  # raised by the load-back
        }
        with caplog.at_level("INFO"):
            for message, props in refused.items():
                with pytest.raises(ValueError, match=message):
                    write_dataset(replace(ds, proposals={"q0": props}), tmp_path / "out")
            assert caplog.records == []
            load_dataset(_write_manifest(tmp_path, proposals=[_proposal_row(0.5, runs=[64])]))
        assert [r.getMessage() for r in caplog.records] == [
            "substituted 1 empty proposal masks with their box masks"]

    def test_writing_into_an_existing_directory(self, acceptance_manifest, acceptance_dataset,
                                                tmp_path):
        out = tmp_path / "out"
        shutil.copytree(acceptance_manifest.parent, out)  # with generator_config.json
        before = _files(out)
        gts = acceptance_dataset.ground_truth
        bad = replace(acceptance_dataset, ground_truth=[*gts[:-1], replace(gts[-1], class_id=9)])
        with pytest.raises(ValueError, match=r"ground_truth\.jsonl:\d+: class_id 9 outside"):
            write_dataset(bad, out)
        assert _files(out) == before
        assert list(tmp_path.iterdir()) == [out]

        image_id, props = next(iter(acceptance_dataset.proposals.items()))
        other = replace(acceptance_dataset, ground_truth=gts[:-1], proposals={
            **acceptance_dataset.proposals, image_id: [replace(props[0], upn_score=0.5)]})
        assert write_dataset(other, out) == out / "manifest.json"
        expected = _files(write_dataset(other, tmp_path / "fresh").parent)
        after = _files(out)
        assert {name: after[name] for name in expected} == expected
        assert set(after) == set(before) and after != before
        assert after["generator_config.json"] == before["generator_config.json"]
        assert sorted(tmp_path.iterdir()) == [tmp_path / "fresh", out]

    @pytest.mark.parametrize("image_id", ["../x", "a/b"])
    def test_image_id_that_is_no_file_name_rejected(self, tmp_path, image_id):
        fm = FeatureMap(data=np.ones((2, 2, 2)))
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
        with pytest.raises(ValueError, match=r"manifest\.json: duplicate image id 'a'"):
            write_dataset(ds, out)
        assert not (out / "manifest.json").exists()
        assert not out.exists()

    @pytest.mark.parametrize("char", _ROW_BREAKERS)
    def test_image_id_that_would_split_a_detections_row_rejected(self, tmp_path, char):
        # load_dataset refuses such an id, so the writer must not write one
        ds = Dataset(num_classes=1, shots=1, images=[ImageInfo(f"a{char}b", 8, 8)], supports=[],
                     proposals={}, ground_truth=[], feature_maps={})
        out = tmp_path / "out"
        message = re.escape(f"manifest.json: image id {f'a{char}b'!r} holds a tab or a line break")
        with pytest.raises(ValueError, match=message):
            write_dataset(ds, out)
        assert not (out / "manifest.json").exists()
        assert not out.exists()  # raised before any file or directory was made


class TestWriterAcceptsWhatLoadsBack:
    """``write_dataset`` succeeds exactly when its files load back with every
    record, over datasets drawn at each of the loader's boundaries."""

    @settings(max_examples=80, deadline=None)
    @given(fault=st.sampled_from([None, "proposals", "supports", "ground_truth", "feature_maps",
                                  "support class", "class -1", "class +1", "score", "count",
                                  "support map", "feature", "empty mask"]),
           at_floor=st.booleans(), full=st.booleans(), last_class=st.booleans(),
           features=st.booleans(), query_map=st.booleans())
    def test_write_succeeds_exactly_when_every_record_loads_back(
            self, tmp_path_factory, fault, at_floor, full, last_class, features, query_map):
        # Each draw sits on the loaded side of every boundary (a score at the
        # floor or above it, 500 proposals or one, the first or last class,
        # features with or without a map) except for at most one ``fault``
        # just past one boundary, or an image that the images table lacks.
        score = {True: SCORE_FLOOR, False: 1.0}[at_floor]
        if fault == "score":
            score = math.nextafter(SCORE_FLOOR, 0)
        count = 501 if fault == "count" else 500 if full else 1
        num_classes = 2
        support_class = num_classes if fault == "support class" else num_classes - 1
        gt_class = {"class -1": -1, "class +1": num_classes}.get(
            fault, num_classes - 1 if last_class else 0)
        if fault == "feature":
            features = query_map = False
        elif not (features or query_map):
            query_map = True
        box, mask = BoundingBox(0.0, 0.0, 8.0, 2.0), BinaryMask(8, 8, (0, 16, 48))
        fm = FeatureMap(data=np.full((2, 2, 2), 0.5))
        feature = np.array([1.0, 0.0]) if features else None
        # the record at the drawn score first, the others above it, so that
        # the cap drops it
        first = BinaryMask(8, 8, (64,)) if fault == "empty mask" else mask
        props = [ProposalRecord(box, first, score, feature)]
        props += [ProposalRecord(box, mask, 0.5 + k / 2000, feature) for k in range(count - 1)]
        maps = {"s0": fm, "q0": fm} if query_map else {"s0": fm}
        if fault == "support map":
            del maps["s0"]
        ds = Dataset(
            num_classes=num_classes, shots=1,
            images=[ImageInfo("s0", 8, 8), ImageInfo("q0", 8, 8)],
            supports=[SupportAnnotation("s0", box, support_class, mask)],
            proposals={"q0": props}, ground_truth=[GroundTruthBox("q0", box, gt_class)],
            feature_maps=maps)
        if fault in ("proposals", "feature_maps"):  # an entry of an unlisted image
            getattr(ds, fault)["ghost"] = next(iter(getattr(ds, fault).values()))
        elif fault in ("supports", "ground_truth"):  # a record of an unlisted image
            getattr(ds, fault).append(replace(getattr(ds, fault)[0], image_id="ghost"))
        loads_whole = fault is None
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            out = Path(tmp) / "out"
            try:
                manifest = write_dataset(ds, out)
            except ValueError:
                assert not loads_whole
                assert not out.exists()
                return
            assert loads_whole
            loaded = load_dataset(manifest)
            assert [len(loaded.proposals["q0"]), len(loaded.supports),
                    len(loaded.ground_truth)] == [count, 1, 1]
            again = write_dataset(loaded, Path(tmp) / "again")
            assert _files(again.parent) == _files(out)


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

    def test_bytes_that_are_not_utf8_rejected_on_load(self, tmp_path):
        bad = tmp_path / "dets.tsv"
        bad.write_bytes(b"image_id\tclass_id\tscore\tx1\ty1\tx2\ty2\n\xff\n")
        with pytest.raises(DataFormatError, match=re.escape(f"cannot read detections file {bad}")):
            load_detections(bad)
