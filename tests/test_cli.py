import json
import subprocess
import sys
from pathlib import Path

import pytest

from protodet.cli import main
from protodet.features import ClassPrototype
from protodet.pipeline import run_support_stage
from protodet.synthio import load_dataset, save_prototypes


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    code = main(["gen", "--seed", "5", "--images", "6", "--out", str(out / "ds")])
    assert code == 0
    return out / "ds" / "manifest.json"


def _read_tsv(path):
    rows = [line.split("\t") for line in Path(path).read_text().splitlines()]
    return rows[0], rows[1:]


class TestExitCodes:
    def test_usage_error_is_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "protodet.cli", "run", "x.json", "--method", "bogus"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_invalid_range_flag_is_2(self, tmp_path):
        code = main(["gen", "--objects", "4", "2", "--out", str(tmp_path / "ds")])
        assert code == 2

    def test_missing_manifest_is_3(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_pipeline_error_is_4(self, tmp_path, capsys):
        # a dataset that claims two classes but provides supports for one
        ds = tmp_path / "ds"
        code = main(["gen", "--seed", "1", "--images", "2", "--classes", "1",
                     "--out", str(ds)])
        assert code == 0
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["num_classes"] = 2
        (ds / "manifest.json").write_text(json.dumps(manifest))
        code = main(["run", str(ds / "manifest.json"), "--out", str(tmp_path / "o")])
        assert code == 4
        assert "pipeline error" in capsys.readouterr().err

    def test_success_is_0_via_subprocess(self, cli_corpus, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "protodet.cli", "run", str(cli_corpus),
             "--out", str(tmp_path / "o")],
            capture_output=True,
        )
        assert proc.returncode == 0


class TestGen:
    def test_creates_missing_output_dir(self, tmp_path, capsys):
        target = tmp_path / "deep" / "nested" / "dir"
        assert main(["gen", "--seed", "2", "--images", "1", "--out", str(target)]) == 0
        printed = capsys.readouterr().out.strip()
        assert Path(printed).is_file()
        assert Path(printed).parent == target

    def test_env_var_supplies_default_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PROTODET_OUTPUT_DIR", str(tmp_path))
        assert main(["gen", "--seed", "2", "--images", "1"]) == 0
        printed = capsys.readouterr().out.strip()
        assert Path(printed) == tmp_path / "protodet_dataset" / "manifest.json"

    def test_gen_idempotent_bytes(self, tmp_path):
        main(["gen", "--seed", "9", "--images", "3", "--out", str(tmp_path / "a")])
        main(["gen", "--seed", "9", "--images", "3", "--out", str(tmp_path / "b")])
        for name in ("manifest.json", "proposals.jsonl", "supports.jsonl", "ground_truth.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestRun:
    def test_run_writes_reports(self, cli_corpus, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", str(cli_corpus), "--out", str(out)]) == 0
        assert (out / "detections.tsv").is_file()
        assert (out / "report.txt").read_text().startswith("nAP=")
        doc = json.loads((out / "report.json").read_text())
        assert "nAP50" in doc
        assert "nAP50=" in capsys.readouterr().out

    def test_run_idempotent_and_jobs_invariant(self, cli_corpus, tmp_path):
        outs = []
        for name, jobs in (("r1", "1"), ("r2", "1"), ("r8", "8")):
            out = tmp_path / name
            assert main(["run", str(cli_corpus), "--jobs", jobs, "--out", str(out)]) == 0
            outs.append(out)
        ref = [(outs[0] / f).read_bytes() for f in ("detections.tsv", "report.txt", "report.json")]
        for out in outs[1:]:
            got = [(out / f).read_bytes() for f in ("detections.tsv", "report.txt", "report.json")]
            assert got == ref

    def test_method_none_baseline(self, cli_corpus, tmp_path):
        out = tmp_path / "none"
        assert main(["run", str(cli_corpus), "--method", "none", "--out", str(out)]) == 0
        none_nap50 = json.loads((out / "report.json").read_text())["nAP50"]
        out2 = tmp_path / "diff"
        assert main(["run", str(cli_corpus), "--out", str(out2)]) == 0
        diff_nap50 = json.loads((out2 / "report.json").read_text())["nAP50"]
        assert diff_nap50 > none_nap50

    def test_one_step_close_to_thirty_steps(self, cli_corpus, tmp_path):
        naps = {}
        for steps in ("1", "30"):
            out = tmp_path / f"s{steps}"
            assert main(["run", str(cli_corpus), "--max-steps", steps, "--out", str(out)]) == 0
            naps[steps] = json.loads((out / "report.json").read_text())["nAP50"]
        assert abs(naps["1"] - naps["30"]) <= 0.015  # 1.5 nAP50 points

    def test_config_file_with_flag_precedence(self, cli_corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-steps=1\nlambda=0.0\n")
        out = tmp_path / "cfgd"
        assert main(["run", str(cli_corpus), "--config", str(cfg),
                     "--lambda", "0.5", "--out", str(out)]) == 0
        with_cfg = json.loads((out / "report.json").read_text())
        out2 = tmp_path / "plain"
        assert main(["run", str(cli_corpus), "--max-steps", "1", "--lambda", "0.5",
                     "--out", str(out2)]) == 0
        plain = json.loads((out2 / "report.json").read_text())
        assert with_cfg == plain  # config supplied max-steps=1, flag overrode lambda

    def test_unknown_config_key_is_data_error(self, cli_corpus, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp-speed=9\n")
        assert main(["run", str(cli_corpus), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3


class TestSweep:
    def test_single_cell_matches_cmd_run(self, cli_corpus, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(cli_corpus), "--lambdas", "0.5", "--alphas", "0.3",
                     "--steps-grid", "30", "--out", str(out)]) == 0
        header, rows = _read_tsv(out / "sweep.tsv")
        assert header == ["lambda", "alpha", "steps", "nAP50", "sec_per_image"]
        assert len(rows) == 1
        run_out = tmp_path / "run"
        assert main(["run", str(cli_corpus), "--out", str(run_out)]) == 0
        nap50 = json.loads((run_out / "report.json").read_text())["nAP50"]
        assert float(rows[0][3]) == nap50

    def test_paper_grid_yields_nine_rows(self, cli_corpus, tmp_path):
        out = tmp_path / "sweep9"
        assert main(["sweep", str(cli_corpus),
                     "--lambdas", "0.3", "0.5", "1.0",
                     "--alphas", "0.0", "0.3", "0.5",
                     "--steps-grid", "30", "--out", str(out)]) == 0
        _, rows = _read_tsv(out / "sweep.tsv")
        assert len(rows) == 9

    def test_duplicate_grid_values_deduplicated(self, cli_corpus, tmp_path):
        out = tmp_path / "sweepd"
        assert main(["sweep", str(cli_corpus), "--lambdas", "0.5", "0.5", "0.5",
                     "--alphas", "0.3", "--steps-grid", "30", "30",
                     "--out", str(out)]) == 0
        _, rows = _read_tsv(out / "sweep.tsv")
        assert len(rows) == 1


class TestCompare:
    def test_seven_method_rows_in_fixed_order(self, cli_corpus, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", str(cli_corpus), "--out", str(out)]) == 0
        header, rows = _read_tsv(out / "compare.tsv")
        assert header == ["method", "nAP", "nAP50", "nAP75"]
        assert [r[0] for r in rows] == [
            "none", "nms", "softnms", "wbf", "softmerge", "diffusion", "diffusion+nms"
        ]

    def test_diffusion_row_beats_none_row(self, cli_corpus, tmp_path):
        out = tmp_path / "cmp2"
        assert main(["compare", str(cli_corpus), "--out", str(out)]) == 0
        _, rows = _read_tsv(out / "compare.tsv")
        by_method = {r[0]: r for r in rows}
        assert float(by_method["diffusion"][2]) >= float(by_method["none"][2])

    def test_prototype_file_is_honoured(self, cli_corpus, tmp_path):
        # prototypes with rotated class ids: a file that changes every score
        built = run_support_stage(load_dataset(cli_corpus))
        protos = tmp_path / "rotated.protos"
        save_prototypes(protos, [
            ClassPrototype(class_id=(p.class_id + 1) % len(built), vector=p.vector,
                           support_count=p.support_count)
            for p in built
        ])
        run_out, cmp_out, plain_out = tmp_path / "run", tmp_path / "cmp", tmp_path / "plain"
        assert main(["run", str(cli_corpus), "--prototypes", str(protos),
                     "--out", str(run_out)]) == 0
        assert main(["compare", str(cli_corpus), "--prototypes", str(protos),
                     "--out", str(cmp_out)]) == 0
        assert main(["compare", str(cli_corpus), "--out", str(plain_out)]) == 0
        report = json.loads((run_out / "report.json").read_text())
        diffusion = {r[0]: r for r in _read_tsv(cmp_out / "compare.tsv")[1]}["diffusion"]
        assert [float(v) for v in diffusion[1:]] == [
            report["nAP"], report["nAP50"], report["nAP75"]
        ]
        plain = {r[0]: r for r in _read_tsv(plain_out / "compare.tsv")[1]}["diffusion"]
        assert plain != diffusion

    def test_compare_idempotent(self, cli_corpus, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["compare", str(cli_corpus), "--out", str(a)]) == 0
        assert main(["compare", str(cli_corpus), "--out", str(b)]) == 0
        assert (a / "compare.tsv").read_bytes() == (b / "compare.tsv").read_bytes()


class TestHelp:
    def test_run_help_mentions_paper_defaults(self):
        proc = subprocess.run(
            [sys.executable, "-m", "protodet.cli", "run", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for needle in ("--alpha", "0.3", "--lambda", "0.5", "--tau", "1e-06",
                       "--max-steps", "30", "--max-output", "100", "--jobs"):
            assert needle in proc.stdout

    def test_gen_help_lists_all_flags(self):
        proc = subprocess.run(
            [sys.executable, "-m", "protodet.cli", "gen", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for needle in ("--seed", "--images", "--fragments", "--whole-scores",
                       "--image-size", "--grid-size", "--query-feature-maps"):
            assert needle in proc.stdout


class TestConfigFileAsFlags:
    def test_equals_form_flag_beats_config_file(self, cli_corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=0.5\n")
        outs = {}
        for name, argv in (("eq", ["--config", str(cfg), "--alpha=0.0"]),
                           ("plain", ["--alpha", "0.0"]),
                           ("cfg", ["--config", str(cfg)])):
            outs[name] = tmp_path / name
            assert main(["run", str(cli_corpus), *argv, "--out", str(outs[name])]) == 0
        dets = {k: (v / "detections.tsv").read_bytes() for k, v in outs.items()}
        assert dets["eq"] == dets["plain"]
        assert dets["cfg"] != dets["plain"]  # the file's alpha does change the scores

    def test_list_values_from_config_file(self, cli_corpus, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("lambdas=0.5,1.0\nalphas=0.0 0.3\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", str(cli_corpus), "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["sweep", str(cli_corpus), "--lambdas", "0.5", "1.0", "--alphas", "0.0",
                     "0.3", "--out", str(b)]) == 0
        assert [r[:4] for r in _read_tsv(a / "sweep.tsv")[1]] == \
            [r[:4] for r in _read_tsv(b / "sweep.tsv")[1]]

    def test_malformed_config_value_is_usage_error(self, cli_corpus, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha=abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", str(cli_corpus), "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "invalid float value: 'abc'" in capsys.readouterr().err


class TestSharedQueryPass:
    GRID = ["--lambdas", "0.5", "1.0", "--alphas", "0.0", "0.3", "--steps-grid", "30"]

    @pytest.mark.parametrize("argv", [["sweep", *GRID], ["compare"]], ids=["sweep", "compare"])
    def test_query_stage_runs_once(self, cli_corpus, tmp_path, monkeypatch, argv):
        import protodet.cli

        calls = []
        original = protodet.cli.run_query_stage
        monkeypatch.setattr(protodet.cli, "run_query_stage",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        assert main([argv[0], str(cli_corpus), *argv[1:], "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_every_sweep_cell_matches_cmd_run(self, cli_corpus, tmp_path):
        assert main(["sweep", str(cli_corpus), *self.GRID, "--out", str(tmp_path / "sw")]) == 0
        _, rows = _read_tsv(tmp_path / "sw" / "sweep.tsv")
        assert len(rows) == 4
        for lam, alpha, steps, nap50, _ in rows:
            out = tmp_path / f"run_{lam}_{alpha}"
            assert main(["run", str(cli_corpus), "--lambda", lam, "--alpha", alpha,
                         "--max-steps", steps, "--out", str(out)]) == 0
            assert float(nap50) == json.loads((out / "report.json").read_text())["nAP50"]

    def test_invalid_cell_fails_alone(self, cli_corpus, tmp_path, capsys):
        out = tmp_path / "sw"
        assert main(["sweep", str(cli_corpus), "--alphas", "1.5", "0.3",
                     "--out", str(out)]) == 0
        _, rows = _read_tsv(out / "sweep.tsv")
        assert [r[1] for r in rows] == ["1.5", "0.3"]
        assert rows[0][3:] == ["failed", "failed"]
        assert float(rows[1][3]) >= 0.0
        assert "alpha must be in [0, 1)" in capsys.readouterr().err

    def test_invalid_shared_flag_is_usage_error(self, cli_corpus, tmp_path):
        assert main(["sweep", str(cli_corpus), "--tau", "-1", "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "sweep.tsv").exists()

    def test_shared_stage_error_is_4(self, tmp_path, capsys):
        # supports for one class, two declared: the support stage fails for every cell
        ds = tmp_path / "ds"
        assert main(["gen", "--seed", "1", "--images", "2", "--classes", "1",
                     "--out", str(ds)]) == 0
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["num_classes"] = 2
        (ds / "manifest.json").write_text(json.dumps(manifest))
        assert main(["sweep", str(ds / "manifest.json"), "--out", str(tmp_path / "o")]) == 4
        assert "pipeline error" in capsys.readouterr().err
        assert not (tmp_path / "o" / "sweep.tsv").exists()

    def test_method_table_looks_up_postproc_when_called(self, cli_corpus, tmp_path,
                                                         monkeypatch):
        import protodet.postproc

        monkeypatch.setattr(protodet.postproc, "nms", lambda dets, thr: dets[:1])
        out = tmp_path / "nms"
        assert main(["run", str(cli_corpus), "--method", "nms", "--out", str(out)]) == 0
        rows = (out / "detections.tsv").read_text().splitlines()[1:]
        per_image = [r.split("\t")[0] for r in rows]
        assert len(per_image) == len(set(per_image))  # one detection per image
