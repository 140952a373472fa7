import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from protodet.cli import build_parser, main
from protodet.diffusion import DiffusionParams
from protodet.features import ClassPrototype
from protodet.generator import GeneratorConfig
from protodet.interchange import load_dataset, save_prototypes
from protodet.pipeline import PipelineConfig, run_query_stage, run_support_stage


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    code = main(["gen", "--seed", "5", "--images", "6", "--out", str(out / "ds")])
    assert code == 0
    return out / "ds" / "manifest.json"


def _read_tsv(path):
    rows = [line.split("\t") for line in Path(path).read_text().splitlines()]
    return rows[0], rows[1:]


def _exit_code(argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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

    @pytest.mark.parametrize("name", ["manifest.json", "proposals.jsonl", "run.cfg"])
    def test_invalid_utf8_is_data_error(self, cli_corpus, tmp_path, capsys, name):
        ds = tmp_path / "ds"
        shutil.copytree(cli_corpus.parent, ds)
        cfg = ds / "run.cfg"
        cfg.write_text("alpha=0.3\n")
        bad = ds / name
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        code = main(["run", str(ds / "manifest.json"), "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert "data error" in err and str(bad) in err

    def test_proposal_without_feature_is_data_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["gen", "--seed", "17", "--images", "4", "--out", str(ds)]) == 0
        props = ds / "proposals.jsonl"
        lines = props.read_text().splitlines()
        last = json.loads(lines[-1])
        del last["feature"]
        props.write_text("\n".join([*lines[:-1], json.dumps(last)]) + "\n")
        out = tmp_path / "o"
        assert main(["run", str(ds / "manifest.json"), "--out", str(out)]) == 3
        assert f"{props}:{len(lines)}: no feature" in capsys.readouterr().err
        assert not out.exists()

    def test_support_without_feature_map_is_data_error(self, cli_corpus, tmp_path, capsys):
        ds = tmp_path / "ds"
        shutil.copytree(cli_corpus.parent, ds)
        supports = ds / "supports.jsonl"
        lines = supports.read_text().splitlines()
        image_id = json.loads(lines[1])["image_id"]
        manifest = json.loads((ds / "manifest.json").read_text())
        del manifest["feature_maps"][image_id]
        (ds / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "o"
        assert main(["run", str(ds / "manifest.json"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"data error: {supports}:2: support image {image_id!r} has no feature map" in err
        assert not out.exists()

    # each case broke a run that at the parent ended in exit 0 (nAP=0) or exit 4
    @pytest.mark.parametrize("bad", [
        lambda p: replace(p, class_id=p.class_id + 100),
        lambda p: replace(p, vector=p.vector[:-1]),
        lambda p: replace(p, vector=np.full_like(p.vector, np.nan)),
        lambda p: replace(p, vector=np.zeros_like(p.vector)),
        lambda p: None,
    ], ids=["class-id", "dimension", "nan", "zero", "empty"])
    def test_bad_prototype_file_is_data_error(self, cli_corpus, tmp_path, capsys, bad):
        protos = tmp_path / "bad.protos"
        save_prototypes(protos, [q for p in run_support_stage(load_dataset(cli_corpus))
                                 if (q := bad(p)) is not None])
        out = tmp_path / "o"
        assert main(["run", str(cli_corpus), "--prototypes", str(protos),
                     "--out", str(out)]) == 3
        assert f"data error: {protos}: " in capsys.readouterr().err
        assert not out.exists()

    # int() and float() used to coerce each of these values and load the record
    # (an integer too large for a float ended in an OverflowError traceback)
    @pytest.mark.parametrize("name, keys, value, message", [
        ("manifest.json", ("format_version",), True, "format_version must be a JSON integer"),
        ("manifest.json", ("num_classes",), 3.0, "num_classes must be a JSON integer, got 3.0"),
        ("manifest.json", ("shots",), True, "shots must be a JSON integer, got true"),
        ("manifest.json", ("images", 0, "width"), 96.0, "image width must be a JSON integer"),
        ("manifest.json", ("images", 4, "height"), "96", "image height must be a JSON integer"),
        ("proposals.jsonl", ("mask", "w"), 96.0, "mask w must be a JSON integer, got 96.0"),
        ("supports.jsonl", ("mask", "h"), "96", 'mask h must be a JSON integer, got "96"'),
        ("supports.jsonl", ("class_id",), 1.7, "class_id must be a JSON integer, got 1.7"),
        ("ground_truth.jsonl", ("class_id",), 0.7, "class_id must be a JSON integer, got 0.7"),
        ("proposals.jsonl", ("score",), True, "score must be a JSON number, got true"),
        ("proposals.jsonl", ("score",), "0.5", 'score must be a JSON number, got "0.5"'),
        ("proposals.jsonl", ("score",), 10**400, "int too large to convert to float"),
        ("proposals.jsonl", ("box", 2), "40.0", 'box coordinate must be a JSON number'),
        ("ground_truth.jsonl", ("box", 0), False, "box coordinate must be a JSON number, got false"),
        ("proposals.jsonl", ("feature", 3), True, "feature value must be a JSON number, got true"),
        ("proposals.jsonl", ("mask", "counts", 0), float, "RLE run lengths must be integers"),
        ("supports.jsonl", ("mask", "counts"), lambda c: [*c[:-1], c[-1] - 1, 0, True],
         "RLE run lengths must be integers"),
    ], ids=["format-version", "num-classes", "shots", "width", "height", "mask-w", "mask-h", "support-class",
            "gt-class", "score-bool", "score-str", "score-overflow", "box-str", "box-bool",
            "feature-bool", "counts-float", "counts-bool"])
    def test_mistyped_json_value_is_data_error(self, cli_corpus, tmp_path, capsys, name, keys,
                                               value, message):
        ds = tmp_path / "ds"
        shutil.copytree(cli_corpus.parent, ds)
        path = ds / name
        docs = ([json.loads(path.read_text())] if name == "manifest.json"
                else [json.loads(line) for line in path.read_text().splitlines()])
        doc = docs[0 if name == "manifest.json" else 1]  # a record's is the file's line 2
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value(doc[keys[-1]]) if callable(value) else value
        path.write_text("".join(json.dumps(d) + "\n" for d in docs))
        out = tmp_path / "o"
        assert main(["run", str(ds / "manifest.json"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        where = str(path) if name == "manifest.json" else f"{path}:2"
        assert f"data error: {where}: " in err and message in err
        assert not out.exists()

    def test_success_is_0_via_subprocess(self, cli_corpus, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "protodet.cli", "run", str(cli_corpus),
             "--out", str(tmp_path / "o")],
            capture_output=True,
        )
        assert proc.returncode == 0

    def test_closed_stdout_exits_quietly(self, cli_corpus, tmp_path):
        # `protodet compare ... | head`: the reader is gone before the table prints
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "protodet.cli", "compare", str(cli_corpus),
                 "--out", str(tmp_path / "o")],
                stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert b"Traceback" not in proc.stderr
        assert (tmp_path / "o" / "compare.tsv").is_file()


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

    @pytest.mark.parametrize("command, line, expected", [
        ("run", "warp-speed=false", 3),  # unknown key, as with any value
        ("run", "alpha=no", 2),  # not a switch: malformed value
        ("gen", "allow-score-overlap=false", 0),
        ("gen", "allow-score-overlap=no", 0),
    ])
    def test_false_value_must_name_a_switch(self, cli_corpus, tmp_path, command, line,
                                            expected):
        cfg = tmp_path / "f.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        head = ["run", str(cli_corpus)] if command == "run" else ["gen", "--images", "2"]
        assert _exit_code([*head, "--config", str(cfg), "--out", str(out)]) == expected
        if command == "gen":
            gen_cfg = json.loads((out / "generator_config.json").read_text())
            assert gen_cfg["allow_score_overlap"] is False

    @pytest.mark.parametrize("command, line", [
        ("run", "help=true"),
        ("run", "help=false"),
        ("run", "h=true"),  # --h abbreviates --help
        ("gen", "help=false"),
        ("run", "=5"),  # an empty key: "--=5" would be an ambiguous abbreviation
    ])
    def test_help_key_is_data_error(self, cli_corpus, tmp_path, capsys, command, line):
        # argparse would print the usage and exit 0 without running the command
        cfg = tmp_path / "h.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        head = ["run", str(cli_corpus)] if command == "run" else ["gen", "--images", "2"]
        assert _exit_code([*head, "--config", str(cfg), "--out", str(out)]) == 3
        assert "is not a config key" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("command, line, message", [
        ("gen", "config=o.cfg", "'config' is not a config key"),
        ("gen", "c=o.cfg", "'c' is not a config key"),  # --c abbreviates --config
        ("run", "lam=0.4", "'lam' is not a config key"),  # --lam abbreviates --lambda
        ("sweep", "lambdas=0.5 --help", "reads as a flag"),
        ("sweep", "lambdas=0.5 -h", "reads as a flag"),
    ])
    def test_key_that_is_no_option_name_is_data_error(self, cli_corpus, tmp_path, capsys,
                                                      command, line, message):
        # at the parent a config key was matched as an argparse prefix and each of
        # these lines was ignored, expanded, or printed the usage and exited 0
        (tmp_path / "o.cfg").write_text("images=1\n")
        cfg = tmp_path / "k.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        head = ["gen", "--images", "2"] if command == "gen" else [command, str(cli_corpus)]
        assert _exit_code([*head, "--config", str(cfg), "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_number_in_a_list_is_a_value(self, cli_corpus, tmp_path, capsys):
        cfg = tmp_path / "n.cfg"
        cfg.write_text("alphas=-0.1 0.3\n")
        out = tmp_path / "o"
        assert main(["sweep", str(cli_corpus), "--config", str(cfg), "--out", str(out)]) == 0
        assert [r[1] for r in _read_tsv(out / "sweep.tsv")[1]] == ["-0.1", "0.3"]
        assert "alpha must be in [0, 1)" in capsys.readouterr().err


class TestSingleSourceOfSettings:
    def test_gen_flags_are_generator_fields_with_their_defaults(self):
        args = vars(build_parser().parse_args(["gen"]))
        for dest in ("command", "config", "out"):
            del args[dest]
        assert set(args) == {f.name for f in fields(GeneratorConfig)}
        assert args == asdict(GeneratorConfig())

    @pytest.mark.parametrize("command", ["run", "compare", "sweep"])
    def test_pipeline_flag_defaults_are_dataclass_defaults(self, command):
        args = build_parser().parse_args([command, "manifest.json"])
        knobs, cfg = DiffusionParams(), PipelineConfig()
        assert (args.tau, args.max_output, args.jobs, args.prototypes) == \
            (knobs.tau, cfg.max_output, cfg.jobs, cfg.prototype_path)
        if command == "sweep":
            assert (args.lambdas, args.alphas, args.steps_grid) == \
                ([knobs.lam], [knobs.alpha], [knobs.max_steps])
        else:
            assert (args.alpha, args.lam, args.max_steps) == \
                (knobs.alpha, knobs.lam, knobs.max_steps)
        if command == "run":
            assert args.method == cfg.method


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

    @pytest.fixture(scope="class")
    def image_class_pairs(self, cli_corpus):
        ds = load_dataset(cli_corpus)
        images = run_query_stage(ds, run_support_stage(ds))
        return sum(len({p.pred_class for p in im.proposals}) for im in images.values())

    @staticmethod
    def _graph_builds(monkeypatch, argv):
        import protodet.diffusion

        calls = []
        original = protodet.diffusion.build_class_graph
        monkeypatch.setattr(protodet.diffusion, "build_class_graph",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        assert main(argv) == 0
        return len(calls)

    @pytest.mark.parametrize("argv", [["sweep", *GRID], ["compare"],
                                      ["run", "--method", "diffusion"],
                                      ["run", "--method", "softmerge"]],
                             ids=["sweep", "compare", "run-diffusion", "run-softmerge"])
    def test_each_class_graph_is_built_once(self, cli_corpus, tmp_path, monkeypatch,
                                            image_class_pairs, argv):
        argv = [argv[0], str(cli_corpus), *argv[1:], "--out", str(tmp_path / "o")]
        assert self._graph_builds(monkeypatch, argv) == image_class_pairs > 0

    @pytest.mark.parametrize("method", ["none", "nms", "softnms", "wbf"])
    def test_graphless_methods_build_no_graph(self, cli_corpus, tmp_path, monkeypatch, method):
        argv = ["run", str(cli_corpus), "--method", method, "--out", str(tmp_path / "o")]
        assert self._graph_builds(monkeypatch, argv) == 0

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
