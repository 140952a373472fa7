"""Golden output digests: every command's output tables on fixed-seed corpora.

A change that should leave the outputs alone (a faster kernel, a refactor)
must keep these digests; one that changes a figure must change the digest it
moves and say why.  The corpora are the benchmark's three workloads at seeds 1
and 1009, with their generator settings restated here, plus the acceptance
corpus.  Each corpus runs ``run``, ``run --method softmerge``, ``compare`` and a
2x2 ``sweep`` through ``cli.main``; on compare-overlap at seed 1, ``run`` also
runs each other method.  ``sweep.tsv`` loses its ``sec_per_image`` column, the
one timing in any output.

The digests are the same with ``OPENBLAS_NUM_THREADS=1`` and ``=2``.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import ACCEPTANCE_CFG

from protodet.cli import main
from protodet.generator import GeneratorConfig, generate_dataset

_OVERLAP = dict(feature_noise=0.6, allow_score_overlap=True,
                fragment_score_range=(0.05, 0.7), whole_score_range=(0.3, 0.95))
_CORPORA = {
    "run-hires": dict(images=2, classes=1, objects_per_image=(3, 3),
                      fragments_per_object=(60, 60), distractors_per_image=(2, 2),
                      image_size=512, grid_size=32),
    "compare-overlap": dict(images=25, objects_per_image=(3, 3), fragments_per_object=(11, 11),
                            distractors_per_image=(2, 2), image_size=128, grid_size=16,
                            **_OVERLAP),
    "sweep-fmap": dict(images=20, objects_per_image=(3, 3), fragments_per_object=(6, 6),
                       distractors_per_image=(2, 2), query_feature_maps=True, image_size=128,
                       grid_size=16, **_OVERLAP),
}
_COMMANDS = {
    "run": (["run"], ("detections.tsv", "report.json", "report.txt")),
    "softmerge": (["run", "--method", "softmerge"], ("detections.tsv", "report.json", "report.txt")),
    "compare": (["compare"], ("compare.tsv",)),
    "sweep": (["sweep", "--lambdas", "0.5", "1.0", "--alphas", "0.0", "0.3",
               "--steps-grid", "30"], ("sweep.tsv",)),
}

# (corpus, seed) -> command -> the first 16 hex digits of each output file's SHA-256,
# in the order of _COMMANDS
GOLDEN = {
    ("run-hires", 1): {
        "run": ("36458b15ce905dcd", "4d44a0006eba0a27", "3baa34eb66b75585"),
        "softmerge": ("d3cfc39f4d256086", "4913e4a8cf067bfc", "48e878026143ec3d"),
        "compare": ("3dec7752bda92285",),
        "sweep": ("6840b4a2c3521141",),
    },
    ("run-hires", 1009): {
        "run": ("b0431e15ab6abdd9", "4d44a0006eba0a27", "3baa34eb66b75585"),
        "softmerge": ("a0780cb09f0fb298", "5b7d94250132ebf9", "457345cf2f0ad61c"),
        "compare": ("4ffaa81e699601c4",),
        "sweep": ("6840b4a2c3521141",),
    },
    ("compare-overlap", 1): {
        "run": ("4c4fefdfeb18f866", "a768ae9e73358a67", "62d92bc948c06dba"),
        "softmerge": ("de97695355d6bd7a", "efbcf437551da9ab", "84768df5baa2d94d"),
        "compare": ("a65f95e041cc763e",),
        "sweep": ("80ee58a2fdad8dca",),
    },
    ("compare-overlap", 1009): {
        "run": ("a2b94266bdd91167", "7fa76439d00ba496", "172da3e17980022f"),
        "softmerge": ("3d32e1c606541d45", "d47e3fb750b9695f", "e3c48be71110e236"),
        "compare": ("9018a9ecf244e468",),
        "sweep": ("9af9c249c5d5615f",),
    },
    ("sweep-fmap", 1): {
        "run": ("74e3b19b2a20355a", "c018f364925db794", "e2422a936090bf96"),
        "softmerge": ("4ffe4d35c3c338ae", "24f325afbbde104f", "9eefff00dd651fbe"),
        "compare": ("583a258a0de49969",),
        "sweep": ("6840b4a2c3521141",),
    },
    ("sweep-fmap", 1009): {
        "run": ("609b86c60692039d", "640b131c3501fb0f", "1f6ddcccb2ae417d"),
        "softmerge": ("95ec40c452db0bfe", "94495d7f80442d3f", "08fc0a5dad281bfa"),
        "compare": ("3f0a7007d72a59b9",),
        "sweep": ("6840b4a2c3521141",),
    },
    ("acceptance", 17): {
        "run": ("a8630061bb81c00d", "f9efc055302993f1", "a777c0930e9fd6c0"),
        "softmerge": ("93971a10cdabbc96", "ec0836bdcaf1208c", "5086ec20d6776110"),
        "compare": ("fafac9b94b98a29a",),
        "sweep": ("6840b4a2c3521141",),
    },
}


def _config(corpus: str, seed: int) -> GeneratorConfig:
    return ACCEPTANCE_CFG if corpus == "acceptance" else GeneratorConfig(seed=seed, **_CORPORA[corpus])


def _digest(path) -> str:
    """SHA-256 of the file's text; sweep.tsv without its last (timing) column."""
    text = path.read_text(encoding="utf-8")
    if path.name == "sweep.tsv":
        text = "\n".join(line.rsplit("\t", 1)[0] for line in text.splitlines()) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _output_digests(corpus: str, seed: int, tmp) -> dict:
    """Each command's output digests on the corpus, in the shape of GOLDEN."""
    manifest = str(generate_dataset(_config(corpus, seed), tmp / "ds"))
    got = {}
    for name, (argv, files) in _COMMANDS.items():
        out = tmp / name
        assert main([argv[0], manifest, *argv[1:], "--out", str(out)]) == 0
        got[name] = tuple(_digest(out / f)[:16] for f in files)
    return got


# detections.tsv of ``run --method M`` on compare-overlap at seed 1, for the methods
# that GOLDEN runs only inside ``compare``, whose table keeps nothing but nAP
METHOD_GOLDEN = {
    "none": "a691f606ae969031",
    "nms": "50d1ed0f4ae9e9bc",
    "softnms": "97cfac2e0db18fdd",
    "wbf": "8cdd7177b7352057",
    "diffusion+nms": "a4c5fc6654e00916",
}


@pytest.fixture(scope="module")
def compare_overlap_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare_overlap")
    return str(generate_dataset(_config("compare-overlap", 1), out / "ds"))


@pytest.mark.parametrize("method", list(METHOD_GOLDEN))
def test_method_detections_are_golden(tmp_path, compare_overlap_manifest, method):
    assert main(["run", compare_overlap_manifest, "--method", method,
                 "--out", str(tmp_path)]) == 0
    assert _digest(tmp_path / "detections.tsv")[:16] == METHOD_GOLDEN[method]


@pytest.mark.parametrize("corpus,seed", [
    ("run-hires", 1), ("run-hires", 1009), ("compare-overlap", 1), ("compare-overlap", 1009),
    ("sweep-fmap", 1), ("sweep-fmap", 1009), ("acceptance", ACCEPTANCE_CFG.seed),
])
def test_output_digests_are_golden(tmp_path, corpus, seed):
    assert _output_digests(corpus, seed, tmp_path) == GOLDEN[corpus, seed]
