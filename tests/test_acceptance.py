"""Acceptance suite.

Each test prints one PASS/FAIL line per criterion (run with ``pytest -s`` to
see them) and enforces the criterion's stated tolerance.  Criteria that refer
to "the acceptance corpus" use the fixed-seed corpus from conftest (seed 17,
50 images, 3 classes, 2-4 objects/image, 3-6 fragments/object); its thresholds
were frozen when that corpus was designed.
"""

import time

import numpy as np
import pytest

from conftest import random_class_props
from test_evaluation import _oracle_evaluate, _to_library_inputs

from protodet.cli import main as cli_main
from protodet.diffusion import (
    DiffusionParams,
    build_class_graph,
    diffuse,
    diffuse_all_classes,
    refine_scores,
)
from protodet.evaluation import ap_101, evaluate
from protodet.features import FeatureMap, map_box_to_grid, masked_roi_pool
from protodet.geometry import BinaryMask, BoundingBox, SoftMask, box_iou
from protodet.pipeline import (
    PipelineConfig,
    run_end_to_end,
    run_query_stage,
    run_refine_stage,
    run_support_stage,
)

_T0 = time.perf_counter()


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _two_and_three_node_graphs():
    full = np.ones((8, 8), dtype=bool)
    half = np.zeros((8, 8), dtype=bool)
    half[:, :4] = True
    inner = np.zeros((8, 8), dtype=bool)
    inner[2:6, :4] = True

    from protodet.diffusion import Proposal

    def prop(score, arr):
        return Proposal(
            box=BoundingBox(0, 0, 8, 8),
            mask=BinaryMask.from_array(arr),
            upn_score=score,
            feature=np.ones(2),
            pred_class=0,
            similarity=0.9,
        )

    two = build_class_graph([prop(0.9, full), prop(0.5, half)])
    three = build_class_graph([prop(0.9, full), prop(0.6, half), prop(0.3, inner)])
    return two, three


def test_criterion_1_diffusion_fixed_points():
    params = DiffusionParams(alpha=0.3, tau=1e-6, max_steps=50)
    two, three = _two_and_three_node_graphs()

    res2 = diffuse(two, params)
    err2 = float(np.abs(res2.pi - np.array([0.0, 0.7])).max())
    res3 = diffuse(three, params)
    err3 = float(np.abs(res3.pi - np.array([0.0, 0.7, 0.805])).max())

    best = min(
        _timed(lambda: (diffuse(two, params), diffuse(three, params)))
        for _ in range(5)
    )
    ok = (
        err2 < 1e-9 and res2.converged and res2.steps_taken <= 50
        and err3 < 1e-9 and res3.converged and res3.steps_taken <= 50
        and best < 1e-3
    )
    _report(
        "criterion 1 (fixed points)",
        ok,
        f"two-node err {err2:.2e} in {res2.steps_taken} steps, "
        f"three-node err {err3:.2e} in {res3.steps_taken} steps, "
        f"runtime {best * 1e6:.0f} us",
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_contraction_and_convergence_budget():
    rng = np.random.default_rng(1717)
    alpha = 0.3
    params = DiffusionParams(alpha=alpha, tau=1e-6, max_steps=70)
    worst_ratio = 0.0
    max_steps_seen = 0
    total = 0.0
    for _ in range(100):
        props = random_class_props(rng, int(rng.integers(2, 51)))
        g = build_class_graph(props)
        pi = np.full(len(props), 1.0 / len(props))
        prev = None
        for _ in range(70):
            nxt = alpha * (g.transition @ pi) + (1 - alpha) * g.prior
            diff = float(np.abs(nxt - pi).max())
            if prev is not None and prev > 0.0:
                worst_ratio = max(worst_ratio, diff / prev)
            pi = nxt
            if diff < params.tau:  # ratios past the early stop are float noise
                break
            prev = diff
        start = time.perf_counter()
        res = diffuse(g, params)
        total += time.perf_counter() - start
        assert res.converged
        max_steps_seen = max(max_steps_seen, res.steps_taken)
    ok = worst_ratio <= alpha + 1e-12 and max_steps_seen <= 70 and total < 1.0
    _report(
        "criterion 2 (contraction/budget)",
        ok,
        f"worst ratio {worst_ratio:.12f} <= {alpha}, "
        f"max steps {max_steps_seen} <= 70, diffusion time {total:.3f}s",
    )


def test_criterion_3_top_node_immunity():
    rng = np.random.default_rng(4242)
    params = DiffusionParams()
    exact = True
    for _ in range(200):
        n = int(rng.integers(2, 30))
        scores = rng.uniform(0.02, 0.9, size=n)
        scores[int(rng.integers(n))] = 0.95  # unique strict max
        props = random_class_props(rng, n, scores=scores)
        res = diffuse(build_class_graph(props), params)
        top = int(np.argmax(scores))
        refined = refine_scores(props, res, params.lam)
        if res.pi[top] != 0.0 or refined[top] != props[top].similarity:
            exact = False
            break
    _report(
        "criterion 3 (top-node immunity)",
        exact,
        "200/200 instances keep pi == 0 and score == similarity exactly",
    )


def test_criterion_4_step_stability(acceptance_dataset):
    naps = {}
    for steps in (5, 10, 30, 100):
        cfg = PipelineConfig(
            method="diffusion", diffusion=DiffusionParams(max_steps=steps)
        )
        _, report = run_end_to_end(acceptance_dataset, cfg)
        naps[steps] = report.nap50
    spread = max(naps.values()) - min(naps.values())
    ok = spread <= 0.005  # 0.5 nAP50 points
    _report(
        "criterion 4 (step stability)",
        ok,
        "nAP50 " + " ".join(f"{s}:{v:.4f}" for s, v in naps.items())
        + f", spread {spread * 100:.3f} points",
    )


def test_criterion_5_fragmentation_suppression(acceptance_dataset):
    prototypes = run_support_stage(acceptance_dataset)
    props = run_query_stage(acceptance_dataset, prototypes)
    gt_by_image = {}
    for g in acceptance_dataset.ground_truth:
        gt_by_image.setdefault(g.image_id, []).append(g.box)

    params = DiffusionParams()
    frag_base, frag_final, good_base, good_final = [], [], [], []
    for image_id, image in props.items():
        gts = gt_by_image.get(image_id, [])
        for p, final in diffuse_all_classes(image.graphs, params):
            best_iou = max((box_iou(p.box, g) for g in gts), default=0.0)
            if best_iou > 0.75:
                good_base.append(p.similarity)
                good_final.append(final)
            elif best_iou < 0.1:
                frag_base.append(p.similarity)
                frag_final.append(final)
    frag_drop = 1.0 - np.mean(frag_final) / np.mean(frag_base)
    good_drop = 1.0 - np.mean(good_final) / np.mean(good_base)

    nap50 = {}
    for method in ("none", "nms", "diffusion", "diffusion+nms"):
        cfg = PipelineConfig(method=method, diffusion=params)
        detections = run_refine_stage(props, cfg)
        nap50[method] = evaluate(
            detections, acceptance_dataset.ground_truth, max_dets=cfg.max_output
        ).nap50

    ok_a = frag_drop >= 0.5 and good_drop < 0.1
    ok_b = (nap50["diffusion"] > nap50["none"] + 0.10
            and nap50["diffusion"] >= nap50["nms"])
    ok_c = nap50["diffusion+nms"] >= nap50["diffusion"] - 0.01
    _report(
        "criterion 5 (fragment suppression)",
        ok_a and ok_b and ok_c,
        f"(a) fragment drop {frag_drop * 100:.1f}% (n={len(frag_base)}), "
        f"high-quality drop {good_drop * 100:.2f}% (n={len(good_base)}); "
        f"(b) nAP50 diffusion {nap50['diffusion']:.4f} vs none {nap50['none']:.4f} "
        f"vs nms {nap50['nms']:.4f}; (c) +nms {nap50['diffusion+nms']:.4f}",
    )


def test_criterion_6_evaluator_oracle_equivalence():
    rng = np.random.default_rng(606)
    mismatches = 0
    instances = 0
    while instances < 200:
        images = [f"im{i}" for i in range(int(rng.integers(1, 6)))]
        gts = []
        for img in images:
            for _ in range(int(rng.integers(0, 4))):
                x = np.sort(rng.uniform(0, 16, 2))
                y = np.sort(rng.uniform(0, 16, 2))
                gts.append((img, int(rng.integers(0, 3)), (x[0], y[0], x[1] + 0.5, y[1] + 0.5)))
        if not gts:
            continue
        dets = []
        for _ in range(int(rng.integers(0, 11))):
            img = images[int(rng.integers(len(images)))]
            score = float(rng.choice([0.2, 0.4, 0.6, 0.8]))
            if rng.random() < 0.5:
                g = gts[int(rng.integers(len(gts)))]
                dets.append((img, g[1], score, g[2]))
            else:
                x = np.sort(rng.uniform(0, 16, 2))
                y = np.sort(rng.uniform(0, 16, 2))
                dets.append((img, int(rng.integers(0, 3)), score,
                             (x[0], y[0], x[1] + 0.5, y[1] + 0.5)))
        instances += 1
        by_image, gt_list = _to_library_inputs(dets, gts)
        report = evaluate(by_image, gt_list, max_dets=10)
        nap, nap50, per_class = _oracle_evaluate(dets, gts, max_dets=10)
        if report.nap != nap or report.nap50 != nap50:
            mismatches += 1
    hand = ap_101([False, True], 1)
    ok = mismatches == 0 and hand == 0.5
    _report(
        "criterion 6 (evaluator oracle)",
        ok,
        f"200 micro-instances exact ({mismatches} mismatches), "
        f"hand case [FP@0.9, TP@0.8] AP={hand}",
    )


def test_criterion_7_pooling_oracle_and_lambda_zero_identity(acceptance_dataset):
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        c = int(rng.integers(1, 8))
        gh = int(rng.integers(1, 10))
        gw = int(rng.integers(1, 10))
        iw, ih = gw * 7, gh * 7
        fm = FeatureMap(data=rng.standard_normal((c, gh, gw)), image_w=iw, image_h=ih)
        weights = rng.uniform(0.0, 1.0, size=(gh, gw))
        if rng.random() < 0.3:
            weights = (weights > 0.5).astype(float)
        sm = SoftMask(weights=weights)
        x = np.sort(rng.uniform(0, iw, 2))
        y = np.sort(rng.uniform(0, ih, 2))
        box = BoundingBox(x[0], y[0], x[1] + 0.5, y[1] + 0.5)
        got = masked_roi_pool(fm, box, sm)
        # dense brute-force weighted mean over the mapped cell range
        gx1, gy1, gx2, gy2 = map_box_to_grid(box, fm)
        num = np.zeros(c)
        den = 0.0
        for u in range(gy1, gy2 + 1):
            for v in range(gx1, gx2 + 1):
                num += fm.data[:, u, v] * weights[u, v]
                den += weights[u, v]
        if den == 0.0:
            expected = fm.data[:, gy1 : gy2 + 1, gx1 : gx2 + 1].mean(axis=(1, 2))
        else:
            expected = num / den
        worst = max(worst, float(np.abs(got - expected).max()))
    prototypes = run_support_stage(acceptance_dataset)
    props = run_query_stage(acceptance_dataset, prototypes)
    dets_none = run_refine_stage(props, PipelineConfig(method="none"))
    dets_l0 = run_refine_stage(
        props, PipelineConfig(method="diffusion", diffusion=DiffusionParams(lam=0.0))
    )
    identical = all(
        [(d.box.as_tuple(), d.class_id, d.score) for d in dets_none[i]]
        == [(d.box.as_tuple(), d.class_id, d.score) for d in dets_l0[i]]
        for i in dets_none
    )
    ok = worst <= 1e-6 and identical
    _report(
        "criterion 7 (pooling oracle / lambda-0 identity)",
        ok,
        f"pooling max |err| {worst:.2e} over 100 triples; "
        f"lambda=0 scores bit-identical: {identical}",
    )


def test_criterion_8_determinism_and_budget(acceptance_manifest, tmp_path):
    outs = {}
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / name
        code = cli_main(["run", str(acceptance_manifest), "--jobs", jobs, "--out", str(out)])
        assert code == 0
        outs[name] = {
            f: (out / f).read_bytes()
            for f in ("detections.tsv", "report.txt", "report.json")
        }
    identical_runs = outs["a"] == outs["b"]
    identical_jobs = outs["a"] == outs["c"]
    elapsed = time.perf_counter() - _T0
    ok = identical_runs and identical_jobs and elapsed < 60.0
    _report(
        "criterion 8 (determinism/budget)",
        ok,
        f"reruns identical: {identical_runs}, jobs 1 vs 8 identical: {identical_jobs}, "
        f"acceptance suite elapsed {elapsed:.1f}s < 60s",
    )


def test_criterion_9_real_data_hook(acceptance_manifest, tmp_path, capsys):
    # any interchange-format export drives cmd_compare; the emitted table must
    # carry the full post-processing method set
    code = cli_main(["compare", str(acceptance_manifest), "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "compare.tsv").read_text().splitlines()
    methods = [r.split("\t")[0] for r in rows[1:]]
    expected = ["none", "nms", "softnms", "wbf", "softmerge", "diffusion", "diffusion+nms"]
    ok = methods == expected and rows[0] == "method\tnAP\tnAP50\tnAP75"
    _report(
        "criterion 9 (real-data hook)",
        ok,
        f"compare table rows: {', '.join(methods)}",
    )
