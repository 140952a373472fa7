import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import protodet
from conftest import build_time_graph, random_class_props
from protodet.diffusion import (
    ClassGraph,
    DiffusionParams,
    Proposal,
    build_class_graph,
    build_class_graphs,
    diffuse,
    diffuse_all_classes,
    refine_scores,
)
from protodet.geometry import BinaryMask, BoundingBox, mask_coverage


def _prop(score, arr, class_id=0, similarity=0.9):
    mask = BinaryMask.from_array(np.asarray(arr, dtype=bool))
    return Proposal(
        box=BoundingBox(0, 0, float(mask.width), float(mask.height)),
        mask=mask,
        upn_score=score,
        pred_class=class_id,
        similarity=similarity,
    )


def _full(n=4):
    return np.ones((n, n), dtype=bool)


def _half(n=4):
    arr = np.zeros((n, n), dtype=bool)
    arr[:, : n // 2] = True
    return arr


def _inner(n=4):
    arr = np.zeros((n, n), dtype=bool)
    arr[1 : n - 1, 0 : n // 2] = True
    return arr


def _iterate_oracle(transition, prior, alpha, tau, max_steps):
    """Pure-python fixed-point iteration from the uniform start."""
    n = len(prior)
    pi = [1.0 / n] * n
    for _ in range(max_steps):
        nxt = [
            alpha * sum(transition[i][j] * pi[j] for j in range(n)) + (1 - alpha) * prior[i]
            for i in range(n)
        ]
        delta = math.sqrt(sum((a - b) ** 2 for a, b in zip(nxt, pi)))
        pi = nxt
        if delta < tau:
            break
    return pi


class TestBuildClassGraph:
    def test_single_node(self):
        props = [_prop(0.8, _full())]
        g = build_class_graph(props)
        _, _, prior, transition = build_time_graph(props)
        assert g.edges.tolist() == [[0.0]]
        assert prior.tolist() == [0.0]
        assert transition.tolist() == [[0.0]]

    def test_two_node_containment(self):
        props = [_prop(0.9, _full()), _prop(0.5, _half())]
        g = build_class_graph(props)
        _, _, prior, transition = build_time_graph(props)
        assert g.edges.tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert prior.tolist() == [0.0, 1.0]
        assert transition.tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_equal_scores_give_bidirectional_edges(self):
        first = _full()
        second = _full()
        second[:, 0] = False
        g = build_class_graph([_prop(0.6, first), _prop(0.6, second)])
        assert g.edges[0, 1] > 0.0 and g.edges[1, 0] > 0.0

    def test_mask_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_class_graph([_prop(0.9, _full(4)), _prop(0.5, _full(6))])

    def test_mixed_classes_rejected(self):
        with pytest.raises(ValueError):
            build_class_graph([_prop(0.9, _full()), _prop(0.5, _half(), class_id=1)])

    def test_random_graph_invariants(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            props = random_class_props(rng, int(rng.integers(1, 12)))
            g = build_class_graph(props)
            _, _, prior, transition = build_time_graph(props)
            n = len(props)
            assert np.all(np.diag(g.edges) == 0.0)
            scores = np.array([p.upn_score for p in props])
            higher = scores[:, None] > scores[None, :]
            assert np.all(g.edges[higher] == 0.0)
            assert np.array_equal(prior, g.edges.max(axis=1) if n > 1 else [0.0])
            row_sums = transition.sum(axis=1)
            for i in range(n):
                if g.edges[i].sum() == 0.0:
                    assert row_sums[i] == 0.0
                else:
                    assert row_sums[i] == pytest.approx(1.0, abs=1e-12)
            # edges agree with the pairwise coverage operation
            for i in range(n):
                for j in range(n):
                    if i == j or props[i].upn_score > props[j].upn_score:
                        assert g.edges[i, j] == 0.0
                    else:
                        assert g.edges[i, j] == mask_coverage(props[i].mask, props[j].mask)


@st.composite
def _rect_props(draw, side=8):
    """1-8 same-class proposals with rectangle masks, often disjoint, and
    scores drawn from a small set so that ties are common."""
    props = []
    for _ in range(draw(st.integers(1, 8))):
        x1, y1 = draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1))
        x2, y2 = draw(st.integers(x1 + 1, side)), draw(st.integers(y1 + 1, side))
        arr = np.zeros((side, side), dtype=bool)
        arr[y1:y2, x1:x2] = True
        score = draw(st.sampled_from([0.25, 0.5]) | st.floats(0.01, 1.0))
        props.append(_prop(score, arr))
    return props


_LEFT, _RIGHT = _half(), ~_half()


class TestDerivedGraph:
    @settings(max_examples=200, deadline=None)
    @given(_rect_props())
    @example([_prop(0.8, _full())])  # single node
    @example([_prop(0.5, _LEFT), _prop(0.5, _RIGHT)])  # tied, disjoint: all-zero rows
    @example([_prop(0.5, _full()), _prop(0.5, _half()), _prop(0.5, _inner())])  # all tied
    def test_derived_arrays_equal_the_build_time_formulas(self, props):
        g = build_class_graph(props)
        coverage, edges, prior, transition = build_time_graph(props)
        assert np.array_equal(g.coverage, coverage)
        assert np.array_equal(g.edges, edges)
        # diffuse derives the walk: at alpha = 0 one step from any start is the
        # prior, and at alpha = 0.5 one step from the j-th unit vector is half
        # of the transition's column j plus half of the prior
        assert np.array_equal(diffuse(g, DiffusionParams(alpha=0.0, max_steps=1)).pi, prior)
        half = DiffusionParams(alpha=0.5, max_steps=1)
        for e in np.eye(len(props)):
            assert np.array_equal(diffuse(g, half, init=e).pi, 0.5 * (transition @ e) + 0.5 * prior)
        assert g.members == tuple(props)


class TestDiffuse:
    def test_single_node_fixed_point_zero(self):
        g = build_class_graph([_prop(0.8, _full())])
        res = diffuse(g, DiffusionParams())
        assert res.pi.tolist() == [0.0]
        assert res.converged

    def test_two_node_containment_fixed_point(self):
        props = [_prop(0.9, _full()), _prop(0.5, _half())]
        g = build_class_graph(props)
        _, _, prior, transition = build_time_graph(props)
        res = diffuse(g, DiffusionParams(alpha=0.3, tau=1e-6, max_steps=50))
        oracle = _iterate_oracle(transition.tolist(), prior.tolist(), 0.3, 1e-6, 50)
        np.testing.assert_allclose(res.pi, oracle, atol=1e-12)
        assert abs(res.pi[0] - 0.0) < 1e-9 and abs(res.pi[1] - 0.7) < 1e-9
        assert res.converged and res.steps_taken <= 50

    def test_three_node_chain_fixed_point(self):
        props = [_prop(0.9, _full()), _prop(0.6, _half()), _prop(0.3, _inner())]
        g = build_class_graph(props)
        _, _, prior, transition = build_time_graph(props)
        res = diffuse(g, DiffusionParams(alpha=0.3, tau=1e-6, max_steps=50))
        oracle = _iterate_oracle(transition.tolist(), prior.tolist(), 0.3, 1e-6, 50)
        np.testing.assert_allclose(res.pi, oracle, atol=1e-12)
        np.testing.assert_allclose(res.pi, [0.0, 0.7, 0.805], atol=1e-9)

    def test_edges_derived_once_per_call(self, monkeypatch):
        # edges is derived from coverage on every read; diffuse reads it once
        # and takes the prior and the transition from it, bit for bit as the
        # graph build once stored them
        rng = np.random.default_rng(404)
        graphs = [build_class_graph(random_class_props(rng, n)) for n in (1, 2, 9, 30)]
        graphs.append(build_class_graph([_prop(0.5, _LEFT), _prop(0.5, _RIGHT)]))
        params = DiffusionParams(alpha=0.3, tau=1e-9, max_steps=40)
        wants = []
        for g in graphs:
            _, _, prior, transition = build_time_graph(g.members)
            restart = (1.0 - params.alpha) * prior
            pi, steps = np.full(len(g.members), 1.0 / len(g.members)), 0
            while steps < params.max_steps:
                nxt = np.clip(params.alpha * (transition @ pi) + restart, 0.0, 1.0)
                steps += 1
                delta, pi = float(np.linalg.norm(nxt - pi)), nxt
                if delta < params.tau:
                    break
            wants.append((pi.tolist(), steps, delta < params.tau))
        reads = []
        derive = ClassGraph.edges.fget
        monkeypatch.setattr(ClassGraph, "edges", property(lambda g: reads.append(g) or derive(g)))
        for g, want in zip(graphs, wants):
            reads.clear()
            res = diffuse(g, params)
            assert reads == [g]
            assert (res.pi.tolist(), res.steps_taken, res.converged) == want

    def test_settings_that_differ_only_in_lambda_share_one_walk(self, monkeypatch):
        g = build_class_graph(random_class_props(np.random.default_rng(9), 12))
        reads = []
        derive = ClassGraph.edges.fget
        monkeypatch.setattr(ClassGraph, "edges", property(lambda g: reads.append(g) or derive(g)))
        first = diffuse(g, DiffusionParams(alpha=0.3, lam=0.5))
        assert diffuse(g, DiffusionParams(alpha=0.3, lam=2.0)) is first
        assert reads == [g]
        # alpha, tau and max_steps each make another walk
        for params in (DiffusionParams(alpha=0.5), DiffusionParams(tau=1e-3),
                       DiffusionParams(max_steps=5)):
            assert diffuse(g, params) is not first
        assert len(reads) == 4 and len(g.walks) == 4

    def test_init_bypasses_the_stored_walk(self, monkeypatch):
        g = build_class_graph(random_class_props(np.random.default_rng(10), 8))
        params = DiffusionParams(tau=1e-12, max_steps=200)
        stored = diffuse(g, params)
        reads = []
        derive = ClassGraph.edges.fget
        monkeypatch.setattr(ClassGraph, "edges", property(lambda g: reads.append(g) or derive(g)))
        from_zero = diffuse(g, params, init=np.zeros(8))
        assert reads == [g] and from_zero is not stored
        assert g.walks == {(params.alpha, params.tau, params.max_steps): stored}
        assert diffuse(g, params) is stored

    def test_result_weights_are_read_only(self):
        g = build_class_graph([_prop(0.9, _full()), _prop(0.5, _half())])
        res = diffuse(g, DiffusionParams())
        with pytest.raises(ValueError, match="read-only"):
            res.pi[0] = 0.5
        assert diffuse(g, DiffusionParams()).pi.tolist() == res.pi.tolist()

    def test_boundedness_on_random_graphs(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            props = random_class_props(rng, int(rng.integers(1, 30)))
            res = diffuse(build_class_graph(props), DiffusionParams())
            assert res.pi.min() >= 0.0 and res.pi.max() <= 1.0
            assert res.steps_taken <= 30

    def test_contraction_in_infinity_norm(self):
        rng = np.random.default_rng(101)
        alpha = 0.3
        for _ in range(100):
            props = random_class_props(rng, int(rng.integers(2, 51)))
            _, _, prior, transition = build_time_graph(props)
            n = len(props)
            pi = np.full(n, 1.0 / n)
            prev_diff = None
            for _ in range(40):
                nxt = alpha * (transition @ pi) + (1 - alpha) * prior
                diff = float(np.abs(nxt - pi).max())
                if prev_diff is not None and prev_diff > 0.0:
                    assert diff <= alpha * prev_diff + 1e-12
                prev_diff = diff
                pi = nxt

    def test_unique_fixed_point_from_two_starts(self):
        rng = np.random.default_rng(55)
        params = DiffusionParams(tau=1e-12, max_steps=200)
        for _ in range(30):
            props = random_class_props(rng, int(rng.integers(1, 25)))
            g = build_class_graph(props)
            from_uniform = diffuse(g, params).pi
            from_zero = diffuse(g, params, init=np.zeros(len(props))).pi
            np.testing.assert_allclose(from_uniform, from_zero, atol=1e-8)

    def test_convergence_within_70_steps(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            props = random_class_props(rng, int(rng.integers(1, 51)))
            res = diffuse(build_class_graph(props), DiffusionParams(tau=1e-6, max_steps=70))
            assert res.converged and res.steps_taken <= 70

    def test_top_node_immune(self):
        rng = np.random.default_rng(303)
        params = DiffusionParams()
        for _ in range(100):
            n = int(rng.integers(2, 20))
            scores = rng.uniform(0.02, 0.9, size=n)
            scores[int(rng.integers(n))] = 0.95  # unique strict max
            props = random_class_props(rng, n, scores=scores)
            g = build_class_graph(props)
            res = diffuse(g, params)
            top = int(np.argmax(scores))
            assert res.pi[top] == 0.0
            refined = refine_scores(props, res, params.lam)
            assert refined[top] == props[top].similarity


class TestRefineScores:
    def test_lambda_zero_is_identity(self):
        props = [_prop(0.9, _full(), similarity=0.8), _prop(0.5, _half(), similarity=0.33)]
        g = build_class_graph(props)
        res = diffuse(g, DiffusionParams())
        refined = refine_scores(props, res, 0.0)
        assert refined == [0.8, 0.33]

    def test_zero_weight_is_identity(self):
        props = [_prop(0.9, _full(), similarity=0.8)]
        res = diffuse(build_class_graph(props), DiffusionParams())
        assert refine_scores(props, res, 0.5) == [0.8]

    def test_decay_value_by_hand(self):
        # (1 - 0.7) ** 0.5 * 0.8
        props = [_prop(0.9, _full(), similarity=0.9), _prop(0.5, _half(), similarity=0.8)]
        g = build_class_graph(props)
        res = diffuse(g, DiffusionParams(alpha=0.3))
        refined = refine_scores(props, res, 0.5)
        assert refined[1] == pytest.approx(math.sqrt(0.3) * 0.8, abs=1e-12)

    def test_fragment_ratio_is_alpha_to_lambda(self):
        alpha, lam = 0.3, 0.5
        props = [_prop(0.9, _full(), similarity=0.9), _prop(0.5, _half(), similarity=0.61)]
        g = build_class_graph(props)
        res = diffuse(g, DiffusionParams(alpha=alpha))
        refined = refine_scores(props, res, lam)
        assert refined[1] == (1.0 - (1.0 - alpha)) ** lam * props[1].similarity
        assert refined[1] / props[1].similarity == pytest.approx(alpha**lam, abs=1e-12)

    def test_length_mismatch_rejected(self):
        props = [_prop(0.9, _full())]
        res = diffuse(build_class_graph(props), DiffusionParams())
        with pytest.raises(ValueError):
            refine_scores(props + props, res, 0.5)


# Out-of-range weights must raise even under ``python -O``, which strips asserts.
_RANGE_CHECK_SCRIPT = """
import numpy as np
from protodet.diffusion import (
    ClassGraph, DiffusionParams, DiffusionResult, Proposal, diffuse, refine_scores)
from protodet.geometry import BinaryMask, BoundingBox

raised = []
prop = Proposal(box=BoundingBox(0, 0, 2, 2), mask=BinaryMask(2, 2, (0, 4)),
                upn_score=0.5, pred_class=0, similarity=0.5)
# tied nodes that each cover the other twice over: the derived prior is 2.0
g = ClassGraph((0, 1), (prop, prop), np.full((2, 2), 2.0))
try:
    diffuse(g, DiffusionParams())
except ValueError:
    raised.append("diffuse")
for pi in (1.5, -0.5):
    try:
        refine_scores([prop], DiffusionResult(np.array([pi]), 1, True), 0.5)
    except ValueError:
        raised.append(f"refine_scores {pi}")
print(",".join(raised))
"""


def test_range_checks_survive_optimized_mode():
    src = str(Path(protodet.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _RANGE_CHECK_SCRIPT],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "diffuse,refine_scores 1.5,refine_scores -0.5"


def _oracle_reweight(props, alpha, lam, tau, max_steps):
    """Independent dense per-class reference for diffuse_all_classes."""
    final = {}
    for class_id in sorted({p.pred_class for p in props}):
        idx = [i for i, p in enumerate(props) if p.pred_class == class_id]
        n = len(idx)
        edges = [[0.0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                pa, pb = props[idx[a]], props[idx[b]]
                if pa.upn_score > pb.upn_score:
                    continue
                edges[a][b] = mask_coverage(pa.mask, pb.mask)
        prior = [max(row) if n > 1 else 0.0 for row in edges]
        transition = []
        for row in edges:
            s = sum(row)
            transition.append([e / s for e in row] if s > 0 else [0.0] * n)
        pi = _iterate_oracle(transition, prior, alpha, tau, max_steps)
        for k, i in enumerate(idx):
            final[i] = (1.0 - pi[k]) ** lam * props[i].similarity
    return final


def _diffuse_all(props, params):
    return diffuse_all_classes(build_class_graphs(props), params)


class TestDiffuseAllClasses:
    def test_single_class_equals_direct_path(self):
        rng = np.random.default_rng(9)
        props = random_class_props(rng, 8, class_id=2)
        params = DiffusionParams()
        combined = _diffuse_all(props, params)
        g = build_class_graph(props)
        direct = refine_scores(props, diffuse(g, params), params.lam)
        assert [s for _, s in combined] == direct

    def test_two_disjoint_classes_are_independent(self):
        rng = np.random.default_rng(10)
        props_a = random_class_props(rng, 5, class_id=0)
        props_b = random_class_props(rng, 6, class_id=1)
        params = DiffusionParams()
        combined = _diffuse_all(props_a + props_b, params)
        alone = _diffuse_all(props_a, params) + _diffuse_all(props_b, params)
        assert [s for _, s in combined] == [s for _, s in alone]
        assert [id(p) for p, _ in combined] == [id(p) for p, _ in alone]

    def test_matches_dense_oracle_on_random_three_class_instance(self):
        rng = np.random.default_rng(12)
        params = DiffusionParams()
        for _ in range(10):
            props = []
            for c in range(3):
                props.extend(random_class_props(rng, int(rng.integers(1, 8)), class_id=c))
            order = rng.permutation(len(props))
            props = [props[i] for i in order]
            expected = _oracle_reweight(
                props, params.alpha, params.lam, params.tau, params.max_steps
            )
            got = _diffuse_all(props, params)
            by_identity = {id(props[i]): expected[i] for i in range(len(props))}
            assert len(got) == len(props)
            for p, score in got:
                assert score == pytest.approx(by_identity[id(p)], abs=1e-9)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            diffuse_all_classes({}, DiffusionParams())
