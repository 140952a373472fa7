"""Per-class proposal graphs and the confidence-reweighting fixed point.

Each proposal of a class becomes a node of a directed graph.  An edge runs
from node i to node j only when j's objectness score is at least i's, and its
weight is how much of i's mask j covers; a node's prior weight is its
strongest outgoing edge.  Iterating

    pi <- alpha * (P @ pi) + (1 - alpha) * prior

(P = row-normalized edges, zero rows kept zero) converges geometrically with
rate alpha.  A node holding the strict top score of its class has no outgoing
edges, so its pi stays exactly 0 and its matching score is untouched, while a
fragment nested inside a stronger proposal saturates toward 1 - alpha and gets
decayed by the (1 - pi)^lambda transform.

A ``ClassGraph`` stores only its members and their coverage and derives
``edges`` on each read; ``diffuse`` alone builds the prior and P, from one
``edges`` read per call, and stores the result on the graph per (alpha, tau,
max_steps): lambda enters only ``refine_scores``, so it needs no walk of its own.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .geometry import BinaryMask, BoundingBox, coverage_matrix

__all__ = [
    "Proposal",
    "DiffusionParams",
    "ClassGraph",
    "DiffusionResult",
    "build_class_graph",
    "build_class_graphs",
    "diffuse",
    "refine_scores",
    "diffuse_all_classes",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Proposal:
    """Query proposal after matching: box, mask, objectness, predicted class and
    its cosine similarity.  The feature it was matched by is not kept."""

    box: BoundingBox
    mask: BinaryMask
    upn_score: float
    pred_class: int
    similarity: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.upn_score <= 1.0:
            raise ValueError(f"objectness score must be in [0, 1], got {self.upn_score}")
        if self.mask.area == 0:
            raise ValueError("proposal mask must be non-empty")


@dataclass(frozen=True)
class DiffusionParams:
    """Knobs of the reweighting iteration.

    alpha mixes propagated mass against the per-node prior, lam sets the decay
    strength of the final score transform, tau is the early-stop threshold on
    the L2 norm of successive iterates, and max_steps bounds the iteration.
    """

    alpha: float = 0.3
    lam: float = 0.5
    tau: float = 1e-6
    max_steps: int = 30

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.lam < 0.0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass(frozen=True, eq=False)
class ClassGraph:
    """A class's proposals and their pairwise mask coverage; ``edges`` is derived
    from these on each read.  One graph serves every method and every diffusion
    setting, and ``walks`` holds ``diffuse``'s result per (alpha, tau, max_steps)."""

    node_ids: tuple[int, ...]
    members: tuple[Proposal, ...]  # in node order
    coverage: np.ndarray  # (N, N), coverage[i, j] = fraction of i's mask that j covers
    walks: dict = field(default_factory=dict, repr=False)

    @property
    def edges(self) -> np.ndarray:
        """(N, N): coverage where j's objectness is at least i's, zero diagonal."""
        scores = np.array([p.upn_score for p in self.members], dtype=np.float64)
        edges = np.where(scores[:, None] > scores[None, :], 0.0, self.coverage)
        np.fill_diagonal(edges, 0.0)
        return edges


@dataclass(frozen=True, eq=False)
class DiffusionResult:
    pi: np.ndarray
    steps_taken: int
    converged: bool


def build_class_graph(
    props: Sequence[Proposal], node_ids: Sequence[int] | None = None
) -> ClassGraph:
    """Build the directed coverage graph over same-class proposals.

    edges[i, j] is 0 when i outscores j, else the fraction of i's mask that j
    covers; the diagonal is forced to 0 (self-coverage carries no information).
    Exact score ties produce edges in both directions.
    """
    if not props:
        raise ValueError("cannot build a graph over zero proposals")
    classes = {p.pred_class for p in props}
    if len(classes) != 1:
        raise ValueError(f"proposals must share one predicted class, got {sorted(classes)}")
    if node_ids is None:
        node_ids = range(len(props))
    ids = tuple(int(i) for i in node_ids)
    if len(ids) != len(props):
        raise ValueError("node_ids must align with proposals")
    return ClassGraph(ids, tuple(props), coverage_matrix([p.mask for p in props]))


def build_class_graphs(props: Sequence[Proposal]) -> dict[int, ClassGraph]:
    """One graph per predicted class, keyed by class id; node ids are indices
    into ``props``, in input order."""
    by_class: dict[int, list[int]] = {}
    for i, p in enumerate(props):
        by_class.setdefault(p.pred_class, []).append(i)
    return {class_id: build_class_graph([props[i] for i in idx], node_ids=idx)
            for class_id, idx in sorted(by_class.items())}


def diffuse(
    g: ClassGraph, params: DiffusionParams, init: np.ndarray | None = None
) -> DiffusionResult:
    """Run the fixed-point iteration from a uniform start.

    Stops once the L2 norm of the iterate difference drops below tau, or after
    max_steps updates.  ``init`` overrides the uniform start (the fixed point
    is unique, so this only matters for verification).  Without ``init`` a
    graph's result is computed once per walk setting; its ``pi`` is read-only.
    """
    key = (params.alpha, params.tau, params.max_steps)
    if init is None and key in g.walks:
        return g.walks[key]
    edges = g.edges  # derived on each read: read once
    prior = edges.max(axis=1)  # each node's strongest outgoing edge
    row_sums = edges.sum(axis=1)
    transition = np.zeros_like(edges)  # each row scaled to sum 1; all-zero rows stay zero
    nonzero = row_sums > 0.0
    transition[nonzero] = edges[nonzero] / row_sums[nonzero, None]
    n = len(prior)
    if init is None:
        pi = np.full(n, 1.0 / n)
    else:
        pi = np.asarray(init, dtype=np.float64).copy()
        if pi.shape != (n,):
            raise ValueError(f"init must have shape ({n},), got {pi.shape}")
    restart = (1.0 - params.alpha) * prior
    steps = 0
    converged = False
    for _ in range(params.max_steps):
        nxt = params.alpha * (transition @ pi) + restart
        lo, hi = float(nxt.min()), float(nxt.max())
        if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):
            raise ValueError(f"diffusion step {steps + 1} left [0, 1]: min {lo!r}, max {hi!r}")
        np.clip(nxt, 0.0, 1.0, out=nxt)  # shave float noise; math keeps pi in [0, 1]
        steps += 1
        delta = float(np.linalg.norm(nxt - pi))
        pi = nxt
        if delta < params.tau:
            converged = True
            break
    pi.flags.writeable = False
    result = DiffusionResult(pi=pi, steps_taken=steps, converged=converged)
    if init is None:
        g.walks[key] = result
    return result


def refine_scores(
    props: Sequence[Proposal], result: DiffusionResult, lam: float
) -> list[float]:
    """Final score per proposal: (1 - pi)^lambda times its matching similarity."""
    if len(props) != len(result.pi):
        raise ValueError(f"got {len(props)} proposals but {len(result.pi)} weights")
    if not (float(result.pi.max(initial=0.0)) <= 1.0 and float(result.pi.min(initial=0.0)) >= 0.0):
        raise ValueError("diffusion weights must lie in [0, 1]")
    return [
        float((1.0 - float(pi_j)) ** lam * p.similarity)
        for p, pi_j in zip(props, result.pi)
    ]


def diffuse_all_classes(
    graphs: Mapping[int, ClassGraph], params: DiffusionParams
) -> list[tuple[Proposal, float]]:
    """Reweight each class graph and concatenate.

    ``graphs`` is ``build_class_graphs(props)``; it does not depend on
    ``params``, so one build serves every setting.  Output order is (class_id
    ascending, then node order).  Classes are handled one after another.
    """
    if not graphs:
        raise ValueError("no proposals to reweight")
    out: list[tuple[Proposal, float]] = []
    for class_id, graph in sorted(graphs.items()):
        result = diffuse(graph, params)
        if not result.converged:
            log.debug(
                "class %d graph (%d nodes) hit max_steps=%d without converging",
                class_id, len(graph.members), params.max_steps,
            )
        out.extend(zip(graph.members, refine_scores(graph.members, result, params.lam)))
    return out
