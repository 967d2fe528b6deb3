"""Triangle enumeration, per-node/per-edge motif degrees, and the two derived
structures: a motif-weighted adjacency matrix and motif-biased walk transitions."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal, get_args

import numpy as np
import scipy.sparse as sp

from .config import check_choice
from .graph import Graph, null_model_rewire

__all__ = [
    "MotifStats",
    "count_triangles",
    "null_model_totals",
    "WeightedAdjacency",
    "unit_adjacency",
    "build_motif_adjacency",
    "TransitionModel",
    "build_transition_model",
    "check_mode",
    "uniform_transitions",
]

# how motif degrees bias walk transitions (see build_transition_model)
MotifMode = Literal["strict", "smoothed"]
MOTIF_SIZE = 3  # nodes in a triangle, the one motif counted
STATS_MISMATCH = "motif stats were counted on a different graph"
WEIGHTS_MISMATCH = "weights were built on a different graph"


@dataclass(frozen=True, eq=False)
class MotifStats:
    """Exact triangle participation counts for ``graph``, the graph counted.

    ``node_degree[i]`` is the number of triangles containing node i and
    ``edge_values[r]`` the number containing edge ``graph.edges[r]``.
    """

    node_degree: np.ndarray
    edge_values: np.ndarray = field(repr=False)
    total_motifs: int
    graph: Graph = field(repr=False)


def count_triangles(g: Graph) -> MotifStats:
    """Enumerate every triangle exactly once via sorted neighbor intersection.

    For each edge (u, v) the shared-neighbor count |N(u) ∩ N(v)| is the edge's
    motif degree; node degrees and the total follow from the handshake
    identities (each triangle touches 3 edges, and twice per incident node).
    """
    n = g.node_count
    ed = np.zeros(g.edge_count, dtype=np.int64)
    for idx in range(g.edge_count):
        u, v = g.edges[idx]
        ed[idx] = np.intersect1d(g.neighbors(u), g.neighbors(v),
                                 assume_unique=True).size
    nd = np.zeros(n, dtype=np.int64)
    np.add.at(nd, g.edges[:, 0], ed)
    np.add.at(nd, g.edges[:, 1], ed)
    assert not np.any(nd % 2), "each triangle meets a node on exactly 2 edges"
    nd //= 2
    total = int(ed.sum()) // 3
    nd.setflags(write=False)
    ed.setflags(write=False)
    return MotifStats(nd, ed, total, g)


def null_model_totals(g: Graph, samples: int, swaps_per_edge: int, seed: int) -> np.ndarray:
    """Triangle totals of ``samples`` degree-preserving rewirings of ``g``,
    drawn with seeds ``seed .. seed + samples - 1``, as float64."""
    if samples < 1:
        raise ValueError(f"null-model samples must be >= 1, got {samples}")
    totals = []
    for i in range(samples):
        rewired = null_model_rewire(g, swaps_per_edge, seed=seed + i)
        totals.append(count_triangles(rewired).total_motifs)
    return np.asarray(totals, dtype=np.float64)


def check_same_graph(g: Graph, built_on: Graph, message: str) -> None:
    """The one agreement rule between a graph and what was derived from one:
    ``built_on`` is ``g`` itself, or has its node count and ``edges`` (and so
    its CSR), else ValueError(message)."""
    if built_on is not g and (built_on.node_count != g.node_count
                              or not np.array_equal(built_on.edges, g.edges)):
        raise ValueError(message)


@dataclass(frozen=True, eq=False)
class WeightedAdjacency:
    """Sparse symmetric edge-weight matrix over the node pairs of ``graph``.

    ``edge_weights[r]`` weighs edge ``graph.edges[r]``; ``matrix``, the full
    symmetric CSR form on ``graph``'s pattern, is built on first read.
    """

    graph: Graph = field(repr=False)
    edge_weights: np.ndarray

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        g, n = self.graph, self.graph.node_count
        return sp.csr_matrix((self.edge_weights[g.edge_ids], g.indices, g.indptr), shape=(n, n))

    def weight(self, u: int, v: int) -> float:
        return float(self.matrix[u, v])


def _adjacency(g: Graph, w: np.ndarray) -> WeightedAdjacency:
    """The one builder of a WeightedAdjacency: ``w``, one weight per row of
    ``g.edges``, made read-only."""
    w.setflags(write=False)
    return WeightedAdjacency(g, w)


def unit_adjacency(g: Graph) -> WeightedAdjacency:
    """Plain 0/1 adjacency as a WeightedAdjacency (the unweighted baseline)."""
    return _adjacency(g, np.ones(g.edge_count, dtype=np.float64))


def _motif_weights(stats: MotifStats) -> np.ndarray:
    """Per-edge weight 1 + ED/|V_M|, which is exactly 1 on motif-free edges."""
    return 1.0 + stats.edge_values / MOTIF_SIZE


def build_motif_adjacency(g: Graph, stats: MotifStats) -> WeightedAdjacency:
    """Boost each edge's unit weight by edge_motif_degree / motif_size.

    Entries: 0 off the edge set, 1 on motif-free edges (connectivity is kept),
    1 + ED/|V_M| on edges inside at least one motif instance.
    """
    check_same_graph(g, stats.graph, STATS_MISMATCH)
    return _adjacency(g, _motif_weights(stats))


@dataclass(frozen=True, eq=False)
class TransitionModel:
    """Per-node outgoing probability rows over ``graph``'s neighbor lists.

    Arrays are CSR-aligned with ``graph``: row i occupies
    ``graph.indptr[i]:graph.indptr[i+1]`` of ``probs`` (normalized, sums to
    1) and ``masses`` (the unnormalized weights the row was built from,
    which second-order walk biasing composes with). Isolated nodes have
    empty rows.
    """

    graph: Graph = field(repr=False)
    probs: np.ndarray
    masses: np.ndarray

    def row(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.graph.indptr[node], self.graph.indptr[node + 1]
        return self.graph.indices[lo:hi], self.probs[lo:hi]


def _transitions(g: Graph, masses: np.ndarray) -> TransitionModel:
    """The one builder of a TransitionModel: each row's ``masses`` (CSR-aligned
    with ``g``) over the row's own left-to-right sum (a sequential
    ``bincount``), both arrays made read-only. Every row with a neighbour
    has positive mass."""
    row_of = np.repeat(np.arange(g.node_count), g.degrees)
    probs = masses / np.bincount(row_of, weights=masses, minlength=g.node_count)[row_of]
    for a in (masses, probs):
        a.setflags(write=False)
    return TransitionModel(g, probs, masses)


def check_mode(mode: str) -> None:
    """Raise ValueError unless ``mode`` is a ``MotifMode``: "strict" or
    "smoothed" (see ``build_transition_model``)."""
    check_choice("mode", mode, get_args(MotifMode))


def build_transition_model(
    g: Graph,
    stats: MotifStats,
    mode: MotifMode = "strict",
) -> TransitionModel:
    """Motif-biased walk transitions.

    ``strict``: P(i -> j) proportional to the edge motif degree ED(i, j); a
    node whose incident edges all have ED 0 falls back to the uniform row
    (the ratio is otherwise undefined). Motif-free edges keep probability 0,
    so strict rows can trap walks away from such edges. ``smoothed``: P
    proportional to the motif-weighted adjacency entries, which are >= 1 on
    every edge, so all neighbors stay reachable.
    """
    check_same_graph(g, stats.graph, STATS_MISMATCH)
    check_mode(mode)
    if mode == "strict":
        masses = stats.edge_values[g.edge_ids].astype(np.float64)
        # a node's incident edge motif degrees sum to twice its node degree
        dead = (stats.node_degree == 0) & (g.degrees > 0)
        masses[np.repeat(dead, g.degrees)] = 1.0
    else:
        masses = _motif_weights(stats)[g.edge_ids]
    return _transitions(g, masses)


def uniform_transitions(g: Graph) -> TransitionModel:
    """Unbiased transitions: every neighbor equally likely (classic walks)."""
    return _transitions(g, np.ones(g.indices.shape[0], dtype=np.float64))
