"""LINE: edge-sampling embeddings with first- and second-order proximity."""
from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .config import TrainConfig
from .embedding import EmbeddingMatrix
from .graph import Graph
from .motifs import WEIGHTS_MISMATCH, WeightedAdjacency, check_same_graph
from .sgns import NOISE_POWER, CumulativeSampler, train_pairs

__all__ = ["check_concat_dim", "edge_sampling_tables", "train_line"]


def edge_sampling_tables(g: Graph, weights: WeightedAdjacency):
    """(edge cumulative probabilities, negative-sampling distribution).

    ValueError unless ``weights`` were built on ``g``: the same graph, or
    one with its node count and edges (``motifs.check_same_graph``)."""
    check_same_graph(g, weights.graph, WEIGHTS_MISMATCH)
    w = weights.edge_weights.astype(np.float64)
    if w.sum() <= 0:
        raise ValueError("all edge weights are zero; nothing to sample")
    edge_cum = np.cumsum(w / w.sum())
    # endpoint 0 of every edge, then endpoint 1: each node's sum in edge order
    wdeg = np.bincount(g.edges.T.ravel(), weights=np.tile(w, 2), minlength=g.node_count)
    noise = wdeg**NOISE_POWER
    noise /= noise.sum()
    return edge_cum, noise


def check_concat_dim(config: TrainConfig) -> None:
    """Raise ValueError when ``config`` asks for the "concat" order at an odd
    ``dim``, which its two halves cannot split."""
    if config.line_order == "concat" and config.dim % 2:
        raise ValueError(f"concat order needs an even dimension, got dim {config.dim}")


def train_line(
    g: Graph,
    weights: WeightedAdjacency,
    config: TrainConfig,
) -> EmbeddingMatrix:
    """LINE on ``weights``' edge weights: ``unit_adjacency`` for plain
    LINE, ``build_motif_adjacency`` for the motif-weighted one.

    Each batch draws edges with probability proportional to their weight
    and flips each one's direction uniformly; ``sgns.train_pairs`` trains
    the endpoint pairs against weighted-degree^NOISE_POWER negatives.
    "first" shares one matrix for both roles, "second" keeps separate
    center and context matrices and returns the centers, and "concat" runs
    ``train_pairs`` twice, first order then second, each at half of ``dim``
    on its own spawned seed with the same samplers, and concatenates them.
    """
    check_concat_dim(config)
    if config.line_order == "concat":
        orders, seeds = ("first", "second"), np.random.SeedSequence(config.seed).spawn(2)
    else:
        orders, seeds = (config.line_order,), (config.seed,)
    dim = config.dim // len(orders)
    # samplers hold no RNG state, so both concat halves share them
    edge_cum, noise = edge_sampling_tables(g, weights)
    edge_picks = CumulativeSampler(edge_cum)
    negatives = CumulativeSampler.from_probabilities(noise)
    total = config.epochs * config.line_samples_factor * g.edge_count

    def batches(rng):
        for lo in range(0, total, config.batch_size):
            b = min(config.batch_size, total - lo)
            src, dst = np.take(g.edges, edge_picks.draw(rng, b), axis=0).T
            flip = rng.random(b) < 0.5
            yield np.where(flip, dst, src), np.where(flip, src, dst)

    halves = []
    for order, seed in zip(orders, seeds):
        rng = np.random.default_rng(seed)
        w_center, _ = train_pairs(g.node_count, dim, batches(rng), total, negatives, config,
                                  rng, shared=order == "first")
        halves.append(w_center)
    vectors = np.hstack(halves)
    vectors.setflags(write=False)
    return EmbeddingMatrix(vectors, {"trainer": "line", **asdict(config)})
