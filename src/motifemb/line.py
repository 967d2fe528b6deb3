"""Edge-sampling embeddings with first- and second-order proximity.

Edges are drawn with probability proportional to their weight (all ones for
the unweighted variant), a direction is flipped uniformly, and the endpoint
pair is trained against weighted-degree^0.75 negatives. "first" shares one
matrix for both roles, "second" keeps separate center/context matrices and
returns the centers, "concat" trains an independent half-dimension model of
each order and concatenates.
"""
from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .config import TrainConfig
from .embedding import EmbeddingMatrix
from .graph import Graph
from .motifs import WeightedAdjacency, unit_adjacency
from .sgns import LR_FLOOR_FACTOR, CumulativeSampler, sgns_step

__all__ = ["edge_sampling_tables", "train_line"]


def edge_sampling_tables(g: Graph, weights: WeightedAdjacency):
    """(edge cumulative probabilities, negative-sampling distribution)."""
    w = weights.edge_weights.astype(np.float64)
    if w.sum() <= 0:
        raise ValueError("all edge weights are zero; nothing to sample")
    edge_cum = np.cumsum(w / w.sum())
    # endpoint 0 of every edge, then endpoint 1: each node's sum in edge order
    wdeg = np.bincount(g.edges.T.ravel(), weights=np.tile(w, 2), minlength=g.node_count)
    noise = wdeg**0.75
    noise /= noise.sum()
    return edge_cum, noise


def _train_one_order(
    g: Graph,
    edge_picks: CumulativeSampler,
    negatives: CumulativeSampler,
    dim: int,
    order: str,
    config: TrainConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    n = g.node_count
    w_center = (rng.random((n, dim)) - 0.5) / dim
    # first order: one shared matrix plays both roles
    w_ctx = w_center if order == "first" else np.zeros((n, dim))

    k = config.negatives
    lr0 = config.learning_rate
    total = config.epochs * config.line_samples_factor * g.edge_count
    processed = 0
    while processed < total:
        b = min(config.batch_size, total - processed)
        lr = max(lr0 * (1.0 - processed / total), lr0 * LR_FLOOR_FACTOR)
        picks = edge_picks.draw(rng, b)
        src, dst = np.take(g.edges, picks, axis=0).T
        flip = rng.random(b) < 0.5
        src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
        ctx_idx = np.empty((b, 1 + k), dtype=np.int64)
        ctx_idx[:, 0] = dst
        ctx_idx[:, 1:] = negatives.draw(rng, (b, k))
        sgns_step(w_center, w_ctx, src, ctx_idx, lr)
        processed += b
    return w_center


def train_line(
    g: Graph,
    weights: WeightedAdjacency | None,
    config: TrainConfig,
) -> EmbeddingMatrix:
    if weights is None:
        weights = unit_adjacency(g)
    order = config.line_order
    if order == "concat" and config.dim % 2:
        raise ValueError("concat order needs an even dimension")
    # samplers hold no RNG state, so both concat halves share them
    edge_cum, noise = edge_sampling_tables(g, weights)
    samplers = (CumulativeSampler(edge_cum), CumulativeSampler.from_probabilities(noise))
    if order in ("first", "second"):
        rng = np.random.default_rng(config.seed)
        vectors = _train_one_order(g, *samplers, config.dim, order, config, rng)
    else:
        half = config.dim // 2
        seeds = np.random.SeedSequence(config.seed).spawn(2)
        first = _train_one_order(
            g, *samplers, half, "first", config, np.random.default_rng(seeds[0])
        )
        second = _train_one_order(
            g, *samplers, half, "second", config, np.random.default_rng(seeds[1])
        )
        vectors = np.hstack([first, second])
    return EmbeddingMatrix(vectors, {"trainer": "line", **asdict(config)})
