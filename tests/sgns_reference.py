"""Reference SGNS update and trainers.

``sgns_step`` lays the gradients of every (center, context) entry out as
one (b, k+1, d) tensor and sums them per row with a flat-index
``bincount``. ``train_sgns`` and ``train_line`` are separate SGNS and LINE
loops, each with its own init, learning-rate schedule, context block and
negative draw, on top of that step. The library's shared driver must
reproduce all three byte for byte."""
from __future__ import annotations

import numpy as np

from motifemb.config import TrainConfig
from motifemb.graph import Graph
from motifemb.line import edge_sampling_tables
from motifemb.motifs import WeightedAdjacency, unit_adjacency
from motifemb.sgns import CumulativeSampler, extract_pairs, noise_distribution, sigmoid
from motifemb.walks import WalkCorpus

LR_FLOOR_FACTOR = 1e-4


def scatter_add(matrix: np.ndarray, idx: np.ndarray, grads: np.ndarray) -> None:
    """matrix[idx] += grads with duplicate idx rows summed in batch order."""
    d = matrix.shape[1]
    touched = np.zeros(matrix.shape[0], dtype=bool)
    touched[idx] = True
    rows = np.flatnonzero(touched)
    local = np.cumsum(touched) - 1
    flat = (local[idx] * d)[:, None] + np.arange(d)
    sums = np.bincount(flat.ravel(), weights=grads.ravel(), minlength=rows.size * d)
    matrix[rows] += sums.reshape(rows.size, d)


def sgns_step(
    w_center: np.ndarray,
    w_ctx: np.ndarray,
    center_idx: np.ndarray,
    ctx_idx: np.ndarray,
    lr: float,
) -> None:
    c_vec = w_center[center_idx]
    ctx_vec = w_ctx[ctx_idx]
    g_score = -sigmoid(np.einsum("bd,bkd->bk", c_vec, ctx_vec))
    g_score[:, 0] += 1.0  # positive column label
    scatter_add(w_center, center_idx, lr * np.einsum("bk,bkd->bd", g_score, ctx_vec))
    scatter_add(
        w_ctx,
        ctx_idx.reshape(-1),
        ((lr * g_score)[:, :, None] * c_vec[:, None, :]).reshape(-1, c_vec.shape[1]),
    )


def train_sgns(corpus: WalkCorpus, config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) matrices of one SGNS run."""
    node_count = corpus.node_count
    rng = np.random.default_rng(config.seed)
    d = config.dim
    w_center = (rng.random((node_count, d)) - 0.5) / d
    w_ctx = np.zeros((node_count, d))
    centers, contexts = extract_pairs(corpus, config.window)
    negatives = CumulativeSampler.from_probabilities(noise_distribution(corpus))
    k = config.negatives
    lr0 = config.learning_rate
    total_budget = centers.size * config.epochs
    processed = 0
    for _ in range(config.epochs):
        perm = rng.permutation(centers.size)
        for lo in range(0, perm.size, config.batch_size):
            batch = perm[lo : lo + config.batch_size]
            b = batch.size
            lr = max(lr0 * (1.0 - processed / total_budget), lr0 * LR_FLOOR_FACTOR)
            ctx_idx = np.empty((b, 1 + k), dtype=np.int64)
            ctx_idx[:, 0] = contexts[batch]
            ctx_idx[:, 1:] = negatives.draw(rng, (b, k))
            sgns_step(w_center, w_ctx, centers[batch], ctx_idx, lr)
            processed += b
    return w_center, w_ctx


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
        src, dst = g.edges[edge_picks.draw(rng, b)].T
        flip = rng.random(b) < 0.5
        src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
        ctx_idx = np.empty((b, 1 + k), dtype=np.int64)
        ctx_idx[:, 0] = dst
        ctx_idx[:, 1:] = negatives.draw(rng, (b, k))
        sgns_step(w_center, w_ctx, src, ctx_idx, lr)
        processed += b
    return w_center


def train_line(g: Graph, weights: WeightedAdjacency | None, config: TrainConfig) -> np.ndarray:
    """The vectors of one LINE run of ``config.line_order``."""
    if weights is None:
        weights = unit_adjacency(g)
    edge_cum, noise = edge_sampling_tables(g, weights)
    samplers = (CumulativeSampler(edge_cum), CumulativeSampler.from_probabilities(noise))
    if config.line_order != "concat":
        rng = np.random.default_rng(config.seed)
        return _train_one_order(g, *samplers, config.dim, config.line_order, config, rng)
    half = config.dim // 2
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    first = _train_one_order(g, *samplers, half, "first", config, np.random.default_rng(seeds[0]))
    second = _train_one_order(
        g, *samplers, half, "second", config, np.random.default_rng(seeds[1])
    )
    return np.hstack([first, second])
