"""Reference walkers and pair/noise bookkeeping: one Python step at a time,
one array per walk. The array corpus must reproduce them byte for byte,
generator stream included."""
from __future__ import annotations

import numpy as np

from motifemb import Graph, TrainConfig
from motifemb.motifs import TransitionModel, uniform_transitions


def _row_tables(model: TransitionModel) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-node (neighbors, cumulative probability) sampling tables."""
    tables = []
    for v in range(model.graph.node_count):
        nbrs, probs = model.row(v)
        tables.append((nbrs, np.cumsum(probs)))
    return tables


def _sample_step(table: tuple[np.ndarray, np.ndarray], rng: np.random.Generator) -> int:
    nbrs, cum = table
    j = int(np.searchsorted(cum, rng.random(), side="right"))
    return int(nbrs[min(j, nbrs.size - 1)])


def generate_walks(g: Graph, transitions: TransitionModel | None,
                   config: TrainConfig) -> list[np.ndarray]:
    model = transitions if transitions is not None else uniform_transitions(g)
    rng = np.random.default_rng(config.seed)
    tables = _row_tables(model)
    walks: list[np.ndarray] = []
    for _ in range(config.walks_per_node):
        for start in rng.permutation(g.node_count):
            walk = [int(start)]
            for _ in range(config.walk_length - 1):
                table = tables[walk[-1]]
                if table[0].size == 0:
                    break
                walk.append(_sample_step(table, rng))
            walks.append(np.asarray(walk, dtype=np.int64))
    return walks


def node2vec_walks(g: Graph, transitions: TransitionModel | None,
                   config: TrainConfig) -> list[np.ndarray]:
    model = transitions if transitions is not None else uniform_transitions(g)
    rng = np.random.default_rng(config.seed)
    tables = _row_tables(model)
    inv_p, inv_q = 1.0 / config.p, 1.0 / config.q
    walks: list[np.ndarray] = []
    for _ in range(config.walks_per_node):
        for start in rng.permutation(g.node_count):
            walk = [int(start)]
            if config.walk_length > 1 and tables[walk[0]][0].size:
                walk.append(_sample_step(tables[walk[0]], rng))
                while len(walk) < config.walk_length:
                    t, v = walk[-2], walk[-1]
                    cand = g.neighbors(v)
                    if cand.size == 0:
                        break
                    base = model.masses[model.graph.indptr[v]:model.graph.indptr[v + 1]]
                    t_nbrs = g.neighbors(t)
                    pos = np.searchsorted(t_nbrs, cand)
                    pos[pos >= t_nbrs.size] = t_nbrs.size - 1
                    adj_t = t_nbrs[pos] == cand
                    alpha = np.where(cand == t, inv_p, np.where(adj_t, 1.0, inv_q))
                    w = alpha * base
                    total = w.sum()
                    if total <= 0:
                        break
                    cum = np.cumsum(w / total)
                    j = int(np.searchsorted(cum, rng.random(), side="right"))
                    walk.append(int(cand[min(j, cand.size - 1)]))
            walks.append(np.asarray(walk, dtype=np.int64))
    return walks


def extract_pairs(walks: list[np.ndarray], window: int) -> tuple[np.ndarray, np.ndarray]:
    centers: list[np.ndarray] = []
    contexts: list[np.ndarray] = []
    for walk in walks:
        for off in range(1, window + 1):
            if walk.size <= off:
                break
            left, right = walk[:-off], walk[off:]
            centers.append(left)
            contexts.append(right)
            centers.append(right)
            contexts.append(left)
    if not centers:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(centers), np.concatenate(contexts)


def noise_distribution(walks: list[np.ndarray], node_count: int,
                       power: float = 0.75) -> np.ndarray:
    tokens = np.concatenate(walks) if walks else np.empty(0, np.int64)
    counts = np.bincount(tokens, minlength=node_count)
    weights = counts.astype(np.float64) ** power
    return weights / weights.sum()


def padded(walks: list[np.ndarray], length: int) -> np.ndarray:
    """The walks as rows of a (len(walks), length) array padded with -1."""
    tokens = np.full((len(walks), length), -1, dtype=np.int64)
    for row, walk in zip(tokens, walks):
        row[: walk.size] = walk
    return tokens
