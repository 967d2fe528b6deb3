"""First-order and second-order (return/in-out biased) random walk corpora."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .graph import Graph
from .motifs import TransitionModel, uniform_transitions

__all__ = ["WalkCorpus", "generate_walks", "node2vec_walks"]


@dataclass(frozen=True, eq=False)
class WalkCorpus:
    """Node-id sequences; every consecutive pair is a graph edge.

    Holds exactly walks_per_node * |V| walks; a walk stops early when it
    reaches a node with an empty transition row, so isolated starts yield
    length-1 walks.
    """

    walks: list[np.ndarray]
    walks_per_node: int
    walk_length: int

    def __len__(self) -> int:
        return len(self.walks)

    def token_count(self) -> int:
        return sum(w.size for w in self.walks)


def _row_tables(model: TransitionModel) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-node (neighbors, cumulative probability) sampling tables."""
    tables = []
    for v in range(model.node_count):
        nbrs, probs = model.row(v)
        tables.append((nbrs, np.cumsum(probs)))
    return tables


def _sample_step(table: tuple[np.ndarray, np.ndarray], rng: np.random.Generator) -> int:
    nbrs, cum = table
    j = int(np.searchsorted(cum, rng.random(), side="right"))
    return int(nbrs[min(j, nbrs.size - 1)])


def generate_walks(
    g: Graph,
    transitions: TransitionModel | None,
    config: TrainConfig,
) -> WalkCorpus:
    """First-order walks: next node drawn from the transition row of the
    current node (None means uniform over neighbors, i.e. classic DeepWalk).

    Starts walks_per_node passes over a reshuffled node order; deterministic
    per config.seed.
    """
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
    return WalkCorpus(walks, config.walks_per_node, config.walk_length)


def node2vec_walks(
    g: Graph,
    transitions: TransitionModel | None,
    config: TrainConfig,
) -> WalkCorpus:
    """Second-order walks with return parameter config.p and in-out
    parameter config.q.

    From the previous step (t -> v), candidate x gets unnormalized weight
    alpha(t, x) * base(v, x): alpha is 1/p when x == t, 1 when x is adjacent
    to t, 1/q otherwise; base is the transition model's unnormalized mass
    (all ones when transitions is None, recovering plain node2vec). The first
    step is first-order. p = q = 1 with unit base reduces to generate_walks'
    distribution.
    """
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
                    base = model.mass_row(v)
                    t_nbrs = g.neighbors(t)
                    pos = np.searchsorted(t_nbrs, cand)
                    pos[pos >= t_nbrs.size] = t_nbrs.size - 1
                    adj_t = t_nbrs[pos] == cand
                    alpha = np.where(cand == t, inv_p, np.where(adj_t, 1.0, inv_q))
                    w = alpha * base
                    total = w.sum()
                    if total <= 0:
                        break  # unreachable for well-formed models; guard anyway
                    cum = np.cumsum(w / total)
                    j = int(np.searchsorted(cum, rng.random(), side="right"))
                    walk.append(int(cand[min(j, cand.size - 1)]))
            walks.append(np.asarray(walk, dtype=np.int64))
    return WalkCorpus(walks, config.walks_per_node, config.walk_length)
