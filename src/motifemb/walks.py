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
    """Node-id walks as the rows of one (walks_per_node * |V|, walk_length)
    int64 ``tokens`` array; every consecutive pair in a row is a graph edge.

    Rows run pass by pass, each pass in its shuffled start order. A walk
    stops early only at an empty transition row, which only isolated nodes
    have, so only isolated starts are short; the rest of the row is -1.
    """

    tokens: np.ndarray
    walks_per_node: int
    walk_length: int

    def __len__(self) -> int:
        return self.tokens.shape[0]

    def token_count(self) -> int:
        return int(np.count_nonzero(self.tokens >= 0))


def _first_order_walks(model: TransitionModel, config: TrainConfig) -> WalkCorpus:
    """Advances every walker of a pass in lockstep. Only isolated starts stop
    early, so one ``rng.random((live, walk_length - 1))`` per pass, read
    column by column, is the stream of drawing one step at a time."""
    rng = np.random.default_rng(config.seed)
    n, length = model.node_count, config.walk_length
    deg = np.diff(model.indptr)
    # np.cumsum of every row's probs, summing the rows of one degree as one
    # 2-D block: that adds in 1-D order, so each value is bit-exact (a
    # global cumsum minus row offsets is not)
    cum = np.empty_like(model.probs)
    for d in np.unique(deg[deg > 0]):
        pos = model.indptr[:-1][deg == d, None] + np.arange(d)
        cum[pos] = np.cumsum(model.probs[pos], axis=1)
    strides = [1 << s for s in reversed(range(int(deg.max(initial=0)).bit_length()))]
    tokens = np.full((config.walks_per_node, n, length), -1, dtype=np.int64)
    for rows in tokens:
        rows[:, 0] = rng.permutation(n)
        live = np.flatnonzero(deg[rows[:, 0]] > 0)
        draws = rng.random((live.size, length - 1))
        for step in range(1, length):
            here = rows[live, step - 1]
            lo, d, u = model.indptr[here], deg[here], draws[:, step - 1]
            # branchless min(searchsorted(row's cum, u, "right"), d - 1)
            j = np.zeros(live.size, dtype=np.int64)
            for stride in strides:
                probe = j + (stride - 1)
                j += stride * ((probe < d) & (cum.take(lo + probe, mode="clip") <= u))
            rows[live, step] = model.indices[lo + np.minimum(j, d - 1)]
    return WalkCorpus(tokens.reshape(-1, length), config.walks_per_node, length)


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
    return _first_order_walks(model, config)


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
    step is first-order. At p = q = 1 these are generate_walks' walks, drawn
    from the same generator stream.
    """
    model = transitions if transitions is not None else uniform_transitions(g)
    if config.p == config.q == 1:
        # not generate_walks: a wrapper on the public walkers (as in
        # benchmark/tracer.py) must see each corpus built exactly once
        return _first_order_walks(model, config)
    rng = np.random.default_rng(config.seed)
    inv_p, inv_q = 1.0 / config.p, 1.0 / config.q
    length = config.walk_length
    tokens = np.full((config.walks_per_node, g.node_count, length), -1, dtype=np.int64)
    for rows in tokens:
        for walk, start in zip(rows, rng.permutation(g.node_count)):
            walk[0] = start
            for step in range(1, length):
                lo, hi = model.indptr[walk[step - 1]], model.indptr[walk[step - 1] + 1]
                if lo == hi:
                    break
                cand = model.indices[lo:hi]
                if step == 1:
                    probs = model.probs[lo:hi]
                else:
                    t = walk[step - 2]
                    t_nbrs = g.neighbors(t)
                    pos = np.minimum(np.searchsorted(t_nbrs, cand), t_nbrs.size - 1)
                    alpha = np.where(cand == t, inv_p, np.where(t_nbrs[pos] == cand, 1.0, inv_q))
                    w = alpha * model.masses[lo:hi]
                    probs = w / w.sum()
                j = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
                walk[step] = cand[min(j, cand.size - 1)]
    return WalkCorpus(tokens.reshape(-1, length), config.walks_per_node, length)
