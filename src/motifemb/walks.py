"""First-order and second-order (return/in-out biased) walk corpora, from one lockstep walker."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .motifs import TransitionModel

__all__ = ["WalkCorpus", "generate_walks", "node2vec_walks"]

# most candidates a second-order step weighs at once
_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class WalkCorpus:
    """Node-id walks as the rows of one (walks_per_node * |V|, walk_length)
    int32 ``tokens`` array on a graph of ``node_count`` nodes, so node ids
    must fit in int32; every consecutive pair in a row is a graph edge.

    Rows run pass by pass, each pass in its shuffled start order. A walk
    stops early only at an empty transition row, which only isolated nodes
    have, so only isolated starts are short; the rest of the row is -1.
    """

    tokens: np.ndarray
    node_count: int

    @property
    def walk_length(self) -> int:
        return self.tokens.shape[1]

    def __len__(self) -> int:
        return self.tokens.shape[0]

    def token_count(self) -> int:
        return int(np.count_nonzero(self.tokens >= 0))


def _degree_blocks(deg: np.ndarray):
    """(d, at) per block of the positions ``at`` where ``deg`` holds d > 0,
    at most max(1, _BLOCK // d) positions a block, grouped by one argsort."""
    order = np.argsort(deg, kind="stable")
    ranked = deg[order]
    starts = np.flatnonzero(np.diff(ranked, prepend=0))  # the zeros in front start none
    for lo, hi, d in zip(starts, [*starts[1:], ranked.size], ranked[starts]):
        for at in range(lo, hi, max(1, _BLOCK // d)):
            yield d, order[at:min(at + max(1, _BLOCK // d), hi)]


def _walks(model: TransitionModel, config: TrainConfig, second_order: bool) -> WalkCorpus:
    """Advances every walker of a pass in lockstep over the CSR of
    ``model.graph``, the only graph it reads. Only isolated starts stop
    early, so one ``rng.random((live, walk_length - 1))`` per pass, read
    column by column, is the stream of drawing one step at a time."""
    rng = np.random.default_rng(config.seed)
    g, length = model.graph, config.walk_length
    n, deg = g.node_count, g.degrees
    # np.cumsum of every row's probs, summing the rows of one degree as one
    # 2-D block: that adds in 1-D order, so each value is bit-exact (a
    # global cumsum minus row offsets is not)
    cum = np.empty_like(model.probs)
    for d, nodes in _degree_blocks(deg):
        pos = g.indptr[nodes, None] + np.arange(d)
        cum[pos] = np.cumsum(model.probs[pos], axis=1)
    strides = [1 << s for s in reversed(range(int(deg.max(initial=0)).bit_length()))]
    inv_p, inv_q = 1.0 / config.p, 1.0 / config.q
    # the graph's sorted CSR keys: t is adjacent to x iff t * n + x is one of them
    keys = np.repeat(np.arange(n), deg) * n + g.indices if second_order else None
    tokens = np.full((config.walks_per_node, n, length), -1, dtype=np.int32)
    for rows in tokens:
        rows[:, 0] = rng.permutation(n)
        live = np.flatnonzero(deg[rows[:, 0]] > 0)
        draws = rng.random((live.size, length - 1))
        for step in range(1, length):
            here, u = rows[live, step - 1], draws[:, step - 1]
            if second_order and step > 1:
                # the walkers on degree-d nodes weigh their candidates as
                # (walkers x d) blocks; 2-D row sums and cumsums add in the
                # order of the 1-D calls, so each row is the one-walker step's
                for d, at in _degree_blocks(deg[here]):
                    pos = g.indptr[here[at], None] + np.arange(d)
                    # int64 t: an int32 t * n overflows from n = 46,341 on
                    cand, t = g.indices[pos], rows[live[at], step - 2, None].astype(np.int64)
                    key = t * n + cand
                    adjacent = keys[np.minimum(np.searchsorted(keys, key), keys.size - 1)] == key
                    alpha = np.where(cand == t, inv_p, np.where(adjacent, 1.0, inv_q))
                    w = alpha * model.masses[pos]
                    cdf = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)
                    # searchsorted(row's cdf, u, "right"), clamped to d - 1
                    j = np.minimum(np.count_nonzero(cdf <= u[at, None], axis=1), d - 1)
                    rows[live[at], step] = cand[np.arange(at.size), j]
                continue
            lo, d = g.indptr[here], deg[here]
            # branchless min(searchsorted(row's cum, u, "right"), d - 1)
            j = np.zeros(live.size, dtype=np.int64)
            for stride in strides:
                probe = j + (stride - 1)
                j += stride * ((probe < d) & (cum.take(lo + probe, mode="clip") <= u))
            rows[live, step] = g.indices[lo + np.minimum(j, d - 1)]
    return WalkCorpus(tokens.reshape(-1, length), n)


def generate_walks(transitions: TransitionModel, config: TrainConfig) -> WalkCorpus:
    """First-order walks: next node drawn from the transition row of the
    current node. ``uniform_transitions`` gives classic DeepWalk,
    ``build_transition_model`` the motif-biased walk. The walks stay on the
    graph ``transitions`` was built on: a train graph's walks need that
    graph's model.

    Starts walks_per_node passes over a reshuffled node order; deterministic
    per config.seed. All walkers of a pass step in lockstep and draw the
    same ``rng.random`` values, in the same order, as a one-walk-at-a-time
    loop, so the corpus is that loop's.
    """
    return _walks(transitions, config, second_order=False)


def node2vec_walks(transitions: TransitionModel, config: TrainConfig) -> WalkCorpus:
    """Second-order walks with return parameter config.p and in-out
    parameter config.q.

    From the previous step (t -> v), candidate x gets unnormalized weight
    alpha(t, x) * base(v, x): alpha is 1/p when x == t, 1 when x is adjacent
    to t in the graph ``transitions`` was built on, 1/q otherwise; base is
    the transition model's unnormalized mass (all ones for
    ``uniform_transitions``, recovering plain node2vec). The first step is
    first-order. Walkers step in lockstep, on the stream of a one-walker
    loop; at p = q = 1 these are generate_walks' walks, generator stream
    included. Each later step groups the walkers by the degree d of the
    node they stand on and weighs a group's candidates as one (walkers x d)
    array, in blocks of at most _BLOCK candidates, and sums each row in the
    order of a one-walker step. So the corpus is byte for byte that of
    stepping one walker at a time, and a step's cost grows with the summed
    degree of the walkers' nodes.
    """
    # not generate_walks: a wrapper on the public walkers (as in
    # benchmark/tracer.py) must see each corpus built exactly once
    return _walks(transitions, config, second_order=not config.p == config.q == 1)
