"""Skip-gram with negative sampling, and the one SGD driver SGNS and LINE share."""
from __future__ import annotations

from dataclasses import asdict

import numpy as np
import scipy.sparse as sp

from .config import TrainConfig
from .embedding import EmbeddingMatrix
from .walks import WalkCorpus

__all__ = [
    "log_sigmoid",
    "sigmoid",
    "pair_objective",
    "pair_gradients",
    "extract_pairs",
    "noise_distribution",
    "CumulativeSampler",
    "sgns_step",
    "train_pairs",
    "train_sgns",
]

LR_FLOOR_FACTOR = 1e-4
# negatives are drawn in proportion to count^NOISE_POWER: corpus token
# counts for SGNS, weighted degrees for LINE
NOISE_POWER = 0.75


def sigmoid(x):
    # 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below; exp never overflows
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def log_sigmoid(x):
    # log(1 + exp(-x)) without overflow on either tail
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))


def pair_objective(center: np.ndarray, pos_ctx: np.ndarray, neg_ctx: np.ndarray) -> float:
    """log sigma(c.p) + sum_i log sigma(-c.n_i) for one training pair."""
    pos_term = float(log_sigmoid(center @ pos_ctx))
    neg_term = float(np.sum(log_sigmoid(-(neg_ctx @ center))))
    return pos_term + neg_term


def pair_gradients(center: np.ndarray, pos_ctx: np.ndarray, neg_ctx: np.ndarray):
    """Gradients of pair_objective w.r.t. (center, pos_ctx, each neg row)."""
    g_pos_score = 1.0 - sigmoid(center @ pos_ctx)
    g_neg_score = -sigmoid(neg_ctx @ center)
    g_center = g_pos_score * pos_ctx + g_neg_score @ neg_ctx
    g_pos = g_pos_score * center
    g_negs = g_neg_score[:, None] * center[None, :]
    return g_center, g_pos, g_negs


def extract_pairs(corpus: WalkCorpus, window: int) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) id arrays, in the corpus's int32, for every ordered
    pair within the window.

    Walk by walk, then offset by offset: the pairs (w[i], w[i + off]), then
    (w[i + off], w[i]).
    """
    length = corpus.tokens.shape[1]
    at = [np.empty((2, 0), np.intp)]  # (center, context) positions in a walk
    for off in range(1, min(window, length - 1) + 1):
        left = np.arange(length - off)
        at += [(left, left + off), (left + off, left)]
    center_at, context_at = np.concatenate(at, axis=1)
    # a pair exists when its later position is not padding
    kept = corpus.tokens[:, np.maximum(center_at, context_at)] >= 0
    return corpus.tokens[:, center_at][kept], corpus.tokens[:, context_at][kept]


def noise_distribution(corpus: WalkCorpus) -> np.ndarray:
    """Unigram^NOISE_POWER negative-sampling distribution over corpus tokens,
    one entry per node of the walked graph (``corpus.node_count``)."""
    node_count = corpus.node_count
    counts = np.bincount(corpus.tokens[corpus.tokens >= 0], minlength=node_count)
    if counts.size > node_count:
        raise IndexError(f"corpus holds node {counts.size - 1} but node_count is {node_count}")
    weights = counts.astype(np.float64) ** NOISE_POWER
    total = weights.sum()
    if total <= 0:
        raise ValueError("empty corpus: no tokens to build a noise distribution from")
    return weights / total


class CumulativeSampler:
    """Draws ``min(searchsorted(cum, rng.random(shape), "right"), n - 1)``.

    ``cum`` is a non-decreasing cumulative weight array of length n. The
    table is built once; each draw makes one ``rng.random(shape)`` call and
    nothing else, so it returns and consumes exactly what that expression
    does, and ``from_probabilities(p)`` reproduces ``rng.choice(n, shape,
    p=p)``. Lookup is Chen & Asau's cutpoint method: only the positions
    where ``cum`` steps up can be returned, m (a power of two at least
    their count) buckets of [0, 1) each store the first candidate above
    their lower edge, and a branchless binary search over the few
    candidates in the drawn bucket finishes the job. ``u * m`` is exact,
    so every bucket bound is exact too.
    """

    def __init__(self, cum: np.ndarray):
        cum = np.asarray(cum, dtype=np.float64)
        if cum.ndim != 1 or cum.size == 0 or not np.all(np.isfinite(cum)):
            raise ValueError("cumulative weights must be a non-empty finite 1-D array")
        if np.any(cum[1:] < cum[:-1]):
            raise ValueError("cumulative weights must be non-decreasing")
        steps = np.empty(cum.size, dtype=bool)
        steps[0] = True
        np.greater(cum[1:], cum[:-1], out=steps[1:])
        # a u past the last value maps to the last index (the clamp)
        self._ids = np.append(np.flatnonzero(steps), cum.size - 1)
        vals = cum[steps]
        self._buckets = 1 << (vals.size - 1).bit_length()
        bounds = np.arange(self._buckets + 1) / self._buckets
        guide = np.searchsorted(vals, bounds, side="right")
        # the answer for u in bucket j lies in guide[j] .. guide[j + 1]
        width = int(np.max(np.diff(guide)))
        self._strides = [1 << s for s in reversed(range(width.bit_length()))]
        self._vals = np.concatenate([vals, np.full(1 << width.bit_length(), np.inf)])
        self._guide = guide[:-1]

    @classmethod
    def from_probabilities(cls, p: np.ndarray) -> "CumulativeSampler":
        """The cumulative table ``rng.choice(len(p), size, p=p)`` builds."""
        cdf = np.cumsum(np.asarray(p, dtype=np.float64))
        cdf /= cdf[-1]
        return cls(cdf)

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        u = rng.random(shape)
        i = self._guide[(u * self._buckets).astype(np.intp)]
        for stride in self._strides:
            i += (self._vals[i + (stride - 1)] <= u) * stride
        return self._ids[i]


def _scatter_add(
    matrix: np.ndarray, idx: np.ndarray, coef: np.ndarray, vecs: np.ndarray
) -> None:
    """matrix[idx[b, j]] += coef[b, j] * vecs[b]; each row's terms summed in batch order.

    Touched rows are renumbered 0..t-1 and the sums are one CSC product
    ``A @ vecs``, column b of A holding batch row b's entries. scipy walks
    the columns in order and adds each ``coef * vecs[b]`` to a zero row,
    so the result equals ``np.add.at`` into a zero buffer followed by one
    add per touched row, bit for bit.
    """
    b, m = idx.shape
    touched = np.zeros(matrix.shape[0], dtype=bool)
    touched[idx] = True
    rows = np.flatnonzero(touched)
    itype = np.int32 if max(b * m, matrix.shape[0]) < 2**31 else np.int64
    local = np.cumsum(touched, dtype=itype) - 1
    per_row = sp.csc_matrix(
        (coef.ravel(), local[idx].ravel(), np.arange(0, b * m + 1, m, dtype=itype)),
        shape=(rows.size, b),
    )
    matrix[rows] += per_row @ vecs


def sgns_step(
    w_center: np.ndarray,
    w_ctx: np.ndarray,
    center_idx: np.ndarray,
    ctx_idx: np.ndarray,
    lr: float,
) -> None:
    """One in-place gradient-ascent step on a batch of pair objectives.

    Row b pairs ``w_center[center_idx[b]]`` with the context rows
    ``w_ctx[ctx_idx[b]]``: column 0 is the positive, the rest negatives.
    Gradients are taken at the pre-step values, so passing one matrix as
    both arguments (LINE first order) updates it consistently.
    """
    c_vec = np.take(w_center, center_idx, axis=0)
    ctx_vec = np.take(w_ctx, ctx_idx, axis=0)
    g_score = -sigmoid(np.einsum("bd,bkd->bk", c_vec, ctx_vec))
    g_score[:, 0] += 1.0  # positive column label
    _scatter_add(
        w_center,
        center_idx[:, None],
        np.ones((center_idx.size, 1)),
        lr * np.einsum("bk,bkd->bd", g_score, ctx_vec),
    )
    _scatter_add(w_ctx, ctx_idx, lr * g_score, c_vec)


def train_pairs(
    node_count: int,
    dim: int,
    batches,
    total: int,
    negatives: CumulativeSampler,
    config: TrainConfig,
    rng: np.random.Generator,
    shared: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) matrices trained on ``batches``, an iterator of
    (center ids, positive context ids) that may draw from ``rng`` itself;
    it is advanced only after the init draw.

    Center vectors start at uniform(-0.5, 0.5)/dim, context vectors at zero
    (``shared`` gives one matrix both roles, as LINE's first order needs).
    The learning rate decays linearly over ``total`` pairs, with a floor of
    LR_FLOOR_FACTOR times the initial rate. Each batch's negatives are drawn
    right after the batch, then ``sgns_step`` applies it. Batches run in a
    fixed order and sum a row's duplicate gradients exactly, so the result
    is a function of the inputs and ``rng``. Because contexts start at
    zero, center vectors get no gradient until the second batch: a single
    batch in a single epoch returns the random init.
    """
    w_center = (rng.random((node_count, dim)) - 0.5) / dim
    w_ctx = w_center if shared else np.zeros((node_count, dim))
    lr0 = config.learning_rate
    processed = 0
    for center_idx, pos_idx in batches:
        lr = max(lr0 * (1.0 - processed / total), lr0 * LR_FLOOR_FACTOR)
        # column 0 the positive context, then the negatives
        negs = negatives.draw(rng, (center_idx.size, config.negatives))
        sgns_step(w_center, w_ctx, center_idx, np.column_stack([pos_idx, negs]), lr)
        processed += center_idx.size
    return w_center, w_ctx


def train_sgns(corpus: WalkCorpus, config: TrainConfig) -> EmbeddingMatrix:
    """Trains and returns the center-vector matrix (``corpus.node_count`` x
    dim): ``train_pairs`` on one fresh permutation of the window pairs per
    epoch, against unigram^NOISE_POWER negatives. The permutation is
    ``rng.shuffle`` of an int32 ``arange`` (int64 from 2**31 pairs), which
    draws the values and generator stream of ``rng.permutation`` in half
    its bytes."""
    centers, contexts = extract_pairs(corpus, config.window)
    if centers.size == 0:
        raise ValueError("corpus yields no training pairs; walks too short?")
    negatives = CumulativeSampler.from_probabilities(noise_distribution(corpus))
    rng = np.random.default_rng(config.seed)

    itype = np.int32 if centers.size < 2**31 else np.int64

    def batches():
        for _ in range(config.epochs):
            perm = np.arange(centers.size, dtype=itype)
            rng.shuffle(perm)
            for lo in range(0, perm.size, config.batch_size):
                batch = perm[lo : lo + config.batch_size]
                yield np.take(centers, batch), np.take(contexts, batch)

    w_center, _ = train_pairs(corpus.node_count, config.dim, batches(),
                              centers.size * config.epochs, negatives, config, rng)
    w_center.setflags(write=False)
    return EmbeddingMatrix(w_center, {"trainer": "sgns", **asdict(config)})
