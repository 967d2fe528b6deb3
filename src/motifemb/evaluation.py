"""Link-prediction splits and metrics, k-means clustering and silhouette scores."""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import cdist

from .embedding import EmbeddingMatrix
from .graph import Graph

__all__ = [
    "LinkPredSplit",
    "check_fraction",
    "make_split",
    "cosine_scores",
    "rank_auc",
    "ConfusionCounts",
    "MetricsReport",
    "compute_metrics",
    "kmeans_cluster",
    "SilhouetteReport",
    "silhouette_score",
]


@dataclass(frozen=True, eq=False)
class LinkPredSplit:
    """Train graph plus held-out positive pairs and sampled negative pairs."""

    train_graph: Graph
    test_edges: np.ndarray
    test_non_edges: np.ndarray
    seed: int


def check_fraction(fraction: float) -> None:
    """Raise ValueError unless the holdout ``fraction`` is in (0, 1)."""
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must be in (0, 1), got {fraction!r}")


def make_split(
    g: Graph,
    fraction: float = 0.1,
    seed: int = 0,
    protect_connectivity: bool = True,
) -> LinkPredSplit:
    """Removes the first floor(fraction * |E|) edges of one seeded
    permutation as test positives.

    With protect_connectivity, an edge is skipped when its removal would
    separate its endpoints in the graph left so far, so components never
    split. That rule is reverse-delete: the removals are the first edges,
    in permutation order, outside the spanning forest Kruskal builds by
    scanning the permutation backwards. With c components, only
    |E| - (|V| - c) edges lie outside it, so
    min(floor(fraction * |E|), |E| - (|V| - c)) positives come back.
    Negatives are distinct non-edges of the ORIGINAL graph, drawn uniformly
    and matched 1:1: the first ones accepted, in draw order, then sorted.
    """
    check_fraction(fraction)
    m = g.edge_count
    # epsilon guards floor against IEEE artifacts like 0.3 * 10 = 2.999...96
    target = int(np.floor(fraction * m + 1e-9))
    if target < 1:
        raise ValueError(f"fraction {fraction} selects no edges out of {m}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(m)
    if protect_connectivity:
        # the edge visited i-th weighs m - i, so the unique minimum spanning
        # forest is the one Kruskal builds from the last-visited edge back
        weight = np.empty(m)
        weight[order] = np.arange(m, 0, -1)
        shape = (g.node_count, g.node_count)
        forest = minimum_spanning_tree(sp.csr_matrix((weight, g.edges.T), shape=shape))
        order = np.delete(order, m - forest.data.astype(np.int64))  # drop the forest
    removed = order[:target]
    if not removed.size:
        raise ValueError("connectivity constraint blocked every removal")
    keep = np.ones(m, dtype=bool)
    keep[removed] = False
    train = Graph.from_edges(g.node_count, g.edges[keep], labels=g.labels)

    n = g.node_count
    if n * (n - 1) // 2 - m < removed.size:
        raise ValueError("graph too dense to sample matching non-edges")
    chosen: dict[int, None] = {}  # accepted keys, in draw order
    while len(chosen) < removed.size:
        draw = rng.integers(0, n, size=(2 * removed.size, 2))
        lo, hi = draw.min(axis=1), draw.max(axis=1)
        keys = (lo * n + hi)[lo != hi]
        # g.edge_keys is sorted, so membership is one searchsorted
        at = np.minimum(np.searchsorted(g.edge_keys, keys), m - 1)
        chosen.update(dict.fromkeys(keys[g.edge_keys[at] != keys].tolist()))
    first = np.fromiter(chosen, dtype=np.int64, count=removed.size)
    neg = np.stack(np.divmod(np.sort(first), n), axis=1)
    return LinkPredSplit(train, g.edges[removed], neg, seed)


def cosine_scores(emb: EmbeddingMatrix, pairs: np.ndarray) -> tuple[np.ndarray, int]:
    """Cosine similarity per (u, v) row; pairs touching a zero-norm vector
    score 0.0, and the count of such pairs is returned alongside."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    u = emb.vectors[pairs[:, 0]]
    v = emb.vectors[pairs[:, 1]]
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    ok = (nu > 0) & (nv > 0)
    scores = np.zeros(pairs.shape[0])
    scores[ok] = np.sum(u[ok] * v[ok], axis=1) / (nu[ok] * nv[ok])
    return scores, int(np.sum(~ok))


def rank_auc(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Mann-Whitney AUC: the share of (positive, negative) pairs that the
    positive wins, a tie counting 1/2; NaN if any score is NaN."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.sort(np.asarray(neg_scores, dtype=np.float64))
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need at least one positive and one negative score")
    if np.isnan(pos).any() or np.isnan(neg).any():
        return float("nan")
    below = np.searchsorted(neg, pos, side="left")
    ties = np.searchsorted(neg, pos, side="right") - below
    # an exact half-integer, rounded once by the division
    return float((below.sum() + ties.sum() / 2) / (pos.size * neg.size))


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass(frozen=True)
class MetricsReport:
    auc: float
    accuracy: float
    precision: float
    recall: float
    specificity: float
    f1: float
    threshold: float
    counts: ConfusionCounts
    zero_norm_pairs: int = 0


def _safe_ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def compute_metrics(
    pos_scores: np.ndarray,
    neg_scores: np.ndarray,
    threshold: float | None = None,
    zero_norm_pairs: int = 0,
) -> MetricsReport:
    """Full report; threshold None means the pooled median of all scores.
    A pair is predicted positive where its score >= threshold."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    thr = float(np.median(np.concatenate([pos, neg]))) if threshold is None else threshold
    tp = int(np.sum(pos >= thr))
    fp = int(np.sum(neg >= thr))
    tn, fn = len(neg) - fp, len(pos) - tp
    precision = _safe_ratio(tp, tp + fp)
    recall = _safe_ratio(tp, tp + fn)
    return MetricsReport(
        auc=rank_auc(pos, neg),
        accuracy=_safe_ratio(tp + tn, tp + fp + tn + fn),
        precision=precision,
        recall=recall,
        specificity=_safe_ratio(tn, tn + fp),
        f1=_safe_ratio(2 * precision * recall, precision + recall),
        threshold=thr,
        counts=ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn),
        zero_norm_pairs=zero_norm_pairs,
    )


KMEANS_MAX_ITER = 300  # Lloyd iterations at most
KMEANS_TOL = 1e-6  # stop once no center moves this far


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = cdist(x, centers[:1], "sqeuclidean").ravel()
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = x[rng.integers(n)]  # all remaining points coincide
        else:
            centers[j] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, cdist(x, centers[j : j + 1], "sqeuclidean").ravel())
    return centers


def _membership(own: np.ndarray, sizes: np.ndarray) -> sp.csr_array:
    """The (clusters x n) 0/1 CSR whose row c stores cluster c's points in
    ascending index order, from each point's cluster ``own`` (an (L, n) stack
    numbers all L labelings' clusters in one sequence) and the cluster sizes.
    A CSR x dense product sums each row in stored order."""
    members = np.argsort(own, axis=None, kind="stable") % own.shape[-1]
    return sp.csr_array((np.ones(members.size), members, np.r_[0, np.cumsum(sizes)]),
                        shape=(sizes.size, own.shape[-1]))


def kmeans_cluster(x: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Lloyd iterations from a k-means++ start; returns integer labels.

    An emptied cluster is re-seeded, in ascending cluster order, at the point
    farthest from its assigned center among the points whose cluster keeps
    another member, so exactly k clusters stay nonempty even when several
    empty in one iteration. Each center then moves to the mean of its final
    members, so a donor's center leaves out the point it gave up; the means
    are one ``_membership`` product, summing each cluster's points in
    ascending index order.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(x, k, rng)
    d2 = np.empty((n, k))
    for _ in range(KMEANS_MAX_ITER):
        cdist(x, centers, "sqeuclidean", out=d2)
        labels = d2.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            far = np.where(counts[labels] > 1, d2[np.arange(n), labels], -np.inf)
            labels[int(np.argmax(far))] = j
            counts = np.bincount(labels, minlength=k)
        new_centers = _membership(labels, counts) @ x / counts[:, None]
        shift = float(np.linalg.norm(new_centers - centers, axis=1).max())
        centers = new_centers
        if shift < KMEANS_TOL:
            break
    return labels


@dataclass(frozen=True, eq=False)
class SilhouetteReport:
    values: np.ndarray  # s(i) per point
    score: float  # mean over all points


_SILHOUETTE_BLOCK_FLOATS = 1 << 22  # distances held at once: 32 MB of float64


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def silhouette_score(
    x: np.ndarray, labels: np.ndarray
) -> SilhouetteReport | list[SilhouetteReport]:
    """s(i) = (b - a) / max(a, b) with Euclidean distances; a is the mean
    distance to the rest of i's cluster, b the smallest mean distance to
    any other cluster. Points in singleton clusters, and points with
    max(a, b) = 0, get s = 0.

    ``labels`` is one label per row of ``x`` (returns a SilhouetteReport)
    or a stacked (L, n) array of L labelings of those rows (returns a list
    of L reports). Every labeling is scored from one sweep over the
    distances in column blocks of the n x n matrix, which a pool of one
    worker thread per usable CPU, and no more than there are blocks, takes
    in turn. The workers share a budget of 2**22 distances: blocks of
    max(1, 2**22 // (workers * n)) columns, so about 2**22 distances (32 MB)
    are held at once in all. One sparse (clusters x n) membership product
    turns each block into every cluster's distance sums, each summed over
    its members in ascending index order, so a labeling's values are the
    same bytes whatever the block size, the CPU count or the labelings
    stacked with it.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    if (x.ndim != 2 or labels.ndim not in (1, 2) or labels.shape[-1:] != x.shape[:1]
            or labels.size == 0):
        raise ValueError(f"need 2-D x and one label per row of x, as a 1-D array or a "
                         f"nonempty (L, n) stack; got x of shape {x.shape} and labels "
                         f"of shape {labels.shape}")
    if np.any(labels != labels):  # NaN is the one label unequal to itself
        raise ValueError("labels hold NaN")
    stack = np.atleast_2d(labels)
    n = x.shape[0]
    # one membership row per cluster of each labeling: own[l, i] is the row
    # of i's cluster under labeling l, and labeling l owns rows first[l]:first[l+1]
    own = np.empty(stack.shape, dtype=np.int64)
    sizes, first = [], [0]
    for l, row in enumerate(stack):
        _, inverse, counts = np.unique(row, return_inverse=True, return_counts=True)
        if counts.size < 2:
            raise ValueError("silhouette needs at least two clusters")
        own[l] = first[-1] + inverse
        sizes.append(counts)
        first.append(first[-1] + counts.size)
    sizes = np.concatenate(sizes)
    membership = _membership(own, sizes)
    # one worker per usable CPU, at most one per block, sharing the budget
    workers = min(_usable_cpus(), -(-n // max(1, _SILHOUETTE_BLOCK_FLOATS // n)))
    step = max(1, _SILHOUETTE_BLOCK_FLOATS // (workers * n))
    values = np.zeros(stack.shape)

    def sweep(lo: int) -> None:  # fills values[:, lo:lo + step] and no other column
        hi = min(lo + step, n)
        own_block = own[:, lo:hi]
        at_own = (own_block, np.arange(hi - lo))
        sums = membership @ cdist(x, x[lo:hi])  # (clusters, block) distance sums
        a = sums[at_own] / np.maximum(sizes[own_block] - 1, 1)
        means = sums / sizes[:, None]
        means[at_own] = np.inf
        b = np.minimum.reduceat(means, first[:-1], axis=0)
        denom = np.maximum(a, b)
        np.divide(b - a, denom, out=values[:, lo:hi],
                  where=(sizes[own_block] > 1) & (denom > 0))

    # cdist and the sparse product release the GIL, so blocks overlap
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(sweep, range(0, n, step)))  # list() re-raises a block's error
    reports = [SilhouetteReport(v, float(v.mean())) for v in values]
    return reports if labels.ndim == 2 else reports[0]
