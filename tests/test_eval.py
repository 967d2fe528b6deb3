"""Link-prediction splits, scoring, classification metrics, k-means, and
silhouette values. Silhouette is checked against an independent brute-force
reimplementation; metric arithmetic against hand-computed confusion tables."""
from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist
from scipy.stats import rankdata

from motifemb import (
    ConfusionCounts,
    EmbeddingMatrix,
    Graph,
    compute_metrics,
    cosine_scores,
    kmeans_cluster,
    make_split,
    rank_auc,
    silhouette_score,
    unit_adjacency,
)
from motifemb import evaluation

from conftest import er_graph


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def brute_silhouette_values(x: np.ndarray, labels: np.ndarray) -> list[float]:
    """Plain-loop reimplementation of s(i) straight from the definition."""
    n = x.shape[0]
    vals = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            vals.append(0.0)
            continue
        a = np.mean([np.linalg.norm(x[i] - x[j]) for j in own])
        b = min(
            np.mean([np.linalg.norm(x[i] - x[j]) for j in range(n) if labels[j] == c])
            for c in set(labels.tolist())
            if c != labels[i]
        )
        vals.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return vals


def brute_silhouette(x: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(brute_silhouette_values(x, labels)))


def greedy_split(g: Graph, fraction: float, seed: int, protect_connectivity: bool):
    """Plain-loop reference for make_split: visit the edges in permutation
    order and remove each one unless, with protection, a BFS over the graph
    left so far no longer reaches one endpoint from the other; then draw
    negatives from the same generator. Returns (removed, negatives, kept)."""
    m = g.edge_count
    target = int(np.floor(fraction * m + 1e-9))
    rng = np.random.default_rng(seed)
    adj = {v: set(g.neighbors(v).tolist()) for v in range(g.node_count)}

    def reachable(u, v):
        seen, queue = {u}, deque([u])
        while queue:
            x = queue.popleft()
            if x == v:
                return True
            for y in adj[x] - seen:
                seen.add(y)
                queue.append(y)
        return False

    removed = []
    for idx in rng.permutation(m):
        if len(removed) == target:
            break
        u, v = g.edges[idx].tolist()
        adj[u].discard(v)
        adj[v].discard(u)
        if protect_connectivity and not reachable(u, v):
            adj[u].add(v)
            adj[v].add(u)
        else:
            removed.append((u, v))
    if not removed:
        raise ValueError("connectivity constraint blocked every removal")
    gone = set(removed)
    kept = [e for e in map(tuple, g.edges.tolist()) if e not in gone]

    forbidden = set(map(tuple, g.edges.tolist()))
    if g.node_count * (g.node_count - 1) // 2 - m < len(removed):
        raise ValueError("graph too dense to sample matching non-edges")
    negatives = set()
    while len(negatives) < len(removed):
        for a, b in rng.integers(0, g.node_count, size=(2 * len(removed), 2)).tolist():
            if len(negatives) == len(removed):
                break
            pair = (min(a, b), max(a, b))
            if a != b and pair not in forbidden:
                negatives.add(pair)
    return removed, sorted(negatives), kept


# scores on a 0.01 grid: distinct values stay distinct in float64 even
# after exp/tanh, so monotone transforms remain injective
score_lists = st.lists(
    st.integers(min_value=-500, max_value=500).map(lambda v: v / 100.0),
    min_size=1, max_size=30, unique=True,
)


tied_scores = st.lists(st.integers(min_value=0, max_value=4).map(lambda v: v / 4.0),
                       min_size=1, max_size=40)
real_scores = st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=40)


def rankdata_auc(pos, neg) -> float:
    """The average-rank Mann-Whitney formula over scipy's rankdata, the
    oracle that rank_auc is byte-compared with."""
    pos, neg = np.asarray(pos, dtype=np.float64), np.asarray(neg, dtype=np.float64)
    ranks = rankdata(np.concatenate([pos, neg]))
    r_pos = ranks[: pos.size].sum()
    return float((r_pos - pos.size * (pos.size + 1) / 2) / (pos.size * neg.size))


class TestMakeSplit:
    def test_floor_of_fraction_including_ieee_case(self):
        # 0.3 * 10 is 2.999...96 in binary; the floor must still be 3
        split = make_split(cycle(10), fraction=0.3, seed=0, protect_connectivity=False)
        assert split.test_edges.shape == (3, 2)
        assert split.test_non_edges.shape == (3, 2)

    @given(
        n=st.integers(min_value=6, max_value=25),
        p=st.floats(min_value=0.3, max_value=0.7),
        seed=st.integers(min_value=0, max_value=9999),
        fraction=st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_partition_invariants(self, n, p, seed, fraction):
        g = er_graph(n, p, seed)
        m = g.edge_count
        target = int(np.floor(fraction * m + 1e-9))
        if target < 1:
            with pytest.raises(ValueError):
                make_split(g, fraction, seed, protect_connectivity=False)
            return
        non_edges = n * (n - 1) // 2 - m
        if non_edges < target:
            return  # dense instance; rejection covered separately
        split = make_split(g, fraction, seed, protect_connectivity=False)
        original = set(map(tuple, g.edges.tolist()))
        train = set(map(tuple, split.train_graph.edges.tolist()))
        held = {tuple(e) for e in map(tuple, split.test_edges)}
        negs = {tuple(e) for e in map(tuple, split.test_non_edges)}
        assert len(held) == target == split.test_edges.shape[0]
        assert held <= original
        assert not held & train
        assert train | held == original
        assert len(negs) == len(held)
        assert not negs & original
        assert split.train_graph.node_count == g.node_count

    def test_determinism(self):
        g = er_graph(15, 0.4, seed=2)
        a = make_split(g, 0.2, seed=5)
        b = make_split(g, 0.2, seed=5)
        c = make_split(g, 0.2, seed=6)
        assert np.array_equal(a.test_edges, b.test_edges)
        assert np.array_equal(a.test_non_edges, b.test_non_edges)
        assert not (
            np.array_equal(a.test_edges, c.test_edges)
            and np.array_equal(a.test_non_edges, c.test_non_edges)
        )

    def test_protection_keeps_components_whole(self):
        split = make_split(cycle(8), fraction=0.125, seed=1, protect_connectivity=True)
        assert split.test_edges.shape[0] == 1
        n_comp, _ = connected_components(
            unit_adjacency(split.train_graph).matrix, directed=False
        )
        assert n_comp == 1

    def test_protection_never_removes_a_bridge(self, two_triangles_bridged):
        for seed in range(12):
            split = make_split(
                two_triangles_bridged, fraction=1 / 7, seed=seed,
                protect_connectivity=True,
            )
            held = set(map(tuple, split.test_edges))
            assert (2, 3) not in held
            n_comp, _ = connected_components(
                unit_adjacency(split.train_graph).matrix, directed=False
            )
            assert n_comp == 1

    def test_all_bridges_blocks_everything(self):
        star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        with pytest.raises(ValueError, match="blocked"):
            make_split(star, fraction=0.25, seed=0, protect_connectivity=True)

    def test_complete_graph_cannot_supply_negatives(self, k4):
        with pytest.raises(ValueError, match="dense"):
            make_split(k4, fraction=1 / 6, seed=0, protect_connectivity=False)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_domain(self, fraction):
        with pytest.raises(ValueError):
            make_split(cycle(6), fraction=fraction, seed=0)

    def test_tiny_graph_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            make_split(g, fraction=0.4, seed=0)

    @given(
        n=st.integers(min_value=4, max_value=40),
        p=st.floats(min_value=0.03, max_value=0.6),
        graph_seed=st.integers(min_value=0, max_value=9999),
        seed=st.integers(min_value=0, max_value=9999),
        fraction=st.floats(min_value=0.05, max_value=0.9),
        protect=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_greedy_reference(self, n, p, graph_seed, seed, fraction, protect):
        g = er_graph(n, p, graph_seed)
        if int(np.floor(fraction * g.edge_count + 1e-9)) < 1:
            return  # rejected up front, covered by test_partition_invariants
        try:
            removed, negatives, kept = greedy_split(g, fraction, seed, protect)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                make_split(g, fraction, seed, protect_connectivity=protect)
            return
        split = make_split(g, fraction, seed, protect_connectivity=protect)
        assert split.test_edges.tolist() == [list(e) for e in removed]
        assert split.test_non_edges.tolist() == [list(e) for e in negatives]
        assert split.train_graph == Graph.from_edges(n, kept)

    @given(
        n=st.integers(min_value=4, max_value=60),
        p=st.floats(min_value=0.02, max_value=0.25),
        graph_seed=st.integers(min_value=0, max_value=9999),
        seed=st.integers(min_value=0, max_value=9999),
        fraction=st.floats(min_value=0.05, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_protected_count_is_edges_outside_a_spanning_forest(
        self, n, p, graph_seed, seed, fraction
    ):
        g = er_graph(n, p, graph_seed)
        target = int(np.floor(fraction * g.edge_count + 1e-9))
        components, _ = connected_components(unit_adjacency(g).matrix, directed=False)
        expected = min(target, g.edge_count - (n - components))
        if target < 1 or expected < 1 or n * (n - 1) // 2 - g.edge_count < expected:
            with pytest.raises(ValueError):
                make_split(g, fraction, seed, protect_connectivity=True)
            return
        split = make_split(g, fraction, seed, protect_connectivity=True)
        assert split.test_edges.shape[0] == expected
        after, _ = connected_components(
            unit_adjacency(split.train_graph).matrix, directed=False
        )
        assert after == components


class TestCosineScores:
    def emb(self, rows) -> EmbeddingMatrix:
        return EmbeddingMatrix(np.asarray(rows, dtype=np.float64), {})

    def test_reference_values(self):
        emb = self.emb([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        pairs = np.array([[0, 0], [0, 1], [2, 0]])
        scores, zeros = cosine_scores(emb, pairs)
        assert zeros == 0
        assert scores[0] == pytest.approx(1.0, abs=1e-12)
        assert scores[1] == pytest.approx(0.0, abs=1e-12)
        assert scores[2] == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_zero_norm_rows_counted(self):
        emb = self.emb([[0.0, 0.0], [1.0, 2.0]])
        scores, zeros = cosine_scores(emb, np.array([[0, 1], [1, 1]]))
        assert zeros == 1
        assert scores[0] == 0.0
        assert scores[1] == pytest.approx(1.0)

    def test_range(self):
        rng = np.random.default_rng(0)
        emb = self.emb(rng.normal(size=(20, 6)))
        pairs = rng.integers(0, 20, size=(50, 2))
        scores, _ = cosine_scores(emb, pairs)
        assert np.all(scores >= -1 - 1e-12) and np.all(scores <= 1 + 1e-12)


class TestRankAuc:
    def test_perfect_separation(self):
        assert rank_auc(np.array([0.9, 0.8]), np.array([0.7, 0.1])) == 1.0

    def test_single_tie_gives_half(self):
        assert rank_auc(np.array([0.5]), np.array([0.5])) == 0.5

    def test_reversed_separation(self):
        assert rank_auc(np.array([0.1, 0.2]), np.array([0.8, 0.9])) == 0.0

    def test_probability_interpretation(self):
        pos = np.array([0.9, 0.4])
        neg = np.array([0.5, 0.1])
        # pairs: (.9>.5), (.9>.1), (.4<.5), (.4>.1) -> 3/4
        assert rank_auc(pos, neg) == pytest.approx(0.75, abs=1e-12)

    @given(pos=score_lists, neg=score_lists)
    @settings(max_examples=40, deadline=None)
    def test_monotone_transformation_invariance(self, pos, neg):
        pos = np.asarray(pos)
        neg = np.asarray(neg)
        base = rank_auc(pos, neg)
        for f in (lambda x: 3.0 * x + 7.0, np.exp, np.tanh):
            assert rank_auc(f(pos), f(neg)) == pytest.approx(base, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_auc(np.array([]), np.array([0.5]))

    @given(data=st.data(), scores=st.sampled_from([tied_scores, real_scores]))
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_rankdata_formula(self, data, scores):
        pos, neg = data.draw(scores), data.draw(scores)
        assert rank_auc(pos, neg).hex() == rankdata_auc(pos, neg).hex()

    @pytest.mark.parametrize("pos,neg", [([0.5, np.nan], [0.1]), ([0.5], [np.nan, 0.1])])
    def test_nan_score_gives_nan(self, pos, neg):
        assert np.isnan(rankdata_auc(pos, neg))
        assert np.isnan(rank_auc(pos, neg))

    def test_package_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, motifemb, motifemb.cli; print('scipy.stats' in sys.modules)"
        src = str(Path(evaluation.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.strip() == "False"


class TestComputeMetrics:
    def test_hand_confusion_arithmetic(self):
        # 3 positives >= 0.5 (TP), 2 below (FN); 1 negative >= 0.5 (FP),
        # 4 below (TN)
        pos = np.array([0.9, 0.8, 0.7, 0.3, 0.2])
        neg = np.array([0.6, 0.4, 0.35, 0.25, 0.1])
        rep = compute_metrics(pos, neg, threshold=0.5)
        assert rep.counts.tp == 3 and rep.counts.fn == 2
        assert rep.counts.fp == 1 and rep.counts.tn == 4
        assert rep.precision == pytest.approx(0.75, abs=1e-12)
        assert rep.recall == pytest.approx(0.6, abs=1e-12)
        assert rep.accuracy == pytest.approx(0.7, abs=1e-12)
        assert rep.specificity == pytest.approx(0.8, abs=1e-12)
        assert rep.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_threshold_boundary_counts_positive(self):
        rep = compute_metrics(np.array([0.5]), np.array([0.3]), threshold=0.5)
        assert rep.counts.tp == 1 and rep.counts.fn == 0

    @given(pos=score_lists, neg=score_lists)
    @settings(max_examples=40, deadline=None)
    def test_median_rule_is_balanced(self, pos, neg):
        pos, neg = np.asarray(pos), np.asarray(neg)
        if pos.size != neg.size or np.intersect1d(pos, neg).size:
            return  # balance claim needs equal sizes and distinct scores
        rep = compute_metrics(pos, neg)
        predicted_pos = rep.counts.tp + rep.counts.fp
        predicted_neg = rep.counts.tn + rep.counts.fn
        assert abs(predicted_pos - predicted_neg) <= 1

    @given(pos=score_lists, neg=score_lists)
    @settings(max_examples=40, deadline=None)
    def test_f1_identity_and_count_conservation(self, pos, neg):
        pos, neg = np.asarray(pos), np.asarray(neg)
        rep = compute_metrics(pos, neg)
        c = rep.counts
        assert c.tp + c.fp + c.tn + c.fn == pos.size + neg.size
        if rep.precision + rep.recall > 0:
            expected = 2 * rep.precision * rep.recall / (rep.precision + rep.recall)
            assert abs(rep.f1 - expected) <= 1e-12
        for v in (rep.auc, rep.accuracy, rep.precision, rep.recall,
                  rep.specificity, rep.f1):
            assert 0.0 <= v <= 1.0

    def test_zero_denominators_become_zero(self):
        # nothing predicted positive: precision, recall, f1 all undefined -> 0
        rep = compute_metrics(
            np.array([0.1, 0.2]), np.array([0.15, 0.05]), threshold=10.0
        )
        assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0
        assert rep.accuracy == 0.5
        assert rep.specificity == 1.0

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(np.array([]), np.array([0.3]))

    def test_counts_at_a_given_threshold(self):
        rep = compute_metrics(np.array([0.9, 0.1]), np.array([0.8, 0.2]), threshold=0.5)
        assert rep.counts == ConfusionCounts(tp=1, fp=1, tn=1, fn=1)
        assert rep.accuracy == 0.5


def loop_kmeans(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Plain-loop k-means: every emptied cluster re-seeded in ascending order
    (farthest point from its assigned center among those whose cluster keeps
    another member), then one masked mean per cluster, summed row by row in
    index order as the membership product sums it (``np.mean`` sums a single
    column pairwise, which can move a center by an ulp)."""
    n = x.shape[0]
    centers = evaluation._kmeanspp_init(x, k, np.random.default_rng(seed))
    for _ in range(evaluation.KMEANS_MAX_ITER):
        d2 = cdist(x, centers, "sqeuclidean")
        labels = d2.argmin(axis=1)
        for j in range(k):
            if not (labels == j).any():
                donor = np.bincount(labels, minlength=k)[labels] > 1
                far = np.where(donor, d2[np.arange(n), labels], -np.inf)
                labels[int(np.argmax(far))] = j
        new_centers = centers.copy()
        for j in range(k):
            new_centers[j] = sum(x[labels == j]) / np.count_nonzero(labels == j)
        shift = float(np.linalg.norm(new_centers - centers, axis=1).max())
        centers = new_centers
        if shift < evaluation.KMEANS_TOL:
            break
    return labels


class TestKMeans:
    def test_two_point_masses_split_exactly(self):
        x = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5)
        labels = kmeans_cluster(x, 2, seed=0)
        assert len(set(labels[:5].tolist())) == 1
        assert len(set(labels[5:].tolist())) == 1
        assert labels[0] != labels[9]

    def test_k_equals_n_gives_zero_inertia(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 3))
        labels = kmeans_cluster(x, 6, seed=0)
        assert sorted(labels.tolist()) == list(range(6))

    def test_k_domain(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError):
            kmeans_cluster(x, 0)
        with pytest.raises(ValueError):
            kmeans_cluster(x, 5)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 4))
        a = kmeans_cluster(x, 3, seed=9)
        b = kmeans_cluster(x, 3, seed=9)
        assert np.array_equal(a, b)

    def test_every_cluster_nonempty(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 2))
        labels = kmeans_cluster(x, 5, seed=4)
        assert set(labels.tolist()) == set(range(5))

    @given(
        points=st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=12),
        k=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @example(points=[0, 0, 0, 1, 1, 1], k=4, seed=0)  # two clusters empty at once
    @settings(max_examples=200, deadline=None)
    def test_k_nonempty_clusters_on_repeated_points(self, points, k, seed):
        x = np.asarray(points, dtype=np.float64)[:, None]
        k = min(k, x.shape[0])
        assert set(kmeans_cluster(x, k, seed=seed).tolist()) == set(range(k))

    @given(
        points=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), min_size=2, max_size=40),
        k=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @example(points=[(0, 0)] * 3 + [(1, 0)] * 3, k=4, seed=0)  # two clusters empty at once
    @settings(max_examples=200, deadline=None)
    def test_matches_plain_loop_on_repeated_points(self, points, k, seed):
        # few distinct points and many clusters: clusters empty and get re-seeded
        x = np.asarray(points, dtype=np.float64)
        k = min(k, x.shape[0])
        got, want = kmeans_cluster(x, k, seed=seed), loop_kmeans(x, k, seed)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @given(
        x=hnp.arrays(np.float64, st.tuples(st.integers(2, 60), st.integers(1, 5)),
                     elements=st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)),
        k=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=9999),
    )
    # three centers on copies of one tiny value: a pairwise-summed mean ties differently
    @example(x=np.array([[1.0]] + [[8.201959227302338e-28]] * 20), k=4, seed=1)
    @settings(max_examples=100, deadline=None)
    def test_matches_plain_loop_on_real_data(self, x, k, seed):
        k = min(k, x.shape[0])
        got, want = kmeans_cluster(x, k, seed=seed), loop_kmeans(x, k, seed)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def sweep_by_cpu_count(x, labels, budget) -> dict:
    """{cpus: silhouette_score(x, labels)} under a distance budget of
    ``budget`` floats, as seen by a process that may use 1, 2 or 3 CPUs. The
    last budget of the brute-force tests makes 2 single-worker blocks, so 3
    CPUs there is more workers than blocks. Checks that no worker thread
    outlives its call."""
    out = {}
    for cpus in (1, 2, 3):
        threads = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "_SILHOUETTE_BLOCK_FLOATS", budget)
            mp.setattr(evaluation, "_usable_cpus", lambda: cpus)
            out[cpus] = silhouette_score(x, labels)
        assert threading.active_count() == threads
    return out


class TestSilhouette:
    def test_line_example(self):
        x = np.array([[0.0], [1.0], [9.0], [10.0]])
        rep = silhouette_score(x, np.array([0, 0, 1, 1]))
        expected_vals = [8.5 / 9.5, 7.5 / 8.5, 7.5 / 8.5, 8.5 / 9.5]
        assert np.allclose(rep.values, expected_vals, atol=1e-12)
        assert rep.score == pytest.approx(0.8885448916408669, abs=1e-12)

    def test_tight_distant_clusters(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-0.005, 0.005, size=(10, 2))
        b = rng.uniform(-0.005, 0.005, size=(10, 2)) + 10.0
        rep = silhouette_score(np.vstack([a, b]), np.repeat([0, 1], 10))
        assert rep.score >= 0.99

    def test_random_assignment_scores_near_zero(self):
        scores = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.uniform(size=(100, 4))
            labels = np.repeat([0, 1], 50)
            rng.shuffle(labels)
            scores.append(silhouette_score(x, labels).score)
        assert abs(np.mean(scores)) < 0.1

    def test_singleton_cluster_scores_zero(self):
        x = np.array([[0.0], [0.5], [9.0]])
        rep = silhouette_score(x, np.array([0, 0, 1]))
        assert rep.values[2] == 0.0

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            silhouette_score(np.zeros((4, 2)), np.zeros(4, dtype=int))

    @pytest.mark.parametrize("x_shape, labels", [
        ((4, 2), [0, 0, 1, 1, 1]),
        ((4, 2), [0, 1, 1]),
        ((4, 2), [[0, 1], [0, 1]]),
        ((4, 2), [[0], [0], [1], [1]]),
        ((4,), [0, 0, 1, 1]),
        ((4, 2), np.zeros((0, 4), dtype=int)),  # an empty stack
        ((4, 2), [[[0, 0, 1, 1]]]),  # a stack that is not 2-D
        ((4, 2), [[0, 0, 1], [0, 1, 1]]),  # a stack narrower than x
    ])
    def test_malformed_shapes_rejected(self, x_shape, labels):
        x, labels = np.zeros(x_shape), np.array(labels)
        both = re.escape(str(x.shape)) + ".*" + re.escape(str(labels.shape))
        with pytest.raises(ValueError, match=both):
            silhouette_score(x, labels)

    @pytest.mark.parametrize("labels", [
        [0.0, 0.0, 1.0, np.nan],
        [[0.0, 0.0, 1.0, 1.0], [0.0, np.nan, 1.0, 1.0]],
    ])
    def test_nan_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="NaN"):
            silhouette_score(np.arange(8.0).reshape(4, 2), np.array(labels))

    @given(
        seed=st.integers(min_value=0, max_value=99_999),
        n=st.integers(min_value=4, max_value=50),
        k=st.integers(min_value=2, max_value=5),
        singletons=st.integers(min_value=0, max_value=2),
        duplicates=st.booleans(),
    )
    @example(seed=0, n=4, k=2, singletons=2, duplicates=True)
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, seed, n, k, singletons, duplicates):
        rng = np.random.default_rng(seed)
        k = min(k, n)
        x = rng.normal(size=(n + singletons, 3))
        if duplicates:  # repeated points, some in one cluster, some across
            x[rng.integers(0, n, size=n // 2)] = x[rng.integers(0, n, size=n // 2)]
        # force every cluster nonempty, scatter the rest randomly, then add
        # the singleton clusters
        labels = np.concatenate(
            [np.arange(k), rng.integers(0, k, size=n - k), k + np.arange(singletons)]
        )
        rng.shuffle(labels)
        # unsorted, non-contiguous cluster ids
        labels = (rng.permutation(k + singletons) * 7 - 3)[labels]
        expected = brute_silhouette_values(x, labels)
        m = x.shape[0]
        # the default budget is one block; then one row per block, blocks of
        # 3 rows, and m - 1 rows followed by a 1-row final block
        for budget in (evaluation._SILHOUETTE_BLOCK_FLOATS, 1, 3 * m, m * (m - 1)):
            by_cpus = sweep_by_cpu_count(x, labels, budget)
            rep = by_cpus[1]
            assert np.allclose(rep.values, expected, rtol=0, atol=1e-9)
            assert rep.score == pytest.approx(float(np.mean(expected)), abs=1e-9)
            assert np.all(rep.values >= -1 - 1e-12) and np.all(rep.values <= 1 + 1e-12)
            assert rep.score == pytest.approx(float(rep.values.mean()), abs=1e-15)
            for other in by_cpus.values():
                assert other.values.tobytes() == rep.values.tobytes()
                assert other.score == rep.score

    @given(
        seed=st.integers(min_value=0, max_value=99_999),
        n=st.integers(min_value=4, max_value=40),
        ks=st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=4),
        singletons=st.integers(min_value=0, max_value=2),
        duplicates=st.booleans(),
    )
    @example(seed=0, n=4, ks=[2, 4, 3, 2], singletons=2, duplicates=True)
    @settings(max_examples=60, deadline=None)
    def test_stacked_labelings(self, seed, n, ks, singletons, duplicates):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n + singletons, 3))
        if duplicates:
            x[rng.integers(0, n, size=n // 2)] = x[rng.integers(0, n, size=n // 2)]
        stack = []
        for k in ks:  # each labeling has its own k, singletons and id scatter
            k = min(k, n)
            labels = np.concatenate(
                [np.arange(k), rng.integers(0, k, size=n - k), k + np.arange(singletons)]
            )
            rng.shuffle(labels)
            stack.append((rng.permutation(k + singletons) * 7 - 3)[labels])
        stack = np.array(stack)
        perm = rng.permutation(len(stack))
        m = x.shape[0]
        expected = [brute_silhouette_values(x, labels) for labels in stack]
        one_block = silhouette_score(x, stack)
        for budget in (evaluation._SILHOUETTE_BLOCK_FLOATS, 1, 3 * m, m * (m - 1)):
            by_cpus = sweep_by_cpu_count(x, stack, budget)
            reps = by_cpus[1]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evaluation, "_SILHOUETTE_BLOCK_FLOATS", budget)
                alone = [silhouette_score(x, labels) for labels in stack]
                permuted = silhouette_score(x, stack[perm])
            assert len(reps) == len(stack)
            for i, rep in enumerate(reps):
                assert np.allclose(rep.values, expected[i], rtol=0, atol=1e-9)
                assert rep.values.tobytes() == alone[i].values.tobytes()
                assert rep.values.tobytes() == one_block[i].values.tobytes()
                assert rep.score == alone[i].score
                at = int(np.flatnonzero(perm == i)[0])
                assert rep.values.tobytes() == permuted[at].values.tobytes()
                for other in by_cpus.values():
                    assert other[i].values.tobytes() == rep.values.tobytes()
                    assert other[i].score == rep.score

    def test_workers_share_the_distance_budget(self):
        # about 2,000 points in 20 single-worker blocks: two workers halve the
        # block width, so the distances in flight stay those of one block
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2000, 3))
        labels = rng.integers(0, 4, size=2000)
        peaks = {}
        for cpus in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evaluation, "_SILHOUETTE_BLOCK_FLOATS", 2000 * 100)
                mp.setattr(evaluation, "_usable_cpus", lambda: cpus)
                tracemalloc.start()
                try:
                    silhouette_score(x, labels)
                    peaks[cpus] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks[2] <= 1.25 * peaks[1], peaks
