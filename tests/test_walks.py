"""Walk corpora: shape/edge invariants, empirical step distributions
(chi-square against the transition rows), second-order biasing behavior,
and the p = q = 1 reduction to first-order walks."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from motifemb import (
    Graph,
    TrainConfig,
    build_transition_model,
    count_triangles,
    generate_walks,
    node2vec_walks,
)

from conftest import er_graph

ALPHA = 1e-3  # chi-square rejection level; seeds below are fixed, so no flake


def walk_config(**kw) -> TrainConfig:
    base = dict(walks_per_node=3, walk_length=12, dim=8)
    base.update(kw)
    return TrainConfig(**base)


def transition_counts(corpus, source: int, n: int) -> np.ndarray:
    """How often each node follows `source` across the whole corpus."""
    counts = np.zeros(n, dtype=np.int64)
    for w in corpus.walks:
        here = np.nonzero(w[:-1] == source)[0]
        for idx in here:
            counts[w[idx + 1]] += 1
    return counts


class TestCorpusShape:
    @given(
        n=st.integers(min_value=2, max_value=25),
        p=st.floats(min_value=0.1, max_value=0.6),
        seed=st.integers(min_value=0, max_value=9999),
        second_order=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_counts_lengths_and_edges(self, n, p, seed, second_order):
        g = er_graph(n, p, seed)
        cfg = walk_config(seed=seed)
        if second_order:
            corpus = node2vec_walks(g, None, cfg)
        else:
            corpus = generate_walks(g, None, cfg)
        assert len(corpus) == cfg.walks_per_node * g.node_count
        starts = np.zeros(n, dtype=int)
        for w in corpus.walks:
            starts[w[0]] += 1
            assert 1 <= w.size <= cfg.walk_length
            for a, b in zip(w[:-1], w[1:]):
                assert g.has_edge(int(a), int(b))
            if w.size < cfg.walk_length:
                # only an empty row may cut a walk short
                assert g.neighbors(int(w[-1])).size == 0
        # every rep starts one walk at every node
        assert np.all(starts == cfg.walks_per_node)
        assert corpus.token_count() == sum(w.size for w in corpus.walks)

    def test_isolated_start_is_singleton(self):
        g = Graph.from_edges(3, [(0, 1)])
        corpus = generate_walks(g, None, walk_config())
        for w in corpus.walks:
            if w[0] == 2:
                assert w.size == 1
            else:
                assert 2 not in w

    def test_seed_determinism(self, tri_pendant):
        cfg = walk_config()
        a = generate_walks(tri_pendant, None, cfg.with_seed(7))
        b = generate_walks(tri_pendant, None, cfg.with_seed(7))
        c = generate_walks(tri_pendant, None, cfg.with_seed(8))
        assert all(np.array_equal(x, y) for x, y in zip(a.walks, b.walks))
        assert any(not np.array_equal(x, y) for x, y in zip(a.walks, c.walks))


class TestFirstOrderDistribution:
    def test_strict_never_crosses_zero_mass_edge(self, tri_pendant):
        tm = build_transition_model(
            tri_pendant, count_triangles(tri_pendant), "strict"
        )
        corpus = generate_walks(
            tri_pendant, tm, walk_config(walks_per_node=150, walk_length=40)
        )
        counts = transition_counts(corpus, 2, 4)
        assert counts[3] == 0  # edge (2,3) sits in no triangle
        assert counts[0] > 0 and counts[1] > 0
        chi = sps.chisquare(counts[[0, 1]])
        assert chi.pvalue > ALPHA

    def test_smoothed_matches_expected_row(self, tri_pendant):
        tm = build_transition_model(
            tri_pendant, count_triangles(tri_pendant), "smoothed"
        )
        corpus = generate_walks(
            tri_pendant, tm, walk_config(walks_per_node=300, walk_length=40, seed=1)
        )
        counts = transition_counts(corpus, 2, 4)[[0, 1, 3]]
        expected = np.array([4 / 11, 4 / 11, 3 / 11]) * counts.sum()
        chi = sps.chisquare(counts, expected)
        assert chi.pvalue > ALPHA

    def test_uniform_default_row(self, tri_pendant):
        corpus = generate_walks(
            tri_pendant, None, walk_config(walks_per_node=300, walk_length=40, seed=2)
        )
        counts = transition_counts(corpus, 2, 4)[[0, 1, 3]]
        chi = sps.chisquare(counts)
        assert chi.pvalue > ALPHA


class TestSecondOrder:
    def test_huge_p_forbids_backtracking(self, c4):
        corpus = node2vec_walks(
            c4, None, walk_config(walks_per_node=50, walk_length=20, p=1e12, q=1.0, seed=3),
        )
        for w in corpus.walks:
            for i in range(2, w.size):
                assert w[i] != w[i - 2]

    def test_tiny_q_pushes_outward(self, tri_pendant):
        # from (0 -> 2) the only non-neighbor of 0 among 2's neighbors is 3
        corpus = node2vec_walks(
            tri_pendant, None,
            walk_config(walks_per_node=100, walk_length=20, p=1.0, q=1e-12, seed=4),
        )
        seen = 0
        for w in corpus.walks:
            for i in range(2, w.size):
                if w[i - 2] == 0 and w[i - 1] == 2:
                    seen += 1
                    assert w[i] == 3
        assert seen > 10

    def test_neutral_parameters_reduce_to_first_order(self):
        g = er_graph(20, 0.3, seed=3)
        cfg = walk_config(walks_per_node=4, walk_length=15, p=1.0, q=1.0, seed=11)
        first = generate_walks(g, None, cfg)
        second = node2vec_walks(g, None, cfg)
        assert len(first) == len(second)
        for a, b in zip(first.walks, second.walks):
            assert np.array_equal(a, b)

    def test_neutral_reduction_holds_with_motif_rows(self, two_triangles_bridged):
        g = two_triangles_bridged
        tm = build_transition_model(g, count_triangles(g), "smoothed")
        cfg = walk_config(walks_per_node=4, walk_length=15, p=1.0, q=1.0, seed=11)
        first = generate_walks(g, tm, cfg)
        second = node2vec_walks(g, tm, cfg)
        for a, b in zip(first.walks, second.walks):
            assert np.array_equal(a, b)

    def test_second_order_composes_with_strict_rows(self, tri_pendant):
        # strict rows give edge (2,3) zero mass, so even with q pushing
        # outward the walk must not cross it
        tm = build_transition_model(
            tri_pendant, count_triangles(tri_pendant), "strict"
        )
        corpus = node2vec_walks(
            tri_pendant, tm, walk_config(walks_per_node=100, walk_length=30, p=2.0, q=0.5, seed=5),
        )
        counts = transition_counts(corpus, 2, 4)
        assert counts[3] == 0
