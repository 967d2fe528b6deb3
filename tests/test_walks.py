"""Walk corpora: shape/edge invariants, empirical step distributions
(chi-square against the transition rows), second-order biasing behavior,
the p = q = 1 reduction to first-order walks, and byte identity of walks,
pairs and noise with the one-walk-at-a-time reference, at hubs and at any
second-order block size too."""
from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import walk_reference as ref
from motifemb import (
    Graph,
    TrainConfig,
    build_transition_model,
    count_triangles,
    generate_walks,
    node2vec_walks,
    uniform_transitions,
)
from motifemb.sgns import extract_pairs, noise_distribution
from motifemb.walks import _BLOCK

from conftest import er_graph

ALPHA = 1e-3  # chi-square rejection level; seeds below are fixed, so no flake


def walk_config(**kw) -> TrainConfig:
    base = dict(walks_per_node=3, walk_length=12, dim=8)
    base.update(kw)
    return TrainConfig(**base)


def transition_counts(corpus, source: int, n: int) -> np.ndarray:
    """How often each node follows `source` across the whole corpus."""
    here, nxt = corpus.tokens[:, :-1], corpus.tokens[:, 1:]
    return np.bincount(nxt[(here == source) & (nxt >= 0)], minlength=n)


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
            corpus = node2vec_walks(uniform_transitions(g), cfg)
        else:
            corpus = generate_walks(uniform_transitions(g), cfg)
        assert len(corpus) == cfg.walks_per_node * g.node_count
        tokens = corpus.tokens
        assert tokens.shape == (len(corpus), cfg.walk_length)
        sizes = np.count_nonzero(tokens >= 0, axis=1)
        assert np.all(sizes >= 1)
        # -1 pads the tail of a row and nothing else
        assert np.array_equal(tokens >= 0, np.arange(cfg.walk_length) < sizes[:, None])
        here, nxt = tokens[:, :-1], tokens[:, 1:]
        for a, b in zip(here[nxt >= 0], nxt[nxt >= 0]):
            assert g.has_edge(int(a), int(b))
        for row, size in zip(tokens, sizes):
            if size < cfg.walk_length:
                # only an empty row may cut a walk short
                assert g.neighbors(int(row[size - 1])).size == 0
        # every rep starts one walk at every node
        assert np.all(np.bincount(tokens[:, 0], minlength=n) == cfg.walks_per_node)
        assert corpus.token_count() == sizes.sum()

    def test_isolated_start_is_singleton(self):
        g = Graph.from_edges(3, [(0, 1)])
        corpus = generate_walks(uniform_transitions(g), walk_config())
        for w in corpus.tokens:
            if w[0] == 2:
                assert np.all(w[1:] == -1)
            else:
                assert 2 not in w

    def test_seed_determinism(self, tri_pendant):
        cfg = walk_config()
        a = generate_walks(uniform_transitions(tri_pendant), cfg.with_seed(7))
        b = generate_walks(uniform_transitions(tri_pendant), cfg.with_seed(7))
        c = generate_walks(uniform_transitions(tri_pendant), cfg.with_seed(8))
        assert np.array_equal(a.tokens, b.tokens)
        assert not np.array_equal(a.tokens, c.tokens)


class TestFirstOrderDistribution:
    def test_strict_never_crosses_zero_mass_edge(self, tri_pendant):
        tm = build_transition_model(
            tri_pendant, count_triangles(tri_pendant), "strict"
        )
        corpus = generate_walks(tm, walk_config(walks_per_node=150, walk_length=40))
        counts = transition_counts(corpus, 2, 4)
        assert counts[3] == 0  # edge (2,3) sits in no triangle
        assert counts[0] > 0 and counts[1] > 0
        chi = sps.chisquare(counts[[0, 1]])
        assert chi.pvalue > ALPHA

    def test_smoothed_matches_expected_row(self, tri_pendant):
        tm = build_transition_model(
            tri_pendant, count_triangles(tri_pendant), "smoothed"
        )
        corpus = generate_walks(tm, walk_config(walks_per_node=300, walk_length=40, seed=1))
        counts = transition_counts(corpus, 2, 4)[[0, 1, 3]]
        expected = np.array([4 / 11, 4 / 11, 3 / 11]) * counts.sum()
        chi = sps.chisquare(counts, expected)
        assert chi.pvalue > ALPHA

    def test_uniform_default_row(self, tri_pendant):
        corpus = generate_walks(
            uniform_transitions(tri_pendant),
            walk_config(walks_per_node=300, walk_length=40, seed=2),
        )
        counts = transition_counts(corpus, 2, 4)[[0, 1, 3]]
        chi = sps.chisquare(counts)
        assert chi.pvalue > ALPHA


class TestSecondOrder:
    def test_huge_p_forbids_backtracking(self, c4):
        corpus = node2vec_walks(
            uniform_transitions(c4),
            walk_config(walks_per_node=50, walk_length=20, p=1e12, q=1.0, seed=3),
        )
        t = corpus.tokens
        assert np.all((t[:, 2:] != t[:, :-2]) | (t[:, 2:] < 0))

    def test_tiny_q_pushes_outward(self, tri_pendant):
        # from (0 -> 2) the only non-neighbor of 0 among 2's neighbors is 3
        corpus = node2vec_walks(
            uniform_transitions(tri_pendant),
            walk_config(walks_per_node=100, walk_length=20, p=1.0, q=1e-12, seed=4),
        )
        t = corpus.tokens
        seen = (t[:, :-2] == 0) & (t[:, 1:-1] == 2) & (t[:, 2:] >= 0)
        assert np.all(t[:, 2:][seen] == 3)
        assert seen.sum() > 10

    def test_neutral_parameters_reduce_to_first_order(self):
        g = er_graph(20, 0.3, seed=3)
        cfg = walk_config(walks_per_node=4, walk_length=15, p=1.0, q=1.0, seed=11)
        first = generate_walks(uniform_transitions(g), cfg)
        second = node2vec_walks(uniform_transitions(g), cfg)
        assert len(first) == len(second)
        assert np.array_equal(first.tokens, second.tokens)

    def test_neutral_reduction_holds_with_motif_rows(self, two_triangles_bridged):
        g = two_triangles_bridged
        tm = build_transition_model(g, count_triangles(g), "smoothed")
        cfg = walk_config(walks_per_node=4, walk_length=15, p=1.0, q=1.0, seed=11)
        first = generate_walks(tm, cfg)
        second = node2vec_walks(tm, cfg)
        assert np.array_equal(first.tokens, second.tokens)

    def test_second_order_composes_with_strict_rows(self, tri_pendant):
        # strict rows give edge (2,3) zero mass, so even with q pushing
        # outward the walk must not cross it
        tm = build_transition_model(
            tri_pendant, count_triangles(tri_pendant), "strict"
        )
        corpus = node2vec_walks(
            tm, walk_config(walks_per_node=100, walk_length=30, p=2.0, q=0.5, seed=5))
        counts = transition_counts(corpus, 2, 4)
        assert counts[3] == 0


class TestReference:
    @given(
        n=st.integers(min_value=2, max_value=20),
        edge_p=st.floats(min_value=0.1, max_value=0.6),
        isolated=st.integers(min_value=0, max_value=3),
        mode=st.sampled_from([None, "strict", "smoothed"]),
        walk_length=st.integers(min_value=1, max_value=12),
        walks_per_node=st.integers(min_value=1, max_value=3),
        pq=st.sampled_from([(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)]),
        seed=st.integers(min_value=0, max_value=9999),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_tokens_pairs_and_noise_match(self, n, edge_p, isolated, mode, walk_length,
                                          walks_per_node, pq, seed, data):
        window = data.draw(st.integers(min_value=1, max_value=walk_length + 1))
        g = Graph.from_edges(n + isolated, er_graph(n, edge_p, seed).edges)
        tm = (uniform_transitions(g) if mode is None
              else build_transition_model(g, count_triangles(g), mode))
        cfg = walk_config(walks_per_node=walks_per_node, walk_length=walk_length,
                          window=window, p=pq[0], q=pq[1], seed=seed)
        for walker, reference in ((generate_walks, ref.generate_walks),
                                  (node2vec_walks, ref.node2vec_walks)):
            corpus, walks = walker(tm, cfg), reference(g, tm, cfg)
            assert corpus.tokens.dtype == np.int64
            assert np.array_equal(corpus.tokens, ref.padded(walks, walk_length))
            assert corpus.token_count() == sum(w.size for w in walks)
            for got, want in zip(extract_pairs(corpus, window), ref.extract_pairs(walks, window)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert (noise_distribution(corpus).tobytes()
                    == ref.noise_distribution(walks, g.node_count).tobytes())


@functools.cache
def hub_graph() -> Graph:
    """Hubs of 1,201 and 151 neighbours, whose rows numpy sums pairwise in
    blocks of 128 terms (the ER graphs above stay under 128), with random
    leaf-leaf edges closing triangles at both, and 3 isolated nodes."""
    rng = np.random.default_rng(0)
    edges = [(0, 1), *((0, x) for x in range(2, 1202)), *((1, x) for x in range(2, 302, 2))]
    edges += zip(rng.integers(2, 1202, 900).tolist(), rng.integers(2, 1202, 900).tolist())
    return Graph.from_edges(1205, edges)


class TestHubReference:
    def test_block_row_sums_and_cumsums_are_the_1d_calls(self):
        # second-order steps rest on this: numpy adds each row of a 2-D
        # block in the order it adds that row alone, pairwise past 8 and
        # 128 terms alike, so a step's weights do not depend on its block
        rng = np.random.default_rng(0)
        for d in (1, 7, 8, 9, 127, 128, 129, 1201, 8193):
            w = rng.random((3, d))
            for row, total, cdf in zip(w, w.sum(axis=1), np.cumsum(w, axis=1)):
                assert total == row.sum() and np.array_equal(cdf, np.cumsum(row))

    @pytest.mark.parametrize("mode", [None, "strict", "smoothed"])
    @pytest.mark.parametrize("pq", [(2.0, 0.5), (0.5, 2.0), (1.0, 0.25)])
    def test_tokens_match_at_any_block(self, mode, pq):
        g = hub_graph()
        assert sorted(g.degrees)[-2:] == [151, 1201]
        tm = (uniform_transitions(g) if mode is None
              else build_transition_model(g, count_triangles(g), mode))
        for walk_length in (1, 2, 4):
            cfg = walk_config(walks_per_node=1, walk_length=walk_length, p=pq[0], q=pq[1],
                              seed=walk_length)
            want = ref.padded(ref.node2vec_walks(g, tm, cfg), walk_length)
            for block in (1, 7, _BLOCK):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr("motifemb.walks._BLOCK", block)
                    assert np.array_equal(node2vec_walks(tm, cfg).tokens, want), block
