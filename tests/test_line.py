"""Edge-sampling embeddings: sampling-table semantics (chi-square), the
noise distribution formula, the generator draws of a training run, order
variants, and separation behavior on a bridged-communities toy graph."""
from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as sps

from motifemb import (
    Graph,
    TrainConfig,
    build_motif_adjacency,
    count_triangles,
    make_split,
    null_model_rewire,
    train_line,
    unit_adjacency,
)
import motifemb.line
from motifemb.line import edge_sampling_tables
from motifemb.motifs import WeightedAdjacency

from conftest import er_graph


def line_config(**kw) -> TrainConfig:
    base = dict(dim=8, negatives=4, epochs=3, line_order="first", batch_size=256)
    base.update(kw)
    return TrainConfig(**base)


class TestSamplingTables:
    def test_cumulative_shape(self, tri_pendant):
        am = build_motif_adjacency(tri_pendant, count_triangles(tri_pendant))
        edge_cum, noise = edge_sampling_tables(tri_pendant, am)
        assert edge_cum.size == tri_pendant.edge_count
        assert np.all(np.diff(edge_cum) >= 0)
        assert edge_cum[-1] == pytest.approx(1.0, abs=1e-12)
        assert noise.sum() == pytest.approx(1.0, abs=1e-12)

    def test_edge_draws_follow_weights(self, tri_pendant):
        # triangle edges carry 4/3, the pendant edge 1; draw frequencies
        # must match those proportions
        am = build_motif_adjacency(tri_pendant, count_triangles(tri_pendant))
        edge_cum, _ = edge_sampling_tables(tri_pendant, am)
        rng = np.random.default_rng(0)
        picks = np.searchsorted(edge_cum, rng.random(60_000), side="right")
        counts = np.bincount(np.minimum(picks, edge_cum.size - 1),
                             minlength=edge_cum.size)
        w = am.edge_weights
        expected = w / w.sum() * counts.sum()
        assert sps.chisquare(counts, expected).pvalue > 1e-3

    def test_noise_is_weighted_degree_power(self, tri_pendant):
        ua = unit_adjacency(tri_pendant)
        _, noise = edge_sampling_tables(tri_pendant, ua)
        deg = np.array([2.0, 2.0, 3.0, 1.0]) ** 0.75
        assert np.allclose(noise, deg / deg.sum(), atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_noise_equals_two_endpoint_passes(self, seed):
        rng = np.random.default_rng(seed)
        g = er_graph(20, 0.3, seed=seed)
        w = rng.random(g.edge_count) * (rng.random(g.edge_count) < 0.8)
        w[0] = 1.0
        weights = WeightedAdjacency(g, w)
        wdeg = np.zeros(20)
        np.add.at(wdeg, g.edges[:, 0], w)
        np.add.at(wdeg, g.edges[:, 1], w)
        want = wdeg**0.75
        want /= want.sum()
        _, noise = edge_sampling_tables(g, weights)
        assert noise.tobytes() == want.tobytes()

    def test_all_zero_weights_rejected(self, tri_pendant):
        dead = WeightedAdjacency(tri_pendant, np.zeros(4))
        with pytest.raises(ValueError):
            edge_sampling_tables(tri_pendant, dead)

    def test_weights_of_another_graph_rejected(self):
        # fewer edges (a train graph), then one node more (an isolated one)
        g = er_graph(30, 0.3, seed=0)
        for other in (make_split(g, 0.1, 0).train_graph,
                      Graph.from_edges(g.node_count + 1, g.edges)):
            with pytest.raises(ValueError, match="different graph"):
                train_line(other, unit_adjacency(g), line_config())

    def test_weights_of_a_rewired_graph_rejected(self):
        # a degree-preserving rewiring has the same node and edge counts
        g = er_graph(30, 0.3, seed=0)
        r = null_model_rewire(g, 1, 0)
        assert r.edge_count == g.edge_count and not np.array_equal(r.edges, g.edges)
        with pytest.raises(ValueError, match="different graph"):
            train_line(g, build_motif_adjacency(r, count_triangles(r)), line_config())


class TestTrainLine:
    @pytest.mark.parametrize("order", ["first", "second", "concat"])
    def test_shapes_and_finiteness(self, two_triangles_bridged, order):
        g = two_triangles_bridged
        emb = train_line(g, unit_adjacency(g), line_config(line_order=order))
        assert emb.vectors.shape == (6, 8)
        assert np.all(np.isfinite(emb.vectors))
        assert emb.provenance["trainer"] == "line"

    @pytest.mark.parametrize("order", ["first", "second", "concat"])
    def test_draws_replay_searchsorted_and_choice_stream(self, tri_pendant, order, step_log):
        # replay of the draws the samplers replaced: per order the init, then
        # per batch a clamped searchsorted edge pick, a flip and a (b, k)
        # rng.choice; zero weights at both ends of the edge table, and node 3
        # gets noise probability zero
        g = tri_pendant
        w = np.array([0.0, 1.5, 1.0, 0.0])
        weights = WeightedAdjacency(g, w)
        cfg = line_config(line_order=order, epochs=2, line_samples_factor=30, batch_size=40,
                          seed=5)
        train_line(g, weights, cfg)

        edge_cum, noise = edge_sampling_tables(g, weights)
        e = g.edge_count
        if order == "concat":
            runs = [(np.random.default_rng(s), 4) for s in np.random.SeedSequence(5).spawn(2)]
        else:
            runs = [(np.random.default_rng(5), 8)]
        want = []
        for rng, dim in runs:
            rng.random((4, dim))
            total = cfg.epochs * cfg.line_samples_factor * e
            for lo in range(0, total, cfg.batch_size):
                b = min(cfg.batch_size, total - lo)
                picks = np.minimum(np.searchsorted(edge_cum, rng.random(b), side="right"), e - 1)
                flip = rng.random(b) < 0.5
                negs = rng.choice(4, size=(b, cfg.negatives), p=noise)
                src = np.where(flip, g.edges[picks, 1], g.edges[picks, 0])
                dst = np.where(flip, g.edges[picks, 0], g.edges[picks, 1])
                want.append((src, np.column_stack([dst, negs])))
        assert len(step_log) == len(want)
        for (center_idx, ctx_idx), (want_center, want_ctx) in zip(step_log, want):
            assert np.array_equal(center_idx, want_center)
            assert np.array_equal(ctx_idx, want_ctx)

    def test_concat_builds_tables_once(self, two_triangles_bridged, monkeypatch):
        calls = []

        def counting_tables(g, weights):
            calls.append(g)
            return edge_sampling_tables(g, weights)

        monkeypatch.setattr(motifemb.line, "edge_sampling_tables", counting_tables)
        g = two_triangles_bridged
        train_line(g, unit_adjacency(g), line_config(line_order="concat"))
        assert len(calls) == 1

    def test_concat_needs_even_dim(self, two_triangles_bridged):
        with pytest.raises(ValueError):
            train_line(two_triangles_bridged, unit_adjacency(two_triangles_bridged),
                       line_config(dim=7, line_order="concat"))

    def test_determinism(self, two_triangles_bridged):
        g, cfg = two_triangles_bridged, line_config(line_order="concat")
        a = train_line(g, unit_adjacency(g), cfg.with_seed(3))
        b = train_line(g, unit_adjacency(g), cfg.with_seed(3))
        c = train_line(g, unit_adjacency(g), cfg.with_seed(4))
        assert np.array_equal(a.vectors, b.vectors)
        assert not np.array_equal(a.vectors, c.vectors)

    def test_orders_differ(self, two_triangles_bridged):
        g = two_triangles_bridged
        first = train_line(g, unit_adjacency(g), line_config(line_order="first"))
        second = train_line(g, unit_adjacency(g), line_config(line_order="second"))
        assert not np.allclose(first.vectors, second.vectors)

    def test_weights_change_result(self, two_triangles_bridged):
        g = two_triangles_bridged
        am = build_motif_adjacency(g, count_triangles(g))
        cfg = line_config(seed=1)
        plain = train_line(g, unit_adjacency(g), cfg)
        weighted = train_line(g, am, cfg)
        assert not np.allclose(plain.vectors, weighted.vectors)

    def test_triangle_mates_score_higher(self, two_triangles_bridged):
        g = two_triangles_bridged
        cfg = line_config(epochs=6, dim=8, seed=2)
        emb = train_line(g, unit_adjacency(g), cfg)
        v = emb.vectors / np.linalg.norm(emb.vectors, axis=1, keepdims=True)
        sims = v @ v.T
        intra = [sims[0, 1], sims[0, 2], sims[1, 2],
                 sims[3, 4], sims[3, 5], sims[4, 5]]
        inter = [sims[i, j] for i in (0, 1) for j in (4, 5)]
        assert np.mean(intra) > np.mean(inter)
