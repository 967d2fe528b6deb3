"""Triangle statistics against a brute-force oracle, and the two derived
structures (weighted adjacency, transition rows) against direct-formula
recomputation."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifemb import (
    Graph,
    build_motif_adjacency,
    build_transition_model,
    count_triangles,
    null_model_rewire,
    null_model_totals,
    planted_partition,
    uniform_transitions,
    unit_adjacency,
)
from conftest import er_graph


def brute_triangle_stats(g: Graph):
    """O(n^3) triple loop; the independent oracle for the fast counter."""
    n = g.node_count
    nd = np.zeros(n, dtype=np.int64)
    ed = {tuple(e): 0 for e in map(tuple, g.edges.tolist())}
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if not g.has_edge(i, j):
                continue
            for k in range(j + 1, n):
                if g.has_edge(i, k) and g.has_edge(j, k):
                    total += 1
                    nd[[i, j, k]] += 1
                    ed[(i, j)] += 1
                    ed[(i, k)] += 1
                    ed[(j, k)] += 1
    return total, nd, ed


def edge_counts(g: Graph, stats) -> dict:
    """{(u, v): count} read off ``edge_values`` row by row of ``g.edges``."""
    return {(u, v): c for (u, v), c in zip(g.edges.tolist(), stats.edge_values.tolist())}


def direct_adjacency_weight(ed_value: int, motif_size: int = 3) -> float:
    return 1.0 + ed_value / motif_size if ed_value > 0 else 1.0


def assert_rows_exact(tm) -> None:
    """Each row's probs are its masses over their left-to-right sum."""
    indptr = tm.graph.indptr
    for v in range(tm.graph.node_count):
        masses = tm.masses[indptr[v]:indptr[v + 1]]
        total = 0.0
        for m in masses.tolist():
            total += m
        assert np.array_equal(tm.probs[indptr[v]:indptr[v + 1]], masses / total)


def direct_strict_row(g: Graph, ed: dict, node: int) -> np.ndarray:
    """Transition row recomputed straight from the definition."""
    nbrs = g.neighbors(node)
    mass = np.array(
        [ed[(min(node, int(x)), max(node, int(x)))] for x in nbrs], dtype=np.float64
    )
    s = mass.sum()
    if s > 0:
        return mass / s
    return np.full(nbrs.size, 1.0 / nbrs.size) if nbrs.size else mass


class TestCountTriangles:
    def test_k3(self, k3):
        s = count_triangles(k3)
        assert s.total_motifs == 1
        assert s.node_degree.tolist() == [1, 1, 1]
        assert s.edge_values.tolist() == [1] * k3.edge_count

    def test_k4(self, k4):
        s = count_triangles(k4)
        assert s.total_motifs == 4
        assert s.node_degree.tolist() == [3, 3, 3, 3]
        assert s.edge_values.tolist() == [2] * k4.edge_count

    def test_petersen_triangle_free(self, petersen):
        s = count_triangles(petersen)
        assert s.total_motifs == 0
        assert not s.node_degree.any()
        assert not s.edge_values.any()

    def test_tri_pendant(self, tri_pendant):
        s = count_triangles(tri_pendant)
        assert s.total_motifs == 1
        assert s.node_degree.tolist() == [1, 1, 1, 0]
        counts = edge_counts(tri_pendant, s)
        assert counts[(2, 3)] == 0
        assert counts[(0, 1)] == 1

    @given(
        n=st.integers(min_value=3, max_value=30),
        p=st.floats(min_value=0.05, max_value=0.7),
        seed=st.integers(min_value=0, max_value=99_999),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, n, p, seed):
        g = er_graph(n, p, seed)
        s = count_triangles(g)
        total, nd, ed = brute_triangle_stats(g)
        assert s.total_motifs == total
        assert np.array_equal(s.node_degree, nd)
        assert edge_counts(g, s) == ed

    @given(
        n=st.integers(min_value=3, max_value=30),
        p=st.floats(min_value=0.05, max_value=0.7),
        seed=st.integers(min_value=0, max_value=99_999),
    )
    @settings(max_examples=40, deadline=None)
    def test_handshake_identities(self, n, p, seed):
        g = er_graph(n, p, seed)
        s = count_triangles(g)
        assert s.node_degree.sum() == 3 * s.total_motifs
        assert s.edge_values.sum() == 3 * s.total_motifs
        # an edge's count never exceeds either endpoint's count
        for (u, v), val in edge_counts(g, s).items():
            assert val <= min(s.node_degree[u], s.node_degree[v])

    @given(
        n=st.integers(min_value=4, max_value=20),
        p=st.floats(min_value=0.1, max_value=0.5),
        seed=st.integers(min_value=0, max_value=99_999),
    )
    @settings(max_examples=30, deadline=None)
    def test_adding_edge_is_monotone(self, n, p, seed):
        g = er_graph(n, p, seed)
        present = set(map(tuple, g.edges.tolist()))
        candidates = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (i, j) not in present
        ]
        if not candidates:
            return
        extra = candidates[seed % len(candidates)]
        bigger = Graph.from_edges(n, list(map(tuple, g.edges)) + [extra])
        before = count_triangles(g)
        after = count_triangles(bigger)
        assert np.all(after.node_degree >= before.node_degree)
        after_counts = edge_counts(bigger, after)
        for edge, val in edge_counts(g, before).items():
            assert after_counts[edge] >= val


class TestNullModelTotals:
    def test_one_rewiring_per_seed(self):
        g = er_graph(30, 0.2, seed=2)
        totals = null_model_totals(g, 3, 2, seed=7)
        want = [count_triangles(null_model_rewire(g, 2, seed=s)).total_motifs
                for s in (7, 8, 9)]
        assert totals.dtype == np.float64 and totals.tolist() == want

    def test_no_sample_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            null_model_totals(er_graph(10, 0.5, seed=1), 0, 1, seed=0)


class TestWeightedAdjacency:
    def test_k3_entries(self, k3):
        am = build_motif_adjacency(k3, count_triangles(k3))
        for u, v in map(tuple, k3.edges):
            assert am.weight(u, v) == pytest.approx(4 / 3, abs=1e-15)

    def test_path_entries_stay_unit(self, path3):
        am = build_motif_adjacency(path3, count_triangles(path3))
        assert am.weight(0, 1) == 1.0
        assert am.weight(1, 2) == 1.0

    def test_k4_entries(self, k4):
        am = build_motif_adjacency(k4, count_triangles(k4))
        for u, v in map(tuple, k4.edges):
            assert am.weight(u, v) == pytest.approx(5 / 3, abs=1e-15)

    def test_nonzero_iff_edge_and_symmetric(self, tri_pendant):
        am = build_motif_adjacency(tri_pendant, count_triangles(tri_pendant))
        dense = am.matrix.toarray()
        assert np.array_equal(dense, dense.T)
        for i in range(4):
            assert dense[i, i] == 0.0
            for j in range(i + 1, 4):
                assert (dense[i, j] != 0) == tri_pendant.has_edge(i, j)

    def test_mismatched_stats_rejected(self, k3, k4):
        with pytest.raises(ValueError):
            build_motif_adjacency(k4, count_triangles(k3))

    def test_stats_from_same_sized_graph_rejected(self):
        # equal node and edge counts, different edges: only the edge check
        # can tell the two graphs apart
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        stats = count_triangles(path)
        with pytest.raises(ValueError):
            build_motif_adjacency(star, stats)
        for mode in ("strict", "smoothed"):
            with pytest.raises(ValueError):
                build_transition_model(star, stats, mode)

    def test_stats_from_equal_graph_accepted(self, k4):
        # an equal graph built separately holds a different edges array
        twin = Graph.from_edges(4, list(map(tuple, k4.edges)))
        assert twin.edges is not k4.edges
        stats = count_triangles(twin)
        assert np.array_equal(build_motif_adjacency(k4, stats).edge_weights,
                              build_motif_adjacency(twin, stats).edge_weights)

    @given(
        n=st.integers(min_value=3, max_value=25),
        p=st.floats(min_value=0.1, max_value=0.6),
        seed=st.integers(min_value=0, max_value=99_999),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_direct_formula(self, n, p, seed):
        g = er_graph(n, p, seed)
        _, _, ed = brute_triangle_stats(g)
        am = build_motif_adjacency(g, count_triangles(g))
        for (u, v), val in ed.items():
            expected = direct_adjacency_weight(val)
            assert abs(am.weight(u, v) - expected) <= 1e-12
            assert abs(am.weight(v, u) - expected) <= 1e-12
        max_ed = max(ed.values(), default=0)
        w = am.edge_weights
        assert np.all(w >= 1.0) and np.all(w <= 1.0 + max_ed / 3 + 1e-12)


class TestTransitionModel:
    def test_k4_uniform(self, k4):
        tm = build_transition_model(k4, count_triangles(k4), mode="strict")
        for v in range(4):
            _, probs = tm.row(v)
            assert np.allclose(probs, 1 / 3, atol=1e-15)

    def test_path_fallback_uniform(self, path3):
        tm = build_transition_model(path3, count_triangles(path3), mode="strict")
        nbrs, probs = tm.row(1)
        assert nbrs.tolist() == [0, 2]
        assert probs.tolist() == [0.5, 0.5]

    def test_tri_pendant_strict(self, tri_pendant):
        tm = build_transition_model(tri_pendant, count_triangles(tri_pendant), "strict")
        nbrs, probs = tm.row(2)
        assert nbrs.tolist() == [0, 1, 3]
        assert probs.tolist() == [0.5, 0.5, 0.0]

    def test_tri_pendant_smoothed(self, tri_pendant):
        tm = build_transition_model(tri_pendant, count_triangles(tri_pendant), "smoothed")
        nbrs, probs = tm.row(2)
        assert nbrs.tolist() == [0, 1, 3]
        assert np.allclose(probs, [4 / 11, 4 / 11, 3 / 11], atol=1e-12)
        assert np.all(probs > 0)

    def test_isolated_node_empty_row(self):
        g = Graph.from_edges(3, [(0, 1)])
        tm = build_transition_model(g, count_triangles(g), "strict")
        nbrs, probs = tm.row(2)
        assert nbrs.size == 0 and probs.size == 0

    @given(
        n=st.integers(min_value=3, max_value=25),
        p=st.floats(min_value=0.1, max_value=0.6),
        seed=st.integers(min_value=0, max_value=99_999),
        mode=st.sampled_from(["strict", "smoothed"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_are_distributions(self, n, p, seed, mode):
        g = er_graph(n, p, seed)
        tm = build_transition_model(g, count_triangles(g), mode)
        for v in range(n):
            nbrs, probs = tm.row(v)
            if nbrs.size:
                assert abs(probs.sum() - 1.0) <= 1e-12
                assert np.all(probs >= 0)
                if mode == "smoothed":
                    assert np.all(probs > 0)

    @given(
        n=st.integers(min_value=3, max_value=20),
        p=st.floats(min_value=0.1, max_value=0.6),
        seed=st.integers(min_value=0, max_value=99_999),
    )
    @settings(max_examples=30, deadline=None)
    def test_strict_rows_match_direct_formula(self, n, p, seed):
        g = er_graph(n, p, seed)
        _, _, ed = brute_triangle_stats(g)
        tm = build_transition_model(g, count_triangles(g), "strict")
        for v in range(n):
            _, probs = tm.row(v)
            expected = direct_strict_row(g, ed, v)
            assert np.allclose(probs, expected, atol=1e-12)

    @given(
        n=st.integers(min_value=3, max_value=25),
        p=st.floats(min_value=0.1, max_value=0.8),
        seed=st.integers(min_value=0, max_value=99_999),
        isolated=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_are_exact_quotients(self, n, p, seed, isolated):
        g = Graph.from_edges(n + isolated, er_graph(n, p, seed).edges)
        stats = count_triangles(g)
        for mode in ("strict", "smoothed"):
            assert_rows_exact(build_transition_model(g, stats, mode))
        assert_rows_exact(uniform_transitions(g))

    def test_rows_are_exact_quotients_on_acceptance_instance(self):
        g, _ = planted_partition(seed=5)
        stats = count_triangles(g)
        for mode in ("strict", "smoothed"):
            assert_rows_exact(build_transition_model(g, stats, mode))
        assert_rows_exact(uniform_transitions(g))

    def test_equal_counts_reduce_to_uniform_bitwise(self, k4, petersen):
        # all EDs equal (2 on K4, 0 on Petersen): rows must equal the plain
        # uniform model exactly, not just approximately
        for g in (k4, petersen):
            tm = build_transition_model(g, count_triangles(g), "strict")
            un = uniform_transitions(g)
            assert np.array_equal(tm.probs, un.probs)

    def test_unit_adjacency_weights(self, k4):
        ua = unit_adjacency(k4)
        assert np.all(ua.edge_weights == 1.0)
        assert ua.matrix.nnz == 2 * k4.edge_count
