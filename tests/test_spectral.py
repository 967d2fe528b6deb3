"""Spectral embeddings: normalized Laplacian values against closed forms
and a dense eigensolver oracle, residual/orthonormality guarantees, the
sign convention, scaling invariance, and per-component padding."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from motifemb import (
    Graph,
    build_motif_adjacency,
    count_triangles,
    make_split,
    train_spectral,
    unit_adjacency,
)
from motifemb import spectral
from motifemb.motifs import WeightedAdjacency, _adjacency
from motifemb.spectral import (
    RESIDUAL_TOL,
    _fix_signs,
    normalized_laplacian,
    smallest_eigenpairs,
)

from conftest import er_graph


def ring(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def scaled_adjacency(g: Graph, factor: float) -> WeightedAdjacency:
    return _adjacency(g, np.full(g.edge_count, factor))


def loop_fix_signs(vecs: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Column by column: negate it when its first entry of magnitude above
    tol is negative."""
    vecs = vecs.copy()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.flatnonzero(np.abs(col) > tol)
        if nz.size and col[nz[0]] < 0:
            vecs[:, j] = -col
    return vecs


class TestLaplacian:
    def test_c4_spectrum(self, c4):
        lap = normalized_laplacian(unit_adjacency(c4))
        vals = np.sort(np.linalg.eigvalsh(lap.toarray()))
        assert np.allclose(vals, [0.0, 1.0, 1.0, 2.0], atol=1e-12)

    def test_ring_closed_form(self):
        # 2-regular ring: eigenvalues are 1 - cos(2 pi k / n)
        n = 12
        lap = normalized_laplacian(unit_adjacency(ring(n)))
        vals = np.sort(np.linalg.eigvalsh(lap.toarray()))
        expected = np.sort(1.0 - np.cos(2 * np.pi * np.arange(n) / n))
        assert np.allclose(vals, expected, atol=1e-10)

    @given(
        n=st.integers(min_value=3, max_value=20),
        p=st.floats(min_value=0.2, max_value=0.7),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=25, deadline=None)
    def test_symmetric_and_bounded(self, n, p, seed):
        g = er_graph(n, p, seed)
        lap = normalized_laplacian(unit_adjacency(g)).toarray()
        assert np.allclose(lap, lap.T, atol=1e-12)
        vals = np.linalg.eigvalsh(lap)
        assert vals.min() >= -1e-10
        assert vals.max() <= 2.0 + 1e-10


class TestEigenpairs:
    @given(
        n=st.integers(min_value=4, max_value=24),
        p=st.floats(min_value=0.3, max_value=0.8),
        seed=st.integers(min_value=0, max_value=9999),
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_oracle(self, n, p, seed, k):
        g = er_graph(n, p, seed)
        lap = normalized_laplacian(unit_adjacency(g))
        k = min(k, n - 1)
        vals, vecs = smallest_eigenpairs(lap, k)
        oracle = np.sort(np.linalg.eigvalsh(lap.toarray()))[:k]
        assert np.allclose(vals, oracle, atol=1e-8)
        # orthonormal columns
        gram = vecs.T @ vecs
        assert np.allclose(gram, np.eye(k), atol=1e-8)
        # residuals within the advertised tolerance
        res = lap @ vecs - vecs * vals
        assert np.linalg.norm(res, axis=0).max() <= RESIDUAL_TOL

    def test_arpack_path_on_large_ring(self):
        # above the dense cutoff; closed form pins the eigenvalues
        n = 300
        lap = normalized_laplacian(unit_adjacency(ring(n)))
        vals, vecs = smallest_eigenpairs(lap, 4)
        expected = np.sort(1.0 - np.cos(2 * np.pi * np.arange(n) / n))[:4]
        assert np.allclose(vals, expected, atol=1e-8)
        res = lap @ vecs - vecs * vals
        assert np.linalg.norm(res, axis=0).max() <= RESIDUAL_TOL

    def test_no_arpack_convergence_falls_back_to_dense(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        lap = normalized_laplacian(unit_adjacency(ring(300)))
        monkeypatch.setattr(spectral, "eigsh", no_convergence)
        vals, vecs = smallest_eigenpairs(lap, 4)
        dense_vals, dense_vecs = np.linalg.eigh(lap.toarray())
        assert vals.tobytes() == dense_vals[:4].tobytes()
        assert vecs.tobytes() == dense_vecs[:, :4].tobytes()

    def test_no_arpack_convergence_retries_once_with_more_room(self, monkeypatch):
        calls = []

        def fail_first(lap, **kwargs):
            calls.append(kwargs)
            if len(calls) == 1:
                raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))
            return eigsh(lap, **kwargs)

        def no_dense(*args, **kwargs):
            raise AssertionError("dense eigh called")

        lap = normalized_laplacian(unit_adjacency(ring(300)))
        want_vals, _ = smallest_eigenpairs(lap, 4)
        monkeypatch.setattr(spectral, "eigsh", fail_first)
        monkeypatch.setattr(np.linalg, "eigh", no_dense)
        vals, _ = smallest_eigenpairs(lap, 4)
        assert np.allclose(vals, want_vals, atol=1e-10)
        assert [c["ncv"] for c in calls] == [None, 40]
        assert [c["maxiter"] for c in calls] == [None, 30_000]

    def test_no_arpack_convergence_above_the_cap_raises(self, monkeypatch):
        calls = []

        def no_convergence(*args, **kwargs):
            calls.append(kwargs)
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        def no_dense(*args, **kwargs):
            raise AssertionError("dense eigh called")

        lap = normalized_laplacian(unit_adjacency(ring(300)))
        monkeypatch.setattr(spectral, "eigsh", no_convergence)
        monkeypatch.setattr(spectral, "DENSE_FALLBACK_MAX", 299)
        monkeypatch.setattr(np.linalg, "eigh", no_dense)
        with pytest.raises(RuntimeError, match="300-node component.* 299 nodes"):
            smallest_eigenpairs(lap, 4)
        assert len(calls) == 2

    def test_arpack_determinism(self):
        lap = normalized_laplacian(unit_adjacency(ring(300)))
        _, a = smallest_eigenpairs(lap, 3)
        _, b = smallest_eigenpairs(lap, 3)
        assert np.array_equal(a, b)


class TestTrainSpectral:
    def test_shapes_and_sign_convention(self):
        g = er_graph(15, 0.3, seed=0)
        emb = train_spectral(g, unit_adjacency(g), dim=4)
        assert emb.vectors.shape == (15, 4)
        for col in emb.vectors.T:
            nz = np.flatnonzero(np.abs(col) > 1e-12)
            if nz.size:
                assert col[nz[0]] > 0

    @given(
        vecs=hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(0, 6)),
                        elements=st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12,
                                                  2e-12, -2e-12, 0.5, -0.5, -3.0]))
        | hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(0, 6)),
                     elements=st.floats(-2.0, 2.0, allow_subnormal=False)),
    )
    @settings(max_examples=200, deadline=None)
    def test_fix_signs_matches_column_loop(self, vecs):
        # leading entries of zero, below tol or exactly at tol must not decide
        got = _fix_signs(vecs)
        assert got.shape == vecs.shape and got.tobytes() == loop_fix_signs(vecs).tobytes()

    def test_dim_must_be_below_node_count(self, k4):
        with pytest.raises(ValueError):
            train_spectral(k4, unit_adjacency(k4), dim=4)
        with pytest.raises(ValueError):
            train_spectral(k4, unit_adjacency(k4), dim=5)

    def test_weights_of_another_graph_rejected(self):
        # a train graph keeps every node, so only the CSR pattern tells the
        # full graph's weights apart
        g = er_graph(30, 0.3, seed=0)
        with pytest.raises(ValueError, match="different graph"):
            train_spectral(make_split(g, 0.1, 0).train_graph, unit_adjacency(g), 8)

    def test_trivial_direction_dropped(self):
        # connected graph: every column must be orthogonal to sqrt(degree),
        # the kernel of the normalized Laplacian
        g = er_graph(12, 0.4, seed=3)
        emb = train_spectral(g, unit_adjacency(g), dim=3)
        root_deg = np.sqrt(np.array([g.neighbors(i).size for i in range(12)], float))
        root_deg /= np.linalg.norm(root_deg)
        overlap = emb.vectors.T @ root_deg
        assert np.all(np.abs(overlap) <= 1e-8)

    def test_uniform_scaling_invariance(self, k3):
        base = train_spectral(k3, unit_adjacency(k3), dim=2)
        scaled = train_spectral(k3, scaled_adjacency(k3, 7.5), dim=2)
        assert np.allclose(base.vectors, scaled.vectors, atol=1e-10)

    def test_motif_weights_change_embedding(self, tri_pendant):
        am = build_motif_adjacency(tri_pendant, count_triangles(tri_pendant))
        plain = train_spectral(tri_pendant, unit_adjacency(tri_pendant), dim=2)
        weighted = train_spectral(tri_pendant, am, dim=2)
        assert not np.allclose(plain.vectors, weighted.vectors, atol=1e-10)

    def test_small_components_zero_padded(self, two_k4):
        emb = train_spectral(two_k4, unit_adjacency(two_k4), dim=4)
        # each K4 supports 3 nontrivial directions; the 4th column pads
        assert emb.vectors.shape == (8, 4)
        assert np.all(emb.vectors[:, 3] == 0.0)
        assert np.any(emb.vectors[:, :3] != 0.0)

    def test_component_blocks_match_index_loop(self, monkeypatch):
        # 80 components of 1-11 nodes plus one above DENSE_CUTOFF, with
        # node ids shuffled so that the components interleave
        rng = np.random.default_rng(3)
        sizes = np.concatenate([[300], rng.integers(1, 12, size=80)])
        ids = rng.permutation(int(sizes.sum()))
        edges = []
        for part in np.split(ids, np.cumsum(sizes)[:-1]):
            edges += list(zip(part[:-1], part[1:]))  # a path keeps it connected
            edges += [tuple(part[e]) for e in rng.integers(0, part.size, size=(part.size, 2))]
        g = Graph.from_edges(ids.size, edges)
        weights = build_motif_adjacency(g, count_triangles(g))
        blocks = []
        solve = spectral.smallest_eigenpairs
        monkeypatch.setattr(spectral, "smallest_eigenpairs",
                            lambda lap, k: (blocks.append(lap), solve(lap, k))[1])
        emb = train_spectral(g, weights, dim=3)

        # the reference: each component's rows and columns picked from the
        # whole Laplacian, in ascending node order
        n_comp, labels = connected_components(weights.matrix, directed=False)
        full = normalized_laplacian(weights)
        want = np.zeros((g.node_count, 3))
        wanted_blocks = 0
        for c in range(n_comp):
            nodes = np.flatnonzero(labels == c)
            if nodes.size == 1:
                continue
            lap = full[np.ix_(nodes, nodes)]
            got = blocks[wanted_blocks]
            wanted_blocks += 1
            for part in ("data", "indices", "indptr"):
                assert getattr(got, part).tobytes() == getattr(lap, part).tobytes(), (c, part)
            vals, vecs = solve(lap, min(3, nodes.size - 1) + 1)
            want[nodes, : vecs.shape[1] - 1] = _fix_signs(vecs[:, 1:])
        assert len(blocks) == wanted_blocks
        assert emb.vectors.tobytes() == want.tobytes()

    def test_isolated_node_rows_are_zero(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2)])
        emb = train_spectral(g, unit_adjacency(g), dim=2)
        assert np.all(emb.vectors[3] == 0.0)
        assert np.all(emb.vectors[4] == 0.0)

    def test_determinism_across_calls(self):
        g = er_graph(40, 0.15, seed=9)
        a = train_spectral(g, unit_adjacency(g), dim=5)
        b = train_spectral(g, unit_adjacency(g), dim=5)
        assert np.array_equal(a.vectors, b.vectors)
