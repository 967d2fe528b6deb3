"""Embeddings from the symmetric normalized Laplacian's low eigenvectors."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .embedding import EmbeddingMatrix
from .graph import Graph
from .motifs import WEIGHTS_MISMATCH, WeightedAdjacency, check_same_graph

__all__ = ["check_dim", "normalized_laplacian", "smallest_eigenpairs", "train_spectral"]

RESIDUAL_TOL = 1e-6
DENSE_CUTOFF = 256  # below this size ARPACK buys nothing over LAPACK
# largest component the dense solver takes when ARPACK fails: its eigh holds
# two n x n float64 arrays, 64 MiB at this size and 800 MB at 10k nodes
DENSE_FALLBACK_MAX = 2048


def normalized_laplacian(weights: WeightedAdjacency) -> sp.csr_matrix:
    """I - D^{-1/2} W D^{-1/2}; rows of weighted degree zero stay zero off-diagonal."""
    w = weights.matrix.tocsr().astype(np.float64)
    deg = np.asarray(w.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    d_half = sp.diags(inv_sqrt)
    lap = sp.eye(weights.graph.node_count, format="csr") - d_half @ w @ d_half
    return lap.tocsr()


def smallest_eigenpairs(lap: sp.csr_matrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenvalues (ascending) and unit eigenvectors of a symmetric
    PSD matrix. Uses dense LAPACK when the iterative solver cannot be used
    (n at most DENSE_CUTOFF, or k too close to n). When ARPACK does not
    converge it retries once with twice scipy's default Krylov space and 10x
    its iterations, then falls back to LAPACK up to DENSE_FALLBACK_MAX nodes
    and raises RuntimeError above that. ARPACK's start vector is fixed: it
    changes how the solver converges, not the eigenpairs it converges to, so
    the result is a function of ``lap`` alone."""
    n = lap.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    if n > DENSE_CUTOFF and k < n - 1:
        v0 = np.random.default_rng(0).random(n)
        # scipy's defaults first, then twice its Krylov space and 10x its iterations
        for ncv, maxiter in ((None, None), (min(n, 2 * max(2 * k + 1, 20)), 100 * n)):
            try:
                vals, vecs = eigsh(lap, k=k, which="SA", v0=v0, ncv=ncv, maxiter=maxiter)
            except ArpackNoConvergence:
                continue
            order = np.argsort(vals)
            return vals[order], vecs[:, order]
        if n > DENSE_FALLBACK_MAX:
            raise RuntimeError(f"ARPACK did not converge on a {n}-node component, above "
                               f"the dense fallback's limit of {DENSE_FALLBACK_MAX} nodes")
    vals, vecs = np.linalg.eigh(lap.toarray())
    return vals[:k], vecs[:, :k]


def _fix_signs(vecs: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """First component of magnitude above tol made positive, per column."""
    first = (np.abs(vecs) > tol).argmax(axis=0)  # row 0 where none is above tol
    lead = vecs[first, np.arange(vecs.shape[1])]
    return vecs * np.where(lead < -tol, -1.0, 1.0)  # exact: only signs change


def _check_residuals(lap, vals, vecs) -> None:
    res = lap @ vecs - vecs * vals[None, :]
    worst = float(np.linalg.norm(res, axis=0).max()) if vals.size else 0.0
    if worst > RESIDUAL_TOL:
        raise RuntimeError(f"eigenpair residual {worst:.2e} exceeds {RESIDUAL_TOL}")


def check_dim(dim: int, node_count: int) -> None:
    """Raise ValueError unless ``dim`` is below ``node_count``: a graph's
    Laplacian has only node count - 1 nontrivial eigenvectors."""
    if dim >= node_count:
        raise ValueError(f"dim {dim} must be < node count {node_count}")


def train_spectral(
    g: Graph,
    weights: WeightedAdjacency,
    dim: int,
) -> EmbeddingMatrix:
    """Rows are the first `dim` nontrivial eigenvector coordinates of the
    normalized Laplacian of ``weights`` (``unit_adjacency`` for the plain
    graph, ``build_motif_adjacency`` for the motif-weighted one), computed
    per connected component (each component contributes its own trivial
    zero eigenpair, which is dropped). Components with fewer than dim + 1
    nodes get zero padding in the missing columns. The nodes are sorted by
    component once (stably, so each component's nodes stay ascending) and
    the Laplacian is permuted once, so each component is a diagonal block
    and the time grows with |E| plus the number of components. Reads no
    seed: the result depends on ``weights`` and ``dim`` alone. ``g`` must be
    the graph ``weights`` was built on, or one with its node count and edges
    (``motifs.check_same_graph``), else ValueError."""
    check_same_graph(g, weights.graph, WEIGHTS_MISMATCH)
    check_dim(dim, g.node_count)
    n_comp, comp_labels = connected_components(weights.matrix, directed=False)
    # nodes grouped by component, ascending within each, so every component's
    # Laplacian is one contiguous diagonal block of the permuted matrix
    order = np.argsort(comp_labels, kind="stable")
    bounds = np.zeros(n_comp + 1, dtype=np.int64)
    np.cumsum(np.bincount(comp_labels, minlength=n_comp), out=bounds[1:])
    full_lap = normalized_laplacian(weights)[order][:, order]
    out = np.zeros((g.node_count, dim))
    for c in range(n_comp):
        lo, hi = bounds[c], bounds[c + 1]
        nodes, m = order[lo:hi], hi - lo
        if m == 1:
            continue
        # degrees never cross components, so this is the component's own Laplacian
        lap = full_lap[lo:hi, lo:hi]
        k = min(dim, m - 1) + 1  # + trivial pair
        vals, vecs = smallest_eigenpairs(lap, k)
        _check_residuals(lap, vals, vecs)
        kept = _fix_signs(vecs[:, 1:])
        out[nodes, : kept.shape[1]] = kept
    out.setflags(write=False)
    return EmbeddingMatrix(out, {"trainer": "spectral", "dim": dim})
