"""Reference SGNS update: the gradients of every (center, context) entry
laid out as one (b, k+1, d) tensor and summed per row with a flat-index
``bincount``. ``sgns_step`` must reproduce it byte for byte."""
from __future__ import annotations

import numpy as np

from motifemb.sgns import sigmoid


def scatter_add(matrix: np.ndarray, idx: np.ndarray, grads: np.ndarray) -> None:
    """matrix[idx] += grads with duplicate idx rows summed in batch order."""
    d = matrix.shape[1]
    touched = np.zeros(matrix.shape[0], dtype=bool)
    touched[idx] = True
    rows = np.flatnonzero(touched)
    local = np.cumsum(touched) - 1
    flat = (local[idx] * d)[:, None] + np.arange(d)
    sums = np.bincount(flat.ravel(), weights=grads.ravel(), minlength=rows.size * d)
    matrix[rows] += sums.reshape(rows.size, d)


def sgns_step(
    w_center: np.ndarray,
    w_ctx: np.ndarray,
    center_idx: np.ndarray,
    ctx_idx: np.ndarray,
    lr: float,
) -> None:
    c_vec = w_center[center_idx]
    ctx_vec = w_ctx[ctx_idx]
    g_score = -sigmoid(np.einsum("bd,bkd->bk", c_vec, ctx_vec))
    g_score[:, 0] += 1.0  # positive column label
    scatter_add(w_center, center_idx, lr * np.einsum("bk,bkd->bd", g_score, ctx_vec))
    scatter_add(
        w_ctx,
        ctx_idx.reshape(-1),
        ((lr * g_score)[:, :, None] * c_vec[:, None, :]).reshape(-1, c_vec.shape[1]),
    )
