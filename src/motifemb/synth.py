"""Synthetic benchmark graphs with planted community structure."""
from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["planted_partition"]

# uniforms per rng.random call: the generator's working memory beyond |E|
_DRAW_CHUNK = 1 << 18


def _er_hits(rng: np.random.Generator, pairs: int, p: float) -> np.ndarray:
    """Flat indices k < pairs whose uniform falls below p: the hits of one
    ``rng.random(pairs) < p``, drawn without an array per candidate pair."""
    return np.concatenate([np.flatnonzero(rng.random(min(_DRAW_CHUNK, pairs - s)) < p) + s
                           for s in range(0, pairs, _DRAW_CHUNK)])


def planted_partition(
    seed: int = 0,
    nodes_per_block: int = 300,
    blocks: int = 2,
    triangles_per_block: int = 200,
    er_intra_degree: float = 4.0,
    inter_degree: float = 2.0,
) -> tuple[Graph, np.ndarray]:
    """Blocks wired by planted triangles plus intra/inter Erdos-Renyi edges.

    Each block gets triangles_per_block random triangles (about 4 extra
    degree per node at the defaults) on top of ER edges targeting
    er_intra_degree; blocks are tied together by ER edges targeting
    inter_degree per node. Duplicate edges collapse, so realized degrees sit
    slightly under target. Returns the graph and the block label per node.
    Memory is linear in |E| plus one draw chunk; time grows with the number
    of candidate pairs, one uniform each.
    """
    if blocks < 2 or nodes_per_block < 3:
        raise ValueError("need at least 2 blocks of at least 3 nodes")
    if not (triangles_per_block >= 0 and 0 <= er_intra_degree < np.inf
            and 0 <= inter_degree < np.inf):
        raise ValueError("triangle count and degrees must be finite and >= 0")
    rng = np.random.default_rng(seed)
    m = nodes_per_block
    chunks: list[np.ndarray] = []

    p_intra = min(1.0, er_intra_degree / (m - 1))
    # flat triu(k=1) index of (i, i + 1), where row i of the upper triangle starts
    starts = np.arange(m) * m - np.arange(m) * np.arange(1, m + 1) // 2
    for b in range(blocks):
        tris = np.array([rng.choice(m, size=3, replace=False)
                         for _ in range(triangles_per_block)], dtype=np.int64).reshape(-1, 3)
        k = _er_hits(rng, m * (m - 1) // 2, p_intra)
        i = np.searchsorted(starts, k, side="right") - 1
        er = np.stack([i, k - starts[i] + i + 1], axis=1)
        chunks.append(np.concatenate([tris[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2), er]) + b * m)

    p_inter = min(1.0, inter_degree / ((blocks - 1) * m))
    for a in range(blocks):
        for b in range(a + 1, blocks):
            row, col = np.divmod(_er_hits(rng, m * m, p_inter), m)
            chunks.append(np.stack([row + a * m, col + b * m], axis=1))

    return Graph.from_edges(blocks * m, np.concatenate(chunks)), np.repeat(np.arange(blocks), m)
