"""Reference planted-partition generator: one full-size index array per
kind of candidate pair and one triangle at a time. The chunked generator
must reproduce its graphs byte for byte, generator stream included."""
from __future__ import annotations

import numpy as np

from motifemb import Graph


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
    """
    if blocks < 2 or nodes_per_block < 3:
        raise ValueError("need at least 2 blocks of at least 3 nodes")
    rng = np.random.default_rng(seed)
    n = blocks * nodes_per_block
    chunks: list[np.ndarray] = []

    iu, ju = np.triu_indices(nodes_per_block, k=1)
    p_intra = min(1.0, er_intra_degree / (nodes_per_block - 1))
    for b in range(blocks):
        off = b * nodes_per_block
        tris = np.empty((triangles_per_block, 3), dtype=np.int64)
        for t in range(triangles_per_block):
            tris[t] = rng.choice(nodes_per_block, size=3, replace=False)
        tris += off
        chunks.append(np.stack([tris[:, 0], tris[:, 1]], axis=1))
        chunks.append(np.stack([tris[:, 0], tris[:, 2]], axis=1))
        chunks.append(np.stack([tris[:, 1], tris[:, 2]], axis=1))
        keep = rng.random(iu.size) < p_intra
        chunks.append(np.stack([iu[keep] + off, ju[keep] + off], axis=1))

    p_inter = min(1.0, inter_degree / ((blocks - 1) * nodes_per_block))
    rows = np.repeat(np.arange(nodes_per_block), nodes_per_block)
    cols = np.tile(np.arange(nodes_per_block), nodes_per_block)
    for a in range(blocks):
        for b in range(a + 1, blocks):
            keep = rng.random(rows.size) < p_inter
            chunks.append(
                np.stack(
                    [rows[keep] + a * nodes_per_block, cols[keep] + b * nodes_per_block],
                    axis=1,
                )
            )

    edges = np.concatenate(chunks, axis=0)
    labels = np.repeat(np.arange(blocks), nodes_per_block)
    return Graph.from_edges(n, edges), labels
