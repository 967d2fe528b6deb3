"""Frozen input generators owned by the benchmark.

These are copies, not calls into ``motifemb.synth``: a later rewrite of the
package's generator must not silently change what the benchmark measures.
Each generator's output is pinned by a digest for seeds 0-9 (``PINNED``);
``check_digest`` compares against it.

Only numpy is used here, so building an input never exercises the program.
"""
from __future__ import annotations

import hashlib

import numpy as np


def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Sorted unique (u < v) rows without self-loops, as the program stores them."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def edge_digest(node_count: int, canon: np.ndarray) -> str:
    h = hashlib.sha256(str(node_count).encode())
    h.update(np.ascontiguousarray(canon, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


def planted_partition_edges(
    seed: int,
    nodes_per_block: int = 300,
    blocks: int = 2,
    triangles_per_block: int = 200,
    er_intra_degree: float = 4.0,
    inter_degree: float = 2.0,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Planted triangles plus intra/inter-block Erdos-Renyi edges.

    A copy of the recipe and RNG stream of ``motifemb.synth.planted_partition``
    as of the commit that defined this benchmark. Returns (node count,
    canonical edges, block label per node).
    """
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
        chunks.append(tris[:, [0, 1]])
        chunks.append(tris[:, [0, 2]])
        chunks.append(tris[:, [1, 2]])
        keep = rng.random(iu.size) < p_intra
        chunks.append(np.stack([iu[keep] + off, ju[keep] + off], axis=1))
    p_inter = min(1.0, inter_degree / ((blocks - 1) * nodes_per_block))
    rows = np.repeat(np.arange(nodes_per_block), nodes_per_block)
    cols = np.tile(np.arange(nodes_per_block), nodes_per_block)
    for a in range(blocks):
        for b in range(a + 1, blocks):
            keep = rng.random(rows.size) < p_inter
            chunks.append(np.stack([rows[keep] + a * nodes_per_block,
                                    cols[keep] + b * nodes_per_block], axis=1))
    labels = np.repeat(np.arange(blocks), nodes_per_block)
    return n, canonical_edges(np.concatenate(chunks)), labels


# linkpred-ppm: the acceptance instance (generator seed 5, package defaults)
ACCEPTANCE_SEED = 5
# cluster-ppm: four blocks of 2,500 nodes, planted triangles scaled with size
CLUSTER_PPM = dict(nodes_per_block=2500, blocks=4, triangles_per_block=1667)
# cli-skewed: Chung-Lu power-law degrees plus triadic closure
SKEWED = dict(nodes=12000, edges=48000, exponent=2.05, closure_frac=0.3)


def skewed_edges(seed: int, nodes: int, edges: int, exponent: float,
                 closure_frac: float) -> tuple[int, np.ndarray]:
    """Heavy-tailed graph with hubs and extra triangles.

    Endpoints of ``edges`` pairs are drawn with probability proportional to
    i^(-1/(exponent-1)) (Chung-Lu), so a few hubs reach degrees in the
    thousands. Then ``closure_frac * edges`` wedges u-v-w are closed by
    adding (u, w), which plants triangles around high-degree nodes.
    """
    rng = np.random.default_rng(seed)
    w = np.arange(1, nodes + 1, dtype=np.float64) ** (-1.0 / (exponent - 1.0))
    cum = np.cumsum(w / w.sum())
    ends = np.searchsorted(cum, rng.random((edges, 2)), side="right")
    base = canonical_edges(np.minimum(ends, nodes - 1))

    src = np.concatenate([base[:, 0], base[:, 1]])
    dst = np.concatenate([base[:, 1], base[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=nodes), out=indptr[1:])
    picks = rng.integers(0, src.size, size=int(closure_frac * edges))
    u, v = src[picks], dst[picks]
    deg_v = indptr[v + 1] - indptr[v]
    third = dst[indptr[v] + (rng.random(picks.size) * deg_v).astype(np.int64)]
    closed = np.stack([u, third], axis=1)
    return nodes, canonical_edges(np.concatenate([base, closed]))


def write_messy_edge_list(path, canon: np.ndarray, seed: int) -> np.ndarray:
    """Write edges as comma-separated string ids with comments, reversed
    lines and duplicate lines, in shuffled order.

    Node ids are ``n<k>`` with k = ids[node] for a seeded permutation
    ``ids``, which is returned. Every duplicate or reversed line collapses
    onto an edge already listed.
    """
    rng = np.random.default_rng([seed, 1])
    ids = rng.permutation(int(canon.max()) + 1)
    lines = canon[rng.permutation(canon.shape[0])]
    flip = rng.random(lines.shape[0]) < 0.5
    lines = np.where(flip[:, None], lines[:, ::-1], lines)
    dups = lines[rng.integers(0, lines.shape[0], size=lines.shape[0] // 20)][:, ::-1]
    lines = np.concatenate([lines, dups])
    lines = lines[rng.permutation(lines.shape[0])]
    out = ["# skewed benchmark graph", f"# seed={seed} edges={canon.shape[0]}"]
    for i, (a, b) in enumerate(ids[lines].tolist()):
        if i % 5000 == 0:
            out.append(f"# block {i // 5000}")
        out.append(f"n{a},n{b}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
    return ids


def node_count_in_file(canon: np.ndarray) -> int:
    """Nodes the parser will see: only endpoints that appear on some line."""
    return int(np.unique(canon).size)


# Digests of each generator's output for seeds 0-9 (linkpred-ppm: its one
# fixed instance), recorded when the benchmark was defined. cli-skewed pins
# the bytes of the written file, which also covers the line writer.
PINNED = {
    "linkpred-ppm": {
        5: "09ccfbc35625317e",
    },
    "cluster-ppm": {
        0: "22d6acbe0925babe", 1: "3aa888da55ed5d5b", 2: "d3f531f6e68651c1",
        3: "fa7fc92a83717e2c", 4: "771c3924456410b5", 5: "e0a07cb3aaf84c73",
        6: "9560657aa44a7c0b", 7: "36e1244ce1cfa525", 8: "84d78fd4e5a7400a",
        9: "4364a3d961df2446",
    },
    "cli-skewed": {
        0: "a809a415ff03b420", 1: "eb357d273d8c4752", 2: "88b2c206d4a35824",
        3: "8786115ea9411250", 4: "622297ea41de181c", 5: "ddf9a5cd5608276c",
        6: "76d371892e9c3fc1", 7: "aeb7395ad7dbe364", 8: "4c127f7d6df2664f",
        9: "7f74c5f882e245a3",
    },
}


def check_digest(workload: str, seed: int, digest: str) -> bool:
    """True when the seed is not pinned or its pinned digest matches."""
    pinned = PINNED[workload].get(seed)
    return pinned is None or pinned == digest
