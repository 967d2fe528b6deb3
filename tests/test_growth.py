"""Memory grows linearly with |E|: each stage's tracemalloc peak on a graph
four times larger grows by at most GROWTH_SLACK x the edge ratio, on planted
partitions (nearly uniform degrees) and on heavy-tailed Chung-Lu graphs.
Peaks are allocation counts, not wall time, so the checks are deterministic."""
from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np

from motifemb import (
    Graph,
    TrainConfig,
    build_transition_model,
    count_triangles,
    generate_walks,
    kmeans_cluster,
    make_split,
    node2vec_walks,
    null_model_rewire,
    planted_partition,
    save_embedding_text,
    train_line,
    train_sgns,
    train_spectral,
    unit_adjacency,
)
from motifemb.sgns import extract_pairs

# allowed (peak ratio) / (edge ratio) between two rungs, for every stage
GROWTH_SLACK = 1.5
CONFIG = TrainConfig(dim=8, walks_per_node=2, walk_length=10, window=3, negatives=2,
                     epochs=1, line_samples_factor=5)


def traced(fn):
    """(fn(), bytes allocated at the peak of the call beyond what was live before)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def chung_lu(nodes: int, edges: int, exponent: float, seed: int) -> Graph:
    """Heavy-tailed graph (Chung & Lu 2002): ``edges`` pairs whose endpoints
    are drawn with probability proportional to (i + 1)^(-1/(exponent - 1)),
    repeats and self-loops dropped, so node 0 is the largest hub."""
    weight = np.arange(1, nodes + 1, dtype=np.float64) ** (-1.0 / (exponent - 1.0))
    rng = np.random.default_rng(seed)
    return Graph.from_edges(nodes, rng.choice(nodes, size=(edges, 2), p=weight / weight.sum()))


def assert_linear(small: int, small_peaks: dict, large: int, large_peaks: dict) -> None:
    edge_ratio = large / small
    assert 3.5 < edge_ratio < 4.5
    ratios = {name: large_peaks[name] / small_peaks[name] for name in small_peaks}
    too_steep = {name: round(r, 2) for name, r in ratios.items()
                 if r > GROWTH_SLACK * edge_ratio}
    assert not too_steep, f"peak ratios above {GROWTH_SLACK} x {edge_ratio:.2f}: {too_steep}"


def rung(nodes_per_block: int) -> dict:
    """Generator keywords of a two-block rung, triangles scaled with the block."""
    return dict(seed=0, nodes_per_block=nodes_per_block,
                triangles_per_block=2 * nodes_per_block // 3)


def stage_peaks(nodes_per_block: int, tmp_path) -> tuple[int, dict[str, int]]:
    """(|E|, {stage: peak bytes}) of every stage on one rung."""
    g, _ = planted_partition(**rung(nodes_per_block))
    peaks = {}

    def run(name, fn):
        out, peaks[name] = traced(fn)
        return out

    run("Graph.from_edges", lambda: Graph.from_edges(g.node_count, g.edges))
    stats = run("count_triangles", lambda: count_triangles(g))
    model = run("build_transition_model", lambda: build_transition_model(g, stats))
    corpus = run("generate_walks", lambda: generate_walks(model, CONFIG))
    # second-order steps weigh blocks of candidates, capped in size
    run("node2vec_walks", lambda: node2vec_walks(model, replace(CONFIG, q=0.5)))
    run("extract_pairs", lambda: extract_pairs(corpus, CONFIG.window))
    emb = run("train_sgns", lambda: train_sgns(corpus, CONFIG))
    run("train_line", lambda: train_line(g, unit_adjacency(g), CONFIG))
    spectral = run("train_spectral", lambda: train_spectral(g, unit_adjacency(g), CONFIG.dim))
    run("make_split", lambda: make_split(g, 0.1, 0))
    run("kmeans_cluster", lambda: kmeans_cluster(spectral.vectors, 2, 0))
    run("null_model_rewire", lambda: null_model_rewire(g, 1, 0))
    path = tmp_path / f"emb{nodes_per_block}.txt"
    run("save_embedding_text", lambda: save_embedding_text(emb, path))
    return g.edge_count, peaks


def test_generator_memory_is_linear_in_edges():
    """The generator's peak grows with |E|, not with the candidate pairs it draws."""
    (small, _), small_peak = traced(lambda: planted_partition(**rung(1000)))
    (large, _), large_peak = traced(lambda: planted_partition(**rung(4000)))
    assert large_peak / small_peak <= GROWTH_SLACK * large.edge_count / small.edge_count


def test_stage_memory_is_linear_in_edges(tmp_path):
    # silhouette_score is left out: it is O(n^2) by definition, and below
    # about 2,048 points its distance block holds the whole matrix.
    assert_linear(*stage_peaks(250, tmp_path), *stage_peaks(1000, tmp_path))


def skewed_peaks(nodes: int, edges: int) -> tuple[int, dict[str, int]]:
    """(|E|, {stage: peak bytes}) of the stages whose work follows the
    degrees, on one heavy-tailed rung."""
    g = chung_lu(nodes, edges, exponent=2.05, seed=0)
    peaks = {}

    def run(name, fn):
        out, peaks[name] = traced(fn)
        return out

    stats = run("count_triangles", lambda: count_triangles(g))
    run("null_model_rewire", lambda: null_model_rewire(g, 1, 0))
    model = run("build_transition_model", lambda: build_transition_model(g, stats))
    run("generate_walks", lambda: generate_walks(model, CONFIG))
    run("node2vec_walks", lambda: node2vec_walks(model, replace(CONFIG, q=0.5)))
    run("make_split", lambda: make_split(g, 0.1, 0))
    return g.edge_count, peaks


def test_heavy_tailed_stage_memory_is_linear_in_edges():
    # hubs of about 900 and 2,800 neighbours on 9.2k and 36.8k edges
    assert_linear(*skewed_peaks(3000, 12000), *skewed_peaks(12000, 48000))


def test_sgns_bytes_per_window_pair():
    """Node ids are int32 wherever SGNS keeps one per token or pair:
    extract_pairs peaks at its two id arrays plus one gathered id block
    and its mask (13 B a pair), train_sgns adds an int32 epoch permutation
    (19 B); with int64 ids they were 25 and 31 B."""
    g, _ = planted_partition(**rung(1000))
    corpus = generate_walks(build_transition_model(g, count_triangles(g)), CONFIG)
    (centers, _), pairs_peak = traced(lambda: extract_pairs(corpus, CONFIG.window))
    _, sgns_peak = traced(lambda: train_sgns(corpus, CONFIG))
    assert pairs_peak / centers.size <= 16
    assert sgns_peak / centers.size <= 24
