"""Memory grows linearly with |E|: each stage's tracemalloc peak on a planted
partition four times larger grows by at most GROWTH_SLACK x the edge ratio.
Peaks are allocation counts, not wall time, so the checks are deterministic."""
from __future__ import annotations

import tracemalloc

from motifemb import (
    Graph,
    TrainConfig,
    build_transition_model,
    count_triangles,
    generate_walks,
    kmeans_cluster,
    make_split,
    null_model_rewire,
    planted_partition,
    save_embedding_text,
    train_line,
    train_sgns,
    train_spectral,
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
    corpus = run("generate_walks", lambda: generate_walks(g, model, CONFIG))
    run("extract_pairs", lambda: extract_pairs(corpus, CONFIG.window))
    emb = run("train_sgns", lambda: train_sgns(corpus, CONFIG, g.node_count))
    run("train_line", lambda: train_line(g, None, CONFIG))
    spectral = run("train_spectral", lambda: train_spectral(g, None, CONFIG.dim))
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
    small, small_peaks = stage_peaks(250, tmp_path)
    large, large_peaks = stage_peaks(1000, tmp_path)
    edge_ratio = large / small
    assert 3.5 < edge_ratio < 4.5
    ratios = {name: large_peaks[name] / small_peaks[name] for name in small_peaks}
    too_steep = {name: round(r, 2) for name, r in ratios.items()
                 if r > GROWTH_SLACK * edge_ratio}
    assert not too_steep, f"peak ratios above {GROWTH_SLACK} x {edge_ratio:.2f}: {too_steep}"
