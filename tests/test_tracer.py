"""The benchmark's tracer (benchmark/tracer.py) wraps the program's functions
and binds its counting hooks to their arguments by name, so a renamed or
dropped argument breaks ``benchmark/run.py --trace 1``, and a call moved off a
traced name drops its layer from the trace. These tests run the report and
CLI paths the benchmark workloads take under the tracer, one rep of each
workload at seed 0 under the tracer, and the reports under the row timer
every benchmark run installs."""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

from motifemb import TrainConfig, cli, pipeline, planted_partition, write_edge_list

sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmark"))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, RowTimer  # noqa: E402

FAST = TrainConfig(dim=4, walks_per_node=2, walk_length=8, window=2, negatives=2,
                   epochs=1, batch_size=64, line_samples_factor=5)


def test_reports_and_embed_run_under_tracer(tmp_path):
    g, _ = planted_partition(seed=0, nodes_per_block=30, blocks=2, triangles_per_block=15)
    tracer = Tracer("test")
    tracer.install()
    try:
        tracer.begin_rep(0)
        pipeline.run_report(g, "ppm", "linkpred", seeds=(0,), config=FAST, fraction=0.2)
        pipeline.run_report(g, "ppm", "cluster", seeds=(0, 1), config=FAST)
        code = cli.main(["embed", "--synthetic", "ppm", "--algorithm", "node2vec",
                         "--variant", "mo", "--dim", "4", "--walks-per-node", "1",
                         "--walk-length", "5", "--epochs", "1",
                         "--out", str(tmp_path / "emb.txt")])
        layers = tracer.rep_layers()
    finally:
        tracer.uninstall()
    assert code == 0
    for key in ("walks.tokens", "sgns.updates", "line.samples"):
        assert layers[key] > 0, key


def test_cli_motifs_and_embed_on_a_file_run_under_tracer(tmp_path):
    # the cli-skewed workload's path: a parsed edge list, a rewired null
    # model and node2vec's biased walks, whose hooks bind ``path`` and ``g``
    g, _ = planted_partition(seed=0, nodes_per_block=30, blocks=2, triangles_per_block=15)
    edges = tmp_path / "g.edges"
    write_edge_list(g, edges)
    tracer = Tracer("test")
    tracer.install()
    try:
        tracer.begin_rep(0)
        codes = [cli.main(["motifs", "--input", str(edges), "--null-model", "2",
                           "--swaps-per-edge", "1", "--out", str(tmp_path / "motifs.json")]),
                 cli.main(["embed", "--input", str(edges), "--algorithm", "node2vec",
                           "--variant", "mo", "--q", "0.5", "--dim", "4", "--walks-per-node", "1",
                           "--walk-length", "5", "--epochs", "1",
                           "--out", str(tmp_path / "emb.txt")])]
        layers = tracer.rep_layers()
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    for key in ("graph.load_edge_list.lines", "graph.null_model_rewire.edges",
                "walks.tokens", "embedding.bytes_written"):
        assert layers[key] > 0, key


def test_reports_run_under_row_timer():
    # the row timer binds the row functions' ``algorithm`` argument by name;
    # at p = q = 1 node2vec's rows are copies of deepwalk's and time nothing
    g, _ = planted_partition(seed=0, nodes_per_block=30, blocks=2, triangles_per_block=15)
    timer = RowTimer()
    timer.install()
    try:
        for task in ("linkpred", "cluster"):
            pipeline.run_report(g, "ppm", task, algorithms=("deepwalk", "node2vec", "spectral"),
                                seeds=(0, 1), config=FAST, fraction=0.2)
            assert set(timer.take()) == {"row_s.deepwalk", "row_s.spectral"}, task
    finally:
        timer.uninstall()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_rep_reaches_its_layers(name, tmp_path):
    # the benchmark reports a run incorrect when a traced rep has no span
    # from one of the workload's layers, or when a rep's check fails
    wl = WORKLOADS[name](0, tmp_path)
    try:
        wl.setup()
        tracer = Tracer("test")
        tracer.begin_rep(0)
        tracer.install()
        try:
            out = wl.run()
        finally:
            tracer.uninstall()
    finally:
        # report workloads install a row timer when they are made
        if hasattr(wl, "row_timer"):
            wl.row_timer.uninstall()
    assert set(wl.layers) <= tracer.modules_seen()
    assert wl.check(out)["failed"] == 0
