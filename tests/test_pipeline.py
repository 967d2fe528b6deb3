"""Training config validation, embed dispatch, per-row evaluation plumbing,
and report assembly/serialization."""
from __future__ import annotations

import csv
import dataclasses
import io
import json
from typing import get_args

import numpy as np
import pytest

from motifemb import (
    TrainConfig,
    count_triangles,
    embed_graph,
    make_split,
    planted_partition,
    run_report,
    silhouette_score,
    train_sgns,
    uniform_transitions,
    unit_adjacency,
    write_report_csv,
    write_report_json,
)
from motifemb import Graph, pipeline
from motifemb.motifs import MotifMode
from motifemb.pipeline import (
    ALGORITHMS,
    LINKPRED_METRICS,
    REPORT_COLUMNS,
    VARIANTS,
    cluster_row,
    csv_text,
    gap_table,
    linkpred_row,
    summarize_rows,
)

from conftest import er_graph

# batch_size must stay below the pair count: context vectors start at zero,
# so centers only begin moving on the second minibatch
FAST = TrainConfig(
    dim=4, walks_per_node=3, walk_length=10, window=2, negatives=2, epochs=2,
    batch_size=64, line_samples_factor=20,
)


@pytest.fixture(scope="module")
def small_graph():
    return er_graph(18, 0.3, seed=1)


def embed_then_score(g, task, algorithms, variants, seeds, config, fraction):
    """run_report's rows, sorted, without summaries: every row embeds its
    own graph with its own seed, and embed_graph counts the triangles."""
    rows = []
    for seed in seeds:
        split = make_split(g, fraction, seed) if task == "linkpred" else None
        graph = g if split is None else split.train_graph
        for algorithm in algorithms:
            for variant in variants:
                emb = embed_graph(graph, algorithm, variant, config.with_seed(seed))
                if split is None:
                    rows.extend(cluster_row(emb, "toy", algorithm, variant, [seed]))
                else:
                    rows.append(linkpred_row(split, "toy", algorithm, variant, emb))
    return sorted(rows, key=lambda r: (r["algorithm"], r["variant"], r["seed"]))


class TestTrainConfig:
    def test_defaults_match_standard_settings(self):
        cfg = TrainConfig()
        assert (cfg.dim, cfg.walks_per_node, cfg.walk_length) == (64, 10, 40)
        assert (cfg.window, cfg.negatives, cfg.epochs) == (5, 5, 5)
        assert cfg.learning_rate == 0.025
        assert cfg.p == 1.0 and cfg.q == 1.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("dim", 0), ("dim", -3), ("walks_per_node", 0), ("walk_length", 0),
            ("window", 0), ("negatives", 0), ("epochs", 0),
            ("learning_rate", 0.0), ("learning_rate", -1.0),
            ("p", 0.0), ("q", -2.0), ("batch_size", 0),
            ("learning_rate", float("nan")), ("learning_rate", float("inf")),
            ("p", float("nan")), ("q", float("nan")), ("p", float("inf")),
            ("q", 1e-310),
            ("line_order", "third"), ("line_samples_factor", 0), ("seed", -1),
            ("dim", 2.5), ("seed", 1.5), ("epochs", 2.0),
            ("learning_rate", "0.1"), ("p", "1"),
            ("dim", True), ("epochs", True), ("p", True), ("seed", False),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            TrainConfig(**{field: value})

    def test_integer_fields_take_numpy_integers(self):
        cfg = TrainConfig(dim=np.int64(8), seed=np.uint8(3))
        assert (cfg.dim, cfg.seed) == (8, 3)
        with pytest.raises(ValueError, match=r"^dim must be an integer, got 2\.5$"):
            TrainConfig(dim=2.5)

    def test_float_fields_take_integers(self):
        cfg = TrainConfig(p=1, q=np.int64(2), learning_rate=np.float32(0.5))
        assert (cfg.p, cfg.q, cfg.learning_rate) == (1, 2, 0.5)

    def test_with_seed_copies(self):
        cfg = TrainConfig(dim=8)
        other = cfg.with_seed(41)
        assert other.seed == 41 and cfg.seed == 0
        assert other.dim == 8

    def test_to_dict_is_complete(self):
        # the dict form written into provenance is dataclasses.asdict
        d = dataclasses.asdict(TrainConfig())
        for key in ("dim", "walks_per_node", "walk_length", "window",
                    "negatives", "epochs", "learning_rate", "p", "q",
                    "line_order", "batch_size", "line_samples_factor", "seed"):
            assert key in d


class TestEmbedGraph:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_dispatch_matrix(self, small_graph, algorithm, variant):
        emb = embed_graph(small_graph, algorithm, variant, FAST, "strict")
        assert emb.vectors.shape == (18, 4)
        assert np.all(np.isfinite(emb.vectors))
        assert emb.provenance["algorithm"] == algorithm
        assert emb.provenance["variant"] == variant
        expected_mode = "strict" if variant == "mo" else "none"
        assert emb.provenance["motif_mode"] == expected_mode

    def test_unknown_names_rejected(self, small_graph):
        with pytest.raises(ValueError, match="algorithm"):
            embed_graph(small_graph, "grarep", "base", FAST)
        with pytest.raises(ValueError, match="variant"):
            embed_graph(small_graph, "deepwalk", "extra", FAST)
        with pytest.raises(ValueError, match="mode"):
            embed_graph(small_graph, "deepwalk", "mo", FAST, mode="loose")

    def test_variant_changes_output(self, two_triangles_bridged):
        # heterogeneous triangle counts (bridge sits in none), so the mo
        # transition rows genuinely differ from uniform
        g = two_triangles_bridged
        base = embed_graph(g, "deepwalk", "base", FAST.with_seed(3))
        mo = embed_graph(g, "deepwalk", "mo", FAST.with_seed(3), "smoothed")
        assert not np.allclose(base.vectors, mo.vectors)

    def test_equal_counts_degenerate_to_base(self, k4):
        # every K4 edge sits in the same number of triangles, so the mo
        # walk distribution collapses to the baseline bitwise
        base = embed_graph(k4, "deepwalk", "base", FAST.with_seed(3))
        mo = embed_graph(k4, "deepwalk", "mo", FAST.with_seed(3), "strict")
        assert np.array_equal(base.vectors, mo.vectors)

    def test_determinism_per_seed(self, small_graph):
        for algorithm in ALGORITHMS:
            a = embed_graph(small_graph, algorithm, "mo", FAST.with_seed(2), "strict")
            b = embed_graph(small_graph, algorithm, "mo", FAST.with_seed(2), "strict")
            assert np.array_equal(a.vectors, b.vectors), algorithm

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_spectral_ignores_seed(self, variant):
        # two components above the dense cutoff, so ARPACK solves both
        n = 300
        edges = np.concatenate([er_graph(n, 0.03, seed=s).edges + s * n for s in (0, 1)])
        g = Graph.from_edges(2 * n, edges)
        embs = [embed_graph(g, "spectral", variant, FAST.with_seed(s)) for s in (0, 1, 7)]
        for emb in embs[1:]:
            assert np.array_equal(emb.vectors, embs[0].vectors)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("mode", get_args(MotifMode))
    def test_node2vec_at_unit_pq_is_deepwalk(self, small_graph, variant, mode):
        # run_report trains node2vec at p = q = 1 under deepwalk's key
        deepwalk = embed_graph(small_graph, "deepwalk", variant, FAST.with_seed(4), mode)
        node2vec = embed_graph(small_graph, "node2vec", variant, FAST.with_seed(4), mode)
        assert deepwalk.vectors.tobytes() == node2vec.vectors.tobytes()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_trainer_gets_a_model(self, small_graph, monkeypatch, algorithm, variant):
        # embed_graph builds both variants' models; base trains on the
        # unweighted graph's uniform rows or unit weights, byte for byte.
        # The walkers take the model first, LINE and spectral second.
        g, cfg = small_graph, dataclasses.replace(FAST, q=0.5, seed=1)
        name, unit, at = {"deepwalk": ("generate_walks", uniform_transitions, 0),
                          "node2vec": ("node2vec_walks", uniform_transitions, 0),
                          "line": ("train_line", unit_adjacency, 1),
                          "spectral": ("train_spectral", unit_adjacency, 1)}[algorithm]
        train, models = getattr(pipeline, name), []

        def record(*args):
            models.append(args[at])
            return train(*args)

        monkeypatch.setattr(pipeline, name, record)
        emb = embed_graph(g, algorithm, variant, cfg, "strict")
        assert len(models) == 1 and isinstance(models[0], type(unit(g)))
        if variant == "base":
            if algorithm in ("deepwalk", "node2vec"):
                want = train_sgns(train(unit(g), cfg), cfg)
            else:
                want = train(g, unit(g), cfg.dim if algorithm == "spectral" else cfg)
            assert emb.vectors.tobytes() == want.vectors.tobytes()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_stats_of_another_graph_rejected(self, small_graph, algorithm):
        other = er_graph(18, 0.3, seed=2)
        with pytest.raises(ValueError, match="different graph"):
            embed_graph(small_graph, algorithm, "mo", FAST, stats=count_triangles(other))


class TestRows:
    def test_linkpred_row_shape(self, small_graph):
        split = make_split(small_graph, fraction=0.2, seed=0)
        emb = embed_graph(split.train_graph, "spectral", "base", FAST)
        row = linkpred_row(split, "toy", "spectral", "base", emb)
        assert set(row) == set(REPORT_COLUMNS)
        assert row["dataset"] == "toy" and row["seed"] == 0
        for metric in LINKPRED_METRICS:
            assert 0.0 <= row[metric] <= 1.0
        assert row["sc"] == ""

    def test_cluster_row_shape(self, small_graph):
        emb = embed_graph(small_graph, "spectral", "base", FAST)
        [row] = cluster_row(emb, "toy", "spectral", "base", seeds=[0])
        assert -1.0 <= row["sc"] <= 1.0
        for metric in LINKPRED_METRICS:
            assert row[metric] == ""

    def test_cluster_row_respects_k(self):
        g, _ = planted_partition(
            seed=0, nodes_per_block=20, blocks=3, triangles_per_block=15,
            er_intra_degree=3.0, inter_degree=1.0,
        )
        [row] = cluster_row(embed_graph(g, "spectral", "base", FAST), "ppm", "spectral", "base",
                            seeds=[0], clusters=3)
        assert row["sc"] != ""


class TestRunReport:
    def test_row_count_and_order(self, small_graph):
        rows = run_report(
            small_graph, "toy", "cluster",
            algorithms=("spectral",), variants=VARIANTS, seeds=(0, 1, 2),
            config=FAST,
        )
        # 1 algorithm x 2 variants x 3 seeds + 2 summary rows
        assert len(rows) == 8
        plain = [r for r in rows if r["seed"] != "summary"]
        keys = [(r["dataset"], r["algorithm"], r["variant"], r["seed"]) for r in plain]
        assert keys == sorted(keys)
        summaries = [r for r in rows if r["seed"] == "summary"]
        assert len(summaries) == 2
        for s in summaries:
            assert "±" in s["sc"]

    def test_single_seed_has_no_summary(self, small_graph):
        rows = run_report(
            small_graph, "toy", "cluster",
            algorithms=("spectral",), variants=("base",), seeds=(0,), config=FAST,
        )
        assert len(rows) == 1
        assert rows[0]["seed"] == 0

    def test_one_split_per_seed(self, small_graph, monkeypatch):
        seeds_split = []

        def recording_split(g, fraction, seed):
            seeds_split.append(seed)
            return make_split(g, fraction, seed)

        monkeypatch.setattr(pipeline, "make_split", recording_split)
        rows = run_report(
            small_graph, "toy", "linkpred", algorithms=("spectral", "line"),
            variants=VARIANTS, seeds=(0, 1), config=FAST, fraction=0.2,
        )
        assert seeds_split == [0, 1]
        assert len(rows) == 2 * 2 * 2 + 4

    @pytest.mark.parametrize("task, variants, calls", [
        ("cluster", VARIANTS, 1),
        ("linkpred", VARIANTS, 2),
        ("cluster", ("base",), 0),
        ("linkpred", ("base",), 0),
    ])
    def test_one_triangle_count_per_graph(self, small_graph, monkeypatch, task,
                                          variants, calls):
        kw = dict(algorithms=("deepwalk", "spectral"), variants=variants, seeds=(0, 1),
                  config=FAST, fraction=0.2)
        expected = embed_then_score(small_graph, task, **kw)
        counted = []

        def recording_count(g):
            counted.append(g)
            return count_triangles(g)

        monkeypatch.setattr(pipeline, "count_triangles", recording_count)
        rows = run_report(small_graph, "toy", task, **kw)
        assert len(counted) == calls
        assert rows[:len(expected)] == expected

    @pytest.mark.parametrize("task", ["linkpred", "cluster"])
    @pytest.mark.parametrize("q, walk_laws", [(1.0, 1), (0.5, 2)])
    def test_one_training_per_distinct_embedding(self, small_graph, monkeypatch, task, q,
                                                 walk_laws):
        # node2vec at p = q = 1 shares deepwalk's embedding; spectral reads no
        # seed, so a cluster report shares one embedding per variant
        seeds = (0, 1, 2)
        kw = dict(algorithms=("deepwalk", "node2vec", "spectral"), variants=VARIANTS,
                  seeds=seeds, config=dataclasses.replace(FAST, q=q), fraction=0.2)
        expected = embed_then_score(small_graph, task, **kw)
        trained = []

        def recording(name, train):
            def record(*args):
                trained.append(name)
                return train(*args)
            monkeypatch.setattr(pipeline, name, record)

        recording("train_sgns", pipeline.train_sgns)
        recording("train_spectral", pipeline.train_spectral)
        rows = run_report(small_graph, "toy", task, **kw)
        assert trained.count("train_sgns") == walk_laws * len(VARIANTS) * len(seeds)
        spectral_graphs = 1 if task == "cluster" else len(seeds)
        assert trained.count("train_spectral") == len(VARIANTS) * spectral_graphs
        assert rows[:len(expected)] == expected

    def test_one_silhouette_sweep_per_embedding(self, small_graph, monkeypatch):
        seeds = (0, 1, 2)
        kw = dict(algorithms=("spectral",), variants=VARIANTS, seeds=seeds, config=FAST,
                  fraction=0.2)
        expected = embed_then_score(small_graph, "cluster", **kw)
        stacks = []

        def recording(x, labels):
            stacks.append(np.shape(labels))
            return silhouette_score(x, labels)

        monkeypatch.setattr(pipeline, "silhouette_score", recording)
        rows = run_report(small_graph, "toy", "cluster", **kw)
        assert stacks == [(len(seeds), small_graph.node_count)] * len(VARIANTS)
        assert rows[:len(expected)] == expected

    @pytest.mark.parametrize("q, walk_laws", [(1.0, 1), (0.5, 2)])
    def test_one_score_per_walk_law(self, small_graph, monkeypatch, q, walk_laws):
        # node2vec at p = q = 1 walks deepwalk's law: one embedding per seed,
        # scored once, its rows copied under both names
        seeds = (0, 1, 2)
        kw = dict(algorithms=("deepwalk", "node2vec"), variants=("mo",), seeds=seeds,
                  config=dataclasses.replace(FAST, q=q), fraction=0.2)
        calls = []

        def recording(name, fn):
            def record(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(pipeline, name, record)

        for name in ("kmeans_cluster", "silhouette_score", "linkpred_row"):
            recording(name, getattr(pipeline, name))
        for task in ("cluster", "linkpred"):
            expected = embed_then_score(small_graph, task, **kw)
            calls.clear()
            rows = run_report(small_graph, "toy", task, **kw)
            assert rows[:len(expected)] == expected
            if task == "cluster":
                assert calls.count("kmeans_cluster") == walk_laws * len(seeds)
                assert calls.count("silhouette_score") == walk_laws * len(seeds)
            else:
                assert calls.count("linkpred_row") == walk_laws * len(seeds)
            if walk_laws == 1:
                deepwalk, node2vec = ([dict(r, algorithm="") for r in rows if r["algorithm"] == a]
                                      for a in ("deepwalk", "node2vec"))
                assert node2vec == deepwalk

    def test_more_clusters_than_nodes_rejected_before_embedding(self, small_graph,
                                                                monkeypatch):
        def embed_graph(*args):
            raise AssertionError("embedded before the cluster count was checked")

        monkeypatch.setattr(pipeline, "embed_graph", embed_graph)
        with pytest.raises(ValueError, match="<= the node count, got 19"):
            run_report(small_graph, "toy", "cluster", algorithms=("spectral",), config=FAST,
                       clusters=small_graph.node_count + 1)

    def test_fewer_than_two_clusters_rejected_before_embedding(self, small_graph,
                                                               monkeypatch):
        embedded = []
        monkeypatch.setattr(pipeline, "embed_graph", lambda *a: embedded.append(a))
        with pytest.raises(ValueError, match="clusters must be >= 2"):
            run_report(small_graph, "toy", "cluster", algorithms=("spectral",), config=FAST,
                       clusters=1)
        assert not embedded

    @pytest.mark.parametrize("task", ["linkpred", "cluster"])
    @pytest.mark.parametrize("lists, message", [
        (dict(seeds=()), "seeds lists no seed"),
        (dict(seeds=(1, 0, 1)), "seeds repeat: 1"),
        (dict(seeds=(0, -1)), "seed must be >= 0, got -1"),
        (dict(seeds=(1.5,)), r"seed must be an integer, got 1\.5"),
        (dict(seeds=(0.5, 0.7)), r"seed must be an integer, got 0\.5"),
        (dict(algorithms=()), "algorithms lists no algorithm"),
        (dict(algorithms=("spectral", "grarep")), r"unknown algorithm\(s\): grarep"),
        (dict(algorithms=("line", "spectral", "line")), "algorithms repeat: line"),
        (dict(variants=()), "variants lists no variant"),
        (dict(variants=("mo", "extra")), r"unknown variant\(s\): extra"),
        (dict(variants=("mo", "mo")), "variants repeat: mo"),
        (dict(mode="bogus"), "unknown mode: 'bogus'"),
        (dict(threshold=float("nan")), "threshold must be a finite number or the median, got nan"),
        (dict(algorithms=("spectral", "line"), config=dataclasses.replace(FAST, dim=5)),
         "concat order needs an even dimension, got dim 5"),
        (dict(config=dataclasses.replace(FAST, dim=18)), "dim 18 must be < node count 18"),
    ], ids=["seeds-empty", "seeds-repeat", "seeds-negative", "seed-fractional",
            "seeds-fractional", "algorithms-empty",
            "algorithms-unknown", "algorithms-repeat", "variants-empty", "variants-unknown",
            "variants-repeat", "mode-unknown", "threshold-nan", "line-concat-odd-dim",
            "spectral-dim-at-node-count"])
    def test_bad_list_rejected_before_any_split_or_count(self, small_graph, monkeypatch,
                                                         task, lists, message):
        def refuse(*args, **kwargs):
            raise AssertionError("split or counted before the lists were checked")

        monkeypatch.setattr(pipeline, "make_split", refuse)
        monkeypatch.setattr(pipeline, "count_triangles", refuse)
        kw = dict(algorithms=("spectral",), variants=("base", "mo"), seeds=(0,), config=FAST)
        with pytest.raises(ValueError, match=f"^{message}"):
            run_report(small_graph, "toy", task, **{**kw, **lists})

    def test_unknown_task_rejected(self, small_graph):
        with pytest.raises(ValueError):
            run_report(small_graph, "toy", "classify", config=FAST)

    def test_deterministic(self, small_graph):
        kw = dict(
            algorithms=("spectral", "line"), variants=("base",), seeds=(0, 1),
            config=FAST, fraction=0.2,
        )
        a = run_report(small_graph, "toy", "linkpred", **kw)
        b = run_report(small_graph, "toy", "linkpred", **kw)
        assert a == b


class TestSummaries:
    def test_exact_mean_and_population_std(self):
        rows = []
        for seed, auc in [(0, 0.5), (1, 0.7)]:
            row = {c: "" for c in REPORT_COLUMNS}
            row.update(dataset="d", algorithm="a", variant="v", seed=seed, auc=auc)
            rows.append(row)
        (summary,) = summarize_rows(rows)
        assert summary["seed"] == "summary"
        assert summary["auc"] == "0.600000±0.100000"
        assert summary["sc"] == ""

    def test_gap_table_skips_summaries(self):
        rows = []
        for variant, aucs in (("base", [0.5, 0.7]), ("mo", [0.8, 0.8])):
            for seed, auc in enumerate(aucs):
                row = {c: "" for c in REPORT_COLUMNS}
                row.update(dataset="d", algorithm="line", variant=variant, seed=seed, auc=auc)
                rows.append(row)
        header, line = gap_table(rows + summarize_rows(rows), "auc").splitlines()
        assert header.split() == ["algorithm", "base", "mo", "gap"]
        assert line.split() == ["line", "0.6000±0.1000", "0.8000±0.0000", "+0.2000"]

    def test_existing_summaries_ignored(self):
        row = {c: "" for c in REPORT_COLUMNS}
        row.update(dataset="d", algorithm="a", variant="v", seed="summary", auc="x")
        assert summarize_rows([row]) == []


class TestReportSerialization:
    def rows(self):
        row = {c: "" for c in REPORT_COLUMNS}
        row.update(
            dataset="d", algorithm="a", variant="v", seed=3,
            auc=0.5, accuracy=0.25, precision=1 / 3, recall=0.75,
            specificity=0.1, f1=0.45,
        )
        return [row]

    def test_csv_header_and_float_fidelity(self):
        text = write_report_csv(self.rows())
        reader = list(csv.reader(io.StringIO(text)))
        assert reader[0] == list(REPORT_COLUMNS)
        parsed = dict(zip(reader[0], reader[1]))
        assert float(parsed["precision"]) == 1 / 3  # repr keeps full precision
        assert parsed["sc"] == ""

    def test_csv_writes_a_numpy_float_as_its_number(self):
        assert csv_text(("x", "y"), [[np.float64(0.5), 1 / 3]]) == f"x,y\n0.5,{1 / 3!r}\n"

    def test_json_embeds_config(self):
        payload = json.loads(write_report_json(self.rows(), {"fraction": 0.1}))
        assert payload["config"] == {"fraction": 0.1}
        assert payload["rows"][0]["auc"] == 0.5
