"""End-to-end runs: embed a graph, evaluate, and emit tabular reports.

Report rows share one fixed column schema so downstream plotting never has
to branch: dataset, algorithm, variant, seed, auc, accuracy, precision,
recall, specificity, f1, sc. Cells that do not apply stay empty. Multi-seed
runs get one summary row per (dataset, algorithm, variant) group whose
numeric cells hold "mean±std" (population std) strings and whose seed cell
says "summary".
"""
from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import asdict
from itertools import product

import numpy as np

from .config import TrainConfig
from .embedding import EmbeddingMatrix
from .evaluation import (
    LinkPredSplit,
    compute_metrics,
    cosine_scores,
    kmeans_cluster,
    make_split,
    silhouette_score,
)
from .graph import Graph
from .line import check_concat_dim, train_line
from .motifs import (
    MotifStats,
    build_motif_adjacency,
    build_transition_model,
    check_mode,
    count_triangles,
    uniform_transitions,
    unit_adjacency,
)
from .sgns import train_sgns
from .spectral import check_dim, train_spectral
from .walks import generate_walks, node2vec_walks

__all__ = [
    "ALGORITHMS",
    "VARIANTS",
    "REPORT_COLUMNS",
    "embed_graph",
    "linkpred_row",
    "cluster_row",
    "run_report",
    "check_clusters",
    "check_threshold",
    "check_list",
    "summarize_rows",
    "gap_table",
    "write_report_csv",
    "write_report_json",
]

ALGORITHMS = ("deepwalk", "node2vec", "line", "spectral")
VARIANTS = ("base", "mo")
# back-ends whose embedding depends on the graph alone: spectral reads no
# seed, so a cluster report embeds its graph once per variant for them
SEED_FREE = ("spectral",)

REPORT_COLUMNS = (
    "dataset",
    "algorithm",
    "variant",
    "seed",
    "auc",
    "accuracy",
    "precision",
    "recall",
    "specificity",
    "f1",
    "sc",
)
LINKPRED_METRICS = ("auc", "accuracy", "precision", "recall", "specificity", "f1")


def embed_graph(
    g: Graph,
    algorithm: str,
    variant: str = "base",
    config: TrainConfig = TrainConfig(),
    mode: str = "strict",
    stats: MotifStats | None = None,
) -> EmbeddingMatrix:
    """Dispatch to one of the four back-ends, motif-enhanced or not.

    Builds the model each variant trains on. "mo" biases it by triangle
    participation: ``build_transition_model`` for deepwalk/node2vec,
    ``build_motif_adjacency`` for line/spectral. "base" takes the unweighted
    graph's ``uniform_transitions`` or ``unit_adjacency``. ``stats`` are the
    triangle counts of ``g``, read only by "mo"; None counts them here, and
    counts from another graph raise ValueError. A setting ``_check_setting``
    rejects raises ValueError before anything is counted or trained.
    """
    _check_setting(g, algorithm, variant, config, mode)
    enhanced = variant == "mo"
    if enhanced and stats is None:
        stats = count_triangles(g)

    if algorithm in ("deepwalk", "node2vec"):
        transitions = (build_transition_model(g, stats, mode) if enhanced
                       else uniform_transitions(g))
        if algorithm == "deepwalk":
            corpus = generate_walks(transitions, config)
        else:
            corpus = node2vec_walks(transitions, config)
        emb = train_sgns(corpus, config)
    else:
        weights = build_motif_adjacency(g, stats) if enhanced else unit_adjacency(g)
        if algorithm == "line":
            emb = train_line(g, weights, config)
        else:
            emb = train_spectral(g, weights, config.dim)

    provenance = {
        "algorithm": algorithm,
        "variant": variant,
        "motif_mode": mode if variant == "mo" else "none",
        **asdict(config),
    }
    return EmbeddingMatrix(emb.vectors, provenance)


def _check_setting(g: Graph, algorithm: str, variant: str, config: TrainConfig,
                   mode: str) -> None:
    """Raise ValueError for a setting ``embed_graph`` cannot train on ``g``:
    an unknown algorithm or variant, or what the checks of the stages it
    would run reject: ``motifs.check_mode``, LINE's ``line.check_concat_dim``
    and spectral's ``spectral.check_dim``."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    check_mode(mode)
    if algorithm == "line":
        check_concat_dim(config)
    if algorithm == "spectral":
        check_dim(config.dim, g.node_count)


def _blank_row(dataset: str, algorithm: str, variant: str, seed) -> dict:
    row = {col: "" for col in REPORT_COLUMNS}
    row.update(dataset=dataset, algorithm=algorithm, variant=variant, seed=seed)
    return row


def linkpred_row(
    split: LinkPredSplit,
    dataset: str,
    algorithm: str,
    variant: str,
    emb: EmbeddingMatrix,
    threshold: float | None = None,
) -> dict:
    """Score ``emb``, an embedding of the split's TRAIN graph, on the
    split's held-out edges against its sampled non-edges."""
    pos, z_pos = cosine_scores(emb, split.test_edges)
    neg, z_neg = cosine_scores(emb, split.test_non_edges)
    report = compute_metrics(pos, neg, threshold, z_pos + z_neg)
    row = _blank_row(dataset, algorithm, variant, split.seed)
    row.update({k: getattr(report, k) for k in LINKPRED_METRICS})
    return row


def cluster_row(
    emb: EmbeddingMatrix,
    dataset: str,
    algorithm: str,
    variant: str,
    seeds,
    clusters: int = 2,
) -> list[dict]:
    """One row per seed: cluster ``emb`` with each seed, then score all
    the labelings in one silhouette sweep over ``emb``'s distances."""
    seeds = list(seeds)
    labels = np.stack([kmeans_cluster(emb.vectors, clusters, seed) for seed in seeds])
    rows = []
    for seed, report in zip(seeds, silhouette_score(emb.vectors, labels)):
        row = _blank_row(dataset, algorithm, variant, seed)
        row["sc"] = report.score
        rows.append(row)
    return rows


def run_report(
    g: Graph,
    dataset: str,
    task: str,
    algorithms=ALGORITHMS,
    variants=VARIANTS,
    seeds=(0,),
    config: TrainConfig = TrainConfig(),
    fraction: float = 0.1,
    mode: str = "strict",
    threshold: float | None = None,
    clusters: int = 2,
) -> list[dict]:
    """All (algorithm, variant, seed) rows for one task, sorted, plus one
    summary row per (algorithm, variant) when there are multiple seeds.

    Each distinct embedding is trained once, scored once under the first
    algorithm of its walk law, and held only while it is scored. It
    depends on its graph, walk law, variant and seed. A walk law is the
    walk an algorithm runs: node2vec at p = q = 1 walks deepwalk's, and
    its rows copy deepwalk's but for ``algorithm``. A SEED_FREE law embeds
    once per variant for all of a graph's seeds. A cluster report embeds
    its one graph, so each embedding's seeds share one cluster_row call; a
    linkpred report splits once per seed, embeds that seed's train graph
    and scores it with one linkpred_row call against the split. Triangles
    are counted once per graph embedded, never without "mo".
    ``threshold`` is read by linkpred rows, ``clusters`` by cluster rows.
    Before any split, count or embedding, ValueError is raised by
    ``check_clusters`` (cluster task), by ``check_list`` for the
    algorithm, variant and seed lists, by ``TrainConfig`` for each seed,
    by ``check_threshold``, and by ``_check_setting`` for each requested
    (algorithm, variant) with this ``config`` and ``mode``.
    """
    if task not in ("linkpred", "cluster"):
        raise ValueError(f"unknown task {task!r}")
    if task == "cluster":
        check_clusters(clusters, g.node_count)
    seeds = list(seeds)
    for values, what, allowed in ((algorithms, "algorithm", ALGORITHMS),
                                  (variants, "variant", VARIANTS), (seeds, "seed", None)):
        check_list(values, what, allowed)
    # with_seed rejects a seed TrainConfig rejects; rows hold each seed as an int
    configs = {int(seed): config.with_seed(seed) for seed in seeds}
    seeds = list(configs)
    check_threshold(threshold)
    for algorithm, variant in product(algorithms, variants):
        _check_setting(g, algorithm, variant, config, mode)
    laws: dict[str, list[str]] = {}  # walk law -> the algorithms that run it
    for algorithm in algorithms:
        unit_pq = algorithm == "node2vec" and config.p == config.q == 1
        laws.setdefault("deepwalk" if unit_pq else algorithm, []).append(algorithm)
    needs_stats = "mo" in variants
    rows = []
    # a cluster report embeds g for all its seeds; linkpred embeds each
    # seed's train graph, splitting one seed at a time in seed order
    for graph_seeds in [seeds] if task == "cluster" else [[seed] for seed in seeds]:
        split = make_split(g, fraction, graph_seeds[0]) if task == "linkpred" else None
        graph = g if split is None else split.train_graph
        stats = count_triangles(graph) if needs_stats else None
        for law, names in laws.items():
            groups = [graph_seeds] if law in SEED_FREE else [[seed] for seed in graph_seeds]
            for variant, group in product(variants, groups):
                emb = embed_graph(graph, law, variant, configs[group[0]], mode, stats)
                if split is None:
                    scored = cluster_row(emb, dataset, names[0], variant, group, clusters)
                else:
                    scored = [linkpred_row(split, dataset, names[0], variant, emb, threshold)]
                rows.extend(dict(row, algorithm=name) for name in names for row in scored)
    rows.sort(key=lambda r: (r["dataset"], r["algorithm"], r["variant"], r["seed"]))
    if len(seeds) > 1:
        rows.extend(summarize_rows(rows))
    return rows


def check_clusters(clusters: int, node_count: int | None = None) -> None:
    """Raise ValueError unless ``clusters`` is at least 2 and, when the
    graph's ``node_count`` is given, at most that."""
    if clusters < 2 or (node_count is not None and clusters > node_count):
        raise ValueError(f"clusters must be >= 2 and <= the node count, got {clusters}")


def check_threshold(threshold) -> None:
    """Raise ValueError unless ``threshold`` is None, which predicts at the
    median of the pooled scores, or a finite number."""
    if threshold is not None and not (isinstance(threshold, numbers.Real)
                                      and math.isfinite(threshold)):
        raise ValueError(f"threshold must be a finite number or the median, "
                         f"got {threshold!r}")


def check_list(values, what: str, allowed=None, given=None) -> None:
    """Raise ValueError unless ``values`` names at least one ``what`` (a seed,
    an algorithm, a variant), each one in ``allowed`` unless that is None,
    and none twice. The error for an empty list quotes ``given``, by default
    the values."""
    values = list(values)
    if not values:
        raise ValueError(f"{what}s lists no {what}: {values if given is None else given!r}")
    bad = [str(v) for v in values if allowed is not None and v not in allowed]
    if bad:
        raise ValueError(f"unknown {what}(s): {', '.join(bad)}")
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{what}s repeat: {', '.join(map(str, repeated))}")


def summarize_rows(rows: list[dict]) -> list[dict]:
    """One "mean±std" row per (dataset, algorithm, variant) group."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if row["seed"] == "summary":
            continue
        groups.setdefault((row["dataset"], row["algorithm"], row["variant"]), []).append(row)
    out = []
    for (dataset, algorithm, variant), members in sorted(groups.items()):
        summary = _blank_row(dataset, algorithm, variant, "summary")
        for col in LINKPRED_METRICS + ("sc",):
            values = [r[col] for r in members if r[col] != ""]
            if values:
                arr = np.asarray(values, dtype=np.float64)
                summary[col] = f"{arr.mean():.6f}±{arr.std():.6f}"
        out.append(summary)
    return out


def gap_table(rows: list[dict], metric: str) -> str:
    """Text table of one metric's mean±std (population std) per algorithm
    over the per-seed rows, base and mo side by side, with the mo-minus-base
    gap of the means."""
    values: dict[tuple, list] = {}
    for row in rows:
        if row["seed"] != "summary":
            values.setdefault((row["algorithm"], row["variant"]), []).append(row[metric])
    lines = [f"{'algorithm':<10} {'base':>16} {'mo':>16} {'gap':>8}"]
    for algorithm in (a for a in ALGORITHMS if (a, "base") in values):
        base, mo = (np.asarray(values[(algorithm, v)]) for v in ("base", "mo"))
        lines.append(f"{algorithm:<10} {base.mean():>9.4f}±{base.std():.4f} "
                     f"{mo.mean():>9.4f}±{mo.std():.4f} {mo.mean() - base.mean():>+8.4f}")
    return "\n".join(lines)


def csv_text(header, rows) -> str:
    """A header line, then one line per row of cells. ``csv.writer`` writes
    each float as its repr, so it parses back to the same float."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_report_csv(rows: list[dict]) -> str:
    return csv_text(REPORT_COLUMNS, ([row[c] for c in REPORT_COLUMNS] for row in rows))


def write_report_json(rows: list[dict], run_config: dict) -> str:
    """Rows plus the full run configuration, so any report regenerates
    bit-identically from its own metadata."""
    return json_text({"config": run_config, "rows": rows})
