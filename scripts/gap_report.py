#!/usr/bin/env python3
"""Base-vs-mo gap tables for link prediction and clustering.

Runs the algorithm grid (deepwalk, node2vec, line, spectral; base and mo
variants) over several seeds on each graph. It prints the graphs'
statistics table, then per graph and task the mean AUC / silhouette per
(algorithm, variant) with the mo-minus-base gap. The graph is a planted
partition whose generator seed is --seed and whose block count is
--clusters, also the k of clustering. With --datasets it is each named
datasets/<NAME>.edges instead (see datasets/README.md; missing files are
skipped), and the generator's --nodes-per-block and --triangles-per-block
are an error.

Settings are the CLI's: the `motifemb linkpred`/`cluster` flags that apply
here (--algorithm and --seeds as comma lists, --mode, --fraction,
--threshold, --clusters and every trainer flag such as --dim, --p and --q)
and --config FILE, whose keys are those flags' names and no others. The
defaults, which --help shows, mirror the frozen benchmark in
tests/test_acceptance.py (criteria 7 and 8) and finish in a couple of
minutes; file values override them and explicit flags override both.
Standard output depends only on the settings; timings go to stderr. For
example:

    python3 scripts/gap_report.py --q 0.5 --algorithm deepwalk,node2vec
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from motifemb import graph_stats, load_edge_list
from motifemb.cli import HYPERPARAMETERS, add_run_flags, run_command
from motifemb.pipeline import gap_table, run_report, write_report_csv
from motifemb.synth import planted_partition

DATASET_DIR = Path(__file__).resolve().parent.parent / "datasets"
DATASETS = ("wiki", "routers", "twitter", "facebook", "hamsterster", "openflights")
DEFAULTS = dict(seed=5, seeds="0,1,2,3,4,5,6,7,8,9", dim=8, walks_per_node=4,
                walk_length=20, window=3, negatives=3, epochs=2)
# the planted partition's shape; --datasets runs reject these flags
PARTITION_DEFAULTS = dict(nodes_per_block=300, triangles_per_block=200)
# each task's report metric and the name its table goes by
METRICS = {"linkpred": ("auc", "AUC"), "cluster": ("sc", "silhouette")}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_run_flags(ap, ("seed", "seeds", "algorithm", "mode", *HYPERPARAMETERS,
                       "fraction", "threshold", "clusters"), DEFAULTS)
    # default None tells an omitted flag from a given one
    for name, default in PARTITION_DEFAULTS.items():
        ap.add_argument("--" + name.replace("_", "-"), type=int,
                        help=f"default: {default}; planted partition only")
    ap.add_argument("--datasets", nargs="+", choices=DATASETS, metavar="NAME",
                    help=f"run datasets/NAME.edges, NAME one of {', '.join(DATASETS)}, "
                         "instead of the planted partition")
    ap.add_argument("--task", choices=("linkpred", "cluster", "both"), default="both",
                    help="default: %(default)s")
    ap.add_argument("--stats-only", action="store_true",
                    help="print the statistics table and exit")
    ap.add_argument("--csv", type=Path, default=None, help="also write every raw row here")
    return ap


def load_graphs(run, args) -> dict:
    """{dataset name: graph}: the planted partition, or the --datasets present."""
    given = {name: getattr(args, name) for name in PARTITION_DEFAULTS
             if getattr(args, name) is not None}
    if not args.datasets:
        g, _ = planted_partition(seed=run.seed, blocks=run.clusters,
                                 **{**PARTITION_DEFAULTS, **given})
        return {"synthetic": g}
    if given:
        flags = " or ".join("--" + name.replace("_", "-") for name in given)
        raise ValueError(f"--datasets takes no planted-partition flag: {flags}")
    graphs = {}
    for name in args.datasets:
        path = DATASET_DIR / f"{name}.edges"
        if path.exists():
            graphs[name] = load_edge_list(path)
        else:
            print(f"skipping {name}: {path} not found (see datasets/README.md)")
    return graphs


def report(run, args) -> int:
    seeds, algorithms, threshold = run.seed_list(), run.algorithm_list(), run.threshold_value()
    graphs = load_graphs(run, args)
    if not graphs:
        print("no datasets present, nothing to do")
        return 1
    print(f"{'dataset':<13} {'nodes':>6} {'edges':>6} {'max deg':>8} "
          f"{'avg deg':>8} {'density':>9}")
    for name, g in graphs.items():
        s = graph_stats(g)
        print(f"{name:<13} {s.num_nodes:>6} {s.num_edges:>6} {s.max_degree:>8} "
              f"{s.avg_degree:>8.4f} {s.density:>9.6f}")
    print()
    if args.stats_only:
        return 0

    config = run.train_config()
    shown = dataclasses.asdict(config)
    if args.datasets:
        del shown["seed"]  # the generator seed; dataset runs read only --seeds
    print(f"config: {shown}")
    print(f"seeds: {seeds}  motif mode: {run.mode}\n")
    tasks = ("linkpred", "cluster") if args.task == "both" else (args.task,)
    rows: list[dict] = []
    start = time.time()
    for name, g in graphs.items():
        for task in tasks:
            t0 = time.time()
            task_rows = run_report(g, name, task, algorithms=algorithms, seeds=seeds,
                                   config=config, fraction=run.fraction, mode=run.mode,
                                   threshold=threshold, clusters=run.clusters)
            rows.extend(task_rows)
            metric, title = METRICS[task]
            print(f"{name} {task}: {time.time() - t0:.1f}s", file=sys.stderr)
            print(f"== {name}: {title} over {len(seeds)} seeds ==")
            print(gap_table(task_rows, metric))
            print()

    runs = sum(row["seed"] != "summary" for row in rows)
    print(f"total {time.time() - start:.1f}s for {runs} runs", file=sys.stderr)
    if args.csv is not None:
        write_report_csv(rows, args.csv)
        print(f"raw rows written to {args.csv}")
    return 0


def main(argv=None) -> int:
    return run_command(build_parser(), argv, report)


if __name__ == "__main__":
    raise SystemExit(main())
