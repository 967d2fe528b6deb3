#!/usr/bin/env python3
"""Per-dataset statistics and base-vs-mo comparison tables on real networks.

Looks for edge lists in datasets/ (see datasets/README.md for download
instructions), prints the statistics table, then runs the algorithm grid on
each present dataset and reports mean AUC / silhouette per (algorithm,
variant) with the mo-minus-base gap. Missing datasets are skipped.

Settings are the CLI's: the `motifemb linkpred`/`cluster` flags that apply
here (--algorithm as a comma list, --seeds as a comma list, --mode,
--fraction, --threshold, --clusters and every trainer flag such as --dim,
--p and --q) and --config FILE, whose keys are those flags' names and no
others; file values override this script's defaults, which --help shows,
and explicit flags override both. The full grid on the larger networks is
slow; the defaults (seeds 0,1,2, dim 16, 2 epochs, 5 walks per node, 3
negatives) keep a full six-dataset run in the tens-of-minutes range. Use
--datasets/--algorithm to narrow a run.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from motifemb import graph_stats, load_edge_list
from motifemb.cli import HYPERPARAMETERS, add_run_flags, run_command
from motifemb.pipeline import gap_table, run_report, write_report_csv

DATASET_DIR = Path(__file__).resolve().parent.parent / "datasets"
DATASETS = ("wiki", "routers", "twitter", "facebook", "hamsterster", "openflights")
DEFAULTS = dict(seeds="0,1,2", dim=16, epochs=2, walks_per_node=5, walk_length=20,
                window=3, negatives=3)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_run_flags(ap, ("algorithm", "mode", *HYPERPARAMETERS, "seeds", "fraction",
                       "threshold", "clusters"), DEFAULTS)
    ap.add_argument("--datasets", nargs="+", default=list(DATASETS),
                    choices=DATASETS, metavar="NAME", help="default: all of them")
    ap.add_argument("--task", choices=("linkpred", "cluster", "both"), default="linkpred",
                    help="default: %(default)s")
    ap.add_argument("--stats-only", action="store_true",
                    help="print the statistics table and exit")
    ap.add_argument("--out-dir", type=Path, default=None,
                    help="write one raw-rows CSV per dataset here")
    return ap


def print_stats_table(graphs: dict) -> None:
    print(f"{'dataset':<13} {'nodes':>6} {'edges':>6} {'max deg':>8} "
          f"{'avg deg':>8} {'density':>9}")
    for name, g in graphs.items():
        s = graph_stats(g)
        print(f"{name:<13} {s.num_nodes:>6} {s.num_edges:>6} {s.max_degree:>8} "
              f"{s.avg_degree:>8.4f} {s.density:>9.6f}")
    print()


def report(run, args) -> int:
    seeds, algorithms, threshold = run.seed_list(), run.algorithm_list(), run.threshold_value()
    graphs = {}
    for name in args.datasets:
        path = DATASET_DIR / f"{name}.edges"
        if path.exists():
            graphs[name] = load_edge_list(path)
        else:
            print(f"skipping {name}: {path} not found (see datasets/README.md)")
    if not graphs:
        print("no datasets present, nothing to do")
        return 1
    print()
    print_stats_table(graphs)
    if args.stats_only:
        return 0

    config = run.train_config()
    tasks = ("linkpred", "cluster") if args.task == "both" else (args.task,)
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)

    for name, g in graphs.items():
        rows: list[dict] = []
        for task in tasks:
            t0 = time.time()
            task_rows = run_report(g, name, task, algorithms=algorithms, seeds=seeds,
                                   config=config, fraction=run.fraction, mode=run.mode,
                                   threshold=threshold, clusters=run.clusters)
            rows.extend(task_rows)
            title = "AUC" if task == "linkpred" else "silhouette"
            print(f"== {name}: {title} over {len(seeds)} seeds "
                  f"({time.time() - t0:.0f}s) ==")
            print(gap_table(task_rows, "auc" if task == "linkpred" else "sc"))
            print()
        if args.out_dir is not None:
            out = args.out_dir / f"{name}.csv"
            write_report_csv(rows, out)
            print(f"raw rows written to {out}\n")
    return 0


def main(argv=None) -> int:
    return run_command(build_parser(), argv, report)


if __name__ == "__main__":
    raise SystemExit(main())
