#!/usr/bin/env python3
"""Per-dataset statistics and base-vs-mo comparison tables on real networks.

Looks for edge lists in datasets/ (see datasets/README.md for download
instructions), prints the statistics table, then runs the algorithm grid on
each present dataset and reports mean AUC / silhouette per (algorithm,
variant) with the mo-minus-base gap. Missing datasets are skipped.

Full grid on the larger networks is slow; the defaults (3 seeds, dim 16,
2 epochs) keep a full six-dataset run in the tens-of-minutes range. Use
--datasets/--algorithms to narrow a run.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from motifemb import TrainConfig, graph_stats, load_edge_list
from motifemb.pipeline import ALGORITHMS, gap_table, run_report, write_report_csv

DATASET_DIR = Path(__file__).resolve().parent.parent / "datasets"
DATASETS = ("wiki", "routers", "twitter", "facebook", "hamsterster", "openflights")


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--datasets", nargs="+", default=list(DATASETS),
                    choices=DATASETS, metavar="NAME")
    ap.add_argument("--algorithms", nargs="+", default=list(ALGORITHMS),
                    choices=ALGORITHMS, metavar="ALGO")
    ap.add_argument("--task", choices=("linkpred", "cluster", "both"), default="linkpred")
    ap.add_argument("--seeds", type=int, default=3, help="number of eval seeds (0..N-1)")
    ap.add_argument("--fraction", type=float, default=0.1)
    ap.add_argument("--clusters", type=int, default=2)
    ap.add_argument("--mode", choices=("strict", "smoothed"), default="strict")
    ap.add_argument("--dim", type=int, default=16)
    ap.add_argument("--epochs", type=int, default=2)
    ap.add_argument("--walks-per-node", type=int, default=5)
    ap.add_argument("--walk-length", type=int, default=20)
    ap.add_argument("--window", type=int, default=3)
    ap.add_argument("--stats-only", action="store_true",
                    help="print the statistics table and exit")
    ap.add_argument("--out-dir", type=Path, default=None,
                    help="write one raw-rows CSV per dataset here")
    return ap.parse_args()


def print_stats_table(graphs: dict) -> None:
    print(f"{'dataset':<13} {'nodes':>6} {'edges':>6} {'max deg':>8} "
          f"{'avg deg':>8} {'density':>9}")
    for name, g in graphs.items():
        s = graph_stats(g)
        print(f"{name:<13} {s.num_nodes:>6} {s.num_edges:>6} {s.max_degree:>8} "
              f"{s.avg_degree:>8.4f} {s.density:>9.6f}")
    print()


def main() -> int:
    args = parse_args()
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

    config = TrainConfig(
        dim=args.dim,
        walks_per_node=args.walks_per_node,
        walk_length=args.walk_length,
        window=args.window,
        negatives=3,
        epochs=args.epochs,
    )
    seeds = range(args.seeds)
    tasks = ("linkpred", "cluster") if args.task == "both" else (args.task,)
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)

    for name, g in graphs.items():
        rows: list[dict] = []
        for task in tasks:
            t0 = time.time()
            task_rows = run_report(g, name, task, algorithms=args.algorithms,
                                   seeds=seeds, config=config, fraction=args.fraction,
                                   mode=args.mode, clusters=args.clusters)
            rows.extend(task_rows)
            title = "AUC" if task == "linkpred" else "silhouette"
            print(f"== {name}: {title} over {args.seeds} seeds "
                  f"({time.time() - t0:.0f}s) ==")
            print(gap_table(task_rows, "auc" if task == "linkpred" else "sc"))
            print()
        if args.out_dir is not None:
            out = args.out_dir / f"{name}.csv"
            write_report_csv(rows, out)
            print(f"raw rows written to {out}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
