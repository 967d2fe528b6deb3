#!/usr/bin/env python3
"""Motif-enhanced vs plain embeddings on a synthetic planted-partition graph.

Runs the algorithm grid (deepwalk, node2vec, line, spectral; base and mo
variants) over several seeds, then prints link-prediction AUC and
clustering silhouette tables with the mo-minus-base gap per algorithm.

Settings are the CLI's: the `motifemb linkpred`/`cluster` flags that apply
here (--algorithm, --seeds as a comma list, --mode, --fraction, --threshold
and every trainer flag such as --dim, --p and --q) and --config FILE, whose
keys are those flags' names and no others. --seed is the generator seed.
The defaults, which --help shows, mirror the frozen benchmark in
tests/test_acceptance.py (criteria 7 and 8) and finish in a couple of
minutes; file values override them and explicit flags override both.
--blocks is also the cluster count. For example:

    python3 scripts/synthetic_benchmark.py --q 0.5 --algorithm deepwalk,node2vec
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from motifemb.cli import HYPERPARAMETERS, add_run_flags, run_command
from motifemb.pipeline import gap_table, run_report, write_report_csv
from motifemb.synth import planted_partition

DEFAULTS = dict(seed=5, seeds="0,1,2,3,4,5,6,7,8,9", dim=8, walks_per_node=4,
                walk_length=20, window=3, negatives=3, epochs=2)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_run_flags(ap, ("seed", "seeds", "algorithm", "mode", *HYPERPARAMETERS,
                       "fraction", "threshold"), DEFAULTS)
    ap.add_argument("--nodes-per-block", type=int, default=300, help="default: %(default)s")
    ap.add_argument("--blocks", type=int, default=2, help="default: %(default)s")
    ap.add_argument("--triangles-per-block", type=int, default=200, help="default: %(default)s")
    ap.add_argument("--task", choices=("linkpred", "cluster", "both"), default="both",
                    help="default: %(default)s")
    ap.add_argument("--csv", type=Path, default=None, help="also dump raw rows to CSV")
    return ap


def report(run, args) -> int:
    seeds, algorithms, threshold = run.seed_list(), run.algorithm_list(), run.threshold_value()
    config = run.train_config()
    g, _ = planted_partition(seed=run.seed, nodes_per_block=args.nodes_per_block,
                             blocks=args.blocks, triangles_per_block=args.triangles_per_block)
    print(f"graph: {g.node_count} nodes, {g.edge_count} edges, "
          f"{args.blocks} planted blocks")
    print(f"config: {dataclasses.asdict(config)}")
    print(f"seeds: {seeds}  motif mode: {run.mode}\n")

    rows: list[dict] = []
    tasks = ("linkpred", "cluster") if args.task == "both" else (args.task,)
    t0 = time.time()
    for task in tasks:
        task_rows = run_report(g, "synthetic", task, algorithms=algorithms, seeds=seeds,
                               config=config, fraction=run.fraction, mode=run.mode,
                               threshold=threshold, clusters=args.blocks)
        rows.extend(task_rows)
        title = "link prediction AUC" if task == "linkpred" else "clustering silhouette"
        print(f"== {title} ==")
        print(gap_table(task_rows, "auc" if task == "linkpred" else "sc"))
        print()

    runs = sum(row["seed"] != "summary" for row in rows)
    print(f"total {time.time() - t0:.1f}s for {runs} runs")
    if args.csv is not None:
        write_report_csv(rows, args.csv)
        print(f"raw rows written to {args.csv}")
    return 0


def main(argv=None) -> int:
    return run_command(build_parser(), argv, report)


if __name__ == "__main__":
    raise SystemExit(main())
