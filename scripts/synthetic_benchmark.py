#!/usr/bin/env python3
"""Motif-enhanced vs plain embeddings on a synthetic planted-partition graph.

Runs the full algorithm grid (deepwalk, node2vec, line, spectral; base and
mo variants) over several seeds, then prints link-prediction AUC and
clustering silhouette tables with the mo-minus-base gap per algorithm.

The defaults mirror the frozen benchmark in tests/test_acceptance.py
(criteria 7 and 8) and finish in a couple of minutes; crank --nodes-per-block
or --dim for a bigger run.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from motifemb import TrainConfig
from motifemb.pipeline import gap_table, run_report, write_report_csv
from motifemb.synth import planted_partition


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--generator-seed", type=int, default=5)
    ap.add_argument("--nodes-per-block", type=int, default=300)
    ap.add_argument("--blocks", type=int, default=2)
    ap.add_argument("--triangles-per-block", type=int, default=200)
    ap.add_argument("--seeds", type=int, default=10, help="number of eval seeds (0..N-1)")
    ap.add_argument("--fraction", type=float, default=0.1, help="held-out edge fraction")
    ap.add_argument("--mode", choices=("strict", "smoothed"), default="strict")
    ap.add_argument("--dim", type=int, default=8)
    ap.add_argument("--walks-per-node", type=int, default=4)
    ap.add_argument("--walk-length", type=int, default=20)
    ap.add_argument("--window", type=int, default=3)
    ap.add_argument("--negatives", type=int, default=3)
    ap.add_argument("--epochs", type=int, default=2)
    ap.add_argument("--task", choices=("linkpred", "cluster", "both"), default="both")
    ap.add_argument("--csv", type=Path, default=None, help="also dump raw rows to CSV")
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    config = TrainConfig(
        dim=args.dim,
        walks_per_node=args.walks_per_node,
        walk_length=args.walk_length,
        window=args.window,
        negatives=args.negatives,
        epochs=args.epochs,
    )
    g, blocks = planted_partition(
        seed=args.generator_seed,
        nodes_per_block=args.nodes_per_block,
        blocks=args.blocks,
        triangles_per_block=args.triangles_per_block,
    )
    seeds = range(args.seeds)
    print(f"graph: {g.node_count} nodes, {g.edge_count} edges, "
          f"{args.blocks} planted blocks")
    print(f"config: {dataclasses.asdict(config)}")
    print(f"seeds: {list(seeds)}  motif mode: {args.mode}\n")

    rows: list[dict] = []
    tasks = ("linkpred", "cluster") if args.task == "both" else (args.task,)
    t0 = time.time()
    for task in tasks:
        task_rows = run_report(g, "synthetic", task, seeds=seeds, config=config,
                               fraction=args.fraction, mode=args.mode, clusters=args.blocks)
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


if __name__ == "__main__":
    raise SystemExit(main())
