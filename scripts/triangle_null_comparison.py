#!/usr/bin/env python3
"""Triangle counts in real networks vs a degree-preserving random null model.

For each edge list, counts triangles, then rewires the graph with random
double-edge swaps (degree multiset preserved) and counts again across
several samples. Real networks typically carry far more triangles than the
null, which is what makes triangle participation an informative signal for
the motif-enhanced embedding variants.

Settings are those of `motifemb motifs`: --null-model N samples (default 10,
at least 1), drawn with seeds --seed .. --seed + N - 1 and --swaps-per-edge
swap attempts per edge, and --config FILE, whose keys are those three flags'
names and no others. The mean and std are those of the `null_model` block of
`motifemb motifs --null-model N`.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from motifemb import count_triangles, load_edge_list, null_model_totals
from motifemb.cli import add_run_flags, run_command

DATASET_DIR = Path(__file__).resolve().parent.parent / "datasets"
DATASETS = ("wiki", "routers", "twitter", "facebook", "hamsterster", "openflights")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_run_flags(ap, ("null_model", "swaps_per_edge", "seed"), {"null_model": 10})
    ap.add_argument("--edges", type=Path, nargs="*", default=None,
                    help="explicit edge-list files (default: all present datasets/)")
    return ap


def compare(run, args) -> int:
    if run.null_model < 1:
        raise ValueError(f"null_model must be >= 1, got {run.null_model}")
    if args.edges:
        paths = list(args.edges)
    else:
        paths = [DATASET_DIR / f"{n}.edges" for n in DATASETS]
        missing = [p for p in paths if not p.exists()]
        for p in missing:
            print(f"skipping {p.stem}: {p} not found (see datasets/README.md)")
        paths = [p for p in paths if p.exists()]
    if not paths:
        print("no edge lists to process")
        return 1

    print(f"\n{'network':<13} {'triangles':>10} {'null mean':>12} "
          f"{'null std':>10} {'ratio':>8}")
    for path in paths:
        g = load_edge_list(path)
        real = count_triangles(g).total_motifs
        arr = null_model_totals(g, run.null_model, run.swaps_per_edge, run.seed)
        ratio = real / arr.mean() if arr.mean() > 0 else float("inf")
        print(f"{path.stem:<13} {real:>10} {arr.mean():>12.1f} "
              f"{arr.std():>10.1f} {ratio:>8.2f}")
    return 0


def main(argv=None) -> int:
    return run_command(build_parser(), argv, compare)


if __name__ == "__main__":
    raise SystemExit(main())
