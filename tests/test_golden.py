"""Golden digests: the sha256 of every output of a fixed command list, run
on a small planted partition with a tiny config, against the table in
tests/golden.json. The table also records the numpy and scipy versions it
was made with, so a version change reads as one instead of as moved digests.

The commands: ``stats`` and ``motifs`` (json and csv, the json with a
rewired null model); ``embed`` for every algorithm and variant, text and
binary; ``linkpred`` and ``cluster`` (json and csv) over every algorithm and
variant, strict and smoothed, at q = 1 and q = 0.5, seeds 0 and 1; and
``scripts/gap_report.py`` (its stdout and its --csv rows).

A change that moves an output on purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and names every digest that moved, and why, in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import scipy

from motifemb import cli, planted_partition, write_edge_list

from conftest import load_script

TABLE = Path(__file__).with_name("golden.json")
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"
# the keys of a tiny training run, as an embed/linkpred/cluster config file
TINY = dict(dim=4, walks_per_node=2, walk_length=8, window=2, negatives=2, epochs=1,
            batch_size=64, line_samples_factor=5)
GAP_REPORT = ["--nodes-per-block", "15", "--triangles-per-block", "6", "--dim", "4",
              "--walks-per-node", "1", "--walk-length", "5", "--epochs", "1", "--seeds", "0,1"]


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def outputs(work: Path) -> dict[str, bytes]:
    """{output name: bytes} of the command list, run inside ``work``. Paths
    are relative, since a JSON report's config block names its input."""
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return _run_commands()
    finally:
        os.chdir(cwd)


def _run_commands() -> dict[str, bytes]:
    g, _ = planted_partition(seed=1, nodes_per_block=20, blocks=2, triangles_per_block=8)
    graph, tiny = Path("ppm.edges"), Path("tiny.cfg")
    write_edge_list(g, graph)
    tiny.write_text("".join(f"{key}={value}\n" for key, value in TINY.items()))
    runs: dict[str, list[str]] = {}
    for fmt in ("json", "csv"):
        runs[f"stats.{fmt}"] = ["stats", "--format", fmt]
    runs["motifs.json"] = ["motifs", "--null-model", "2", "--swaps-per-edge", "1"]
    runs["motifs.csv"] = ["motifs", "--format", "csv"]
    for algorithm in ("deepwalk", "node2vec", "line", "spectral"):
        for variant in ("base", "mo"):
            for fmt, ext in (("text", "txt"), ("binary", "bin")):
                runs[f"embed-{algorithm}-{variant}.{ext}"] = [
                    "embed", "--config", str(tiny), "--algorithm", algorithm,
                    "--variant", variant, "--emb-format", fmt]
    for task in ("linkpred", "cluster"):
        for mode in ("strict", "smoothed"):
            for q in ("1", "0.5"):
                for fmt in ("json", "csv"):
                    runs[f"{task}-{mode}-q{q}.{fmt}"] = [
                        task, "--config", str(tiny), "--mode", mode, "--q", q,
                        "--seeds", "0,1", "--format", fmt]
    out = {}
    for name, argv in runs.items():
        path = Path(name)
        code = cli.main([*argv, "--input", str(graph), "--out", str(path)])
        assert code == 0, name
        out[name] = path.read_bytes()
    rows = Path("gap_report.csv")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = load_script("gap_report").main([*GAP_REPORT, "--csv", str(rows)])
    assert code == 0, "gap_report"
    out["gap_report.stdout"] = stdout.getvalue().encode()
    out["gap_report.csv"] = rows.read_bytes()
    return out


def digests(work: Path) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs(work).items()}


def test_outputs_match_golden_digests(tmp_path):
    table = json.loads(TABLE.read_text())
    if table["versions"] != versions():
        raise AssertionError(f"the golden table was made with {table['versions']}, this run "
                             f"has {versions()}; regenerate it with {REGENERATE}")
    got, want = digests(tmp_path), table["digests"]
    moved = sorted(name for name in want.keys() | got.keys() if got.get(name) != want.get(name))
    assert not moved, (f"{len(moved)} golden digest(s) moved: {', '.join(moved)}; if "
                       f"intended, regenerate with {REGENERATE} and say why in CHANGES.md")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {"versions": versions(), "digests": digests(Path(tmp))}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table['digests'])} digests to {TABLE}", file=sys.stderr)
