"""Smoke tests for the experiment scripts in scripts/: each runs end to end
as a subprocess on a tiny input, so an API change that breaks a script
fails here instead of at the next experiment run."""
from __future__ import annotations

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(script: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_synthetic_benchmark_runs():
    proc = run_script(
        SCRIPTS / "synthetic_benchmark.py",
        "--nodes-per-block", "20", "--triangles-per-block", "10", "--seeds", "1",
        "--dim", "4", "--walks-per-node", "1", "--walk-length", "5",
        "--epochs", "1", "--task", "linkpred",
    )
    assert proc.returncode == 0, proc.stderr
    assert "config: {'dim': 4," in proc.stdout
    assert "== link prediction AUC ==" in proc.stdout
    assert "total" in proc.stdout.splitlines()[-1]


def test_triangle_null_comparison_runs(tmp_path):
    edges = tmp_path / "bowtie.edges"
    edges.write_text("0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n")
    proc = run_script(
        SCRIPTS / "triangle_null_comparison.py",
        "--edges", str(edges), "--samples", "1", "--swaps-per-edge", "1",
    )
    assert proc.returncode == 0, proc.stderr
    row = proc.stdout.strip().splitlines()[-1].split()
    assert row[:2] == ["bowtie", "2"]


def test_dataset_report_without_datasets(tmp_path):
    # a copy beside an empty datasets/ directory, whatever the checkout holds
    (tmp_path / "scripts").mkdir()
    (tmp_path / "datasets").mkdir()
    script = tmp_path / "scripts" / "dataset_report.py"
    shutil.copy(SCRIPTS / "dataset_report.py", script)
    proc = run_script(script)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "no datasets present, nothing to do"


def test_dataset_report_grid(tmp_path):
    # a copy beside a datasets/ directory holding one small "wiki" graph:
    # a 30-node ring with chords
    (tmp_path / "scripts").mkdir()
    (tmp_path / "datasets").mkdir()
    ring = [(i, (i + 1) % 30) for i in range(30)] + [(i, (i + 7) % 30) for i in range(0, 30, 3)]
    (tmp_path / "datasets" / "wiki.edges").write_text("".join(f"{u} {v}\n" for u, v in ring))
    script = tmp_path / "scripts" / "dataset_report.py"
    shutil.copy(SCRIPTS / "dataset_report.py", script)
    out_dir = tmp_path / "out"
    proc = run_script(
        script, "--datasets", "wiki", "--seeds", "2", "--dim", "4", "--epochs", "1",
        "--walks-per-node", "1", "--walk-length", "5", "--task", "both",
        "--out-dir", str(out_dir),
    )
    assert proc.returncode == 0, proc.stderr
    assert "== wiki: AUC over 2 seeds" in proc.stdout
    assert "== wiki: silhouette over 2 seeds" in proc.stdout
    with open(out_dir / "wiki.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 2 tasks x 4 algorithms x 2 variants x 2 seeds
    assert sum(row["seed"] != "summary" for row in rows) == 32
