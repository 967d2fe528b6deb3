"""Smoke tests for the experiment scripts in scripts/: each runs end to end
as a subprocess on a tiny input, so an API change that breaks a script
fails here instead of at the next experiment run. The scripts take their
settings through the CLI's one declaration, so they also get its --config
files and its `error: ...` exit 2 on bad settings."""
from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from motifemb import write_edge_list
from motifemb.cli import main as cli_main

from conftest import er_graph

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
TINY_GRID = [
    "--nodes-per-block", "20", "--triangles-per-block", "10", "--dim", "4",
    "--walks-per-node", "1", "--walk-length", "5", "--epochs", "1", "--task", "linkpred",
]


def run_script(script: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def assert_usage_error(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr.startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture()
def bowtie(tmp_path):
    """Two triangles sharing node 2."""
    path = tmp_path / "bowtie.edges"
    path.write_text("0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n")
    return str(path)


@pytest.fixture()
def ring_report(tmp_path):
    """A dataset_report.py copy beside a datasets/ directory holding one
    small "wiki" graph: a 30-node ring with chords."""
    (tmp_path / "scripts").mkdir()
    (tmp_path / "datasets").mkdir()
    ring = [(i, (i + 1) % 30) for i in range(30)] + [(i, (i + 7) % 30) for i in range(0, 30, 3)]
    (tmp_path / "datasets" / "wiki.edges").write_text("".join(f"{u} {v}\n" for u, v in ring))
    script = tmp_path / "scripts" / "dataset_report.py"
    shutil.copy(SCRIPTS / "dataset_report.py", script)
    return script


def test_synthetic_benchmark_runs():
    # --seeds is the CLI's comma list: "0" is seed 0, not a count of none
    proc = run_script(SCRIPTS / "synthetic_benchmark.py", *TINY_GRID, "--seeds", "0")
    assert proc.returncode == 0, proc.stderr
    assert "config: {'dim': 4," in proc.stdout
    assert "seeds: [0]" in proc.stdout
    assert "== link prediction AUC ==" in proc.stdout
    # 4 algorithms x 2 variants x 1 seed
    assert proc.stdout.splitlines()[-1].endswith("for 8 runs")


@pytest.mark.parametrize("flags", [["--dim", "0"], ["--seeds", ","], ["--seeds", "0,0"],
                                   ["--algorithm", "grarep"], ["--p", "nan"]],
                         ids=["dim-0", "seeds-empty", "seeds-repeat", "algorithm", "p-nan"])
def test_synthetic_benchmark_bad_setting_exits_two(flags):
    proc = run_script(SCRIPTS / "synthetic_benchmark.py", *TINY_GRID, *flags)
    assert_usage_error(proc)
    assert proc.stdout == ""


def test_synthetic_benchmark_reads_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim=6\nseeds=1\nalgorithm=spectral\n")
    proc = run_script(SCRIPTS / "synthetic_benchmark.py", *TINY_GRID, "--config", str(cfg),
                      "--dim", "4")
    assert proc.returncode == 0, proc.stderr
    assert "config: {'dim': 4," in proc.stdout  # the flag overrides the file
    assert "seeds: [1]" in proc.stdout  # the file overrides the default
    assert proc.stdout.splitlines()[-1].endswith("for 2 runs")


@pytest.mark.parametrize("script", ["synthetic_benchmark.py", "dataset_report.py",
                                    "triangle_null_comparison.py"])
def test_bad_choice_in_config_file_exits_two(script, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=loose\n")
    proc = run_script(SCRIPTS / script, "--config", str(cfg))
    assert_usage_error(proc)
    assert "mode" in proc.stderr


def test_triangle_null_comparison_runs(bowtie):
    proc = run_script(
        SCRIPTS / "triangle_null_comparison.py",
        "--edges", bowtie, "--null-model", "1", "--swaps-per-edge", "1",
    )
    assert proc.returncode == 0, proc.stderr
    row = proc.stdout.strip().splitlines()[-1].split()
    assert row[:2] == ["bowtie", "2"]


def test_triangle_null_comparison_matches_cli_null_model(tmp_path, capsys):
    edges = tmp_path / "er.edges"
    write_edge_list(er_graph(30, 0.3, seed=3), edges)
    flags = ["--null-model", "4", "--swaps-per-edge", "2", "--seed", "6"]
    proc = run_script(SCRIPTS / "triangle_null_comparison.py", "--edges", str(edges), *flags)
    assert proc.returncode == 0, proc.stderr
    assert cli_main(["motifs", "--input", str(edges), *flags]) == 0
    block = json.loads(capsys.readouterr().out)["null_model"]
    row = proc.stdout.strip().splitlines()[-1].split()
    assert block["std"] > 0
    assert row == ["er", str(block["real_total"]), f"{block['mean']:.1f}",
                   f"{block['std']:.1f}", f"{block['real_total'] / block['mean']:.2f}"]


def test_triangle_null_comparison_needs_a_sample(bowtie):
    proc = run_script(SCRIPTS / "triangle_null_comparison.py", "--edges", bowtie,
                      "--null-model", "0")
    assert_usage_error(proc)
    assert "null_model" in proc.stderr and "Warning" not in proc.stderr
    assert proc.stdout == ""


def test_dataset_report_without_datasets(tmp_path):
    # a copy beside an empty datasets/ directory, whatever the checkout holds
    (tmp_path / "scripts").mkdir()
    (tmp_path / "datasets").mkdir()
    script = tmp_path / "scripts" / "dataset_report.py"
    shutil.copy(SCRIPTS / "dataset_report.py", script)
    proc = run_script(script)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "no datasets present, nothing to do"


def test_dataset_report_grid(ring_report, tmp_path):
    out_dir = tmp_path / "out"
    proc = run_script(
        ring_report, "--datasets", "wiki", "--seeds", "0,1", "--dim", "4", "--epochs", "1",
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


def test_dataset_report_reads_config_file(ring_report, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seeds=4\nalgorithm=spectral,line\ndim=4\n")
    out_dir = tmp_path / "out"
    proc = run_script(ring_report, "--config", str(cfg), "--epochs", "1",
                      "--line-samples-factor", "2", "--out-dir", str(out_dir))
    assert proc.returncode == 0, proc.stderr
    assert "== wiki: AUC over 1 seeds" in proc.stdout
    with open(out_dir / "wiki.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {(row["algorithm"], row["seed"]) for row in rows} == {("line", "4"), ("spectral", "4")}
