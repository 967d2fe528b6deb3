"""Smoke tests for the experiment script scripts/gap_report.py: it runs end
to end as a subprocess on a tiny input, so an API change that breaks it
fails here instead of at the next experiment run. The script takes its
settings through the CLI's one declaration, so it also gets its --config
files and its `error: ...` exit 2 on bad settings."""
from __future__ import annotations

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from motifemb import cli

from conftest import load_script

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "gap_report.py"
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
def ring_script(tmp_path):
    """A gap_report.py copy beside a datasets/ directory holding one small
    "wiki" graph: a 30-node ring with chords."""
    (tmp_path / "scripts").mkdir()
    (tmp_path / "datasets").mkdir()
    ring = [(i, (i + 1) % 30) for i in range(30)] + [(i, (i + 7) % 30) for i in range(0, 30, 3)]
    (tmp_path / "datasets" / "wiki.edges").write_text("".join(f"{u} {v}\n" for u, v in ring))
    script = tmp_path / "scripts" / "gap_report.py"
    shutil.copy(SCRIPT, script)
    return script


def test_planted_partition_runs():
    # --seeds is the CLI's comma list: "0" is seed 0, not a count of none
    proc = run_script(SCRIPT, *TINY_GRID, "--seeds", "0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].split()[:3] == ["synthetic", "40", "171"]
    assert "config: {'dim': 4," in proc.stdout and "'seed': 5}" in proc.stdout
    assert "seeds: [0]" in proc.stdout
    assert "== synthetic: AUC over 1 seeds ==" in proc.stdout
    # 4 algorithms x 2 variants x 1 seed; the timing is on stderr alone
    assert proc.stderr.splitlines()[-1].endswith("for 8 runs")
    assert "runs" not in proc.stdout


def test_stdout_is_byte_identical_on_rerun(tmp_path):
    out = tmp_path / "rows.csv"
    procs, rows = [], []
    for _ in range(2):
        procs.append(run_script(SCRIPT, *TINY_GRID, "--seeds", "0,1", "--csv", str(out)))
        assert procs[-1].returncode == 0, procs[-1].stderr
        rows.append(out.read_bytes())
    assert procs[0].stdout == procs[1].stdout
    assert rows[0] == rows[1]


@pytest.mark.parametrize("flags", [["--dim", "0"], ["--seeds", ","], ["--seeds", "0,0"],
                                   ["--algorithm", "grarep"], ["--p", "nan"]],
                         ids=["dim-0", "seeds-empty", "seeds-repeat", "algorithm", "p-nan"])
def test_bad_setting_exits_two(flags):
    proc = run_script(SCRIPT, *TINY_GRID, *flags)
    assert_usage_error(proc)
    assert proc.stdout == ""


@pytest.mark.parametrize("flags", [["--nodes-per-block", "7"], ["--triangles-per-block", "0"],
                                   ["--nodes-per-block", "300", "--triangles-per-block", "200"],
                                   ["--seed", "9"], ["--seed", "5"]],
                         ids=["nodes-per-block", "triangles-per-block", "both-at-default",
                              "seed", "seed-at-default"])
def test_generator_flags_with_datasets_exit_two(flags):
    proc = run_script(SCRIPT, "--datasets", "wiki", *flags)
    assert_usage_error(proc)
    assert all(flag in proc.stderr for flag in flags if flag.startswith("--"))
    assert proc.stdout == ""


@pytest.mark.parametrize("seed", ["9", "5"], ids=["seed", "seed-at-default"])
def test_generator_seed_in_config_with_datasets_exits_two(seed, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seeds=0\nseed={seed}\n")
    proc = run_script(SCRIPT, "--datasets", "wiki", "--config", str(cfg))
    assert_usage_error(proc)
    assert "--seed" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, code", [
    (["--datasets", "wiki"], 2),
    (["--nodes-per-block", "10", "--triangles-per-block", "2", "--stats-only"], 0),
], ids=["datasets-seed", "planted-partition"])
def test_config_file_is_read_once(argv, code, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seeds=0\nseed=9\n")
    read = cli.RunConfig.read_file.__func__
    calls = []

    def counting(cls, *args, **kwargs):
        calls.append(args[0])
        return read(cls, *args, **kwargs)

    monkeypatch.setattr(cli.RunConfig, "read_file", classmethod(counting))
    assert load_script("gap_report").main([*argv, "--config", str(cfg)]) == code
    assert calls == [str(cfg)]
    if code == 2:  # the file's seed is still seen as given
        assert "--seed" in capsys.readouterr().err


def test_reads_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim=6\nseeds=1\nalgorithm=spectral\n")
    proc = run_script(SCRIPT, *TINY_GRID, "--config", str(cfg), "--dim", "4")
    assert proc.returncode == 0, proc.stderr
    assert "config: {'dim': 4," in proc.stdout  # the flag overrides the file
    assert "seeds: [1]" in proc.stdout  # the file overrides the default
    assert proc.stderr.splitlines()[-1].endswith("for 2 runs")


def test_bad_choice_in_config_file_exits_two(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=loose\n")
    proc = run_script(SCRIPT, "--config", str(cfg))
    assert_usage_error(proc)
    assert "mode: 'loose'" in proc.stderr
    assert "is not a setting" not in proc.stderr


def test_without_datasets(tmp_path):
    # a copy beside an empty datasets/ directory, whatever the checkout holds
    (tmp_path / "scripts").mkdir()
    (tmp_path / "datasets").mkdir()
    script = tmp_path / "scripts" / "gap_report.py"
    shutil.copy(SCRIPT, script)
    proc = run_script(script, "--datasets", "wiki", "routers")
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["skipping wiki", "skipping routers"]
    assert lines[-1] == "no datasets present, nothing to do"


def test_stats_only_skips_missing_datasets(ring_script):
    proc = run_script(ring_script, "--datasets", "routers", "wiki", "--stats-only")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("skipping routers:")
    assert lines[2].split()[:3] == ["wiki", "30", "40"]
    assert len(lines) == 3


def test_dataset_grid(ring_script, tmp_path):
    out = tmp_path / "rows.csv"
    proc = run_script(
        ring_script, "--datasets", "wiki", "--seeds", "0,1", "--dim", "4", "--epochs", "1",
        "--walks-per-node", "1", "--walk-length", "5", "--csv", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    # the generator seed is not a setting of a --datasets run
    config_line = next(line for line in proc.stdout.splitlines() if line.startswith("config:"))
    assert "'dim': 4," in config_line and "'seed'" not in config_line
    assert "== wiki: AUC over 2 seeds ==" in proc.stdout
    assert "== wiki: silhouette over 2 seeds ==" in proc.stdout
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 2 tasks x 4 algorithms x 2 variants x 2 seeds
    assert sum(row["seed"] != "summary" for row in rows) == 32


def test_dataset_reads_config_file(ring_script, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seeds=4\nalgorithm=spectral,line\ndim=4\n")
    out = tmp_path / "rows.csv"
    proc = run_script(ring_script, "--datasets", "wiki", "--config", str(cfg), "--epochs", "1",
                      "--line-samples-factor", "2", "--task", "linkpred", "--csv", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "== wiki: AUC over 1 seeds ==" in proc.stdout
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {(row["algorithm"], row["seed"]) for row in rows} == {("line", "4"), ("spectral", "4")}


@pytest.mark.parametrize("task", ["linkpred", "cluster"])
def test_csv_matches_cli_report(task, ring_script, capsys):
    """The script's rows are the CLI report's rows for the same settings:
    it adds nothing to them."""
    fast = ["--seeds", "0,1", "--dim", "4", "--epochs", "1", "--walks-per-node", "1",
            "--walk-length", "5", "--q", "0.5"]
    out = ring_script.parent / "rows.csv"
    proc = run_script(ring_script, "--datasets", "wiki", "--task", task, *fast,
                      "--csv", str(out))
    assert proc.returncode == 0, proc.stderr
    # the script's defaults of the settings the subcommand shares
    defaults = load_script("gap_report").build_parser().parse_args([]).run_settings
    shared = cli.build_parser().parse_args([task]).run_settings
    same = [arg for name in sorted(defaults.keys() & shared.keys())
            for arg in ("--" + name.replace("_", "-"), str(defaults[name]))]
    ring = ring_script.parent.parent / "datasets" / "wiki.edges"
    assert cli.main([task, "--input", str(ring), "--format", "csv", *same, *fast]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()
