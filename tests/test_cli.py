"""Command-line behavior: exit codes, output formats, config-file layering,
and byte-identical reruns. Commands are exercised through main(argv); one
subprocess test proves the module entry point."""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from typing import Literal, get_args, get_origin

import numpy as np
import pytest

from motifemb import (
    TrainConfig,
    build_transition_model,
    count_triangles,
    embed_graph,
    load_embedding_binary,
    load_embedding_text,
    make_split,
    null_model_rewire,
    run_report,
    train_line,
    train_spectral,
    unit_adjacency,
    write_edge_list,
)
from motifemb import cli, pipeline
from motifemb.cli import RunConfig, main
from motifemb.config import field_types
from motifemb.pipeline import ALGORITHMS, REPORT_COLUMNS

from conftest import SCRIPT_DIR, er_graph, load_script

FAST_FLAGS = [
    "--dim", "4", "--walks-per-node", "3", "--walk-length", "10",
    "--window", "2", "--negatives", "2", "--epochs", "2",
    "--batch-size", "64", "--line-samples-factor", "20",
]


@pytest.fixture()
def k3_file(tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text("a b\nb c\nc a\n")
    return str(path)


@pytest.fixture()
def er_file(tmp_path):
    path = tmp_path / "er.edges"
    write_edge_list(er_graph(25, 0.25, seed=4), path)
    return str(path)


def merged_config(argv, names, defaults=None) -> RunConfig:
    """The RunConfig that the shared merge builds from ``argv`` for a parser
    declaring the settings ``names``."""
    parser = argparse.ArgumentParser()
    cli.add_run_flags(parser, names, defaults)
    seen = []
    assert cli.run_command(parser, argv, lambda run, args: seen.append(run) or 0) == 0
    return seen[0]


class TestRunConfig:
    def test_file_round_trip(self, tmp_path):
        run = RunConfig(input="x.edges", dim=16, fraction=0.25, seeds="0,1")
        path = tmp_path / "run.cfg"
        values = dataclasses.asdict(run)
        path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        assert merged_config(["--config", str(path)], values) == run

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\ndim=8\nseed=3\n")
        run = merged_config(["--config", str(path)], ("dim", "seed"))
        assert run.dim == 8 and run.seed == 3

    def test_unknown_key_rejected_with_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dimension=8\n")
        with pytest.raises(ValueError, match="run.cfg:1"):
            RunConfig.read_file(path, ("dim",), "test")

    def test_bad_literal_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dim=eight\n")
        with pytest.raises(ValueError):
            RunConfig.read_file(path, ("dim",), "test")

    def test_defaults_under_file_under_flags(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dim=8\nepochs=3\n")
        run = merged_config(["--config", str(path), "--dim", "4"], ("dim", "epochs", "window"),
                            {"dim": 16, "epochs": 2, "window": 7})
        assert (run.dim, run.epochs, run.window) == (4, 3, 7)

    def test_non_number_in_float_field_rejected(self):
        with pytest.raises(ValueError, match=r"^fraction must be a number, got '0\.1'$"):
            RunConfig(fraction="0.1")

    def test_seed_list(self):
        assert RunConfig(seed=7).seed_list() == [7]
        assert RunConfig(seeds="0, 2,5").seed_list() == [0, 2, 5]

    @pytest.mark.parametrize("seeds", [",", " , ", "0,1,0", "3,3"])
    def test_seed_list_empty_or_repeated_rejected(self, seeds):
        with pytest.raises(ValueError, match="seeds"):
            RunConfig(seeds=seeds).seed_list()

    def test_algorithm_list(self):
        assert RunConfig().algorithm_list() == ALGORITHMS
        assert RunConfig(algorithm="line").algorithm_list() == ("line",)
        with pytest.raises(ValueError):
            RunConfig(algorithm="grarep").algorithm_list()

    def test_comma_lists_drop_empty_items(self):
        assert RunConfig(algorithm=" line,, spectral,").algorithm_list() == ("line", "spectral")
        assert RunConfig(variant=",mo").variant_list() == ("mo",)
        assert RunConfig(seeds="4,,2,").seed_list() == [4, 2]

    def test_variant_list(self):
        assert RunConfig().variant_list() == ("base", "mo")
        assert RunConfig(variant="mo").variant_list() == ("mo",)
        with pytest.raises(ValueError):
            RunConfig(variant="extra").variant_list()

    def test_threshold_value(self):
        assert RunConfig().threshold_value() is None
        assert RunConfig(threshold="0.4").threshold_value() == 0.4
        for bad in ("middle", "abc", "nan", "inf", "-inf"):
            with pytest.raises(ValueError, match="^threshold must be a finite number or the "
                                                 f"median, got '?{bad}'?$"):
                RunConfig(threshold=bad).threshold_value()


# per setting rule: the call that needs the value, then the pre-flights that
# reject it before any input is read (RunConfig) or anything is trained
ODD_DIM = TrainConfig(dim=5)
SETTING_RULES = {
    "fraction": (lambda g: make_split(g, 1.5, 0), [lambda g: RunConfig(fraction=1.5)]),
    "swaps_per_edge": (lambda g: null_model_rewire(g, 0, 0),
                       [lambda g: RunConfig(swaps_per_edge=0)]),
    "concat": (lambda g: train_line(g, unit_adjacency(g), ODD_DIM),
               [lambda g: embed_graph(g, "line", "base", ODD_DIM),
                lambda g: run_report(g, "toy", "linkpred", ("line",), config=ODD_DIM)]),
    "spectral-dim": (lambda g: train_spectral(g, unit_adjacency(g), g.node_count),
                     [lambda g: embed_graph(g, "spectral", "base",
                                            TrainConfig(dim=g.node_count))]),
    "mode": (lambda g: build_transition_model(g, count_triangles(g), "bogus"),
             [lambda g: embed_graph(g, "deepwalk", "mo", mode="bogus"),
              lambda g: run_report(g, "toy", "cluster", mode="bogus"),
              lambda g: RunConfig(mode="bogus")]),
    "clusters": (lambda g: run_report(g, "toy", "cluster", clusters=1),
                 [lambda g: RunConfig(clusters=1)]),
    "threshold": (lambda g: run_report(g, "toy", "linkpred", threshold=float("nan")),
                  [lambda g: RunConfig(threshold="nan").threshold_value()]),
}


@pytest.mark.parametrize("owner, pre_flights", SETTING_RULES.values(), ids=SETTING_RULES)
def test_owner_and_pre_flights_raise_one_message(owner, pre_flights):
    g = er_graph(12, 0.4, seed=3)
    messages = []
    for call in (owner, *pre_flights):
        with pytest.raises(ValueError) as raised:
            call(g)
        messages.append(str(raised.value))
    assert len(set(messages)) == 1, messages


TRAIN_FIELDS = [f for f in dataclasses.fields(TrainConfig) if f.name != "seed"]
RUN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}
STR_VALUES = {"input": "g.edges", "dataset_name": "g", "algorithm": "line", "variant": "mo",
              "seeds": "3,4", "threshold": "0.4", "out": "r.out"}


def non_default(name: str):
    """A valid value of the RunConfig field ``name`` that differs from its
    default."""
    typ, default = field_types(RunConfig)[name], RUN_DEFAULTS[name]
    if get_origin(typ) is Literal:
        return next(c for c in get_args(typ) if c != default)
    if typ is str:
        return STR_VALUES[name]
    return default + 1 if typ is int else default * 2


SCRIPT_ENTRY_POINTS = ("gap_report",)


def entry_parser(entry: str) -> tuple[argparse.ArgumentParser, list[str]]:
    """The parser of a subcommand or an experiment script, and the argv
    prefix that selects the entry point."""
    if entry in cli._COMMANDS:
        return cli.build_parser(), [entry]
    return load_script(entry).build_parser(), []


def declared(entry: str) -> dict:
    """The entry point's settings, each with its default."""
    parser, prefix = entry_parser(entry)
    return parser.parse_args(prefix).run_settings


ENTRY_POINTS = (*cli._COMMANDS, *SCRIPT_ENTRY_POINTS)
DECLARED = [(entry, name) for entry in ENTRY_POINTS for name in declared(entry)]
UNDECLARED = [(entry, name) for entry in ENTRY_POINTS for name in RUN_DEFAULTS
              if name not in declared(entry)]


def pair_ids(pairs) -> list[str]:
    """``entry-name`` test ids for (entry point, setting) parametrizations."""
    return [f"{entry}-{name}" for entry, name in pairs]


def captured_run(entry: str, argv) -> tuple[int, list[RunConfig]]:
    """Exit code and the RunConfig handed to the entry point's command."""
    parser, prefix = entry_parser(entry)
    seen = []
    code = cli.run_command(parser, [*prefix, *argv], lambda run, args: seen.append(run) or 0)
    return code, seen


class TestOneDeclaration:
    """Every TrainConfig hyperparameter is a --flag of each training command
    and a config-file key, and arrives in train_config() as given."""

    @pytest.mark.parametrize("command", ["embed", "linkpred", "cluster"])
    @pytest.mark.parametrize("field", TRAIN_FIELDS, ids=lambda f: f.name)
    def test_flag_and_file_key_reach_train_config(self, field, command, tmp_path,
                                                  monkeypatch):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, command,
                            lambda run: seen.append(run.train_config()) or 0)
        value = non_default(field.name)
        want = dataclasses.replace(TrainConfig(), **{field.name: value})

        flag = "--" + field.name.replace("_", "-")
        assert main([command, flag, str(value)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{field.name}={value}\n")
        assert main([command, "--config", str(cfg)]) == 0
        assert seen == [want, want]

    @pytest.mark.parametrize(
        "key,value",
        [("format", "xml"), ("mode", "loose"), ("line_order", "third"),
         ("synthetic", "er")],
    )
    def test_bad_choice_in_config_file_exits_two(self, key, value, k3_file,
                                                 tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        out = tmp_path / "report.out"
        code = main(["linkpred", "--input", k3_file, "--config", str(cfg),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not out.exists()

    def test_bad_emb_format_in_config_file_exits_two(self, k3_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("emb_format=bogus\n")
        out = tmp_path / "e.txt"
        code = main(["embed", "--input", k3_file, "--config", str(cfg),
                     "--algorithm", "spectral", "--variant", "base", "--dim", "2",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("entry,name", UNDECLARED, ids=pair_ids(UNDECLARED))
    def test_undeclared_file_key_exits_two(self, entry, name, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# not a setting here\n{name}={non_default(name)}\n")
        code, seen = captured_run(entry, ["--config", str(cfg)])
        assert code == 2 and not seen
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:2: config key {name!r} is not a setting of ")
        if entry in cli._COMMANDS:
            assert err.rstrip().endswith(f"motifemb {entry}")

    @pytest.mark.parametrize("entry", ["linkpred", *SCRIPT_ENTRY_POINTS])
    def test_repeated_file_key_exits_two(self, entry, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim=8\nseeds=1\n\ndim=16\n")
        code, seen = captured_run(entry, ["--config", str(cfg)])
        assert code == 2 and not seen
        assert capsys.readouterr().err == (
            f"error: {cfg}:4: config key 'dim' repeats (first set on line 1)\n")

    @pytest.mark.parametrize("entry,name", DECLARED, ids=pair_ids(DECLARED))
    def test_declared_file_key_and_flag_reach_the_run(self, entry, name, tmp_path):
        value = non_default(name)
        assert value != declared(entry)[name]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name}={value}\n")
        flag = "--" + name.replace("_", "-")
        for argv in (["--config", str(cfg)], [flag, str(value)]):
            code, seen = captured_run(entry, argv)
            assert code == 0 and getattr(seen[0], name) == value

    def test_entry_point_defaults_reach_the_run(self):
        for entry in ENTRY_POINTS:
            code, seen = captured_run(entry, [])
            assert code == 0
            assert {name: getattr(seen[0], name) for name in declared(entry)} == declared(entry)

    @pytest.mark.parametrize("flag,value", [("--format", "csv"), ("--dataset-name", "X")])
    def test_embed_rejects_flags_it_does_not_read(self, flag, value, capsys):
        with pytest.raises(SystemExit) as err:
            main(["embed", flag, value])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("entry,dim", [("gap_report", 8), ("linkpred", 64)])
    def test_help_shows_the_effective_default(self, entry, dim, capsys):
        parser, prefix = entry_parser(entry)
        with pytest.raises(SystemExit):
            parser.parse_args([*prefix, "--help"])
        assert re.search(rf"--dim DIM\s+default: {dim}\n", capsys.readouterr().out)

    @pytest.mark.parametrize("entry,name", DECLARED, ids=pair_ids(DECLARED))
    def test_help_shows_each_declared_default(self, entry, name, capsys):
        """--help gives every declared flag the default a run gets, the
        entry point's own where it replaces RunConfig's."""
        parser, prefix = entry_parser(entry)
        with pytest.raises(SystemExit):
            parser.parse_args([*prefix, "--help"])
        text = " ".join(capsys.readouterr().out.split())  # undo line wrapping
        flag = "--" + name.replace("_", "-")
        shown = re.escape(f"default: {declared(entry)[name]!r}")
        assert re.search(rf"{flag}(?: \S+)? {shown}(?: |$)", text), (flag, text)

    @pytest.mark.parametrize(
        "command,flag,value",
        [("stats", "--format", "xml"), ("embed", "--mode", "loose"),
         ("embed", "--line-order", "third"), ("stats", "--synthetic", "er"),
         ("embed", "--emb-format", "bogus")],
    )
    def test_bad_choice_flag_exits_two(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, flag, value])
        assert err.value.code == 2
        capsys.readouterr()


class TestExitCodes:
    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["stats", "--no-such-flag"])
        assert err.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_no_graph_source(self, capsys):
        assert main(["stats"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_input_and_synthetic_conflict(self, k3_file, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["stats", "--input", k3_file, "--synthetic", "ppm",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--input" in err and "--synthetic" in err
        assert not out.exists()

    def test_missing_file(self, capsys):
        assert main(["stats", "--input", "/nonexistent/g.edges"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_edge_file(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("a b\nc\n")
        assert main(["stats", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_negative_null_model_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["motifs", "--synthetic", "ppm", "--null-model", "-3",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: null_model")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["embed", "--algorithm", "node2vec", "--p", "nan"],
         ["embed", "--algorithm", "node2vec", "--q", "1e-310"],
         ["linkpred", "--threshold", "nan"]],
        ids=["p-nan", "q-subnormal", "threshold-nan"],
    )
    def test_non_finite_setting_exits_two(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([*argv, "--synthetic", "ppm", "--variant", "base",
                     "--out", str(out), *FAST_FLAGS])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("argv, setting", [
        (["linkpred", "--algorithm", "bogus"], "algorithm"),
        (["cluster", "--variant", "mo,mo"], "variants repeat"),
        (["linkpred", "--seeds", "1,1"], "seeds repeat"),
        (["linkpred", "--threshold", "inf"], "threshold"),
        (["linkpred", "--threshold", "abc"], "threshold"),
        (["linkpred", "--seeds", "0,-1"], "seed must be >= 0"),
        (["cluster", "--seed", "-2"], "seed must be >= 0"),
        (["embed", "--algorithm", "deepwalk,line", "--out", "x"], "exactly one --algorithm"),
        (["embed", "--algorithm", "line", "--out", "x"], "exactly one --variant"),
        (["embed", "--algorithm", "line", "--variant", "mo"], "--out"),
        (["linkpred", "--fraction", "2"], "fraction must be in (0, 1)"),
        (["motifs", "--null-model", "2", "--swaps-per-edge", "0"],
         "swaps_per_edge must be >= 1"),
        (["cluster", "--clusters", "1"], "clusters must be >= 2"),
    ], ids=["linkpred-algorithm", "cluster-variant", "seeds", "threshold",
            "threshold-unparseable", "seeds-negative", "seed-negative",
            "embed-algorithm", "embed-variant", "embed-out", "fraction", "swaps-per-edge",
            "clusters"])
    def test_bad_setting_is_reported_before_the_input_is_read(self, argv, setting,
                                                              tmp_path, capsys):
        missing = str(tmp_path / "missing.edges")
        assert main([*argv, "--input", missing]) == 2
        err = capsys.readouterr().err
        assert setting in err and "missing.edges" not in err

    def test_setting_the_graph_rules_out_exits_before_any_training(self, tmp_path, capsys,
                                                                   monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("split or embedded before the settings were checked")

        monkeypatch.setattr(pipeline, "make_split", refuse)
        monkeypatch.setattr(pipeline, "embed_graph", refuse)
        out = tmp_path / "report.json"
        assert main(["linkpred", "--synthetic", "ppm", "--dim", "7", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: concat order needs an even "
                                                  "dimension, got dim 7")
        assert not out.exists()

    def test_success_is_zero(self, k3_file, capsys):
        assert main(["stats", "--input", k3_file]) == 0
        capsys.readouterr()


class TestStats:
    def test_json_payload(self, k3_file, capsys):
        assert main(["stats", "--input", k3_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "num_nodes": 3,
            "num_edges": 3,
            "max_degree": 2,
            "avg_degree": 2.0,
            "density": 1.0,
        }

    def test_csv_payload(self, k3_file, capsys):
        assert main(["stats", "--input", k3_file, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",") == [
            "num_nodes", "num_edges", "max_degree", "avg_degree", "density"
        ]
        assert lines[1].split(",")[0] == "3"

    def test_out_writes_file(self, k3_file, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["stats", "--input", k3_file, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["num_nodes"] == 3


class TestMotifs:
    def test_json_contract(self, k3_file, capsys):
        assert main(["motifs", "--input", k3_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_motifs"] == 1
        assert payload["node_degree"] == [1, 1, 1]
        assert payload["edge_degree"] == [[0, 1, 1], [0, 2, 1], [1, 2, 1]]
        assert "null_model" not in payload

    def test_csv_rows(self, k3_file, capsys):
        assert main(["motifs", "--input", k3_file, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "u,v,edge_motif_degree"
        assert lines[1:] == ["0,1,1", "0,2,1", "1,2,1"]

    def test_csv_with_null_model_exits_two(self, k3_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["motifs", "--input", k3_file, "--format", "csv", "--null-model", "3",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--null-model" in err and "csv" in err
        assert not out.exists()

    def test_null_model_block(self, k3_file, capsys):
        # degree-preserving rewiring cannot change a triangle, so the null
        # distribution collapses to the real count
        assert main(["motifs", "--input", k3_file, "--null-model", "4"]) == 0
        block = json.loads(capsys.readouterr().out)["null_model"]
        assert block["samples"] == 4
        assert block["swaps_per_edge"] == 10
        assert block["real_total"] == 1
        assert block["mean"] == 1.0
        assert block["std"] == 0.0

    def test_null_model_detects_excess(self, tmp_path, capsys):
        # two bridged triangles carry more triangles than degree-matched
        # rewirings typically keep
        path = tmp_path / "tt.edges"
        path.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n")
        assert main(
            ["motifs", "--input", str(path), "--null-model", "30",
             "--swaps-per-edge", "5"]
        ) == 0
        block = json.loads(capsys.readouterr().out)["null_model"]
        assert block["real_total"] == 2
        assert block["mean"] < 2.0


class TestEmbed:
    def test_out_is_required(self, k3_file, capsys):
        code = main(
            ["embed", "--input", k3_file, "--algorithm", "spectral",
             "--variant", "base", "--dim", "2"]
        )
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_single_algorithm_required(self, k3_file, tmp_path, capsys):
        code = main(
            ["embed", "--input", k3_file, "--out", str(tmp_path / "e.txt")]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_text_output_keeps_labels(self, k3_file, tmp_path):
        out = tmp_path / "e.txt"
        assert main(
            ["embed", "--input", k3_file, "--algorithm", "spectral",
             "--variant", "base", "--dim", "2", "--out", str(out)]
        ) == 0
        emb, labels = load_embedding_text(out)
        assert labels == ["a", "b", "c"]
        assert emb.vectors.shape == (3, 2)
        assert emb.provenance["algorithm"] == "spectral"
        assert emb.provenance["variant"] == "base"

    def test_comment_prefixed_labels_round_trip(self, tmp_path):
        # '#x' and '%y' are labels here: only a line that starts with '#'
        # or '%' is a comment
        edges = tmp_path / "g.edges"
        edges.write_text("a #x\nb %y\na b\n")
        out = tmp_path / "e.txt"
        assert main(["embed", "--input", str(edges), "--algorithm", "spectral",
                     "--variant", "base", "--dim", "2", "--out", str(out)]) == 0
        emb, labels = load_embedding_text(out)
        assert labels == ["a", "#x", "b", "%y"]
        assert emb.vectors.shape == (4, 2)

    def test_binary_output(self, er_file, tmp_path):
        out = tmp_path / "e.bin"
        assert main(
            ["embed", "--input", er_file, "--algorithm", "deepwalk",
             "--variant", "mo", "--emb-format", "binary", "--out", str(out),
             *FAST_FLAGS]
        ) == 0
        emb = load_embedding_binary(out)
        assert emb.vectors.shape == (25, 4)

    def test_config_file_with_flag_override(self, k3_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algorithm=spectral\nvariant=base\ndim=2\nseed=9\n")
        out = tmp_path / "e.txt"
        assert main(
            ["embed", "--input", k3_file, "--config", str(cfg),
             "--seed", "3", "--out", str(out)]
        ) == 0
        emb, _ = load_embedding_text(out)
        assert emb.provenance["dim"] == "2"  # from file
        assert emb.provenance["seed"] == "3"  # flag wins


class TestReports:
    def linkpred_args(self, er_file, fmt):
        return [
            "linkpred", "--input", er_file, "--algorithm", "spectral",
            "--variant", "all", "--seeds", "0,1", "--fraction", "0.2",
            "--format", fmt, "--dim", "4",
        ]

    def test_csv_report_rows(self, er_file, capsys):
        assert main(self.linkpred_args(er_file, "csv")) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == list(REPORT_COLUMNS)
        body = rows[1:]
        # 1 algorithm x 2 variants x 2 seeds + 2 summary rows
        assert len(body) == 6
        summaries = [r for r in body if r[3] == "summary"]
        assert len(summaries) == 2
        for r in summaries:
            assert "±" in r[4]
        for r in body:
            if r[3] != "summary":
                assert 0.0 <= float(r[4]) <= 1.0
                assert r[10] == ""  # sc column empty for linkpred

    def test_json_report_echoes_config(self, er_file, capsys):
        assert main(self.linkpred_args(er_file, "json")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["fraction"] == 0.2
        assert payload["config"]["algorithm"] == "spectral"
        assert len(payload["rows"]) == 6

    @pytest.mark.parametrize("seeds", [",", "0,0"])
    def test_empty_or_repeated_seeds_exit_two(self, er_file, seeds, tmp_path, capsys):
        out = tmp_path / "report.json"
        args = self.linkpred_args(er_file, "json")
        args[args.index("--seeds") + 1] = seeds
        assert main(args + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: seeds")
        assert not out.exists()

    @pytest.mark.parametrize("flag, names, what", [
        ("--algorithm", "spectral,spectral", "algorithms"),
        ("--variant", "mo,base,mo", "variants"),
    ])
    def test_repeated_algorithm_or_variant_exits_two(self, er_file, flag, names, what,
                                                     tmp_path, capsys):
        out = tmp_path / "report.json"
        args = ["cluster", "--input", er_file, "--algorithm", "spectral", "--variant", "base",
                "--seeds", "0,1", "--dim", "4", "--out", str(out)]
        args[args.index(flag) + 1] = names
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {what} repeat")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--algorithm", ",", "algorithms lists no algorithm: ','"),
        ("--variant", "", "variants lists no variant: ''"),
        ("--seeds", "a", "bad seed in seeds: 'a'"),
        ("--seeds", "0,1.5", "bad seed in seeds: '0,1.5'"),
    ])
    def test_unusable_list_exits_two_naming_the_setting(self, er_file, flag, value, message,
                                                        tmp_path, capsys):
        out = tmp_path / "report.json"
        args = ["cluster", "--input", er_file, "--algorithm", "spectral", "--variant", "base",
                "--seeds", "0,1", "--dim", "4", "--out", str(out)]
        args[args.index(flag) + 1] = value
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_reruns_are_byte_identical(self, er_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = self.linkpred_args(er_file, "csv")
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_report_does_not_depend_on_out_path(self, er_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["cluster", "--input", er_file, "--algorithm", "spectral", "--seeds", "0,1",
                "--dim", "4"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "out" not in json.loads(a.read_text())["config"]

    @pytest.mark.parametrize("command", ["linkpred", "cluster"])
    def test_json_report_regenerates_from_its_config_block(self, command, er_file,
                                                           tmp_path):
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        assert main([command, "--input", er_file, "--algorithm", "spectral,deepwalk",
                     "--seeds", "0,1", *FAST_FLAGS, "--out", str(first)]) == 0
        config = json.loads(first.read_text())["config"]
        assert set(config) == set(declared(command)) - {"out"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in config.items()))
        assert main([command, "--config", str(cfg), "--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()

    def test_fewer_than_two_clusters_exits_two(self, er_file, tmp_path, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(cli, "run_report", lambda *a, **kw: trained.append(a))
        out = tmp_path / "report.json"
        assert main(["cluster", "--input", er_file, "--clusters", "1", "--dim", "4",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: clusters must be >= 2")
        assert not trained and not out.exists()

    def test_more_clusters_than_nodes_exits_two(self, er_file, tmp_path, capsys,
                                                monkeypatch):
        embedded = []
        monkeypatch.setattr(pipeline, "embed_graph", lambda *a: embedded.append(a))
        out = tmp_path / "report.json"
        assert main(["cluster", "--input", er_file, "--clusters", "500", "--dim", "4",
                     "--out", str(out)]) == 2
        assert "<= the node count" in capsys.readouterr().err
        assert not embedded and not out.exists()

    def test_cluster_report(self, er_file, capsys):
        assert main(
            ["cluster", "--input", er_file, "--algorithm", "spectral",
             "--variant", "base", "--clusters", "3", "--dim", "4",
             "--format", "csv"]
        ) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        body = rows[1:]
        assert len(body) == 1
        assert -1.0 <= float(body[0][10]) <= 1.0
        assert body[0][4] == ""  # auc column empty for clustering

    def test_synthetic_source(self, capsys):
        # tiny spectral run on the generated benchmark graph
        assert main(
            ["cluster", "--synthetic", "ppm", "--algorithm", "spectral",
             "--variant", "base", "--dim", "4", "--format", "csv"]
        ) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[1][0] == "ppm"


class TestModuleEntryPoint:
    def test_python_dash_m(self, k3_file):
        # the subprocess finds the package as pytest's pythonpath does
        env = {**os.environ, "PYTHONPATH": str(SCRIPT_DIR.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "motifemb", "stats", "--input", k3_file],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["num_edges"] == 3
