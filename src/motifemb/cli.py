"""Command-line interface.

Subcommands: stats, motifs, embed, linkpred, cluster. Shared flags: --input,
--config, --seed, --out; all but embed take --format {json,csv}. RunConfig
(the TrainConfig hyperparameters plus run-level fields) declares every
setting, typed and, for Literal fields, restricted to its choices. Each
entry point (a subcommand or a script) names the fields it reads: they are
its --flags (--help shows their defaults), its config-file keys and the
config block of its JSON report. A config file holds flat key=value lines;
explicit flags override file values, which override defaults, and the merged
values are validated once. Exit code 0 on success, 2 on bad input: an
unparseable graph, missing files, conflicting flags, a config key that is
not a flag or that repeats, or a setting that its owner's check rejects.
Before any input is read, RunConfig runs TrainConfig's field checks and
``evaluation.check_fraction``, ``graph.check_swaps_per_edge``,
``pipeline.check_clusters``, and, in its accessors, ``pipeline.check_list``
and ``pipeline.check_threshold``. Once the graph is read,
``pipeline._check_setting`` runs the per-algorithm checks before anything
is split or trained.

``add_run_flags`` and ``run_command`` parse it, for ``main`` and for the
experiment scripts in scripts/.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, get_args, get_origin

from .config import TrainConfig, field_types
from .evaluation import check_fraction
from .graph import check_swaps_per_edge, graph_stats, load_edge_list
from .motifs import MotifMode, count_triangles, null_model_totals
from .pipeline import (
    ALGORITHMS,
    VARIANTS,
    check_clusters,
    check_list,
    check_threshold,
    csv_text,
    embed_graph,
    json_text,
    run_report,
    write_report_csv,
    write_report_json,
)
from .embedding import save_embedding_binary, save_embedding_text
from .synth import planted_partition

__all__ = ["RunConfig", "HYPERPARAMETERS", "add_run_flags", "run_command", "main"]


@dataclass(frozen=True)
class RunConfig(TrainConfig):
    """Everything a run needs, flat and file-serializable: the inherited
    TrainConfig hyperparameters plus the run-level fields below.

    List-valued settings (algorithm, variant, seeds) are comma strings so the
    key=value file format stays trivial; accessor methods parse them.
    """

    input: str = ""
    synthetic: Literal["", "ppm"] = ""
    dataset_name: str = ""
    algorithm: str = "all"
    variant: str = "all"
    mode: MotifMode = "strict"
    seeds: str = ""  # comma list; empty means [seed]
    fraction: float = 0.1
    threshold: str = "median"  # "median" or a float literal
    clusters: int = 2
    null_model: int = 0
    swaps_per_edge: int = 10
    emb_format: Literal["text", "binary"] = "text"
    out: str = ""  # empty means stdout
    format: Literal["json", "csv"] = "json"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.null_model < 0:
            raise ValueError("null_model must be >= 0")
        check_clusters(self.clusters)  # the node count is not known yet
        check_fraction(self.fraction)
        check_swaps_per_edge(self.swaps_per_edge)

    @classmethod
    def read_file(cls, path, names, entry: str) -> dict:
        """Typed ``{field: value}`` for the key=value lines of a config file
        of the entry point ``entry``, whose settings are the fields ``names``."""
        values, first_line = {}, {}
        types = field_types(cls)
        text = Path(path).read_text()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected key=value, got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            typ = types.get(key)
            if typ is None:
                raise ValueError(f"{where}: unknown config key {key!r}")
            if key not in names:
                raise ValueError(f"{where}: config key {key!r} is not a setting of {entry}")
            if key in first_line:
                raise ValueError(f"{where}: config key {key!r} repeats "
                                 f"(first set on line {first_line[key]})")
            first_line[key] = lineno
            try:
                values[key] = typ(value) if typ in (int, float) else value
            except ValueError:
                raise ValueError(f"{where}: bad value for {key}: {value!r}") from None
        return values

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name)
                              for f in dataclasses.fields(TrainConfig)})

    def seed_list(self) -> list[int]:
        if not self.seeds:
            return [self.seed]
        try:
            seeds = [int(tok) for tok in _comma_list(self.seeds)]
        except ValueError:
            raise ValueError(f"bad seed in seeds: {self.seeds!r}") from None
        check_list(seeds, "seed", given=self.seeds)
        for seed in seeds:
            self.with_seed(seed)  # raises for a seed TrainConfig rejects
        return seeds

    def algorithm_list(self) -> tuple[str, ...]:
        return _choose(self.algorithm, ALGORITHMS, "algorithm")

    def variant_list(self) -> tuple[str, ...]:
        return _choose(self.variant, VARIANTS, "variant")

    def threshold_value(self) -> float | None:
        if self.threshold == "median":
            return None
        try:
            value = float(self.threshold)
        except ValueError:
            value = self.threshold  # not a number, so check_threshold quotes it
        check_threshold(value)
        return value

    def report_arguments(self) -> dict:
        """``run_report``'s keyword arguments for this run. Each list is parsed
        and checked here, in this order, so bad settings raise ValueError
        before any input is read."""
        return dict(algorithms=self.algorithm_list(), variants=self.variant_list(),
                    seeds=self.seed_list(), threshold=self.threshold_value(),
                    config=self.train_config(), fraction=self.fraction, mode=self.mode,
                    clusters=self.clusters)


def _comma_list(value: str) -> list[str]:
    """The items of a comma list, stripped; empty items are dropped."""
    return [tok.strip() for tok in value.split(",") if tok.strip()]


def _choose(value: str, allowed: tuple[str, ...], what: str) -> tuple[str, ...]:
    """``allowed`` for "all", else the comma list, as ``check_list`` takes it."""
    if value == "all":
        return allowed
    chosen = tuple(_comma_list(value))
    check_list(chosen, what, allowed, given=value)
    return chosen


def _load_graph(run: RunConfig):
    """(graph, dataset name) from --input or the synthetic generator."""
    if run.synthetic and run.input:
        raise ValueError("--input and --synthetic conflict: pass one graph source")
    if run.synthetic:
        g, _ = planted_partition(seed=run.seed)
        return g, run.dataset_name or "ppm"
    if not run.input:
        raise ValueError("no graph given: pass --input FILE or --synthetic ppm")
    g = load_edge_list(run.input)
    return g, run.dataset_name or Path(run.input).stem


def _emit(text: str, run: RunConfig) -> None:
    if run.out:
        Path(run.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_stats(run: RunConfig) -> int:
    """graph summary statistics"""
    g, _ = _load_graph(run)
    stats = dataclasses.asdict(graph_stats(g))
    text = csv_text(stats.keys(), [stats.values()]) if run.format == "csv" else json_text(stats)
    _emit(text, run)
    return 0


def cmd_motifs(run: RunConfig) -> int:
    """triangle participation counts"""
    if run.format == "csv" and run.null_model > 0:
        raise ValueError("--null-model and --format csv conflict: csv has no null-model block")
    g, _ = _load_graph(run)
    stats = count_triangles(g)
    rows = [[u, v, c] for (u, v), c in zip(g.edges.tolist(), stats.edge_values.tolist())]
    if run.format == "csv":
        _emit(csv_text(("u", "v", "edge_motif_degree"), rows), run)
        return 0
    payload: dict = {
        "total_motifs": stats.total_motifs,
        "node_degree": stats.node_degree.tolist(),
        "edge_degree": rows,
    }
    if run.null_model > 0:
        arr = null_model_totals(g, run.null_model, run.swaps_per_edge, run.seed)
        payload["null_model"] = {
            "samples": run.null_model,
            "swaps_per_edge": run.swaps_per_edge,
            "mean": float(arr.mean()),
            "std": float(arr.std()),
            "real_total": stats.total_motifs,
        }
    _emit(json_text(payload), run)
    return 0


def cmd_embed(run: RunConfig) -> int:
    """train one embedding and write it out"""
    algorithms = run.algorithm_list()
    if len(algorithms) != 1:
        raise ValueError("embed needs exactly one --algorithm")
    variants = run.variant_list()
    if len(variants) != 1:
        raise ValueError("embed needs exactly one --variant (base or mo)")
    if not run.out:
        raise ValueError("embed needs --out FILE")
    g, _ = _load_graph(run)  # read only once the settings hold
    emb = embed_graph(g, algorithms[0], variants[0], run.train_config(), run.mode)
    if run.emb_format == "binary":
        save_embedding_binary(emb, run.out)
    else:
        save_embedding_text(emb, run.out, labels=g.labels)
    return 0


def _report_command(run: RunConfig, task: str) -> int:
    settings = run.report_arguments()
    g, dataset = _load_graph(run)  # read only once the settings hold
    rows = run_report(g, dataset, task, **settings)
    if run.format == "csv":
        _emit(write_report_csv(rows), run)
    else:
        # the command's settings; where the report goes is not part of the
        # run, so one run written to two paths gives the same bytes
        config = {name: getattr(run, name) for name in _COMMAND_FLAGS[task] if name != "out"}
        _emit(write_report_json(rows, config), run)
    return 0


def cmd_linkpred(run: RunConfig) -> int:
    """edge-holdout link prediction report"""
    return _report_command(run, "linkpred")


def cmd_cluster(run: RunConfig) -> int:
    """k-means + silhouette report"""
    return _report_command(run, "cluster")


_COMMANDS = {
    "stats": cmd_stats,
    "motifs": cmd_motifs,
    "embed": cmd_embed,
    "linkpred": cmd_linkpred,
    "cluster": cmd_cluster,
}

# the TrainConfig fields a run sets by flag (the seed is a common flag)
HYPERPARAMETERS = tuple(f.name for f in dataclasses.fields(TrainConfig) if f.name != "seed")
_COMMON_FLAGS = ("input", "synthetic", "seed", "out")
_TRAIN_FLAGS = ("algorithm", "variant", "mode", *HYPERPARAMETERS)
_REPORT_FLAGS = (*_COMMON_FLAGS, "format", *_TRAIN_FLAGS, "dataset_name", "seeds")
# each subcommand's settings: its flags and the keys its config file may set
_COMMAND_FLAGS = {
    "stats": (*_COMMON_FLAGS, "format"),
    "motifs": (*_COMMON_FLAGS, "format", "null_model", "swaps_per_edge"),
    "embed": (*_COMMON_FLAGS, *_TRAIN_FLAGS, "emb_format"),
    "linkpred": (*_REPORT_FLAGS, "fraction", "threshold"),
    "cluster": (*_REPORT_FLAGS, "clusters"),
}


def add_run_flags(p: argparse.ArgumentParser, names, defaults=None) -> None:
    """Declare the RunConfig fields ``names`` as the settings of ``p``'s runs:
    ``--config FILE``, whose keys must be among them, plus one --flag each,
    typed and restricted like the field. ``defaults`` replaces RunConfig's
    default of some of them; --help shows each flag's effective default. The
    parsed namespace carries the settings, with their defaults, as
    ``run_settings``."""
    defaults = defaults or {}
    field_defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    settings = {name: defaults.get(name, field_defaults[name]) for name in names}
    p.add_argument("--config", dest="config_file", metavar="FILE",
                   help="key=value lines; each key is one of these flags")
    types = field_types(RunConfig)
    for name, default in settings.items():
        typ = types[name]
        # argparse's own default stays None, so an omitted flag never
        # overrides the file
        kw: dict = {"help": f"default: {default!r}".replace("%", "%%")}
        if get_origin(typ) is Literal:
            kw["choices"] = [c for c in get_args(typ) if c]  # "" means unset
        elif typ in (int, float):
            kw["type"] = typ
        p.add_argument("--" + name.replace("_", "-"), **kw)
    p.set_defaults(run_settings=settings, run_entry=p.prog)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motifemb",
        description="Triangle-aware graph embeddings and their evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, names in _COMMAND_FLAGS.items():
        p = sub.add_parser(command, help=_COMMANDS[command].__doc__)
        add_run_flags(p, names)
    return parser


def run_command(parser: argparse.ArgumentParser, argv, command) -> int:
    """``command(run, args)`` for ``argv`` parsed by an ``add_run_flags`` parser:
    ``run`` merges the declared defaults <- --config file <- explicit flags,
    validated once, and ``args.run_given`` names the settings that the file
    or a flag set. Bad input there or in ``command`` prints ``error: ...``,
    returns 2."""
    args = parser.parse_args(argv)
    try:
        given = (RunConfig.read_file(args.config_file, args.run_settings, args.run_entry)
                 if args.config_file else {})
        given.update((key, value) for key, value in vars(args).items()
                     if key in args.run_settings and value is not None)
        args.run_given = frozenset(given)
        return command(RunConfig(**{**args.run_settings, **given}), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run_command(build_parser(), argv, lambda run, args: _COMMANDS[args.command](run))


if __name__ == "__main__":
    sys.exit(main())
