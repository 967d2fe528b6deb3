"""Spans and counters around the public functions of every motifemb module.

The program is not edited: ``Tracer.install`` replaces each target function,
by identity, wherever a loaded ``motifemb.*`` module binds it (as a module
global or inside a module-level dict such as the CLI's command table), so a
call site that moves to another module is still traced. ``uninstall`` puts
every original back.

A span records its name, start, end, parent span and the rep (one timed
repetition of a workload) it belongs to. Spans stay in memory until
``write_spans``. A span's self time is its duration minus its children's
durations and minus the time this tracer spent in its own counting hooks.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

TARGETS = {
    "graph": ["Graph.from_edges", "parse_edge_list", "load_edge_list",
              "write_edge_list", "graph_stats", "null_model_rewire"],
    "synth": ["planted_partition"],
    "motifs": ["count_triangles", "build_motif_adjacency", "build_transition_model",
               "unit_adjacency", "uniform_transitions"],
    "walks": ["generate_walks", "node2vec_walks"],
    "sgns": ["train_sgns", "extract_pairs", "noise_distribution"],
    "line": ["train_line", "edge_sampling_tables"],
    # eigsh is scipy's, bound into motifemb.spectral; wrapping it there
    # counts ARPACK calls and the failures that fall back to dense LAPACK
    "spectral": ["train_spectral", "normalized_laplacian", "smallest_eigenpairs", "eigsh"],
    "evaluation": ["make_split", "cosine_scores", "compute_metrics",
                   "kmeans_cluster", "silhouette_score"],
    "embedding": ["save_embedding_text", "load_embedding_text",
                  "save_embedding_binary", "load_embedding_binary"],
    "pipeline": ["embed_graph", "linkpred_row", "cluster_row", "run_report",
                 "write_report_csv", "write_report_json"],
    "cli": ["main", "cmd_stats", "cmd_motifs", "cmd_embed", "cmd_linkpred", "cmd_cluster"],
}

# per-rep counters that must repeat exactly between reps and between runs
COUNT_KEYS = (
    "evaluation.make_split.distinct_inputs",
    "evaluation.holdout_shortfall",
    "motifs.count_triangles.distinct_inputs",
    "motifs.count_triangles.edges",
    "motifs.strict_fallback_rows",
    "walks.tokens",
    "walks.slots",
    "sgns.updates",
    "line.samples",
    "spectral.dense_fallbacks",
    "evaluation.zero_norm_pairs",
    "graph.load_edge_list.lines",
    "graph.null_model_rewire.edges_changed",
    "graph.null_model_rewire.edges",
    "embedding.bytes_written",
)


def _motifemb_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "motifemb" or name.startswith("motifemb."))]


class Patcher:
    """Swap functions for wrappers wherever motifemb binds them; undo later."""

    def __init__(self):
        self._undo: list[tuple[object, object, object]] = []

    def install(self, targets: dict[str, list[str]], wrap) -> None:
        """``wrap(span_name, fn)`` returns the replacement for ``fn``."""
        by_id: dict[int, object] = {}
        for module, names in targets.items():
            home = sys.modules[f"motifemb.{module}"]
            for qual in names:
                span = f"{module}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if not isinstance(raw, classmethod):
                        raise TypeError(f"{span}: only classmethods are wrapped on classes")
                    self._set(cls, attr, classmethod(wrap(span, raw.__func__)))
                else:
                    fn = getattr(home, qual)
                    by_id[id(fn)] = (fn, wrap(span, fn))
        for mod in _motifemb_modules():
            for key, val in list(vars(mod).items()):
                if id(val) in by_id and by_id[id(val)][0] is val:
                    self._set(mod, key, by_id[id(val)][1])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in by_id and by_id[id(v)][0] is v:
                            self._set(val, k, by_id[id(v)][1])

    def _set(self, where, key, value) -> None:
        if isinstance(where, dict):
            self._undo.append((where, key, where[key]))
            where[key] = value
        else:  # the raw __dict__ entry, so a classmethod is restored as one
            self._undo.append((where, key, vars(where)[key]))
            setattr(where, key, value)

    def uninstall(self) -> None:
        for where, key, old in reversed(self._undo):
            if isinstance(where, dict):
                where[key] = old
            else:
                setattr(where, key, old)
        self._undo.clear()


class Tracer:
    """Collects spans and per-rep counters for the functions in TARGETS."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [span index, child seconds]
        self._patcher = Patcher()
        self._sigs: dict[str, inspect.Signature] = {}
        self._last_pairs = 0
        self.begin_rep(-1)

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        self._patcher.install(TARGETS, self._wrap)

    def uninstall(self) -> None:
        self._patcher.uninstall()

    def _wrap(self, name: str, fn):
        tracer = self
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        if hook is not None:
            self._sigs[name] = inspect.signature(fn)
        track_alloc = name == "evaluation.silhouette_score"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            if track_alloc:
                tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx, error=type(exc).__name__)
                if name == "spectral.eigsh" and type(exc).__name__ == "ArpackNoConvergence":
                    tracer.counts["spectral.dense_fallbacks"] += 1
                raise
            finally:
                if track_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.counts_max["evaluation.silhouette_score.peak_alloc_mb"] = max(
                        tracer.counts_max["evaluation.silhouette_score.peak_alloc_mb"],
                        peak / 2**20)
            tracer._close(idx)
            if hook is not None:
                t0 = time.perf_counter()
                bound = tracer._sigs[name].bind(*args, **kwargs)
                bound.apply_defaults()
                hook(out, **bound.arguments)
                tracer._charge_parent(time.perf_counter() - t0)
            return out

        return traced

    # -- spans ------------------------------------------------------------
    def begin_rep(self, rep: int) -> None:
        self.rep = rep
        self.counts: Counter = Counter()
        self.counts_max: defaultdict = defaultdict(float)
        self._keys: defaultdict = defaultdict(set)
        self._rep_first_span = len(self.spans)

    def _open(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append({"run": self.run_id, "rep": self.rep, "name": name,
                           "parent": parent, "start": time.perf_counter(), "end": None})
        idx = len(self.spans) - 1
        self._stack.append([idx, 0.0])
        return idx

    def _close(self, idx: int, error: str | None = None) -> None:
        end = time.perf_counter()
        top, child_s = self._stack.pop()
        if top != idx:
            raise RuntimeError("span stack out of order")
        span = self.spans[idx]
        span["end"] = end
        dur = end - span["start"]
        span["self"] = dur - child_s
        if error:
            span["error"] = error
        self._charge_parent(dur)

    def _charge_parent(self, seconds: float) -> None:
        if self._stack:
            self._stack[-1][1] += seconds

    def rep_layers(self) -> dict:
        """Per-function calls, total and self seconds of the current rep,
        keyed ``<span>.calls`` / ``.total_s`` / ``.self_s``, plus the
        rep's counters."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans[self._rep_first_span:]:
            if span["end"] is None:
                continue
            name = span["name"]
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += span["end"] - span["start"]
            out[f"{name}.self_s"] += span["self"]
        for key in COUNT_KEYS:
            out[key] = self.counts[key]
        out.update(self.counts_max)
        return dict(out)

    def modules_seen(self) -> set[str]:
        return {s["name"].split(".")[0] for s in self.spans[self._rep_first_span:]}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **span}) + "\n")

    # -- counters computed from arguments and results, outside the span ---
    def _distinct(self, key: str, value) -> bool:
        seen = self._keys[key]
        new = value not in seen
        seen.add(value)
        if new:
            self.counts[key] += 1
        return new

    def _after_evaluation_make_split(self, out, g, fraction, seed, protect_connectivity, **_):
        if self._distinct("evaluation.make_split.distinct_inputs",
                          (hash(g), fraction, seed, protect_connectivity)):
            requested = int(math.floor(fraction * g.edge_count + 1e-9))
            self.counts["evaluation.holdout_shortfall"] += requested - len(out.test_edges)

    def _after_motifs_count_triangles(self, out, g, **_):
        self.counts["motifs.count_triangles.edges"] += g.edge_count
        self._distinct("motifs.count_triangles.distinct_inputs", hash(g))

    def _after_motifs_build_transition_model(self, out, g, stats, mode, **_):
        if mode == "strict":
            fallback = (stats.node_degree == 0) & (g.degrees > 0)
            self.counts["motifs.strict_fallback_rows"] += int(fallback.sum())

    def _count_walks(self, out):
        self.counts["walks.tokens"] += out.token_count()
        self.counts["walks.slots"] += len(out) * out.walk_length

    def _after_walks_generate_walks(self, out, **_):
        self._count_walks(out)

    def _after_walks_node2vec_walks(self, out, **_):
        self._count_walks(out)

    def _after_sgns_extract_pairs(self, out, **_):
        self._last_pairs = int(out[0].size)

    def _after_sgns_train_sgns(self, out, config, **_):
        self.counts["sgns.updates"] += self._last_pairs * config.epochs

    def _after_line_train_line(self, out, g, config, **_):
        orders = 2 if config.line_order == "concat" else 1
        self.counts["line.samples"] += (orders * config.epochs
                                        * config.line_samples_factor * g.edge_count)

    def _after_evaluation_cosine_scores(self, out, **_):
        self.counts["evaluation.zero_norm_pairs"] += out[1]

    def _after_graph_load_edge_list(self, out, path, **_):
        with open(path, "rb") as fh:
            self.counts["graph.load_edge_list.lines"] += sum(1 for _ in fh)

    def _after_graph_null_model_rewire(self, out, g, **_):
        n = g.node_count
        before = g.edges[:, 0] * n + g.edges[:, 1]
        after = out.edges[:, 0] * n + out.edges[:, 1]
        self.counts["graph.null_model_rewire.edges_changed"] += int(
            np.count_nonzero(~np.isin(after, before)))
        self.counts["graph.null_model_rewire.edges"] += out.edge_count

    def _after_embedding_save_embedding_text(self, out, path, **_):
        self.counts["embedding.bytes_written"] += os.path.getsize(path)
