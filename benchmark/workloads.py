"""The three workloads: inputs, the timed operation, and output checks.

Every workload builds its inputs from the workload seed with the frozen
generators in ``inputs.py`` and hands the program only the finished inputs.
``run`` is the timed region. ``check`` runs afterwards, outside it, and
returns how many operations (report rows or CLI commands) were attempted
and how many failed: raised, exited nonzero, or produced a wrong output.

The program is called through module attributes (``pipeline.run_report``,
``cli.main``) so that the tracer's wrappers are the functions called.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import time
from collections import defaultdict

import numpy as np
import scipy.sparse as sp
from scipy.stats import rankdata

from motifemb import cli, embedding, graph, pipeline
from motifemb.config import TrainConfig

import inputs
from tracer import Patcher

# the acceptance configuration of release criteria 7 and 8
BENCH_CONFIG = TrainConfig(dim=8, walks_per_node=4, walk_length=20, window=3,
                           negatives=3, epochs=2)
LINKPRED_FIELDS = ("auc", "accuracy", "precision", "recall", "specificity", "f1")


class RowTimer:
    """Times each report row by wrapping the pipeline's row functions.

    A row (embed one configuration, then evaluate it) is the operation a
    report user waits on; the wrapper adds two clock reads per row.
    """

    def __init__(self):
        self.rows: list[tuple[str, float]] = []
        self._patcher = Patcher()

    def install(self) -> None:
        self._patcher.install({"pipeline": ["linkpred_row", "cluster_row"]}, self._wrap)

    def uninstall(self) -> None:
        self._patcher.uninstall()

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        rows = self.rows

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            rows.append((sig.bind(*args, **kwargs).arguments["algorithm"],
                         time.perf_counter() - t0))
            return out

        return timed

    def take(self) -> dict[str, float]:
        """Mean row seconds per algorithm since the last call."""
        by_algo = defaultdict(list)
        for algo, seconds in self.rows:
            by_algo[algo].append(seconds)
        self.rows.clear()
        return {f"row_s.{a}": float(np.mean(v)) for a, v in by_algo.items()}


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()[:16]


def _finite_in(value, lo: float, hi: float) -> bool:
    return isinstance(value, float) and math.isfinite(value) and lo <= value <= hi


class _ReportWorkload:
    """A ``pipeline.run_report`` call on a planted-partition graph."""

    task = ""
    algorithms = pipeline.ALGORITHMS
    variants = pipeline.VARIANTS
    task_kwargs: dict = {}

    def __init__(self, seed: int):
        self.seed = seed
        self.row_timer = RowTimer()
        self.row_timer.install()

    def run(self):
        rows = pipeline.run_report(
            self.graph, self.dataset, self.task, algorithms=self.algorithms,
            variants=self.variants, seeds=self.eval_seeds, config=BENCH_CONFIG,
            **self.task_kwargs)
        text = pipeline.write_report_json(rows, {"task": self.task, **self.task_kwargs})
        return {"rows": rows, "report": text.encode(), "ops": self.row_timer.take()}

    def check(self, out) -> dict:
        rows = [r for r in out["rows"] if r["seed"] != "summary"]
        expected = len(self.algorithms) * len(self.variants) * len(self.eval_seeds)
        bad = sum(not self.row_ok(r) for r in rows)
        if len(rows) != expected:  # a missing or extra row fails the whole report
            bad = expected
        summaries = len(out["rows"]) - len(rows)
        if summaries != (len(self.algorithms) * len(self.variants)
                         if len(self.eval_seeds) > 1 else 0):
            bad = expected
        scores = [r[self.quality_field] for r in rows if self.row_ok(r)]
        return {"attempted": expected, "failed": min(bad, expected),
                "digest": _digest(out["report"]),
                "quality": float(np.mean(scores)) if scores else float("nan")}


class LinkpredPPM(_ReportWorkload):
    """The paper's headline grid on the acceptance instance.

    Generator seed 5 is fixed; the workload seed picks the evaluation seed.
    """

    name = "linkpred-ppm"
    task = "linkpred"
    dataset = "ppm"
    quality_field = "auc"
    task_kwargs = {"fraction": 0.1, "mode": "strict"}
    layers = ("graph", "motifs", "walks", "sgns", "line", "spectral",
              "evaluation", "pipeline")
    synth_probe = dict(seed=inputs.ACCEPTANCE_SEED)

    def __init__(self, seed, workdir):
        super().__init__(seed)
        self.eval_seeds = (seed,)

    def setup(self) -> str:
        n, canon, _ = inputs.planted_partition_edges(inputs.ACCEPTANCE_SEED)
        self.graph = graph.Graph.from_edges(n, canon)
        self.frozen = (n, canon)
        return inputs.edge_digest(n, canon)

    @staticmethod
    def row_ok(row) -> bool:
        return all(_finite_in(row[f], 0.0, 1.0) for f in LINKPRED_FIELDS)


class ClusterPPM(_ReportWorkload):
    """Spectral clustering on a 10k-node, four-block planted partition."""

    name = "cluster-ppm"
    task = "cluster"
    dataset = "ppm4"
    quality_field = "sc"
    algorithms = ("spectral",)
    task_kwargs = {"clusters": 4, "mode": "strict"}
    layers = ("motifs", "spectral", "evaluation", "pipeline")

    def __init__(self, seed, workdir):
        super().__init__(seed)
        # k-means lands in different local optima per seed, so SC is
        # averaged over three evaluation seeds, disjoint between workload seeds
        self.eval_seeds = tuple(range(3 * seed, 3 * seed + 3))
        self.synth_probe = dict(seed=seed, **inputs.CLUSTER_PPM)

    def setup(self) -> str:
        n, canon, _ = inputs.planted_partition_edges(self.seed, **inputs.CLUSTER_PPM)
        self.graph = graph.Graph.from_edges(n, canon)
        self.frozen = (n, canon)
        return inputs.edge_digest(n, canon)

    @staticmethod
    def row_ok(row) -> bool:
        return _finite_in(row["sc"], -1.0, 1.0)


class CliSkewed:
    """Two CLI commands, in-process, on a messy edge-list file of a
    heavy-tailed graph: triangle counts against a rewired null model, then
    a motif-biased node2vec embedding written as text."""

    name = "cli-skewed"
    layers = ("cli", "graph", "motifs", "walks", "sgns", "embedding", "pipeline")
    synth_probe = None
    dim = 16

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.path = workdir / "skewed.edges"
        self.motifs_out = workdir / "motifs.json"
        self.emb_out = workdir / "emb.txt"
        common = ["--input", str(self.path), "--seed", str(seed)]
        self.commands = {
            "motifs": ["motifs", *common, "--null-model", "2", "--swaps-per-edge", "1",
                       "--out", str(self.motifs_out)],
            "embed": ["embed", *common, "--algorithm", "node2vec", "--variant", "mo",
                      "--q", "0.5", "--emb-format", "text", "--dim", str(self.dim),
                      "--walks-per-node", "1", "--walk-length", "10", "--window", "3",
                      "--negatives", "3", "--epochs", "1", "--out", str(self.emb_out)],
        }
        self._checked: dict[str, dict] = {}

    def setup(self) -> str:
        n, canon = inputs.skewed_edges(self.seed, **inputs.SKEWED)
        self.ids = inputs.write_messy_edge_list(self.path, canon, self.seed)
        self.canon = canon
        return _digest(self.path.read_bytes())

    def run(self):
        codes, ops = {}, {}
        for stale in (self.motifs_out, self.emb_out):
            stale.unlink(missing_ok=True)
        for name, argv in self.commands.items():
            t0 = time.perf_counter()
            codes[name] = cli.main(argv)
            ops[f"cmd_s.{name}"] = time.perf_counter() - t0
        return {"codes": codes, "ops": ops,
                "files": {p.name: p.read_bytes() if p.exists() else b""
                          for p in (self.motifs_out, self.emb_out)}}

    def check(self, out) -> dict:
        digest = _digest(*out["files"].values())
        if digest not in self._checked:
            self._checked[digest] = self._check_files(out["files"])
        failed = dict(self._checked[digest]["failed"])
        for name, code in out["codes"].items():
            failed[name] = failed[name] or code != 0
        return {"attempted": len(self.commands), "failed": sum(failed.values()),
                "digest": digest, "quality": self._checked[digest]["quality"]}

    def _triangle_oracle(self) -> int:
        n = int(self.canon.max()) + 1
        a = sp.coo_matrix((np.ones(self.canon.shape[0]), (self.canon[:, 0], self.canon[:, 1])),
                          shape=(n, n)).tocsr()
        a = a + a.T
        return int(round((a @ a).multiply(a).sum() / 6))

    def _check_files(self, files) -> dict:
        failed = {"motifs": True, "embed": True}
        try:
            payload = json.loads(files["motifs.json"])
            null = payload["null_model"]
            failed["motifs"] = not (payload["total_motifs"] == self._triangle_oracle()
                                    and null["samples"] == 2
                                    and null["real_total"] == payload["total_motifs"])
        except (ValueError, KeyError, TypeError):
            pass
        quality = float("nan")
        written = self.emb_out.with_suffix(".check.txt")  # this rep's bytes
        written.write_bytes(files["emb.txt"])
        try:
            emb, labels = embedding.load_embedding_text(written)
            shape_ok = emb.vectors.shape == (inputs.node_count_in_file(self.canon), self.dim)
            quality = self._edge_auc(emb.vectors, labels)
            failed["embed"] = not (shape_ok and np.all(np.isfinite(emb.vectors))
                                   and math.isfinite(quality))
        except (ValueError, KeyError, OSError):
            pass
        return {"failed": failed, "quality": quality}

    def _edge_auc(self, vectors: np.ndarray, labels: list[str]) -> float:
        """AUC of cosine similarity at telling graph edges from random
        non-edges: how well the written embedding reconstructs the graph."""
        ids = self.ids
        row_of = np.full(ids.size, -1)
        row_of[[int(lab[1:]) for lab in labels]] = np.arange(len(labels))
        row_of = row_of[ids]  # generator node -> embedding row
        rng = np.random.default_rng([self.seed, 2])
        present = np.unique(self.canon)
        pos = self.canon
        neg = present[rng.integers(0, present.size, size=(2 * pos.shape[0], 2))]
        neg = neg[neg[:, 0] != neg[:, 1]]
        keys = set((pos[:, 0] * ids.size + pos[:, 1]).tolist())
        lo, hi = neg.min(axis=1), neg.max(axis=1)
        neg = neg[[k not in keys for k in (lo * ids.size + hi).tolist()]][: pos.shape[0]]
        unit = vectors / np.maximum(np.linalg.norm(vectors, axis=1, keepdims=True), 1e-300)

        def cos(pairs):
            return np.sum(unit[row_of[pairs[:, 0]]] * unit[row_of[pairs[:, 1]]], axis=1)

        ranks = rankdata(np.concatenate([cos(pos), cos(neg)]))
        r_pos = ranks[: pos.shape[0]].sum()
        return float((r_pos - pos.shape[0] * (pos.shape[0] + 1) / 2)
                     / (pos.shape[0] * neg.shape[0]))


WORKLOADS = {w.name: w for w in (LinkpredPPM, ClusterPPM, CliSkewed)}
