"""Benchmark for motifemb: one workload per process, or all of them.

    python3 benchmark/run.py                                  # every workload
    python3 benchmark/run.py --workload linkpred-ppm --seed 3 --seconds 30
    python3 benchmark/run.py --workload cli-skewed --trace 1  # per-layer metrics

Run from anywhere; the package is imported from ``src/`` beside this
directory, never from an installed copy. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Untraced runs report the end-to-end metrics of BENCHMARK.json, traced runs
its per-layer metrics. The exit code is 1 when a check fails and 2 when
the benchmark cannot run at all.
"""
from __future__ import annotations

import os

# Fix the BLAS thread count before numpy loads: at most two, never above the
# CPUs this process may use.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(NPROC, 2)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
MIN_REPS = 2
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import motifemb, motifemb.cli; print(time.perf_counter() - t)"
)
WORKLOAD_NAMES = ("linkpred-ppm", "cluster-ppm", "cli-skewed")


class BenchError(Exception):
    """The benchmark cannot run here (missing program or definition)."""


def load_definition() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path.name} at the checkout root")
    return json.loads(path.read_text())


def import_seconds() -> float:
    """Seconds to import the package in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise BenchError(f"cannot import motifemb from {SRC}: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip())


def import_program() -> str:
    """Import the package from SRC and describe the machine."""
    if not (SRC / "motifemb" / "__init__.py").is_file():
        raise BenchError(f"no motifemb package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import motifemb
    import numpy
    import scipy

    if Path(motifemb.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"motifemb imported from {motifemb.__file__}, not {SRC}")
    cpu = platform.processor() or "unknown cpu"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{cpu}; nproc={NPROC}; blas_threads={BLAS_THREADS}; "
            f"python={platform.python_version()}; numpy={numpy.__version__}; "
            f"scipy={scipy.__version__}")


def median(values):
    return statistics.median(values) if values else float("nan")


def set_up(wl, name: str, seed: int, problems: list) -> tuple[list, str | None]:
    """Build the inputs SETUP_REPEATS times; returns the seconds of each
    set-up (fresh-interpreter import plus input generation) and the digest."""
    import inputs

    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    gens, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        digests.add(wl.setup())
        gens.append(time.perf_counter() - t0)
    digest = digests.pop() if len(digests) == 1 else None
    pinned_seed = inputs.ACCEPTANCE_SEED if name == "linkpred-ppm" else seed
    if digest is None:
        problems.append("input generator is not deterministic")
    elif not inputs.check_digest(name, pinned_seed, digest):
        problems.append(f"input digest {digest} differs from the pinned one")
    return [i + g for i, g in zip(imports, gens)], digest


def timed_reps(wl, seconds: float, tracer, workdir) -> list:
    """Reps until the next would overrun the budget (at least MIN_REPS).

    With a tracer, odd reps are traced, so the overhead is measured against
    the interleaved untraced reps.
    """
    reps = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        gc.collect()  # every rep starts from the same heap state
        if traced:
            tracer.begin_rep(len(reps))
            tracer.install()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            out, error = wl.run(), None
        except Exception:  # a crash of the program is a failed rep
            out, error = None, traceback.format_exc(limit=-3)
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        rep = {"traced": traced, "wall_s": wall, "out": out, "error": error,
               "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)}
        if traced:
            tracer.uninstall()
            rep["layers"] = tracer.rep_layers()
            rep["modules"] = tracer.modules_seen()
        reps.append(rep)
        with open(workdir / "reps.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"wall_s": wall, "traced": traced,
                                 "ops": out["ops"] if out else None}) + "\n")
        if error or (len(reps) >= MIN_REPS
                     and time.perf_counter() - start + wall > seconds):
            break
    return reps


def check_reps(wl, reps, problems: list) -> tuple[int, int, float]:
    """Outputs checked after timing: (attempted, failed, quality)."""
    from tracer import COUNT_KEYS

    attempted = failed = 0
    digests, qualities = set(), set()
    for rep in reps:
        if rep["error"]:
            problems.append(f"rep raised {rep['error']}")
            attempted += 1
            failed += 1
            continue
        verdict = wl.check(rep["out"])
        attempted += verdict["attempted"]
        failed += verdict["failed"]
        digests.add(verdict["digest"])
        qualities.add(verdict["quality"])
    if len(digests) > 1:
        problems.append(f"outputs differ between reps of one run: {sorted(digests)}")
        failed = attempted
    traced = [r for r in reps if r["traced"] and not r["error"]]
    for rep in traced:
        missing = sorted(set(wl.layers) - rep["modules"])
        if missing:
            problems.append(f"trace failure: no span from layers {missing}")
    counts = {json.dumps({k: r["layers"].get(k) for k in COUNT_KEYS}) for r in traced}
    if len(counts) > 1:
        problems.append("per-rep counters differ between traced reps")
    quality = qualities.pop() if len(qualities) == 1 else float("nan")
    return attempted, failed, quality


def synth_probe(wl, tracer) -> tuple[float, str]:
    """Time the package's own generator on the workload's parameters; returns
    its seconds and a note saying whether it still matches the frozen copy."""
    from motifemb import synth

    tracer.begin_rep(-1)
    tracer.install()
    t0 = time.perf_counter()
    g, _ = synth.planted_partition(**wl.synth_probe)
    seconds = time.perf_counter() - t0
    tracer.uninstall()
    n, canon = wl.frozen
    same = g.node_count == n and g.edges.shape == canon.shape and (g.edges == canon).all()
    return seconds, (f"synth.planted_partition({wl.synth_probe}) equals the frozen "
                     f"input: {bool(same)}")


def layer_values(reps) -> dict:
    """Median over traced reps of every per-rep layer value, plus rates."""
    per_rep = []
    for r in reps:
        v = dict(r["layers"])

        def rate(num, *dens):
            den = sum(v.get(d, 0.0) for d in dens)
            return v.get(num, 0.0) / den if den else 0.0

        v["motifs.count_triangles.edges_per_s"] = rate(
            "motifs.count_triangles.edges", "motifs.count_triangles.total_s")
        v["walks.tokens_per_s"] = rate("walks.tokens", "walks.generate_walks.total_s",
                                       "walks.node2vec_walks.total_s")
        v["walks.token_fill"] = rate("walks.tokens", "walks.slots")
        v["sgns.updates_per_s"] = rate("sgns.updates", "sgns.train_sgns.total_s")
        v["line.samples_per_s"] = rate("line.samples", "line.train_line.total_s")
        v["graph.load_edge_list.lines_per_s"] = rate(
            "graph.load_edge_list.lines", "graph.load_edge_list.total_s")
        v["graph.null_model_rewire.edges_changed_frac"] = rate(
            "graph.null_model_rewire.edges_changed", "graph.null_model_rewire.edges")
        per_rep.append(v)
    keys = sorted({k for v in per_rep for k in v})
    return {k: median([v.get(k, 0.0) for v in per_rep]) for k in keys}


def run_workload(name: str, seed: int, seconds: float, trace: bool, definition: dict) -> int:
    machine = import_program()
    from tracer import Tracer
    from workloads import WORKLOADS

    workdir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[name](seed, workdir)
    problems: list[str] = []
    setups, input_digest = set_up(wl, name, seed, problems)
    tracer = Tracer(f"{name}-seed{seed}-pid{os.getpid()}") if trace else None
    reps = timed_reps(wl, seconds, tracer, workdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_s, note = synth_probe(wl, tracer) if trace and wl.synth_probe else (0.0, "")
    if trace:
        tracer.write_spans(workdir / "spans.jsonl")
    attempted, failed, quality = check_reps(wl, reps, problems)

    plain = [r for r in reps if not r["traced"] and not r["error"]]
    values = {
        "wall_s": median([r["wall_s"] for r in plain]),
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb,
        "quality": quality,
        "process.cpu_s": median([r["cpu_s"] for r in plain]),
    }
    values["process.cpu_util"] = values["process.cpu_s"] / values["wall_s"]
    for op in sorted({k for r in plain for k in r["out"]["ops"]}):
        values[op] = median([r["out"]["ops"][op] for r in plain])
    if trace:
        values.update(layer_values([r for r in reps if r["traced"] and not r["error"]]))
        values["synth.planted_partition.total_s"] = probe_s
        values["trace.overhead_frac"] = median(
            [r["wall_s"] for r in reps if r["traced"] and not r["error"]]) / values["wall_s"] - 1

    correct = not problems and failed == 0
    print_table(name, seed, seconds, trace, definition, values, reps, attempted, failed,
                machine, input_digest)
    if note:
        print(note)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    metrics = {}
    for m in definition["per_layer" if trace else "end_to_end"]:
        value = values.get(m["name"], 0.0 if trace else None)
        if value is None:
            raise BenchError(f"workload {name} did not measure {m['name']}")
        metrics[m["name"]] = {"value": value if math.isfinite(value) else None,
                              "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def print_table(name, seed, seconds, trace, definition, values, reps, attempted, failed,
                machine, input_digest):
    plain = sum(1 for r in reps if not r["traced"])
    print(f"workload {name}  seed {seed}  budget {seconds:g} s  trace {int(trace)}")
    print(f"machine: {machine}")
    print(f"input digest: {input_digest}  reps: {plain} untraced, {len(reps) - plain} traced")
    print("rep wall_s: " + " ".join(
        f"{r['wall_s']:.3f}{'*' if r['traced'] else ''}" for r in reps)
        + ("  (* traced)" if trace else ""))
    print(f"ops_failed_frac: {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} ops)")
    units = {m["name"]: m["unit"] for sec in ("end_to_end", "per_layer") for m in definition[sec]}
    shown = [m["name"] for m in definition["end_to_end"]]
    shown += [k for k in sorted(values) if k.startswith(("row_s.", "cmd_s.", "process."))]
    if trace:
        shown += [m["name"] for m in definition["per_layer"] if m["name"] not in shown]
    for key in shown:
        if key in values:
            print(f"  {key:<48} {values[key]:>14.6g} {units.get(key, 's')}")


def run_all(args) -> int:
    """Each workload in its own fresh process; exit nonzero if any fails."""
    worst = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines and proc.returncode in (0, 1) else None
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement budget per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        definition = load_definition()
        if args.seconds is None:
            args.seconds = definition["run_seconds"]
        if args.workload == "all":
            return run_all(args)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                            definition)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
