"""Training benchmark for setnet's three experiments.

Usage, from the repository root:

    python3 bench/run.py --workload mnist_sum --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 0

One run trains one experiment at its default config, exactly as
``setnet train --experiment <workload> --seed <seed>`` does (metrics.log and
both checkpoints included), with ``train.epochs`` set to 1. It
repeats that training, each time from a fresh data and model build, until
``--seconds`` have passed. The load is a closed loop with one caller: each
step waits for the one before, in one process, with BLAS/OpenMP pinned to one
thread. The first repeat of the process is a warm-up and is not measured.
After each repeat, more validation passes over the trained model give the
evaluation rate more measured time. Before the repeats, one more training
runs in a separate process, for its peak resident memory.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half with every layer wrapped in spans (see spans.py), and
reports the per-layer metrics, the tracing overhead, and whether the traced
metrics.log is byte-identical to the untraced one.

Every run checks its outputs: every logged loss is finite, every repeat's
metrics.log is byte-identical, the final train loss and val metric match
bench/reference.json for the workload and seed (when recorded), and
``setnet eval`` on the last checkpoint reproduces the logged val metric.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# must precede the first numpy import, which fixes the BLAS thread pool
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from spans import Tracer, patched

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("mnist_sum", "pointcloud", "setregression")
# One epoch per `setnet train` run: its val metric always improves on the
# initial best, so every epoch pays both checkpoint writes whatever the seed.
EPOCHS = 1

# Final losses and val metrics must match the recorded reference to this
# relative tolerance. ROADMAP item B lets a reordered reduction move results
# by about 1e-12 relative. Scaling every initial parameter by 1 +/- 1e-12
# moved the final values of a run by at most 1.7e-12 relative (seeds 0 and 1,
# all three workloads), so 1e-9 admits reordering with wide margin while any
# change to what training computes moves them by far more.
REL_TOL = 1e-9


# --- environment ---------------------------------------------------------------


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> Dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }
    env.update({var: os.environ.get(var) for var in THREAD_VARS})
    return env


def baseline_mismatch(env: Dict[str, object]) -> List[str]:
    """Setup fields that differ from the environment the baseline was taken in."""
    path = os.path.join(BENCH_DIR, "baseline.json")
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        recorded = json.load(fh)["environment"]
    return [f"{k}: {env.get(k)!r} here, {v!r} in baseline" for k, v in recorded.items() if k != "seed" and env.get(k) != v]


# --- one training run, as `setnet train` does it ----------------------------------------


@dataclass
class Repeat:
    code: int = 0
    error: str = ""
    setup_s: float = float("nan")
    loop_s: float = float("nan")  # train_loop wall time: the epoch with its checkpoint writes
    train_sets: int = 0
    val_sets: int = 0
    step_stamps: List[float] = field(default_factory=list)  # after each Optimizer.step return
    # per split, one list per pass over the split with the wall time of each
    # batch: from one make_set_batch call to the next, the last one up to the
    # end of the pass. The first "val" pass is train_loop's own.
    batch_s: Dict[str, List[List[float]]] = field(default_factory=dict)
    extra_val_metrics: List[float] = field(default_factory=list)  # from the passes after train_loop
    metrics_log: bytes = b""

    @property
    def steps(self) -> int:
        return len(self.step_stamps)


class Probe:
    """Timestamps only: setup, each batch, each metrics record and each
    optimizer step of one training run."""

    def __init__(self, rep: Repeat):
        self.rep = rep
        self.setup_start = 0.0
        self.batch_stamps: List[float] = []
        self.model = None
        self.val_data = None

    def end_pass(self, split: str) -> None:
        stamps = self.batch_stamps + [time.perf_counter()]
        self.batch_stamps = []
        self.rep.batch_s.setdefault(split, []).append([b - a for a, b in zip(stamps, stamps[1:])])

    def targets(self):
        from setnet import cli, optim, train

        rep = self.rep

        def data(fn):
            def wrapper(config):
                self.setup_start = time.perf_counter()
                train_data, self.val_data = fn(config)
                rep.train_sets, rep.val_sets = len(train_data), len(self.val_data)
                return train_data, self.val_data
            return wrapper

        def model(fn):
            def wrapper(config, train_data):
                self.model = fn(config, train_data)
                rep.setup_s = time.perf_counter() - self.setup_start
                return self.model
            return wrapper

        def loop(fn):
            def wrapper(*args, **kwargs):
                sink = kwargs["metrics_sink"]

                def stamped(rec):
                    self.end_pass(rec.split)
                    sink(rec)
                kwargs["metrics_sink"] = stamped
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                rep.loop_s = time.perf_counter() - t0
                return out
            return wrapper

        def step(fn):
            def wrapper(opt, grads):
                out = fn(opt, grads)
                rep.step_stamps.append(time.perf_counter())
                return out
            return wrapper

        def batch(fn):
            def wrapper(dataset, indices):
                self.batch_stamps.append(time.perf_counter())
                return fn(dataset, indices)
            return wrapper

        return [
            (cli, "build_experiment_data", data),
            (cli, "build_experiment_model", model),
            (cli, "train_loop", loop),
            (optim.Optimizer, "step", step),
            (train, "make_set_batch", batch),
        ]

    def extra_val_passes(self) -> None:
        """More validation passes over the trained model, as train_loop makes
        them, until they have taken half as long as the training phase.

        A validation pass is short (about 70 ms on mnist_sum, where a repeat
        takes 2.5 s), so train_loop's one pass per repeat gives
        eval_sets_per_s too little measured time to be steady.
        """
        from setnet import train

        if self.rep.val_sets == 0:
            return
        evaluate = train.evaluate_classifier if self.val_data.set_labels is not None else train.evaluate_regressor
        budget = 0.5 * sum(self.rep.batch_s["train"][0])
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < budget:
            _, metric = evaluate(self.model, self.val_data)
            self.end_pass("val")
            self.rep.extra_val_metrics.append(metric)


def config_args(workload: str, seed: int, overrides: List[str]) -> List[str]:
    out = ["--experiment", workload, "--seed", str(seed)]
    for kv in overrides:
        out += ["--set", kv]
    return out


def train_once(args, out_dir: str) -> Repeat:
    from setnet import cli

    # Start each run from a collected heap, as a fresh `setnet train` process
    # would, rather than with the previous runs' cyclic garbage still pending.
    gc.collect()
    rep = Repeat()
    probe = Probe(rep)
    argv = ["train", *config_args(args.workload, args.seed, args.set), "--set", f"train.epochs={EPOCHS}",
            "--out", out_dir, "--quiet"]
    stderr = io.StringIO()
    with patched(probe.targets()), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rep.code = cli.main(argv)
        if rep.code == 0:
            probe.extra_val_passes()
    rep.error = stderr.getvalue().strip()
    log_path = os.path.join(out_dir, "metrics.log")
    if os.path.exists(log_path):
        with open(log_path, "rb") as fh:
            rep.metrics_log = fh.read()
    return rep


def train_fresh_process(args, out_dir: str) -> Tuple[int, float, bytes]:
    """One `setnet train` run in a process of its own, as a user starts it.

    Returns (exit code, the process's peak resident memory in MB, its
    metrics.log). The benchmark's own process has run many trainings and its
    high-water mark depends on how its heap fragmented over them, which moved
    peak_rss_mb by up to 9% between runs; a fresh process's is steady to 0.3%.
    """
    argv = ["train", *config_args(args.workload, args.seed, args.set), "--set", f"train.epochs={EPOCHS}",
            "--out", out_dir, "--quiet"]
    main = f"import sys; sys.path.insert(0, {SRC!r}); from setnet import cli; sys.exit(cli.main(sys.argv[1:]))"
    code = subprocess.run([sys.executable, "-c", main, *argv], cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    # the largest of this process's children, of which this is the only one
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    log = b""
    if os.path.exists(os.path.join(out_dir, "metrics.log")):
        with open(os.path.join(out_dir, "metrics.log"), "rb") as fh:
            log = fh.read()
    return code, peak if code == 0 else float("nan"), log


def run_for(args, seconds: float, out_dir: str, at_least: int) -> List[Repeat]:
    """Repeat whole trainings until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    reps: List[Repeat] = []
    while len(reps) < at_least or time.perf_counter() < deadline:
        reps.append(train_once(args, out_dir))
    return reps


# --- end-to-end metrics ------------------------------------------------------------


@dataclass
class Stat:
    value: float
    unit: str
    pick: str  # which statistic of the samples ``value`` is
    samples: int
    q1: float = float("nan")
    q3: float = float("nan")
    raw: List[float] = field(default_factory=list)


def stat(samples: List[float], unit: str, pick: str = "median") -> Stat:
    if not samples:
        return Stat(float("nan"), unit, pick, 0)
    ordered = sorted(samples)
    q1, median, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    if pick == "p90":  # nearest rank
        value = ordered[math.ceil(0.9 * len(ordered)) - 1]
    else:
        value = {"q1": q1, "median": statistics.median(ordered), "q3": q3}[pick]
    return Stat(value, unit, pick, len(ordered), q1, q3, samples)


def batchwise_pass_s(reps: List[Repeat], split: str) -> Tuple[float, int]:
    """Wall time of one pass over ``split``, batch by batch.

    Every repeat trains the same seed and so does the same work batch for
    batch (its metrics.log is checked to be byte-identical). Each batch's time
    is taken as its median over all measured passes, and the pass as the sum
    of those medians. Load from other tenants of a shared host comes and goes
    within a pass: it hits some batches of some passes, which the per-batch
    median drops. Returns (seconds, batches timed).
    """
    rows = [row for rep in reps for row in rep.batch_s.get(split, [])]
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        return float("nan"), 0
    return sum(statistics.median(col) for col in zip(*rows)), sum(len(row) for row in rows)


# The metrics in the result line; bench/README.md gives their measured spreads.
# Rates and epoch_s are taken batch by batch (see batchwise_pass_s), the step
# time as the median over step indices of each step's median over repeats,
# and setup_s as the median over repeats. Medians over whole passes are
# printed beside them.
REPORTED = ("setup_s", "train_sets_per_s", "train_step_ms.p50", "eval_sets_per_s", "epoch_s", "peak_rss_mb")


def end_to_end(reps: List[Repeat], warm_up: bool, peak_rss_mb: float = float("nan")) -> Dict[str, Stat]:
    """Metrics over every repeat except, with ``warm_up``, the first."""
    measured = [rep for rep in (reps[1:] if warm_up else reps) if rep.code == 0]
    train_rates, eval_rates, steps_ms, epochs_s, rest_s = [], [], [], [], []
    for rep in measured:
        train_rates += [rep.train_sets / sum(row) for row in rep.batch_s.get("train", [])]
        eval_rates += [rep.val_sets / sum(row) for row in rep.batch_s.get("val", [])]
        steps_ms.extend((b - a) * 1e3 for a, b in zip(rep.step_stamps, rep.step_stamps[1:]))
        epochs_s.append(rep.loop_s)
        # train_loop's time outside its two passes: checkpoint writes mostly
        rest_s.append(rep.loop_s - sum(sum(rep.batch_s[split][0]) for split in ("train", "val")))
    train_s, train_n = batchwise_pass_s(measured, "train")
    val_s, val_n = batchwise_pass_s(measured, "val")
    sets = measured[0] if measured else Repeat()
    rest = statistics.median(rest_s) if rest_s else float("nan")
    step_rows = [[(b - a) * 1e3 for a, b in zip(rep.step_stamps, rep.step_stamps[1:])] for rep in measured]
    if step_rows and step_rows[0] and all(len(row) == len(step_rows[0]) for row in step_rows):
        step_ms = statistics.median(statistics.median(col) for col in zip(*step_rows))
    else:
        step_ms = float("nan")
    setups = [rep.setup_s for rep in reps if rep.code == 0]
    return {
        "setup_s": stat(setups, "s"),
        "train_sets_per_s": Stat(sets.train_sets / train_s, "sets/s", "batches", train_n),
        "train_step_ms.p50": Stat(step_ms, "ms", "steps", len(steps_ms)),
        "eval_sets_per_s": Stat(sets.val_sets / val_s, "sets/s", "batches", val_n),
        "epoch_s": Stat(train_s + val_s + rest, "s", "batches", len(epochs_s)),
        "peak_rss_mb": Stat(peak_rss_mb, "MB", "fresh", 1),
        "train_step_ms.p90": stat(steps_ms, "ms", "p90"),
        "train_step_ms.median": stat(steps_ms, "ms"),
        "train_sets_per_s.median": stat(train_rates, "sets/s"),
        "eval_sets_per_s.median": stat(eval_rates, "sets/s"),
        "epoch_s.median": stat(epochs_s, "s"),
        "checkpoint_and_rest_s.median": stat(rest_s, "s"),
    }


# --- correctness -------------------------------------------------------------------


def parse_log(text: str) -> List[Dict[str, str]]:
    return [dict(tok.split("=", 1) for tok in line.split()) for line in text.splitlines() if line.strip()]


def final_values(log: bytes) -> Tuple[float, float, str]:
    """(final train loss, final val metric, metric name) from a metrics.log."""
    rows = parse_log(log.decode())
    train = [r for r in rows if r["split"] == "train"][-1]
    val = [r for r in rows if r["split"] == "val"][-1]
    name = next(k for k in val if k not in ("epoch", "split", "loss"))
    return float(train["loss"]), float(val[name]), name


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def reference_for(args) -> Optional[Dict[str, float]]:
    """Recorded final values, only for the default config."""
    path = os.path.join(BENCH_DIR, "reference.json")
    if args.set or not os.path.exists(path):
        return None
    with open(path) as fh:
        ref = json.load(fh)
    return ref["workloads"].get(args.workload, {}).get(str(args.seed))


Check = Tuple[str, str]  # (status: "ok", "FAIL" or "skip", message)


def check(args, reps: List[Repeat], out_dir: str) -> Tuple[List[Check], int]:
    """Correctness checks over every repeat; returns (checks, failed steps)."""
    checks: List[Check] = []
    failed = 0
    first = next((rep.metrics_log for rep in reps if rep.code == 0), None)
    ref = reference_for(args)
    for i, rep in enumerate(reps):
        if rep.code != 0:
            checks.append(("FAIL", f"repeat {i}: setnet train exited {rep.code}: {rep.error}"))
            failed += 1  # the step that raised; the earlier ones completed
            continue
        problems = []
        losses = [float(r["loss"]) for r in parse_log(rep.metrics_log.decode())]
        if not all(math.isfinite(v) for v in losses):
            problems.append("non-finite loss in metrics.log")
        if rep.metrics_log != first:
            problems.append("metrics.log differs from the first repeat's")
        logged = final_values(rep.metrics_log)[1]
        if any(rel_err(v, logged) > REL_TOL for v in rep.extra_val_metrics):
            problems.append(f"a validation pass after training gave {rep.extra_val_metrics}, logged {logged!r}")
        if ref is not None:
            loss, metric, _ = final_values(rep.metrics_log)
            if rel_err(loss, ref["train_loss"]) > REL_TOL or rel_err(metric, ref["val_metric"]) > REL_TOL:
                problems.append(f"final (train loss, val metric) = ({loss!r}, {metric!r}), "
                                f"reference ({ref['train_loss']!r}, {ref['val_metric']!r})")
        if problems:
            checks.append(("FAIL", f"repeat {i}: " + "; ".join(problems)))
            failed += rep.steps
    if first is None:
        return checks, failed
    loss, metric, name = final_values(first)
    if not checks:
        checks.append(("ok", f"{len(reps)} repeats: losses finite, metrics.log byte-identical, "
                             "validation passes after training reproduce the logged val metric"))
    if ref is None:
        checks.append(("skip", f"final train loss {loss!r}, val {name} {metric!r}: "
                               "no reference recorded for this seed and config"))
    elif not any(status == "FAIL" for status, _ in checks):
        checks.append(("ok", f"final train loss {loss!r}, val {name} {metric!r} "
                             f"match bench/reference.json within {REL_TOL:g} relative"))
    checks.append(eval_check(args, out_dir, metric, name))
    return checks, failed


def eval_check(args, out_dir: str, metric: float, name: str) -> Check:
    """`setnet eval` on the last checkpoint must reproduce the logged val metric."""
    from setnet import cli

    out = io.StringIO()
    argv = ["eval", *config_args(args.workload, args.seed, args.set),
            "--checkpoint", os.path.join(out_dir, "checkpoint_last.txt")]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    values = dict(line.split("=", 1) for line in out.getvalue().splitlines() if "=" in line)
    got = float(values.get(f"val_{name}", "nan"))
    ok = code == 0 and rel_err(got, metric) <= REL_TOL
    return "ok" if ok else "FAIL", f"setnet eval on checkpoint_last gives val {name} {got!r} (logged {metric!r})"


# --- reporting -----------------------------------------------------------------------


def fmt(v: float) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_stats(title: str, stats: Dict[str, Stat]) -> None:
    print(f"{title:<40} {'value':>12} {'unit':<8} {'stat':<7} {'n':>6} {'q1':>12} {'q3':>12}")
    for name, s in stats.items():
        print(f"{name:<40} {fmt(s.value):>12} {s.unit:<8} {s.pick:<7} {s.samples:>6} {fmt(s.q1):>12} {fmt(s.q3):>12}")


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "setnet", "__init__.py")):
        print(f"bench: no setnet sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    out_dir = os.path.join(args.out, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    env = environment(args.seed)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"epochs_per_repeat={EPOCHS} overrides={args.set or 'none'}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in baseline_mismatch(env):
        print(f"note: environment differs from bench/baseline.json: {line}", file=sys.stderr)

    if args.trace:
        untraced = run_for(args, args.seconds / 2, out_dir, at_least=2)
        tracer = Tracer()
        with patched(tracer.targets()):
            traced = run_for(args, args.seconds / 2, out_dir, at_least=1)
        reps = untraced + traced
    else:
        start = time.perf_counter()
        fresh_code, peak_rss_mb, fresh_log = train_fresh_process(args, os.path.join(out_dir, "fresh"))
        reps = run_for(args, args.seconds - (time.perf_counter() - start), out_dir, at_least=2)
    checks, failed = check(args, reps, out_dir)
    if not args.trace:
        same = fresh_code == 0 and fresh_log == reps[0].metrics_log
        checks.append(("ok" if same else "FAIL", f"a separate `setnet train` process exited {fresh_code}; "
                                                 f"its metrics.log is byte-identical to the repeats': {same}"))

    result: Dict[str, object] = {"environment": env, "checks": checks}
    if args.trace:
        plain = end_to_end(untraced, warm_up=True)["train_sets_per_s"].value
        with_spans = end_to_end(traced, warm_up=False)["train_sets_per_s"].value
        identical = all(rep.metrics_log == untraced[0].metrics_log for rep in traced)
        checks.append(("ok" if identical else "FAIL", f"traced metrics.log byte-identical to untraced: {identical}"))
        layer_stats = tracer.per_layer()
        layer_stats["trace.overhead_sets_per_s"] = (plain - with_spans, "sets/s", "run", 1)
        metrics = {k: (v, unit) for k, (v, unit, _, _) in layer_stats.items()}
        print(f"{'span (traced phase)':<40} {'phase':<10} {'calls':>8} {'total_ms':>12} {'self_ms':>12}")
        for name, phase, calls, total, own in tracer.table():
            print(f"{name:<40} {phase:<10} {calls:>8} {total:>12.3f} {own:>12.3f}")
        print(f"tracing overhead: {plain:.6g} sets/s untraced, {with_spans:.6g} sets/s traced")
        print_stats("per-layer metric", {k: Stat(v, unit, "/" + per, n) for k, (v, unit, per, n) in layer_stats.items()})
        tracer.write_spans(os.path.join(out_dir, "spans.tsv"))
        result["spans"] = os.path.join(out_dir, "spans.tsv")
    else:
        stats = end_to_end(reps, warm_up=True, peak_rss_mb=peak_rss_mb)
        print_stats("end-to-end metric", {k: stats[k] for k in REPORTED})
        print_stats("also measured, not in the result line", {k: s for k, s in stats.items() if k not in REPORTED})
        metrics = {k: (stats[k].value, stats[k].unit) for k in REPORTED}
        result["stats"] = {k: vars(s) for k, s in stats.items()}

    attempted = sum(rep.steps for rep in reps) + sum(1 for rep in reps if rep.code != 0)
    correct = not any(status == "FAIL" for status, _ in checks)
    print(f"{'step_error_rate':<40} {fmt(failed / max(attempted, 1)):>12} {'ratio':<8} {'failed':<7} {attempted:>6}")
    for status, message in checks:
        print(f"check {status:<4} {message}")
    result.update(correct=correct, attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    if attempted == 0 or any(not math.isfinite(v) for v, _ in metrics.values()):
        print("bench: nothing was measured", file=sys.stderr)
        return 1
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out]
    for kv in args.set:
        common += ["--set", kv]
    worst = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, *common]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True, help="workload seed; becomes the config seed")
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="extra config override (the smoke test shrinks the data); disables the reference check")
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_out"), help="output directory")
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
