"""Span tracing for the training benchmark.

The benchmark measures per-layer cost from outside the program: it replaces
the module attributes that setnet's callers actually look up with wrappers
that record one span per call, runs training, and puts the originals back.
Each span keeps its name, start, end, parent span and the training step (or
evaluation batch) it belongs to, so a layer's self time is its duration minus
the time covered by its children (``EquivariantLayer.apply`` minus the
``tensor.*`` calls it makes).

Which attribute to patch follows the lookups in setnet: ``autodiff`` calls
``T.ensure_finite`` and ``T.matmul`` through the ``tensor`` module, ``train``
imports ``make_set_batch``, ``bind`` and ``save_params`` by name, and the CLI
imports ``build_experiment_data``, ``build_experiment_model`` and
``train_loop`` by name. Layer ``apply`` methods and ``Optimizer.step`` are
patched on their classes.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

LAYER_KINDS = ("EquivariantLayer", "Dense", "SetPool", "NormalizeSets", "Dropout")

Target = Tuple[object, str, Callable[[Callable], Callable]]


@contextmanager
def patched(targets: Iterable[Target]):
    """Install ``make(original)`` on each (owner, name, make); restore on exit.

    Originals come from the owner's own ``__dict__``, so a class attribute is
    restored as the plain function it was and an inherited or missing name
    fails before anything is replaced.
    """
    saved = []
    try:
        for owner, name, make in targets:
            original = vars(owner)[name]
            setattr(owner, name, make(original))
            saved.append((owner, name, original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


class Tracer:
    """In-memory spans and counters for one traced phase of a run."""

    def __init__(self):
        self.names: List[str] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self.phase: List[str] = []
        self.step: List[int] = []
        self.counts: Counter = Counter()  # (phase, counter) -> total
        self.train_steps = 0
        self.eval_batches = 0
        self._open: List[int] = []
        self._phase = "setup"

    # --- recording -------------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.phase.append(self._phase)
        self.step.append(self.eval_batches if self._phase == "eval" else self.train_steps)
        self.start.append(0)
        self.end.append(0)
        self._open.append(i)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._open.pop()
            self.start[i] = t0
            self.end[i] = t1

    def in_phase(self, phase: str, name: str, fn: Callable, *args, **kwargs):
        outer, self._phase = self._phase, phase
        try:
            return self.span(name, fn, *args, **kwargs)
        finally:
            self._phase = outer

    def count(self, key: str, amount) -> None:
        self.counts[(self._phase, key)] += amount

    # --- what to patch -----------------------------------------------------------

    def targets(self) -> List[Target]:
        from setnet import autodiff, cli, layers, optim, tensor, train

        def timed(name):
            return lambda fn: lambda *a, **k: self.span(name, fn, *a, **k)

        def phased(phase, name):
            return lambda fn: lambda *a, **k: self.in_phase(phase, name, fn, *a, **k)

        def make_set_batch(fn):
            def wrapper(dataset, indices):
                if self._phase == "eval":
                    self.eval_batches += 1
                batch = self.span("train.make_set_batch", fn, dataset, indices)
                self.count("real_rows", int(batch.cardinalities.sum()))
                self.count("padded_rows", batch.num_sets * batch.max_size)
                return batch
            return wrapper

        def save_params(fn):
            def wrapper(path, *a, **k):
                out = self.in_phase("checkpoint", "train.checkpoint", fn, path, *a, **k)
                self.counts[("checkpoint", "bytes")] += os.path.getsize(path)
                return out
            return wrapper

        def backward(fn):
            def wrapper(tape, root):
                grads = self.span("autodiff.backward", fn, tape, root)
                self.count("nodes", len(tape.nodes))
                self.count("node_bytes", sum(n.value.nbytes for n in tape.nodes))
                return grads
            return wrapper

        def matmul(fn):
            def wrapper(a, b):
                out = self.span("tensor.matmul", fn, a, b)
                self.count("matmul_flop", 2 * a.shape[0] * a.shape[1] * b.shape[1])
                return out
            return wrapper

        def ensure_finite(fn):
            def wrapper(arr, where):
                self.count("ensure_finite_calls", 1)
                return self.span("tensor.ensure_finite", fn, arr, where)
            return wrapper

        def optimizer_step(fn):
            def wrapper(opt, grads):
                out = self.span("optim.step", fn, opt, grads)
                self.train_steps += 1
                self.counts[("train", "param_count")] = sum(p.size for p in opt.params)
                return out
            return wrapper

        out: List[Target] = [
            (cli, "build_experiment_data", phased("setup", "data.build")),
            (cli, "build_experiment_model", phased("setup", "model.build")),
            (cli, "train_loop", phased("train", "train.loop")),
            (train, "evaluate_classifier", phased("eval", "train.evaluate")),
            (train, "evaluate_regressor", phased("eval", "train.evaluate")),
            (train, "make_set_batch", make_set_batch),
            (train, "member_targets", timed("train.member_targets")),
            (train, "bind", timed("layers.bind")),
            (train, "save_params", save_params),
            (autodiff, "backward", backward),
            (autodiff, "softmax_cross_entropy", timed("autodiff.softmax_cross_entropy")),
            (tensor, "ensure_finite", ensure_finite),
            (tensor, "matmul", matmul),
            (optim.Optimizer, "step", optimizer_step),
        ]
        for kind in LAYER_KINDS:
            out.append((getattr(layers, kind), "apply", timed(f"layers.{kind}.apply")))
        return out

    # --- aggregation -------------------------------------------------------------

    def _arrays(self):
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return np.asarray(self.names), np.asarray(self.phase), dur, dur - child

    def table(self) -> List[Tuple[str, str, int, float, float]]:
        """(name, phase, calls, total ms, self ms) for every span name seen."""
        names, phases, dur, self_dur = self._arrays()
        rows = []
        for name, phase in sorted(set(zip(self.names, self.phase))):
            sel = (names == name) & (phases == phase)
            rows.append((name, phase, int(sel.sum()), dur[sel].sum() / 1e6, self_dur[sel].sum() / 1e6))
        return rows

    def per_layer(self) -> Dict[str, Tuple[float, str, str, int]]:
        """The benchmark's per-layer metrics as (value, unit, per, samples).

        ``per`` says what the value is averaged over: a training step, a
        validation batch, a ``save_params`` call or a data build.
        """
        names, phases, dur, _ = self._arrays()

        def total_ms(name, phase):
            return float(dur[(names == name) & (phases == phase)].sum()) / 1e6

        c = self.counts
        counts = {"step": self.train_steps, "batch": self.eval_batches,
                  "call": int((names == "train.checkpoint").sum()), "build": int((names == "data.build").sum())}

        def mean(total, unit, per="step"):
            return total / max(counts[per], 1), unit, per, counts[per]

        out = {
            "train.batch_ms": mean(total_ms("train.make_set_batch", "train") + total_ms("train.member_targets", "train"), "ms"),
            "layers.SetBatch.real_row_fraction": (
                c[("train", "real_rows")] / max(c[("train", "padded_rows")], 1), "ratio", "step", counts["step"]),
            "layers.bind_ms": mean(total_ms("layers.bind", "train"), "ms"),
        }
        for kind in LAYER_KINDS:
            out[f"layers.{kind}.apply_ms.train"] = mean(total_ms(f"layers.{kind}.apply", "train"), "ms")
            out[f"layers.{kind}.apply_ms.eval"] = mean(total_ms(f"layers.{kind}.apply", "eval"), "ms", "batch")
        out.update({
            "autodiff.backward_ms": mean(total_ms("autodiff.backward", "train"), "ms"),
            "autodiff.softmax_cross_entropy_ms": mean(total_ms("autodiff.softmax_cross_entropy", "train"), "ms"),
            "autodiff.nodes_per_step": mean(c[("train", "nodes")], "count"),
            # computed from node.value.nbytes over every node on the tape
            "autodiff.node_mib_per_step": mean(c[("train", "node_bytes")] / 2**20, "MiB"),
            "tensor.ensure_finite_ms": mean(total_ms("tensor.ensure_finite", "train"), "ms"),
            "tensor.ensure_finite_calls": mean(c[("train", "ensure_finite_calls")], "count"),
            "tensor.matmul_ms": mean(total_ms("tensor.matmul", "train"), "ms"),
            # computed as 2*m*k*n over forward T.matmul calls; vjp products are not counted
            "tensor.matmul_gflop": mean(c[("train", "matmul_flop")] / 1e9, "GFLOP"),
            "optim.step_ms": mean(total_ms("optim.step", "train"), "ms"),
            "optim.param_count": (float(c[("train", "param_count")]), "count", "model", 1),
            "train.checkpoint_ms": mean(total_ms("train.checkpoint", "checkpoint"), "ms", "call"),
            "train.checkpoint_bytes": mean(c[("checkpoint", "bytes")], "bytes", "call"),
            "data.build_s": mean(total_ms("data.build", "setup") / 1e3, "s", "build"),
        })
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tphase\tstep\n")
            for i, row in enumerate(zip(self.names, self.start, self.end, self.parent, self.phase, self.step)):
                fh.write(f"{i}\t" + "\t".join(str(v) for v in row) + "\n")
