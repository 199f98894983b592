"""Command-line entry point.

Subcommands: verify-theorem, check-equivariance, train, eval, actmax. Every
run derives all randomness from one seed. In the four experiment commands
(check-equivariance, train, eval, actmax) that is the config seed, which
``--seed`` overrides; verify-theorem draws nothing. check-equivariance
probes an experiment's model, built as training builds it. Training runs
write their fully resolved config next to their outputs so any artifact can
be reproduced exactly, given the same number of BLAS threads (a threaded
matrix product sums in another order; see ``setnet.train``). A training run
makes every refusal it can make before it writes anything under ``--out``,
and a resumed run keeps the ``metrics.log`` lines of the epochs its
checkpoint holds, so its log ends as the uninterrupted run's does. Each file
of a run is written whole (``data.write_whole``) and ``metrics.log`` is then
appended to, so a killed run leaves no cut file and loses no kept line.

Exit codes, each carried by its ``SetNetError`` class: 0 success, 2
config/usage error (a set too small or empty for the requested operation
included) or an input file that cannot be opened or read, 3 file-format
error, 4 numeric error, 1 anything else.

Allocator: ``main`` asks glibc's malloc (through ``mallopt``) to serve
blocks below 32 MiB from its heap (``M_MMAP_THRESHOLD``, which also stops
glibc from raising that threshold as it goes) and to hand freed heap back to
the kernel only once 512 MiB of it are free at the top
(``M_TRIM_THRESHOLD``). Each training step frees its graph before the next
one builds a graph of the same shapes, so without these settings the
freed pages are returned and faulted back in on every step and every
validation pass; with them the process keeps and reuses them. A C library
without ``mallopt`` keeps its defaults, and importing ``setnet`` changes
nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from . import data as datamod
from . import theorem
from .errors import ConfigError, SetNetError
from .layers import SetBatch, SetPool, evaluate, load_params, restore_params
from .train import (
    ExperimentConfig,
    activation_maximization,
    build_experiment_data,
    build_experiment_model,
    config_lines,
    evaluate_classifier,
    evaluate_regressor,
    parse_config_text,
    start_training,
    train_loop,
)


def _load_config(args) -> ExperimentConfig:
    values: Dict[str, str] = parse_config_text(datamod._read_text(args.config), args.config) if args.config else {}
    if args.experiment:
        values.setdefault("experiment", args.experiment)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        values[key.strip()] = val.strip()
    if args.seed is not None:
        values["seed"] = str(args.seed)
    if "experiment" not in values:
        raise ConfigError("provide --config FILE or --experiment NAME")
    return ExperimentConfig(values)


def _load_experiment(args, checkpoint: Optional[str] = None):
    """(config, training data, validation data, model, checkpoint metadata):
    the model is built on the training data, as training builds it, and takes
    the parameters of ``checkpoint`` when one is given."""
    config = _load_config(args)
    train_data, val_data = build_experiment_data(config)
    model = build_experiment_model(config, train_data)
    meta: Dict[str, str] = {}
    if checkpoint:
        arrays, meta = load_params(checkpoint)
        restore_params(model.params(), arrays)
    return config, train_data, val_data, model, meta


def cmd_verify_theorem(args) -> int:
    n = args.n
    orbits = theorem.commutant_orbits(n)
    dim = len(np.unique(orbits))
    # two orbits, the first the diagonal: their indicators are I and ones - I
    structure_ok = dim == 2 and np.array_equal(orbits == orbits[0, 0], np.eye(n, dtype=bool))
    # I and ones span every lam*I + gam*ones, so they stand for the whole family
    forward_ok = theorem.commutes_with_all(np.eye(n)) and theorem.commutes_with_all(np.ones((n, n)))
    verdict = structure_ok and forward_ok
    print(f"commutant of the permutation matrices on n={n} points")
    print(f"commutant_dimension={dim}")
    print(f"forward_direction_ok={forward_ok}")
    print(f"verdict={'pass' if verdict else 'fail'}")
    if verdict:
        print(f"every matrix commuting with all permutations on {n} points is "
              "a multiple of the identity plus a constant matrix (dimension 2).")
    return 0 if verdict else 1


# set size check-equivariance probes when --n is not given and the model
# accepts any cardinality
_PROBE_SET_SIZE = 8


def cmd_check_equivariance(args) -> int:
    config, train_data, _, model, _ = _load_experiment(args, args.checkpoint)
    n = args.n
    if n is None:  # mnist_sum models take exactly data.set_size members
        n = model.set_size or _PROBE_SET_SIZE
    # pointcloud is probed on its equivariant stack, the others on their
    # output; a pooled output (one row for the set) is repeated once per member
    upto = None
    if config.experiment == "pointcloud":
        upto = next(i for i, layer in enumerate(model.layers) if isinstance(layer, SetPool))

    def f(x):
        out = evaluate(model, SetBatch(x, [x.shape[0]]), upto=upto)
        return np.repeat(out, x.shape[0], axis=0) if out.shape[0] == 1 else out

    rng = np.random.default_rng(config["seed"])
    report = theorem.check_equivariance_empirical(f, n, args.trials, rng, channels=train_data.channels)
    for line in report.lines():
        print(line)
    print(f"verdict={'equivariant' if report.equivariant else 'not-equivariant'}")
    if report.invariant_output_ordering:
        print("note: output is identical for permuted inputs (order-normalising, set-level)")
    return 0


def _log_through(path: str, epoch: int) -> str:
    """The lines of the metrics log at ``path``, if there is one, up to the
    first line past ``epoch``: a run that stopped after logging an epoch and
    before checkpointing it left the lines after them."""
    if not os.path.exists(path):
        return ""
    kept = []
    for line in datamod._read_text(path, newline="").splitlines(keepends=True):
        head = line.split(" ", 1)[0]
        if not (line.endswith("\n") and head.startswith("epoch=") and head[6:].isdigit() and int(head[6:]) <= epoch):
            break
        kept.append(line)
    return "".join(kept)


def cmd_train(args) -> int:
    config, train_data, val_data, model, _ = _load_experiment(args)
    start = start_training(model, config, train_data, args.resume)
    out_dir = args.out
    metrics_path = os.path.join(out_dir, "metrics.log")
    logged = _log_through(metrics_path, start.epoch) if args.resume else ""
    # a run that cannot start has failed by now and leaves --out as it was
    os.makedirs(out_dir, exist_ok=True)
    datamod.write_whole(os.path.join(out_dir, "config.resolved.cfg"), [config_lines(config.values)])
    best_path = os.path.join(out_dir, "checkpoint_best.txt")
    last_path = os.path.join(out_dir, "checkpoint_last.txt")
    datamod.write_whole(metrics_path, [logged])  # the kept lines are on file before the log is appended to
    with open(metrics_path, "a") as metrics_file:

        def sink(rec):  # flushed, so an epoch's lines are on file before its checkpoint
            metrics_file.write(rec.line() + "\n")
            metrics_file.flush()

        result = train_loop(
            model,
            config,
            train_data,
            val_data,
            metrics_sink=sink,
            best_checkpoint_path=best_path,
            last_checkpoint_path=last_path,
            start=start,
            log=None if args.quiet else print,
        )
    summary = [
        f"experiment={config.experiment}",
        *([f"variant={config['model.variant']}"] if "model.variant" in config else []),
        f"epochs={config['train.epochs']}",
        f"best_epoch={result.best_epoch}",
        f"best_val_{model.metric_name}={result.best_metric!r}",
    ]
    datamod.write_whole(os.path.join(out_dir, "summary.txt"), ["\n".join(summary) + "\n"])
    for line in summary:
        print(line)
    return 0


def cmd_eval(args) -> int:
    _, _, val_data, model, meta = _load_experiment(args, args.checkpoint)
    if val_data.set_labels is not None:
        loss, metric = evaluate_classifier(model, val_data)
    else:
        loss, metric = evaluate_regressor(model, val_data)
    print(f"val_loss={loss!r}")
    print(f"val_{model.metric_name}={metric!r}")
    if "val_metric" in meta:
        recorded = float(meta["val_metric"])
        print(f"recorded_val_{meta.get('metric_name', 'metric')}={recorded!r}")
        print(f"reproduction_error={abs(recorded - metric)!r}")
    return 0


def cmd_actmax(args) -> int:
    if not math.isfinite(args.threshold):  # every comparison with nan is false
        raise ConfigError(f"--threshold must be finite, got {args.threshold}")
    config, _, _, model, _ = _load_experiment(args, args.checkpoint)
    if config.experiment != "pointcloud":
        raise ConfigError("actmax operates on pointcloud models")
    result = activation_maximization(
        model, args.layer, args.unit, args.points, args.iters, np.random.default_rng(config["seed"]),
        threshold=args.threshold,
    )
    datamod.save_xyz(args.out, result.points)
    print(f"layer={args.layer} unit={args.unit} iterations={result.iterations}")
    print(f"final_activation={result.activation!r}")
    print(f"activated={result.activated}")
    print(f"points_written={args.out}")
    if not result.activated:
        print("unit was not activated above threshold; result kept for inspection")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="setnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    experiment = argparse.ArgumentParser(add_help=False)  # the experiment commands' shared options
    experiment.add_argument("--config", help="key=value config file")
    experiment.add_argument("--experiment", help="experiment name; uses its default config")
    experiment.add_argument("--set", action="append", metavar="KEY=VALUE", help="override any config key")
    experiment.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("verify-theorem", help="verify that the matrices commuting with every permutation are "
                       "exactly lam*I + gam*ones, by the orbits of index pairs under two generators")
    p.add_argument("--n", type=int, default=4, help=f"set size (2..{theorem.MAX_SET_SIZE})")
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("check-equivariance", parents=[experiment],
                       help="probe an experiment's model for equivariance on random sets of its data's channels")
    p.add_argument("--checkpoint", help="restore parameters before probing")
    p.add_argument("--n", type=int, help="set size to probe, at least 2 (default: data.set_size for mnist_sum, "
                   "else 8)")
    p.add_argument("--trials", type=int, default=50, help="random sets and permutations to probe")
    p.set_defaults(func=cmd_check_equivariance)

    p = sub.add_parser("train", parents=[experiment], help="run a training experiment")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", help="continue from a saved checkpoint")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[experiment], help="evaluate a checkpoint on the config's validation data")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("actmax", parents=[experiment], help="optimize a point cloud to excite one hidden unit")
    p.add_argument("--checkpoint", help="trained parameters to visualize")
    p.add_argument("--layer", type=int, default=0, help="equivariant layer index")
    p.add_argument("--unit", type=int, default=0, help="channel within the layer")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True, help="xyz output file")
    p.set_defaults(func=cmd_actmax)

    return parser


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages() -> None:
    """Set the allocator thresholds given in the module docstring, if the C
    library has ``mallopt``; a 0 from ``mallopt`` (rejected) stops there."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 512 << 20)


def main(argv: Optional[List[str]] = None) -> int:
    _keep_freed_pages()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SetNetError, OSError) as exc:  # an OSError: e.g. a missing --config or --checkpoint file
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, SetNetError) else 2


if __name__ == "__main__":
    sys.exit(main())
