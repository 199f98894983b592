"""Record the reference values the benchmark's correctness check compares to.

    python3 bench/record_reference.py --seeds 0-99

For each workload and seed this trains once exactly as bench/run.py does
(default config, train.epochs=1) and stores the final train loss and val
metric from metrics.log in bench/reference.json, merged with what is there.
Re-record only when a change is meant to alter training results.
"""

import argparse
import json
import os
import sys

import run


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-99")
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = p.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    sys.path.insert(0, run.SRC)
    path = os.path.join(run.BENCH_DIR, "reference.json")
    ref = {"epochs": run.EPOCHS, "rel_tol": run.REL_TOL, "workloads": {}}
    if os.path.exists(path):
        with open(path) as fh:
            ref["workloads"] = json.load(fh)["workloads"]
    for workload in args.workloads.split(","):
        out_dir = os.path.join(run.ROOT, ".bench_out", "reference", workload)
        os.makedirs(out_dir, exist_ok=True)
        table = ref["workloads"].setdefault(workload, {})
        for seed in range(lo, hi + 1):
            opts = run.parse_args(["--workload", workload, "--seed", str(seed), "--seconds", "0"])
            rep = run.train_once(opts, out_dir)
            if rep.code != 0:
                print(f"{workload} seed {seed}: setnet train exited {rep.code}: {rep.error}", file=sys.stderr)
                return 1
            loss, metric, _ = run.final_values(rep.metrics_log)
            table[str(seed)] = {"train_loss": loss, "val_metric": metric}
            print(f"{workload} seed={seed} train_loss={loss!r} val_metric={metric!r}", flush=True)
        ref["workloads"][workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        write(path, ref)
    return 0


def write(path: str, ref) -> None:
    """JSON with one line per seed, so a re-recording diffs line by line."""
    blocks = []
    for workload, table in ref["workloads"].items():
        rows = ",\n".join(f"   {json.dumps(seed)}: {json.dumps(vals)}" for seed, vals in table.items())
        blocks.append(f"  {json.dumps(workload)}: {{\n{rows}\n  }}")
    with open(path, "w") as fh:
        fh.write(f'{{\n "epochs": {ref["epochs"]},\n "rel_tol": {ref["rel_tol"]!r},\n "workloads": {{\n')
        fh.write(",\n".join(blocks) + "\n }\n}\n")


if __name__ == "__main__":
    sys.exit(main())
