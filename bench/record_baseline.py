"""Measure the benchmark's baseline and its run-to-run spread.

    python3 bench/record_baseline.py --seeds 0-9

For each workload this makes one untraced run per seed, each for
BENCHMARK.json's run_seconds, one after the other in separate processes,
then one traced run on the first seed. For every end-to-end metric it prints
the median over the runs, the quartiles and the spread (q3 - q1) / median
beside the metric's bound, and it writes all of it to bench/baseline.json.
Takes about (seeds + 1) x 3 x (run_seconds + 3) seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(values, unit, pick):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "unit": unit, "stat": pick, "spread": (q3 - q1) / median}


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT)
    line = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not line["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stdout}\n{out.stderr}")
    with open(os.path.join(run.ROOT, ".bench_out", workload, f"result-trace{trace}.json")) as fh:
        return json.load(fh)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9", help="inclusive range")
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = p.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    baseline = {"environment": None, "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = [bench(workload, seed, seconds, 0) for seed in range(lo, hi + 1)]
        env = dict(results[0]["environment"])
        env.pop("seed")
        baseline["environment"] = env
        stats = {name: [r["stats"][name]["value"] for r in results] for name in results[0]["stats"]}
        first = results[0]["stats"]
        traced = bench(workload, lo, seconds, 1)
        entry = {
            "seeds": f"{lo}-{hi}",
            "runs": len(results),
            "end_to_end": {k: summary(stats[k], first[k]["unit"], first[k]["pick"]) for k in run.REPORTED},
            "also_measured": {k: summary(v, first[k]["unit"], first[k]["pick"])
                              for k, v in stats.items() if k not in run.REPORTED},
            "per_layer_seed": lo,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        baseline["workloads"][workload] = entry
        print(f"{workload}: {len(results)} runs, seeds {lo}-{hi}")
        for name, s in entry["end_to_end"].items():
            print(f"  {name:<22} median {s['median']:<12.6g} {s['unit']:<7} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                  f" spread {s['spread']:.3f} (bound {bounds[name]})")
        sys.stdout.flush()
    with open(os.path.join(run.BENCH_DIR, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
