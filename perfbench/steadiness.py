"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads rank2,coprime]

Runs the benchmark (tracing off) once per seed and workload, one process
at a time, and prints for every end-to-end metric its median and its
spread: the distance between the first and third quartile of the runs
(``statistics.quantiles(values, n=4)``) as a share of the median. The
result is also written to ``perfbench/out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run
import workloads


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit("%s seed %d: outputs incorrect" % (workload, seed))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d done in %.1f s" % (workload, seed, time.perf_counter() - started),
                  file=sys.stderr, flush=True)
        report[workload] = {}
        for name, bound in bounds.items():
            row = {"median": statistics.median(values[name]), "spread": spread(values[name]),
                   "bound": bound, "values": values[name]}
            report[workload][name] = row
            flag = "" if row["spread"] < bound / 3 else "  <-- above a third of the bound"
            print("%-9s %-12s median %-12.6g spread %.4f (bound %.2f)%s"
                  % (workload, name, row["median"], row["spread"], bound, flag), flush=True)
    run.OUT.mkdir(exist_ok=True)
    with open(run.OUT / "steadiness.json", "w", encoding="utf-8") as handle:
        json.dump({"seeds": args.seeds, "seconds": args.seconds, "workloads": report}, handle, indent=1)


if __name__ == "__main__":
    main()
