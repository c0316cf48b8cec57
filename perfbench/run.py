"""Benchmark of certified hpbundles calls.

    python3 perfbench/run.py --workload rank2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the library is imported from
``src/``. One client issues the workload's calls in a closed loop (each
call after the previous one returns) and repeats the seeded batch until
``--seconds`` have passed, collecting garbage between batches. Every
output is digested and compared with ``digests.json`` after its batch,
outside the timed region. Times are scaled to a reference machine speed
measured by a probe run around each batch (see ``speed.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` untraced and traced batches alternate, spans are
written to ``perfbench/out/<workload>.spans.csv``, and the last line
reports the per-layer metrics. ``--workload all`` runs every workload in
its own process and reports them together.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
SETUP_CODE = "import hpbundles; hpbundles.hp_moduli_stable_rank2(2)"
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "peak_rss_mb": "MB",
}


def load_api():
    """Import hpbundles from this checkout's src/, and nowhere else."""
    if not (SRC / "hpbundles" / "__init__.py").is_file():
        raise SystemExit("perfbench: no hpbundles sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import hpbundles
    import hpbundles.serialize  # noqa: F401  (digests and convex inputs use it)

    if Path(hpbundles.__file__).resolve().parent != SRC / "hpbundles":
        raise SystemExit("perfbench: imported hpbundles from %s, not %s" % (hpbundles.__file__, SRC))
    return hpbundles


def load_digests():
    with open(HERE / "digests.json", encoding="utf-8") as handle:
        return json.load(handle)


def measure_setup():
    """(scaled, raw) median wall time for a fresh interpreter to import
    hpbundles and make one call, with speed probes before each start."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes = speed.Probes()
    times = []
    for _ in range(SETUP_REPEATS):
        probes.take()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    raw = statistics.median(times)
    return raw * probes.wall_scale(), raw


class Batch:
    """One closed-loop pass over a batch of calls.

    ``latencies`` are per call; ``wall`` is their sum and ``cpu_total`` the
    CPU time of the calls, both leaving out the speed probes taken between
    calls. A call that raises yields its exception as the result.
    """

    def __init__(self, api, workload, calls, tracer=None, first_call_id=0):
        state = workloads.new_state(api, workload)
        self.results = []
        self.latencies = []
        self.cpu_total = 0.0
        self.probes = speed.Probes()
        clock, cpu_clock = time.perf_counter, time.process_time
        self.probes.take()
        for i, call in enumerate(calls):
            cpu_start = cpu_clock()
            start = clock()
            try:
                if tracer is None:
                    out = workloads.execute(api, call, state)
                else:
                    with tracer.root(first_call_id + i):
                        out = workloads.execute(api, call, state)
            except Exception as err:  # a raising call is a failed call, not a crash
                out = err
            latency = clock() - start
            self.latencies.append(latency)
            self.cpu_total += cpu_clock() - cpu_start
            self.results.append(out)
            if latency >= speed.LONG_CALL_S:
                self.probes.take()
        self.probes.take()
        self.wall = sum(self.latencies)


def count_failures(api, workload, calls, results, expected):
    """Calls that raised or whose output digest differs from the record."""
    failed = 0
    for call, result in zip(calls, results):
        if isinstance(result, Exception):
            problem = "raised %s" % "".join(traceback.format_exception_only(type(result), result)).strip()
        elif workloads.digest(api, call, result) != expected.get(call.key):
            problem = "digest mismatch for key %s" % call.key
        else:
            continue
        failed += 1
        if failed <= 3:
            print("perfbench: %s %s%r %s" % (workload, call.kind, call.args[:4], problem), file=sys.stderr)
    return failed


def tail(latencies):
    """(latency, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, i.e. the (TAIL_BEYOND + 1)-th largest sample."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(api, workload, seed, seconds):
    """Untraced run: end-to-end metrics and (attempted, failed)."""
    calls = workloads.batch(workload, seed)
    expected = load_digests()[workload]
    setup, setup_raw = measure_setup()
    walls, cpus, raw_walls, per_call = [], [], [], [[] for _ in calls]
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        batch = Batch(api, workload, calls)
        failed += count_failures(api, workload, calls, batch.results, expected)
        attempted += len(calls)
        scale = batch.probes.wall_scale()
        walls.append(batch.wall * scale)
        cpus.append(batch.cpu_total * batch.probes.cpu_scale())
        raw_walls.append(batch.wall)
        for samples, latency in zip(per_call, batch.latencies):
            samples.append(latency * scale)
        del batch
        if time.perf_counter() - start >= seconds:
            break
    call_latency = [statistics.median(samples) for samples in per_call]
    tail_s, tail_pct = tail(call_latency)
    values = {
        "setup_s": setup,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "call_p50_s": statistics.median(call_latency),
        "call_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(
        "perfbench: %s seed %d: %d batches of %d calls; raw wall_s %.4f, raw setup_s %.4f; "
        "call_tail_s is p%.1f of %d per-call medians; fail_ratio %g (%d/%d)"
        % (workload, seed, len(walls), len(calls), statistics.median(raw_walls), setup_raw,
           tail_pct, len(calls), failed / attempted, failed, attempted),
        file=sys.stderr,
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return metrics, attempted, failed


def measure_traced(api, workload, seed, seconds):
    """Traced run: per-layer metrics and (attempted, failed, consistent).

    Untraced and traced batches alternate, in pairs, while another pair
    fits in ``seconds`` (at least one pair runs); their median wall times
    give the tracing overhead. Counts must repeat exactly in every traced
    batch.
    """
    calls = workloads.batch(workload, seed)
    expected = load_digests()[workload]
    tracer = tracing.Tracer()
    plain_walls, traced_walls, per_batch, self_by_name = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        gc.collect()
        batch = Batch(api, workload, calls)
        failed += count_failures(api, workload, calls, batch.results, expected)
        attempted += len(calls)
        plain_walls.append(batch.wall * batch.probes.wall_scale())
        del batch
        gc.collect()
        tracer.counts = dict.fromkeys(tracing.COUNT_NAMES, 0)
        lo = tracer.span_count()
        with tracer.installed(api):
            batch = Batch(api, workload, calls, tracer, len(traced_walls) * len(calls))
        hi = tracer.span_count()
        failed += count_failures(api, workload, calls, batch.results, expected)
        attempted += len(calls)
        scale = batch.probes.wall_scale()
        traced_walls.append(batch.wall * scale)
        del batch
        self_times = {name: v * scale for name, v in tracer.self_times(lo, hi).items()}
        self_by_name.append(self_times)
        per_batch.append(tracing.layer_metrics(self_times, tracer.call_counts(lo, hi), tracer.counts))
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:  # the next pair would overrun
            break

    values = {}
    consistent = True
    for name in per_batch[0]:
        column = [batch[name] for batch in per_batch]
        if name.endswith("_s"):
            values[name] = statistics.median(column)
        else:
            values[name] = column[0]
            if any(v != column[0] for v in column):
                consistent = False
                print("perfbench: count %s differs between batches: %s" % (name, column), file=sys.stderr)
    plain, traced = statistics.median(plain_walls), statistics.median(traced_walls)
    values["trace.overhead_s"] = traced - plain
    values["trace.overhead_ratio"] = (traced - plain) / plain
    values["trace.spans"] = hi - lo

    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / ("%s.spans.csv" % workload))
    layer_self = {
        name: statistics.median(batch.get(name, 0.0) for batch in self_by_name)
        for name in self_by_name[0]
    }
    with open(OUT / ("%s.trace.json" % workload), "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "metrics": values,
                   "self_s_by_span": layer_self, "batches": per_batch}, handle, indent=1)
    report_dominant(workload, layer_self)

    metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    return metrics, attempted, failed, consistent


def report_dominant(workload, layer_self):
    """Print the operation and the layer with the largest self time."""
    total = sum(v for name, v in layer_self.items() if name != tracing.ROOT_SPAN) or 1.0
    ops, layers = {}, {}
    for name, v in layer_self.items():
        if name == tracing.ROOT_SPAN:
            continue
        op = ".".join(name.split(".")[:2])
        ops[op] = ops.get(op, 0.0) + v
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + v
    op = max(ops, key=ops.get)
    layer = max(layers, key=layers.get)
    print(
        "perfbench: %s dominant operation %s (%.0f%% of traced self time), dominant layer %s (%.0f%%)"
        % (workload, op, 100 * ops[op] / total, layer, 100 * layers[layer] / total),
        file=sys.stderr,
    )


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_all(args):
    """Every workload in its own process; one table and one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit("perfbench: workload %s exited with %d" % (workload, proc.returncode))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print("%s  fail_ratio %g (%d/%d)" % (workload, result["failed"] / result["attempted"],
                                             result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            print("  %-42s %14.6g %s" % (name, metric["value"], metric["unit"]))
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        run_all(args)
        return 0
    api = load_api()
    if args.trace:
        metrics, attempted, failed, consistent = measure_traced(api, args.workload, args.seed, args.seconds)
    else:
        metrics, attempted, failed = measure(api, args.workload, args.seed, args.seconds)
        consistent = True
    correct = failed == 0 and consistent
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
