"""Tests of the benchmark itself (stdlib unittest).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

API = run.load_api()
DIGESTS = run.load_digests()

# One cheap call of every kind, with the digest keys recorded for them.
SMALL = {
    "rank2": [workloads.Call("hp", (3,), "hp:3"), workloads.Call("hd", (2,), "hd:2")],
    "coprime": [workloads.Call("coprime", (3, -1, 2), "3,2,2")],
    "ss-sweep": [workloads.Call("ss", (3, 4, 2, 16), "3,1,2,16"), workloads.Call("ss", (2, 0, 2, 8), "2,0,2,8")],
    "convex": [workloads.convex_call(2, 10, 0)],
}


def bindings():
    """Every (namespace, attribute) -> bound object in the package."""
    return {
        (id(ns), key): value
        for ns in tracing.binding_namespaces(API)
        for key, value in vars(ns).items()
    }


def traced(workload, calls):
    tracer = tracing.Tracer()
    with tracer.installed(API):
        results = run.Batch(API, workload, calls, tracer).results
    return tracer, results


class WrapperTest(unittest.TestCase):
    def test_wrappers_installed_at_every_site(self):
        tracer = tracing.Tracer()
        with tracer.installed(API):
            for name, original in tracer.originals.items():
                for ns in tracing.binding_namespaces(API):
                    for key, value in vars(ns).items():
                        self.assertIsNot(value, original, "%s still bound at %s.%s" % (name, ns, key))
            self.assertEqual(len(tracer.originals), len(tracing.TARGETS))
            for module, attr in (
                ("semistable", "enumerate_hn_types"),
                ("semistable", "codim_hn"),
                ("series", "exact_divide"),
                ("rank2", "hp_jacobian"),
            ):
                bound = getattr(sys.modules["hpbundles." + module], attr)
                self.assertTrue(hasattr(bound, "traced_original"), "%s.%s" % (module, attr))
            mul_keys = {key for _, key, orig in tracer.sites if orig is tracer.originals["poly.mul"]}
            self.assertEqual(mul_keys, {"__mul__", "__rmul__"})
            divide_sites = {ns.__name__ for ns, _, orig in tracer.sites if orig is tracer.originals["poly.exact_divide"]}
            self.assertLessEqual({"hpbundles", "hpbundles.poly", "hpbundles.series"}, divide_sites)

    def test_originals_restored_after_traced_run(self):
        before = bindings()
        traced("rank2", SMALL["rank2"])
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value)

    def test_originals_restored_when_a_call_raises(self):
        before = bindings()
        tracer, results = traced("rank2", [workloads.Call("hp", (1,), "hp:1")])
        self.assertIsInstance(results[0], API.DomainError)
        self.assertEqual(tracer.frames, [])
        after = bindings()
        self.assertTrue(all(after[key] is value for key, value in before.items()))


class OutputTest(unittest.TestCase):
    def test_traced_outputs_have_untraced_digests(self):
        for workload, calls in SMALL.items():
            plain = run.Batch(API, workload, calls).results
            _, traced_results = traced(workload, calls)
            for call, a, b in zip(calls, plain, traced_results):
                expected = DIGESTS[workload][call.key]
                self.assertEqual(workloads.digest(API, call, a), expected, call)
                self.assertEqual(workloads.digest(API, call, b), expected, call)

    def test_mismatch_and_raise_count_as_failures(self):
        calls = SMALL["rank2"] + [workloads.Call("hp", (1,), "hp:1")]
        results = run.Batch(API, "rank2", calls).results
        wrong = {calls[0].key: "0" * 64, calls[1].key: DIGESTS["rank2"][calls[1].key]}
        with contextlib.redirect_stderr(io.StringIO()) as err:
            self.assertEqual(run.count_failures(API, "rank2", calls, results, wrong), 2)
        self.assertIn("digest mismatch for key hp:3", err.getvalue())
        self.assertIn("DomainError", err.getvalue())

    def test_batches_are_seeded_and_recorded(self):
        for workload in workloads.WORKLOADS:
            calls = workloads.batch(workload, 7)
            self.assertEqual(calls, workloads.batch(workload, 7))
            self.assertNotEqual(calls, workloads.batch(workload, 8))
            self.assertGreater(len(calls), run.TAIL_BEYOND)
            self.assertTrue(all(call.key in DIGESTS[workload] for call in calls))
            self.assertEqual({c.key for c in workloads.every_call(workload)}, set(DIGESTS[workload]))

    def test_tail_leaves_ten_samples_beyond(self):
        latency, pct = run.tail([float(i) for i in range(40)])
        self.assertEqual(latency, 29.0)
        self.assertEqual(pct, 75.0)


class CountTest(unittest.TestCase):
    def test_series_pairs_match_brute_force(self):
        a = API.TruncatedSeries({(0, 0): 1, (1, 0): 2, (2, 1): 3, (0, 4): 1, (3, 3): 5}, 7)
        b = API.TruncatedSeries({(0, 1): 1, (2, 2): -1, (1, 1): 4, (5, 0): 2}, 6)
        tracer = tracing.Tracer()
        with tracer.installed(API):
            product = a * b
        in_window = sum(
            1 for (p1, q1), _ in a.items() for (p2, q2), _ in b.items() if p1 + q1 + p2 + q2 <= 6
        )
        self.assertEqual(tracer.counts["series.mul.pairs_attempted"], 5 * 4)
        self.assertEqual(tracer.counts["series.mul.pairs_in_window"], in_window)
        self.assertEqual(product, a * b)

    def test_poly_term_pairs_match_brute_force(self):
        p = (API.ONE + API.U) ** 3
        q = (API.ONE + API.V) ** 2 + API.U * API.V
        tracer = tracing.Tracer()
        with tracer.installed(API):
            product = p * q
        self.assertEqual(tracer.counts["poly.mul.term_pairs"], len(p.terms()) * len(q.terms()))
        self.assertEqual(tracer.counts["poly.mul.terms_out"], len(product.terms()))

    def test_dead_types_counted_against_series_order(self):
        # Rank 2 recurses only into rank 1, which has no types, so every
        # counted type comes from the one top-level enumeration.
        g, order = 2, 8
        tracer, _ = traced("ss-sweep", [workloads.Call("ss", (2, 1, g, order), "2,1,2,8")])
        types = API.enumerate_hn_types(2, 1, g, order)
        dead = sum(1 for t in types if 2 * API.codim_hn(t, g) > order)
        self.assertGreater(dead, 0)
        self.assertEqual(tracer.counts["semistable.types_used"], len(types))
        self.assertEqual(tracer.counts["semistable.types_dead"], dead)

    def test_counts_repeat_exactly(self):
        calls = SMALL["coprime"] + SMALL["ss-sweep"]
        runs = []
        for _ in range(2):
            tracer, _ = traced("coprime", calls)
            hi = tracer.span_count()
            runs.append(tracing.layer_metrics(tracer.self_times(0, hi), tracer.call_counts(0, hi), tracer.counts))
        for name, value in runs[0].items():
            if not name.endswith("_s"):
                self.assertEqual(value, runs[1][name], name)

    def test_self_times_partition_the_root_spans(self):
        tracer, _ = traced("rank2", SMALL["rank2"])
        hi = tracer.span_count()
        total_self = sum(tracer.self_times(0, hi).values())
        roots = sum(tracer.end[i] - tracer.start[i] for i in range(hi) if tracer.parent[i] < 0)
        aside = sum(tracer.aside[i] for i in range(hi))
        self.assertAlmostEqual(total_self + aside, roots, places=9)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_every_reported_metric(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        tracer, _ = traced("rank2", SMALL["rank2"])
        hi = tracer.span_count()
        names = set(tracing.layer_metrics(tracer.self_times(0, hi), tracer.call_counts(0, hi), tracer.counts))
        names |= {"trace.overhead_s", "trace.overhead_ratio", "trace.spans"}
        layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(set(layer), names)
        for name, unit in layer.items():
            self.assertEqual(unit, run.unit_of(name), name)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        with open(run.HERE / "metrics.json", encoding="utf-8") as handle:
            described = json.load(handle)
        self.assertEqual(set(described["metrics"]), set(layer) | set(run.END_TO_END_UNITS))

    def test_fails_without_library_sources(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "rank2", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
