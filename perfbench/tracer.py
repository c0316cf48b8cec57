"""Tracing hpbundles from outside, by wrapping its layer entry points.

``Tracer.installed(package)`` replaces each target function with a
wrapper at every place it is bound: a free function imported with
``from .x import f`` is a separate binding in each importing module, and
a method is bound in its class (``__rmul__ = __mul__`` is a second
binding of the same function). Leaving the ``with`` block restores every
original binding.

Each wrapper records a span (name, start, end, parent span, call id) in
memory and, outside the span's interval, adds counts computed from the
call's arguments and result. Self time of a span is its duration minus
the durations of its child spans and minus the wrappers' own work done
inside it (span bookkeeping and counting for its children).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import sys
import time
from array import array

# (module, attribute, span name). The span name is the layer (module)
# followed by the operation; a metric "X.self_s" sums spans named X or
# starting with "X.". Leaf helpers (as_coeff, dot, items, ...) are left
# unwrapped: they run millions of times and carry no layer boundary.
TARGETS = (
    ("poly", "LaurentPoly.__mul__", "poly.mul"),
    ("poly", "LaurentPoly.__pow__", "poly.pow"),
    ("poly", "exact_divide", "poly.exact_divide"),
    ("series", "TruncatedSeries.__mul__", "series.mul"),
    ("series", "FactoredRational.series_expand", "series.expand"),
    ("series", "FactoredRational.equals", "series.certify.equals"),
    ("series", "FactoredRational.as_polynomial", "series.certify.as_polynomial"),
    ("hntypes", "enumerate_hn_types", "hntypes.enumerate"),
    ("hntypes", "codim_hn", "hntypes.codim"),
    ("semistable", "SemistableSeries.series", "semistable.series"),
    ("semistable", "leading_closed_term", "semistable.leading_term"),
    ("semistable", "hp_ss_series", "semistable.hp_ss_series"),
    ("semistable", "stable_coprime_polynomial", "semistable.coprime"),
    ("semistable", "hp_ss_rank2_closed_form", "semistable.rank2_closed_form"),
    ("convex", "index_set", "convex.index_set"),
    ("convex", "min_norm_point", "convex.min_norm_point"),
    ("convex", "affine_projection", "convex.affine_projection"),
    ("convex", "stratum_codim", "convex.stratum_codim"),
    ("rank2", "rank2_strata", "rank2.strata"),
    ("rank2", "stable_rank2_closed_form", "rank2.closed_form.stable"),
    ("rank2", "deligne_rank2_closed_form", "rank2.closed_form.deligne"),
    ("rank2", "assemble_stable_hp", "rank2.assemble"),
    ("rank2", "hp_moduli_stable_rank2", "rank2.hp_moduli"),
    ("rank2", "hodge_deligne_stable_rank2", "rank2.hodge_deligne"),
    ("blocks", "hp_jacobian", "blocks.hp_jacobian"),
    ("blocks", "hp_bgl", "blocks.hp_bgl"),
    ("blocks", "hp_bsl", "blocks.hp_bsl"),
    ("blocks", "hp_plusminus_bt", "blocks.hp_plusminus_bt"),
    ("blocks", "hp_plusminus_jac_pair", "blocks.hp_plusminus_jac_pair"),
    ("blocks", "hp_nt_zts", "blocks.hp_nt_zts"),
    ("serialize", "weight_system_from_obj", "serialize.weight_system"),
)

ROOT_SPAN = "call"


def window_pairs(a_degrees, b_degrees, order):
    """Pairs (s, t) of terms with deg s + deg t <= order, from per-total-
    degree histograms of the two factors (both lists of total degrees)."""
    hist_b = [0] * (order + 1)
    for k in b_degrees:
        if k <= order:
            hist_b[k] += 1
    below = []  # below[k] = terms of b with degree <= k
    running = 0
    for count in hist_b:
        running += count
        below.append(running)
    return sum(below[order - k] for k in a_degrees if k <= order)


def _count_poly_mul(tracer, args, result, state):
    a, b = args
    counts = tracer.counts
    if type(b) is type(a):
        counts["poly.mul.term_pairs"] += len(a) * len(b)
    counts["poly.mul.terms_out"] += len(result)


def _count_series_mul(tracer, args, result, state):
    a, b = args
    if type(b) is not type(a):
        return
    a_deg = [p + q for (p, q), _ in a.items()]
    b_deg = [p + q for (p, q), _ in b.items()]
    tracer.counts["series.mul.pairs_attempted"] += len(a_deg) * len(b_deg)
    tracer.counts["series.mul.pairs_in_window"] += window_pairs(a_deg, b_deg, min(a.order, b.order))


def _count_enumerate(tracer, args, result, state):
    counts = tracer.counts
    counts["hntypes.types_out"] += len(result)
    parent = tracer.frames[-1] if tracer.frames else None
    if parent is not None and parent[0] == "semistable.series":
        # A type is dead when its shift (uv)^c lands past the order of the
        # series it corrects: 2c > order, so it contributes no term.
        g, order = parent[1][3:5]
        codim = tracer.originals["hntypes.codim"]
        counts["semistable.types_used"] += len(result)
        counts["semistable.types_dead"] += sum(1 for t in result if 2 * codim(t, g) > order)


def _before_series(args):
    evaluator = args[0]
    return evaluator.hits, evaluator.misses


def _count_series(tracer, args, result, state):
    # Only the outermost request counts, so recursive requests are not
    # counted twice; the evaluator's own counters cover the recursion.
    if any(frame[0] == "semistable.series" for frame in tracer.frames):
        return
    evaluator = args[0]
    tracer.counts["semistable.memo_hits"] += evaluator.hits - state[0]
    tracer.counts["semistable.memo_misses"] += evaluator.misses - state[1]


def _count_projection(tracer, args, result, state):
    if result is not None and all(c >= 0 for c in result[1]):
        tracer.counts["convex.affine_projection.accepted"] += 1


def _count_index_set(tracer, args, result, state):
    tracer.counts["convex.indices_out"] += len(result)


# span name -> (before(args) -> state, after(tracer, args, result, state))
HOOKS = {
    "poly.mul": (None, _count_poly_mul),
    "series.mul": (None, _count_series_mul),
    "hntypes.enumerate": (None, _count_enumerate),
    "semistable.series": (_before_series, _count_series),
    "convex.affine_projection": (None, _count_projection),
    "convex.index_set": (None, _count_index_set),
}

COUNT_NAMES = (
    "poly.mul.term_pairs",
    "poly.mul.terms_out",
    "series.mul.pairs_attempted",
    "series.mul.pairs_in_window",
    "hntypes.types_out",
    "semistable.types_used",
    "semistable.types_dead",
    "semistable.memo_hits",
    "semistable.memo_misses",
    "convex.affine_projection.accepted",
    "convex.indices_out",
)


class Tracer:
    """Span store and wrapper installer for one traced run."""

    def __init__(self):
        self.names = [ROOT_SPAN]
        self.name_ids = {ROOT_SPAN: 0}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aside = array("d")  # tracer time inside the span, outside its children
        self.parent = array("l")
        self.call = array("l")
        self.frames = []  # open spans: (name, args, span index)
        self.call_id = -1
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.originals = {}  # span name -> unwrapped function
        self.sites = []  # (namespace, attribute, original) to restore

    # -- installing --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every target at every binding in ``package`` for the block."""
        for info in pkgutil.iter_modules(package.__path__):
            if info.name != "__main__":
                importlib.import_module("%s.%s" % (package.__name__, info.name))
        try:
            for module, attr, name in TARGETS:
                self._install(package, module, attr, name)
            yield self
        finally:
            for namespace, key, original in reversed(self.sites):
                setattr(namespace, key, original)
            self.sites = []

    def _install(self, package, module, attr, name):
        owner = sys.modules["%s.%s" % (package.__name__, module)]
        for part in attr.split(".")[:-1]:
            owner = vars(owner)[part]
        original = vars(owner)[attr.split(".")[-1]]
        wrapper = self._wrap(name, original)
        self.originals[name] = original
        for namespace in binding_namespaces(package):
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)
                    self.sites.append((namespace, key, original))

    def _wrap(self, name, original):
        tracer = self
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        before, after = HOOKS.get(name, (None, None))
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            entered = clock()
            state = before(args) if before else None
            index = tracer._open(name_id)
            frames = tracer.frames
            frames.append((name, args, index))
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                tracer.start[index] = start
                tracer.end[index] = end
                frames.pop()
            if after:
                after(tracer, args, result, state)
            if frames:
                # The wrapper's own work before and after the span is not
                # the parent's work; keep it out of the parent's self time.
                tracer.aside[frames[-1][2]] += (start - entered) + (clock() - end)
            return result

        wrapper.traced_original = original
        return wrapper

    # -- recording ---------------------------------------------------------

    def _open(self, name_id):
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.aside.append(0.0)
        self.parent.append(self.frames[-1][2] if self.frames else -1)
        self.call.append(self.call_id)
        return index

    @contextlib.contextmanager
    def root(self, call_id):
        """Root span for one benchmark call; layer spans inside it share its id."""
        self.call_id = call_id
        index = self._open(0)
        self.frames.append((ROOT_SPAN, (), index))
        self.start[index] = time.perf_counter()
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self.frames.pop()
            self.call_id = -1

    def span_count(self):
        return len(self.span_name)

    def self_times(self, lo, hi):
        """{span name: total self time} over spans lo..hi-1, which must be
        whole calls (every child lies in the same range as its parent)."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= 0:
                child[p - lo] += self.end[i] - self.start[i]
        out = {}
        for i in range(lo, hi):
            name = self.names[self.span_name[i]]
            own = (self.end[i] - self.start[i]) - child[i - lo] - self.aside[i]
            out[name] = out.get(name, 0.0) + own
        return out

    def call_counts(self, lo, hi):
        """{span name: number of spans} over spans lo..hi-1."""
        out = {}
        for i in range(lo, hi):
            name = self.names[self.span_name[i]]
            out[name] = out.get(name, 0) + 1
        return out

    def write_spans(self, path):
        """All spans as CSV: index, name, start, end, parent, call, and the
        tracer's own time inside the span outside its children."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,name,start,end,parent,call,tracer_s\n")
            for i in range(len(self.span_name)):
                handle.write(
                    "%d,%s,%r,%r,%d,%d,%r\n"
                    % (i, self.names[self.span_name[i]], self.start[i], self.end[i],
                       self.parent[i], self.call[i], self.aside[i])
                )


def binding_namespaces(package):
    """Every module of the package and every class defined in one."""
    out = []
    prefix = package.__name__ + "."
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package.__name__ or modname.startswith(prefix)):
            continue
        out.append(module)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == modname:
                out.append(value)
    return out


def grouped(per_name, prefix):
    """Sum of per-span-name values over names equal to or under prefix."""
    return sum(v for name, v in per_name.items() if name == prefix or name.startswith(prefix + "."))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(self_times, calls, counts):
    """Per-layer metrics of one traced batch, by the names BENCHMARK.json uses."""
    out = {}
    for op in (
        "poly.mul", "poly.pow", "poly.exact_divide", "series.mul", "series.expand",
        "series.certify", "hntypes.enumerate", "semistable.series", "convex.index_set",
        "convex.min_norm_point", "convex.affine_projection",
    ):
        out[op + ".calls"] = grouped(calls, op)
    for op in (
        "poly.mul", "poly.pow", "poly.exact_divide", "series.mul", "series.expand",
        "series.certify", "hntypes.enumerate", "semistable.series", "semistable.leading_term",
        "convex.index_set", "convex.min_norm_point", "convex.affine_projection",
        "rank2.strata", "rank2.closed_form", "rank2.assemble", "blocks",
    ):
        out[op + ".self_s"] = grouped(self_times, op)
    for name in COUNT_NAMES:
        if name != "convex.affine_projection.accepted":
            out[name] = counts[name]
    out["series.mul.window_ratio"] = _ratio(
        counts["series.mul.pairs_in_window"], counts["series.mul.pairs_attempted"]
    )
    hits, misses = counts["semistable.memo_hits"], counts["semistable.memo_misses"]
    out["semistable.memo_hit_ratio"] = _ratio(hits, hits + misses)
    used = counts["semistable.types_used"]
    out["semistable.types_live_ratio"] = _ratio(used - counts["semistable.types_dead"], used)
    out["convex.affine_projection.accepted_ratio"] = _ratio(
        counts["convex.affine_projection.accepted"], out["convex.affine_projection.calls"]
    )
    return out
