"""Seeded call batches for the hpbundles benchmark.

A workload is a fixed-shape batch of certified calls. The seed picks the
concrete inputs inside that shape (call order, degree representatives,
request sequences, weight systems), so two seeds do the same amount of
work and their timings can be compared. Each call also names the key of
its expected output digest, so outputs can be checked against the
digests recorded in ``digests.json``.

The functions here touch the library only through the ``api`` module
they are given (the imported ``hpbundles`` package), which is the public
surface a user calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import namedtuple
from fractions import Fraction

WORKLOADS = ("rank2", "coprime", "ss-sweep", "convex")

# kind: which entry point runs the call; args: its inputs; key: the
# digest-table key, which names the mathematical value the call returns.
Call = namedtuple("Call", "kind args key")

# Genera for the rank-2 ladder. Per-call cost grows like g^4, so any
# seeded choice of genera would move the batch cost by more than the
# noise; the seed only shuffles the order. g >= 28 is left out because
# one such pair of calls alone costs more than the whole batch budget.
RANK2_GENERA = tuple(range(2, 15)) + (16, 20, 24)

# (rank, genus, calls per batch) for the coprime workload: many cheap
# classes and a few calls of each expensive one, so the batch has enough
# calls for a tail percentile. Rank 5 is left out: its one 3-4 s call
# would make up two thirds of the batch, and a single call that long does
# not time steadily on a shared machine (ss-sweep covers rank-5 series).
COPRIME_CLASSES = (
    (2, 2, 5), (2, 3, 5), (2, 4, 5), (3, 2, 5),
    (3, 3, 4), (4, 2, 4), (3, 4, 2),
)

# A tabulating sweep: the 56 (rank, residue, order) requests in table
# order (rank, then residue, then order), with 200 repeats of requests
# already made inserted at seeded places. Every seed thus computes the same
# sub-series and makes the same first requests, so the costs of the misses
# do not depend on the seed, and most requests (the median one included)
# are memo hits that follow another cheap request.
SS_SWEEP_REPEATS = 200
SS_SWEEP_GENUS = 2
SS_SWEEP_RANKS = (2, 3, 4, 5)
SS_SWEEP_ORDERS = (8, 16, 24, 32)

# (dimension, weight count) slots of the convex batch, and the number of
# recorded weight systems per slot that the seed chooses from.
CONVEX_SLOTS = (
    tuple((2, n) for n in range(10, 20) for _ in range(2))
    + ((3, 10), (3, 10), (3, 11), (3, 11), (3, 12), (3, 12))
    + ((4, 10), (4, 11))
)
CONVEX_POOL = 8


def batch(workload, seed):
    """The list of calls one repetition of ``workload`` makes for ``seed``."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "rank2":
        calls = [
            Call(kind, (g,), "%s:%d" % (kind, g))
            for g in RANK2_GENERA
            for kind in ("hp", "hd")
        ]
    elif workload == "coprime":
        calls = []
        for n, g, count in COPRIME_CLASSES:
            units = [r for r in range(1, n) if math.gcd(n, r) == 1]
            for _ in range(count):
                r = rng.choice(units)
                d = r + n * rng.randint(-2, 2)
                calls.append(Call("coprime", (n, d, g), "%d,%d,%d" % (n, r, g)))
    elif workload == "ss-sweep":
        table = [(n, r, order) for n in SS_SWEEP_RANKS for r in range(n) for order in SS_SWEEP_ORDERS]
        repeats = [[] for _ in table]  # repeats[i]: requests made right after table[i]
        for _ in range(SS_SWEEP_REPEATS):
            slot = rng.randrange(len(table))
            repeats[slot].append(table[rng.randint(0, slot)])
        calls = []
        for first, extra in zip(table, repeats):
            for n, r, order in [first] + extra:
                d = r + n * rng.randint(-2, 2)
                key = "%d,%d,%d,%d" % (n, r, SS_SWEEP_GENUS, order)
                calls.append(Call("ss", (n, d, SS_SWEEP_GENUS, order), key))
        return calls
    elif workload == "convex":
        calls = []
        used = set()
        for dim, n in CONVEX_SLOTS:
            j = rng.choice([j for j in range(CONVEX_POOL) if (dim, n, j) not in used])
            used.add((dim, n, j))
            calls.append(convex_call(dim, n, j))
    else:
        raise ValueError("unknown workload %r" % (workload,))
    rng.shuffle(calls)
    return calls


def every_call(workload):
    """One call for every digest key any seed can reach (for recording)."""
    if workload == "rank2":
        return batch("rank2", 0)
    if workload == "coprime":
        return [
            Call("coprime", (n, r, g), "%d,%d,%d" % (n, r, g))
            for n, g, _ in COPRIME_CLASSES
            for r in range(1, n)
            if math.gcd(n, r) == 1
        ]
    if workload == "ss-sweep":
        return [
            Call("ss", (n, r, SS_SWEEP_GENUS, order), "%d,%d,%d,%d" % (n, r, SS_SWEEP_GENUS, order))
            for n in SS_SWEEP_RANKS
            for r in range(n)
            for order in SS_SWEEP_ORDERS
        ]
    if workload == "convex":
        return [convex_call(dim, n, j) for dim, n in sorted(set(CONVEX_SLOTS)) for j in range(CONVEX_POOL)]
    raise ValueError("unknown workload %r" % (workload,))


def convex_call(dim, n, j):
    return Call("convex", (weight_system_obj(dim, n, j),), "%d,%d,%d" % (dim, n, j))


def weight_system_obj(dim, n, j):
    """Recorded weight system j of a slot, in the JSON form the CLI reads.

    n distinct rational weights with multiplicities 1..3, one root pair
    +-(e1 - e2) and the chamber it bounds.
    """
    rng = random.Random("convex:%d:%d:%d" % (dim, n, j))
    seen = set()
    weights = []
    while len(weights) < n:
        vec = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(dim))
        if vec in seen:
            continue
        seen.add(vec)
        weights.append({"v": [str(x) for x in vec], "mult": rng.randint(1, 3)})
    root = [1, -1] + [0] * (dim - 2)
    return {"dim": dim, "weights": weights, "roots": [root, [-x for x in root]], "chamber": [root]}


def new_state(api, workload):
    """Per-repetition state: the ss-sweep shares one evaluator per batch."""
    return api.SemistableSeries() if workload == "ss-sweep" else None


def execute(api, call, state):
    """Run one call through the public API and return its result."""
    if call.kind == "hp":
        return api.hp_moduli_stable_rank2(*call.args)
    if call.kind == "hd":
        return api.hodge_deligne_stable_rank2(*call.args)
    if call.kind == "coprime":
        return api.stable_coprime_polynomial(*call.args, api.SemistableSeries())
    if call.kind == "ss":
        return api.hp_ss_series(*call.args, state)
    if call.kind == "convex":
        ws = api.serialize.weight_system_from_obj(call.args[0])
        indices = api.index_set(ws)
        return [(bi, api.stratum_codim(ws, bi)) for bi in indices]
    raise ValueError("unknown call kind %r" % (call.kind,))


def digest(api, call, result):
    """SHA-256 of the result's serialized form."""
    if call.kind == "ss":
        obj = api.serialize.series_to_obj(result)
    elif call.kind == "convex":
        obj = [dict(api.serialize.beta_index_to_obj(bi), codim=c) for bi, c in result]
    else:
        obj = api.serialize.poly_to_obj(result)
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
