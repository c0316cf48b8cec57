"""Single-variable (u = v = t) recursion, kept independent on purpose.

This module re-derives the semistable-locus series on the diagonal with
dense coefficient lists and its own brute-force filtration-type scan, so
it shares no code path with the bivariate engine.  It exists to
cross-check diagonal specializations of the exact pipeline.
"""

from __future__ import annotations

import math


def poly_mul(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if i > order or not x:
            continue
        top = min(len(b) - 1, order - i)
        for j in range(top + 1):
            if b[j]:
                out[i + j] += x * b[j]
    return out


def poly_pow(a, k, order):
    out = [1] + [0] * order
    for _ in range(k):
        out = poly_mul(out, a, order)
    return out


def geometric_inverse(m, k, order):
    """(1 - t^m)^(-k) as a coefficient list up to t^order."""
    out = [0] * (order + 1)
    j = 0
    while j * m <= order:
        out[j * m] = math.comb(j + k - 1, k - 1)
        j += 1
    return out


def _brute_force_types(n, d, g, max_codim):
    """Every filtration type of (n, d) with codim <= max_codim, found by
    scanning a rigid box: all slopes of such a type lie within max_codim
    of d/n, because the pair sums against the first and last quotient
    already contribute n*n_j*(slope gap) to the codimension.  Slopes are
    compared, and the box bounds rounded, by integer cross-multiplication."""
    results = []

    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    def codim(quots):
        total = 0
        for j in range(len(quots)):
            nj, dj = quots[j]
            for i in range(j + 1, len(quots)):
                ni, di = quots[i]
                total += ni * dj - nj * di + ni * nj * (g - 1)
        return total

    for ranks in compositions(n):
        if len(ranks) < 2:
            continue

        def scan(j, chosen, remaining_d):
            if j == len(ranks) - 1:
                r = ranks[j]
                if remaining_d * chosen[-1][0] < chosen[-1][1] * r:
                    quots = tuple(chosen) + ((r, remaining_d),)
                    if codim(quots) <= max_codim:
                        results.append(quots)
                return
            r = ranks[j]
            lo = -((n * max_codim - d) * r // n)
            hi = (d + n * max_codim) * r // n
            for dj in range(lo, hi + 1):
                if chosen and dj * chosen[-1][0] >= chosen[-1][1] * r:
                    break
                scan(j + 1, chosen + [(r, dj)], remaining_d - dj)

        scan(0, [], d)
    results.sort()
    return results


def diagonal_ss_series(n, d, g, order, _memo=None):
    """Coefficient list of the semistable-locus series at u = v = t."""
    if _memo is None:
        _memo = {}
    key = (n, d % n, g, order)
    if key in _memo:
        return _memo[key]

    lead_num = [1]
    for l in range(1, n + 1):
        factor = [0] * (order + 1)
        factor[0] = 1
        if 2 * l - 1 <= order:
            factor[2 * l - 1] = 1
        lead_num = poly_mul(lead_num, poly_pow(factor, 2 * g, order), order)
    total = poly_mul(lead_num, geometric_inverse(2 * n, 1, order), order)
    for l in range(1, n):
        total = poly_mul(total, geometric_inverse(2 * l, 2, order), order)

    for quots in _brute_force_types(n, d, g, order):
        c = 0
        for j in range(len(quots)):
            nj, dj = quots[j]
            for i in range(j + 1, len(quots)):
                ni, di = quots[i]
                c += ni * dj - nj * di + ni * nj * (g - 1)
        if 2 * c > order:
            continue
        prod = [1]
        for nj, dj in quots:
            prod = poly_mul(prod, diagonal_ss_series(nj, dj, g, order - 2 * c, _memo), order - 2 * c)
        shifted = [0] * (order + 1)
        for i, x in enumerate(prod):
            if i + 2 * c <= order:
                shifted[i + 2 * c] = x
        total = [a - b for a, b in zip(total, shifted)]

    _memo[key] = total
    return total


def diagonal_stable_coprime(n, d, g, order):
    """(1 - t^2) times the diagonal series; the coprime moduli Poincare data."""
    if math.gcd(n, d) != 1:
        raise ValueError("rank and degree must be coprime")
    series = diagonal_ss_series(n, d, g, order)
    one_minus = [1, 0, -1]
    return poly_mul(series, one_minus, order)
