import math
from fractions import Fraction
from itertools import product

import pytest

from hpbundles import (
    DomainError,
    HNType,
    ReductiveClass,
    codim_deeper_stratum,
    codim_hn,
    enumerate_hn_types,
    enumerate_reductive_classes,
)
from hpbundles.hntypes import MAX_HN_TYPES, MAX_RANK, _compositions, _shapes
from hpbundles.semistable import MAX_ORDER

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is a test-only dependency
    st = None


def oracle_types(n, d, g, max_codim):
    """Scan every composition and a rigid degree box: slopes of admissible
    types stay within max_codim of d/n (the first/last pair sums already
    contribute n*n_j*(slope gap) to the codimension)."""

    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    mu = Fraction(d, n)
    found = set()
    for ranks in compositions(n):
        if len(ranks) < 2:
            continue
        ranges = []
        for r in ranks:
            lo = math.ceil((mu - max_codim) * r)
            hi = math.floor((mu + max_codim) * r)
            ranges.append(range(lo, hi + 1))
        for degrees in product(*ranges):
            if sum(degrees) != d:
                continue
            slopes = [Fraction(dd, r) for dd, r in zip(degrees, ranks)]
            if any(slopes[i] <= slopes[i + 1] for i in range(len(slopes) - 1)):
                continue
            codim = 0
            for j in range(len(ranks)):
                for i in range(j + 1, len(ranks)):
                    codim += (
                        ranks[i] * degrees[j]
                        - ranks[j] * degrees[i]
                        + ranks[i] * ranks[j] * (g - 1)
                    )
            if codim <= max_codim:
                found.add(tuple(zip(ranks, degrees)))
    return found


def test_codim_single_quotient_is_zero():
    assert codim_hn(HNType(((2, 0),)), 2) == 0


def test_codim_hand_evaluations():
    assert codim_hn(HNType(((1, 1), (1, -1))), 2) == 3
    assert codim_hn(HNType(((1, 1), (1, 0))), 2) == 2


def test_type_validation():
    # equal slopes, then increasing ones, across unequal ranks too
    for quotients in (
        ((1, 0), (1, 0)), ((2, 2), (1, 1)), ((1, 0), (1, 1)), ((2, 1), (3, 2)), ((1, 2), (1, 1), (2, 2)),
    ):
        with pytest.raises(DomainError, match="^slopes must strictly decrease$"):
            HNType(quotients)
    with pytest.raises(DomainError, match="^quotient ranks must be positive$"):
        HNType(((0, 1),))
    with pytest.raises(DomainError):
        codim_hn(HNType(((1, 1), (1, 0))), 0)


def test_rank_one_has_no_types():
    assert enumerate_hn_types(1, 5, 2, 50) == []


def test_rank2_degree0_example():
    types = enumerate_hn_types(2, 0, 2, 10)
    assert [t.quotients for t in types] == [
        ((1, 1), (1, -1)),
        ((1, 2), (1, -2)),
        ((1, 3), (1, -3)),
        ((1, 4), (1, -4)),
    ]
    assert [codim_hn(t, 2) for t in types] == [3, 5, 7, 9]


def test_rank2_degree1_example():
    types = enumerate_hn_types(2, 1, 2, 6)
    assert [t.quotients for t in types] == [
        ((1, 1), (1, 0)),
        ((1, 2), (1, -1)),
        ((1, 3), (1, -2)),
    ]
    assert [codim_hn(t, 2) for t in types] == [2, 4, 6]


@pytest.mark.parametrize(
    "n,d,g,k",
    [
        (2, 0, 2, 14),
        (2, 3, 3, 12),
        (3, -4, 2, 12),
        (3, 1, 1, 9),
        (4, 6, 2, 10),
        (4, -6, 3, 20),
    ],
)
def test_enumeration_matches_oracle(n, d, g, k):
    expected = oracle_types(n, d, g, k)
    got = {t.quotients for t in enumerate_hn_types(n, d, g, k)}
    assert got == expected


def fraction_scan_types(n, d, g, max_codim):
    """(codim, quotients) of every type the degree scan reaches, sorted
    as ``enumerate_hn_types`` sorts them, with slopes compared as
    Fractions: the scan as it was before slopes were cross-multiplied."""
    found = []

    def scan(ranks, j, S, budget, prev_slope, prefix):
        r = ranks[j]
        if j == len(ranks) - 1:
            if prev_slope is None or Fraction(S, r) < prev_slope:
                found.append(tuple(zip(ranks, prefix + [S])))
            return
        R = sum(ranks[j:])
        base = (g - 1) * r * (R - r)
        tail = sum(1 + a * b * (g - 1) for k, a in enumerate(ranks[j + 1:]) for b in ranks[j + 2 + k:])
        for dj in range(math.ceil(Fraction(r * S + 1, R)), (budget - tail + r * S - base) // R + 1):
            if prev_slope is not None and Fraction(dj, r) >= prev_slope:
                break
            cost = dj * R - r * S + base
            scan(ranks, j + 1, S - dj, budget - cost, Fraction(dj, r), prefix + [dj])

    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    for ranks in compositions(n):
        if len(ranks) > 1:
            scan(ranks, 0, d, max_codim, None, [])
    return sorted((codim_hn(HNType(q), g), q) for q in found)


def test_integer_slope_scan_matches_fraction_scan():
    for n in range(1, 7):
        for d in range(n):
            for g in range(1, 5):
                reference = fraction_scan_types(n, d, g, 30)
                for cap in range(31):
                    got = [(codim_hn(t, g), t.quotients) for t in enumerate_hn_types(n, d, g, cap)]
                    assert got == [cq for cq in reference if cq[0] <= cap], (n, d, g, cap)


def test_enumeration_order_deterministic():
    types = enumerate_hn_types(3, 0, 2, 9)
    keyed = [(codim_hn(t, 2), t.quotients) for t in types]
    assert keyed == sorted(keyed)


def test_types_non_decreasing_in_codim():
    # SemistableSeries.series ends its loop at the first type with
    # 2c > order, which is right only if no later type has a lower codim
    for n in range(1, 7):
        for d in range(n):
            for g in (2, 3):
                for cap in (0, 3, 8, 17, 30):
                    codims = [codim_hn(t, g) for t in enumerate_hn_types(n, d, g, cap)]
                    assert codims == sorted(codims), (n, d, g, cap)


def tail_costs(ranks, g):
    """tail_cost[j] = least possible codim contribution of the pairs
    within ranks[j:], summed pair by pair."""
    out = []
    for j in range(len(ranks) + 1):
        total = 0
        for k in range(j, len(ranks)):
            for l in range(k + 1, len(ranks)):
                total += 1 + ranks[k] * ranks[l] * (g - 1)
        out.append(total)
    return out


def test_tabled_compositions_and_tail_costs():
    # each level tables, for one quotient but the last, its rank r, the
    # rank R from it on, r (R - r), and the pairs and rank products of the
    # later quotients, whose tail cost is pairs + (g - 1) products
    for n in range(1, MAX_RANK + 1):
        assert [ranks for ranks, _ in _shapes(n)] == [r for r in _compositions(n) if len(r) > 1]
        for ranks, levels in _shapes(n):
            assert [level[:3] for level in levels] == [
                (r, sum(ranks[j:]), r * sum(ranks[j + 1 :])) for j, r in enumerate(ranks[:-1])
            ]
        for g in (1, 2, 7, 10**6):
            for ranks, levels in _shapes(n):
                tabled = [pairs + (g - 1) * products for *_, pairs, products in levels]
                assert tabled == tail_costs(ranks, g)[1 : len(ranks)], (ranks, g)


def test_every_enumerated_type_has_positive_codim():
    for t in enumerate_hn_types(3, 2, 2, 12):
        assert codim_hn(t, 2) > 0
        slopes = [Fraction(d, r) for r, d in t.quotients]
        assert all(slopes[i] > slopes[i + 1] for i in range(len(slopes) - 1))


def test_degree_shift_bijection():
    for n, d, g, k in [(2, 0, 2, 12), (3, 1, 2, 10)]:
        base = enumerate_hn_types(n, d, g, k)
        shifted = enumerate_hn_types(n, d + n, g, k)
        mapped = {
            tuple((r, dd + r) for r, dd in t.quotients): codim_hn(t, g) for t in base
        }
        assert {t.quotients: codim_hn(t, g) for t in shifted} == mapped


@pytest.mark.skipif(st is None, reason="hypothesis is a test-only dependency")
def test_twist_maps_types_in_order():
    # twisting by a line bundle of degree k sends each quotient (r, d) to
    # (r, d + k r): the types of (n, d + k n) are those of (n, d) twisted,
    # in the same order and with the same codimensions, which is what lets
    # SemistableSeries read a type list enumerated at another degree
    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(-12, 12),
        st.integers(-3, 3),
        st.sampled_from((2, 3, 4)),
        st.integers(0, 40),
    )
    def check(n, d, k, g, cap):
        base = enumerate_hn_types(n, d, g, cap)
        twisted = enumerate_hn_types(n, d + k * n, g, cap)
        assert [t.quotients for t in twisted] == [tuple((r, e + k * r) for r, e in t.quotients) for t in base]
        assert [codim_hn(t, g) for t in twisted] == [codim_hn(t, g) for t in base]

    check()


def test_most_types_a_series_within_the_caps_needs():
    # a series of rank n and degree d to order N enumerates the types of
    # codimension at most N; the count depends on d mod n only (a twist),
    # grows with N and falls with g (each codimension grows with g), so
    # genus 2 at MAX_ORDER gives the most, which the hntypes docstring
    # and SemistableSeries cite
    counts = {(n, d): len(enumerate_hn_types(n, d, 2, MAX_ORDER)) for n in range(1, MAX_RANK + 1) for d in range(n)}
    assert max(counts.values()) == counts[7, 6] == 4316 < MAX_HN_TYPES
    assert max(counts[8, d] for d in range(8)) == counts[8, 2] == 4108


def test_genus_zero_rejected_everywhere():
    with pytest.raises(DomainError):
        enumerate_hn_types(2, 0, 0, 5)
    with pytest.raises(DomainError):
        codim_deeper_stratum(ReductiveClass(((2, 1),)), 2, 0)


def test_reductive_classes_rank2():
    even = enumerate_reductive_classes(2, 0)
    assert [c.pairs for c in even] == [((2, 1),), ((1, 1), (1, 1))]
    assert [c.dim for c in even] == [4, 2]
    assert enumerate_reductive_classes(2, 4) == even
    assert enumerate_reductive_classes(2, 1) == []
    assert enumerate_reductive_classes(2, -3) == []


def test_reductive_classes_rank3():
    classes = enumerate_reductive_classes(3, 6)
    pair_sets = {c.pairs for c in classes}
    for expected in [((3, 1),), ((1, 1), (1, 1), (1, 1)), ((1, 1), (2, 1)), ((1, 1), (1, 2))]:
        assert tuple(sorted(expected)) in pair_sets
    # blow-up order: stabilizer dimension never increases down the list
    dims = [c.dim for c in classes]
    assert dims == sorted(dims, reverse=True)


def test_reductive_classes_oracle_small():
    # exhaustive check against a direct scan of pair multisets
    for n, d in [(2, 0), (3, 3), (4, 0), (4, 2), (6, 3)]:
        m = math.gcd(n, d)
        all_pairs = [
            (mult, rank)
            for rank in range(1, n + 1)
            for mult in range(1, n + 1)
            if mult * rank <= n and (rank * d) % n == 0
        ]
        found = set()

        def scan(idx, chosen, rank_left, sq_left):
            if rank_left == 0:
                found.add(tuple(sorted(chosen)))
                return
            for i in range(idx, len(all_pairs)):
                mult, rank = all_pairs[i]
                if mult * rank <= rank_left and mult * mult <= sq_left:
                    scan(i, chosen + [(mult, rank)], rank_left - mult * rank, sq_left - mult * mult)

        scan(0, [], n, m * m)
        found.discard(((1, n),))
        assert {c.pairs for c in enumerate_reductive_classes(n, d)} == found


def test_boundary_flagging():
    # gcd(4, 2) = 2 caps the stabilizer dimension at 4; only classes at the
    # cap other than the single pair (2, 2) get flagged
    classes = enumerate_reductive_classes(4, 2)
    assert {c.pairs for c in classes} == {((2, 2),), ((1, 2), (1, 2))}
    for c in classes:
        expected_flag = c.dim == 4 and c.pairs != ((2, 2),)
        assert c.at_dimension_bound == expected_flag


def test_codim_deeper_stratum_values():
    for g in range(1, 11):
        assert codim_deeper_stratum(ReductiveClass(((2, 1),)), 2, g) == 3 * g
        assert codim_deeper_stratum(ReductiveClass(((1, 1), (1, 1))), 2, g) == 2 * g - 2
    assert codim_deeper_stratum(ReductiveClass(((1, 1), (1, 2))), 3, 5) == 4 * 4


def test_codim_deeper_stratum_rank_mismatch():
    with pytest.raises(DomainError):
        codim_deeper_stratum(ReductiveClass(((2, 1),)), 3, 2)
