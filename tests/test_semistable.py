import math
from fractions import Fraction

import pytest

from hpbundles import (
    ONE,
    U,
    V,
    DomainError,
    FactoredRational,
    SemistableSeries,
    TruncatedSeries,
    codim_hn,
    enumerate_hn_types,
    exact_divide,
    hp_jacobian,
    hp_ss_rank2_closed_form,
    hp_ss_series,
    stable_coprime_polynomial,
    uv_power,
)
from hpbundles import InternalCheckError, packed, semistable
from hpbundles.hntypes import MAX_RANK, _compositions
from hpbundles.packed import _Band, _diagonal_norm, _slot_width
from hpbundles.semistable import _leading_series, leading_closed_term, ss_closed_form
from hpbundles.series import _expand_factors
from hpbundles.univariate import diagonal_ss_series, diagonal_stable_coprime

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is a test-only dependency
    st = None


def test_rank1_series_matches_closed_form():
    for g in (2, 3):
        closed = FactoredRational((ONE + U) ** g * (ONE + V) ** g, {(1, 1): 1})
        for d in (-1, 0, 5):
            assert hp_ss_series(1, d, g, 8) == closed.series_expand(8)


def test_rank2_series_matches_closed_form():
    for g in (2, 3):
        closed = hp_ss_rank2_closed_form(g)
        assert hp_ss_series(2, 0, g, 12) == closed.series_expand(12)


def test_closed_form_constant_term():
    for g in (2, 3, 5):
        assert hp_ss_rank2_closed_form(g).series_expand(0).coefficient(0, 0) == 1


def test_closed_form_numerator_low_coefficients():
    # low coefficients confirmed against a by-hand expansion: uv comes only
    # from picking one u and one v out of the Jacobian factors, so g^2 = 4;
    # u^2 v gets 2 from (1+u^2 v)^2 plus 2 from u^2 times v
    num = hp_ss_rank2_closed_form(2).num
    assert num.coefficient(0, 0) == 1
    assert num.coefficient(1, 1) == 4
    assert num.coefficient(1, 0) == 2
    assert num.coefficient(2, 1) == 4


def test_degree_shift_invariance_fresh_caches():
    for n, g, order in [(2, 2, 14), (3, 2, 10)]:
        for d in (0, 1):
            lhs = SemistableSeries().series(n, d, g, order)
            rhs = SemistableSeries().series(n, d + n, g, order)
            assert lhs == rhs


def test_degree_shift_by_two_periods():
    for g in (2, 3):
        lhs = SemistableSeries().series(2, 4, g, 20)
        rhs = SemistableSeries().series(2, 0, g, 20)
        assert lhs == rhs


def test_memoized_reruns_agree():
    a = SemistableSeries()
    b = SemistableSeries()
    first = a.series(3, 0, 2, 10)
    again = a.series(3, 0, 2, 10)  # cache hit
    fresh = b.series(3, 0, 2, 10)
    assert first == again == fresh
    assert a.hits >= 1


def _state(held):
    """A held packed value's fields, to check that nothing mutates it."""
    return held.band, held.band.width, held.value, held.order, held.bound


def test_memo_entries_unchanged_by_later_requests():
    # A product entry is replaced when a higher window is asked for, so
    # the objects held before the later requests are kept and checked
    # themselves, and each current entry is read at their order.
    evaluator = SemistableSeries()
    evaluator.series(3, 1, 2, 16)
    series = {key: (entry, dict(entry.items())) for key, entry in evaluator._cache.items()}
    held = {
        (name, key): (entry, _state(entry), entry.read(entry.order))
        for name in ("_products", "_leading")
        for key, entry in getattr(evaluator, name).items()
    }
    assert any(name == "_products" for name, _ in held)
    # (2, 0) at orders 12 and 20 reads the rank-1 products this memo
    # holds, and order 20 replaces them; the others reuse its series as
    # factors, and (3, 1) at order 24 replaces its products
    for n, d, order in ((2, 0, 12), (2, 0, 20), (4, 1, 16), (3, 1, 24), (3, 1, 16)):
        evaluator.series(n, d, 2, order)
    for key, (entry, terms) in series.items():
        assert dict(entry.items()) == terms, key
        assert dict(evaluator._cache[key].items()) == terms, key
    replaced = 0
    for (name, key), (entry, state, terms) in held.items():
        current = getattr(evaluator, name)[key]
        assert _state(entry) == state, (name, key)
        assert current.read(entry.order) == terms, (name, key)
        replaced += current is not entry
    assert replaced


def _classes(quotients):
    return tuple(sorted((nj, dj % nj) for nj, dj in quotients))


@pytest.mark.parametrize("orders", [(32, 24, 16, 8), (8, 16, 24, 32)])
def test_product_memo_one_entry_per_class_multiset(orders, monkeypatch):
    g = 2
    served = []  # (classes, window asked, held product returned), in call order
    product = SemistableSeries._product

    def recording(self, quotients, g, window):
        held = product(self, quotients, g, window)
        served.append((_classes(quotients), window, held))
        return held

    packs = []  # one per factor series packed into a product
    pack = packed._Band.pack

    def counting(*args):
        packs.append(None)
        return pack(*args)

    monkeypatch.setattr(SemistableSeries, "_product", recording)
    monkeypatch.setattr(packed._Band, "pack", counting)
    evaluator = SemistableSeries()
    for order in orders:
        for r in range(5):
            evaluator.series(5, r, g, order)

    # one entry per (classes, g): the class multisets of the live types of
    # every series computed
    live = {
        (_classes(t.quotients), g)
        for (n, r, _), top in evaluator._top.items()
        for t in enumerate_hn_types(n, r, g, top.order)
        if 2 * codim_hn(t, g) <= top.order
    }
    assert live and set(evaluator._products) == live

    # A product is formed only above the window its entry holds, from one
    # packed factor series per class.  Inside one sweep the recursion
    # still asks for lower-rank factor series at rising orders, so an
    # entry can be formed more than once, higher each time.
    held = {}
    formed = 0
    for classes, window, prod in served:
        before = held.get(classes)
        if prod is before:
            assert prod.order >= window, (classes, window)
        else:
            assert before is None or before.order < window == prod.order, (classes, window)
            held[classes] = prod
            formed += len(classes)
    assert formed and len(packs) == formed

    # asked for one multiset at windows falling, the evaluator forms it
    # once; rising, at every window
    swept = len(served)
    other = SemistableSeries()
    quotients = ((4, 1), (1, 0))
    first = other._product(quotients, g, orders[0])
    count = len(packs)
    for order in orders[1:]:
        prod = other._product(quotients, g, order)
        if orders[0] == max(orders):
            assert prod is first and len(packs) == count
        else:
            assert prod.order == order and len(packs) > count
            count = len(packs)
    monkeypatch.undo()

    # every product served, and the entry now held, read at each window
    # asked for equals a fresh product of fresh factor series
    fresh = {}

    def fresh_product(classes, order):
        prod = None
        for nj, rj in classes:
            if (nj, rj, order) not in fresh:
                fresh[nj, rj, order] = SemistableSeries().series(nj, rj, g, order)
            prod = fresh[nj, rj, order] if prod is None else prod * fresh[nj, rj, order]
        return dict(prod.items())

    for classes, window, prod in served[:swept]:
        expected = fresh_product(classes, window)
        assert prod.read(window) == expected, (classes, window)
        assert evaluator._products[classes, g].read(window) == expected, (classes, window)


def test_memo_order_of_requests_does_not_change_values():
    fresh_low = SemistableSeries().series(3, 1, 2, 10)
    fresh_high = SemistableSeries().series(3, 1, 2, 18)
    high_first = SemistableSeries()
    assert high_first.series(3, 1, 2, 18) == fresh_high
    misses = high_first.misses
    assert high_first.series(3, 1, 2, 10) == fresh_low
    assert high_first.misses == misses  # served by truncating the order-18 entry
    low_first = SemistableSeries()
    assert low_first.series(3, 1, 2, 10) == fresh_low
    assert low_first.series(3, 1, 2, 18) == fresh_high


def test_memo_exact_repeat_returns_cached_object():
    evaluator = SemistableSeries()
    first = evaluator.series(3, 1, 2, 12)
    hits, misses, used = evaluator.hits, evaluator.misses, evaluator.types_used
    assert evaluator.series(3, 4, 2, 12) is first
    assert (evaluator.hits, evaluator.misses, evaluator.types_used) == (hits + 1, misses, used)


def test_shared_evaluator_sweep_matches_univariate_oracle():
    # Orders out of sequence, so later requests are served from the
    # order-24 entries; the oracle runs once per class at the top order
    # and is truncated, because its own cost grows steeply with order.
    g, top = 2, 24
    evaluator = SemistableSeries()
    oracle_memo = {}
    for order in (top, 8, 16):
        for n in range(2, 6):
            for r in range(n):
                diag = evaluator.series(n, r - n, g, order).as_poly().specialize_diagonal()
                oracle = diagonal_ss_series(n, r, g, top, oracle_memo)
                assert [diag.get(k, 0) for k in range(order + 1)] == oracle[: order + 1], (n, r, order)


def test_series_coefficients_nonnegative_integers():
    for n, d in [(1, 0), (2, 0), (2, 1), (3, 0)]:
        series = hp_ss_series(n, d, 2, 10)
        for _, c in series.items():
            assert type(c) is int
            assert c >= 0


def test_series_uv_symmetric():
    for n, d in [(2, 0), (3, 2)]:
        series = hp_ss_series(n, d, 2, 10)
        terms = dict(series.items())
        assert terms == {(q, p): c for (p, q), c in terms.items()}


def test_truncation_consistency_of_recursion():
    high = SemistableSeries().series(2, 0, 2, 16)
    low = SemistableSeries().series(2, 0, 2, 9)
    assert high.truncate(9) == low


def test_genus_validation():
    with pytest.raises(DomainError, match="genus out of supported range"):
        hp_ss_series(2, 0, 1, 4)
    with pytest.raises(DomainError, match="genus out of supported range"):
        hp_ss_rank2_closed_form(1)


def test_windowed_leading_series_matches_full_expansion():
    # orders rising make the evaluator expand each one afresh, inside its
    # window; falling, it reads them out of the highest expansion held.
    # The full numerator's expansion to the top order, truncated, is its
    # expansion to each lower order.  The full numerator comes from the
    # shift-add expander and is divided by ``series._divide_factors``; the
    # windowed series are formed and divided packed inside their window
    # (``semistable._leading_series``).  The two share only the factors.
    # Ranks above 3 stop at order 40, and genus 40 at ranks up to 3: the
    # full numerator's box grows as (n^2 g)^2.  Genus 64 to order 100 has
    # 35-byte slots, read one by one, so it rises by nine orders a step.
    cases = [(n, g, range(41)) for n in range(4, MAX_RANK + 1) for g in range(2, 6)]
    cases += [(n, g, range(101)) for n in range(1, 4) for g in range(2, 6)]
    cases += [(n, 40, range(13)) for n in range(1, 4)] + [(2, 64, [*range(0, 100, 9), 100])]
    for n, g, rising in cases:
        top = rising[-1]
        full = leading_closed_term(n, g).series_expand(top)
        expected = {order: dict(full.truncate(order).items()) for order in range(top + 1)}
        evaluator = SemistableSeries()
        for orders, formed in ((rising, None), (range(top, -1, -1), top)):
            for order in orders:
                held = evaluator._leading_value(n, g, order)
                assert held.order == (order if formed is None else formed), (n, g, order)
                assert held.read(order) == expected[order], (n, g, order)


# the band of width min(n g, order + 1): n g at or below the cap, the cap
# order + 1 at order 0 and for g far above the order (genus 40 at order 4)
LEADING_SERIES_GRID = [(n, g, order) for n in (1, 2, 3, 5, 8) for g in (2, 3) for order in (0, 1, 2, 7, 16)]
LEADING_SERIES_GRID += [(n, 40, 4) for n in (1, 2, 3)] + [(2, 40, 0)]


@pytest.mark.parametrize("n, g, order", LEADING_SERIES_GRID)
def test_leading_series_is_the_closed_term_expanded(n, g, order):
    held = _leading_series(n, g, order)
    assert (held.band.band, held.order) == (min(n * g, order + 1), order)
    assert held.read(order) == dict(leading_closed_term(n, g).series_expand(order).items())


def test_leading_series_past_its_partition_counts_is_refused():
    # the bound reads the restricted partition counts tabled once per rank
    # up to the longest diagonal of a window within MAX_ORDER; a longer
    # one would read past them
    held = _leading_series(3, 2, semistable.MAX_ORDER + 1)
    assert max(map(abs, held.read(held.order).values())) <= held.bound
    with pytest.raises(InternalCheckError, match="above the cap"):
        _leading_series(3, 2, semistable.MAX_ORDER + 2)


def test_held_series_is_read_only_to_its_order():
    # a held series knows nothing above its order: a read or a cut there
    # is refused, as a widening is, instead of taking zeros for terms
    held = _leading_series(2, 2, 6)
    expected = dict(leading_closed_term(2, 2).series_expand(6).items())
    assert held.read(6) == expected
    assert held.window(6).unpack() == expected
    for order in (7, 10):
        with pytest.raises(InternalCheckError, match="order %d" % order):
            held.read(order)
        with pytest.raises(InternalCheckError):
            held.window(order)


def test_memoized_leading_series_is_only_read():
    evaluator = SemistableSeries()
    evaluator.series(3, 0, 2, 12)
    leading = evaluator._leading[(3, 2)]
    before = _state(leading)
    # the other residues read it at order 12 and 8; order 20 then
    # replaces it with a higher-order expansion
    for d, order in ((1, 12), (2, 12), (1, 8), (2, 20)):
        evaluator.series(3, d, 2, order)
    assert _state(leading) == before
    assert leading.read(12) == dict(leading_closed_term(3, 2).series_expand(12).items())
    current = evaluator._leading[(3, 2)]
    assert current is not leading and current.order == 20
    assert current.read(20) == dict(leading_closed_term(3, 2).series_expand(20).items())


def test_held_values_and_results_fit_their_slots(monkeypatch):
    # Every miss's result must fit the slots of the band it was read from,
    # every held value must hold its bound, and the bound must have sized
    # its slots.  The band of a miss is the target of its last widening;
    # a miss with no live type makes none and reads its leading series.
    targets = []
    widen = packed._widen

    def recording_widen(held, target, order):
        targets.append(target)
        return widen(held, target, order)

    results = []  # (n, g, result terms, band read from)
    miss = SemistableSeries._miss

    def recording_miss(self, n, d, g, order):
        before = len(targets)
        terms = miss(self, n, d, g, order)
        band = targets[-1] if len(targets) > before else self._leading[(n, g)].band
        results.append((n, g, terms, band, len(targets) > before))
        return terms

    monkeypatch.setattr(packed, "_widen", recording_widen)
    monkeypatch.setattr(SemistableSeries, "_miss", recording_miss)
    products = 0
    for g in (2, 3, 4):
        evaluator = SemistableSeries()
        for order in (24, 40, 7, 33, 16):
            for n in range(2, MAX_RANK + 1):
                for d in range(n):
                    evaluator.series(n, d, g, order)
        for held in [*evaluator._products.values(), *evaluator._leading.values()]:
            assert held.band.width == _slot_width(held.bound)
            assert max(map(abs, held.read(held.order).values())) <= held.bound
            # held masked to its window: nothing above it is kept
            assert 0 <= held.value < 1 << 8 * held.band.width * held.band.slots(held.order)
        products += len(evaluator._products)
    assert products and any(live for *_, live in results)
    for n, g, terms, band, live in results:
        assert max(map(abs, terms.values())) < band.limit, (n, g)
        if live:
            assert band.band == n * g, (n, g)


# hits, misses and types_used after each order of a sweep over ranks 2-6
# and every residue, on one evaluator per genus, as the dict recursion
# counted them; the CLI's --json output carries them
SWEEP_COUNTS = {
    ((40, 30, 20, 10), 2): [(265, 22, 402), (285, 22, 402), (305, 22, 402), (325, 22, 402)],
    ((40, 30, 20, 10), 3): [(128, 22, 202), (148, 22, 202), (168, 22, 202), (188, 22, 202)],
    ((10, 20, 30, 40), 2): [(18, 22, 16), (105, 44, 101), (265, 66, 310), (502, 88, 712)],
    ((10, 20, 30, 40), 3): [(4, 22, 5), (37, 44, 40), (114, 66, 138), (228, 88, 340)],
}


@pytest.mark.parametrize("orders, g", list(SWEEP_COUNTS))
def test_memo_counters_on_falling_and_rising_sweeps(orders, g):
    evaluator = SemistableSeries()
    counts = []
    for order in orders:
        for n in range(2, 7):
            for d in range(n):
                evaluator.series(n, d, g, order)
        counts.append((evaluator.hits, evaluator.misses, evaluator.types_used))
    assert counts == SWEEP_COUNTS[orders, g]


def test_type_list_is_read_up_to_twice_its_cap(monkeypatch):
    # one evaluator asks for the class (5, 2 mod 5) at rising orders, each
    # at another degree of the class: the list enumerated to codimension 8
    # serves order 16, and the one to 24 serves order 32
    requests = [(2, 8), (7, 16), (-3, 24), (12, 32)]
    fresh = [SemistableSeries().series(5, d, 2, order) for d, order in requests]
    calls = []
    enumerate_types = semistable.enumerate_hn_types

    def counting(n, d, g, max_codim):
        calls.append((n, max_codim))
        return enumerate_types(n, d, g, max_codim)

    monkeypatch.setattr(semistable, "enumerate_hn_types", counting)
    evaluator = SemistableSeries()
    assert [evaluator.series(5, d, 2, order) for d, order in requests] == fresh
    assert [order for n, order in calls if n == 5] == [8, 24]


@pytest.mark.skipif(st is None, reason="hypothesis is a test-only dependency")
def test_held_type_lists_change_no_series_and_no_counter():
    # on one evaluator, a short sequence of requests at any degrees: each
    # result equals a fresh evaluator's, every miss (the recursion's own
    # included) counts once, and the live types it used are those of
    # codimension at most order // 2, counted by a fresh enumeration
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 5), st.integers(-10, 10), st.sampled_from((2, 3)), st.integers(0, 40)),
            min_size=1,
            max_size=6,
        )
    )
    def check(requests):
        evaluator = SemistableSeries()
        misses = []

        def recording(n, d, g, order):
            misses.append((n, d, g, order))
            return SemistableSeries._miss(evaluator, n, d, g, order)

        evaluator._miss = recording
        for n, d, g, order in requests:
            assert evaluator.series(n, d, g, order) == SemistableSeries().series(n, d, g, order)
        assert evaluator.misses == len(misses)
        assert evaluator.types_used == sum(len(enumerate_hn_types(n, d, g, order // 2)) for n, d, g, order in misses)

    check()


def test_leading_term_rank1():
    lead = leading_closed_term(1, 3)
    assert lead.num == (ONE + U) ** 3 * (ONE + V) ** 3
    assert lead.den == {(1, 1): 1}


def test_stable_coprime_rank1():
    poly = stable_coprime_polynomial(1, 0, 2)
    assert poly == (ONE + U) ** 2 * (ONE + V) ** 2


def test_stable_coprime_rank2():
    poly = stable_coprime_polynomial(2, 1, 2)
    assert poly.constant_term == 1
    assert poly.is_symmetric()
    assert poly.is_integral()
    assert all(c >= 0 for _, c in poly.items())
    # top degree twice the moduli dimension, with a single dual class
    dim = 4 * (2 - 1) + 1
    assert poly.total_degree() == 2 * dim
    assert poly.coefficient(dim, dim) == 1


def _assert_coprime_diagonal_matches_univariate(n, d, g):
    diag = stable_coprime_polynomial(n, d, g).specialize_diagonal()
    dim = n * n * (g - 1) + 1
    oracle = diagonal_stable_coprime(n, d, g, 2 * dim)
    for k in range(2 * dim + 1):
        assert diag.get(k, 0) == oracle[k]


def test_stable_coprime_diagonal_matches_univariate_recursion():
    _assert_coprime_diagonal_matches_univariate(2, 1, 2)


# rank 5 is left out: the univariate oracle alone takes about a minute there
@pytest.mark.parametrize("n, d, g", [(2, 1, 3), (3, 1, 2), (3, 2, 2), (3, 1, 3), (4, 1, 2), (4, 3, 2)])
def test_stable_coprime_diagonal_matches_univariate_beyond_rank2_genus2(n, d, g):
    _assert_coprime_diagonal_matches_univariate(n, d, g)


def test_stable_coprime_rejects_common_factor():
    with pytest.raises(DomainError, match="semistable != stable"):
        stable_coprime_polynomial(2, 0, 2)


@pytest.mark.parametrize(
    "args, name", [((2, 1, 2.0), "genus"), ((2.0, 1, 3), "rank"), ((3, 1.0, 2), "degree"), ((3, 1, "2"), "genus")]
)
def test_stable_coprime_rejects_non_integer_arguments(args, name):
    with pytest.raises(DomainError, match="%s must be an integer" % name):
        stable_coprime_polynomial(*args)


@pytest.mark.parametrize(
    "args, name", [((2, 1, 2.0), "genus"), ((2.0, 1, 3), "rank"), ((3, 1.0, 2), "degree"), ((3, 1, True), "genus")]
)
def test_closed_form_rejects_non_integer_arguments(args, name):
    with pytest.raises(DomainError, match="%s must be an integer" % name):
        ss_closed_form(*args)


@pytest.mark.parametrize(
    "args, name",
    [((2, 1, 2.0, 4), "genus"), ((2.0, 1, 3, 4), "rank"), ((3, 1.0, 2, 4), "degree"), ((3, 1, 2, 4.0), "series order")],
)
def test_ss_series_rejects_non_integer_arguments(args, name):
    # checked on a miss; a repeat is served from the memo without the check
    with pytest.raises(DomainError, match="%s must be an integer" % name):
        hp_ss_series(*args)


def test_univariate_diagonal_agrees_with_bivariate_series():
    for n, d, g in [(1, 0, 2), (2, 0, 2), (2, 1, 3)]:
        order = 10
        bivariate = hp_ss_series(n, d, g, order)
        diag = bivariate.as_poly().specialize_diagonal()
        uni = diagonal_ss_series(n, d, g, order)
        for k in range(order + 1):
            assert diag.get(k, 0) == uni[k]


# ranks 2-4 and genera 2-4 cover every class of the benchmark's coprime
# workload; at (4, 4) the reference runs at order 100, the series cap
@pytest.mark.parametrize("n, g", [(n, g) for n in (2, 3, 4) for g in (2, 3, 4)])
def test_stable_coprime_matches_full_order_recursion(n, g):
    # the replaced pipeline: (1-uv) times the recursion's series, taken
    # past twice the moduli dimension, with no terms left above it
    dim = n * n * (g - 1) + 1
    for r in range(1, n):
        if math.gcd(n, r) != 1:
            continue
        quot = hp_ss_series(n, r, g, 2 * dim + 2).mul_poly(ONE - U * V)
        assert all(p + q <= 2 * dim for p, q in dict(quot.items()))
        reference = quot.as_poly()
        for d in range(r - 2 * n, r + 2 * n + 1, n):
            assert stable_coprime_polynomial(n, d, g) == reference, (n, d, g)


# the (rank, genus) classes of the benchmark's coprime workload
BENCHMARK_COPRIME_CLASSES = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (3, 4)]


@pytest.mark.parametrize("n, g", BENCHMARK_COPRIME_CLASSES)
def test_stable_coprime_dual_degree_and_jacobian_factor(n, g):
    # two certificates kept out of the per-call path: dualizing a bundle
    # maps degree d to -d, so P(n, d) = P(n, n - d), and the moduli space
    # carries the Jacobian's cohomology as a factor
    jacobian = hp_jacobian(g)
    for d in range(1, n):
        if math.gcd(n, d) != 1:
            continue
        poly = stable_coprime_polynomial(n, d, g)
        assert poly == stable_coprime_polynomial(n, n - d, g), (n, d, g)
        assert exact_divide(poly, jacobian).is_integral(), (n, d, g)


@pytest.mark.parametrize("n, g", BENCHMARK_COPRIME_CLASSES)
def test_stable_coprime_reads_a_shared_evaluator(n, g):
    # a shared evaluator that holds the class at a higher order, asked at
    # another degree of the class, serves the series to the moduli
    # dimension as one memo hit, a truncation, and the polynomial is the
    # one a fresh evaluator gives
    dim = n * n * (g - 1) + 1
    for d in range(1, n):
        if math.gcd(n, d) != 1:
            continue
        evaluator = SemistableSeries()
        evaluator.series(n, d + 5 * n, g, dim + 4)
        hits, misses = evaluator.hits, evaluator.misses
        assert stable_coprime_polynomial(n, d, g, evaluator) == stable_coprime_polynomial(n, d, g), (n, d, g)
        assert (evaluator.hits, evaluator.misses) == (hits + 1, misses), (n, d, g)


CLOSED_FORM_MISMATCH = "closed form's denominator is not its numerator"


class _HeldSeries:
    """An evaluator that serves the one series it holds, whatever order it
    is asked for."""

    def __init__(self, terms, order):
        self.held = TruncatedSeries(terms, order)

    def series(self, n, d, g, order):
        return self.held


def _changed(n, d, g, changes):
    """An evaluator serving the recursion's true series to the moduli
    dimension with the coefficient at each exponent of changes raised by
    its delta."""
    dim = n * n * (g - 1) + 1
    terms = dict(SemistableSeries().series(n, d, g, dim).items())
    for e, delta in changes.items():
        terms[e] = terms.get(e, 0) + delta
    return _HeldSeries(terms, dim)


# (4, 1, 2) and (5, 2, 2) have compositions of up to four and five parts,
# each opening with the Jacobian factor the certificate applies once
@pytest.mark.parametrize("n, d, g", [(2, 1, 2), (3, 1, 2), (3, 2, 3), (4, 1, 2), (5, 2, 2)])
def test_coprime_certificate_rejects_one_changed_coefficient(n, d, g):
    dim = n * n * (g - 1) + 1
    assert stable_coprime_polynomial(n, d, g, _changed(n, d, g, {})) == stable_coprime_polynomial(n, d, g)
    # S at (p, q) changes P = (1-uv) S at (p, q) and (p + 1, q + 1); below
    # total degree dim - 2, or at dim - 1, where the second falls above the
    # window, each change is mirrored with its dual, so P stays dual by
    # construction and the closed form alone refuses it
    terms = hp_ss_series(n, d, g, dim)._terms
    low = sorted(e for e in terms if sum(e) <= dim - 3)
    top = sorted(e for e in terms if sum(e) == dim - 1)
    for e in (low[0], low[len(low) // 2], low[-1], top[0], top[-1]):
        with pytest.raises(InternalCheckError, match=CLOSED_FORM_MISMATCH):
            stable_coprime_polynomial(n, d, g, _changed(n, d, g, {e: 1}))
    # the middle diagonal p + q = dim is taken whole, not mirrored: a change
    # off p = q is refused as not dual, one on it, self-dual, by the closed
    # form
    with pytest.raises(InternalCheckError, match="Poincare duality"):
        stable_coprime_polynomial(n, d, g, _changed(n, d, g, {(dim // 2 + 1, dim - dim // 2 - 1): 1}))
    if dim % 2 == 0:
        with pytest.raises(InternalCheckError, match=CLOSED_FORM_MISMATCH):
            stable_coprime_polynomial(n, d, g, _changed(n, d, g, {(dim // 2, dim // 2): -1}))
    # an empty series gives the zero polynomial: integral and dual, and no
    # quotient of the closed form
    with pytest.raises(InternalCheckError, match=CLOSED_FORM_MISMATCH):
        stable_coprime_polynomial(n, d, g, _HeldSeries({}, dim))


@pytest.mark.parametrize("n, d, g", [(2, 1, 2), (3, 1, 2), (4, 3, 2)])
def test_coprime_certificate_box_is_sized_from_the_candidate(monkeypatch, n, d, g):
    # a coefficient of S raised by one slot's range of the band the true
    # series gets: packed in that band, the raised slot would carry into
    # its neighbour, so the band must widen with the series' largest
    # coefficient and the candidate fail the comparison, not a bounds check
    dim = n * n * (g - 1) + 1
    terms = dict(hp_ss_series(n, d, g, dim).items())
    e = sorted(x for x in terms if sum(x) <= dim - 3)[-1]
    bands = []

    def recording(band, bound):
        bands.append(_Band(band, bound))
        return bands[-1]

    monkeypatch.setattr(semistable, "_Band", recording)
    stable_coprime_polynomial(n, d, g, _HeldSeries(terms, dim))
    assert len(bands) == 1 and bands[0].band == n * g
    width = bands[0].width
    raised = {**terms, e: terms[e] + (1 << 8 * width)}
    with pytest.raises(InternalCheckError, match=CLOSED_FORM_MISMATCH):
        stable_coprime_polynomial(n, d, g, _HeldSeries(raised, dim))
    assert len(bands) == 2 and bands[1].band == n * g
    assert bands[1].width > width


@pytest.mark.parametrize("n, d, g", [(2, 1, 2), (3, 1, 2), (2, 1, 3), (4, 1, 2)])
def test_coprime_certificate_rejects_a_dual_pair_off_the_band(monkeypatch, n, d, g):
    # the recursion's series and the closed form lie in the band
    # |p - q| <= n g, so a series with a term in its window p + q <= dim
    # but off the band is refused before anything is packed: packed, it
    # would alias a slot of the band
    dim = n * n * (g - 1) + 1
    q = (dim - n * g - 1) // 2
    off = [(0, n * g + 1), (n * g + 1, 0), (q + n * g + 1, q)]
    evaluators = [_changed(n, d, g, {e: 1}) for e in off]

    def refused(*args):
        raise AssertionError("packed a series off the band")

    monkeypatch.setattr(packed._Band, "pack", refused)
    for (p, q), evaluator in zip(off, evaluators):
        assert abs(p - q) > n * g and min(p, q) >= 0 and p + q <= dim
        with pytest.raises(InternalCheckError, match="outside its window"):
            stable_coprime_polynomial(n, d, g, evaluator)


@pytest.mark.parametrize("n, d, g", [(2, 1, 2), (3, 1, 2), (4, 1, 2), (5, 2, 2)])
def test_stable_coprime_certifies_what_it_returns(n, d, g):
    # the production path forms the polynomial from the evaluator's series
    # and certifies that value itself: a series with one changed
    # coefficient, at the constant term, in the middle of the window, at
    # its top or just below it, gives a polynomial the closed form refuses,
    # or, on the top diagonal p + q = dim off p = q, which is not mirrored,
    # one that is not dual
    dim = n * n * (g - 1) + 1
    for exponent in ((0, 0), (dim // 4, dim // 4), (dim // 2, dim - dim // 2), (dim // 2, dim // 2 - 1)):
        with pytest.raises(InternalCheckError):
            stable_coprime_polynomial(n, d, g, _changed(n, d, g, {exponent: 1}))
    # and a series that is not integral is refused before it is packed
    with pytest.raises(InternalCheckError, match="non-integer"):
        stable_coprime_polynomial(n, d, g, _changed(n, d, g, {(0, 0): Fraction(1, 2)}))


# every coprime class of ranks 2-5 at genus 2 and ranks 2-3 at genus 3
DIVISION_ORACLE_CLASSES = [
    (n, d, g) for n, g in [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)] for d in range(1, n) if math.gcd(n, d) == 1
]


@pytest.mark.parametrize("n, d, g", DIVISION_ORACLE_CLASSES)
def test_stable_coprime_equals_the_public_division_path(n, d, g):
    # the closed-form sum times (1-uv), divided out by the public
    # FactoredRational.as_polynomial
    closed = ss_closed_form(n, d, g)
    den = dict(closed.den)
    den[(1, 1)] -= 1
    assert stable_coprime_polynomial(n, d, g) == FactoredRational(closed.num, den).as_polynomial()


def test_closed_form_exponent_is_integral_up_to_rank_8():
    # e depends on the genus only through an integer term
    for n in range(1, 9):
        for ranks in _compositions(n):
            for d in range(n):
                assert semistable._closed_form_exponent(ranks, d, 2).denominator == 1, (ranks, d)


@pytest.mark.parametrize("n", range(1, MAX_RANK + 1))
def test_coprime_denominator_norm_bounds_every_partial_product(n):
    # times_diagonal forms the product over the first j strides for each j,
    # in order, so the norm packed derives for them must bound the L1 norm
    # of every one of them, not only of the whole denominator: 224 against
    # 208 at rank 5 and 5036 against 5012 at rank 7
    strides = semistable._coprime_denominator(n)
    partial, norms = ONE, [1]
    for m in strides:
        partial = partial * (ONE - uv_power(m))
        norms.append(sum(abs(c) for _, c in partial.items()))
    # the strides are those of the denominator less one factor (1-uv)
    den = dict(semistable._closed_form_shape(n)[1])
    den[(1, 1)] -= 1
    assert partial == _expand_factors(den)
    norm = _diagonal_norm(strides)
    assert norm == max(norms), (n, norm, max(norms))
    # pinned: the certificate's band, and so its slot width, is sized by
    # these norms
    assert norm == (1, 4, 16, 68, 224, 1196, 5036, 18500)[n - 1]


def test_closed_form_rejects_fractional_exponent(monkeypatch):
    # the parts are held per class, so the class must be formed anew
    semistable._closed_form_terms.cache_clear()
    monkeypatch.setattr(semistable, "_closed_form_exponent", lambda ranks, d, g: Fraction(1, 2))
    with pytest.raises(InternalCheckError, match="not an integer"):
        ss_closed_form(2, 1, 2)


def test_closed_form_parts_are_formed_once_per_class(monkeypatch):
    # the parts depend on (n, d mod n, g) alone: formed once per class, one
    # exponent per composition, and read for every degree of the class;
    # the arguments and caps are still checked on every call
    semistable._closed_form_terms.cache_clear()
    exponent = semistable._closed_form_exponent
    calls = []

    def counting(ranks, d, g):
        calls.append(ranks)
        return exponent(ranks, d, g)

    monkeypatch.setattr(semistable, "_closed_form_exponent", counting)
    parts = semistable._closed_form_parts(4, 1, 2)
    assert len(calls) == len(list(_compositions(4))) == len(parts)
    for d in (5, -3, 41):
        assert semistable._closed_form_parts(4, d, 2) is parts
    assert len(calls) == len(parts)
    assert semistable._closed_form_parts(4, 3, 2) != parts and len(calls) == 2 * len(parts)
    # tuples all the way down, so no caller can change what is held
    assert type(parts) is tuple
    assert all(type(part) is tuple and type(part[2]) is tuple for part in parts)
    for args, error in (((4, 1.5, 2), DomainError), ((4, 1, 1), DomainError), ((4, 1, 17), DomainError)):
        with pytest.raises(error):
            semistable._closed_form_parts(*args)


@pytest.mark.parametrize("n, d, g, order", [(1, 0, 3, 12), (2, 0, 3, 16), (3, 1, 2, 20), (4, 2, 3, 16)])
def test_closed_form_series_matches_recursion(n, d, g, order):
    assert ss_closed_form(n, d, g).series_expand(order) == hp_ss_series(n, d, g, order)


def closed_form_by_sum(n, d, g, products):
    """``ss_closed_form`` term by term: each composition's product of leading
    terms, shifted and signed, added by ``FactoredRational.sum``.  The
    products are kept in ``products``, keyed by the sorted parts and g."""
    terms = []
    for ranks in _compositions(n):
        e = semistable._closed_form_exponent(ranks, d, g)
        den = {}
        for a, b in zip(ranks, ranks[1:]):
            den[(a + b, a + b)] = den.get((a + b, a + b), 0) + 1
        key = (tuple(sorted(ranks)), g)
        if key not in products:
            product = FactoredRational(ONE)
            for m in key[0]:
                product = product * leading_closed_term(m, g)
            products[key] = product
        terms.append(FactoredRational(uv_power(int(e)), den, (-1) ** (len(ranks) - 1)) * products[key])
    return FactoredRational.sum(terms)


@pytest.mark.parametrize(
    "n, residues, genera",
    [(n, range(n), (2, 3, 4)) for n in range(1, 7)] + [(8, (1, 3), (2,))],
    ids=["rank%d" % n for n in (1, 2, 3, 4, 5, 6, 8)],
)
def test_closed_form_equals_sum_of_leading_products(n, residues, genera):
    # the same num, den and scalar as the composition-by-composition sum
    products = {}
    for d in residues:
        for g in genera:
            closed = ss_closed_form(n, d, g)
            expected = closed_form_by_sum(n, d, g, products)
            assert closed.num == expected.num, (n, d, g)
            assert closed.den == expected.den, (n, d, g)
            assert closed.scalar == expected.scalar == 1, (n, d, g)


def test_closed_form_rank2_equals_hand_coded_closed_form():
    for g in (2, 3, 4):
        assert ss_closed_form(2, 0, g).equals(hp_ss_rank2_closed_form(g))


def test_caps_reject_inputs_one_over():
    with pytest.raises(DomainError, match="cap"):
        hp_ss_series(2, 1, 2, semistable.MAX_ORDER + 1)
    with pytest.raises(DomainError, match="cap"):
        hp_ss_series(MAX_RANK + 1, 1, 2, 4)
    with pytest.raises(DomainError, match="cap"):
        ss_closed_form(MAX_RANK + 1, 1, 2)
    with pytest.raises(DomainError, match="cap"):
        stable_coprime_polynomial(MAX_RANK + 1, 1, 2)


def test_closed_form_rejects_moduli_dimension_one_over_its_cap(monkeypatch):
    # dimension n^2(g-1) + 1: 257 for rank 1 at genus 257, and over the
    # cap first for rank 2 at genus 65 and rank 8 at genus 5; nothing is
    # expanded before the input is refused
    cap = semistable.MAX_CLOSED_FORM_DIM
    assert semistable.moduli_dimension(2, 64) <= cap < semistable.moduli_dimension(2, 65)
    assert semistable.moduli_dimension(8, 4) <= cap < semistable.moduli_dimension(8, 5)
    assert ss_closed_form(1, 0, cap).num == hp_jacobian(cap)

    def refuse(parts, g, band):
        raise AssertionError("expanded before the cap check")

    monkeypatch.setattr(semistable, "_closed_form_numerator", refuse)
    for n, g in ((1, cap + 1), (2, 65), (8, 5), (3, 1000)):
        with pytest.raises(DomainError, match="closed-form cap of %d" % cap):
            ss_closed_form(n, 1, g)
