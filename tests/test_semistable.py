import pytest

from hpbundles import (
    ONE,
    U,
    V,
    DomainError,
    FactoredRational,
    SemistableSeries,
    hp_ss_rank2_closed_form,
    hp_ss_series,
    stable_coprime_polynomial,
    uv_power,
)
from hpbundles.semistable import leading_closed_term
from hpbundles.univariate import diagonal_ss_series, diagonal_stable_coprime


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


def test_univariate_diagonal_agrees_with_bivariate_series():
    for n, d, g in [(1, 0, 2), (2, 0, 2), (2, 1, 3)]:
        order = 10
        bivariate = hp_ss_series(n, d, g, order)
        diag = bivariate.as_poly().specialize_diagonal()
        uni = diagonal_ss_series(n, d, g, order)
        for k in range(order + 1):
            assert diag.get(k, 0) == uni[k]
