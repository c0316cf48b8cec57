import random
from fractions import Fraction

import pytest

from hpbundles import (
    ONE,
    U,
    V,
    DivisionRemainderError,
    DomainError,
    FactoredRational,
    LaurentPoly,
    TruncatedSeries,
    exact_divide,
    series_expand,
    uv_power,
)
from hpbundles import series as series_module
from hpbundles.poly import _dense_pays
from hpbundles.series import _divide_binomial, _expand_factors


def brute_convolution(factors, order):
    """Convolve geometric series {(a,b):k} coefficient by coefficient;
    independent of the library's expansion path."""
    acc = {(0, 0): 1}
    for (a, b), k in factors.items():
        for _ in range(k):
            geo = {}
            j = 0
            while j * (a + b) <= order:
                geo[(a * j, b * j)] = 1
                j += 1
            nxt = {}
            for (p1, q1), c1 in acc.items():
                for (p2, q2), c2 in geo.items():
                    if p1 + p2 + q1 + q2 <= order:
                        key = (p1 + p2, q1 + q2)
                        nxt[key] = nxt.get(key, 0) + c1 * c2
            acc = nxt
    return {e: c for e, c in acc.items() if c}


def test_geometric_series():
    f = FactoredRational(ONE, {(1, 1): 1})
    s = f.series_expand(6)
    assert dict(s.items()) == {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1}


def test_telescoping():
    f = FactoredRational(ONE - uv_power(3), {(1, 1): 1})
    s = f.series_expand(10)
    assert dict(s.items()) == {(0, 0): 1, (1, 1): 1, (2, 2): 1}


def test_two_factor_convolution_against_oracle():
    f = FactoredRational(ONE, {(1, 1): 1, (2, 2): 1})
    s = f.series_expand(8)
    assert dict(s.items()) == brute_convolution({(1, 1): 1, (2, 2): 1}, 8)
    # frozen values from the convolution oracle
    assert dict(s.items()) == {(0, 0): 1, (1, 1): 1, (2, 2): 2, (3, 3): 2, (4, 4): 3}


def test_repeated_factor_against_oracle():
    f = FactoredRational(ONE, {(1, 1): 2, (1, 2): 1})
    s = f.series_expand(7)
    assert dict(s.items()) == brute_convolution({(1, 1): 2, (1, 2): 1}, 7)


def test_negative_exponent_numerator_rejected():
    f = FactoredRational(LaurentPoly({(-1, 0): 1}), {(1, 1): 1})
    with pytest.raises(DomainError, match="Laurent part not expandable"):
        f.series_expand(4)


def test_negative_order_rejected():
    with pytest.raises(DomainError):
        FactoredRational(ONE, {(1, 1): 1}).series_expand(-1)


def test_truncation_consistency_random():
    rng = random.Random(7)
    for _ in range(25):
        num = LaurentPoly(
            {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-4, 4)
                for _ in range(rng.randint(1, 5))
            }
        )
        den = {}
        for _ in range(rng.randint(0, 3)):
            den[(rng.randint(1, 3), rng.randint(1, 3))] = rng.randint(1, 2)
        f = FactoredRational(num, den, Fraction(rng.randint(1, 3), rng.randint(1, 3)))
        d2 = rng.randint(4, 10)
        d1 = rng.randint(0, d2)
        assert f.series_expand(d2).truncate(d1) == f.series_expand(d1)


def test_series_arithmetic_orders():
    a = FactoredRational(ONE, {(1, 1): 1}).series_expand(8)
    b = FactoredRational(ONE, {(2, 2): 1}).series_expand(5)
    assert (a + b).order == 5
    assert (a * b).order == 5
    assert (a - a).order == 8


def test_series_shift_bookkeeping():
    s = FactoredRational(ONE, {(1, 1): 1}).series_expand(4)
    shifted = s.shift(2)
    assert shifted.order == 8
    assert shifted.coefficient(2, 2) == 1
    assert shifted.coefficient(0, 0) == 0


def test_series_rejects_negative_exponents():
    with pytest.raises(DomainError):
        TruncatedSeries({(-1, 0): 1}, 3)


def test_equality_by_cross_multiplication():
    # (1 - u^2 v^2) / ((1-uv)(1-u^2v^2)) == 1/(1-uv)
    lhs = FactoredRational(ONE - uv_power(2), {(1, 1): 1, (2, 2): 1})
    rhs = FactoredRational(ONE, {(1, 1): 1})
    assert lhs.equals(rhs)
    assert not lhs.equals(FactoredRational(ONE, {(2, 2): 1}))


def test_scalar_folding_in_addition():
    half = FactoredRational(ONE, {(1, 1): 1}, Fraction(1, 2))
    total = half + half
    assert total.equals(FactoredRational(ONE, {(1, 1): 1}))


def test_equality_agrees_with_series_random():
    rng = random.Random(8)
    for _ in range(20):
        num1 = LaurentPoly({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
        num2 = LaurentPoly({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
        den1 = {(rng.randint(1, 2), rng.randint(1, 2)): rng.randint(1, 2)}
        den2 = {(rng.randint(1, 2), rng.randint(1, 2)): rng.randint(1, 2)}
        f1 = FactoredRational(num1, den1)
        f2 = FactoredRational(num2, den2)
        # order bound: expansions decide equality past twice the degrees involved
        bound = 2 * max(
            (num1.total_degree() or 0) + 4,
            (num2.total_degree() or 0) + 4,
        )
        assert f1.equals(f2) == (f1.series_expand(bound) == f2.series_expand(bound))


def test_den_factor_validation():
    with pytest.raises(DomainError):
        FactoredRational(ONE, {(0, 1): 1})


def test_as_polynomial_via_division():
    f = FactoredRational(ONE - uv_power(2), {(1, 1): 1})
    assert f.as_polynomial() == ONE + U * V


def test_rational_product_and_shift():
    f = FactoredRational(ONE, {(1, 1): 1})
    g = f.shift_degrees(3)
    assert g.series_expand(6).coefficient(3, 3) == 1
    assert g.series_expand(6).coefficient(0, 0) == 0
    h = f * f
    assert h.den == {(1, 1): 2}


def pairwise_series_product(x, y):
    """The series product as a pairwise loop over both operands, skipping
    the pairs beyond the smaller order: an oracle for the shared kernels."""
    order = min(x.order, y.order)
    res = {}
    for (p1, q1), c1 in x.items():
        if p1 + q1 > order:
            continue
        for (p2, q2), c2 in y.items():
            p, q = p1 + p2, q1 + q2
            if p + q > order:
                continue
            res[(p, q)] = res.get((p, q), 0) + c1 * c2
    return {e: c for e, c in res.items() if c}


SERIES_COEFFICIENTS = (
    lambda rng: rng.randint(-5, 5),
    lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 8)),
    lambda rng: rng.choice((-1, 1)) * rng.randrange(2**64, 2**200),
)


def random_series(rng, order, fill):
    coeff = rng.choice(SERIES_COEFFICIENTS)
    terms = {
        (p, k - p): coeff(rng)
        for k in range(order + 1)
        for p in range(k + 1)
        if rng.random() < fill
    }
    return TruncatedSeries(terms, order)


def test_series_product_matches_pairwise_loop():
    rng = random.Random(11)
    dense_taken = sparse_taken = 0
    for _ in range(120):
        x = random_series(rng, rng.randint(0, 24), rng.choice((0.05, 0.3, 1.0)))
        y = random_series(rng, rng.randint(0, 24), rng.choice((0.05, 0.3, 1.0)))
        product = x * y
        expected = pairwise_series_product(x, y)
        assert product.order == min(x.order, y.order)
        assert dict(product.items()) == expected
        assert all(type(c) is int or c.denominator != 1 for _, c in product.items())
        assert (y * x) == product
        short, long_ = sorted((dict(x.items()), dict(y.items())), key=len)
        if _dense_pays(short, long_):
            dense_taken += 1
        elif len(short) > 1:
            sparse_taken += 1
    assert dense_taken >= 10 and sparse_taken >= 10  # both kernels ran


def test_series_product_of_expansions_matches_pairwise_loop():
    rng = random.Random(12)
    for _ in range(20):
        den = {(rng.randint(1, 2), rng.randint(1, 2)): rng.randint(1, 3) for _ in range(2)}
        num = LaurentPoly({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-4, 4) for _ in range(4)})
        x = FactoredRational(num, den).series_expand(rng.randint(8, 30))
        y = FactoredRational(ONE + U + V, den, Fraction(1, 3)).series_expand(rng.randint(8, 30))
        assert dict((x * y).items()) == pairwise_series_product(x, y)
        assert dict((x * x).items()) == pairwise_series_product(x, x)


def random_binomials(rng):
    return {(rng.randint(1, 3), rng.randint(1, 3)): rng.randint(1, 3) for _ in range(rng.randint(1, 3))}


def random_laurent(rng, terms):
    coeff = rng.choice(SERIES_COEFFICIENTS)
    return LaurentPoly(
        {(rng.randint(-3, 4), rng.randint(-3, 4)): coeff(rng) for _ in range(rng.randint(1, terms))}
    )


def test_running_sum_division_matches_exact_divide(monkeypatch):
    rng = random.Random(13)
    cases = []
    for _ in range(60):
        den = random_binomials(rng)
        num = random_laurent(rng, 8) * _expand_factors(den)
        scalar = rng.choice((1, -2, Fraction(3, 7), Fraction(-5, 2)))
        cases.append((FactoredRational(num, den, scalar), exact_divide(num * scalar, _expand_factors(den))))
    # exact inputs never reach the long division
    monkeypatch.setattr(series_module, "exact_divide", None)
    for f, expected in cases:
        quotient = f.as_polynomial()
        assert quotient == expected
        assert all(type(c) is int or c.denominator != 1 for _, c in quotient.items())


def test_running_sum_division_by_one_binomial():
    rng = random.Random(14)
    for _ in range(200):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        quotient = random_laurent(rng, 10)
        binomial = ONE - LaurentPoly.monomial(1, a, b)
        assert _divide_binomial((quotient * binomial)._terms, a, b) == quotient._terms
        inexact = quotient * binomial + LaurentPoly.monomial(1, rng.randint(-3, 6), rng.randint(-3, 6))
        if _divide_binomial(inexact._terms, a, b) is not None:
            assert LaurentPoly(_divide_binomial(inexact._terms, a, b)) * binomial == inexact
    assert _divide_binomial({}, 2, 1) == {}
    assert _divide_binomial({(0, 0): 1}, 1, 1) is None


def test_k_fold_division_matches_single_divisions_and_exact_divide():
    rng = random.Random(16)
    inexact_at = set()
    for _ in range(160):
        a, b, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
        binomial = ONE - LaurentPoly.monomial(1, a, b)
        product = random_laurent(rng, 8) * binomial**k
        for terms in (product._terms, (product + random_laurent(rng, 2))._terms):
            single = terms
            for _ in range(k):
                single = _divide_binomial(single, a, b)
                if single is None:
                    break
            try:
                expected = exact_divide(LaurentPoly(terms), binomial**k)._terms
            except DivisionRemainderError:
                expected = None
                inexact_at.add(k)
            got = _divide_binomial(terms, a, b, k)
            assert got == single == expected
            if got is not None:
                assert all(type(c) is int or c.denominator != 1 for c in got.values())
    assert inexact_at == {1, 2, 3, 4}
    assert _divide_binomial({}, 1, 2, 3) == {}
    # exact once but not twice: (1 - uv) / (1 - uv)^2
    assert _divide_binomial({(0, 0): 1, (1, 1): -1}, 1, 1, 1) == {(0, 0): 1}
    assert _divide_binomial({(0, 0): 1, (1, 1): -1}, 1, 1, 2) is None


def test_difference_of_series_matches_sum_with_negation():
    rng = random.Random(17)
    for _ in range(60):
        x = random_series(rng, rng.randint(0, 12), rng.random())
        y = random_series(rng, rng.randint(0, 12), rng.random())
        if rng.random() < 0.3:
            y = y + x  # shared terms, some of which cancel
        for s, t in ((x, y), (y, x), (x, x)):
            diff = s - t
            assert diff == s + (-t)
            assert diff.order == min(s.order, t.order)
            assert all(type(c) is int or c.denominator != 1 for _, c in diff.items())


def test_inexact_division_raises_the_long_division_remainder():
    rng = random.Random(15)
    raised = 0
    for _ in range(60):
        den = random_binomials(rng)
        num = random_laurent(rng, 6) * _expand_factors(den) + random_laurent(rng, 2)
        f = FactoredRational(num, den, rng.choice((1, Fraction(2, 3))))
        try:
            expected = exact_divide(f.scaled_num(), _expand_factors(den))
        except DivisionRemainderError as err:
            with pytest.raises(DivisionRemainderError) as caught:
                f.as_polynomial()
            assert caught.value.remainder == err.remainder
            assert str(caught.value) == str(err)
            raised += 1
        else:
            assert f.as_polynomial() == expected
    assert raised >= 40
