import math
import operator
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
from hpbundles import packed
from hpbundles import series as series_module
from hpbundles.series import _divide_factors, _expand_factors


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
    f = FactoredRational(ONE, {(1, 1): 2, (3, 3): 1})
    s = f.series_expand(15)
    assert dict(s.items()) == brute_convolution({(1, 1): 2, (3, 3): 1}, 15)


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
        for k in (rng.randint(1, 3) for _ in range(rng.randint(0, 3))):
            den[(k, k)] = rng.randint(1, 2)
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


@pytest.mark.parametrize("value", [0.5, 1.0, 1.5, 1.9, True, False], ids=repr)
def test_series_and_rational_constructors_reject_non_integers(value):
    # int() would read u^0.5 as 1 and 1/(1 - (uv)^1.5)^1.9 as 1/(1 - uv)
    with pytest.raises(DomainError, match="exponent must be an integer"):
        TruncatedSeries({(value, 0): 1}, 3)
    with pytest.raises(DomainError, match="series order must be an integer"):
        TruncatedSeries({}, value)
    with pytest.raises(DomainError, match="factor exponent must be an integer"):
        FactoredRational(ONE, {(value, value): 1})
    with pytest.raises(DomainError, match="multiplicity must be an integer"):
        FactoredRational(ONE, {(1, 1): value})


def test_rational_refuses_float_scalars_and_operands():
    f = FactoredRational(ONE, {(1, 1): 1})
    with pytest.raises(TypeError, match="must be int or Fraction"):
        FactoredRational(ONE, {(1, 1): 1}, 0.1)
    assert f.__mul__(0.5) is NotImplemented
    assert f.__add__(0.5) is NotImplemented
    for op in (operator.mul, operator.add, operator.sub):
        for lhs, rhs in ((f, 0.5), (0.5, f), (f, None)):
            with pytest.raises(TypeError):
                op(lhs, rhs)
    assert FactoredRational(ONE, {(1, 1): 1}, Fraction(2, 4)).scalar == Fraction(1, 2)
    assert (f * Fraction(1, 3)).scalar == Fraction(1, 3)


SERIES = TruncatedSeries({(0, 0): 1, (1, 0): 2}, 3)
FOREIGN = (0.5, 1, Fraction(1, 2), None, ONE, FactoredRational(ONE))


def test_series_add_refuses_foreign_operands():
    assert SERIES.__add__(SERIES) == TruncatedSeries({(0, 0): 2, (1, 0): 4}, 3)
    for other in FOREIGN:
        assert SERIES.__add__(other) is NotImplemented
        for lhs, rhs in ((SERIES, other), (other, SERIES)):
            with pytest.raises(TypeError):
                lhs + rhs


def test_series_sub_refuses_foreign_operands():
    assert SERIES.__sub__(SERIES) == TruncatedSeries({}, 3)
    for other in FOREIGN:
        assert SERIES.__sub__(other) is NotImplemented
        for lhs, rhs in ((SERIES, other), (other, SERIES)):
            with pytest.raises(TypeError):
                lhs - rhs


def test_series_mul_refuses_foreign_operands_and_keeps_exact_scaling():
    doubled = TruncatedSeries({(0, 0): 2, (1, 0): 4}, 3)
    assert SERIES * 2 == 2 * SERIES == doubled
    assert SERIES * Fraction(1, 2) == Fraction(1, 2) * SERIES == TruncatedSeries({(0, 0): Fraction(1, 2), (1, 0): 1}, 3)
    for other in (0.5, None, ONE, FactoredRational(ONE)):
        assert SERIES.__mul__(other) is NotImplemented
        for lhs, rhs in ((SERIES, other), (other, SERIES)):
            with pytest.raises(TypeError):
                lhs * rhs


@pytest.mark.parametrize("order", [1.5, 2.0, True, None, "2"], ids=repr)
def test_truncate_refuses_non_integer_orders(order):
    with pytest.raises(DomainError, match="series order must be an integer"):
        SERIES.truncate(order)


def test_truncate_refuses_negative_orders():
    with pytest.raises(DomainError, match="series order must be non-negative"):
        SERIES.truncate(-1)
    assert SERIES.truncate(0) == TruncatedSeries({(0, 0): 1}, 0)


@pytest.mark.parametrize("k", [0.5, 1.0, True, None], ids=repr)
def test_shift_refuses_non_integer_shifts(k):
    with pytest.raises(DomainError, match="shift must be an integer"):
        SERIES.shift(k)


@pytest.mark.parametrize("order", [2.5, 2.0, False, None], ids=repr)
def test_series_expand_refuses_non_integer_orders(order):
    with pytest.raises(DomainError, match="series order must be an integer"):
        FactoredRational(ONE, {(1, 1): 1}).series_expand(order)


@pytest.mark.parametrize("num", [0.5, None, "1", SERIES, {(0, 0): 1}], ids=repr)
def test_rational_refuses_non_polynomial_numerators(num):
    with pytest.raises(DomainError, match="numerator must be a LaurentPoly, int or Fraction"):
        FactoredRational(num)
    with pytest.raises(DomainError, match="numerator must be a LaurentPoly, int or Fraction"):
        FactoredRational(num, {(1, 1): 1}, 2)


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
        k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
        den1 = {(k1, k1): rng.randint(1, 2)}
        den2 = {(k2, k2): rng.randint(1, 2)}
        f1 = FactoredRational(num1, den1)
        f2 = FactoredRational(num2, den2)
        # order bound: expansions decide equality past twice the degrees involved
        bound = 2 * max(
            (num1.total_degree() or 0) + 4,
            (num2.total_degree() or 0) + 4,
        )
        assert f1.equals(f2) == (f1.series_expand(bound) == f2.series_expand(bound))


def test_residual_clears_scalars_by_the_lcm_of_their_denominators():
    rng = random.Random(20)
    scalars = (1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6), Fraction(2, 9))
    equal_pairs = 0
    for _ in range(60):
        den1, den2 = random_binomials(rng), random_binomials(rng)
        s1, s2 = rng.choice(scalars), rng.choice(scalars)
        num1 = random_laurent(rng, 5)
        f1 = FactoredRational(num1, den1, s1)
        if rng.random() < 0.4:
            # the same value written over another denominator and scalar:
            # num2 / (den1 den2) * s2 = num1 / den1 * s1
            num2 = num1 * _expand_factors(den2) * (Fraction(s1) / s2)
            f2 = FactoredRational(num2, den1, s2) * FactoredRational(ONE, den2)
            equal_pairs += 1
        else:
            f2 = FactoredRational(random_laurent(rng, 5), den2, s2)
        common = {f: max(f1.den.get(f, 0), f2.den.get(f, 0)) for f in set(f1.den) | set(f2.den)}
        # the difference of the values times the least common denominator
        # and the lcm of the scalars' denominators
        clear = math.lcm(Fraction(s1).denominator, Fraction(s2).denominator)
        lhs, rhs = (
            f.num * _expand_factors({e: k - f.den.get(e, 0) for e, k in common.items()}) * (f.scalar * clear)
            for f in (f1, f2)
        )
        expected = lhs - rhs
        residual = f1.residual(f2)
        assert residual == expected
        assert f1.equals(f2) == residual.is_zero()
    assert equal_pairs >= 15


def test_den_factor_validation():
    for den in ({(0, 1): 1}, {(1, 2): 1}, {(2, 1): 3}, {(1, 2): 0}, {(0, 0): 1}, {(1, 1): -1}):
        with pytest.raises(DomainError, match=r"must be \(1 - \(uv\)\^k\)\^m"):
            FactoredRational(ONE, den)
    assert FactoredRational(ONE, {(1, 1): 0, (2, 2): 1}).den == {(2, 2): 1}


def test_factor_expansion_packs_one_row(monkeypatch):
    # prod (1 - (uv)^k)^m is expanded in one variable: one read of a box
    # one slot wide, equal to the product of binomial powers
    boxes = []
    read = packed._Slots.read

    def recording_read(layout, value, slots):
        boxes.append((type(layout), layout.cols))
        return read(layout, value, slots)

    monkeypatch.setattr(packed._Slots, "read", recording_read)
    rng = random.Random(21)
    # the denominator of a coprime closed-form sum, and the empty product
    dens = [{(1, 1): 3, (2, 2): 2, (3, 3): 1, (5, 5): 1}, {}]
    dens += [random_binomials(rng) for _ in range(60)]
    for den in dens:
        boxes.clear()
        expected = ONE
        for (k, _), m in den.items():
            expected = expected * (ONE - uv_power(k)) ** m
        assert _expand_factors(den) == expected
        assert boxes == [(packed._Box, 1)]


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


def is_dense_fill(series):
    """At least 8 terms, filling at least half the window of its order."""
    terms = len(dict(series.items()))
    return terms >= 8 and 2 * terms >= (series.order + 1) * (series.order + 2) // 2


def test_series_product_matches_pairwise_loop():
    rng = random.Random(11)
    dense_pairs = 0
    for _ in range(120):
        x = random_series(rng, rng.randint(0, 24), rng.choice((0.05, 0.3, 1.0)))
        y = random_series(rng, rng.randint(0, 24), rng.choice((0.05, 0.3, 1.0)))
        product = x * y
        expected = pairwise_series_product(x, y)
        assert product.order == min(x.order, y.order)
        assert dict(product.items()) == expected
        assert all(type(c) is int or c.denominator != 1 for _, c in product.items())
        assert (y * x) == product
        dense_pairs += is_dense_fill(x) and is_dense_fill(y)
    assert dense_pairs >= 10  # products of dense series, as the recursion makes, were checked


def test_series_product_of_expansions_matches_pairwise_loop():
    rng = random.Random(12)
    for _ in range(20):
        den = {(k, k): rng.randint(1, 3) for k in (rng.randint(1, 3) for _ in range(2))}
        num = LaurentPoly({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-4, 4) for _ in range(4)})
        x = FactoredRational(num, den).series_expand(rng.randint(8, 30))
        y = FactoredRational(ONE + U + V, den, Fraction(1, 3)).series_expand(rng.randint(8, 30))
        assert dict((x * y).items()) == pairwise_series_product(x, y)
        assert dict((x * x).items()) == pairwise_series_product(x, x)


def random_binomials(rng):
    """A diagonal denominator {(k, k): m} of one to three factors."""
    return {(k, k): rng.randint(1, 3) for k in (rng.randint(1, 3) for _ in range(rng.randint(1, 3)))}


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
        k = rng.randint(1, 4)
        quotient = random_laurent(rng, 10)
        binomial = ONE - uv_power(k)
        assert _divide_factors((quotient * binomial)._terms, {(k, k): 1}) == quotient._terms
        inexact = quotient * binomial + LaurentPoly.monomial(1, rng.randint(-3, 6), rng.randint(-3, 6))
        if _divide_factors(inexact._terms, {(k, k): 1}) is not None:
            assert LaurentPoly(_divide_factors(inexact._terms, {(k, k): 1})) * binomial == inexact
    assert _divide_factors({}, {(2, 2): 1}) == {}
    assert _divide_factors({(0, 0): 1}, {(1, 1): 1}) is None


def test_k_fold_division_matches_single_divisions_and_exact_divide():
    rng = random.Random(16)
    inexact_at = set()
    for _ in range(160):
        a, k = rng.randint(1, 3), rng.randint(1, 4)
        binomial = ONE - uv_power(a)
        product = random_laurent(rng, 8) * binomial**k
        for terms in (product._terms, (product + random_laurent(rng, 2))._terms):
            single = terms
            for _ in range(k):
                single = _divide_factors(single, {(a, a): 1})
                if single is None:
                    break
            try:
                expected = exact_divide(LaurentPoly(terms), binomial**k)._terms
            except DivisionRemainderError:
                expected = None
                inexact_at.add(k)
            got = _divide_factors(terms, {(a, a): k})
            assert got == single == expected
            if got is not None:
                assert all(type(c) is int or c.denominator != 1 for c in got.values())
    assert inexact_at == {1, 2, 3, 4}
    assert _divide_factors({}, {(2, 2): 3}) == {}
    # exact once but not twice: (1 - uv) / (1 - uv)^2
    assert _divide_factors({(0, 0): 1, (1, 1): -1}, {(1, 1): 1}) == {(0, 0): 1}
    assert _divide_factors({(0, 0): 1, (1, 1): -1}, {(1, 1): 2}) is None


def divide_once(terms, a, b):
    """terms / (1 - u^a v^b) by long division from the lowest exponent,
    or None if it leaves a remainder; independent of the running sums."""
    if not terms:
        return {}
    top = max(p for p, _ in terms) - a
    work = dict(terms)
    quotient = {}
    while work:
        e = min(work)
        if e[0] > top:
            return None
        c = work.pop(e)
        quotient[e] = c
        f = (e[0] + a, e[1] + b)
        s = work.get(f, 0) + c
        if s:
            work[f] = s
        else:
            work.pop(f, None)
    return {e: c if type(c) is int or c.denominator != 1 else c.numerator for e, c in quotient.items()}


def divide_sequentially(terms, den):
    for (a, b), k in sorted(den.items()):
        for _ in range(k):
            terms = divide_once(terms, a, b)
            if terms is None:
                return None
    return terms


DIAGONAL_DENOMINATORS = (
    {(1, 1): 2, (2, 2): 1, (3, 3): 1},
    {(1, 1): 1, (2, 2): 1},
    {(2, 2): 2, (4, 4): 1},
    {(3, 3): 1, (6, 6): 1},
    {(1, 1): 3, (2, 2): 2, (5, 5): 1},
    {(2, 2): 1, (3, 3): 1, (5, 5): 1},
    {(4, 4): 2},
    {(1, 1): 1, (3, 3): 2, (4, 4): 1},
)


def test_one_diagonal_grouping_matches_sequential_division_and_exact_divide():
    rng = random.Random(18)
    checked = {"exact": 0, "inexact": 0}
    for den in DIAGONAL_DENOMINATORS:
        divisor = _expand_factors(den)
        for _ in range(12):
            # random_laurent draws int, Fraction and mixed coefficients and
            # negative exponents
            product = random_laurent(rng, 8) * divisor
            for terms in (product._terms, (product + random_laurent(rng, 2))._terms):
                try:
                    expected = exact_divide(LaurentPoly(terms), divisor)._terms
                except DivisionRemainderError:
                    expected = None
                got = _divide_factors(terms, den)
                assert got == divide_sequentially(terms, den) == expected
                checked["exact" if got is not None else "inexact"] += 1
                if got is not None:
                    assert all(type(c) is int or c.denominator != 1 for c in got.values())
    assert checked["exact"] >= 100 and checked["inexact"] >= 50


def test_one_grouping_detects_an_inexact_division_at_each_factor():
    rng = random.Random(19)
    for den in DIAGONAL_DENOMINATORS:
        factors = [f for f, k in sorted(den.items()) for _ in range(k)]
        for i, (a, b) in enumerate(factors):
            # exact for every factor but the i-th: the cofactor is not a
            # multiple of (1 - u^a v^b)
            rest = {}
            for f in factors[:i] + factors[i + 1 :]:
                rest[f] = rest.get(f, 0) + 1
            cofactor = random_laurent(rng, 5) + LaurentPoly.monomial(Fraction(1, 3), -2, 5)
            while divide_once(cofactor._terms, a, b) is not None:
                cofactor = cofactor + LaurentPoly.monomial(1, rng.randint(0, 4), rng.randint(0, 4))
            num = cofactor * _expand_factors(rest)
            assert _divide_factors(num._terms, den) is None
            f = FactoredRational(num, den, rng.choice((1, Fraction(-3, 2))))
            with pytest.raises(DivisionRemainderError) as expected:
                exact_divide(f.scaled_num(), _expand_factors(den))
            with pytest.raises(DivisionRemainderError) as caught:
                f.as_polynomial()
            assert caught.value.remainder == expected.value.remainder
            assert str(caught.value) == str(expected.value)


def test_division_of_lines_shorter_than_the_stride():
    # (1 + uv) is a line of two points, shorter than the stride 3 of (1 - u^3 v^3)
    assert _divide_factors({(0, 0): 1, (1, 1): 1}, {(3, 3): 1}) is None
    assert _divide_factors({(2, -1): Fraction(1, 2)}, {(2, 2): 1}) is None
    # one line exact, another a single point
    assert _divide_factors({(0, 0): 1, (3, 3): -1, (1, 0): 5}, {(3, 3): 1}) is None
    assert _divide_factors({(0, 0): 1, (3, 3): -1, (1, 0): 5, (4, 3): -5}, {(3, 3): 1}) == {
        (0, 0): 1,
        (1, 0): 5,
    }
    # 1 - (uv)^3 over (1 - uv): a stride-1 division of a line with gaps
    assert _divide_factors({(0, 0): 1, (3, 3): -1}, {(1, 1): 1}) == {(k, k): 1 for k in range(3)}
    # (1 - (uv)^6) / ((1 - uv)(1 - (uv)^2)(1 - (uv)^3)) is not a polynomial
    assert _divide_factors({(0, 0): 1, (6, 6): -1}, {(1, 1): 1, (2, 2): 1, (3, 3): 1}) is None
    # (1 - (uv)^2)(1 - (uv)^3) / ((1 - uv)(1 - (uv)^2)(1 - (uv)^3)) = 1/(1 - uv)
    numerator = ((ONE - uv_power(2)) * (ONE - uv_power(3)))._terms
    assert _divide_factors(numerator, {(1, 1): 1, (2, 2): 1, (3, 3): 1}) is None
    assert _divide_factors(numerator, {(2, 2): 1, (3, 3): 1}) == {(0, 0): 1}


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


def geometric_series(a, b, k, order):
    """(1 - u^a v^b)^(-k) to the given order, from its binomial
    coefficients: the sum over j of C(j + k - 1, k - 1) (u^a v^b)^j."""
    return TruncatedSeries(
        {(a * j, b * j): math.comb(j + k - 1, k - 1) for j in range(order // (a + b) + 1)}, order
    )


def geometric_product(f, order):
    """The terms of f.series_expand(order) as the numerator times one
    geometric series per factor, multiplied by the pairwise loop: an
    oracle that shares no code with the running-sum division."""
    acc = TruncatedSeries(dict(f.num.items()), order)
    for (a, b), k in f.den.items():
        acc = TruncatedSeries(pairwise_series_product(acc, geometric_series(a, b, k, order)), order)
    return {e: c * f.scalar for e, c in acc.items()}


WINDOW_FACTORS = ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5))


def test_windowed_division_matches_product_of_geometric_series():
    rng = random.Random(19)
    seen = dict.fromkeys(("empty", "several", "above", "fraction"), 0)
    for _ in range(200):
        den = {f: rng.randint(1, 3) for f in rng.sample(WINDOW_FACTORS, rng.randint(0, 3))}
        coeff = rng.choice(SERIES_COEFFICIENTS)
        num = LaurentPoly(
            {(rng.randint(0, 12), rng.randint(0, 12)): coeff(rng) for _ in range(rng.randint(1, 8))}
        )
        f = FactoredRational(num, den, rng.choice((1, -2, Fraction(3, 4), Fraction(-5, 2))))
        order = rng.randint(0, 20)
        got = f.series_expand(order)
        assert got.order == order
        assert dict(got.items()) == geometric_product(f, order)
        assert all(type(c) is int or c.denominator != 1 for _, c in got.items())
        seen["empty"] += not den
        seen["several"] += len(den) > 1
        seen["above"] += any(p + q > order for (p, q), _ in num.items())
        seen["fraction"] += any(type(c) is Fraction for _, c in num.items())
    assert min(seen.values()) >= 10, seen


def test_windowed_division_of_lines_shorter_than_the_stride():
    # the line of u v^2 runs (4 - 3) // 2 + 1 = 1 entry, short of the stride 3
    assert dict(FactoredRational(U * V * V, {(3, 3): 1}).series_expand(4).items()) == {(1, 2): 1}
    f = FactoredRational(LaurentPoly({(0, 0): 1, (2, 1): Fraction(3, 2), (0, 4): -1}), {(3, 3): 2, (2, 2): 1})
    for order in range(21):
        assert dict(f.series_expand(order).items()) == geometric_product(f, order)
    assert f.series_expand(2) == TruncatedSeries({(0, 0): 1}, 2)


def test_sums_of_unequal_orders_match_truncated_polynomial_sums():
    rng = random.Random(23)
    for _ in range(80):
        x = random_series(rng, rng.randint(0, 16), rng.random())
        y_terms = dict(random_series(rng, rng.randint(0, 16), rng.random()).items())
        for e, c in x.items():
            if rng.random() < 0.3:
                y_terms[e] = rng.choice((c, -c))  # shared terms, some of which cancel
        y = TruncatedSeries(y_terms, rng.randint(0, 16))
        before = (dict(x.items()), dict(y.items()))
        order = min(x.order, y.order)
        for got, poly in (
            (x + y, x.as_poly() + y.as_poly()),
            (y + x, x.as_poly() + y.as_poly()),
            (x - y, x.as_poly() - y.as_poly()),
            (y - x, y.as_poly() - x.as_poly()),
        ):
            assert got.order == order
            assert dict(got.items()) == {(p, q): c for (p, q), c in poly.items() if p + q <= order}
        assert (dict(x.items()), dict(y.items())) == before


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
