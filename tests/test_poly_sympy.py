"""LaurentPoly ring operations and exact_divide against sympy on
hypothesis-drawn inputs.

sympy.Poly has no negative exponents, so each operand is drawn with
exponents >= -SHIFT and compared after multiplying by (uv)^SHIFT; a
product then carries (uv)^(2 SHIFT) and an n-th power (uv)^(n SHIFT).
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis", reason="hypothesis is a test-only dependency")
sympy = pytest.importorskip("sympy", reason="sympy is a test-only dependency")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hpbundles import DivisionRemainderError, LaurentPoly, exact_divide  # noqa: E402

SHIFT = 4
u, v = sympy.symbols("u v")

coefficients = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-(2**80), 2**80),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def laurent_polys(draw, min_side=0, max_side=7):
    """Coefficients filling a box at an origin >= (-SHIFT, -SHIFT); the
    zeros drawn make some products sparse and some dense."""
    p0 = draw(st.integers(-SHIFT, 2))
    q0 = draw(st.integers(-SHIFT, 2))
    rows = draw(st.integers(min_side, max_side))
    cols = draw(st.integers(min_side, max_side))
    cells = draw(st.lists(coefficients, min_size=rows * cols, max_size=rows * cols))
    return LaurentPoly(
        {(p0 + k // cols, q0 + k % cols): c for k, c in enumerate(cells)} if cols else {}
    )


def to_sympy(poly, shift):
    terms = {}
    for (p, q), c in poly.items():
        c = Fraction(c)
        terms[(p + shift, q + shift)] = sympy.Rational(c.numerator, c.denominator)
    return sympy.Poly.from_dict(terms, u, v, domain="QQ")


def assert_canonical(poly):
    for c in poly._terms.values():
        assert c != 0
        assert type(c) is int or c.denominator != 1


# Both small or sparse operands and wide ones, so that both paths of
# LaurentPoly.__mul__ are taken.
operands = st.one_of(laurent_polys(), laurent_polys(min_side=4))


@settings(max_examples=150, deadline=None)
@given(operands, operands)
def test_product_and_sum_match_sympy(a, b):
    product = a * b
    assert_canonical(product)
    assert to_sympy(product, 2 * SHIFT) == to_sympy(a, SHIFT) * to_sympy(b, SHIFT)
    total = a + b
    assert_canonical(total)
    assert to_sympy(total, SHIFT) == to_sympy(a, SHIFT) + to_sympy(b, SHIFT)


@settings(max_examples=100, deadline=None)
@given(operands, operands)
def test_difference_matches_sympy(a, b):
    for x, y in ((a, b), (a, a + b)):
        difference = x - y
        assert_canonical(difference)
        assert to_sympy(difference, SHIFT) == to_sympy(x, SHIFT) - to_sympy(y, SHIFT)


@settings(max_examples=60, deadline=None)
@given(laurent_polys(max_side=2), st.integers(0, 9))
def test_power_matches_sympy(a, n):
    power = a**n
    assert_canonical(power)
    assert to_sympy(power, n * SHIFT) == to_sympy(a, SHIFT) ** n


@settings(max_examples=60, deadline=None)
@given(laurent_polys(), coefficients)
def test_scalar_product_matches_sympy(a, c):
    scaled = a * c
    assert_canonical(scaled)
    c = Fraction(c)
    assert to_sympy(scaled, SHIFT) == to_sympy(a, SHIFT) * sympy.Rational(c.numerator, c.denominator)



def divide(num, den):
    """(quotient, remainder) of exact_divide; one of them is None."""
    try:
        return exact_divide(num, den), None
    except DivisionRemainderError as err:
        return None, err.remainder


def translate(poly, dp, dq):
    return LaurentPoly({(p + dp, q + dq): c for (p, q), c in poly.items()})


@settings(max_examples=150, deadline=None)
@given(laurent_polys(min_side=1), laurent_polys(min_side=1, max_side=4), st.booleans())
def test_exact_divide_matches_sympy_div(a, den, exact):
    if den.is_zero():
        return
    num = a * den if exact else a
    quotient, _ = divide(num, den)
    # Moved to valuation (0, 0), the divisor has no factor u or v, so it
    # divides num in the Laurent ring iff it divides the polynomial
    # (uv)^(2 SHIFT) num, with the quotient moved by the two shifts.
    p0, q0 = den.min_exponents()
    sym_quotient, sym_remainder = sympy.div(to_sympy(num, 2 * SHIFT), to_sympy(translate(den, -p0, -q0), 0))
    assert (quotient is not None) == sym_remainder.is_zero
    if exact:
        assert quotient == a
    if quotient is not None:
        assert_canonical(quotient)
        assert to_sympy(translate(quotient, p0, q0), 2 * SHIFT) == sym_quotient


@settings(max_examples=100, deadline=None)
@given(laurent_polys(min_side=1), laurent_polys(min_side=1, max_side=4))
def test_exact_divide_remainder_matches_sympy_reduced(num, den):
    if num.is_zero() or den.is_zero():
        return
    # An ordinary dividend and a divisor of valuation (0, 0) need no
    # shift, so exact_divide is the division algorithm in graded lex
    # order with u > v, as sympy.reduced runs it.
    num = translate(num, SHIFT, SHIFT)
    den = translate(den, *(-e for e in den.min_exponents()))
    _, remainder = divide(num, den)
    _, sym_remainder = sympy.reduced(to_sympy(num, 0).as_expr(), [to_sympy(den, 0).as_expr()], u, v, order="grlex")
    expected = sympy.Poly(sym_remainder, u, v, domain="QQ")
    if remainder is None:
        assert expected.is_zero
    else:
        assert_canonical(remainder)
        assert to_sympy(remainder, 0) == expected


def test_rank2_jac_twisted_matches_sympy():
    from hpbundles.blocks import _rank2_numerators

    for g in range(7):
        expected = sympy.Poly(((1 + u) * (1 + v) * (1 + u**2 * v) * (1 + u * v**2)) ** g, u, v, domain="QQ")
        assert to_sympy(LaurentPoly._raw(_rank2_numerators(g).jac_twisted.unpack()), 0) == expected
