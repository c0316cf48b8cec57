import math
import random
from fractions import Fraction

import pytest

from hpbundles import (
    ONE,
    U,
    V,
    DivisionRemainderError,
    DomainError,
    LaurentPoly,
    dual_substitute,
    exact_divide,
    negate_square_substitute,
    specialize_diagonal,
    uv_power,
)
from hpbundles import poly
from hpbundles.poly import (
    _add_terms,
    _binomial_power,
    _dense_pays,
    _expand_binomials,
    _mul_dense,
    _mul_monomial,
    _mul_sparse,
    _mul_terms,
    _slot_width,
)


def random_poly(rng, max_terms=6, lo=-3, hi=4, laurent=True):
    terms = {}
    emin = lo if laurent else 0
    for _ in range(rng.randint(0, max_terms)):
        terms[(rng.randint(emin, hi), rng.randint(emin, hi))] = rng.randint(-5, 5)
    return LaurentPoly(terms)


def test_distributivity_example():
    assert (ONE + U) * (ONE + V) == LaurentPoly({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_additive_inverse_random():
    rng = random.Random(1)
    for _ in range(30):
        p = random_poly(rng)
        assert p + (-1) * p == LaurentPoly()
        assert (p + (-p)).is_zero()


def test_binomial_cube():
    assert (ONE + U) ** 3 == LaurentPoly({(0, 0): 1, (1, 0): 3, (2, 0): 3, (3, 0): 1})


def test_ring_axioms_random():
    rng = random.Random(2)
    for _ in range(40):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * ONE == a


def test_zero_coefficients_never_stored():
    p = LaurentPoly({(1, 1): 2, (0, 0): 0})
    assert (0, 0) not in dict(p.items())
    q = p - p
    assert len(q) == 0


def test_coefficients_reject_floats():
    with pytest.raises(TypeError):
        LaurentPoly({(0, 0): 0.5})


@pytest.mark.parametrize("exponent", [1.7, 1.0, True, False, Fraction(1), "1"], ids=repr)
def test_exponents_reject_non_integers(exponent):
    # int(1.7) would read u^1.7 as u; zero terms are checked too
    for terms in ({(exponent, 0): 1}, {(0, exponent): 1}, {(exponent, 0): 0}):
        with pytest.raises(DomainError, match="exponent must be an integer"):
            LaurentPoly(terms)


def test_fraction_coefficients_demote_to_int():
    p = LaurentPoly({(0, 0): Fraction(4, 2)})
    assert p.coefficient(0, 0) == 2
    assert type(p.coefficient(0, 0)) is int


def box_terms(rng, rows, cols, fill, coeff):
    """Terms in a rows x cols box at a random, possibly negative, origin;
    each cell is kept with probability ``fill``.  Normalized like every
    LaurentPoly's terms: no zeros, integral Fractions demoted to int."""
    p0, q0 = rng.randint(-6, 4), rng.randint(-6, 4)
    terms = {}
    for p in range(rows):
        for q in range(cols):
            c = coeff(rng) if rng.random() < fill else 0
            if c:
                terms[(p0 + p, q0 + q)] = c
    return LaurentPoly(terms)._terms


COEFFICIENTS = {
    "small-int": lambda rng: rng.randint(-5, 5),
    "fraction": lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
    "mixed": lambda rng: rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-9, 9), 6))),
    "above-2^64": lambda rng: rng.choice((-1, 1)) * rng.randrange(2**64, 2**200),
}


@pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
def test_dense_and_dict_products_agree(kind):
    rng = random.Random(kind)
    coeff = COEFFICIENTS[kind]
    dense_taken = 0
    for _ in range(40):
        a, b = (
            box_terms(rng, rng.randint(1, 12), rng.randint(1, 12), rng.choice((rng.random(), 1.0)), coeff)
            for _ in range(2)
        )
        expected = _mul_sparse(a, b)
        assert _mul_dense(a, b) == expected
        assert _mul_dense(b, a) == expected
        assert (LaurentPoly(a) * LaurentPoly(b))._terms == expected
        short, long_ = sorted((a, b), key=len)
        dense_taken += _dense_pays(short, long_)
    assert 5 <= dense_taken <= 35  # both paths of LaurentPoly.__mul__ ran


def test_dense_product_of_tiny_operands():
    rng = random.Random(7)
    dense = box_terms(rng, 6, 6, 1.0, COEFFICIENTS["mixed"])
    for tiny in ({}, {(0, 0): 1}, {(-3, 2): Fraction(-5, 3)}, {(4, -1): -(2**80)}):
        for a, b in ((tiny, dense), (dense, tiny), (tiny, tiny)):
            assert _mul_dense(a, b) == _mul_sparse(a, b)


def test_dense_product_slots_that_cancel():
    # (1 + uv + ... + (uv)^19)(1 - uv) = 1 - (uv)^20: every inner slot sums to 0
    geometric = {(k, k): 1 for k in range(20)}
    assert _mul_dense(geometric, {(0, 0): 1, (1, 1): -1}) == {(0, 0): 1, (20, 20): -1}
    # (1+u)^9 (1+v)^9 times (1-u)^9 (1-v)^9 = (1-u^2)^9 (1-v^2)^9: odd slots cancel
    plus = ((ONE + U) ** 9 * (ONE + V) ** 9)._terms
    minus = ((ONE - U) ** 9 * (ONE - V) ** 9)._terms
    assert _dense_pays(plus, minus)
    assert _mul_dense(plus, minus) == _mul_sparse(plus, minus)
    assert _mul_dense(plus, minus) == ((ONE - U * U) ** 9 * (ONE - V * V) ** 9)._terms
    # a huge coefficient against its negation cancels slot by slot
    big = {(p, q): 2**100 + p - q for p in range(5) for q in range(5)}
    neg = {(p, q): -c for (p, q), c in big.items()}
    assert _mul_dense(big, neg) == _mul_sparse(big, neg)


def test_sparse_times_dense_goes_down_the_dict_path():
    rng = random.Random(8)
    sparse = {}
    while len(sparse) < 16:
        sparse[(rng.randrange(40), rng.randrange(40))] = rng.randint(1, 9)
    dense = box_terms(rng, 8, 8, 1.0, COEFFICIENTS["small-int"])
    assert not _dense_pays(sparse, dense)
    assert (LaurentPoly(sparse) * LaurentPoly(dense))._terms == _mul_sparse(sparse, dense)
    jac = ((ONE + U) ** 6 * (ONE + V) ** 6)._terms
    assert _dense_pays(jac, jac)


def window(terms, order):
    return {e: c for e, c in terms.items() if e[0] + e[1] <= order}


TINY_OPERANDS = ({}, {(0, 0): 1}, {(2, 1): Fraction(-5, 3)}, {(-1, 3): -(2**80)}, {(1, 1): 2**200})


@pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
def test_windowed_products_drop_exactly_the_terms_above_the_order(kind):
    rng = random.Random("window:" + kind)
    coeff = COEFFICIENTS[kind]
    pairs = [
        tuple(
            box_terms(rng, rng.randint(1, 11), rng.randint(1, 11), rng.choice((rng.random(), 1.0)), coeff)
            for _ in range(2)
        )
        for _ in range(6)
    ]
    dense = box_terms(rng, 5, 5, 1.0, coeff)
    pairs += [(tiny, dense) for tiny in TINY_OPERANDS] + [(dense, TINY_OPERANDS[2])]
    for a, b in pairs:
        full = _mul_sparse(a, b)
        for order in range(41):
            expected = window(full, order)
            assert _mul_sparse(a, b, order) == expected
            assert _mul_sparse(b, a, order) == expected
            assert _mul_dense(a, b, order) == expected
            assert _mul_dense(b, a, order) == expected
            assert _mul_terms(a, b, order) == expected


def test_windowed_dense_product_with_huge_slots_and_cancellation():
    # slots wider than a machine word, and a window cutting through
    # rows whose lower slots cancel
    big = {(p, q): 2**100 + p - q for p in range(6) for q in range(6)}
    neg = {(p, q): -c for (p, q), c in big.items()}
    geometric = {(k, k): 1 for k in range(12)}
    for a, b in ((big, neg), (big, big), (geometric, {(0, 0): 1, (1, 1): -1})):
        full = _mul_sparse(a, b)
        for order in range(-2, 30):
            assert _mul_dense(a, b, order) == window(full, order)


def pairwise_product(a, b, order=None):
    """The product as one dict update per pair of terms, with no seed and
    no window prefix: independent of the library's kernels."""
    res = {}
    for (p1, q1), c1 in a.items():
        for (p2, q2), c2 in b.items():
            if order is None or p1 + q1 + p2 + q2 <= order:
                e = (p1 + p2, q1 + q2)
                res[e] = res.get(e, 0) + Fraction(c1) * c2
    return {e: c.numerator if c.denominator == 1 else c for e, c in res.items() if c}


@pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
def test_seeded_dict_loop_matches_pairwise_products(kind):
    rng = random.Random("seeded:" + kind)
    coeff = COEFFICIENTS[kind]
    small = [box_terms(rng, rng.randint(1, 2), rng.randint(1, 2), 1.0, coeff) for _ in range(8)]
    # two-term factors whose products cancel slots: (1 - uv)(1 + uv + ... + (uv)^5)
    # = 1 - (uv)^6, and (1/2 + uv/2)(2 - 2uv) = 1 - (uv)^2 with Fractions summing to ints
    small += [{(0, 0): 1, (1, 1): -1}, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}]
    cancelling = [
        ({(0, 0): 1, (1, 1): -1}, {(k, k): 1 for k in range(6)}),
        ({(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}, {(0, 0): 2, (1, 1): -2}),
    ]
    larger = [box_terms(rng, rng.randint(1, 6), rng.randint(1, 6), rng.random(), coeff) for _ in range(6)]
    pairs = [(a, b) for a in list(TINY_OPERANDS) + small for b in larger + small[:3]] + cancelling
    for a, b in pairs:
        for order in (None,) + tuple(range(-3, 16)):
            expected = pairwise_product(a, b, order)
            for got in (_mul_sparse(a, b, order), _mul_sparse(b, a, order)):
                assert got == expected
                assert all(type(c) is int or c.denominator != 1 for c in got.values())
    assert _mul_sparse(*cancelling[0]) == {(0, 0): 1, (6, 6): -1}
    assert _mul_sparse(*cancelling[1]) == {(0, 0): 1, (2, 2): -1}


@pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
def test_one_term_products_are_translations(kind):
    rng = random.Random("monomial:" + kind)
    coeff = COEFFICIENTS[kind]
    for _ in range(30):
        e = (rng.randint(-4, 4), rng.randint(-4, 4))
        mono = {e: coeff(rng) or 1}
        other = box_terms(rng, rng.randint(1, 8), rng.randint(1, 8), rng.random(), coeff)
        expected = pairwise_product(mono, other)
        assert _mul_monomial(mono, other) == expected
        assert (LaurentPoly(mono) * LaurentPoly(other))._terms == expected
        assert (LaurentPoly(other) * LaurentPoly(mono))._terms == expected
        for order in range(-4, 20):
            assert _mul_monomial(mono, other, order) == window(expected, order)
    # the constant 1 hands back equal terms, never the operand's own dict
    terms = (ONE + U)._terms
    product = _mul_monomial({(0, 0): 1}, terms)
    assert product == terms and product is not terms


@pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
def test_difference_matches_sum_with_negation(kind):
    rng = random.Random("difference:" + kind)
    coeff = COEFFICIENTS[kind]
    for _ in range(40):
        a, b = (
            LaurentPoly(box_terms(rng, rng.randint(0, 5), rng.randint(1, 5), rng.random(), coeff))
            for _ in range(2)
        )
        if rng.random() < 0.3:
            b = b + a  # shared terms, some of which cancel
        for x, y in ((a, b), (b, a), (a, a)):
            diff = x - y
            assert diff._terms == (x + (-y))._terms
            assert all(type(c) is int or c.denominator != 1 for _, c in diff.items())
        c = coeff(rng)
        assert (a - c)._terms == (a + (-LaurentPoly.const(c)))._terms
        assert (c - a)._terms == ((-a) + LaurentPoly.const(c))._terms
    half = LaurentPoly({(0, 0): Fraction(1, 2), (1, 0): 1})
    whole = half - LaurentPoly({(0, 0): Fraction(-1, 2)})
    assert whole._terms == {(0, 0): 1, (1, 0): 1}
    assert type(whole.coefficient(0, 0)) is int


def test_scalar_products_keep_integral_coefficients_int():
    p = LaurentPoly({(0, 0): 4, (1, 0): 3, (0, 1): Fraction(2, 3)})
    half = p * Fraction(1, 2)
    assert half._terms == {(0, 0): 2, (1, 0): Fraction(3, 2), (0, 1): Fraction(1, 3)}
    assert type(half.coefficient(0, 0)) is int
    assert (p * Fraction(3, 1))._terms == {(0, 0): 12, (1, 0): 9, (0, 1): 2}
    assert type((p * Fraction(3, 2)).coefficient(0, 1)) is int
    assert (p * 0).is_zero() and (p * Fraction(0)).is_zero()


def test_binomial_power_matches_repeated_products():
    rng = random.Random(9)
    for _ in range(30):
        base = {}
        while len(base) < 2:
            base[(rng.randint(-3, 3), rng.randint(-3, 3))] = COEFFICIENTS["mixed"](rng) or 1
        base = LaurentPoly(base)._terms
        power = {(0, 0): 1}
        for n in range(13):
            assert _binomial_power(base, n) == power
            assert (LaurentPoly(base) ** n)._terms == power
            power = _mul_sparse(power, base)


def expand(factors):
    """The one-part call of the binomial expander: prod (1 + c u^a v^b)^k."""
    return _expand_binomials([(1, (0, 0), factors)])


def binomial_product(factors):
    """prod (1 + c u^a v^b)^k by the dict loop over binomial powers."""
    product = {(0, 0): 1}
    for c, a, b, k in factors:
        if (a, b) == (0, 0):
            product = _mul_sparse(product, {(0, 0): (1 + c) ** k} if (1 + c) ** k else {})
        elif c:
            product = _mul_sparse(product, _binomial_power({(0, 0): 1, (a, b): c}, k))
    return product


def test_binomial_expander_matches_products_of_binomial_powers():
    rng = random.Random(10)
    shapes = set()
    for _ in range(120):
        factors = []
        for _ in range(rng.randint(1, 4)):
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            a, b = rng.choice(((0, b), (a, 0), (a, b)))
            factors.append((rng.choice((1, -1, 2, -3)), a, b, rng.randint(0, 6)))
            shapes.add((a == 0, b == 0, factors[-1][3] == 0))
        assert expand(factors) == binomial_product(factors)
    # (a = 0, b = 0, k = 0) seen: a = 0, b = 0, neither, and k = 0
    assert shapes >= {(True, False, False), (False, True, False), (False, False, False), (False, False, True)}


def test_binomial_expander_edge_cases():
    assert expand(()) == {(0, 0): 1}
    assert expand(((5, 2, 3, 0),)) == {(0, 0): 1}
    assert expand(((0, 2, 3, 4),)) == {(0, 0): 1}
    # a constant factor (1 + c)^k, and one that is zero
    assert expand(((2, 0, 0, 3), (1, 1, 0, 1))) == {(0, 0): 27, (1, 0): 27}
    assert expand(((-1, 0, 0, 2), (1, 1, 1, 3))) == {}
    # (1 + u)^k (1 - u)^k = (1 - u^2)^k: the odd slots cancel
    for k in (1, 5, 16):
        expected = _binomial_power({(0, 0): 1, (2, 0): -1}, k)
        assert expand(((1, 1, 0, k), (-1, 1, 0, k))) == expected
        assert expand(((-1, 1, 0, k), (1, 1, 0, k))) == expected
    # exponents with a common stride in u or v, whose boxes are mostly empty
    for factors in (
        ((-1, 2, 0, 5), (-1, 0, 2, 5)),
        ((1, 2, 3, 2), (-3, 4, 0, 1), (2, 0, 6, 3)),
        ((5, 0, 2, 3),),
        ((1, 4, 6, 2), (-1, 2, 2, 1)),
    ):
        assert expand(factors) == binomial_product(factors)
    # (1 + uv)(1 - uv)(1 + u^2 v^2) = 1 - u^4 v^4
    assert expand(((1, 1, 1, 1), (-1, 1, 1, 1), (1, 2, 2, 1))) == {(0, 0): 1, (4, 4): -1}
    # coefficients at the edge of a slot: L1 bounds of 127, 128 and 129
    # against a sign bit in 1 or 2 bytes
    for c in (126, 127, -127, 128, -128, 2**63 - 1, -(2**63)):
        assert expand(((c, 1, 1, 1),)) == {(0, 0): 1, (1, 1): c}
        factors = ((c, 1, 0, 2), (-1, 0, 1, 1))
        assert expand(factors) == binomial_product(factors)


def test_binomial_expander_with_slots_wider_than_256_bits():
    # the L1 norm 2^256 * 4^2 needs 33-byte slots, beyond those of the
    # genus-64 rank-2 numerators (2^256)
    factors = ((1, 1, 0, 128), (1, 0, 1, 128), (-3, 1, 1, 2))
    product = expand(factors)
    assert product == binomial_product(factors)
    assert _slot_width(2**256 * 4**2) == 33
    assert product[(130, 130)] == 9
    central = math.comb(128, 64) ** 2 - 6 * math.comb(128, 63) ** 2 + 9 * math.comb(128, 62) ** 2
    assert product[(64, 64)] == central and central > 2**240


def parts_sum(parts):
    """sum s u^p v^q prod (1 + c u^a v^b)^k over the parts (s, (p, q), factors),
    by the dict loop: each binomial product shifted by its monomial."""
    total = {}
    for s, (p, q), factors in parts:
        total = _add_terms(total, _mul_sparse({(p, q): s} if s else {}, binomial_product(factors)))
    return total


def random_parts(rng, count):
    parts = []
    for _ in range(count):
        factors = []
        for _ in range(rng.randint(0, 4)):
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            a, b = rng.choice(((0, b), (a, 0), (a, b)))
            factors.append((rng.choice((1, -1, 2, -3, 5)), a, b, rng.randint(0, 5)))
        offset = (rng.randint(-3, 4), rng.randint(-3, 4))
        parts.append((rng.choice((1, -1, 2, -7, 0)), offset, factors))
    return parts


def test_binomial_expander_sums_shifted_parts_in_one_unpacking(monkeypatch):
    # random signs and scalars s (0 and |s| > 1 too), coefficients c
    # beyond +-1, k = 0, empty factor lists, and offsets of either sign,
    # so the least offset sets the origin of the box; a sum of more than
    # one part is unpacked once
    unpacked = []
    unpack = poly._unpack

    def recording_unpack(*args):
        unpacked.append(args[1])
        return unpack(*args)

    monkeypatch.setattr(poly, "_unpack", recording_unpack)
    rng = random.Random(14)
    seen = set()
    for _ in range(200):
        parts = random_parts(rng, rng.randint(2, 5))
        unpacked.clear()
        assert _expand_binomials(parts) == parts_sum(parts)
        assert len(unpacked) == 1
        origin = (min(p for _, (p, _), _ in parts), min(q for _, (_, q), _ in parts))
        assert unpacked == [origin]
        seen.add(origin != (0, 0))
        seen.update("empty" for _, _, factors in parts if not factors)
        seen.update("k = 0" for _, _, factors in parts for *_, k in factors if k == 0)
    assert seen >= {True, False, "empty", "k = 0"}
    # parts that cancel: a part and its negative, and a product minus its
    # expansion term by term
    for s, offset, factors in random_parts(rng, 20):
        assert _expand_binomials([(s, offset, factors), (-s, offset, factors)]) == {}
    cancel = [(3, (1, -2), [(2, 1, 1, 2)]), (-3, (1, -2), []), (-12, (2, -1), []), (-12, (3, 0), [])]
    assert _expand_binomials(cancel) == {}
    assert _expand_binomials([]) == {}


def test_one_part_call_moves_and_scales_its_product():
    # one part with s != 1 or an offset is its product moved to its
    # offset and scaled by s, for factors with a common stride, a split
    # into u-only and v-only powers, and factors on one diagonal
    rng = random.Random(15)
    shapes = (
        [(-1, 2, 0, 3), (2, 0, 4, 2)],
        [(-1, 1, 1, 3), (1, 2, 2, 2)],
        [(1, 2, 0, 2), (-3, 0, 1, 3)],
        [(1, 1, 0, 2), (1, 2, 1, 1)],
        [],
    )
    for factors in shapes:
        for _ in range(5):
            part = (rng.choice((1, -1, 3, -4)), (rng.randint(-3, 3), rng.randint(-3, 3)), factors)
            assert _expand_binomials([part]) == parts_sum([part])
        assert _expand_binomials([(0, (2, 2), factors)]) == {}
    for part in random_parts(rng, 40):
        assert _expand_binomials([part]) == parts_sum([part])


def test_negative_power_of_non_unit_rejected():
    with pytest.raises(DomainError, match="not invertible as polynomial"):
        (ONE + U) ** -1


def test_negative_power_of_monomial():
    m = LaurentPoly.monomial(2, 1, 1)
    assert m ** -1 == LaurentPoly({(-1, -1): Fraction(1, 2)})
    assert m ** -1 * m == ONE


def test_exact_divide_difference_of_squares():
    assert exact_divide(ONE - uv_power(2), ONE - uv_power(1)) == ONE + U * V


def test_exact_divide_mismatched_variables_errors_with_remainder():
    with pytest.raises(DivisionRemainderError) as err:
        exact_divide(ONE + U, ONE + V)
    assert not err.value.remainder.is_zero()


def test_exact_divide_genus2_jacobian_numerator():
    # ((1+u)^g (1+v)^g (1 - u^g v^g)) / (1 - uv) at g = 2; oracle: the
    # quotient times the divisor must reproduce the naive product.
    g = 2
    num = (ONE + U) ** g * (ONE + V) ** g * (ONE - uv_power(g))
    q = exact_divide(num, ONE - U * V)
    assert q.coefficient(0, 0) == 1
    assert q * (ONE - U * V) == num


def test_exact_divide_roundtrip_random():
    rng = random.Random(3)
    for _ in range(40):
        a = random_poly(rng)
        b = random_poly(rng)
        if b.is_zero():
            continue
        assert exact_divide(a * b, b) == a


def test_exact_divide_laurent_inputs():
    num = LaurentPoly({(-1, -1): 1, (1, 1): -1})  # u^-1 v^-1 (1 - u^2 v^2)
    q = exact_divide(num, ONE - U * V)
    assert q == LaurentPoly({(-1, -1): 1, (0, 0): 1})


def test_exact_divide_by_shifted_divisor():
    # divisor with positive valuation forces a Laurent quotient
    den = LaurentPoly({(2, 0): 1, (2, 1): 1})  # u^2 (1 + v)
    num = (ONE + V) * den
    assert exact_divide(num * den, den) == num
    q = exact_divide(ONE + V, den)  # (1+v) / (u^2 (1+v)) = u^-2
    assert q == LaurentPoly({(-2, 0): 1})


def test_exact_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_divide(ONE, LaurentPoly())


def test_dual_substitute_examples():
    assert dual_substitute(ONE, 1) == U * V
    p = (ONE + U) * (ONE + V)
    assert dual_substitute(p, 1) == p


def test_dual_substitute_involution_random():
    rng = random.Random(4)
    for _ in range(30):
        p = random_poly(rng)
        dim = rng.randint(-2, 5)
        assert dual_substitute(dual_substitute(p, dim), dim) == p


def test_negate_square_examples():
    assert negate_square_substitute(ONE + U) == ONE - U * U
    assert negate_square_substitute(U * V) == LaurentPoly({(2, 2): 1})
    assert negate_square_substitute((ONE + U) ** 2) == LaurentPoly(
        {(0, 0): 1, (2, 0): -2, (4, 0): 1}
    )


def test_specialize_diagonal_examples():
    assert specialize_diagonal((ONE + U) * (ONE + V)) == {0: 1, 1: 2, 2: 1}
    assert specialize_diagonal(U - V) == {}
    assert specialize_diagonal(ONE + uv_power(1) + uv_power(2)) == {0: 1, 2: 1, 4: 1}


def test_canonical_text_order():
    p = LaurentPoly({(2, 2): 1, (1, 1): 2, (0, 0): 1})
    assert str(p) == "1 + 2*u*v + u^2*v^2"
    q = LaurentPoly({(1, 0): 1, (0, 1): 1, (0, 0): -1})
    assert str(q) == "-1 + v + u"


def test_evaluate():
    p = (ONE + U) ** 2 * (ONE + V) ** 2
    assert p.evaluate(1, 1) == 16
    assert p.evaluate(0, 0) == 1
