import itertools
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
    TruncatedSeries,
    dual_substitute,
    exact_divide,
    negate_square_substitute,
    specialize_diagonal,
    uv_power,
)
from hpbundles import packed as packed_module
from hpbundles import poly as poly_module
from hpbundles import series as series_module
from hpbundles.packed import _Band, _BandValue, _Box, _pack, _Packed, _slot_width, _times_binomials, _unpack
from hpbundles.semistable import _closed_form_parts, ss_closed_form
from hpbundles.poly import (
    _add_terms,
    _binomial_power,
    _dense_box,
    _mul_dense,
    _mul_monomial,
    _mul_sparse,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is a test-only dependency
    st = None


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


def test_constants_hash_as_their_values():
    # a constant equals its value, so it must hash as it does and serve
    # as the same dict key and set member: ints, Fractions and zero
    for value in (0, 1, -7, 2**80, Fraction(1, 2), Fraction(-5, 3), Fraction(0)):
        const = LaurentPoly.const(value)
        assert const == value and hash(const) == hash(value), value
        assert {value: "x"}[const] == "x" and {const: "x"}[value] == "x", value
        assert len({const, value}) == 1, value
    assert {1: "x"}[ONE] == "x" and {0: "x"}[LaurentPoly()] == "x"
    # a polynomial that is no constant hashes its terms, as before
    assert hash(U + 1) == hash(frozenset({(1, 0): 1, (0, 0): 1}.items()))


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
        dense_taken += _dense_box(short, long_) is not None
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
    assert _dense_box(plus, minus) is not None
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
    assert _dense_box(sparse, dense) is None
    assert (LaurentPoly(sparse) * LaurentPoly(dense))._terms == _mul_sparse(sparse, dense)
    jac = ((ONE + U) ** 6 * (ONE + V) ** 6)._terms
    assert _dense_box(jac, jac) is not None


def window(terms, order):
    return {e: c for e, c in terms.items() if e[0] + e[1] <= order}


TINY_OPERANDS = ({}, {(0, 0): 1}, {(2, 1): Fraction(-5, 3)}, {(-1, 3): -(2**80)}, {(1, 1): 2**200})


def at_valuation_zero(terms):
    """The terms translated so that their least exponents are (0, 0)."""
    if not terms:
        return terms
    p0, q0 = min(p for p, _ in terms), min(q for _, q in terms)
    return {(p - p0, q - q0): c for (p, q), c in terms.items()}


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
        # the same operands as series, whose exponents are non-negative
        a0, b0 = at_valuation_zero(a), at_valuation_zero(b)
        full0 = _mul_sparse(a0, b0)
        for order in range(41):
            expected = window(full, order)
            assert _mul_sparse(a, b, order) == expected
            assert _mul_sparse(b, a, order) == expected
            product = TruncatedSeries(a0, order) * TruncatedSeries(b0, order + 3)
            assert product.order == order
            assert dict(product.items()) == window(full0, order)


def test_windowed_dense_product_with_huge_slots_and_cancellation():
    # coefficients wider than a machine word, and a window cutting
    # through total degrees whose terms cancel
    big = {(p, q): 2**100 + p - q for p in range(6) for q in range(6)}
    neg = {(p, q): -c for (p, q), c in big.items()}
    geometric = {(k, k): 1 for k in range(12)}
    for a, b in ((big, neg), (big, big), (geometric, {(0, 0): 1, (1, 1): -1})):
        full = _mul_sparse(a, b)
        for order in range(-2, 30):
            assert _mul_sparse(a, b, order) == window(full, order)
            if order >= 0:
                product = TruncatedSeries(a, order) * TruncatedSeries(b, order)
                assert dict(product.items()) == window(full, order)


def test_windowed_product_far_from_the_diagonal_takes_the_dict_loop(monkeypatch):
    # a series in u alone and one near the diagonal: every windowed
    # product is formed by the dict loop, and nothing is packed, in a
    # box or on a band
    windows, packs = [], []
    mul_sparse, pack, band_pack = series_module._mul_sparse, poly_module._pack, packed_module._Band.pack

    def recording_mul_sparse(a, b, order=None):
        windows.append(order)
        return mul_sparse(a, b, order)

    def recording_pack(*args):
        packs.append("box")
        return pack(*args)

    def recording_band_pack(band, terms, order, bound):
        packs.append("band")
        return band_pack(band, terms, order, bound)

    monkeypatch.setattr(series_module, "_mul_sparse", recording_mul_sparse)
    monkeypatch.setattr(poly_module, "_pack", recording_pack)
    monkeypatch.setattr(packed_module._Band, "pack", recording_band_pack)
    row = {(k, 0): math.comb(40, k) for k in range(41)}
    diagonal = {(p, s - p): s + 1 for s in range(21) for p in range(s + 1) if abs(2 * p - s) <= 2}
    for a, order in ((row, 40), (row, 7), (diagonal, 20), (diagonal, 9)):
        expected = window(_mul_sparse(a, a), order)
        windows.clear()
        product = TruncatedSeries(a, order) * TruncatedSeries(a, order)
        assert dict(product.items()) == expected
        assert windows == [order]
    assert packs == []


def per_slot_unpack(packed, origin, rows, cols, width):
    """``packed._unpack`` one slot at a time: every slot, biased by half its
    range, is sliced out and read by its own ``int.from_bytes`` call.
    The reference the limb reads of ``_unpack`` are tested against."""
    p0, q0 = origin
    half = 1 << (8 * width - 1)
    slots = rows * cols
    bias = int.from_bytes(half.to_bytes(width, "little") * slots, "little")
    data = ((packed + bias) & ((1 << 8 * width * slots) - 1)).to_bytes(width * slots, "little")
    res = {}
    for p in range(p0, p0 + rows):
        at = width * (p - p0) * cols
        row = [int.from_bytes(data[i : i + width], "little") for i in range(at, at + width * cols, width)]
        for q, c in enumerate(row, q0):
            if c != half:
                res[(p, q)] = c - half
    return res


def per_term_pack(terms, origin, strides, width):
    """``packed._pack`` one term at a time: each coefficient written by its own
    ``to_bytes`` call at slot (p - p0) sp + (q - q0) sq, the positive and
    the negative ones into separate buffers.  The reference the limb
    packing of ``_pack`` is tested against."""
    p0, q0 = origin
    sp, sq = strides
    size = width * (max((p - p0) * sp + (q - q0) * sq for p, q in terms) + 1)
    pos = bytearray(size)
    neg = bytearray(size)
    for (p, q), c in terms.items():
        at = width * ((p - p0) * sp + (q - q0) * sq)
        if c > 0:
            pos[at : at + width] = c.to_bytes(width, "little")
        else:
            neg[at : at + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def test_pack_matches_the_per_term_reference():
    # widths 1 to 9 bytes: the limb packing of up to 8 and the per-term
    # path past it; sparse and dense boxes, origins of either sign, and
    # coefficients at both ends of the slot range, +-(2^(8 width - 1) - 1)
    rng = random.Random(25)
    for width in range(1, 10):
        top = (1 << (8 * width - 1)) - 1
        for rows, cols in ((1, 1), (1, 7), (4, 5), (9, 3)):
            for density in (0.1, 0.5, 1.0):
                origin = (rng.randint(-3, 3), rng.randint(-3, 3))
                cells = [(p, q) for p in range(rows) for q in range(cols) if rng.random() < density]
                cells = cells or [(rows - 1, cols - 1)]
                values = [top, -top, 1, -1, rng.randint(-top, top) or 1, rng.randint(-9, 9) or 1]
                terms = {(origin[0] + p, origin[1] + q): rng.choice(values) for p, q in cells}
                packed = _pack(terms, origin, (cols, 1), width, rows * cols)
                assert packed == per_term_pack(terms, origin, (cols, 1), width), (width, rows, cols, density)
                assert _unpack(packed, origin, rows, cols, width) == terms
        extremes = {(0, 0): top, (0, 1): -top, (1, 0): -top, (1, 1): top}
        assert _pack(extremes, (0, 0), (2, 1), width, 4) == per_term_pack(extremes, (0, 0), (2, 1), width)
        assert _pack({}, (0, 0), (2, 1), width, 4) == 0


def slot_coefficients(draw, width):
    """A hypothesis strategy of slot values of width bytes, one of two
    mixes chosen by draw: small values and single bits at every place,
    alone or with both ends of the slot range and the 64-bit limb edges.
    A value of narrow slots alone, a single bit among them, takes the
    one-limb read only if every byte of it is checked."""
    limit = 1 << (8 * width - 1)
    edges = [-limit, limit - 1, 0] + [s * 2**63 + t for s in (1, -1) for t in (-1, 0, 1)] + [2**64, -(2**64)]
    narrow = st.one_of(
        st.integers(-1000, 1000),
        st.builds(lambda k, s: s << k, st.integers(0, 8 * width - 2), st.sampled_from((1, -1))),
    )
    wide = st.sampled_from([c for c in edges if -limit <= c < limit]) | st.integers(-limit, limit - 1)
    return draw(st.sampled_from((narrow, narrow | wide)))


@pytest.mark.skipif(st is None, reason="hypothesis is a test-only dependency")
def test_unpack_matches_the_per_slot_reference():
    # widths 1 to 40 bytes, one to five limbs: slots that fit one limb,
    # two-limb slots and wider ones; coefficients at both ends of the slot
    # range and at the 64-bit limb edges, small ones, single bits at every
    # place, and zeros.  Windowed reads are the band's
    # (test_band_unpack_matches_the_per_slot_reference)
    @st.composite
    def boxes(draw):
        width = draw(st.integers(1, 40))
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 6))
        values = draw(st.lists(slot_coefficients(draw, width), min_size=rows * cols, max_size=rows * cols))
        packed = sum(c << 8 * width * i for i, c in enumerate(values))
        origin = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        return packed, origin, rows, cols, width

    @settings(max_examples=600, deadline=None)
    @given(boxes())
    def check(box):
        assert _unpack(*box) == per_slot_unpack(*box)

    check()


def band_cells(band, degree):
    """The exponents (p, q) >= 0 with p + q <= degree and |p - q| <= band."""
    return [(p, s - p) for s in range(degree + 1) for p in range(s + 1) if abs(2 * p - s) <= band]


def per_slot_band_unpack(packed, band, width, order):
    """``packed._Band.unpack`` one slot at a time: each exponent of the
    band with p + q <= order read from its slot (band + 1) p + band q,
    biased by half the slot range, by its own ``int.from_bytes`` call.
    The reference the key tables of ``_Band.unpack`` are tested against."""
    cells = band_cells(band, order)
    if not cells:
        return {}
    half = 1 << (8 * width - 1)
    slots = max((band + 1) * p + band * q for p, q in cells) + 1
    bias = int.from_bytes(half.to_bytes(width, "little") * slots, "little")
    data = ((packed + bias) & ((1 << 8 * width * slots) - 1)).to_bytes(width * slots, "little")
    res = {}
    for p, q in cells:
        at = width * ((band + 1) * p + band * q)
        c = int.from_bytes(data[at : at + width], "little") - half
        if c:
            res[(p, q)] = c
    return res


@pytest.mark.skipif(st is None, reason="hypothesis is a test-only dependency")
def test_band_unpack_matches_the_per_slot_reference():
    # widths 1 to 40 bytes, band widths D from 0 to N + 1 for the window
    # p + q <= N, coefficients as in the box test above, and windows that
    # cut a row (N below the value's degree), take all of it or miss the
    # whole value (N < 0); the band packing matches the per-term one
    @st.composite
    def bands(draw):
        width = draw(st.integers(1, 40))
        order = draw(st.integers(-2, 9))
        band = draw(st.integers(0, max(order, 0) + 1))
        degree = draw(st.integers(0, 8))
        cells = band_cells(band, degree)
        # clamped to the slot range: a slot that carries would reach the
        # unused slots of the band, which no product ever writes
        limit = 1 << (8 * width - 1)
        coeff = slot_coefficients(draw, width).map(lambda c: max(-limit, min(limit - 1, c)))
        values = draw(st.lists(coeff, min_size=len(cells), max_size=len(cells)))
        return {e: c for e, c in zip(cells, values) if c}, band, degree, width, order

    @settings(max_examples=600, deadline=None)
    @given(bands())
    def check(case):
        terms, band, degree, width, order = case
        layout = _Band(band, (1 << 8 * width - 1) - 1)
        assert layout.width == width and layout.strides == (band + 1, band)
        packed = _pack(terms, (0, 0), layout.strides, width, layout.slots(degree))
        assert packed == (per_term_pack(terms, (0, 0), (band + 1, band), width) if terms else 0)
        expected = {(p, q): c for (p, q), c in terms.items() if p + q <= order}
        held = _BandValue(layout, packed, order, layout.limit - 1)
        assert held.read(order) == per_slot_band_unpack(packed, band, width, order) == expected

    check()


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
    """prod (1 + c u^a v^b)^k by the binomial expander, from 1 in a box."""
    return packed_sum([(1, (0, 0), factors)])


def parts_bound(parts):
    """sum |s| prod (1 + |c|)^k over the parts (s, (p, q), factors): a bound
    on the L1 norm of every partial product and partial sum."""
    return sum(abs(s) * math.prod((1 + abs(c)) ** k for c, _, _, k in factors) for s, _, factors in parts)


def parts_band(parts):
    """A band of the parts: its width is their largest total degree, which
    no |p - q| of a partial product exceeds."""
    width = max(p + q + sum(k * (a + b) for _, a, b, k in factors) for _, (p, q), factors in parts)
    return _Band(width, parts_bound(parts))


def packed_sum(parts, layout=None):
    """sum s u^p v^q prod (1 + c u^a v^b)^k over the parts (s, (p, q),
    factors), p, q >= 0, by the binomial expander: each part is its
    monomial packed in the layout times its binomial powers
    (``_Packed.times_binomials``), added into one value and unpacked once.
    By default the layout is the box with one column past every exponent
    of v that a partial product reaches."""
    if layout is None:
        cols = 1 + max(q + sum(k * b for _, _, b, k in factors) for _, (_, q), factors in parts)
        layout = _Box(cols, parts_bound(parts))
    total = _Packed(layout, 0, 0, (0, 0))
    for s, (p, q), factors in parts:
        total += _Packed(layout, s << layout.offset(p, q), abs(s), (p, q)).times_binomials(factors)
    return total.unpack()


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
        offset = (rng.randint(0, 6), rng.randint(0, 6))
        parts.append((rng.choice((1, -1, 2, -7, 0)), offset, factors))
    return parts


def test_binomial_expander_sums_shifted_parts_in_one_unpacking(monkeypatch):
    # random signs and scalars s (0 and |s| > 1 too), coefficients c
    # beyond +-1, k = 0, empty factor lists, and offsets on and off the
    # diagonal; a sum of more than one part is the dict-loop sum in a box
    # and in a band alike, and is read once
    reads = []
    read = packed_module._read_slots

    def recording_read(*args):
        reads.append(args[3])
        return read(*args)

    monkeypatch.setattr(packed_module, "_read_slots", recording_read)
    rng = random.Random(14)
    seen = set()
    for _ in range(200):
        parts = random_parts(rng, rng.randint(2, 5))
        for layout in (None, parts_band(parts)):
            reads.clear()
            assert packed_sum(parts, layout) == parts_sum(parts)
            assert len(reads) == 1
        seen.update("off diagonal" for _, (p, q), _ in parts if p != q)
        seen.update("empty" for _, _, factors in parts if not factors)
        seen.update("k = 0" for _, _, factors in parts for *_, k in factors if k == 0)
    assert seen >= {"off diagonal", "empty", "k = 0"}
    # parts that cancel: a part and its negative, and a product minus its
    # expansion term by term
    for s, offset, factors in random_parts(rng, 20):
        assert packed_sum([(s, offset, factors), (-s, offset, factors)]) == {}
    cancel = [(3, (1, 2), [(2, 1, 1, 2)]), (-3, (1, 2), []), (-12, (2, 3), []), (-12, (3, 4), [])]
    assert packed_sum(cancel) == {}
    assert packed_sum(cancel, parts_band(cancel)) == {}


def test_times_binomials_is_the_same_for_every_order_of_its_factors():
    # the factors are applied in order of the rows they add, whatever order
    # the caller lists them in: every permutation gives the same integer,
    # with c of either sign, factors that add no row (a = 0) and packed
    # starting values other than 1, and it unpacks to the dict-loop
    # product, as the expander's does
    rng = random.Random(24)
    seen = set()
    for _ in range(40):
        factors = [
            (rng.choice((1, -1, 2, -3)), rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 3))
            for _ in range(rng.randint(2, 4))
        ]
        s = rng.choice((1, -1, 5))
        rows = 1 + sum(k * a for _, a, _, k in factors)
        cols = 1 + sum(k * b for _, _, b, k in factors)
        width = _slot_width(abs(s) * math.prod((1 + abs(c)) ** k for c, _, _, k in factors))
        values = {_times_binomials(s, list(order), (cols, 1), width) for order in itertools.permutations(factors)}
        assert len(values) == 1
        reference = {e: s * c for e, c in binomial_product(factors).items()}
        assert _unpack(values.pop(), (0, 0), rows, cols, width) == reference
        assert packed_sum([(s, (0, 0), factors)]) == reference
        seen.update("c < 0" for c, *_ in factors if c < 0)
        seen.update("a = 0" for _, a, _, k in factors if a == 0 and k)
        seen.add("a differ" if len({a for _, a, _, k in factors if k}) > 1 else "a alike")
    assert seen == {"c < 0", "a = 0", "a differ", "a alike"}


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
            part = (rng.choice((1, -1, 3, -4)), (rng.randint(0, 6), rng.randint(0, 6)), factors)
            assert packed_sum([part]) == packed_sum([part], parts_band([part])) == parts_sum([part])
        assert packed_sum([(0, (2, 2), factors)]) == {}
    for part in random_parts(rng, 40):
        assert packed_sum([part]) == packed_sum([part], parts_band([part])) == parts_sum([part])


@pytest.mark.parametrize("g", [2, 3])
def test_closed_form_numerator_is_the_sum_of_its_parts(g):
    # the numerator of ss_closed_form, formed part by part in the band of
    # width n g with the Jacobian applied once to the sum, is the dict-loop
    # sum of its parts at every rank 1-6 and every residue
    for n in range(1, 7):
        for d in range(n):
            assert ss_closed_form(n, d, g).num._terms == parts_sum(_closed_form_parts(n, d, g)), (n, d)


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

