"""The packed polynomials of ``packed._Packed``, in a ``packed._Box`` and
in a ``packed._Band``, and the truncated series of ``packed._BandValue``,
against ``LaurentPoly`` arithmetic, on hypothesis-drawn signed integer
polynomials with non-negative exponents."""

import ast
import collections
import itertools
import random
from pathlib import Path

import pytest

pytest.importorskip("hypothesis", reason="hypothesis is a test-only dependency")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import hpbundles  # noqa: E402
from hpbundles import (  # noqa: E402
    ONE,
    InternalCheckError,
    LaurentPoly,
    TruncatedSeries,
    hodge_deligne_stable_rank2,
    uv_power,
)
from hpbundles import packed as packed_module  # noqa: E402
from hpbundles.blocks import _rank2_numerators  # noqa: E402
from hpbundles.packed import (  # noqa: E402
    _Band,
    _BandValue,
    _Box,
    _pack,
    _Packed,
    _partition_counts,
    _unpack,
    _widen,
)

# Room for the drawn polynomials (exponents below SIDE) and every shift,
# product and dual below; slots of 2^200 hold the drawn coefficients,
# below 2^90, times anything the tests multiply them by.
SIDE = 6
COLS = 3 * SIDE
BOX = _Box(COLS, 2**200)

coefficients = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**80), 2**80))


@st.composite
def polys(draw, side=SIDE):
    cells = draw(st.lists(st.tuples(st.integers(0, side - 1), st.integers(0, side - 1), coefficients), max_size=12))
    return LaurentPoly({(p, q): c for p, q, c in cells})


def largest(terms):
    """The largest |coefficient| of a term dict, 0 for none."""
    return max(map(abs, terms.values()), default=0)


def pack(layout, terms):
    """A term dict as a ``_Packed`` value of the layout, a box or a band,
    with its exact bound, its largest |coefficient|, and top exponents."""
    bound = largest(terms)
    top = (max((p for p, _ in terms), default=0), max((q for _, q in terms), default=0))
    layout.check(bound, top)
    return _Packed(layout, _pack(terms, (0, 0), layout.strides, layout.width, layout.span(top)), bound, top)


def packed(poly):
    return pack(BOX, poly.terms())


def unpacked(value):
    return LaurentPoly._raw(value.unpack())


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(0, SIDE))
def test_shift_is_a_monomial_product(a, k):
    assert unpacked(packed(a).uv(k)) == a * uv_power(k)


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(0, SIDE))
def test_one_minus_uv_power_is_one_shift_and_one_subtraction(a, k):
    assert unpacked(packed(a).times_one_minus_uv(k)) == a * (ONE - uv_power(k))


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.integers(-5, 5))
def test_sums_and_small_multiples(a, b, k):
    assert unpacked(packed(a) + packed(b)) == a + b
    assert unpacked(packed(a) - packed(b)) == a - b
    assert unpacked(k * packed(a)) == a * k


@settings(max_examples=60, deadline=None)
@given(polys())
def test_parity_mask_and_halving(a):
    assert unpacked(packed(a * 2).halve()) == a
    odd = any(c % 2 for _, c in a.items())
    assert (packed(a).halve() is None) == odd


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_equality_without_unpacking(a, b):
    assert (packed(a) == packed(b)) == (a == b)
    assert packed(a) + packed(b) == packed(a + b)


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(0, 3))
def test_dual_is_slot_reversal(a, extra):
    dim = SIDE - 1 + extra
    assert unpacked(packed(a).dual(dim)) == a.dual_substitute(dim)


@settings(max_examples=60, deadline=None)
@given(polys(side=SIDE - 2), st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=2))
def test_diagonal_division_is_certified(y, strides):
    den = ONE
    for m in strides:
        den = den * (ONE - uv_power(m))
    x = packed(y * den)
    assert unpacked(x.divide_diagonal(strides)) == y
    # one term more leaves a remainder
    assert (x + pack(BOX, {(0, 1): 1})).divide_diagonal(strides) is None


binomial_factors = st.lists(
    st.tuples(st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(0, 1), st.integers(0, 1), st.integers(0, 2)),
    max_size=3,
)


def bounded(value):
    """The value, after checking that its tracked bound is at least its
    largest |coefficient|."""
    assert value.bound >= largest(value.unpack()), (value.bound, value.unpack())
    return value


@settings(max_examples=60, deadline=None)
@given(
    polys(),
    polys(),
    st.integers(-5, 5),
    st.integers(0, SIDE),
    binomial_factors,
    st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=2),
)
# a quotient larger than its dividend: (1 + 2t + 2t^2 + 2t^3 + t^4)(1 - t)
# = 1 + t - t^4 - t^5, t = uv
@example(LaurentPoly({(0, 0): 1, (1, 1): 2, (2, 2): 2, (3, 3): 2, (4, 4): 1}), LaurentPoly(), 0, 0, [], [1])
def test_tracked_bounds_hold_the_largest_coefficient(a, b, k, c, factors, strides):
    # the drawn values carry their exact largest |coefficient|; every
    # operation's tracked bound must stay at or above the one of its result
    x, y = packed(a), packed(b)
    bounded(x + y)
    bounded(x - y)
    bounded(k * x)
    bounded(x.uv(c))
    bounded(x.times_one_minus_uv(c + 1))
    bounded(x.times_diagonal(strides, 2 ** len(strides)))
    bounded(x.times_binomials(factors))
    bounded((2 * x).halve())
    bounded(x.dual(SIDE - 1 + c))
    den = ONE
    for m in strides:
        den = den * (ONE - uv_power(m))
    quotient = packed(a * den).divide_diagonal(strides)
    assert unpacked(bounded(quotient)) == a


@pytest.mark.parametrize("c, e, k", [(1, 1, 0), (1, 1, 1), (1, 1, 6), (-1, 2, 5), (2, 1, 4), (-3, 1, 5), (1, 2, 7)])
def test_outer_bound_is_the_largest_coefficient(c, e, k):
    value = BOX.outer(c, e, k)
    assert value.bound == largest(value.unpack())


def test_partition_counts_are_the_series_of_the_running_sums():
    # the first reach coefficients of prod 1/(1 - t^m), counted by brute
    # force over the number of parts of each stride
    for strides in ((1,), (1, 2), (1, 1, 2, 2, 3), (2, 3), (3,)):
        counts = _partition_counts(strides, 20)
        brute = [0] * 20
        for parts in itertools.product(*(range(20 // m + 1) for m in strides)):
            total = sum(p * m for p, m in zip(parts, strides))
            if total < 20:
                brute[total] += 1
        assert counts == brute, strides


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.lists(st.sampled_from((-1, 0, 1)), min_size=6, max_size=6))
def test_unpack_at_the_slot_bound(width, signs):
    # balanced digits run from -limit to limit - 1
    limit = 1 << (8 * width - 1)
    edge = {-1: -limit, 0: limit - 1, 1: 1 - limit}
    terms = {(k // 3, k % 3): edge[s] for k, s in enumerate(signs)}
    assert _unpack(_pack(terms, (0, 0), (3, 1), width, 6), (0, 0), 2, 3, width) == terms


def test_norm_at_the_slot_bound_unpacks():
    box = _Box(4, 2**20)
    terms = {(0, 0): box.limit // 2, (1, 3): -(box.limit // 2 - 1)}
    assert pack(box, terms).unpack() == terms


def test_norm_bound_forced_over_raises():
    box = _Box(4, 2**20)
    x = pack(box, {(0, 0): box.limit // 2, (1, 1): -1})
    with pytest.raises(InternalCheckError):
        2 * x
    with pytest.raises(InternalCheckError):
        x + x
    with pytest.raises(InternalCheckError):
        x.times_binomials([(1, 1, 0, 1)])
    with pytest.raises(InternalCheckError):
        _Packed(box, 0, box.limit, (0, 0))
    # a term past the last column would carry into the next row
    with pytest.raises(InternalCheckError):
        pack(box, {(0, 2): 1}).uv(2)


@pytest.mark.parametrize("width", range(1, 18))
def test_widening_round_trips(width):
    # every point of the window p + q <= 5 in the band of width 3, with the
    # coefficients at both ends of the slots, held masked to the window as
    # a held series is, so that its negative coefficients borrow past it
    rng = random.Random(width)
    limit = 1 << (8 * width - 1)
    band, top = 3, 5
    source = _Band(band, limit - 1)
    assert source.width == width
    points = [(p, s - p) for s in range(top + 1) for p in range(s + 1) if abs(2 * p - s) <= band]
    terms = {e: rng.choice((limit - 1, 1 - limit, 0, rng.randrange(1 - limit, limit))) for e in points}
    terms[points[0]], terms[points[-1]] = limit - 1, 1 - limit
    terms = {e: c for e, c in terms.items() if c}
    held = _BandValue(source, source.pack(terms, top, limit - 1).value & source.mask(top), top, limit - 1)
    for wide in sorted({width, width + 1, width + 7, 17} - set(range(width))):
        target = _Band(band, (1 << 8 * wide - 1) - 1)
        assert target.width == wide
        for order in range(top + 1):
            cut = {e: c for e, c in terms.items() if sum(e) <= order}
            widened = _widen(held, target, order)
            # exactly the cut window in the wider slots, nothing above it,
            # held to that order with the held bound
            assert widened.band is target and widened.order == order and widened.bound == held.bound
            assert widened.value == _pack(cut, (0, 0), target.strides, wide, target.slots(order)), (wide, order)
            assert widened.read(order) == cut, (wide, order)
    # a band change, a narrowing or an order above the held one raises
    for target, order in ((_Band(band + 1, limit - 1), top), (_Band(band - 1, limit - 1), top), (source, top + 1)):
        with pytest.raises(InternalCheckError):
            _widen(held, target, order)
    if width > 1:
        with pytest.raises(InternalCheckError):
            _widen(held, _Band(band, (limit >> 8) - 1), top)


# Band values: polynomials within BAND_POLY of the diagonal, in a band of
# width BAND_WIDTH, which holds them times factors that move p - q by at
# most 2 either way; exact, so known to any order at or above their degree
BAND_POLY, BAND_WIDTH, BAND_TOP = 4, 6, 40
FACTORS = [(1, 1, 0, 2), (-1, 0, 1, 1), (2, 1, 1, 1), (-3, 0, 1, 1)]


def band_value(band, terms, order):
    """A term dict as a truncated series of the band, held to order, with
    its exact bound."""
    return band.pack(terms, order, largest(terms))


def near_diagonal(a):
    return LaurentPoly({(p, q): x for (p, q), x in a.items() if abs(p - q) <= BAND_POLY})


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.integers(-1, 2 * SIDE), st.integers(0, 3), st.integers(-5, 5))
def test_band_operations_match_polynomial_arithmetic(a, b, cut, c, k):
    a, b = near_diagonal(a), near_diagonal(b)
    band = _Band(BAND_WIDTH, 2**200)
    x = band_value(band, a.terms(), BAND_TOP)
    truncated = {e: v for e, v in a.items() if sum(e) <= cut}
    assert x.read(cut) == truncated
    # a window is the exact polynomial: the packed truncation itself, not
    # just its residue, as a value of the band
    window = x.window(cut)
    assert window.value == _pack(truncated, (0, 0), band.strides, band.width, band.slots(BAND_TOP))
    assert window.top == (cut, cut) and window.unpack() == truncated
    den = (ONE - uv_power(1)) * (ONE - uv_power(2)) ** 2
    # every partial product of den has L1 norm at most 8
    assert x.times_diagonal((1, 2, 2), 8).read(BAND_TOP) == (a * den).terms()
    # the operations of an exact polynomial run on band values as on a box
    y, z = pack(band, a.terms()), pack(band, b.terms())
    assert y == x.window(BAND_TOP) and (y == z) == (a == b)
    assert bounded(y + z).unpack() == (a + b).terms()
    assert bounded(y - z).unpack() == (a - b).terms()
    assert bounded(k * y).unpack() == (a * k).terms()
    assert bounded(y.uv(c)).unpack() == (a * uv_power(c)).terms()
    assert bounded(y.times_one_minus_uv(c + 1)).unpack() == (a * (ONE - uv_power(c + 1))).terms()
    assert bounded(y.times_diagonal((1, 2, 2), 8)).unpack() == (a * den).terms()
    product = a
    for s, i, j, m in FACTORS:
        product = product * (ONE + LaurentPoly.monomial(s, i, j)) ** m
    assert bounded(y.times_binomials(FACTORS)).unpack() == product.terms()
    dim = SIDE - 1 + c
    dual = bounded(y.dual(dim))
    assert dual.top == (dim, dim) and dual.unpack() == a.dual_substitute(dim).terms()
    assert (2 * y).halve() == y
    assert (y.halve() is None) == any(v % 2 for _, v in a.items())
    # each value subtracted is widened once, cut at the window of its first
    # pair, here from slots of 13 bytes into the 26 that the sum of the
    # bounds sizes; the pairs come in order of their shifts, so the
    # difference is known to its order
    top = 3 * SIDE
    narrow = band_value(_Band(BAND_WIDTH, 2**100), a.terms(), BAND_TOP)
    pairs = [(1, narrow), (c + 1, x), (c + 1, narrow), (c + 2, x)]
    difference = band.pack(a.terms(), BAND_TOP, 2**199).subtract(pairs, top)
    expected = a - sum((a * uv_power(k) for k, _ in pairs), LaurentPoly())
    assert difference.order == top and difference.bound == 2**199 + 4 * largest(a.terms())
    assert difference.band.band == BAND_WIDTH and difference.band.width == band.width == 26
    assert difference.read(top) == {e: v for e, v in expected.items() if sum(e) <= top}


def masked(value):
    """The band value masked to its window, as the recursion holds its
    products: a negative coefficient there leaves a borrow above it."""
    return _BandValue(value.band, value.value & value.band.mask(value.order), value.order, value.bound)


def l1(terms):
    return sum(map(abs, terms.values()))


# Products of band values stay within 2 BAND_POLY of the diagonal, and the
# row factors below move p - q by at most 2 either way more
ROWS = [(1, 0, (2, -1)), (0, 1, (3,)), (2, 1, (1, 1, 1))]


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), st.integers(0, 2 * SIDE), st.integers(0, 2 * SIDE))
@example(LaurentPoly({(0, 0): -1}), LaurentPoly({(0, 0): 1, (1, 1): 2}), 4, 2)
def test_band_product_matches_the_series_product(a, b, m, k):
    # the product of two held series, each masked to its window and held to
    # its own order, is the dict loop's product to the lower order, masked
    # to that window, with the bound of Young's inequality
    a = TruncatedSeries(near_diagonal(a), m)
    b = TruncatedSeries(near_diagonal(b), k)
    band = _Band(2 * BAND_POLY + 2, 2**200)
    x = masked(band.pack(dict(a.items()), m, largest(dict(a.items()))))
    y = masked(band.pack(dict(b.items()), k, largest(dict(b.items()))))
    norm = l1(dict(b.items()))
    product = x.times(y, norm)
    order = min(m, k)
    assert product.order == order and product.bound == x.bound * norm
    assert product.read(order) == dict((a * b).items())
    assert 0 <= product.value <= band.mask(order)
    assert max(map(abs, product.read(order).values()), default=0) <= product.bound
    # the cut binomial rows and the running sums of the leading series, on
    # a signed masked value: the products by the rows, and by the series of
    # 1 / ((1 - uv)(1 - (uv)^2)), to its order
    rows = ONE
    for i, j, row in ROWS:
        powers = (LaurentPoly.monomial(cj, i * e, j * e) for e, cj in enumerate(row, 1))
        rows = rows * (ONE + sum(powers, LaurentPoly()))
    expected = a * TruncatedSeries.from_poly(rows, m)
    assert x.times_rows(ROWS, 2**150).read(m) == dict(expected.items())
    inverse = TruncatedSeries.from_poly(ONE, m)
    for s in (1, 2):
        inverse = inverse * TruncatedSeries({(s * e, s * e): 1 for e in range(m // s + 1)}, m)
    assert x.over_diagonal((1, 2), 2**150).read(m) == dict((a * inverse).items())


def test_band_product_refuses_what_its_slots_cannot_hold():
    band = _Band(3, 2**15)
    x = band.pack({(0, 0): 1, (1, 1): -2}, 6, 2)
    # a bound at the slot limit, x.bound times the norm of the other factor
    assert x.times(x, band.limit // 2 - 1).bound == band.limit - 2
    with pytest.raises(InternalCheckError, match="slot limit"):
        x.times(x, band.limit // 2)
    # two bands, even of one width and slot width, do not multiply
    other = _Band(3, 2**15).pack({(0, 0): 1}, 6, 1)
    assert other.band.width == band.width
    with pytest.raises(InternalCheckError, match="two bands"):
        x.times(other, 1)


def test_band_values_refuse_what_their_slots_cannot_hold():
    band = _Band(3, 2**15)
    x = band_value(band, {(0, 0): 1, (1, 2): -5}, 6)
    # a read or a cut above the held order would take zeros for terms
    for order in (7, 10):
        with pytest.raises(InternalCheckError):
            x.read(order)
        with pytest.raises(InternalCheckError):
            x.window(order)
    # a bound that reaches the slot limit, by a sum, a multiple or a product,
    # of a truncated series or of an exact polynomial
    with pytest.raises(InternalCheckError):
        _BandValue(band, 0, 6, band.limit)
    with pytest.raises(InternalCheckError):
        _Packed(band, 0, band.limit, (0, 0))
    big = _BandValue(band, 0, 6, band.limit // 2)
    with pytest.raises(InternalCheckError):
        big.times(big, 2)
    with pytest.raises(InternalCheckError):
        big.times_diagonal((1,), 2)
    # a difference is formed in slots sized for the sum of its bounds
    assert big.subtract([(1, big)], 6).band.width == band.width + 1
    exact = big.window(6)
    for operation in (
        lambda: exact + exact,
        lambda: exact - exact,
        lambda: 2 * exact,
        lambda: exact.times_diagonal((1,), 2),
        lambda: exact.times_binomials([(1, 1, 0, 1)]),
    ):
        with pytest.raises(InternalCheckError):
            operation()
    # the pairs of one value out of order of their shifts would leave a
    # window uncovered; those of two values need no order
    wide = band.pack({(0, 0): 1, (1, 2): -5}, 6, 2**15)
    with pytest.raises(InternalCheckError, match="misses order 6"):
        wide.subtract([(1, x), (0, x)], 6)
    y = band_value(band, {(0, 0): 3}, 6)
    assert wide.subtract([(1, x), (0, y)], 6).read(6) == {(0, 0): -2, (1, 1): -1, (1, 2): -5, (2, 3): 5}
    # a value of another band width, or in wider slots than the sum of the
    # bounds sizes, cannot be widened in, and values of two layouts, two
    # bands even of one width and slot width, or a band and a box, neither
    # add nor subtract
    assert wide.subtract([(0, band_value(_Band(3, 2**8), {(0, 0): 1}, 6))], 6).band.width == band.width
    for other in (_Band(4, 2**15), _Band(3, 2**40)):
        with pytest.raises(InternalCheckError, match="cannot read"):
            wide.subtract([(0, band_value(other, {(0, 0): 1}, 6))], 6)
    y = x.window(6)
    for other in (band_value(_Band(3, 2**15), {(0, 0): 1}, 6).window(6), pack(_Box(4, 2**15), {(0, 0): 1})):
        assert other.layout.width == y.layout.width
        for operation in (lambda: y + other, lambda: y - other, lambda: other + y, lambda: other - y):
            with pytest.raises(InternalCheckError, match="two layouts"):
                operation()


def test_diagonal_division_refuses_a_band_value():
    # its digit and row masks are cut to the rows of a box, so a band value,
    # even one that divides exactly, has no diagonal division
    x = band_value(_Band(3, 2**15), {(0, 0): 1, (1, 1): -1}, 6).window(6)
    with pytest.raises(InternalCheckError, match="box"):
        x.divide_diagonal((1,))


def test_outer_and_binomial_products_match_powers():
    for c, e, k in ((1, 1, 0), (1, 1, 3), (-1, 2, 3), (2, 1, 2)):
        assert unpacked(BOX.outer(c, e, k)) == (ONE + LaurentPoly.monomial(c, e, 0)) ** k * (
            ONE + LaurentPoly.monomial(c, 0, e)
        ) ** k
    jac = BOX.outer(1, 1, 2)
    twisted = jac.times_binomials([(1, 2, 1, 2), (-1, 1, 2, 1)])
    expected = unpacked(jac) * (ONE + LaurentPoly.monomial(1, 2, 1)) ** 2 * (ONE - LaurentPoly.monomial(1, 1, 2))
    assert unpacked(twisted) == expected


# The band's layout and the operations of its values: only the semistable
# recursion uses them outside packed
BAND_NAMES = {"_Band", "_BandValue", "_widen", "pack", "times", "times_rows", "over_diagonal", "subtract", "window"}
# What semistable reads of no packed value: it works through the band
# values' operations, and never on their slot integers
SLOT_ATTRIBUTES = {"value", "width", "strides", "offset", "running_sums"}


def test_packed_is_the_one_module_of_the_slot_format():
    # packed imports no other module of the package but errors, and no
    # other module converts between integers and slot bytes.  Only the
    # semistable recursion packs series on a band, through the band's and
    # its values' methods alone, and poly packs boxes alone, by _pack and
    # _unpack
    package = Path(hpbundles.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "packed.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    assert node.level == 0 or node.module == "errors", node.module
                    assert not (node.module or "").startswith("hpbundles"), node.module
                elif isinstance(node, ast.Import):
                    assert not any(alias.name.startswith("hpbundles") for alias in node.names)
            continue
        for node in ast.walk(tree):
            where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr not in ("from_bytes", "to_bytes"), where
            if path.name == "semistable.py":
                if isinstance(node, ast.ImportFrom) and node.module == "packed":
                    assert not {"_pack", "_widen"} & {alias.name for alias in node.names}, where
                assert not (isinstance(node, ast.Attribute) and node.attr in SLOT_ATTRIBUTES), where
            else:
                if isinstance(node, ast.ImportFrom):
                    assert not BAND_NAMES & {alias.name for alias in node.names}, where
                assert not (isinstance(node, ast.Name) and node.id in BAND_NAMES), where
                assert not (isinstance(node, ast.Attribute) and node.attr in BAND_NAMES), where
            if path.name == "poly.py" and isinstance(node, ast.ImportFrom) and node.module == "packed":
                assert {alias.name for alias in node.names} <= {"_pack", "_slot_width", "_unpack"}, where


def _named(tree):
    """Every name a tree reads: Names, Attributes and import aliases."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_helper_has_a_caller():
    # each module-level private function or class, and each private method,
    # of the package is named in the package outside its own definition:
    # a helper only the tests reach is dead code
    package = Path(hpbundles.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    uses = collections.Counter(name for tree in trees.values() for name in _named(tree))
    defined = (ast.FunctionDef, ast.ClassDef)
    private = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, defined):
                private.append((module, node))
            if isinstance(node, ast.ClassDef):
                private.extend((module, item) for item in node.body if isinstance(item, defined))
    private = [(module, node) for module, node in private if node.name.startswith("_") and not node.name.endswith("__")]
    assert len(private) > 100
    unused = [
        "%s:%d %s" % (module, node.lineno, node.name)
        for module, node in private
        if uses[node.name] == collections.Counter(_named(node))[node.name]
    ]
    assert not unused


def test_rank2_call_builds_each_slot_pattern_once(monkeypatch):
    # one Hodge-Deligne call works in one box of 99 columns at genus 24, its
    # slot width that of the genus-24 record: outer products, halvings, the
    # diagonal division, the dual and the unpacking all take their slot
    # patterns from it, the division its mask of whole rows too, and no
    # (value, slots) pattern is built twice
    box = _rank2_numerators(24).box
    builds = []
    build = packed_module._slot_pattern

    def recording(value, width, slots):
        builds.append((value, width, slots))
        return build(value, width, slots)

    monkeypatch.setattr(packed_module, "_slot_pattern", recording)
    hodge_deligne_stable_rank2(24)
    assert len(builds) == len(set(builds))
    assert box.cols == 99
    assert {width for _, width, _ in builds} == {box.width, box.width * box.cols}
