"""Sparse exact Laurent polynomials in two variables u, v.

Coefficients are arbitrary-precision rationals (``int`` or
``fractions.Fraction``; integral fractions are demoted to ``int``).
Exponents may be negative.  Zero coefficients are never stored, so two
polynomials are equal iff their term dicts are equal.

The monomial order used for division is graded lexicographic with
u > v, i.e. terms are compared by (p + q, p).

A product of two term dicts takes one of two paths, chosen from the
operands alone (``_mul_terms``).  The dict loop starts from the longer
operand translated by the exponent of the shorter one's first term and
scaled by its coefficient, then does one dict update per remaining pair
of terms.  A product by one term is thus a translation, and a product by
a two-term factor such as (1 - u^a v^b) is a translation and one merge
pass.  The dense path packs each operand into one big integer
(Kronecker substitution), multiplies once with CPython's Karatsuba
integer multiply and unpacks one slot per cell of the product's exponent
box; its cost follows the box, not the pairs.  The dense path is taken
when both operands have at least 8 terms and the term pairs number at
least 4 times the cells of the box, as for two dense (g+1)^2-term
Jacobians.  Sparse products, such as a few
terms spread over a wide box, stay on the dict loop: the dense path
would pay for every empty cell of the box (about 18 times slower for 16
terms spread over a 40 x 40 box).  The dict loop is the reference the
dense path is tested against; the tests check the dict loop in turn
against a plain pairwise loop.

Truncated power series (``series.TruncatedSeries``) multiply through the
same paths with a total-degree window: given ``order``, each path returns
only the terms with p + q <= order.  The dict loop then translates only
the terms that stay in the window, pairs each later term of one operand
only with the terms of the other that fit in it, and the dense path
unpacks only the slots inside it.

A sum of monomials times products of binomial powers,
sum s u^p v^q prod (1 + c u^a v^b)^k with a and b >= 0, is formed a
third way (``_expand_binomials``): each part starts as the integer s,
each power is one big-integer shift and add, x += c * (x << shift), the
part is added at the slot of its monomial into one accumulator packed as
on the dense path, in the box of the whole sum, and the sum is unpacked
once.  About half the cost of one product is that one unpacking: the
genus-24 product (1+u)^g (1+v)^g (1+u^2 v)^g (1+u v^2)^g takes 6 ms,
3 ms of it unpacking, against 26 ms for the dense product of the two
halves.  Every call packs the whole box of its sum;
``series._expand_factors`` packs a diagonal product in one variable
instead, and ``blocks`` forms the outer product of two binomial rows,
such as the Jacobian, from binomial coefficients.  The unwindowed
leading terms of the semistable series, the products of denominator
factors, and the numerator of the closed-form HN sum
(``semistable.ss_closed_form``), one part per composition, are formed
so.  The windowed leading series of the semistable recursion are
packed inside their window instead (``semistable._leading_series``):
the window keeps only a few powers of each binomial, so a large genus
at a small order stays cheap.  Other products go through
``_mul_terms``.

Every packed value is read by ``_unpack``, 8 bytes of each slot at a
time (``_slot_values``): strided slices, not one slice and one
``int.from_bytes`` call per slot.

A computation that goes on working with its products keeps them packed
(``packed``), reusing the slot width, the unpacking and the shift-add
loop here.

A two-term base is raised to a power by the binomial theorem.
"""

from __future__ import annotations

import heapq
import math
import sys
from array import array
from bisect import bisect_right
from fractions import Fraction

from .errors import DivisionRemainderError, DomainError


def as_coeff(c):
    """Validate and normalize a coefficient (ints and Fractions only)."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool and int subclasses
        return int(c)
    raise TypeError("coefficients must be int or Fraction, got %r" % type(c).__name__)


def as_int(x, name):
    """Validate an exponent, factor or multiplicity (floats and booleans fail)."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise DomainError("%s must be an integer, got %r" % (name, x))
    return int(x)


class LaurentPoly:
    """A polynomial sum(c * u^p * v^q) stored as {(p, q): c}."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for (p, q), c in terms.items():
                e = (as_int(p, "exponent"), as_int(q, "exponent"))
                c = as_coeff(c)
                if c:
                    data[e] = c
        self._terms = data

    # -- inspection ---------------------------------------------------

    def items(self):
        return self._terms.items()

    def terms(self):
        """A copy of the underlying {(p, q): c} dict."""
        return dict(self._terms)

    def coefficient(self, p, q):
        return self._terms.get((p, q), 0)

    @property
    def constant_term(self):
        return self._terms.get((0, 0), 0)

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def total_degree(self):
        """Max p + q over stored terms, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(p + q for p, q in self._terms)

    def min_exponents(self):
        """Componentwise minimum (min p, min q), or None if zero."""
        if not self._terms:
            return None
        return (min(p for p, _ in self._terms), min(q for _, q in self._terms))

    def has_negative_exponents(self):
        return any(p < 0 or q < 0 for p, q in self._terms)

    # -- ring operations ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == LaurentPoly.const(other)._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly._raw(_add_terms(self._terms, other._terms))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly._raw(_sub_terms(self._terms, other._terms))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPoly._raw(_scale_terms(self._terms, as_coeff(other)))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly._raw(_mul_terms(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            if len(self._terms) != 1:
                raise DomainError("not invertible as polynomial")
            ((p, q), c) = next(iter(self._terms.items()))
            inv = LaurentPoly._raw({(-p, -q): as_coeff(Fraction(1, 1) / c)})
            return inv ** (-n)
        if len(self._terms) == 2:
            return LaurentPoly._raw(_binomial_power(self._terms, n))
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    # -- substitutions --------------------------------------------------

    def dual_substitute(self, dim):
        """(uv)^dim * p(1/u, 1/v): each term (p, q) moves to (dim-p, dim-q)."""
        return LaurentPoly._raw({(dim - p, dim - q): c for (p, q), c in self._terms.items()})

    def negate_square_substitute(self):
        """Substitute u -> -u^2 and v -> -v^2."""
        res = {}
        for (p, q), c in self._terms.items():
            res[(2 * p, 2 * q)] = -c if (p + q) % 2 else c
        return LaurentPoly._raw(res)

    def specialize_diagonal(self):
        """Set u = v = t; returns {degree: coefficient} of the result."""
        res = {}
        for (p, q), c in self._terms.items():
            k = p + q
            s = res.get(k, 0) + c
            if s:
                res[k] = as_coeff(s)
            else:
                del res[k]
        return res

    def swap_variables(self):
        """Exchange u and v (used to test h^{p,q} = h^{q,p} symmetry)."""
        return LaurentPoly._raw({(q, p): c for (p, q), c in self._terms.items()})

    def evaluate(self, u_val, v_val):
        u_val = Fraction(u_val)
        v_val = Fraction(v_val)
        total = Fraction(0)
        for (p, q), c in self._terms.items():
            total += c * u_val**p * v_val**q
        return as_coeff(total)

    # -- predicates used by the certification steps ---------------------

    def is_integral(self):
        return all(type(c) is int for c in self._terms.values())

    def is_symmetric(self):
        return self == self.swap_variables()

    # -- construction helpers -------------------------------------------

    @classmethod
    def _raw(cls, data):
        obj = cls.__new__(cls)
        obj._terms = data
        return obj

    @classmethod
    def const(cls, c):
        c = as_coeff(c)
        return cls._raw({(0, 0): c} if c else {})

    @classmethod
    def monomial(cls, c, p, q):
        c = as_coeff(c)
        return cls._raw({(p, q): c} if c else {})

    # -- printing --------------------------------------------------------

    def sorted_terms(self):
        """Terms sorted by (p + q, p) ascending: the canonical text order."""
        return sorted(self._terms.items(), key=lambda t: (t[0][0] + t[0][1], t[0][0]))

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for (p, q), c in self.sorted_terms():
            mono = "*".join(s for s in (_var_power("u", p), _var_power("v", q)) if s)
            neg = c < 0
            c = -c if neg else c
            if mono:
                body = mono if c == 1 else "%s*%s" % (c, mono)
            else:
                body = str(c)
            if not parts:
                parts.append("-" + body if neg else body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "LaurentPoly(%s)" % str(self)


def _var_power(name, e):
    if e == 0:
        return ""
    if e == 1:
        return name
    return "%s^%d" % (name, e)


def _add_terms(a, b):
    """The term dict of a + b, for polynomials and series alike."""
    res = dict(a)
    for e, c in b.items():
        s = res.get(e, 0) + c
        if s:
            res[e] = s if type(s) is int else as_coeff(s)
        else:
            res.pop(e, None)
    return res


def _sub_terms(a, b):
    """The term dict of a - b, for polynomials and series alike."""
    res = dict(a)
    for e, c in b.items():
        s = res.get(e, 0) - c
        if s:
            res[e] = s if type(s) is int else as_coeff(s)
        else:
            res.pop(e, None)
    return res


# -- products -----------------------------------------------------------

# Gate of the dense path (see the module docstring).  On random inputs
# the two paths cost about the same at 2 term pairs per box cell.
_DENSE_MIN_TERMS = 8
_DENSE_PAIRS_PER_CELL = 4


def _mul_terms(a, b, order=None):
    """Product of two term dicts by the path the module docstring names;
    with ``order`` set, only its terms of total degree <= order."""
    if len(a) > len(b):
        a, b = b, a
    if _dense_pays(a, b):
        return _mul_dense(a, b, order)
    return _mul_sparse(a, b, order)


def _mul_monomial(a, b, order=None):
    """Product of the one-term dict a and the term dict b: b translated
    by the exponent of a and scaled by its coefficient."""
    (((p, q), c),) = a.items()
    if order is None:
        moved = {(p + s, q + t): k for (s, t), k in b.items()}
    else:
        moved = {(p + s, q + t): k for (s, t), k in b.items() if p + q + s + t <= order}
    return moved if c == 1 else _scale_terms(moved, c)


def _mul_sparse(a, b, order=None):
    """Product of two term dicts by the dict loop: the longer operand
    translated by the first term of the shorter one, then one dict update
    per remaining pair of terms.  The reference for the dense path.

    With ``order`` set, b is sorted by total degree once, and each later
    term of a runs over the prefix of b that keeps the pair in the window."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return {}
    first, *rest = a.items()
    res = _mul_monomial(dict((first,)), b, order)
    row = b.items()
    if order is not None and rest:
        by_degree = sorted(row, key=lambda t: t[0][0] + t[0][1])
        degrees = [p + q for (p, q), _ in by_degree]
    for (p1, q1), c1 in rest:
        if order is not None:
            row = by_degree[: bisect_right(degrees, order - p1 - q1)]
        for (p2, q2), c2 in row:
            e = (p1 + p2, q1 + q2)
            s = res.get(e, 0) + c1 * c2
            if s:
                res[e] = s if type(s) is int else as_coeff(s)
            else:
                del res[e]
    return res


def _product_box(a, b):
    """For non-empty term dicts a and b: the minimal exponents (p, q) of
    a and of b, and the (rows, cols) size of their product's exponent box."""
    pa, qa = zip(*a)
    pb, qb = zip(*b)
    rows = max(pa) - min(pa) + max(pb) - min(pb) + 1
    cols = max(qa) - min(qa) + max(qb) - min(qb) + 1
    return (min(pa), min(qa)), (min(pb), min(qb)), (rows, cols)


def _dense_pays(a, b):
    """Whether to multiply the term dicts a (the shorter) and b densely."""
    if len(a) < _DENSE_MIN_TERMS:
        return False
    rows, cols = _product_box(a, b)[2]
    return len(a) * len(b) >= _DENSE_PAIRS_PER_CELL * rows * cols


def _mul_dense(a, b, order=None):
    """Product of two term dicts by Kronecker substitution.

    Each operand, shifted to valuation (0, 0), becomes one integer with
    the coefficient of u^p v^q in slot p * cols + q; cols is the q-span
    of the product, so slot sums of the product never run into the next
    row.  Slots are whole bytes, wide enough for the largest possible
    product coefficient plus a sign bit.  One big-integer multiply does
    the convolution, and ``_unpack`` reads the slots.  Fractions are
    cleared to a common denominator first.

    With ``order`` set, only the rows that meet the window are unpacked,
    and in row p only the slots with p + q <= order.  The biased slots
    are the base-2^(8 width) digits of the product, so those rows are
    its low digits, and the rows above them are never converted.
    """
    if not a or not b:
        return {}
    origin_a, origin_b, (rows, cols) = _product_box(a, b)
    p0 = origin_a[0] + origin_b[0]
    q0 = origin_a[1] + origin_b[1]
    if order is not None:
        rows = min(rows, order - p0 - q0 + 1)
        if rows <= 0:
            return {}
    ia, den_a = _integral(a)
    ib, den_b = _integral(b)
    den = den_a * den_b
    bound = max(map(abs, ia.values())) * max(map(abs, ib.values())) * min(len(a), len(b))
    width = _slot_width(bound)
    packed = _pack(ia, origin_a, cols, width) * _pack(ib, origin_b, cols, width)
    return _unpack(packed, (p0, q0), rows, cols, width, order, den)


def _expand_binomials(parts):
    """The term dict of the sum of s u^p v^q prod (1 + c u^a v^b)^k over
    the parts (s, (p, q), factors), each factor (c, a, b, k) with ints
    a, b, k >= 0 and c, by shift-adds on one packed integer.

    The sum is packed as in ``_mul_dense``, in the box that holds every
    part: its origin is the least offset (p, q) of the parts, and it
    reaches sum k a rows and sum k b columns past each part's offset, so
    no term of a partial product leaves the box.  Each part starts as s
    at slot (0, 0), each of its factors is applied k times as
    x += c * (x << shift), one big-integer shift and add per power, and
    the part is added into one accumulator at the slot of its offset.
    The sum of |s| prod (1 + |c|)^k over the parts bounds every
    coefficient of every partial product and partial sum, so slots that
    hold it and a sign bit never carry into each other, and the sum is
    unpacked once.
    """
    if not parts:
        return {}
    p0 = min(p for _, (p, _), _ in parts)
    q0 = min(q for _, (_, q), _ in parts)
    rows = 1 + max(p - p0 + sum(k * a for _, a, _, k in factors) for _, (p, _), factors in parts)
    cols = 1 + max(q - q0 + sum(k * b for _, _, b, k in factors) for _, (_, q), factors in parts)
    bound = 0
    for s, _, factors in parts:
        norm = abs(s)
        for c, _, _, k in factors:
            norm *= (1 + abs(c)) ** k
        bound += norm
    width = _slot_width(bound)
    packed = 0
    for s, (p, q), factors in parts:
        packed += _times_binomials(s, factors, cols, width) << 8 * width * ((p - p0) * cols + q - q0)
    return _unpack(packed, (p0, q0), rows, cols, width)


def _times_binomials(x, factors, cols, width):
    """The packed x times prod (1 + c u^a v^b)^k over the factors
    (c, a, b, k), packed as in ``_mul_dense`` in rows of cols slots of
    width bytes: one big-integer shift and add per power.  The caller
    sizes the slots and the row for every partial product."""
    for c, a, b, k in factors:
        shift = 8 * width * (a * cols + b)
        for _ in range(k):
            # a product by 1 would cost a pass over the whole integer
            x += x << shift if c == 1 else c * (x << shift)
    return x


def _slot_width(bound):
    """Bytes per slot for coefficients of absolute value <= bound: room
    for the bound and a sign bit."""
    return (bound.bit_length() + 8) // 8


def _unpack(packed, origin, rows, cols, width, order=None, den=1):
    """The term dict packed as in ``_mul_dense``, its slot (0, 0) at the
    exponent origin, over the first rows rows of cols slots each.

    Adding half the slot range to every slot makes them all non-negative,
    so they unpack without borrows; each coefficient is divided by den.
    With ``order`` set, row p unpacks only the slots with p + q <= order:
    only those slots are read (``_slot_values``).
    """
    p0, q0 = origin
    slots = rows * cols
    bias = _slot_pattern(1 << (8 * width - 1), width, slots)
    data = ((packed + bias) & ((1 << 8 * width * slots) - 1)).to_bytes(width * slots, "little")
    spans = [cols] * rows
    if order is not None:
        spans = [min(cols, order - p - q0 + 1) for p in range(p0, p0 + rows)]
        spans = [span for span in spans if span > 0]  # the spans fall with p
        data = b"".join(data[width * i * cols : width * (i * cols + span)] for i, span in enumerate(spans))
    values = _slot_values(data, width)
    res = {}
    at = 0
    for p, span in enumerate(spans, p0):
        for q, c in enumerate(values[at : at + span], q0):
            if c:
                res[(p, q)] = c if den == 1 else as_coeff(Fraction(c, den))
        at += span
    return res


# A biased slot c + 2^(8 width - 1) differs from c in two's complement only
# in the top bit of its top byte, which _TWOS flips; _SIGN maps a two's
# complement byte to the byte that extends its sign.
_TWOS = bytes(b ^ 0x80 for b in range(256))
_SIGN = bytes(0xFF if b & 0x80 else 0 for b in range(256))


def _slot_values(data, width):
    """The signed values of the biased slots of width bytes in data.

    Each slot is read as one 8-byte limb: its bytes are copied into the
    limbs by strided slices, one byte of every slot per slice, its top byte
    through ``_TWOS``, the pad bytes of a narrower slot from ``_SIGN``,
    and all limbs are read by one ``array('q')``.  A wider slot takes one
    limb when all its bytes past the eighth extend the sign of the eighth,
    which one strided compare per byte checks.  Otherwise two-limb slots
    are combined from their limbs, and wider ones read one by one (cheaper
    at 35-byte slots than combining five limbs).
    """
    twos = data[width - 1 :: width].translate(_TWOS)
    if width <= 8:
        return _read_limbs(_top_limb(data, width, 0, twos), "q")
    sign = data[7::width].translate(_SIGN)
    if twos == sign and all(data[j::width] == sign for j in range(8, width - 1)):
        return _read_limbs(_limb(data, width, 0, 8), "q")
    if width <= 16:
        high = _read_limbs(_top_limb(data, width, 8, twos), "q")
        return [h << 64 | l for h, l in zip(high, _read_limbs(_limb(data, width, 0, 8), "Q"))]
    buf = bytearray(data)
    buf[width - 1 :: width] = twos
    buf = bytes(buf)
    from_bytes = int.from_bytes
    return [from_bytes(buf[i : i + width], "little", signed=True) for i in range(0, len(buf), width)]


def _limb(data, width, start, stop):
    """The bytes start..stop-1 of every width-byte slot of data, each slot's
    at the low end of an 8-byte limb; the rest of each limb is 0."""
    buf = bytearray(8 * (len(data) // width))
    for j in range(start, stop):
        buf[j - start :: 8] = data[j::width]
    return buf


def _top_limb(data, width, start, twos):
    """The bytes from start of every width-byte slot of data, its top byte
    replaced by the one in twos, sign-extended to an 8-byte limb
    (width - start <= 8)."""
    buf = _limb(data, width, start, width - 1)
    buf[width - 1 - start :: 8] = twos
    sign = twos.translate(_SIGN)
    for j in range(width - start, 8):
        buf[j::8] = sign
    return buf


def _read_limbs(buf, code):
    """The little-endian 8-byte limbs of buf as ints: signed for code 'q',
    unsigned for 'Q'."""
    limbs = array(code)
    limbs.frombytes(buf)
    if sys.byteorder == "big":
        limbs.byteswap()
    return limbs.tolist()


def _slot_pattern(value, width, slots):
    """The packed integer whose first slots slots, of width bytes, all
    hold the value (0 <= value < 2^(8 width))."""
    return int.from_bytes(value.to_bytes(width, "little") * slots, "little")


def _integral(terms):
    """(terms times the common denominator d, d), all coefficients int."""
    den = 1
    for c in terms.values():
        if type(c) is not int:
            den = math.lcm(den, c.denominator)
    if den == 1:
        return terms, 1
    return {e: int(c * den) for e, c in terms.items()}, den


def _pack(terms, origin, cols, width):
    """sum c * 2^(8 * width * slot) over the terms, slot as in _mul_dense."""
    p0, q0 = origin
    size = width * (max((p - p0) * cols + q - q0 for p, q in terms) + 1)
    pos = bytearray(size)
    neg = bytearray(size)
    for (p, q), c in terms.items():
        at = width * ((p - p0) * cols + q - q0)
        if c > 0:
            pos[at : at + width] = c.to_bytes(width, "little")
        else:
            neg[at : at + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _scale_terms(terms, c):
    """Every coefficient times the scalar c; integral results stay int.

    An int coefficient times a Fraction c = n/d is divided out with
    divmod, so no Fraction is built for a product that is integral."""
    if not c:
        return {}
    if type(c) is int:
        return {e: k * c if type(k) is int else as_coeff(k * c) for e, k in terms.items()}
    n, d = c.numerator, c.denominator
    res = {}
    for e, k in terms.items():
        if type(k) is int:
            quo, rem = divmod(k * n, d)
            res[e] = Fraction(k * n, d) if rem else quo
        else:
            res[e] = as_coeff(k * c)
    return res


def _binomial_power(terms, n):
    """(c0 m0 + c1 m1)^n for a two-term dict, from the binomial theorem:
    the sum over k of C(n, k) c0^(n-k) c1^k m0^(n-k) m1^k."""
    ((p0, q0), c0), ((p1, q1), c1) = terms.items()
    return {
        ((n - k) * p0 + k * p1, (n - k) * q0 + k * q1): as_coeff(
            math.comb(n, k) * c0 ** (n - k) * c1**k
        )
        for k in range(n + 1)
    }


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
U = LaurentPoly.monomial(1, 1, 0)
V = LaurentPoly.monomial(1, 0, 1)


def uv_power(k):
    """The monomial (uv)^k."""
    k = as_int(k, "exponent")
    return LaurentPoly.monomial(1, k, k)


dual_substitute = LaurentPoly.dual_substitute
negate_square_substitute = LaurentPoly.negate_square_substitute
specialize_diagonal = LaurentPoly.specialize_diagonal


def _grlex_key(e):
    # graded lexicographic with u > v
    return (e[0] + e[1], e[0])


def exact_divide(num, den):
    """Divide num by den, requiring a zero remainder.

    Long division with leading terms taken in graded lex order (u > v).
    Raises DivisionRemainderError carrying the remainder when the
    division is not exact, so error reports are deterministic.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero():
        return ZERO

    # Shift so the divisor has valuation (0, 0) and the dividend stays
    # ordinary; valuations are additive in a domain, so the quotient of
    # the shifted problem carries no negative exponents either.
    nmin = num.min_exponents()
    dmin = den.min_exponents()
    nshift = (min(nmin[0], 0), min(nmin[1], 0))
    shift_p = nshift[0] - dmin[0]
    shift_q = nshift[1] - dmin[1]
    work = {(p - nshift[0], q - nshift[1]): c for (p, q), c in num.items()}
    dwork = {(p - dmin[0], q - dmin[1]): c for (p, q), c in den.items()}

    dlead = max(dwork, key=_grlex_key)
    dlead_c = dwork[dlead]
    dtail = [(e, c) for e, c in dwork.items() if e != dlead]

    # Max-heap of candidate leading exponents with lazy deletion; entries
    # may be stale (term cancelled or already processed), so each pop is
    # checked against the live dict.
    heap = [(-_grlex_key(e)[0], -_grlex_key(e)[1], e) for e in work]
    heapq.heapify(heap)
    quotient = {}
    remainder = {}

    while heap:
        _, _, e = heapq.heappop(heap)
        c = work.get(e, 0)
        if not c:
            continue
        del work[e]
        dp, dq = e[0] - dlead[0], e[1] - dlead[1]
        if dp < 0 or dq < 0:
            remainder[e] = c
            continue
        if type(c) is int and type(dlead_c) is int and c % dlead_c == 0:
            factor = c // dlead_c
        else:
            factor = as_coeff(Fraction(c) / Fraction(dlead_c))
        quotient[(dp, dq)] = factor
        for (tp, tq), tc in dtail:
            te = (tp + dp, tq + dq)
            s = work.get(te, 0) - factor * tc
            if s:
                work[te] = as_coeff(s)
                k = _grlex_key(te)
                heapq.heappush(heap, (-k[0], -k[1], te))
            else:
                work.pop(te, None)

    if remainder:
        back = LaurentPoly._raw(
            {(p + nshift[0], q + nshift[1]): c for (p, q), c in remainder.items()}
        )
        raise DivisionRemainderError("division is not exact; remainder %s" % back, back)
    return LaurentPoly._raw({(p + shift_p, q + shift_q): c for (p, q), c in quotient.items()})
