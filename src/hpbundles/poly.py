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

Truncated power series (``series.TruncatedSeries``) multiply on the
dict loop with a total-degree window: given ``order``, ``_mul_sparse``
returns only the terms with p + q <= order.  It translates only the
terms that stay in the window, and pairs each later term of one operand
only with the terms of the other that fit in it.  The semistable
recursion forms its windowed products packed on their diagonal band
instead (``packed._BandValue.times``).

The packed format, its unpacking and the shift-add products of binomial
powers (``packed._Packed.times_binomials``) live in ``packed``, as do
the packed values that a computation goes on working with.

A two-term base is raised to a power by the binomial theorem.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from fractions import Fraction

from .errors import DivisionRemainderError, DomainError
from .packed import _pack, _slot_width, _unpack


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
        # a constant equals its value (``__eq__``), so it hashes as that value
        terms = self._terms
        if terms.keys() <= {(0, 0)}:
            return hash(terms.get((0, 0), 0))
        return hash(frozenset(terms.items()))

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
        """h^{p,q} = h^{q,p}: unchanged when u and v are exchanged."""
        return self._terms == {(q, p): c for (p, q), c in self._terms.items()}

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


def _mul_terms(a, b):
    """Product of two term dicts by the path the module docstring names."""
    if len(a) > len(b):
        a, b = b, a
    box = _dense_box(a, b)
    if box is not None:
        return _mul_dense(a, b, box)
    return _mul_sparse(a, b)


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
    a and of b, the (rows, cols) size of their product's exponent box, and
    the number of slots each operand takes in rows of cols slots from its
    minimal exponents."""
    pa, qa = zip(*a)
    pb, qb = zip(*b)
    origin_a, origin_b = (min(pa), min(qa)), (min(pb), min(qb))
    ra, ca = max(pa) - origin_a[0], max(qa) - origin_a[1]
    rb, cb = max(pb) - origin_b[0], max(qb) - origin_b[1]
    cols = ca + cb + 1
    return origin_a, origin_b, (ra + rb + 1, cols), (ra * cols + ca + 1, rb * cols + cb + 1)


def _dense_box(a, b):
    """``_product_box(a, b)`` when the term dicts a (the shorter) and b
    are to be multiplied densely, else None."""
    if len(a) < _DENSE_MIN_TERMS:
        return None
    box = _product_box(a, b)
    rows, cols = box[2]
    if len(a) * len(b) < _DENSE_PAIRS_PER_CELL * rows * cols:
        return None
    return box


def _mul_dense(a, b, box=None):
    """Product of two term dicts by Kronecker substitution; ``box`` is
    their ``_product_box`` when the caller has it.

    Each operand, shifted to valuation (0, 0), is packed (``packed``) and
    one big-integer multiply does the convolution.  In the product's box
    the coefficient of u^p v^q sits in slot p * cols + q, cols the q-span
    of the product, so slot sums of the product never run into the next
    row, and ``packed._unpack`` reads the box.  Slots are wide enough for
    the largest possible product coefficient plus a sign bit.  Fractions
    are cleared to a common denominator first, and the product is divided
    by it after.
    """
    if not a or not b:
        return {}
    origin_a, origin_b, (rows, cols), (slots_a, slots_b) = box or _product_box(a, b)
    ia, den_a = _integral(a)
    ib, den_b = _integral(b)
    den = den_a * den_b
    bound = max(map(abs, ia.values())) * max(map(abs, ib.values())) * min(len(a), len(b))
    p0 = origin_a[0] + origin_b[0]
    q0 = origin_a[1] + origin_b[1]
    width = _slot_width(bound)
    packed = _pack(ia, origin_a, (cols, 1), width, slots_a) * _pack(ib, origin_b, (cols, 1), width, slots_b)
    res = _unpack(packed, (p0, q0), rows, cols, width)
    return res if den == 1 else _scale_terms(res, Fraction(1, den))


def _integral(terms):
    """(terms times the common denominator d, d), all coefficients int."""
    den = 1
    for c in terms.values():
        if type(c) is not int:
            den = math.lcm(den, c.denominator)
    if den == 1:
        return terms, 1
    return {e: int(c * den) for e, c in terms.items()}, den


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
