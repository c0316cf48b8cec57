"""Factored rational functions and truncated power series expansion.

Every rational function handled here has a diagonal denominator, a
product of binomials (1 - (uv)^k)^m with k >= 1 as in H*(BG), which
keeps all factors invertible as power series and makes equality
decidable by cross-multiplication, with no rational-function normal
form needed.

A product of two truncated series is the ``LaurentPoly`` dict loop
(``poly._mul_sparse``) with the total-degree window of the smaller order,
and sums share the ``LaurentPoly`` merge loops.  Division by the
denominator is one kernel, ``_divide_factors``: the terms are grouped
once into diagonals p - q, and every factor (1 - (uv)^k)^m divides the
same diagonal lists by m running sums of stride k.  ``series_expand``
runs the sums inside the window of its order, with no geometric series
built; ``as_polynomial`` runs them as an exact division, and only a
division that leaves a remainder falls back to the long division
``exact_divide``, which reports the remainder of the division by the
whole denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .errors import DomainError
from .packed import _Box, _Packed
from .poly import LaurentPoly, _add_terms, _mul_sparse, _scale_terms, _sub_terms
from .poly import as_coeff, as_int, exact_divide


class TruncatedSeries:
    """A power series known exactly for all terms of total degree <= order.

    Exponents are non-negative.  Arithmetic between series of different
    orders is correct only up to the smaller order, and the result carries
    that smaller order.
    """

    __slots__ = ("order", "_terms")

    def __init__(self, terms, order):
        order = as_int(order, "series order")
        if order < 0:
            raise DomainError("series order must be non-negative")
        self.order = order
        data = {}
        if terms:
            for (p, q), c in terms.items():
                p, q = as_int(p, "exponent"), as_int(q, "exponent")
                if p < 0 or q < 0:
                    raise DomainError("Laurent part not expandable")
                if p + q > order:
                    continue
                c = as_coeff(c)
                if c:
                    data[(p, q)] = c
        self._terms = data

    @classmethod
    def _raw(cls, data, order):
        obj = cls.__new__(cls)
        obj._terms = data
        obj.order = order
        return obj

    @classmethod
    def from_poly(cls, poly, order):
        return cls(dict(poly.items()), order)

    def items(self):
        return self._terms.items()

    def coefficient(self, p, q):
        return self._terms.get((p, q), 0)

    def as_poly(self):
        """The stored terms as a LaurentPoly (forgetting the order)."""
        return LaurentPoly(dict(self._terms))

    def truncate(self, order):
        order = as_int(order, "series order")
        if order < 0:
            raise DomainError("series order must be non-negative")
        if order > self.order:
            raise DomainError("cannot extend a truncated series")
        return TruncatedSeries._raw(self._window(order), order)

    def _window(self, order):
        """The terms of total degree <= order <= self.order, uncopied at self.order."""
        if order == self.order:
            return self._terms
        return {e: c for e, c in self._terms.items() if e[0] + e[1] <= order}

    def shift(self, k):
        """Multiply by (uv)^k; the certified order grows by 2k."""
        k = as_int(k, "shift")
        if k < 0:
            raise DomainError("negative shift would leave the series ring")
        return TruncatedSeries._raw(
            {(p + k, q + k): c for (p, q), c in self._terms.items()}, self.order + 2 * k
        )

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self._terms == other._terms

    def __hash__(self):
        return hash((self.order, frozenset(self._terms.items())))

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return TruncatedSeries._raw(_add_terms(self._window(order), other._window(order)), order)

    def __neg__(self):
        return TruncatedSeries._raw({e: -c for e, c in self._terms.items()}, self.order)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return TruncatedSeries._raw(_sub_terms(self._window(order), other._window(order)), order)

    def __mul__(self, other):
        """The product to the smaller order, by the windowed dict loop
        (``poly._mul_sparse``): one dict update per pair of terms inside
        the window, about 57 ms for two dense 800-term recursion outputs
        to order 100 (Python 3.11, 2-core Xeon), 17 times their product
        packed on their diagonal band.  Bulk windowed work belongs on
        band values (``packed._BandValue.times``), as the semistable
        recursion forms it."""
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries._raw(_scale_terms(self._terms, as_coeff(other)), self.order)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return TruncatedSeries._raw(_mul_sparse(self._terms, other._terms, order), order)

    __rmul__ = __mul__

    def mul_poly(self, poly):
        """Multiply by a polynomial with non-negative exponents, keeping order.

        Terms of the product up to the current order only involve known
        terms of the series, so no accuracy is lost.
        """
        if poly.has_negative_exponents():
            raise DomainError("Laurent part not expandable")
        other = TruncatedSeries.from_poly(poly, self.order)
        return self * other

    def __str__(self):
        return "%s + O(deg %d)" % (LaurentPoly(dict(self._terms)), self.order + 1)

    def __repr__(self):
        return "TruncatedSeries(%s)" % str(self)


class FactoredRational:
    """scalar * num / prod (1 - (uv)^k)^m, with exact rational scalar.

    The denominator is diagonal, stored as the factor multiset
    {(k, k): m}.  No cancellation with the numerator is attempted;
    equality is decided by cross-multiplying numerators over the common
    factors.
    """

    __slots__ = ("num", "den", "scalar")

    def __init__(self, num, den=None, scalar=1):
        if isinstance(num, (int, Fraction)):
            num = LaurentPoly.const(num)
        elif not isinstance(num, LaurentPoly):
            raise DomainError("numerator must be a LaurentPoly, int or Fraction, got %r" % (num,))
        self.num = num
        factors = {}
        for (a, b), m in (den or {}).items():
            a, b, m = as_int(a, "factor exponent"), as_int(b, "factor exponent"), as_int(m, "multiplicity")
            if a != b or a < 1 or m < 0:
                raise DomainError("denominator factors must be (1 - (uv)^k)^m with k >= 1, m >= 0")
            if m:
                factors[(a, a)] = m
        self.den = factors
        self.scalar = Fraction(as_coeff(scalar))

    # -- basic structure -----------------------------------------------

    def scaled_num(self):
        return self.num if self.scalar == 1 else self.num * self.scalar

    def is_zero(self):
        return self.num.is_zero() or self.scalar == 0

    def __str__(self):
        num = str(self.num)
        if len(self.num) > 1:
            num = "(%s)" % num
        if self.scalar != 1:
            num = "%s * %s" % (self.scalar, num)
        if not self.den:
            return num
        parts = []
        for (k, _), m in sorted(self.den.items()):
            base = "(1-u*v)" if k == 1 else "(1-u^%d*v^%d)" % (k, k)
            parts.append(base if m == 1 else "%s^%d" % (base, m))
        return "%s / (%s)" % (num, "*".join(parts))

    def __repr__(self):
        return "FactoredRational(%s)" % str(self)

    # -- arithmetic ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FactoredRational(self.num, self.den, self.scalar * Fraction(other))
        if isinstance(other, LaurentPoly):
            return FactoredRational(self.num * other, self.den, self.scalar)
        if not isinstance(other, FactoredRational):
            return NotImplemented
        den = dict(self.den)
        for f, k in other.den.items():
            den[f] = den.get(f, 0) + k
        return FactoredRational(self.num * other.num, den, self.scalar * other.scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return FactoredRational(self.num, self.den, -self.scalar)

    def __add__(self, other):
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return FactoredRational.sum((self, other))

    @staticmethod
    def sum(terms):
        """The sum of the terms over their least common denominator.

        The numerators of terms with equal denominators are added first,
        and each such group is multiplied once, by the factors its
        denominator lacks; a long sum thus forms no partial sums over
        partial denominators.
        """
        groups = {}
        for term in terms:
            key = frozenset(term.den.items())
            num = groups.get(key)
            groups[key] = term.scaled_num() if num is None else num + term.scaled_num()
        dens = [dict(key) for key in groups]
        den = _lcm_factors(dens)
        num = None
        for have, part in zip(dens, groups.values()):
            part = _times_factors(part, _missing_factors(den, have))
            num = part if num is None else num + part
        return FactoredRational(num, den)

    def __sub__(self, other):
        return self + (-other)

    def shift_degrees(self, k):
        """Multiply by (uv)^k."""
        return FactoredRational(self.num * LaurentPoly.monomial(1, k, k), self.den, self.scalar)

    # -- comparisons -------------------------------------------------------

    def equals(self, other):
        """Exact equality by cross-multiplication over the common factors."""
        return self.residual(other).is_zero()

    def residual(self, other):
        """lhs - rhs after clearing denominators; zero iff equal.

        The scalars are cleared too, by the lcm D of their denominators:
        each numerator is scaled by an int, so the residual is D times
        the difference of the values over the common factors."""
        if not isinstance(other, FactoredRational):
            raise TypeError("can only compare FactoredRational with FactoredRational")
        den = _lcm_factors((self.den, other.den))
        clear = math.lcm(self.scalar.denominator, other.scalar.denominator)
        lhs = _times_int(self.num, int(self.scalar * clear))
        rhs = _times_int(other.num, int(other.scalar * clear))
        return _times_factors(lhs, _missing_factors(den, self.den)) - _times_factors(
            rhs, _missing_factors(den, other.den)
        )

    # -- expansion ---------------------------------------------------------

    def series_expand(self, order):
        """Expand to a TruncatedSeries of the given order.

        The numerator must have non-negative exponents; it is cut to the
        window and divided there by running sums (``_divide_factors``).
        """
        order = as_int(order, "series order")
        if order < 0:
            raise DomainError("series order must be non-negative")
        if self.num.has_negative_exponents():
            raise DomainError("Laurent part not expandable")
        terms = {(p, q): c for (p, q), c in self.num.items() if p + q <= order}
        terms = _divide_factors(terms, self.den, order)
        if self.scalar != 1:
            terms = _scale_terms(terms, as_coeff(self.scalar))
        return TruncatedSeries._raw(terms, order)

    def as_polynomial(self):
        """Certify the value is an honest polynomial, via exact division.

        Divides by all the factors at once, by running sums along the
        diagonals (``_divide_factors``).  If a division leaves a remainder, the
        long division ``exact_divide`` by the whole denominator raises
        DivisionRemainderError with the remainder.
        """
        terms = _divide_factors(self.scaled_num()._terms, self.den)
        if terms is None:
            return exact_divide(self.scaled_num(), _expand_factors(self.den))
        return LaurentPoly._raw(terms)


def _lcm_factors(dens):
    """The least common multiple {f: max k} of the factor multisets."""
    lcm = {}
    for den in dens:
        for f, k in den.items():
            if k > lcm.get(f, 0):
                lcm[f] = k
    return lcm


def _missing_factors(target, have):
    """The factor multiset {f: target[f] - have[f]} of the nonzero gaps."""
    missing = {}
    for f, k in target.items():
        gap = k - have.get(f, 0)
        if gap:
            missing[f] = gap
    return missing


def _times_factors(poly, factors):
    """poly * prod (1 - (uv)^k)^m over the factors; poly itself when there
    are none, so that no product by ONE copies it."""
    return poly * _expand_factors(factors) if factors else poly


def _times_int(poly, c):
    """poly * c for an int c; poly itself when c is 1."""
    return poly if c == 1 else poly * c


def _expand_factors(factors):
    """prod (1 - (uv)^k)^m over the factor multiset {(k, k): m}: the
    product prod (1 - t^k)^m in one variable, formed packed in a box of
    one column, t^j at slot j (``packed._Packed.times_binomials``), whose
    slots hold its L1 norm 2^(sum m), and placed on the diagonal t = uv."""
    binomials = [(-1, k, 0, m) for (k, _), m in factors.items()]
    box = _Box(1, 2 ** sum(factors.values()))
    line = _Packed(box, 1, 1, (0, 0)).times_binomials(binomials).unpack()
    return LaurentPoly._raw({(j, j): c for (j, _), c in line.items()})


def _divide_factors(terms, den, order=None):
    """The term dict q with q * prod (1 - (uv)^k)^m = terms over the
    factor multiset den {(k, k): m}, or None if there is none.

    The terms are grouped once into diagonals p - q, each diagonal the
    list of its coefficients from its first term to its last, at steps
    of (1, 1).  Dividing a diagonal by 1 - t^k, t = uv, is
    q(j) = c(j) + q(j - k): k interleaved running sums, which also fill
    the points of the diagonal where terms has none.  The division is
    exact iff the top k entries of the sums are zero, and it drops them.
    Every factor divides the same diagonal lists.

    With ``order`` set (and terms inside it), each diagonal runs to the
    edge of that window, the series quotient there; nothing is checked or
    dropped.
    """
    strides = [k for (k, _), m in den.items() for _ in range(m)]
    diagonals = {}
    for (p, q), c in sorted(terms.items()):
        diagonals.setdefault(p - q, []).append((p, q, c))
    res = {}
    for line in diagonals.values():
        p0, q0, _ = line[0]
        if order is None:
            coeffs = [0] * (line[-1][0] - p0 + 1)
        else:
            coeffs = [0] * ((order - p0 - q0) // 2 + 1)
        for p, _, c in line:
            coeffs[p - p0] = c
        for k in strides:
            for r in range(k):
                coeffs[r::k] = accumulate(coeffs[r::k])
            if order is None:
                if any(coeffs[-k:]):
                    return None
                del coeffs[-k:]
        for j, c in enumerate(coeffs):
            if c:
                res[(p0 + j, q0 + j)] = c if type(c) is int else as_coeff(c)
    return res


series_expand = FactoredRational.series_expand
