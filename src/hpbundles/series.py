"""Factored rational functions and truncated power series expansion.

Every rational function handled here has denominator a product of
binomials (1 - u^a v^b)^k with a, b >= 1, which keeps all factors
invertible as power series and makes equality decidable by
cross-multiplication, with no rational-function normal form needed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .poly import ONE, LaurentPoly, as_coeff, exact_divide


class TruncatedSeries:
    """A power series known exactly for all terms of total degree <= order.

    Exponents are non-negative.  Arithmetic between series of different
    orders is correct only up to the smaller order, and the result carries
    that smaller order.
    """

    __slots__ = ("order", "_terms")

    def __init__(self, terms, order):
        if order < 0:
            raise DomainError("series order must be non-negative")
        self.order = order
        data = {}
        if terms:
            for (p, q), c in terms.items():
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
        if order > self.order:
            raise DomainError("cannot extend a truncated series")
        return TruncatedSeries._raw(
            {e: c for e, c in self._terms.items() if e[0] + e[1] <= order}, order
        )

    def shift(self, k):
        """Multiply by (uv)^k; the certified order grows by 2k."""
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
        order = min(self.order, other.order)
        res = {e: c for e, c in self._terms.items() if e[0] + e[1] <= order}
        for e, c in other._terms.items():
            if e[0] + e[1] > order:
                continue
            s = res.get(e, 0) + c
            if s:
                res[e] = as_coeff(s)
            else:
                res.pop(e, None)
        return TruncatedSeries._raw(res, order)

    def __neg__(self):
        return TruncatedSeries._raw({e: -c for e, c in self._terms.items()}, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_coeff(other)
            if not c:
                return TruncatedSeries._raw({}, self.order)
            return TruncatedSeries._raw(
                {e: as_coeff(k * c) for e, k in self._terms.items()}, self.order
            )
        order = min(self.order, other.order)
        res = {}
        for (p1, q1), c1 in self._terms.items():
            if p1 + q1 > order:
                continue
            for (p2, q2), c2 in other._terms.items():
                p, q = p1 + p2, q1 + q2
                if p + q > order:
                    continue
                e = (p, q)
                s = res.get(e, 0) + c1 * c2
                if s:
                    res[e] = s
                else:
                    del res[e]
        return TruncatedSeries._raw({e: as_coeff(c) for e, c in res.items()}, order)

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
        from .poly import LaurentPoly as _LP

        return "%s + O(deg %d)" % (_LP(dict(self._terms)), self.order + 1)

    def __repr__(self):
        return "TruncatedSeries(%s)" % str(self)


class FactoredRational:
    """scalar * num / prod (1 - u^a v^b)^k, with exact rational scalar.

    The denominator is stored as the factor multiset {(a, b): k}.  No
    cancellation with the numerator is attempted; equality is decided by
    cross-multiplying numerators over the common factors.
    """

    __slots__ = ("num", "den", "scalar")

    def __init__(self, num, den=None, scalar=1):
        if isinstance(num, (int, Fraction)):
            num = LaurentPoly.const(num)
        self.num = num
        factors = {}
        for (a, b), k in (den or {}).items():
            if k == 0:
                continue
            if a < 1 or b < 1 or k < 0:
                raise DomainError("denominator factors must be (1 - u^a v^b)^k with a, b, k >= 1")
            factors[(int(a), int(b))] = factors.get((int(a), int(b)), 0) + int(k)
        self.den = factors
        self.scalar = Fraction(scalar)

    # -- basic structure -----------------------------------------------

    def scaled_num(self):
        return self.num * self.scalar

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
        for (a, b), k in sorted(self.den.items()):
            base = "(1-%s)" % _uv_monomial_text(a, b)
            parts.append(base if k == 1 else "%s^%d" % (base, k))
        return "%s / (%s)" % (num, "*".join(parts))

    def __repr__(self):
        return "FactoredRational(%s)" % str(self)

    # -- arithmetic ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FactoredRational(self.num, self.den, self.scalar * Fraction(other))
        if isinstance(other, LaurentPoly):
            return FactoredRational(self.num * other, self.den, self.scalar)
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
        den = {}
        for f in set(self.den) | set(other.den):
            den[f] = max(self.den.get(f, 0), other.den.get(f, 0))
        lhs = self.scaled_num() * _factor_product(den, self.den)
        rhs = other.scaled_num() * _factor_product(den, other.den)
        return FactoredRational(lhs + rhs, den)

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
        """lhs - rhs after clearing denominators; zero iff equal."""
        if not isinstance(other, FactoredRational):
            raise TypeError("can only compare FactoredRational with FactoredRational")
        only_self = {}
        only_other = {}
        for f in set(self.den) | set(other.den):
            k1 = self.den.get(f, 0)
            k2 = other.den.get(f, 0)
            common = min(k1, k2)
            if k1 > common:
                only_self[f] = k1 - common
            if k2 > common:
                only_other[f] = k2 - common
        return self.scaled_num() * _expand_factors(only_other) - other.scaled_num() * _expand_factors(only_self)

    # -- expansion ---------------------------------------------------------

    def series_expand(self, order):
        """Expand to a TruncatedSeries of the given order.

        Each denominator factor is inverted by its geometric series; the
        numerator must have non-negative exponents.
        """
        if order < 0:
            raise DomainError("series order must be non-negative")
        if self.num.has_negative_exponents():
            raise DomainError("Laurent part not expandable")
        result = TruncatedSeries.from_poly(self.num, order)
        for (a, b), k in sorted(self.den.items()):
            result = result * _geometric_series(a, b, k, order)
        if self.scalar != 1:
            result = result * self.scalar
        return result

    def as_polynomial(self):
        """Certify the value is an honest polynomial, via exact division.

        Raises DivisionRemainderError when the denominator does not divide
        the numerator.
        """
        return exact_divide(self.scaled_num(), _expand_factors(self.den))


def _uv_monomial_text(a, b):
    parts = []
    parts.append("u" if a == 1 else "u^%d" % a)
    parts.append("v" if b == 1 else "v^%d" % b)
    return "*".join(parts)


def _factor_product(target, have):
    """prod (1-u^a v^b)^(target[f]-have[f]) as a LaurentPoly."""
    missing = {}
    for f, k in target.items():
        gap = k - have.get(f, 0)
        if gap:
            missing[f] = gap
    return _expand_factors(missing)


def _expand_factors(factors):
    prod = ONE
    for (a, b), k in sorted(factors.items()):
        prod = prod * (ONE - LaurentPoly.monomial(1, a, b)) ** k
    return prod


def _geometric_series(a, b, k, order):
    """(1 - u^a v^b)^(-k) truncated at total degree <= order."""
    terms = {}
    j = 0
    while j * (a + b) <= order:
        terms[(a * j, b * j)] = math.comb(j + k - 1, k - 1)
        j += 1
    return TruncatedSeries._raw(terms, order)


def series_expand(f, order):
    return f.series_expand(order)
