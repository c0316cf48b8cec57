"""Sparse exact Laurent polynomials in two variables u, v.

Coefficients are arbitrary-precision rationals (``int`` or
``fractions.Fraction``; integral fractions are demoted to ``int``).
Exponents may be negative.  Zero coefficients are never stored, so two
polynomials are equal iff their term dicts are equal.

The monomial order used for division is graded lexicographic with
u > v, i.e. terms are compared by (p + q, p).
"""

from __future__ import annotations

import heapq
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


class LaurentPoly:
    """A polynomial sum(c * u^p * v^q) stored as {(p, q): c}."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for (p, q), c in terms.items():
                c = as_coeff(c)
                if c:
                    data[(int(p), int(q))] = c
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
        res = dict(self._terms)
        for e, c in other._terms.items():
            s = res.get(e, 0) + c
            if s:
                res[e] = as_coeff(s)
            else:
                res.pop(e, None)
        return LaurentPoly._raw(res)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_coeff(other)
            if not c:
                return ZERO
            return LaurentPoly._raw({e: as_coeff(k * c) for e, k in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if len(self._terms) > len(other._terms):
            self, other = other, self
        res = {}
        for (p1, q1), c1 in self._terms.items():
            for (p2, q2), c2 in other._terms.items():
                e = (p1 + p2, q1 + q2)
                s = res.get(e, 0) + c1 * c2
                if s:
                    res[e] = s
                else:
                    del res[e]
        return LaurentPoly._raw({e: as_coeff(c) for e, c in res.items()})

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


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
U = LaurentPoly.monomial(1, 1, 0)
V = LaurentPoly.monomial(1, 0, 1)


def uv_power(k):
    """The monomial (uv)^k."""
    return LaurentPoly.monomial(1, k, k)


def dual_substitute(p, dim):
    return p.dual_substitute(dim)


def negate_square_substitute(p):
    return p.negate_square_substitute()


def specialize_diagonal(p):
    return p.specialize_diagonal()


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
