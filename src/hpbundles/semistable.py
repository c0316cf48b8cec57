"""Equivariant Hodge-Poincare series of the semistable locus.

The series for rank n is a closed leading term minus one correction per
filtration type, each correction a product of lower-rank series shifted
by (uv)^c, c the type's codimension.  Truncation by total degree makes
the type sum finite.  The shift raises total degree by 2c, so a type
with 2c > order contributes nothing and is skipped, and the factors of
a live type are needed only to order - 2c.

The series depends on the degree only through its residue mod the rank.
The memo keeps the highest-order series computed for each residue class
and serves a lower-order request by truncating it; each product of
factors is memoized too, keyed on the multiset of factor classes and
its order.
"""

from __future__ import annotations

import math

from .blocks import _rank2_numerators
from .errors import DomainError, InternalCheckError
from .hntypes import codim_hn, enumerate_hn_types
from .poly import ONE, U, V, LaurentPoly, as_coeff, uv_power
from .series import FactoredRational, TruncatedSeries


def leading_closed_term(n, g):
    """prod_{l=1..n} (1+u^l v^(l-1))^g (1+u^(l-1) v^l)^g over
    (1-u^n v^n) prod_{l<n} (1-u^l v^l)^2."""
    num = ONE
    for l in range(1, n + 1):
        num = num * (ONE + LaurentPoly.monomial(1, l, l - 1)) ** g
        num = num * (ONE + LaurentPoly.monomial(1, l - 1, l)) ** g
    den = {(l, l): 2 for l in range(1, n)}
    den[(n, n)] = den.get((n, n), 0) + 1
    return FactoredRational(num, den)


class SemistableSeries:
    """Memoized evaluator for the semistable-locus series.

    A fresh instance has an empty cache.  ``hits`` counts requests served
    from the memo (an exact repeat, or a truncation of a higher-order
    series of the same residue class), ``misses`` the series computed,
    and ``types_used`` the live filtration types consumed.
    """

    def __init__(self):
        self._cache = {}  # (n, d mod n, g, order) -> series
        self._top = {}  # (n, d mod n, g) -> highest-order series computed
        self._products = {}  # (sorted factor classes, g, order) -> product
        self.hits = 0
        self.misses = 0
        self.types_used = 0

    def series(self, n, d, g, order):
        if n < 1:
            raise DomainError("rank must be at least 1")
        if g < 2:
            raise DomainError("genus out of supported range")
        if order < 0:
            raise DomainError("series order must be non-negative")
        key = (n, d % n, g, order)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        top = self._top.get(key[:3])
        if top is not None and top.order > order:
            self.hits += 1
            result = top.truncate(order)
        else:
            self.misses += 1
            # a fresh series, so this call owns its terms and subtracts
            # every shifted product into them; the memoized products and
            # factor series are only read
            terms = leading_closed_term(n, g).series_expand(order)._terms
            for t in enumerate_hn_types(n, d, g, order):
                c = codim_hn(t, g)
                if 2 * c > order:
                    continue
                self.types_used += 1
                # the product has order order - 2c, so its shift by
                # (uv)^c stays inside the window
                for (p, q), k in self._product(t.quotients, g, order - 2 * c).items():
                    e = (p + c, q + c)
                    s = terms.get(e, 0) - k
                    if s:
                        terms[e] = s if type(s) is int else as_coeff(s)
                    else:
                        terms.pop(e, None)
            result = TruncatedSeries._raw(terms, order)
            self._top[key[:3]] = result
        self._cache[key] = result
        return result

    def _product(self, quotients, g, order):
        """Product of the factor series of a type's quotients, to ``order``.

        Factors are multiplied in sorted class order, so types with the
        same multiset of classes share one product.
        """
        classes = tuple(sorted((nj, dj % nj) for nj, dj in quotients))
        key = (classes, g, order)
        prod = self._products.get(key)
        if prod is None:
            for nj, rj in classes:
                factor = self.series(nj, rj, g, order)
                prod = factor if prod is None else prod * factor
            self._products[key] = prod
        return prod


def hp_ss_series(n, d, g, order, evaluator=None):
    """Truncated semistable-locus series; a fresh cache unless one is passed."""
    if evaluator is None:
        evaluator = SemistableSeries()
    return evaluator.series(n, d, g, order)


def hp_ss_rank2_closed_form(g):
    """The exact rank-2 value (any even degree):

        [ (1+u)^g (1+v)^g (1+u^2 v)^g (1+u v^2)^g
          - (uv)^(g+1) (1+u)^2g (1+v)^2g ] / ((1-u^2 v^2)(1-uv)^2).
    """
    if g < 2:
        raise DomainError("genus out of supported range")
    return _ss_rank2_closed_form(_rank2_numerators(g))


def _ss_rank2_closed_form(num):
    """``hp_ss_rank2_closed_form`` from a ``blocks._Rank2Numerators`` record."""
    numerator = num.jac_twisted - uv_power(num.g + 1) * num.square
    return FactoredRational(numerator, {(1, 1): 2, (2, 2): 1})


def stable_coprime_polynomial(n, d, g, evaluator=None):
    """HP of the moduli space for coprime rank and degree, where the
    semistable and stable loci agree.

    Computes (1-uv) times the semistable series far enough past twice the
    moduli dimension to certify, within the truncation window, that the
    result is a polynomial; returns that polynomial.
    """
    if g < 2:
        raise DomainError("genus out of supported range")
    if math.gcd(n, d) != 1:
        raise DomainError("semistable != stable; use rank-2 pipeline or report series only")
    dim = n * n * (g - 1) + 1
    order = 2 * dim + 2
    series = hp_ss_series(n, d, g, order, evaluator)
    quot = series.mul_poly(ONE - U * V)
    tail = [(e, c) for e, c in quot.items() if e[0] + e[1] > 2 * dim]
    if tail:
        raise InternalCheckError(
            "series does not terminate at twice the moduli dimension: %r" % (sorted(tail)[:4],)
        )
    return quot.as_poly()
