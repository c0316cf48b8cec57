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

The leading term does not depend on the degree at all.  The evaluator
expands it once per (n, g), at the highest order requested, and every
residue class and lower order copies its terms out of that expansion.
The expansion is built inside the window: the numerator of total degree
2n^2 g (100 for rank 5 at genus 2) keeps only its terms of degree at
most the order, so the work per miss depends on the order, not on g.
With the HN types scanned in integers (``hntypes``), this took the
ss-sweep benchmark from 0.152 to 0.066 s (medians of ten alternating
pairs, seed 5; 2-core Xeon, Python 3.11).  The expansion is one packed
integer, masked to the window after every shift (``_leading_series``).

The recursion has a closed solution, a finite sum over the compositions
of n (``ss_closed_form``).  The coprime moduli polynomial is computed
from that sum, which needs no truncation, and certified by the
recursion run to the moduli dimension (``stable_coprime_polynomial``).
Over the common denominator every term of the sum is a monomial times
binomial powers, so its numerator is formed in one packed pass of
``poly._expand_binomials``, as is the unwindowed leading term
``leading_closed_term``; the windowed leading series of the recursion
are formed packed inside their window by ``_leading_series`` instead.
The packed pass took the coprime benchmark from 0.103 to 0.061 s
(medians of ten alternating pairs, seed 101; 2-core Xeon, Python 3.11).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

from .blocks import _leading_factors, _rank2_numerators, _rational
from .errors import DivisionRemainderError, DomainError, InternalCheckError
from .hntypes import _check_rank, _compositions, codim_hn, enumerate_hn_types
from .poly import ONE, U, V, LaurentPoly, _expand_binomials, _slot_width, _unpack, as_coeff, as_int
from .series import FactoredRational, TruncatedSeries, _lcm_factors, _missing_factors

# A series to order N has up to (N+1)(N+2)/2 terms, 5151 at this cap.
# Rank 8 at order 100 takes about 2 s on a 2-core Xeon with Python 3.11.
MAX_ORDER = 100

# Cap on the moduli dimension n^2(g-1) + 1 of ``ss_closed_form``.  Each
# power of the sum is one shift and add over the whole packed numerator,
# so at a fixed rank the cost grows about as g^4: rank 2 takes 0.03 s at
# genus 32, 0.5 s at genus 64 (dim 253) and 10 s at genus 128.  The cap
# keeps rank 2 up to genus 64 and rank 8 up to genus 4 (dim 193), the
# slowest call it allows at about 1.5 s on a 2-core Xeon with Python 3.11.
MAX_CLOSED_FORM_DIM = 256


def leading_closed_term(n, g):
    """prod_{l=1..n} (1+u^l v^(l-1))^g (1+u^(l-1) v^l)^g over
    (1-u^n v^n) prod_{l<n} (1-u^l v^l)^2."""
    num = _expand_binomials([(1, (0, 0), _leading_factors(n, g))])
    return FactoredRational(LaurentPoly._raw(num), _leading_den(n))


def _leading_den(n):
    """The denominator of ``leading_closed_term(n, g)`` as a factor multiset."""
    den = {(l, l): 2 for l in range(1, n)}
    den[(n, n)] = 1
    return den


def _leading_series(n, g, order):
    """``leading_closed_term(n, g).series_expand(order)``, formed packed
    inside the window of its order.

    The series is packed as in ``poly._mul_dense``, from the origin, in
    order + 1 rows of cols = order + 1 + max(n, order // 2 + 1) slots,
    and every step keeps only the window, the slots with p + q <= order,
    by a mask.  Each factor (1 + u^a v^b)^g of ``blocks._leading_factors``
    is applied as its binomial row cut at j (a + b) <= order: x is
    multiplied by sum C(g, j) (u^a v^b)^j, each power of u^a v^b one
    shift by a cols + b slots and a mask, so the work does not grow with
    g.  Each stride m of ``_leading_den`` is then divided out as in
    ``packed._Packed.divide_diagonal``, by the running sums along the
    diagonals, which hold at most reach = order // 2 + 1 points of the
    window: x = (x + x (uv)^s) masked, s = m, 2m, 4m, ... below reach.
    A shift moves a slot of the window at most max(n, reach - 1) columns
    on, so no slot crosses into the next row.

    Every value is non-negative, the numerator's coefficients at most the
    product B_0 over the factors of the sums of their cut rows, and each
    division multiplies the largest by at most reach.  So no slot ever
    holds more than B = B_0 reach^(number of strides), and slots that
    hold B and a sign bit never carry into each other.  One ``_unpack``
    reads the window.
    """
    reach = order // 2 + 1
    cols = order + 1 + max(n, reach)
    strides = [m for (m, _), k in _leading_den(n).items() for _ in range(k)]
    bound = reach ** len(strides)
    rows = []
    for _, a, b, k in _leading_factors(n, g):
        row = [math.comb(k, j) for j in range(1, min(k, order // (a + b)) + 1)]
        bound *= 1 + sum(row)
        rows.append((a * cols + b, row))
    width = _slot_width(bound)
    bits = 8 * width
    window = int.from_bytes(
        b"".join(b"\xff" * (width * (order + 1 - p)) + bytes(width * (cols - order - 1 + p)) for p in range(order + 1)),
        "little",
    )
    x = 1
    for shift, row in rows:
        power = x
        for c in row:
            power = (power << bits * shift) & window
            x += c * power
    step = bits * (cols + 1)
    for m in strides:
        span = m
        while span < reach:
            x = (x + (x << span * step)) & window
            span *= 2
    return TruncatedSeries._raw(_unpack(x, (0, 0), order + 1, cols, width, order), order)


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
        self._leading = {}  # (n, g) -> highest-order leading series computed
        self.hits = 0
        self.misses = 0
        self.types_used = 0

    def series(self, n, d, g, order):
        _check_rank(n)
        if g < 2:
            raise DomainError("genus out of supported range")
        if order < 0:
            raise DomainError("series order must be non-negative")
        if order > MAX_ORDER:
            raise DomainError("series order %d is above the cap of %d" % (order, MAX_ORDER))
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
            # the hit paths above only compare, so that a repeat costs no
            # more; a miss first checks that its arguments are integers
            _check_ints(n, d, g, order)
            self.misses += 1
            # a fresh copy of the leading series, so this call owns its
            # terms and subtracts every shifted product into them; the
            # memoized leading series, products and factor series are
            # only read
            terms = self._leading_terms(n, g, order)
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

    def _leading_terms(self, n, g, order):
        """A fresh term dict of the leading term's series to ``order``.

        The series does not depend on the degree, so one is kept per
        (n, g), at the highest order requested, and lower orders are
        copied out of it.
        """
        top = self._leading.get((n, g))
        if top is None or top.order < order:
            top = _leading_series(n, g, order)
            self._leading[(n, g)] = top
        return {e: c for e, c in top.items() if e[0] + e[1] <= order}

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
    as_int(g, "genus")
    if g < 2:
        raise DomainError("genus out of supported range")
    return _rational(_ss_rank2_numerator(_rank2_numerators(g)), SS_RANK2_DEN)


# (1-uv)^2 (1-u^2 v^2), the denominator of ``hp_ss_rank2_closed_form``
SS_RANK2_DEN = {(1, 1): 2, (2, 2): 1}


def _ss_rank2_numerator(num):
    """The packed numerator of ``hp_ss_rank2_closed_form`` from a
    ``blocks._Rank2Numerators`` record."""
    return num.jac_twisted - num.square.uv(num.g + 1)


def ss_closed_form(n, d, g):
    """The semistable series of rank n and degree d as a finite sum.

    The HN recursion has a closed solution (Zagier 1995, "Elementary
    aspects of the Verlinde formula and of the Harder-Narasimhan-Atiyah-
    Bott formula"; Laumon-Rapoport 1996): over the compositions
    (n_1, ..., n_k) of n, with L(m) = leading_closed_term(m, g),

        sum (-1)^(k-1) (uv)^e prod_i L(n_i) / prod_{i<k} (1 - (uv)^(n_i + n_(i+1))),

        e = (g-1) sum_{i<j} n_i n_j + sum_{i<k} (n_i + n_(i+1)) <(n_1 + ... + n_i) d / n>,

    where <x> = 1 + floor(x) - x.  The exponent e is an integer for every
    composition; that is checked, not assumed.

    The sum is returned over the least common denominator of its terms.
    There, the numerator of each term is a monomial (uv)^e with its sign
    times binomial powers: the ``blocks._leading_factors`` of each part
    and the factors (1 - (uv)^k)^m that its own denominator lacks.  So
    the whole numerator is one ``poly._expand_binomials`` call, one part
    per composition.  The rank is capped at ``hntypes.MAX_RANK``, since
    the sum has 2^(n-1) terms, and the moduli dimension n^2(g-1) + 1 at
    ``MAX_CLOSED_FORM_DIM``.
    """
    _check_ints(n, d, g)
    _check_rank(n)
    if g < 2:
        raise DomainError("genus out of supported range")
    dim = moduli_dimension(n, g)
    if dim > MAX_CLOSED_FORM_DIM:
        raise DomainError(
            "moduli dimension %d is above the closed-form cap of %d" % (dim, MAX_CLOSED_FORM_DIM)
        )
    terms = []
    for ranks in _compositions(n):
        e = _closed_form_exponent(ranks, d, g)
        if e.denominator != 1:
            raise InternalCheckError("closed-form exponent %s is not an integer for %r" % (e, ranks))
        den = Counter()
        for m in ranks:
            den.update(_leading_den(m))
        den.update((a + b, a + b) for a, b in zip(ranks, ranks[1:]))
        factors = [f for m in ranks for f in _leading_factors(m, g)]
        terms.append(((-1) ** (len(ranks) - 1), (int(e), int(e)), factors, den))
    common = _lcm_factors([den for *_, den in terms])
    parts = [
        (sign, offset, factors + [(-1, a, b, k) for (a, b), k in _missing_factors(common, den).items()])
        for sign, offset, factors, den in terms
    ]
    return FactoredRational(LaurentPoly._raw(_expand_binomials(parts)), common)


def _closed_form_exponent(ranks, d, g):
    """The exponent e of ``ss_closed_form`` for one composition, as a Fraction."""
    n = sum(ranks)
    e = Fraction((g - 1) * sum(a * b for a, b in combinations(ranks, 2)))
    head = 0
    for a, b in zip(ranks, ranks[1:]):
        head += a
        x = Fraction(head * d, n)
        e += (a + b) * (1 + math.floor(x) - x)
    return e


def _check_ints(n, d, g, order=0):
    """Raise DomainError unless the rank, degree, genus and order are integers."""
    for x, name in ((n, "rank"), (d, "degree"), (g, "genus"), (order, "series order")):
        as_int(x, name)


def moduli_dimension(n, g):
    """Complex dimension of the moduli space of rank-n bundles: n^2(g-1) + 1."""
    as_int(n, "rank")
    as_int(g, "genus")
    return n * n * (g - 1) + 1


def stable_coprime_polynomial(n, d, g, evaluator=None):
    """HP of the moduli space for coprime rank and degree, where the
    semistable and stable loci agree: (1-uv) times ``ss_closed_form``,
    divided out to a polynomial.

    The result is certified whole before it is returned: the division is
    exact, and ``_certify_coprime`` checks the rest against the HN
    recursion, run to order dim by ``evaluator`` (a fresh one if none is
    passed).  The moduli dimension dim is capped at ``MAX_ORDER``, the
    recursion's order, and the rank as in ``ss_closed_form``.
    """
    _check_ints(n, d, g)
    if math.gcd(n, d) != 1:
        raise DomainError("semistable != stable; use rank-2 pipeline or report series only")
    dim = moduli_dimension(n, g)
    if dim > MAX_ORDER:
        raise DomainError("moduli dimension %d is above the series order cap of %d" % (dim, MAX_ORDER))
    closed = ss_closed_form(n, d, g)
    den = dict(closed.den)
    den[(1, 1)] -= 1  # (1-uv) times the sum
    try:
        poly = FactoredRational(closed.num, den, closed.scalar).as_polynomial()
    except DivisionRemainderError as err:
        raise InternalCheckError("closed form is not a polynomial; remainder %s" % err.remainder) from err
    _certify_coprime(poly, n, d, g, evaluator)
    return poly


def _certify_coprime(poly, n, d, g, evaluator=None):
    """Raise InternalCheckError unless poly has integer coefficients, is
    Poincare dual at the moduli dimension dim, and agrees term by term up
    to total degree dim with (1-uv) times the recursion's series to order
    dim.  Duality maps the terms of degree < dim onto those of degree
    > dim, so the recursion fixes every term.
    """
    dim = moduli_dimension(n, g)
    if not poly.is_integral():
        raise InternalCheckError("coprime polynomial has non-integer coefficients")
    if poly.dual_substitute(dim) != poly:
        raise InternalCheckError("coprime polynomial fails Poincare duality at dimension %d" % dim)
    lower = hp_ss_series(n, d, g, dim, evaluator).mul_poly(ONE - U * V)
    if {e: c for e, c in poly.items() if e[0] + e[1] <= dim} != dict(lower.items()):
        raise InternalCheckError("coprime polynomial disagrees with the HN recursion to order %d" % dim)
