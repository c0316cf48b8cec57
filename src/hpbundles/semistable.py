"""Equivariant Hodge-Poincare series of the semistable locus.

The series for rank n is a closed leading term minus one correction per
filtration type, each correction a product of lower-rank series shifted
by (uv)^c, c the type's codimension.  Truncation by total degree makes
the type sum finite.  The shift raises total degree by 2c, so a type
with 2c > order contributes nothing and is skipped, and the factors of
a live type are needed only to order - 2c.

The series depends on the degree only through its residue mod the rank.
The memo keeps the highest-order series computed for each residue class
and serves a lower-order request by truncating it.  Each product of
factors is held too, keyed on the multiset of factor classes and the
genus, not the order: the product at the highest window formed serves
every lower window, and a request above it forms the product once at
the new window.  The HN types arrive sorted by codimension, so the first
dead one ends the loop.  The type list of each residue class is held
too, with the codimension cap it was enumerated at, and serves every
later miss of the class up to twice that cap (``SemistableSeries``).

The leading term does not depend on the degree at all.  The evaluator
expands it once per (n, g), at the highest order requested, and every
residue class and lower order reads it there.  The expansion is built
inside the window: the numerator of total degree 2n^2 g (100 for rank 5
at genus 2) keeps only its terms of degree at most the order, so the
work per miss depends on the order, not on g.  With the HN types
scanned in integers (``hntypes``), this took the ss-sweep benchmark
from 0.152 to 0.066 s (medians of ten alternating pairs, seed 5; 2-core
Xeon, Python 3.11).  The expansion is a band value held to the window,
each factor applied as its binomial row cut there (``_leading_series``).

A miss stays packed: the leading series and the products of factor
series, each formed to its window by band products
(``packed._BandValue.times``), are held as band values, and the series
is the leading series less one shifted product per live type, all in
one band, then read once (``SemistableSeries``).  This module holds the
mathematics, bounds, bands and windows; the slot format and every
operation on it live in ``packed``.

The recursion has a closed solution, a finite sum over the compositions
of n (``ss_closed_form``).  Over the common denominator every term of
the sum is a monomial times binomial powers (``_closed_form_parts``),
so its numerator N is one packed value, formed part by part in the band
of width n g by ``_closed_form_numerator``, which both ``ss_closed_form``
and the coprime certificate call; the unwindowed leading term
``leading_closed_term`` is its one-part case, and the windowed leading
series of the recursion are formed inside their window by
``_leading_series`` instead.  In the band, forming and unpacking N took
0.13 s at (n, d, g) = (8, 1, 4) against 0.59 s in the box of its
support, but 1.0 s at (1, 0, 256) against 0.32 s, where the support
fills that box (best of five; 2-core Xeon, Python 3.11).

The coprime moduli polynomial P is taken from the recursion run to the
moduli dimension dim, its upper half by Poincare duality, and certified
by the closed sum: times the sum's denominator less one factor (1-uv),
D, it must be the sum's numerator N, so nothing is divided and N is
never unpacked (``stable_coprime_polynomial``, ``_check_coprime``).  The
recursion's series S, N and every partial product of both lie in the
diagonal band of width n g of the recursion, so all of it is done there
on one packed integer per value: S is packed once as a truncated series
(``packed._BandValue``), (1-uv) S is one shift and subtraction, and its
windows p + q <= dim and dim - 1, two masks, are exact polynomials
(``packed._Packed`` in the band), as are P, N and their parts.  The
mirror of the second window is one slot reversal, the band's slot map
being linear; duality is that reversal of P compared with P as
integers, P D one shift and subtraction per stride, and N is formed in
the same band (``_closed_form_numerator``).  Soundness: every value
stays in the band, where the slot map is one-to-one, and the slots hold
the larger of N's coefficient bound (``_closed_form_bound``) and P's
times the largest L1 norm of a partial product of D, so no slot carries
into the next and equal integers are equal polynomials.  The value returned
is the certified one, read once.  Packed in one box instead, with the
polynomial mirrored and checked for duality in dicts, the certificate
took the coprime benchmark from 0.0432 to 0.0311 s; in the band it took
it from 0.0255 to 0.0221 s (medians of ten alternating pairs, seed 13;
2-core Xeon, Python 3.11).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache

from .blocks import _leading_factors, _rank2_numerators, _rational
from .errors import DomainError, InternalCheckError
from .hntypes import _check_rank, _compositions, codim_hn, enumerate_hn_types
from .packed import _Band, _BandValue, _Packed, _partition_counts
from .poly import LaurentPoly, as_int
from .series import FactoredRational, TruncatedSeries, _expand_factors, _lcm_factors, _missing_factors

# A series to order N has up to (N+1)(N+2)/2 terms, 5151 at this cap.
# Rank 8 at order 100 takes about 0.4 s on a 2-core Xeon with Python 3.11.
MAX_ORDER = 100

# Cap on the moduli dimension n^2(g-1) + 1 of ``ss_closed_form``.  Each
# power of the sum is one shift and add over the whole packed numerator,
# so at a fixed rank the cost grows about as g^4: as the first call of a
# process, rank 2 takes 0.03 s at genus 32, 0.8 s at genus 64 (dim 253)
# and 9 s at genus 128.  The cap keeps rank 8 up to genus 4 (dim 193,
# 0.23 s), rank 2 up to genus 64 and rank 1 up to genus 256, the slowest
# call it allows at 3.2-3.5 s (1.0-1.3 s repeated in one process), on a
# 2-core Xeon with Python 3.11.
MAX_CLOSED_FORM_DIM = 256


def leading_closed_term(n, g):
    """prod_{l=1..n} (1+u^l v^(l-1))^g (1+u^(l-1) v^l)^g over
    (1-u^n v^n) prod_{l<n} (1-u^l v^l)^2: the numerator is the one-part
    ``_closed_form_numerator``, in the band of width n g whose slots hold
    its L1 norm 4^(n g)."""
    num = _closed_form_numerator(((1, (0, 0), _leading_factors(n, g)),), g, _Band(n * g, 4 ** (n * g)))
    return FactoredRational(LaurentPoly._raw(num.unpack()), _leading_den(n))


def _leading_den(n):
    """The denominator of ``leading_closed_term(n, g)`` as a factor multiset."""
    den = {(l, l): 2 for l in range(1, n)}
    den[(n, n)] = 1
    return den


@cache
def _leading_division(n):
    """The strides m of ``_leading_den(n)``, one per factor 1 - (uv)^m, and
    the coefficients of prod 1 / (1 - (uv)^m) over them up to the reach
    MAX_ORDER // 2 + 1 of the longest diagonal of a window
    (``packed._partition_counts``).  Neither depends on the genus or the
    order, so both are formed once per rank, as ``_closed_form_shape``
    is."""
    strides = tuple(m for (m, _), k in _leading_den(n).items() for _ in range(k))
    return strides, tuple(_partition_counts(strides, MAX_ORDER // 2 + 1))


def _leading_series(n, g, order):
    """``leading_closed_term(n, g).series_expand(order)``, formed packed
    inside the window of its order and held so (``packed._BandValue``).

    The series lies in the diagonal band of width D = min(n g, order + 1)
    (``packed._Band``).  Each factor (1 + u^a v^b)^g of
    ``blocks._leading_factors`` moves p - q by one per power, n of them up
    and n down, so every partial product lies in the band of width n g;
    and every window point has |p - q| <= order, so a shift by u^a v^b
    leaves it within order + 1 of the diagonal.  Each factor is applied as
    its binomial row cut at j (a + b) <= order, sum C(g, j) (u^a v^b)^j,
    which has the same window, so the work does not grow with g
    (``packed._BandValue.times_rows``).  Each stride m of ``_leading_den``
    is then divided out as a series, by the running sums along the
    diagonals, which hold at most reach = order // 2 + 1 points of the
    window (``packed._BandValue.over_diagonal``).  The constant 1 they
    start from is the integer 1 in every layout.

    Every value is non-negative, and the numerator's L1 norm is at most
    the product B_0 over the factors of the sums of their cut rows.  A
    coefficient of the series is a sum, over the points of its diagonal
    below it, of a numerator coefficient times a coefficient of
    prod 1 / (1 - (uv)^m), shifted by fewer than reach points; those are
    counts of partitions, non-negative (``_leading_division``).  So it is
    at most B = B_0 P, P the largest of the first reach of them, and
    every partial product and partial running sum, which multiplies by a
    series no larger, coefficient by coefficient, is too: B bounds every
    value formed, sizes the band's slots and is held as the bound.
    """
    reach = order // 2 + 1
    strides, counts = _leading_division(n)
    if reach > len(counts):
        raise InternalCheckError("series order %d is above the cap of %d" % (order, MAX_ORDER))
    rows = [
        (a, b, [math.comb(k, j) for j in range(1, min(k, order // (a + b)) + 1)]) for _, a, b, k in _leading_factors(n, g)
    ]
    bound = max(counts[:reach]) * math.prod(1 + sum(row) for _, _, row in rows)
    one = _BandValue(_Band(min(n * g, order + 1), bound), 1, order, 1)
    return one.times_rows(rows, bound).over_diagonal(strides, bound)


class SemistableSeries:
    """Memoized evaluator for the semistable-locus series.

    A fresh instance has an empty cache.  ``hits`` counts requests served
    from the memo (an exact repeat, or a truncation of a higher-order
    series of the same residue class), ``misses`` the series computed,
    and ``types_used`` the live filtration types consumed.

    A miss is formed packed in the band of its leading series and read
    once.  The evaluator holds, as ``packed._BandValue``, the leading
    series of each (n, g) at the highest order formed and the product of
    each multiset of factor classes at the highest window formed.  The
    miss subtracts each product, shifted by (uv)^c, once per live type
    from the leading series (``packed._BandValue.subtract``, in slots
    sized for the sum B of the bounds of the leading series and of the
    product of every live type): the leading series less the shifted
    products is the series, and each partial difference has every
    coefficient at most B.

    One band serves every miss with a live type.  The series and
    products of rank m lie in the band of width m g, by induction on m:
    the leading series does (``_leading_series``, which packs it in the
    band min(m g, order + 1)), a product of factors of ranks m_j lies in
    the band sum m_j g = m g, and a shift by (uv)^c keeps p - q.  A live
    type of rank n has codimension c at least (g-1)(n-1) + 1 with
    2c <= order, so order + 1 >= 2(g-1)(n-1) + 3, which is above n g
    since (g-2)(n-2) + 1 > 0.  The leading series is then packed in the
    band n g too, and only the slot widths differ.  A miss with no live
    type reads the held leading series at its own order.

    Bounds.  A product is formed from the factor series to its window, one
    factor at a time (``packed._BandValue.times``).  By Young's inequality
    the sup norm of a product is at most that of one factor times the L1
    norms of the others, and the window of a product depends only on the
    windows of its factors.  So every coefficient of every partial
    product, in the window or above it, is at most the product B_t of the
    factor norms (a nonzero integer series has norm at least 1).  B_t
    bounds the L1 norm of the product's window too.  The leading series
    has its own bound (``_leading_series``).  A bound holds at every lower
    window, so a held value is read at any window below its own.  The
    miss's bound, the sum of the bounds, is at least each held value's,
    so slot widths only widen.

    Windows.  A factor of rank m lies in the band m g and every partial
    product in the band n g, so every term of every value formed stays in
    the band, as ``packed._BandValue`` requires.  A held product is read
    cut at the window of its first live type, the largest.  Its terms
    above the window order - 2c of a later type, shifted by (uv)^c, have
    total degree above order, outside the miss's window.

    Held type lists.  A miss enumerates the HN types to codimension
    ``order`` but uses only the live ones, c <= order // 2.  So the
    evaluator holds, per class (n, d mod n, g), the list of its last
    enumeration and the cap it was made at, and a later miss of the class
    at an order at most twice that cap reads its live types from the list;
    any other miss enumerates at its own order and replaces the list
    (``_hn_types``).  The list may have been enumerated for another degree
    d' = d + k n of the class.  Twisting by a line bundle of degree k
    sends each quotient (r_i, d_i) to (r_i, d_i + k r_i): that maps the
    types of (n, d) one to one onto those of (n, d + k n), keeps every
    codimension (each pairwise term n_i d_j - n_j d_i gains
    k (n_i n_j - n_j n_i) = 0), and keeps the sort order, codimension and
    then quotient tuple (quotients of equal rank gain the same k r_i).
    From a type the miss reads only ``codim_hn`` and the classes
    (n_j, d_j mod n_j) that ``_product`` keys on, and twisting changes
    neither, so the series and every counter are those a fresh
    enumeration gives.  Misses of one class come at rising orders, so with
    orders 8, 16, 24 and 32 it enumerates at 8 and 24 only.  A held list
    has at most 4316 types within the caps (rank 7, degree 6, genus 2,
    order 100; ``hntypes``); the lists about double what an evaluator
    retains, 8.3 against 4.2 MiB after ``series(8, 1, 2, 100)`` (tracemalloc).
    """

    def __init__(self):
        self._cache = {}  # (n, d mod n, g, order) -> series
        self._top = {}  # (n, d mod n, g) -> highest-order series computed
        self._products = {}  # (sorted factor classes, g) -> product held at the highest window formed
        self._leading = {}  # (n, g) -> leading series held at the highest order formed
        self._types = {}  # (n, d mod n, g) -> (cap, HN types to codimension cap) of the last enumeration
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
            result = TruncatedSeries._raw(self._miss(n, d, g, order), order)
            self._top[key[:3]] = result
        self._cache[key] = result
        return result

    def _miss(self, n, d, g, order):
        """The term dict of the series to ``order``, formed packed as the
        class docstring describes; the held values are only read."""
        leading = self._leading_value(n, g, order)
        live = []  # (c, held product) per live type
        for t in self._hn_types(n, d, g, order):
            c = codim_hn(t, g)
            if 2 * c > order:
                # the types come sorted by codimension, so every later one
                # is dead too
                break
            self.types_used += 1
            live.append((c, self._product(t.quotients, g, order - 2 * c)))
        return (leading.subtract(live, order) if live else leading).read(order)

    def _hn_types(self, n, d, g, order):
        """The HN types of the class of (n, d) to codimension order // 2 or
        higher, sorted: the held list when its cap is at least
        order // 2, else a new enumeration to codimension ``order``, which
        is held in its place (the class docstring gives the twist
        argument for reading a list enumerated at another degree)."""
        key = (n, d % n, g)
        held = self._types.get(key)
        if held is None or order > 2 * held[0]:
            held = self._types[key] = (order, enumerate_hn_types(n, d, g, order))
        return held[1]

    def _leading_value(self, n, g, order):
        """The held leading series of (n, g), to ``order`` or higher.

        The series does not depend on the degree, so one is held per
        (n, g), at the highest order requested, and serves every residue
        class and lower order.
        """
        held = self._leading.get((n, g))
        if held is None or held.order < order:
            held = self._leading[(n, g)] = _leading_series(n, g, order)
        return held

    def _product(self, quotients, g, window):
        """The held product of the factor series of a type's quotients, to
        ``window`` or higher.

        Factors are multiplied in sorted class order, so types with the
        same multiset of classes share one product.  The highest window
        formed for each multiset is held, and serves every lower window;
        a request above it forms the product anew, from the factor series
        to the new window.
        """
        classes = tuple(sorted((nj, dj % nj) for nj, dj in quotients))
        key = (classes, g)
        held = self._products.get(key)
        if held is not None and held.order >= window:
            return held
        factors = [self.series(nj, rj, g, window)._terms for nj, rj in classes]
        norms = [sum(map(abs, terms.values())) for terms in factors]
        band = _Band(g * sum(nj for nj, _ in classes), math.prod(norms))
        held = band.pack(factors[0], window, norms[0])
        for terms, norm in zip(factors[1:], norms[1:]):
            held = held.times(band.pack(terms, window, norm), norm)
        self._products[key] = held
        return held


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
    times binomial powers (``_closed_form_parts``), so the whole
    numerator is one packed value in the band of width n g, one part per
    composition, sized by ``_closed_form_bound`` and unpacked once
    (``_closed_form_numerator``).  The rank is capped at
    ``hntypes.MAX_RANK``, since the sum has 2^(n-1) terms, and the moduli
    dimension n^2(g-1) + 1 at ``MAX_CLOSED_FORM_DIM``.
    """
    parts = _closed_form_parts(n, d, g)
    num = _closed_form_numerator(parts, g, _Band(n * g, _closed_form_bound(n, d % n, g)))
    return FactoredRational(LaurentPoly._raw(num.unpack()), dict(_closed_form_shape(n)[1]))


def _closed_form_numerator(parts, g, band):
    """The sum of the parts (s, (e, e), factors), each s (uv)^e times the
    binomial powers of its factors (c, a, b, k), as a ``packed._Packed``
    value of the band: the numerator N of ``ss_closed_form`` from
    ``_closed_form_parts``, or that of ``leading_closed_term`` from its
    one part.  Every part opens with the Jacobian factor (1+u)^g (1+v)^g
    of its first rank: each part is formed without it, shifted by (uv)^e
    and added to the sum, and the Jacobian is applied once, to the sum.

    The caller sizes the band: width n g for the rank n, and slots that
    hold the sum of |s| prod (1 + |c|)^k over the parts
    (``_closed_form_bound``), which bounds the L1 norm of every partial
    product of a part and of every partial sum.  Each leading factor
    (1 + u^a v^b)^g of a rank m moves p - q by g, m of them up and m
    down, the ranks of a part sum to n, and the diagonal factors keep
    p - q, so every value formed lies in the band with non-negative
    exponents, where the slot map is one-to-one, and no slot carries into
    the next: the packed integer is N's.
    """
    jacobian = _leading_factors(1, g)
    num = None
    for sign, (e, _), factors in parts:
        if factors[:2] != jacobian:
            raise InternalCheckError("closed-form part does not open with the Jacobian factor")
        part = _Packed(band, sign, abs(sign), (0, 0)).times_binomials(factors[2:]).uv(e)
        num = part if num is None else num + part
    return num.times_binomials(jacobian)


def _closed_form_parts(n, d, g):
    """The numerator of ``ss_closed_form(n, d, g)`` over the common
    denominator of ``_closed_form_shape``, as a tuple of parts
    (s, (e, e), factors) of ``_closed_form_numerator``
    (``_closed_form_terms``).  The arguments and caps are checked here, on
    every call, before anything is read or expanded.
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
    return _closed_form_terms(n, d % n, g)


@cache
def _closed_form_terms(n, r, g):
    """The parts of ``_closed_form_parts`` for the degrees d = r mod n.
    Each composition gives one part (sign, (e, e), factors): the
    ``blocks._leading_factors`` of each of its ranks and the factors
    (1 - (uv)^k)^m that its own denominator lacks (``_closed_form_shape``).
    The exponent e reads d only as head d mod n (``_closed_form_exponent``),
    so the parts depend on (n, d mod n, g) alone and are formed once per
    class, at most 676 classes within the caps; they are tuples, which no
    caller can change."""
    leading = _leading_factors(n, g)  # those of rank m are the first 2m
    parts = []
    for ranks, sign, missing in _closed_form_shape(n)[0]:
        e = _closed_form_exponent(ranks, r, g)
        if e.denominator != 1:
            raise InternalCheckError("closed-form exponent %s is not an integer for %r" % (e, ranks))
        parts.append((sign, (e, e), tuple(f for m in ranks for f in leading[: 2 * m]) + missing))
    return tuple(parts)


@cache
def _closed_form_shape(n):
    """For each composition of n, its ranks, its sign and the binomial
    factors (-1, k, k, m), one for each (1 - (uv)^k)^m that its
    denominator lacks; and the common denominator, as (factor,
    multiplicity) pairs.  None of it depends on the degree or the genus,
    so it is formed once per rank."""
    dens = []
    for ranks in _compositions(n):
        den = Counter()
        for m in ranks:
            den.update(_leading_den(m))
        den.update((a + b, a + b) for a, b in zip(ranks, ranks[1:]))
        dens.append((ranks, den))
    common = _lcm_factors([den for _, den in dens])
    shape = tuple(
        (ranks, (-1) ** (len(ranks) - 1), tuple((-1, a, b, k) for (a, b), k in _missing_factors(common, den).items()))
        for ranks, den in dens
    )
    return shape, tuple(common.items())


def _closed_form_exponent(ranks, d, g):
    """The exponent e of ``ss_closed_form`` for one composition: an int
    when it is one, else a Fraction.

    For x = head d / n, n <x> = n - (head d mod n), so e n is the integer
    n (g-1) sum_{i<j} n_i n_j + sum_{i<k} (n_i + n_(i+1)) (n - head d mod n).
    """
    n = sum(ranks)
    total = n * (g - 1) * ((n * n - sum(a * a for a in ranks)) // 2)
    head = 0
    for a, b in zip(ranks, ranks[1:]):
        head += a
        total += (a + b) * (n - head * d % n)
    e, rest = divmod(total, n)
    return Fraction(total, n) if rest else e


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
    semistable and stable loci agree: (1-uv) times the semistable series,
    a polynomial of total degree 2 dim, dim = n^2(g-1) + 1.

    The terms of total degree at most dim are (1-uv) times the HN
    recursion's series S to order dim, run by ``evaluator`` (a fresh one
    if none is passed), and Poincare duality at dim gives the rest: each
    term (p, q) with p + q < dim is mirrored to (dim - p, dim - q).  S
    is packed once, in the band of width n g of the certificate, and P
    formed there: (1-uv) S by one shift and subtraction, its windows
    p + q <= dim and p + q <= dim - 1 by two masks, each an exact
    ``packed._Packed``, and the mirror of the second by one slot reversal
    (``packed._Packed.dual``).  The terms of total
    degree dim are taken whole, not mirrored, so duality is checked, not
    built in: P is certified in place (``_check_coprime``), and the
    certified value is what is read and returned.  (1-uv) S has
    coefficients of at most 2 max|S| and P at most 4 max|S| (Young's
    inequality).  The band's slots hold the larger of N's bound
    (``_closed_form_bound``) and 4 max|S| times the norm of
    ``_coprime_denominator``; an empty S gives the zero polynomial, which
    the closed form refuses.  The moduli
    dimension is capped at ``MAX_ORDER``, the recursion's order, and the
    rank as in ``ss_closed_form``.
    """
    _check_ints(n, d, g)
    if math.gcd(n, d) != 1:
        raise DomainError("semistable != stable; use rank-2 pipeline or report series only")
    dim = moduli_dimension(n, g)
    if dim > MAX_ORDER:
        raise DomainError("moduli dimension %d is above the series order cap of %d" % (dim, MAX_ORDER))
    terms = hp_ss_series(n, d, g, dim, evaluator)._terms
    values = terms.values()
    # a sum of ints is an int, and a non-int coefficient makes it another type
    if type(sum(values)) is not int:
        raise InternalCheckError("the recursion's series has non-integer coefficients")
    bound = max(max(values, default=0), -min(values, default=0))
    parts = _closed_form_parts(n, d, g)
    band = _Band(n * g, max(_closed_form_bound(n, d % n, g), 4 * bound * _coprime_denominator(n)[1]))
    if not terms.keys() <= band.points(dim):
        raise InternalCheckError("the recursion's series has a term outside its window in the band %d" % band.band)
    low = band.pack(terms, dim, bound).times_diagonal((1,), 2)
    poly = low.window(dim) + low.window(dim - 1).dual(dim)
    _check_coprime(poly, parts, n, g, dim)
    return LaurentPoly._raw(poly.unpack())


@cache
def _closed_form_bound(n, r, g):
    """N's coefficient bound for the degrees d = r mod n: the sum of
    |s| prod (1 + |c|)^k over its parts (s, (e, e), factors), which
    bounds the L1 norm of every partial product and partial sum
    (``_closed_form_numerator``), formed once per class as the parts are
    (``_closed_form_terms``)."""
    parts = _closed_form_terms(n, r, g)
    return sum(abs(s) * math.prod((1 + abs(c)) ** k for c, _, _, k in factors) for s, _, factors in parts)


@cache
def _coprime_denominator(n):
    """The strides m of the closed form's common denominator less one
    factor (1-uv), D = prod (1 - (uv)^m), and the largest L1 norm of a
    product over the first strides, the norm ``packed._Packed``'s
    ``times_diagonal`` needs, as it forms each: above D's own at ranks 5
    (224 against 208) and 7 (5036 against 5012).  Neither depends on the
    degree or the genus, so both are formed once per rank."""
    den = dict(_closed_form_shape(n)[1])
    den[(1, 1)] -= 1  # (1-uv) times the sum
    strides = tuple(m for (m, _), k in den.items() for _ in range(k))
    heads = (Counter((m, m) for m in strides[:j]) for j in range(len(strides) + 1))
    return strides, max(sum(map(abs, _expand_factors(head)._terms.values())) for head in heads)


def _check_coprime(poly, parts, n, g, dim):
    """Raise InternalCheckError unless the ``packed._Packed`` band value
    poly is Poincare dual at the moduli dimension dim and, times D, the
    closed form's common denominator less one factor (1-uv)
    (``_coprime_denominator``), is the closed form's numerator N, formed
    from its parts in the same band (``_closed_form_numerator``) and never
    unpacked.  Then N / D is a polynomial, and it is poly.

    Duality is poly's slot reversal compared with poly
    (``packed._Packed.dual``).  The product is poly times D by one shift
    and subtraction per stride.

    Soundness.  The band's slot map is one-to-one on the points with
    |p - q| <= n g, so a polynomial there whose slots are non-negative and
    hold its coefficients has one packed integer.  N and every value
    formed for it lie there (``_closed_form_numerator``); poly lies there
    with exponents at most dim, as its dual checks, and D's factors keep
    p - q and only raise slots.  Every value tracks a bound on its largest
    |coefficient| (Young's inequality), each partial product of poly and
    D at most poly's times the norm of ``_coprime_denominator``, and the
    slots hold the larger of that and N's (``_closed_form_bound``), so no
    slot carries into the next: equal integers are equal polynomials,
    and poly D = N.  A wrong poly, however large its coefficients, the
    zero polynomial included, fails the comparison.
    The largest partial norm, not 2 per stride (2^15 against 2^28 at rank
    8), keeps the slots no wider than N needs.
    """
    if poly.dual(dim) != poly:
        raise InternalCheckError("coprime polynomial fails Poincare duality at dimension %d" % dim)
    strides, norm = _coprime_denominator(n)
    if poly.times_diagonal(strides, norm) != _closed_form_numerator(parts, g, poly.layout):
        raise InternalCheckError("coprime polynomial times the closed form's denominator is not its numerator")
