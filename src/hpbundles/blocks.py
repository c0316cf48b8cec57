"""Closed-form Hodge-Poincare building blocks.

Jacobians of a genus-g curve, classifying spaces of GL(N) and SL(N), and
the two-element-group eigenspace decomposition of a Jacobian square minus
its diagonal.  These are the pieces the rank-2 stratification is glued
from.

A rank-2 call forms its dense numerators once, in one ``_Rank2Numerators``
record built by ``_rank2_numerators(g)``, and hands that record to every
closed form and stratum it evaluates.  The numerators are packed
integers in one box (``packed._Packed``), and the Jacobian pair is formed
and certified from them by shifts, adds and a parity mask; public
functions unpack what they return.  The record lives only as long as
the call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import DomainError, InternalCheckError
from .packed import _Box, _cut_inverse_norm, _diagonal_norm
from .poly import ONE, U, V, LaurentPoly, as_int
from .series import FactoredRational, _strides

HALF = Fraction(1, 2)

# The cap on the genus of the rank-2 record, so of every rank-2 call.  The
# stable polynomial has degree at most the moduli dimension 4g - 3 in each
# variable, so at most (4g - 2)^2 terms: 64,516 at the cap.  The time
# grows faster than the output, as about g^3 to g^4; at the cap,
# `compute stable2 --genus 64 --deligne` takes about 1.1 s on a 2-core
# Intel Xeon with Python 3.11, interpreter start and printing included
# (the call itself about 0.45 s).
MAX_GENUS = 64


def hp_jacobian(g):
    """(1+u)^g (1+v)^g, the Hodge-Poincare polynomial of a g-dimensional
    Jacobian (or any complex torus of dimension g)."""
    as_int(g, "genus")
    return _binomial_outer(1, 1, g)


def _binomial_outer(c, e, g):
    """(1 + c u^e)^g (1 + c v^e)^g, the outer product of one row of
    binomial coefficients with itself.  The rank-2 record packs its own
    copies (``packed._Box.outer``); the tests check those against this."""
    if g < 0:
        raise DomainError("genus must be non-negative")
    row = [(e * i, math.comb(g, i) * c**i) for i in range(g + 1)]
    return LaurentPoly._raw({(i, j): ci * cj for i, ci in row for j, cj in row})


def _leading_factors(n, g):
    """The factors (1 + u^l v^(l-1))^g (1 + u^(l-1) v^l)^g, l = 1..n, of the
    numerator of the leading semistable term, as the factors (c, a, b, k)
    of ``packed._Packed.times_binomials``.  Those of l = 1 make
    hp_jacobian(g), those of l = 2 the twisted numerator
    (1+u^2 v)^g (1+u v^2)^g of the rank-2 closed forms."""
    return tuple((1, a, b, g) for l in range(1, n + 1) for a, b in ((l, l - 1), (l - 1, l)))


def sign_numerator(g):
    """(1-u^2)^g (1-v^2)^g: hp_jacobian(g) with u -> -u^2, v -> -v^2."""
    return _binomial_outer(-1, 2, g)


def hp_bgl(n):
    """HP(BGL(n)) = prod_{k=1..n} 1/(1 - u^k v^k)."""
    as_int(n, "group rank")
    if n < 1:
        raise DomainError("group rank must be at least 1")
    return FactoredRational(ONE, {(k, k): 1 for k in range(1, n + 1)})


def hp_bsl(n):
    """HP(BSL(n)) = prod_{k=2..n} 1/(1 - u^k v^k); trivial for n = 1."""
    as_int(n, "group rank")
    if n < 1:
        raise DomainError("group rank must be at least 1")
    return FactoredRational(ONE, {(k, k): 1 for k in range(2, n + 1)})


def hp_plusminus_bt():
    """Symmetric and antisymmetric parts of H*(BT), T a rank-2 torus, under
    the coordinate swap: (1/((1-uv)(1-u^2v^2)), uv/((1-uv)(1-u^2v^2)))."""
    plus = FactoredRational(ONE, DEN_BT)
    minus = FactoredRational(U * V, DEN_BT)
    return plus, minus


def hp_plusminus_jac_pair(g):
    """Swap-eigenspace parts of HP(Jac x Jac minus diagonal).

    plus  = (P^2 + P(-u^2,-v^2))/2 - (uv)^g P
    minus = (P^2 - P(-u^2,-v^2))/2          with P = hp_jacobian(g).

    Both halves must come out with integer coefficients; a half-integer
    would mean the eigenspace bookkeeping is broken.
    """
    as_int(g, "genus")
    return tuple(LaurentPoly._raw(half.unpack()) for half in _rank2_numerators(g).pair)


def _rational(num, den, scalar=1):
    """scalar * num / den for a packed numerator."""
    return FactoredRational(LaurentPoly._raw(num.unpack()), den, scalar)


# (1 - uv)(1 - u^2 v^2), the denominator of HP(BGL(2)) and of HP(BT)
DEN_BT = {(1, 1): 1, (2, 2): 1}


class _Rank2Numerators:
    """The genus-g numerators of the rank-2 closed forms and strata, packed
    in one ``packed._Box`` per call: jac = hp_jacobian(g),
    square = hp_jacobian(2g), jac_twisted = jac (1+u^2 v)^g (1+u v^2)^g,
    signs = sign_numerator(g) and the ``hp_plusminus_jac_pair(g)`` halves
    pair = (plus, minus), all ``packed._Packed``.  Each is formed when it is
    first read and kept for the rest of the call, so a stratum that reads
    only jac forms nothing else.

    The box has origin (0, 0) and 4g + 3 columns, one more than the
    largest exponent of v any rank-2 formula reaches, and its slots hold
    the largest coefficient bound a call tracks (``_rank2_bound``), and
    the packed types check every bound on the way.  jac, square and
    signs are outer products of two binomial rows (``packed._Box.outer``);
    jac_twisted and the square P^2 inside the pair are jac times binomial
    powers, the ``_leading_factors`` of l = 2 and of l = 1, one shift-add
    per power, applied in order of the rows each power adds
    (``packed._times_binomials``): (1+u v^2)^g before (1+u^2 v)^g, and
    (1+v)^g before (1+u)^g.  The pair takes one halving and one parity
    check: half = (P^2 + signs)/2, plus = half - (uv)^g jac and
    minus = half - signs.  Every closed form, stratum, sum and certificate
    is then a shift, add or small-int multiply of these integers, and only
    the values a caller asks for are unpacked."""

    def __init__(self, g):
        self.g = g
        self.box = _Box(4 * g + 3, _rank2_bound(g))

    @cached_property
    def jac(self):
        return self.box.outer(1, 1, self.g)

    @cached_property
    def square(self):
        return self.box.outer(1, 1, 2 * self.g)

    @cached_property
    def signs(self):
        return self.box.outer(-1, 2, self.g)

    @cached_property
    def jac_twisted(self):
        return self.jac.times_binomials(_leading_factors(2, self.g)[2:])

    @cached_property
    def pair(self):
        # P^2 by shift-adds from P, while square is the outer product of the
        # 2g-th binomial rows: the beta2 bracket check compares the two
        jac_sq = self.jac.times_binomials(_leading_factors(1, self.g))
        half = (jac_sq + self.signs).halve()
        if half is None:
            raise InternalCheckError("the Jacobian pair has non-integer coefficients")
        # (P^2 - N)/2 = (P^2 + N)/2 - N: one parity check serves both halves
        return half - self.jac.uv(self.g), half - self.signs


def _rank2_bound(g):
    """The largest coefficient bound a rank-2 call of genus g tracks, that
    of the Hodge-Deligne certificate.

    The packed outer products start from their largest coefficients,
    C(k, floor(k/2))^2 for (1+u)^k (1+v)^k and for the signs, so the
    stable closed form has the bound S = 2 C(g, g/2)^2 4^g (2 jac_twisted)
    + 4 C(2g, g)^2 (the four shifted squares) + 4 C(g, g/2)^2 (signs times
    (1-uv)^2), with g/2 rounded down.  Its half, S // 2, divided by
    DEN_BT = (1-uv)(1-u^2 v^2) has the bound S // 2 times T(4g + 1), the
    L1 norm of the series 1/((1-uv)(1-u^2 v^2)) cut after the 4g + 1
    points of the longest diagonal, T(r) = sum_{k<r} (k // 2 + 1)
    (``packed._cut_inverse_norm``); and the certificate multiplies twice
    its dual by DEN_BT, whose partial products have L1 norms of at most 4
    (``packed._diagonal_norm``)."""
    centre = math.comb(g, g // 2) ** 2
    closed = 2 * centre * 4**g + 4 * math.comb(2 * g, g) ** 2 + 4 * centre
    strides = _strides(DEN_BT)
    return 2 * _diagonal_norm(strides) * (closed // 2) * _cut_inverse_norm(strides, 4 * g + 1)


def _rank2_numerators(g):
    """The record of genus g, for one call: past MAX_GENUS a call raises
    DomainError instead of running for minutes."""
    if g < 0:
        raise DomainError("genus must be non-negative")
    if g > MAX_GENUS:
        raise DomainError("genus %d is above the rank-2 cap of %d" % (g, MAX_GENUS))
    return _Rank2Numerators(g)


def hp_nt_zts(g):
    """Equivariant HP of the split-pair locus: pairs of non-isomorphic
    degree-d/2 line bundles with their rank-2 torus of automorphisms.

    Composed as HP+(BT)*plus + HP-(BT)*minus and certified against the
    single closed form

        [ (1+u)^2g (1+v)^2g (1+uv)/2 + (1-u^2)^g (1-v^2)^g (1-uv)/2
          - (uv)^g (1+u)^g (1+v)^g ] / ((1-uv)(1-u^2v^2)).
    """
    as_int(g, "genus")
    if g < 1:
        raise DomainError("genus must be at least 1")
    return _rational(_nt_zts(_rank2_numerators(g)), DEN_BT, HALF)


def _nt_zts(num):
    """The packed numerator of ``hp_nt_zts`` over 2 (1-uv)(1-u^2v^2), from a
    ``_Rank2Numerators`` record.  HP+(BT) = 1/((1-uv)(1-u^2v^2)) and
    HP-(BT) = uv/((1-uv)(1-u^2v^2)), so the composition is
    2 (plus + uv minus) over that denominator."""
    plus, minus = num.pair
    composed = 2 * (plus + minus.uv(1))
    closed = (
        num.square
        + num.square.uv(1)
        + num.signs.times_diagonal((1,))
        - 2 * num.jac.uv(num.g)
    )
    if composed != closed:
        raise InternalCheckError("eigenspace composition disagrees with its closed form")
    return closed
