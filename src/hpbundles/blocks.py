"""Closed-form Hodge-Poincare building blocks.

Jacobians of a genus-g curve, classifying spaces of GL(N) and SL(N), and
the two-element-group eigenspace decomposition of a Jacobian square minus
its diagonal.  These are the pieces the rank-2 stratification is glued
from.

A rank-2 call forms its dense numerators once, in one ``_Rank2Numerators``
record built by ``_rank2_numerators(g)``, and hands that record to every
closed form and stratum it evaluates.  The record lives only as long as
the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalCheckError
from .poly import ONE, U, V, LaurentPoly, _expand_binomials, uv_power
from .series import FactoredRational

HALF = Fraction(1, 2)


def hp_jacobian(g):
    """(1+u)^g (1+v)^g, the Hodge-Poincare polynomial of a g-dimensional
    Jacobian (or any complex torus of dimension g)."""
    if g < 0:
        raise DomainError("genus must be non-negative")
    row = [math.comb(g, i) for i in range(g + 1)]
    return LaurentPoly._raw({(i, j): ci * cj for i, ci in enumerate(row) for j, cj in enumerate(row)})


def _leading_factors(n, g):
    """The factors (1 + u^l v^(l-1))^g (1 + u^(l-1) v^l)^g, l = 1..n, of the
    numerator of the leading semistable term, as the factors (c, a, b, k)
    of a ``poly._expand_binomials`` part.  Those of l = 1 make
    hp_jacobian(g), those of l = 2 twisted_numerator(g)."""
    return tuple((1, a, b, g) for l in range(1, n + 1) for a, b in ((l, l - 1), (l - 1, l)))


def twisted_numerator(g):
    """(1+u^2 v)^g (1+u v^2)^g, the numerator the rank-2 closed forms
    share with the l = 2 factor of the leading semistable term.

    The rank-2 record expands its product with hp_jacobian(g) in one go
    (``_rank2_numerators``); the tests check that against this."""
    return (ONE + LaurentPoly.monomial(1, 2, 1)) ** g * (ONE + LaurentPoly.monomial(1, 1, 2)) ** g


def sign_numerator(g):
    """(1-u^2)^g (1-v^2)^g: hp_jacobian(g) with u -> -u^2, v -> -v^2."""
    return LaurentPoly._raw(_expand_binomials([(1, (0, 0), ((-1, 2, 0, g), (-1, 0, 2, g)))]))


def hp_bgl(n):
    """HP(BGL(n)) = prod_{k=1..n} 1/(1 - u^k v^k)."""
    if n < 1:
        raise DomainError("group rank must be at least 1")
    return FactoredRational(ONE, {(k, k): 1 for k in range(1, n + 1)})


def hp_bsl(n):
    """HP(BSL(n)) = prod_{k=2..n} 1/(1 - u^k v^k); trivial for n = 1."""
    if n < 1:
        raise DomainError("group rank must be at least 1")
    return FactoredRational(ONE, {(k, k): 1 for k in range(2, n + 1)})


def hp_plusminus_bt():
    """Symmetric and antisymmetric parts of H*(BT), T a rank-2 torus, under
    the coordinate swap: (1/((1-uv)(1-u^2v^2)), uv/((1-uv)(1-u^2v^2)))."""
    den = {(1, 1): 1, (2, 2): 1}
    plus = FactoredRational(ONE, den)
    minus = FactoredRational(U * V, den)
    return plus, minus


def hp_plusminus_jac_pair(g):
    """Swap-eigenspace parts of HP(Jac x Jac minus diagonal).

    plus  = (P^2 + P(-u^2,-v^2))/2 - (uv)^g P
    minus = (P^2 - P(-u^2,-v^2))/2          with P = hp_jacobian(g).

    Both halves must come out with integer coefficients; a half-integer
    would mean the eigenspace bookkeeping is broken.
    """
    p = hp_jacobian(g)
    # P^2 by shift-adds, not hp_jacobian(2g): the outer product stays the
    # independent side of the beta2 eigenspace check
    p_sq = LaurentPoly._raw(_expand_binomials([(1, (0, 0), _leading_factors(1, g) * 2)]))
    p_neg = p.negate_square_substitute()
    plus = (p_sq + p_neg) * HALF - uv_power(g) * p
    minus = (p_sq - p_neg) * HALF
    for name, half in (("plus", plus), ("minus", minus)):
        if not half.is_integral():
            raise InternalCheckError(
                "%s-part of the Jacobian pair has non-integer coefficients" % name
            )
    return plus, minus


@dataclass(frozen=True)
class _Rank2Numerators:
    """The genus-g numerators of the rank-2 closed forms and strata:
    jac = hp_jacobian(g), square = hp_jacobian(2g),
    jac_twisted = jac * twisted_numerator(g), signs = sign_numerator(g)
    and pair = hp_plusminus_jac_pair(g).  jac_twisted, the product of four
    binomial powers ``_leading_factors(2, g)``, is expanded by ``poly._expand_binomials``."""

    g: int
    jac: LaurentPoly
    square: LaurentPoly
    jac_twisted: LaurentPoly
    signs: LaurentPoly
    pair: tuple


def _rank2_numerators(g):
    """Form each numerator of the record once."""
    return _Rank2Numerators(
        g=g,
        jac=hp_jacobian(g),
        square=hp_jacobian(2 * g),
        jac_twisted=LaurentPoly._raw(_expand_binomials([(1, (0, 0), _leading_factors(2, g))])),
        signs=sign_numerator(g),
        pair=hp_plusminus_jac_pair(g),
    )


def hp_nt_zts(g):
    """Equivariant HP of the split-pair locus: pairs of non-isomorphic
    degree-d/2 line bundles with their rank-2 torus of automorphisms.

    Composed as HP+(BT)*plus + HP-(BT)*minus and certified against the
    single closed form

        [ (1+u)^2g (1+v)^2g (1+uv)/2 + (1-u^2)^g (1-v^2)^g (1-uv)/2
          - (uv)^g (1+u)^g (1+v)^g ] / ((1-uv)(1-u^2v^2)).
    """
    if g < 1:
        raise DomainError("genus must be at least 1")
    return _nt_zts(_rank2_numerators(g))


def _nt_zts(num):
    """``hp_nt_zts`` from a ``_Rank2Numerators`` record."""
    bt_plus, bt_minus = hp_plusminus_bt()
    jac_plus, jac_minus = num.pair
    composed = bt_plus * jac_plus + bt_minus * jac_minus

    closed_num = (
        num.square * (ONE + U * V)
        + num.signs * (ONE - U * V)
        - 2 * uv_power(num.g) * num.jac
    )
    closed = FactoredRational(closed_num, {(1, 1): 1, (2, 2): 1}, HALF)

    if not composed.equals(closed):
        raise InternalCheckError("eigenspace composition disagrees with its closed form")
    return closed
