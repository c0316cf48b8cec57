"""The rank-2, even-degree stable moduli space, assembled stratum by stratum.

Four strata sit between the semistable locus and the stable one:

  * gl2    -- bundles L + L (one line bundle doubled), codim 3g
  * beta1  -- non-split self-extensions of a line bundle, codim 2g-1
  * t      -- pairs of distinct line bundles, codim 2g-2
  * beta2  -- non-split extensions between distinct line bundles, codim g-1

Subtracting their shifted contributions from the semistable series and
multiplying by (1-uv) leaves the Hodge-Poincare polynomial of the stable
moduli space.  Every codimension is double-checked against an
independent formula, and the assembled result is certified against a
single closed form before being returned.

There is one numerator record per call: each public entry point checks
the genus, builds one ``blocks._Rank2Numerators`` record and hands it to
a private body, so a Hodge-Deligne call expands the product
(1+u)^g (1+v)^g (1+u^2 v)^g (1+u v^2)^g once for the semistable series
and both closed forms, and the Jacobian pair once for the strata t and
beta2.  Both that product and the Jacobian square inside the pair are
products of binomial powers, expanded by shift-adds on one packed
integer (``poly._expand_binomials``).

The genus is capped at MAX_GENUS, a bound sized from the output: past it
a call raises DomainError instead of running for minutes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import convex
from .blocks import HALF, _nt_zts, _rank2_numerators, hp_bgl, hp_jacobian
from .errors import DivisionRemainderError, DomainError, InternalCheckError
from .hntypes import ReductiveClass, codim_deeper_stratum
from .poly import ONE, U, V, dual_substitute, uv_power
from .semistable import _ss_rank2_closed_form, moduli_dimension
from .series import FactoredRational

# The polynomial has degree at most the moduli dimension 4g - 3 in each
# variable, so at most (4g - 2)^2 terms: 64,516 at the cap.  The time
# grows faster than the output, as about g^3 to g^4; at the cap,
# `compute stable2 --genus 64 --deligne` takes about 1.6 s on a 2-core
# Intel Xeon with Python 3.11, interpreter start and printing included.
MAX_GENUS = 64


@dataclass(frozen=True)
class StratumRecord:
    """A named stratum: its codimension and equivariant HP contribution."""

    label: str
    codim: int
    contribution: FactoredRational

    def __post_init__(self):
        if self.codim <= 0:
            raise DomainError("non-open strata must have positive codimension")


def weight_system_adjoint_sl2(g):
    """Weights of the conjugation action on the rank-2 traceless matrices
    tensored with a g-dimensional space: 2, 0, -2 each with multiplicity g."""
    return convex.WeightSystem(
        dim=1,
        weights=(((2,), g), ((0,), g), ((-2,), g)),
        roots=((2,), (-2,)),
        chamber=((1,),),
    )


def weight_system_torus(g):
    """Weights of the diagonal torus on the two off-diagonal extension
    spaces: 2 and -2, each with multiplicity g-1."""
    return convex.WeightSystem(
        dim=1,
        weights=(((2,), g - 1), ((-2,), g - 1)),
        roots=(),
        chamber=((1,),),
    )


def _expect_codim(label, value, expected):
    if value != expected:
        raise InternalCheckError(
            "stratum %s: codimension cross-check %d != %d" % (label, value, expected)
        )


def _unique_beta_codim(ws):
    indices = convex.index_set(ws)
    if len(indices) != 1:
        raise InternalCheckError("expected exactly one unstable index, got %d" % len(indices))
    return convex.stratum_codim(ws, indices[0])


def stratum_gl2(g):
    """Doubled line bundles: HP(BGL(2)) times a Jacobian, codim 3g."""
    _check_genus(g)
    codim = codim_deeper_stratum(ReductiveClass(((2, 1),)), 2, g)
    _expect_codim("gl2", codim, 3 * g)
    contribution = hp_bgl(2) * hp_jacobian(g)
    return StratumRecord("gl2", codim, contribution)


def stratum_beta1(g):
    """Non-split self-extensions: (1-(uv)^g)(1+u)^g(1+v)^g / (1-uv)^2,
    codim 2g-1 (cross-checked on the adjoint weight system)."""
    _check_genus(g)
    codim = _unique_beta_codim(weight_system_adjoint_sl2(g))
    _expect_codim("beta1", codim, 2 * g - 1)
    contribution = FactoredRational((ONE - uv_power(g)) * hp_jacobian(g), {(1, 1): 2})
    return StratumRecord("beta1", codim, contribution)


def stratum_t(g):
    """Split pairs of distinct line bundles, codim 2g-2."""
    _check_genus(g)
    return _stratum_t(_rank2_numerators(g))


def _stratum_t(num):
    codim = codim_deeper_stratum(ReductiveClass(((1, 1), (1, 1))), 2, num.g)
    _expect_codim("t", codim, 2 * num.g - 2)
    return StratumRecord("t", codim, _nt_zts(num))


def stratum_beta2(g):
    """Non-split extensions between distinct line bundles, codim g-1:

        (1 - (uv)^(g-1)) [ (1+u)^2g (1+v)^2g - (uv)^g (1+u)^g (1+v)^g ]
        / (1-uv)^2.
    """
    _check_genus(g)
    return _stratum_beta2(_rank2_numerators(g))


def _stratum_beta2(num):
    g = num.g
    codim = _unique_beta_codim(weight_system_torus(g))
    _expect_codim("beta2", codim, g - 1)
    bracket = num.square - uv_power(g) * num.jac
    plus, minus = num.pair
    if bracket != plus + minus:
        raise InternalCheckError("beta2 bracket is not the eigenspace total")
    contribution = FactoredRational((ONE - uv_power(g - 1)) * bracket, {(1, 1): 2})
    return StratumRecord("beta2", codim, contribution)


def rank2_strata(g):
    _check_genus(g)
    return _strata(_rank2_numerators(g))


def _strata(num):
    return [stratum_gl2(num.g), stratum_beta1(num.g), _stratum_t(num), _stratum_beta2(num)]


def assemble_stable_hp(ss, strata):
    """Remove the strata from the semistable series:
    ss - sum (uv)^codim * contribution, over a common denominator."""
    result = ss
    for stratum in strata:
        if stratum.codim <= 0:
            raise DomainError("stratum %s has non-positive codimension" % stratum.label)
        result = result - stratum.contribution.shift_degrees(stratum.codim)
    return result


def stable_rank2_closed_form(g):
    """Closed form of the stable-moduli HP polynomial before division:

        [ 2(1+u)^g(1+v)^g(1+u^2v)^g(1+uv^2)^g
          - (uv)^(g-1)(1+u)^2g(1+v)^2g (2 - (uv)^(g-1) + (uv)^(g+1))
          - (uv)^(2g-2)(1-u^2)^g(1-v^2)^g(1-uv)^2 ] / (2(1-uv)(1-u^2v^2)).
    """
    _check_genus(g)
    return _stable_closed_form(_rank2_numerators(g))


def _stable_closed_form(num):
    g = num.g
    numerator = (
        2 * num.jac_twisted
        - uv_power(g - 1) * num.square * (2 * ONE - uv_power(g - 1) + uv_power(g + 1))
        - uv_power(2 * g - 2) * num.signs * (ONE - U * V) ** 2
    )
    return FactoredRational(numerator, {(1, 1): 1, (2, 2): 1}, HALF)


def deligne_rank2_closed_form(g):
    """Closed form of the compactly-supported (Hodge-Deligne) polynomial:

        [ 2(1+u)^g(1+v)^g(1+u^2v)^g(1+uv^2)^g
          - (1+u)^2g(1+v)^2g (1 + 2 u^(g+1) v^(g+1) - u^2 v^2)
          - (1-u^2)^g(1-v^2)^g(1-uv)^2 ] / (2(1-uv)(1-u^2v^2)).
    """
    _check_genus(g)
    return _deligne_closed_form(_rank2_numerators(g))


def _deligne_closed_form(num):
    numerator = (
        2 * num.jac_twisted
        - num.square * (ONE + 2 * uv_power(num.g + 1) - uv_power(2))
        - num.signs * (ONE - U * V) ** 2
    )
    return FactoredRational(numerator, {(1, 1): 1, (2, 2): 1}, HALF)


def moduli_dimension_rank2(g):
    """Complex dimension of the rank-2 moduli space: 4(g-1) + 1."""
    return moduli_dimension(2, g)


def hp_moduli_stable_rank2(g):
    """Hodge-Poincare polynomial of the stable rank-2 moduli space, even
    degree: (1-uv) times the stratum-stripped semistable series.

    Certified twice: the factored result must divide out to an honest
    polynomial with integer coefficients, and must agree with the single
    closed form by cross-multiplication.
    """
    _check_genus(g)
    return _hp_moduli(_rank2_numerators(g))


def _hp_moduli(num):
    assembled = assemble_stable_hp(_ss_rank2_closed_form(num), _strata(num))
    den = dict(assembled.den)
    den[(1, 1)] -= 1  # (1-uv) times the assembled series
    quotient = FactoredRational(assembled.num, den, assembled.scalar)
    closed = _stable_closed_form(num)
    if not quotient.equals(closed):
        raise InternalCheckError(
            "stable rank-2 pipeline disagrees with its closed form; residual %s"
            % quotient.residual(closed)
        )
    try:
        poly = quotient.as_polynomial()
    except DivisionRemainderError as err:
        raise InternalCheckError(
            "assembled series is not a polynomial; remainder %s" % err.remainder
        ) from err
    if not poly.is_integral():
        raise InternalCheckError("stable rank-2 polynomial has non-integer coefficients")
    return poly


def hodge_deligne_stable_rank2(g):
    """Hodge-Deligne polynomial of the same space, by duality at the
    moduli dimension; certified against its own closed form."""
    _check_genus(g)
    num = _rank2_numerators(g)
    dual = dual_substitute(_hp_moduli(num), moduli_dimension_rank2(g))
    closed = _deligne_closed_form(num)
    if not FactoredRational(dual).equals(closed):
        raise InternalCheckError(
            "dual polynomial disagrees with the compact-support closed form; residual %s"
            % FactoredRational(dual).residual(closed)
        )
    return dual


def _check_genus(g):
    if g < 2:
        raise DomainError("genus out of supported range")
    if g > MAX_GENUS:
        raise DomainError("genus %d is above the rank-2 cap of %d" % (g, MAX_GENUS))
