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
a private body.  The record holds the numerators as packed integers in
one box (``packed._Packed``), so every closed form, stratum, the sum over
the common denominator and every certificate is a big-integer shift,
add or small-int multiply, and each equality is one integer comparison.
The stable polynomial is divided out of its closed form by packed
running sums along the diagonal, certified by multiplying back, and
unpacked once per call; a Hodge-Deligne call reverses its slots for the
dual instead and unpacks that.  Public functions that return a
numerator, a stratum or a closed form unpack it from the same record.

The genus is capped at MAX_GENUS, a bound sized from the output: past it
a call raises DomainError instead of running for minutes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import convex
from .blocks import DEN_BT, HALF, _nt_zts, _rank2_numerators, _rational
# bound here too, though no formula reads it: perfbench's tracer test
# checks that its wrapper reaches every module that binds hp_jacobian
from .blocks import hp_jacobian  # noqa: F401
from .errors import DomainError, InternalCheckError
from .hntypes import ReductiveClass, codim_deeper_stratum
from .poly import LaurentPoly, as_int
from .semistable import SS_RANK2_DEN, _ss_rank2_numerator, moduli_dimension
from .series import FactoredRational, _lcm_factors, _missing_factors

# The polynomial has degree at most the moduli dimension 4g - 3 in each
# variable, so at most (4g - 2)^2 terms: 64,516 at the cap.  The time
# grows faster than the output, as about g^3 to g^4; at the cap,
# `compute stable2 --genus 64 --deligne` takes about 1.1 s on a 2-core
# Intel Xeon with Python 3.11, interpreter start and printing included
# (the call itself about 0.45 s).
MAX_GENUS = 64


# (1 - uv)^2, the denominator of the beta strata
DEN_BETA = {(1, 1): 2}


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


@dataclass(frozen=True)
class _Stratum:
    """A stratum of one rank-2 call: scalar * num / den with a packed
    numerator, before the shift (uv)^codim."""

    label: str
    codim: int
    num: object
    den: dict
    scalar: object


def _public(stratum):
    contribution = _rational(stratum.num, stratum.den, stratum.scalar)
    return StratumRecord(stratum.label, stratum.codim, contribution)


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
    return _public(_stratum_gl2(_rank2_numerators(g)))


def _stratum_gl2(num):
    codim = codim_deeper_stratum(ReductiveClass(((2, 1),)), 2, num.g)
    _expect_codim("gl2", codim, 3 * num.g)
    return _Stratum("gl2", codim, num.jac, DEN_BT, 1)


def stratum_beta1(g):
    """Non-split self-extensions: (1-(uv)^g)(1+u)^g(1+v)^g / (1-uv)^2,
    codim 2g-1 (cross-checked on the adjoint weight system)."""
    _check_genus(g)
    return _public(_stratum_beta1(_rank2_numerators(g)))


def _stratum_beta1(num):
    codim = _unique_beta_codim(weight_system_adjoint_sl2(num.g))
    _expect_codim("beta1", codim, 2 * num.g - 1)
    return _Stratum("beta1", codim, num.jac.times_one_minus_uv(num.g), DEN_BETA, 1)


def stratum_t(g):
    """Split pairs of distinct line bundles, codim 2g-2."""
    _check_genus(g)
    return _public(_stratum_t(_rank2_numerators(g)))


def _stratum_t(num):
    codim = codim_deeper_stratum(ReductiveClass(((1, 1), (1, 1))), 2, num.g)
    _expect_codim("t", codim, 2 * num.g - 2)
    return _Stratum("t", codim, _nt_zts(num), DEN_BT, HALF)


def stratum_beta2(g):
    """Non-split extensions between distinct line bundles, codim g-1:

        (1 - (uv)^(g-1)) [ (1+u)^2g (1+v)^2g - (uv)^g (1+u)^g (1+v)^g ]
        / (1-uv)^2.
    """
    _check_genus(g)
    return _public(_stratum_beta2(_rank2_numerators(g)))


def _stratum_beta2(num):
    g = num.g
    codim = _unique_beta_codim(weight_system_torus(g))
    _expect_codim("beta2", codim, g - 1)
    bracket = num.square - num.jac.uv(g)
    plus, minus = num.pair
    if bracket != plus + minus:
        raise InternalCheckError("beta2 bracket is not the eigenspace total")
    return _Stratum("beta2", codim, bracket.times_one_minus_uv(g - 1), DEN_BETA, 1)


def rank2_strata(g):
    _check_genus(g)
    return [_public(stratum) for stratum in _strata(_rank2_numerators(g))]


def _strata(num):
    return [_stratum_gl2(num), _stratum_beta1(num), _stratum_t(num), _stratum_beta2(num)]


def assemble_stable_hp(ss, strata):
    """Remove the strata from the semistable series:
    ss - sum (uv)^codim * contribution, over a common denominator."""
    result = ss
    for stratum in strata:
        if stratum.codim <= 0:
            raise DomainError("stratum %s has non-positive codimension" % stratum.label)
        result = result - stratum.contribution.shift_degrees(stratum.codim)
    return result


def _assembled_num(num):
    """``assemble_stable_hp`` of the semistable closed form and the strata,
    times (1-uv), packed: its numerator over 2 (1-uv)(1-u^2v^2).  Each term
    is shifted by its codimension and brought to the scalar 1/2 by a
    small-int multiply; the terms that lack the same factors 1 - (uv)^a of
    the common denominator are added up first, and each group is cleared
    once: gl2 with t by 1 - uv, beta1 with beta2 by 1 - u^2 v^2, and the
    semistable term by nothing."""
    terms = [(SS_RANK2_DEN, 1, 0, _ss_rank2_numerator(num))]
    terms += [(s.den, -s.scalar, s.codim, s.num) for s in _strata(num)]
    common = _lcm_factors([den for den, _, _, _ in terms])
    groups = {}
    for den, scalar, codim, part in terms:
        part = int(2 * scalar) * part.uv(codim)
        missing = tuple(sorted(_missing_factors(common, den).items()))
        groups[missing] = groups[missing] + part if missing in groups else part
    total = None
    for missing, part in groups.items():
        # every factor here is diagonal, 1 - (uv)^a, of L1 norm 2
        strides = [a for (a, _), k in missing for _ in range(k)]
        part = part.times_diagonal(strides, 2 ** len(strides))
        total = part if total is None else total + part
    return total


def stable_rank2_closed_form(g):
    """Closed form of the stable-moduli HP polynomial before division:

        [ 2(1+u)^g(1+v)^g(1+u^2v)^g(1+uv^2)^g
          - (uv)^(g-1)(1+u)^2g(1+v)^2g (2 - (uv)^(g-1) + (uv)^(g+1))
          - (uv)^(2g-2)(1-u^2)^g(1-v^2)^g(1-uv)^2 ] / (2(1-uv)(1-u^2v^2)).
    """
    _check_genus(g)
    return _rational(_stable_num(_rank2_numerators(g)), DEN_BT, HALF)


def _stable_num(num):
    g = num.g
    square = num.square.uv(g - 1)
    signs = num.signs.uv(2 * g - 2)
    return (
        2 * num.jac_twisted
        - 2 * square
        + square.uv(g - 1)
        - square.uv(g + 1)
        - signs.times_one_minus_uv(1).times_one_minus_uv(1)
    )


def deligne_rank2_closed_form(g):
    """Closed form of the compactly-supported (Hodge-Deligne) polynomial:

        [ 2(1+u)^g(1+v)^g(1+u^2v)^g(1+uv^2)^g
          - (1+u)^2g(1+v)^2g (1 + 2 u^(g+1) v^(g+1) - u^2 v^2)
          - (1-u^2)^g(1-v^2)^g(1-uv)^2 ] / (2(1-uv)(1-u^2v^2)).
    """
    _check_genus(g)
    return _rational(_deligne_num(_rank2_numerators(g)), DEN_BT, HALF)


def _deligne_num(num):
    return (
        2 * num.jac_twisted
        - num.square
        - 2 * num.square.uv(num.g + 1)
        + num.square.uv(2)
        - num.signs.times_one_minus_uv(1).times_one_minus_uv(1)
    )


def moduli_dimension_rank2(g):
    """Complex dimension of the rank-2 moduli space: 4(g-1) + 1."""
    return moduli_dimension(2, g)


def hp_moduli_stable_rank2(g):
    """Hodge-Poincare polynomial of the stable rank-2 moduli space, even
    degree: (1-uv) times the stratum-stripped semistable series.

    Certified twice: the assembled numerator must equal the single closed
    form, and the quotient must divide out to an honest polynomial with
    integer coefficients.
    """
    _check_genus(g)
    return LaurentPoly._raw(_stable_quotient(_rank2_numerators(g)).unpack())


def _stable_quotient(num):
    """The certified stable polynomial, packed."""
    assembled = _assembled_num(num)
    closed = _stable_num(num)
    if assembled != closed:
        raise InternalCheckError(
            "stable rank-2 pipeline disagrees with its closed form; residual %s"
            % LaurentPoly._raw((assembled - closed).unpack())
        )
    half = closed.halve()
    if half is None:
        raise InternalCheckError("stable rank-2 polynomial has non-integer coefficients")
    quotient = half.divide_diagonal((1, 2))  # by DEN_BT, (1 - uv)(1 - u^2 v^2)
    if quotient is None:
        raise InternalCheckError("assembled series is not a polynomial")
    return quotient


def hodge_deligne_stable_rank2(g):
    """Hodge-Deligne polynomial of the same space, by duality at the
    moduli dimension; certified against its own closed form."""
    _check_genus(g)
    num = _rank2_numerators(g)
    dual = _stable_quotient(num).dual(moduli_dimension_rank2(g))
    closed = _deligne_num(num)
    cleared = (2 * dual).times_one_minus_uv(1).times_one_minus_uv(2)
    if cleared != closed:
        raise InternalCheckError(
            "dual polynomial disagrees with the compact-support closed form; residual %s"
            % LaurentPoly._raw((cleared - closed).unpack())
        )
    return LaurentPoly._raw(dual.unpack())


def _check_genus(g):
    as_int(g, "genus")
    if g < 2:
        raise DomainError("genus out of supported range")
    if g > MAX_GENUS:
        raise DomainError("genus %d is above the rank-2 cap of %d" % (g, MAX_GENUS))
