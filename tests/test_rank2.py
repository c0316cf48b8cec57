import json
import os
from fractions import Fraction

import pytest

from hpbundles import (
    ONE,
    U,
    V,
    DomainError,
    FactoredRational,
    InternalCheckError,
    LaurentPoly,
    StratumRecord,
    assemble_stable_hp,
    deligne_rank2_closed_form,
    dual_substitute,
    hodge_deligne_stable_rank2,
    hp_jacobian,
    hp_moduli_stable_rank2,
    hp_nt_zts,
    hp_plusminus_jac_pair,
    hp_ss_rank2_closed_form,
    moduli_dimension_rank2,
    rank2_strata,
    stable_rank2_closed_form,
    uv_power,
)
from hpbundles import blocks, convex, packed, rank2, serialize
from hpbundles.rank2 import stratum_beta1, stratum_beta2, stratum_gl2, stratum_t
from hpbundles.semistable import SS_RANK2_DEN, _ss_rank2_numerator
from hpbundles.series import _lcm_factors, _missing_factors

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def test_stratum_codims():
    for g in range(2, 11):
        assert stratum_gl2(g).codim == 3 * g
        assert stratum_beta1(g).codim == 2 * g - 1
        assert stratum_t(g).codim == 2 * g - 2
        assert stratum_beta2(g).codim == g - 1
    # the held codimensions at every genus
    for g in range(2, rank2.MAX_GENUS + 1):
        expected = (3 * g, 2 * g - 1, 2 * g - 2, g - 1)
        assert rank2._stratum_codims(g) == expected
        assert tuple(stratum.codim for stratum in rank2_strata(g)) == expected


def test_codims_held_once_per_genus_as_ints():
    held = rank2._stratum_codims
    held.cache_clear()
    for g in range(2, rank2.MAX_GENUS + 1):
        stratum_gl2(g)
    # a genus past the cap is refused before the store is read
    with pytest.raises(DomainError):
        stratum_gl2(rank2.MAX_GENUS + 1)
    info = held.cache_info()
    assert info.currsize == rank2.MAX_GENUS - 1
    for g in range(2, rank2.MAX_GENUS + 1):
        codims = held(g)
        assert type(codims) is tuple and len(codims) == 4
        assert all(type(codim) is int for codim in codims)
    # every read above came from the store
    assert held.cache_info().misses == info.misses


def test_broken_codimension_route_fails_the_call(monkeypatch):
    def torus_at_multiplicity_g(g):
        return convex.WeightSystem(dim=1, weights=(((2,), g), ((-2,), g)), roots=(), chamber=((1,),))

    monkeypatch.setattr(rank2, "weight_system_torus", torus_at_multiplicity_g)
    rank2._stratum_codims.cache_clear()
    try:
        with pytest.raises(InternalCheckError, match="stratum beta2: codimension cross-check 3 != 2"):
            hp_moduli_stable_rank2(3)
    finally:
        rank2._stratum_codims.cache_clear()


def test_stratum_gl2_contribution_structure():
    record = stratum_gl2(3)
    assert record.contribution.num == hp_jacobian(3)
    assert record.contribution.den == {(1, 1): 1, (2, 2): 1}
    assert record.contribution.series_expand(0).coefficient(0, 0) == 1


def test_stratum_beta1_numerator_divisible_once_more():
    # the (1 - (uv)^g) factor contributes exactly one extra (1 - uv)
    record = stratum_beta1(2)
    from hpbundles import exact_divide

    q = exact_divide(record.contribution.num, ONE - U * V)
    assert q * (ONE - U * V) == record.contribution.num


def test_stratum_beta2_bracket_is_pair_total():
    for g in (2, 3, 4):
        plus, minus = hp_plusminus_jac_pair(g)
        record = stratum_beta2(g)
        bracket = hp_jacobian(2 * g) - uv_power(g) * hp_jacobian(g)
        assert plus + minus == bracket
        expected = FactoredRational((ONE - uv_power(g - 1)) * bracket, {(1, 1): 2})
        assert record.contribution.equals(expected)


def test_stratum_series_genus2_to_order_6():
    # frozen from the series oracle (cross-checked before freezing)
    beta1 = {
        (0, 0): 1, (0, 1): 2, (1, 0): 2,
        (0, 2): 1, (1, 1): 6, (2, 0): 1,
        (1, 2): 6, (2, 1): 6,
        (1, 3): 2, (2, 2): 11, (3, 1): 2,
        (2, 3): 8, (3, 2): 8,
        (2, 4): 2, (3, 3): 12, (4, 2): 2,
    }
    assert dict(stratum_beta1(2).contribution.series_expand(6).items()) == beta1
    beta2 = {
        (0, 0): 1, (0, 1): 4, (1, 0): 4,
        (0, 2): 6, (1, 1): 17, (2, 0): 6,
        (0, 3): 4, (1, 2): 28, (2, 1): 28, (3, 0): 4,
        (0, 4): 1, (1, 3): 22, (2, 2): 52, (3, 1): 22, (4, 0): 1,
        (1, 4): 8, (2, 3): 50, (3, 2): 50, (4, 1): 8,
        (1, 5): 1, (2, 4): 27, (3, 3): 64, (4, 2): 27, (5, 1): 1,
    }
    assert dict(stratum_beta2(2).contribution.series_expand(6).items()) == beta2


def test_stratum_t_constant_term():
    for g in (2, 3):
        assert stratum_t(g).contribution.series_expand(0).coefficient(0, 0) == 1


def test_stratum_record_rejects_nonpositive_codim():
    with pytest.raises(DomainError):
        StratumRecord("bad", 0, FactoredRational(ONE, {(1, 1): 1}))


def test_assemble_empty_strata_is_identity():
    ss = hp_ss_rank2_closed_form(2)
    assert assemble_stable_hp(ss, []).equals(ss)


def test_assemble_single_stratum_factoring():
    ss = hp_ss_rank2_closed_form(2)
    record = StratumRecord("all", 3, ss)
    assembled = assemble_stable_hp(ss, [record])
    expected = ss * (ONE - uv_power(3))
    assert assembled.equals(expected)


def test_assemble_is_the_one_at_a_time_fold():
    # one sum over the common denominator forms the numerator, the
    # denominator and the scalar that subtracting the strata one at a
    # time, each over a new common denominator, forms
    for g in range(2, 11):
        ss = hp_ss_rank2_closed_form(g)
        strata = rank2_strata(g)
        fold = ss
        for stratum in strata:
            fold = fold - stratum.contribution.shift_degrees(stratum.codim)
        assembled = assemble_stable_hp(ss, strata)
        assert (assembled.num, assembled.den, assembled.scalar) == (fold.num, fold.den, fold.scalar), g
    assert assemble_stable_hp(ss, []) is ss


def test_assemble_checks_every_codimension_first():
    # a stratum of non-positive codimension is refused before anything is
    # summed, even after a stratum whose contribution cannot be summed
    ss = hp_ss_rank2_closed_form(2)
    bad = StratumRecord("all", 3, ss)
    object.__setattr__(bad, "codim", 0)
    with pytest.raises(DomainError, match="non-positive codimension"):
        assemble_stable_hp(ss, [StratumRecord("none", 1, None), bad])


def test_pipeline_matches_closed_form():
    for g in range(2, 6):
        assembled = assemble_stable_hp(hp_ss_rank2_closed_form(g), rank2_strata(g))
        pipeline = assembled * (ONE - U * V)
        assert pipeline.equals(stable_rank2_closed_form(g))


def test_pipeline_series_consistency_with_truncated_input():
    # feeding the truncated recursion instead of the exact closed form
    # agrees with the exact pipeline up to the truncation order
    from hpbundles import SemistableSeries

    g, order = 2, 12
    exact = assemble_stable_hp(hp_ss_rank2_closed_form(g), rank2_strata(g))
    exact_series = (exact * (ONE - U * V)).series_expand(order)

    truncated = SemistableSeries().series(2, 0, g, order)
    for stratum in rank2_strata(g):
        truncated = truncated - stratum.contribution.series_expand(
            order - stratum.codim
        ).shift(stratum.codim).truncate(order)
    truncated = truncated.mul_poly(ONE - U * V)
    assert truncated == exact_series


def test_moduli_polynomial_sanity():
    for g in (2, 3):
        poly = hp_moduli_stable_rank2(g)
        assert poly.constant_term == 1
        assert poly.is_symmetric()
        assert poly.is_integral()


def test_moduli_polynomial_golden_genus2():
    with open(os.path.join(GOLDEN_DIR, "stable2_g2_hp.json"), encoding="utf-8") as handle:
        stored = json.load(handle)
    assert serialize.poly_to_obj(hp_moduli_stable_rank2(2)) == stored["poly"]
    assert stored["dim"] == moduli_dimension_rank2(2) == 5


def test_deligne_golden_genus2():
    with open(os.path.join(GOLDEN_DIR, "stable2_g2_hd.json"), encoding="utf-8") as handle:
        stored = json.load(handle)
    assert serialize.poly_to_obj(hodge_deligne_stable_rank2(2)) == stored["poly"]


@pytest.mark.parametrize("g", [3, 4])
def test_goldens_genus3_and_4(g):
    for name, func in (("hp", hp_moduli_stable_rank2), ("hd", hodge_deligne_stable_rank2)):
        with open(os.path.join(GOLDEN_DIR, "stable2_g%d_%s.json" % (g, name)), encoding="utf-8") as handle:
            stored = json.load(handle)
        assert serialize.poly_to_obj(func(g)) == stored["poly"]
        assert stored["dim"] == moduli_dimension_rank2(g)


def _same_rational(a, b):
    return a.num == b.num and a.den == b.den and a.scalar == b.scalar


def test_public_values_match_docstring_formulas():
    # every rank-2 formula rebuilt from its docstring with plain LaurentPoly
    # and FactoredRational arithmetic, none of it packed
    half = Fraction(1, 2)
    bt, beta, ss_den = {(1, 1): 1, (2, 2): 1}, {(1, 1): 2}, {(1, 1): 2, (2, 2): 1}
    for g in range(2, 11):
        uv = U * V
        jac = (ONE + U) ** g * (ONE + V) ** g
        square = (ONE + U) ** (2 * g) * (ONE + V) ** (2 * g)
        signs = (ONE - U * U) ** g * (ONE - V * V) ** g
        twisted = jac * (ONE + U * U * V) ** g * (ONE + U * V * V) ** g

        pair_square = jac * jac
        plus = (pair_square + jac.negate_square_substitute()) * half - uv_power(g) * jac
        minus = (pair_square - jac.negate_square_substitute()) * half
        assert hp_plusminus_jac_pair(g) == (plus, minus)

        expected = {
            "gl2": (3 * g, FactoredRational(jac, bt)),
            "beta1": (2 * g - 1, FactoredRational((ONE - uv_power(g)) * jac, beta)),
            "t": (2 * g - 2, FactoredRational(square * (ONE + uv) + signs * (ONE - uv) - 2 * uv_power(g) * jac, bt, half)),
            "beta2": (g - 1, FactoredRational((ONE - uv_power(g - 1)) * (square - uv_power(g) * jac), beta)),
        }
        publics = (stratum_gl2(g), stratum_beta1(g), stratum_t(g), stratum_beta2(g))
        for records in (publics, rank2_strata(g)):
            assert [r.label for r in records] == list(expected)
            for record in records:
                codim, contribution = expected[record.label]
                assert record.codim == codim
                assert _same_rational(record.contribution, contribution)
        assert _same_rational(hp_nt_zts(g), expected["t"][1])

        ss = FactoredRational(twisted - uv_power(g + 1) * square, ss_den)
        assert _same_rational(hp_ss_rank2_closed_form(g), ss)
        stable = (
            2 * twisted
            - uv_power(g - 1) * square * (2 * ONE - uv_power(g - 1) + uv_power(g + 1))
            - uv_power(2 * g - 2) * signs * (ONE - uv) ** 2
        )
        assert _same_rational(stable_rank2_closed_form(g), FactoredRational(stable, bt, half))
        deligne = 2 * twisted - square * (ONE + 2 * uv_power(g + 1) - uv_power(2)) - signs * (ONE - uv) ** 2
        assert _same_rational(deligne_rank2_closed_form(g), FactoredRational(deligne, bt, half))


def test_deligne_call_builds_one_record_and_one_twisted_product(monkeypatch):
    g = 3
    twisted = list(blocks._leading_factors(2, g)[2:])
    square = list(blocks._leading_factors(1, g))
    records = []
    products = []
    build_record = rank2._rank2_numerators
    times = packed._times_binomials

    def counting_record(genus):
        records.append(genus)
        return build_record(genus)

    def counting_times(x, factors, strides, width):
        products.append(list(factors))
        return times(x, factors, strides, width)

    monkeypatch.setattr(rank2, "_rank2_numerators", counting_record)
    # every packed product of binomial powers runs this shift-add loop
    monkeypatch.setattr(packed, "_times_binomials", counting_times)
    hodge_deligne_stable_rank2(g)
    # one record: one Jacobian-times-twisted product and one Jacobian
    # square of the pair; the binomial rows of the outer products expand
    # through the same loop and are not counted
    assert records == [g]
    assert products.count(twisted) == 1
    assert products.count(square) == 1


def ungrouped_assembled_num(num):
    """``rank2._assembled_num`` term by term: each term shifted by its
    codimension, cleared by every factor of the common denominator it
    lacks, scaled to 1/2 and added.  The reference the grouped clearing
    is tested against."""
    terms = [(SS_RANK2_DEN, 1, 0, _ss_rank2_numerator(num))]
    terms += [(s.den, -s.scalar, s.codim, s.num) for s in rank2._strata(num)]
    common = _lcm_factors([den for den, _, _, _ in terms])
    total = None
    for den, scalar, codim, part in terms:
        part = part.uv(codim)
        for (a, _), k in _missing_factors(common, den).items():
            for _ in range(k):
                product = part.times_diagonal((a,))
                assert product.bound == part.bound * packed._diagonal_norm((a,))
                part = product
        part = int(2 * scalar) * part
        total = part if total is None else total + part
    return total


@pytest.mark.parametrize("g", list(range(2, 13)) + [24])
def test_assembled_numerator_equals_the_ungrouped_sum(g):
    num = blocks._rank2_numerators(g)
    assembled = rank2._assembled_num(num)
    assert assembled == ungrouped_assembled_num(num)
    assert assembled == rank2._stable_num(num)


def test_deligne_double_dual_is_identity():
    for g in (2, 3):
        hd = hodge_deligne_stable_rank2(g)
        hp = hp_moduli_stable_rank2(g)
        assert dual_substitute(hd, moduli_dimension_rank2(g)) == hp


def test_deligne_value_at_origin():
    # the compact-support polynomial of the open stable locus has no
    # degree-zero class: the formula gives (2 - 1 - 1)/2 = 0 at u = v = 0
    assert hodge_deligne_stable_rank2(2).constant_term == 0
    assert deligne_rank2_closed_form(3).series_expand(0).coefficient(0, 0) == 0


def test_genus_below_two_rejected():
    for func in (hp_moduli_stable_rank2, hodge_deligne_stable_rank2, stable_rank2_closed_form):
        with pytest.raises(DomainError):
            func(1)


def test_genus_above_cap_rejected():
    for func in (hp_moduli_stable_rank2, hodge_deligne_stable_rank2, rank2_strata, stratum_t, stratum_beta2):
        with pytest.raises(DomainError):
            func(rank2.MAX_GENUS + 1)


@pytest.mark.parametrize("genus", [2.0, "3", True], ids=repr)
def test_non_integer_genus_rejected(genus):
    # a float, a string and a bool each fail as a domain error, not as the
    # TypeError or AttributeError of the arithmetic they would reach
    for func in (hp_moduli_stable_rank2, hodge_deligne_stable_rank2, stable_rank2_closed_form, rank2_strata):
        with pytest.raises(DomainError, match="genus must be an integer"):
            func(genus)
