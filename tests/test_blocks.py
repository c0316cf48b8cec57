import math
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
    hp_bgl,
    hp_bsl,
    hp_jacobian,
    hp_nt_zts,
    hp_plusminus_bt,
    hp_plusminus_jac_pair,
    hp_ss_rank2_closed_form,
    uv_power,
)
from hpbundles import blocks, packed, rank2
from hpbundles.blocks import _rank2_numerators, sign_numerator
from hpbundles.packed import _Packed


def naive_product(*polys):
    """Term-by-term multiplication oracle, no library shortcuts."""
    acc = {(0, 0): 1}
    for poly in polys:
        nxt = {}
        for (p1, q1), c1 in acc.items():
            for (p2, q2), c2 in poly.items():
                key = (p1 + p2, q1 + q2)
                nxt[key] = nxt.get(key, 0) + c1 * c2
        acc = {e: c for e, c in nxt.items() if c}
    return LaurentPoly(acc)


def twisted_numerator(g):
    """(1+u^2 v)^g (1+u v^2)^g, the numerator the rank-2 closed forms
    share with the l = 2 factor of the leading semistable term, by
    binomial powers: the reference for the packed record's jac_twisted."""
    return (ONE + LaurentPoly.monomial(1, 2, 1)) ** g * (ONE + LaurentPoly.monomial(1, 1, 2)) ** g


def test_rank2_builders_refuse_genus_over_the_cap():
    # the record checks the cap, so the building blocks that build one
    # refuse genus 65 as fast as the rank-2 entry points do
    assert blocks.MAX_GENUS == rank2.MAX_GENUS == 64
    for build in (hp_ss_rank2_closed_form, hp_plusminus_jac_pair, hp_nt_zts):
        with pytest.raises(DomainError, match="above the rank-2 cap of 64"):
            build(65)
        build(2)


def test_jacobian_small_genus():
    assert hp_jacobian(0) == ONE
    assert hp_jacobian(1) == LaurentPoly({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_jacobian_total_rank():
    # 2^(2g) classes in total at u = v = 1
    assert hp_jacobian(2).evaluate(1, 1) == 16
    assert hp_jacobian(2) == naive_product((ONE + U), (ONE + U), (ONE + V), (ONE + V))


def test_jacobian_outer_product_matches_binomial_powers():
    for g in range(17):
        assert hp_jacobian(g) == (ONE + U) ** g * (ONE + V) ** g


def test_rank2_numerators():
    for g in range(0, 7):
        assert sign_numerator(g) == hp_jacobian(g).negate_square_substitute()
        assert twisted_numerator(g) == LaurentPoly(
            {
                (2 * i + j, i + 2 * j): math.comb(g, i) * math.comb(g, j)
                for i in range(g + 1)
                for j in range(g + 1)
            }
        )
    assert twisted_numerator(2) == naive_product(*[ONE + U * U * V] * 2 + [ONE + U * V * V] * 2)


def test_record_products_match_dict_and_dense_products():
    # the record's packed numerators, unpacked, against LaurentPoly
    # products of their halves; from g = 7 on these take the dense path,
    # below it the dict loop
    for g in list(range(0, 13)) + [24]:
        num = _rank2_numerators(g)
        jac = hp_jacobian(g)
        assert unpacked(num.jac) == jac
        assert unpacked(num.square) == hp_jacobian(2 * g)
        assert unpacked(num.signs) == sign_numerator(g)
        assert unpacked(num.jac_twisted) == jac * twisted_numerator(g)
        plus, minus = map(unpacked, num.pair)
        assert (plus + minus) + uv_power(g) * jac == jac * jac


def unpacked(value):
    return LaurentPoly._raw(value.unpack())


def test_bgl_denominators():
    assert hp_bgl(1).den == {(1, 1): 1}
    assert hp_bgl(2).den == {(1, 1): 1, (2, 2): 1}
    assert hp_bgl(2).num == ONE
    assert hp_bsl(1).den == {}
    assert hp_bsl(3).den == {(2, 2): 1, (3, 3): 1}
    with pytest.raises(DomainError):
        hp_bgl(0)


def test_bt_eigenspace_pair():
    plus, minus = hp_plusminus_bt()
    assert plus.num == ONE
    assert minus.num == U * V
    total = plus + minus
    assert total.equals(hp_bgl(1) * hp_bgl(1))
    assert plus.series_expand(0).coefficient(0, 0) == 1
    assert minus.series_expand(0).coefficient(0, 0) == 0


def test_jac_pair_genus1_explicit():
    # frozen from the naive expansion oracle below
    plus, minus = hp_plusminus_jac_pair(1)
    assert plus == LaurentPoly({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert minus == LaurentPoly(
        {(1, 0): 1, (0, 1): 1, (2, 0): 1, (0, 2): 1, (1, 1): 2, (2, 1): 1, (1, 2): 1}
    )

    jac = hp_jacobian(1)
    sq = naive_product(jac, jac)
    negsq = jac.negate_square_substitute()
    assert plus == (sq + negsq) * Fraction(1, 2) - uv_power(1) * jac
    assert minus == (sq - negsq) * Fraction(1, 2)


def test_jac_pair_sum_is_square_minus_diagonal():
    for g in range(0, 9):
        plus, minus = hp_plusminus_jac_pair(g)
        jac = hp_jacobian(g)
        assert plus + minus == jac * jac - uv_power(g) * jac


def test_jac_pair_constant_terms():
    for g in range(1, 6):
        plus, minus = hp_plusminus_jac_pair(g)
        assert plus.constant_term == 1
        assert minus.constant_term == 0


def test_jac_pair_integrality_up_to_twelve():
    for g in range(0, 13):
        plus, minus = hp_plusminus_jac_pair(g)
        assert plus.is_integral()
        assert minus.is_integral()


@pytest.mark.parametrize("g", [1, 4])
@pytest.mark.parametrize("at", [(0, 0), (1, 2)])
def test_jac_pair_with_an_odd_coefficient_raises(monkeypatch, g, at):
    # signs raised by one at a single monomial leaves P^2 + signs odd there:
    # the pair's one parity check, which also serves its minus half,
    # refuses it
    def odd_signs(self):
        box = self.box
        monomial = _Packed(box, 1 << 8 * box.width * (at[0] * box.cols + at[1]), 1, at)
        return box.outer(-1, 2, self.g) + monomial

    monkeypatch.setattr(blocks._Rank2Numerators, "signs", property(odd_signs))
    with pytest.raises(InternalCheckError, match="non-integer"):
        hp_plusminus_jac_pair(g)


def test_nt_zts_constant_term():
    for g in range(1, 7):
        assert hp_nt_zts(g).series_expand(0).coefficient(0, 0) == 1


def test_nt_zts_matches_closed_form_rebuilt():
    # rebuild the closed form here and compare by cross-multiplication
    for g in range(2, 7):
        value = hp_nt_zts(g)
        two_g = hp_jacobian(2 * g)
        signs = ((ONE - U * U) ** g) * ((ONE - V * V) ** g)
        num = two_g * (ONE + U * V) + signs * (ONE - U * V) - 2 * uv_power(g) * hp_jacobian(g)
        closed = FactoredRational(num, {(1, 1): 1, (2, 2): 1}, Fraction(1, 2))
        assert value.equals(closed)


def test_nt_zts_genus2_series_to_order_6():
    # frozen from the series oracle (verified independently before freezing)
    s = hp_nt_zts(2).series_expand(6)
    expected = {
        (0, 0): 1, (0, 1): 2, (1, 0): 2,
        (0, 2): 2, (1, 1): 9, (2, 0): 2,
        (0, 3): 2, (1, 2): 16, (2, 1): 16, (3, 0): 2,
        (0, 4): 1, (1, 3): 14, (2, 2): 37, (3, 1): 14, (4, 0): 1,
        (1, 4): 6, (2, 3): 40, (3, 2): 40, (4, 1): 6,
        (1, 5): 1, (2, 4): 25, (3, 3): 65, (4, 2): 25, (5, 1): 1,
    }
    assert dict(s.items()) == expected


def test_every_block_is_uv_symmetric():
    for g in range(1, 8):
        assert hp_jacobian(g).is_symmetric()
        plus, minus = hp_plusminus_jac_pair(g)
        assert plus.is_symmetric()
        assert minus.is_symmetric()
        assert hp_nt_zts(g).num.is_symmetric()


def test_rank2_box_holds_every_tracked_bound_within_a_byte(monkeypatch):
    # the record's box is sized by _rank2_bound(g): at least every
    # coefficient bound that any rank-2 entry point tracks at genus g, and
    # below 256 times the largest, so no slot is a byte wider than a call
    # needs
    seen = []
    check = packed._Slots.check

    def recording(box, bound, top):
        seen.append(bound)
        return check(box, bound, top)

    # every layout's check passes the bound through _Slots.check
    monkeypatch.setattr(packed._Slots, "check", recording)
    calls = (
        rank2.hp_moduli_stable_rank2,
        rank2.hodge_deligne_stable_rank2,
        rank2.rank2_strata,
        rank2.stable_rank2_closed_form,
        rank2.deligne_rank2_closed_form,
        hp_nt_zts,
        hp_plusminus_jac_pair,
        hp_ss_rank2_closed_form,
    )
    for g in range(2, 25):
        seen.clear()
        for call in calls:
            call(g)
        bound = blocks._rank2_bound(g)
        assert bound >= max(seen) > bound // 256, g
