"""The bundled verification suite.

Each criterion is a callable returning (ok, detail); run_all prints one
PASS/FAIL line per criterion.  The same functions back the ``verify``
subcommand and the test suite, so the shipped binary can re-certify
itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from . import convex
from .blocks import hp_bgl, hp_jacobian, hp_nt_zts, hp_plusminus_bt, hp_plusminus_jac_pair
from .hntypes import ReductiveClass, codim_deeper_stratum
from .poly import ONE, U, V, LaurentPoly, dual_substitute, uv_power
from .rank2 import (
    assemble_stable_hp,
    deligne_rank2_closed_form,
    hp_moduli_stable_rank2,
    moduli_dimension_rank2,
    rank2_strata,
    stable_rank2_closed_form,
    weight_system_adjoint_sl2,
    weight_system_torus,
)
from .semistable import (
    SemistableSeries,
    hp_ss_rank2_closed_form,
    moduli_dimension,
    ss_closed_form,
    stable_coprime_polynomial,
)
from .series import FactoredRational
from .univariate import diagonal_stable_coprime

DEFAULT_GENERA_PIPELINE = tuple(range(2, 9))
DEFAULT_GENERA_CODIM = tuple(range(2, 11))


def criterion_stable_rank2_closed_form(genera=DEFAULT_GENERA_PIPELINE):
    """(1-uv) * (ss minus shifted strata) equals the closed form, exactly."""
    for g in genera:
        assembled = assemble_stable_hp(hp_ss_rank2_closed_form(g), rank2_strata(g))
        pipeline = assembled * (ONE - U * V)
        if not pipeline.equals(stable_rank2_closed_form(g)):
            return False, "pipeline != closed form at genus %d" % g
        poly = hp_moduli_stable_rank2(g)
        if poly.constant_term != 1 or not poly.is_integral() or not poly.is_symmetric():
            return False, "polynomial sanity failed at genus %d" % g
    return True, "genera %s" % (list(genera),)


def criterion_compact_support_dual(genera=DEFAULT_GENERA_PIPELINE):
    """Duality at the moduli dimension lands on the compact-support form."""
    for g in genera:
        dual = dual_substitute(hp_moduli_stable_rank2(g), moduli_dimension_rank2(g))
        if not FactoredRational(dual).equals(deligne_rank2_closed_form(g)):
            return False, "dual mismatch at genus %d" % g
    return True, "genera %s" % (list(genera),)


def criterion_recursion_vs_closed_form(genera=(2, 3), order=24):
    """The inductive series agrees with the rank-2 closed form, term by term."""
    for g in genera:
        recursive = SemistableSeries().series(2, 0, g, order)
        closed = hp_ss_rank2_closed_form(g).series_expand(order)
        if recursive != closed:
            return False, "series mismatch at genus %d order %d" % (g, order)
    return True, "genera %s to order %d" % (list(genera), order)


def criterion_degree_shift(order=16):
    """Replacing d by d + n leaves the series unchanged (fresh caches on
    both sides, so the two type sums are genuinely recomputed)."""
    for n, g in ((2, 2), (3, 2)):
        for d in (0, 1):
            lhs = SemistableSeries().series(n, d, g, order)
            rhs = SemistableSeries().series(n, d + n, g, order)
            if lhs != rhs:
                return False, "shift mismatch at rank %d degree %d" % (n, d)
    return True, "ranks 2 and 3, degrees 0 and 1, order %d" % order


def criterion_codim_double_entry(genera=DEFAULT_GENERA_CODIM):
    """Each stratum codimension from two independent formulas."""
    # Each index comes from a fresh, equal system, not the one passed to
    # stratum_codim, so the count stored by index_set is not read back:
    # stratum_codim counts again on its general path.
    # Nor is the rank-2 calls' store (rank2._stratum_codims) read: an independent route.
    for g in genera:
        checks = (
            ("gl2", codim_deeper_stratum(ReductiveClass(((2, 1),)), 2, g), 3 * g),
            (
                "beta1",
                convex.stratum_codim(
                    weight_system_adjoint_sl2(g), convex.index_set(weight_system_adjoint_sl2(g))[0]
                ),
                2 * g - 1,
            ),
            ("t", codim_deeper_stratum(ReductiveClass(((1, 1), (1, 1))), 2, g), 2 * g - 2),
            (
                "beta2",
                convex.stratum_codim(
                    weight_system_torus(g), convex.index_set(weight_system_torus(g))[0]
                ),
                g - 1,
            ),
        )
        for label, got, expected in checks:
            if got != expected:
                return False, "%s codim %d != %d at genus %d" % (label, got, expected, g)
    return True, "four strata, genera %s" % (list(genera),)


def criterion_index_set_counts(genera=DEFAULT_GENERA_CODIM):
    """Both weight systems carry exactly one unstable index."""
    for g in genera:
        for name, ws in (("adjoint", weight_system_adjoint_sl2(g)), ("torus", weight_system_torus(g))):
            indices = convex.index_set(ws)
            if len(indices) != 1:
                return False, "%s system has %d indices at genus %d" % (name, len(indices), g)
            if indices[0].beta != (Fraction(2),):
                return False, "%s system index is %s at genus %d" % (name, indices[0].beta, g)
    return True, "two systems, genera %s" % (list(genera),)


def _oracle_min_norm(points):
    """All-faces reference: project 0 onto the affine hull of every
    subset, keep in-hull candidates, take the smallest norm."""
    best = None
    unique = sorted(set(points))
    for size in range(1, len(unique) + 1):
        for subset in combinations(unique, size):
            proj = convex.affine_projection(list(subset))
            if proj is None:
                continue
            x, coords = proj
            if any(c < 0 for c in coords):
                continue
            if best is None or convex.norm_sq(x) < convex.norm_sq(best):
                best = x
    return best


def criterion_min_norm_oracle(instances=200, seed=20260811):
    rng = random.Random(seed)
    for trial in range(instances):
        dim = rng.randint(1, 3)
        count = rng.randint(1, 8)
        points = []
        for _ in range(count):
            vec = []
            for _ in range(dim):
                den = rng.randint(1, 3)
                num = rng.randint(-5 * den, 5 * den)
                vec.append(Fraction(num, den))
            points.append(tuple(vec))
        fast = convex.min_norm_point(points)
        slow = _oracle_min_norm(points)
        if fast != slow:
            return False, "disagreement on trial %d: %s vs %s" % (trial, fast, slow)
    return True, "%d randomized instances" % instances


def criterion_invariant_suite(genera=tuple(range(1, 11)), seed=4057):
    """Symmetry, constant terms, integrality, involution, eigenspace sums."""
    rng = random.Random(seed)
    bt_plus, bt_minus = hp_plusminus_bt()
    if not (bt_plus + bt_minus).equals(hp_bgl(1) * hp_bgl(1)):
        return False, "torus eigenspace parts do not sum to HP(BT)"
    for g in genera:
        jac = hp_jacobian(g)
        if not jac.is_symmetric() or jac.constant_term != 1:
            return False, "jacobian block broken at genus %d" % g
        plus, minus = hp_plusminus_jac_pair(g)
        if plus.constant_term != 1 or minus.constant_term != 0:
            return False, "eigenspace constant terms wrong at genus %d" % g
        if not plus.is_integral() or not minus.is_integral():
            return False, "eigenspace halves non-integral at genus %d" % g
        if jac * jac != (plus + minus) + uv_power(g) * jac:
            return False, "disjoint-union additivity witness fails at genus %d" % g
        nt = hp_nt_zts(g)
        if not nt.num.is_symmetric():
            return False, "split-pair numerator asymmetric at genus %d" % g
        if nt.series_expand(0).coefficient(0, 0) != 1:
            return False, "split-pair constant term != 1 at genus %d" % g
    for g in range(11, 13):
        plus, minus = hp_plusminus_jac_pair(g)
        if not plus.is_integral() or not minus.is_integral():
            return False, "eigenspace halves non-integral at genus %d" % g
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 8)):
            terms[(rng.randint(-3, 5), rng.randint(-3, 5))] = rng.randint(-4, 4)
        p = LaurentPoly(terms)
        dim = rng.randint(0, 6)
        if dual_substitute(dual_substitute(p, dim), dim) != p:
            return False, "dual substitution is not an involution"
    return True, "genera %s plus randomized involution checks" % (list(genera),)


def criterion_coprime_sanity(n=2, d=1, g=2):
    poly = stable_coprime_polynomial(n, d, g)
    if poly.constant_term != 1:
        return False, "constant term != 1"
    if not poly.is_symmetric():
        return False, "not u<->v symmetric"
    if not poly.is_integral():
        return False, "non-integer coefficients"
    dim = moduli_dimension(n, g)
    diagonal = poly.specialize_diagonal()
    reference = diagonal_stable_coprime(n, d, g, 2 * dim)
    for k in range(2 * dim + 1):
        if diagonal.get(k, 0) != reference[k]:
            return False, "diagonal coefficient t^%d: %s != %s" % (
                k,
                diagonal.get(k, 0),
                reference[k],
            )
    return True, "rank %d degree %d genus %d against the diagonal recursion" % (n, d, g)


def criterion_ss_closed_form(ranks=range(2, 7), g=2, order=20):
    """The HN recursion equals the closed-form sum over compositions, term
    by term, for every residue class; non-coprime degrees included."""
    evaluator = SemistableSeries()
    for n in ranks:
        for d in range(n):
            if evaluator.series(n, d, g, order) != ss_closed_form(n, d, g).series_expand(order):
                return False, "series mismatch at rank %d degree %d" % (n, d)
    return True, "ranks %s, every residue, genus %d to order %d" % (list(ranks), g, order)


CRITERIA = (
    ("stable-rank2-closed-form", criterion_stable_rank2_closed_form, True),
    ("compact-support-dual", criterion_compact_support_dual, True),
    ("recursion-vs-closed-form", criterion_recursion_vs_closed_form, True),
    ("degree-shift-invariance", criterion_degree_shift, False),
    ("codimension-double-entry", criterion_codim_double_entry, True),
    ("index-set-counts", criterion_index_set_counts, True),
    ("min-norm-oracle", criterion_min_norm_oracle, False),
    ("invariant-suite", criterion_invariant_suite, False),
    ("coprime-sanity", criterion_coprime_sanity, False),
    ("ss-closed-form", criterion_ss_closed_form, False),
)


def run_all(genus=None, report=print):
    """Run every criterion, printing one line each; True iff all pass.

    With a genus, the genus-parametric criteria are restricted to that
    single value; fixed-instance criteria run unchanged.
    """
    all_ok = True
    for name, func, genus_parametric in CRITERIA:
        if genus is not None and genus_parametric:
            ok, detail = func(genera=(genus,))
        else:
            ok, detail = func()
        all_ok = all_ok and ok
        report("%s %s (%s)" % ("PASS" if ok else "FAIL", name, detail))
    return all_ok
