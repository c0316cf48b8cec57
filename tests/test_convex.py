import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest

import hpbundles.convex
from hpbundles import (
    BetaIndex,
    DomainError,
    WeightSystem,
    index_set,
    min_norm_point,
    serialize,
    stratum_codim,
)
from hpbundles.convex import (
    _combine,
    _hull_projections,
    _project,
    _scale,
    _segments,
    _triangles,
    affine_projection,
    dot,
    norm_sq,
)
from hpbundles.rank2 import weight_system_adjoint_sl2, weight_system_torus


def oracle_min_norm(points):
    """All-faces reference minimizer (no optimality shortcut)."""
    best = None
    unique = sorted({tuple(Fraction(x) for x in p) for p in points})
    for size in range(1, len(unique) + 1):
        for subset in combinations(unique, size):
            proj = affine_projection(list(subset))
            if proj is None:
                continue
            x, coords = proj
            if any(c < 0 for c in coords):
                continue
            if best is None or norm_sq(x) < norm_sq(best):
                best = x
    return best


def test_min_norm_examples():
    assert min_norm_point([(2,), (0,), (-2,)]) == (0,)
    assert min_norm_point([(1, 0), (0, 1)]) == (Fraction(1, 2), Fraction(1, 2))
    assert min_norm_point([(2, 0), (0, 2), (2, 2)]) == (1, 1)
    assert min_norm_point([(2, 0), (0, 2), (2, 2)]) == oracle_min_norm(
        [(2, 0), (0, 2), (2, 2)]
    )


def test_min_norm_empty_rejected():
    with pytest.raises(DomainError):
        min_norm_point([])


def test_min_norm_optimality_certificate_random():
    rng = random.Random(11)
    for _ in range(120):
        dim = rng.randint(1, 3)
        pts = [
            tuple(Fraction(rng.randint(-10, 10), rng.randint(1, 2)) for _ in range(dim))
            for _ in range(rng.randint(1, 8))
        ]
        x = min_norm_point(pts)
        xx = norm_sq(x)
        assert all(sum(a * b for a, b in zip(x, p)) >= xx for p in pts)
        assert x == oracle_min_norm(pts)


def adjoint_system(g):
    return weight_system_adjoint_sl2(g)


def torus_system(g):
    return weight_system_torus(g)


def test_index_set_adjoint_system():
    for g in range(2, 11):
        indices = index_set(adjoint_system(g))
        assert len(indices) == 1
        assert indices[0].beta == (2,)
        assert indices[0].support == ((2,),)


def test_index_set_torus_system():
    for g in range(2, 11):
        indices = index_set(torus_system(g))
        assert len(indices) == 1
        assert indices[0].beta == (2,)


def test_index_set_single_weight():
    ws = WeightSystem(dim=2, weights=(((1, 2), 1),), roots=(), chamber=((1, 0), (0, 1)))
    indices = index_set(ws)
    assert len(indices) == 1
    assert indices[0].beta == (1, 2)


def test_index_set_drops_out_of_chamber_candidates():
    ws = WeightSystem(dim=1, weights=(((2,), 1), ((-2,), 1)), roots=(), chamber=((1,),))
    assert [bi.beta for bi in index_set(ws)] == [(2,)]


def test_stratum_codim_paper_systems():
    for g in range(2, 11):
        ws = adjoint_system(g)
        assert stratum_codim(ws, index_set(ws)[0]) == 2 * g - 1
        wt = torus_system(g)
        assert stratum_codim(wt, index_set(wt)[0]) == g - 1


def test_stratum_codim_no_weight_below():
    ws = WeightSystem(dim=1, weights=(((2,), 3),), roots=(), chamber=((1,),))
    bi = index_set(ws)[0]
    assert stratum_codim(ws, bi) == 0


def test_negation_closure_enforced():
    with pytest.raises(DomainError, match="negation-closed"):
        WeightSystem(dim=1, weights=(((2,), 1),), roots=((2,),), chamber=())


def test_stratum_codim_wrong_length_rejected():
    with pytest.raises(DomainError, match="dimension 2"):
        stratum_codim(adjoint_system(3), BetaIndex((2, 0), ()))


def test_scaling_invariance_of_counts():
    for g in (2, 4):
        base = adjoint_system(g)
        factor = Fraction(3, 2)
        scaled = WeightSystem(
            dim=1,
            weights=tuple((tuple(factor * x for x in v), m) for v, m in base.weights),
            roots=tuple(tuple(factor * x for x in r) for r in base.roots),
            chamber=base.chamber,
        )
        base_idx = index_set(base)
        scaled_idx = index_set(scaled)
        assert len(base_idx) == len(scaled_idx) == 1
        assert scaled_idx[0].beta == tuple(factor * x for x in base_idx[0].beta)
        assert len(scaled_idx[0].support) == len(base_idx[0].support)
        assert stratum_codim(scaled, scaled_idx[0]) == stratum_codim(base, base_idx[0])


def test_index_set_deterministic_order():
    ws = WeightSystem(
        dim=2,
        weights=(((2, 0), 1), ((0, 1), 1), ((3, 3), 1)),
        roots=(),
        chamber=(),
    )
    indices = index_set(ws)
    norms = [norm_sq(b.beta) for b in indices]
    assert norms == sorted(norms)


def test_index_set_order_matches_fraction_key():
    # weights from the orbits of small integer vectors under coordinate
    # swaps and sign flips, so that many indices tie in |beta|^2 and their
    # components take both signs and differ by less than 1/den; a factor
    # 1 + 2^-100 sets norms apart by less than a float resolves, and a
    # factor 2^-100 gives denominators of 2^100
    eps = Fraction(1, 2**100)
    rng = random.Random(6011)
    tied = close = negative = huge = 0
    for _ in range(60):
        orbit = sorted(
            {
                (sx * a, sy * b)
                for x, y in ((rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(2))
                for a, b in ((x, y), (y, x))
                for sx in (1, -1)
                for sy in (1, -1)
            }
        )
        vectors = rng.sample(orbit, min(len(orbit), 7))
        vectors += [tuple((1 + eps) * x for x in v) for v in rng.sample(vectors, rng.randint(0, 2))]
        vectors += [tuple(eps * x for x in v) for v in rng.sample(vectors, rng.randint(0, 2))]
        ws = WeightSystem(dim=2, weights=tuple((v, 1) for v in dict.fromkeys(vectors)), roots=(), chamber=())
        got = [bi.beta for bi in index_set(ws)]
        assert got == sorted(got, key=lambda b: (norm_sq(b), b))
        norms = [norm_sq(b) for b in got]
        tied += len(norms) - len(set(norms))
        close += any(0 < b - a < 2**-90 for a, b in zip(norms, norms[1:]))
        negative += any(c < 0 for b in got for c in b)
        huge += any(c.denominator >= 2**100 for b in got for c in b)
    assert tied > 500 and close > 30 and negative > 50 and huge > 30


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"weights": (((1, 0), 2.5),)}, "multiplicity must be an integer"),
        ({"weights": (((1, 0), True),)}, "multiplicity must be an integer"),
        ({"dim": 1.0, "weights": (((1,), 1),)}, "dimension must be an integer"),
        ({"dim": True, "weights": (((1,), 1),)}, "dimension must be an integer"),
        ({"weights": (((0.1, 0), 1),)}, "coordinates must be integers or fractions"),
        ({"chamber": ((True, 0),)}, "coordinates must be integers or fractions"),
    ],
    ids=["float-mult", "bool-mult", "float-dim", "bool-dim", "float-coordinate", "bool-coordinate"],
)
def test_weight_system_refuses_floats_and_booleans(fields, message):
    # int() would truncate a multiplicity of 2.5 to 2 and read True as 1,
    # dim=1.0 would pass until index_set raised TypeError, and Fraction(0.1)
    # is 3602879701896397/36028797018963968
    system = dict({"dim": 2, "weights": (((1, 0), 1),), "roots": (), "chamber": ()}, **fields)
    with pytest.raises(DomainError, match=message):
        WeightSystem(**system)


def random_rational(rng):
    """A rational with a mixed denominator; now and then a huge one."""
    bound = 2**100 if rng.random() < 0.1 else 6
    return Fraction(rng.randint(-bound, bound), rng.choice((1, 1, 2, 3, 5, 7)))


def random_points(rng, dim, count):
    """Points with repeats and the zero vector mixed in, so affinely
    dependent subsets occur."""
    pts = []
    for _ in range(count):
        roll = rng.random()
        if pts and roll < 0.15:
            pts.append(rng.choice(pts))
        elif roll < 0.25:
            pts.append((Fraction(0),) * dim)
        elif len(pts) >= 2 and roll < 0.35:
            a, b = rng.sample(pts, 2)
            t = Fraction(rng.randint(-3, 3), 2)
            pts.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
        else:
            pts.append(tuple(random_rational(rng) for _ in range(dim)))
    return pts


def gram_table(points):
    return [[dot(p, q) for q in points] for p in points]


def test_project_matches_affine_projection():
    rng = random.Random(20240)
    # the subset sits among other points of the table, in shuffled places
    others = random.Random(20241)
    dependent = independent = 0
    for _ in range(600):
        dim = rng.randint(1, 4)
        pts = random_points(rng, dim, rng.randint(1, dim + 2))
        table = random_points(others, dim, others.randint(0, 4)) + pts
        others.shuffle(table)
        subset = []
        for p in pts:
            subset.append(next(i for i, q in enumerate(table) if q == p and i not in subset))
        big, scaled = _scale(table)
        got = _project(gram_table(scaled), subset)
        want = affine_projection(pts)
        if want is None:
            assert got is None
            dependent += 1
            continue
        independent += 1
        den, coords = got
        x = _combine(coords, subset, scaled)
        assert den > 0
        assert all(isinstance(c, int) for c in x + tuple(coords))
        assert tuple(Fraction(c, den * big) for c in x) == want[0]
        assert tuple(Fraction(c, den) for c in coords) == want[1]
    assert dependent > 50 and independent > 300


def test_closed_forms_match_project():
    # every pair and triple of each point set, on its own and inside the
    # whole search: the closed forms give the X and den of _project and
    # _combine, or nothing where the subset is dependent or misses its hull
    rng = random.Random(4409)
    outcomes = {2: set(), 3: set()}
    for _ in range(150):
        dim = rng.randint(1, 4)
        big, scaled = _scale(random_points(rng, dim, rng.randint(2, 7)))
        table = gram_table(scaled)
        for size, closed in ((2, _segments), (3, _triangles)):
            everything = []
            for subset in combinations(range(len(scaled)), size):
                proj = _project(table, subset)
                want = []
                if proj is not None and min(proj[1]) >= 0:
                    want = [(_combine(proj[1], subset, scaled), proj[0])]
                points = [scaled[i] for i in subset]
                assert list(closed(points, gram_table(points))) == want
                everything += want
                outcomes[size].add("dependent" if proj is None else "inside" if want else "outside")
            assert list(closed(scaled, table)) == everything
    assert outcomes == {2: {"dependent", "inside", "outside"}, 3: {"dependent", "inside", "outside"}}


def reference_hull_projections(points, max_size):
    """The in-hull projections over Fractions, with ``affine_projection``,
    by subset size in ``combinations`` order."""
    out = []
    for size in range(1, min(len(points), max_size) + 1):
        for subset in combinations(points, size):
            proj = affine_projection(list(subset))
            if proj is not None and all(c >= 0 for c in proj[1]):
                out.append(proj[0])
    return out


def test_hull_projections_match_affine_projection():
    rng = random.Random(3301)
    larger = 0
    for _ in range(150):
        dim = rng.randint(1, 4)
        pts = random_points(rng, dim, rng.randint(1, 7))
        big, scaled = _scale(pts)
        for max_size in (0, 1, rng.randint(2, dim + 1)):
            got = list(_hull_projections(scaled, max_size))
            assert all(den > 0 and all(isinstance(c, int) for c in x) for x, den in got)
            want = reference_hull_projections(pts, max_size)
            assert [tuple(Fraction(c, den * big) for c in x) for x, den in got] == want
            larger += max_size > 1 and len(want) > len(pts)
    assert larger > 50


def test_single_point_search_builds_no_table(monkeypatch):
    # dimension-1 index sets search single points only; a table of the
    # pairwise products of the 1414 weights allowed there would cost more
    # time and memory than the search
    products = []
    real_dot = hpbundles.convex.dot
    monkeypatch.setattr(hpbundles.convex, "dot", lambda a, b: products.append(1) or real_dot(a, b))
    big, scaled = _scale(random_points(random.Random(41), 1, 30))
    assert [x for x, _ in _hull_projections(scaled, 1)] == scaled
    assert not products
    list(_hull_projections(scaled, 2))
    assert products


def test_in_chamber_matches_fraction_rule():
    rng = random.Random(9157)
    outcomes = set()
    for _ in range(200):
        dim = rng.randint(1, 4)
        chamber = [tuple(random_rational(rng) for _ in range(dim)) for _ in range(rng.randint(0, 3))]
        ws = WeightSystem(dim=dim, weights=(), roots=(), chamber=tuple(chamber))
        for _ in range(10):
            x = tuple(random_rational(rng) for _ in range(dim))
            if chamber and dim > 1 and rng.random() < 0.3:
                # on the wall of the first functional
                s = chamber[0]
                x = (s[1], -s[0]) + (Fraction(0),) * (dim - 2)
            want = all(sum(a * b for a, b in zip(x, s)) >= 0 for s in ws.chamber)
            assert ws.in_chamber(x) is want
            big, (ints,) = _scale([x])
            assert ws.in_chamber(ints) is want
            outcomes.add((want, bool(chamber)))
    assert outcomes == {(True, True), (False, True), (True, False)}


def reference_min_norm(points):
    """The search of ``min_norm_point`` over Fractions, with
    ``affine_projection``."""
    unique = sorted({tuple(Fraction(x) for x in p) for p in points})
    for size in range(1, min(len(unique), len(unique[0]) + 1) + 1):
        for subset in combinations(unique, size):
            proj = affine_projection(list(subset))
            if proj is None or any(c < 0 for c in proj[1]):
                continue
            x = proj[0]
            if all(dot(x, p) >= norm_sq(x) for p in unique):
                return x
    raise AssertionError("no minimizer found")


def reference_index_set(ws):
    """Index set by projecting every subset of up to dim+1 weights over
    Fractions, with the filters of ``index_set``."""
    vectors = ws.distinct_weight_vectors()
    candidates = set()
    for size in range(1, min(len(vectors), ws.dim + 1) + 1):
        for subset in combinations(vectors, size):
            proj = affine_projection(list(subset))
            if proj is not None and all(c >= 0 for c in proj[1]):
                candidates.add(proj[0])
    out = []
    for beta in candidates:
        if not any(beta) or not ws.in_chamber(beta):
            continue
        bb = norm_sq(beta)
        support = tuple(v for v in vectors if dot(v, beta) == bb)
        if support and reference_min_norm(support) == beta:
            out.append(BetaIndex(beta=beta, support=support))
    out.sort(key=lambda b: (norm_sq(b.beta), b.beta))
    return out


def reference_codim(ws, bi):
    bb = norm_sq(bi.beta)
    below = sum(m for v, m in ws.weights if dot(v, bi.beta) < bb)
    return below - sum(1 for r in ws.roots if dot(r, bi.beta) < 0)


def test_index_set_matches_fraction_reference():
    rng = random.Random(7321)
    indices_seen = 0
    for _ in range(120):
        dim = rng.randint(1, 4)
        vectors = random_points(rng, dim, rng.randint(1, 9 - dim))
        roots = [tuple(random_rational(rng) for _ in range(dim)) for _ in range(rng.randint(0, 2))]
        roots = [r for r in roots if any(r)]
        ws = WeightSystem(
            dim=dim,
            weights=tuple((v, rng.randint(1, 3)) for v in vectors),
            roots=tuple(roots + [tuple(-x for x in r) for r in roots]),
            chamber=tuple(roots[:1] + [tuple(random_rational(rng) for _ in range(dim))] * rng.randint(0, 1)),
        )
        got = index_set(ws)
        assert got == reference_index_set(ws)
        # the qualification rule, which index_set does not search again
        assert all(oracle_min_norm(bi.support) == bi.beta for bi in got)
        assert [stratum_codim(ws, bi) for bi in got] == [reference_codim(ws, bi) for bi in got]
        indices_seen += len(got)
    assert indices_seen > 100


def test_integer_weights_stay_out_of_fields():
    a = WeightSystem(dim=2, weights=(((Fraction(1, 2), 1), 2),), roots=(), chamber=())
    b = WeightSystem(dim=2, weights=((("1/2", 1), 2),), roots=(), chamber=())
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "WeightSystem(dim=2, weights=(((Fraction(1, 2), Fraction(1, 1)), 2),), roots=(), chamber=())"


def test_stored_codim_stays_out_of_fields():
    ws = WeightSystem(dim=1, weights=(((2,), 2), ((0,), 2), ((-2,), 2)), roots=((2,), (-2,)), chamber=((1,),))
    (bi,) = index_set(ws)
    assert bi._codim == (ws, 3)
    plain = BetaIndex(beta=bi.beta, support=bi.support)
    assert bi == plain and hash(bi) == hash(plain)
    assert repr(bi) == repr(plain) == "BetaIndex(beta=(Fraction(2, 1),), support=((Fraction(2, 1),),))"
    assert serialize.beta_index_to_obj(bi) == serialize.beta_index_to_obj(plain)
    for other in (plain, dataclasses.replace(bi), dataclasses.replace(bi, support=())):
        assert not hasattr(other, "_codim")


def test_stored_codim_matches_general_path_and_fraction_count(monkeypatch):
    rng = random.Random(5107)
    real_pass = hpbundles.convex._support_codim
    passes = []
    indices_seen = repeated_seen = flipped_seen = 0
    for _ in range(100):
        dim = rng.randint(1, 4)
        vectors = random_points(rng, dim, rng.randint(2, 8 - dim))
        # a repeated vector enters with its own multiplicity
        vectors += rng.sample(vectors, rng.randint(1, len(vectors)))
        roots = [tuple(random_rational(rng) for _ in range(dim)) for _ in range(rng.randint(1, 2))]
        roots = [r for r in roots if any(r)]
        ws = WeightSystem(
            dim=dim,
            weights=tuple((v, rng.randint(1, 3)) for v in vectors),
            roots=tuple(roots + [tuple(-x for x in r) for r in roots]),
            chamber=tuple(roots[:1] + [tuple(random_rational(rng) for _ in range(dim))] * rng.randint(0, 1)),
        )
        twin = WeightSystem(dim=ws.dim, weights=ws.weights, roots=ws.roots, chamber=ws.chamber)
        assert twin == ws and twin is not ws
        got = index_set(ws)
        monkeypatch.setattr(hpbundles.convex, "_support_codim", lambda *args: passes.append(1) or real_pass(*args))
        for bi in got:
            want = reference_codim(ws, bi)
            passes.clear()
            assert bi._codim == (ws, want) and bi._codim[0] is ws
            assert stratum_codim(ws, bi) == want
            assert not passes
            assert stratum_codim(ws, BetaIndex(beta=bi.beta, support=bi.support)) == want
            assert stratum_codim(twin, bi) == want
            assert len(passes) == 2
            repeated_seen += any(
                sum(1 for v, _ in ws.weights if v == s) > 1 and dot(s, bi.beta) < norm_sq(bi.beta)
                for s in ws.distinct_weight_vectors()
            )
            flipped_seen += any(dot(r, bi.beta) < 0 for r in ws.roots)
        monkeypatch.undo()
        indices_seen += len(got)
    assert indices_seen > 100 and repeated_seen > 60 and flipped_seen > 60
