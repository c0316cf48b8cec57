"""Exact convex geometry of weight systems.

The unstable strata of a linearized group action are indexed by the
nonzero points beta that are closest to the origin in the convex hull of
some subset of the torus weights.  At the scale that occurs here (a
handful of rational weight vectors in dimension at most 4) exact
computation is cheap: the minimizer is found by projecting the origin
onto affine hulls of small subsets and checking the global optimality
inequality x.p >= |x|^2 exactly.

The searches run in integers.  The points are scaled once by the lcm L
of their denominators, and one table of their pairwise products is built
per search.  A pair or a triple is projected in closed form from that
table (``_segments``, ``_triangles``): a segment by the two products
t = G_ii - G_ij and d = |p_i - p_j|^2, a triangle by Cramer's rule on
its 2x2 Gram system, and the signs of the integer barycentric
coordinates are tested before any point is formed.  A subset of four or
more points is solved by fraction-free (Bareiss) Gauss-Jordan
elimination, ``_project``.  Each returns integer coordinates over a
common denominator den, and the point X with x = X/(den*L) is formed
only after the hull test, for a subset whose coordinates are all >= 0.
Sign tests, the chamber test, support membership, the codimension count
and the optimality inequality are integer comparisons.  ``index_set``
also sorts on integers: with D the largest denominator among its kept
indices, floor(X.X*D^4/den^2) and floor(X_i*D^2/den) order |beta|^2 and
the components of beta exactly, and a ``Fraction`` is built only for a
point that is returned.  ``min_norm_point`` and ``index_set`` share one
search, ``_hull_projections``.
``affine_projection`` and ``solve_linear`` work over ``Fraction`` and
stay as the reference that the all-faces oracle and the tests compare
against.

Whether every adjoint orbit meets the index set of the blown-up
representation in at most one point is a hypothesis on the supplied
system, not something checked here; callers own that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from operator import mul

from .errors import DomainError, InternalCheckError
from .poly import as_int

# index_set projects the sum over k <= dim of C(m, k) subsets of the m
# distinct weights, and pairs each candidate they give with all m weights
# once, for its support and its stratum's codimension together; it refuses
# a system with more subset-weight pairs than this.  Near the cap, on
# random systems of distinct weights with no chamber (every candidate
# kept), a whole ``beta index-set`` run, which prints each index with its
# codimension, took 1.0-1.6 s in dimension 1 (1414 weights), 1.1-1.8 s in
# 2 (158), 1.4-2.0 s in 3 (58) and 2.0-2.8 s in 4 (34) on a shared 2-core
# Xeon with Python 3.11 (eight runs each), nearly all of it in index_set.
# Pairs and triples are projected in closed form and larger subsets by
# elimination, so dimension 4, whose 46,376 quadruples are eliminated,
# takes longest.
# The largest benchmark system (dimension 4, 11 weights) has 561
# subsets, 6171 pairs.
MAX_SUBSET_TESTS = 2_000_000


def _vec(values):
    return tuple(map(_coordinate, values))


def _coordinate(x):
    """x as a Fraction: a Fraction is kept as it is, an int or a fraction
    string is read, and a float or a boolean is refused."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (bool, float)):
        raise DomainError("coordinates must be integers or fractions, got %r" % (x,))
    return Fraction(x)


def dot(a, b):
    return sum(map(mul, a, b))


def norm_sq(a):
    return sum(x * x for x in a)


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vscale(c, a):
    return tuple(c * x for x in a)


def _scale(vectors):
    """(L, [L*v for v in vectors]) with L > 0 the lcm of all denominators,
    so the scaled vectors are integer tuples."""
    big = lcm(*(x.denominator for v in vectors for x in v))
    return big, [tuple(x.numerator * (big // x.denominator) for x in v) for v in vectors]


def solve_linear(matrix, rhs):
    """Solve a square rational system by Gaussian elimination.

    Returns None when the matrix is singular.
    """
    n = len(rhs)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = None
        for row in range(col, n):
            if aug[row][col] != 0:
                pivot = row
                break
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1, 1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for row in range(n):
            if row != col and aug[row][col] != 0:
                factor = aug[row][col]
                aug[row] = [x - factor * y for x, y in zip(aug[row], aug[col])]
    return [aug[i][n] for i in range(n)]


def affine_projection(points):
    """Project the origin onto the affine hull of the given points.

    Returns (x, barycentric coordinates), or None when the points are
    affinely dependent (a smaller subset spans the same hull).
    """
    base = points[0]
    dirs = [vsub(p, base) for p in points[1:]]
    if not dirs:
        return base, (Fraction(1),)
    gram = [[dot(di, dj) for dj in dirs] for di in dirs]
    rhs = [-dot(base, di) for di in dirs]
    ts = solve_linear(gram, rhs)
    if ts is None:
        return None
    x = base
    for t, direction in zip(ts, dirs):
        x = vadd(x, vscale(t, direction))
    coords = (Fraction(1) - sum(ts),) + tuple(ts)
    return x, coords


def _project(gram, subset):
    """Project the origin onto the affine hull of integer points, in integers.

    ``gram`` is the table of pairwise products of the points and ``subset``
    holds the indices of some of them.  Returns (den, coords) with
    den > 0: the projection is sum(coords[k] * p_k)/den over the subset's
    points p_k (``_combine``), and its barycentric coordinates are
    coords/den.  Returns None when the points are affinely dependent.

    The Gram system of the directions p_i - p_0 has the entries
    G_ij - G_i0 - G_0j + G_00 and the right-hand side G_00 - G_0i, read
    from the table.  It is solved by fraction-free Gauss-Jordan
    elimination; every division is exact, and the last pivot is the Gram
    determinant.  The Gram matrix is positive semidefinite, so a zero pivot
    (a vanishing leading principal minor) means it is singular and no row
    exchange is needed.
    """
    i0, *rest = subset
    g0 = gram[i0]
    g00 = g0[i0]
    rows = []
    for i in rest:
        gi = gram[i]
        r = g00 - g0[i]
        rows.append([gi[j] - g0[j] + r for j in rest] + [r])
    den = 1
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        if pivot == 0:
            return None
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(pivot * a - f * b) // den for a, b in zip(row, pivot_row)]
        den = pivot
    ts = [row[-1] for row in rows]
    return den, [den - sum(ts)] + ts


def _combine(coords, subset, points):
    """sum(coords[k] * points[subset[k]]): the integer point X of a
    projection (den, coords) from ``_project``."""
    return tuple(sum(map(mul, coords, column)) for column in zip(*(points[i] for i in subset)))


def _segments(points, gram):
    """(X, den) for each pair i < j of the integer points whose segment
    holds X/den, the projection of the origin onto their line, in
    ``combinations`` order; ``gram`` is the table of their pairwise
    products.

    With t = G_ii - G_ij and d = |p_i - p_j|^2 = t + G_jj - G_ij, the
    projection is ((d - t) p_i + t p_j)/d, which is what ``_project``
    gives.  A repeated point (d = 0) spans no line."""
    n = len(points)
    for i, gi in enumerate(gram):
        gii = gi[i]
        pi = points[i]
        for j in range(i + 1, n):
            t = gii - gi[j]
            d = t + gram[j][j] - gi[j]
            if d and 0 <= t <= d:
                s = d - t
                yield tuple(s * a + t * b for a, b in zip(pi, points[j])), d


def _triangles(points, gram):
    """(X, den) for each triple i < j < k of the integer points whose
    triangle holds X/den, the projection of the origin onto its plane, in
    ``combinations`` order; ``gram`` is the table of their pairwise
    products.

    The Gram system of the directions p_j - p_i, p_k - p_i has the entries
    m11, m12, m22 and the right-hand side r1, r2 that ``_project`` builds.
    By Cramer's rule its solution is (t1, t2)/det with det = m11 m22 - m12^2,
    t1 = r1 m22 - m12 r2 and t2 = m11 r2 - m12 r1, the integers Bareiss
    elimination returns, and the barycentric coordinates are
    (det - t1 - t2, t1, t2)/det, whose signs are tested one by one.  The
    Gram matrix is positive semidefinite, so det = 0 exactly when the
    three points are affinely dependent, and det > 0 otherwise."""
    n = len(points)
    for i, gi in enumerate(gram):
        gii = gi[i]
        pi = points[i]
        for j in range(i + 1, n):
            gj = gram[j]
            r1 = gii - gi[j]
            m11 = r1 + gj[j] - gi[j]
            if not m11:
                # p_j repeats p_i: every triple (i, j, k) is dependent
                continue
            pj = points[j]
            for k in range(j + 1, n):
                r2 = gii - gi[k]
                m12 = gj[k] - gi[k] + r1
                m22 = r2 + gram[k][k] - gi[k]
                t1 = r1 * m22 - m12 * r2
                if t1 < 0:
                    continue
                t2 = m11 * r2 - m12 * r1
                if t2 < 0:
                    continue
                det = m11 * m22 - m12 * m12
                t0 = det - t1 - t2
                if det and t0 >= 0:
                    yield tuple(t0 * a + t1 * b + t2 * c for a, b, c in zip(pi, pj, points[k])), det


def _hull_projections(points, max_size):
    """(X, den) for each affinely independent subset of at most max_size
    integer points whose hull contains X/den, the projection of the origin
    onto their affine hull; by subset size, in ``combinations`` order.

    A single point is its own projection, (p, 1).  Larger subsets read
    their Gram systems from one table of the pairwise products of the
    points, built once per search (not at all when max_size is 1).  Pairs
    and triples are projected in closed form (``_segments``,
    ``_triangles``) and larger subsets by ``_project``; X is formed only
    for a subset whose coordinates are all >= 0."""
    if max_size < 1:
        return
    for p in points:
        yield p, 1
    if max_size < 2:
        return
    gram = [[dot(p, q) for q in points] for p in points]
    yield from _segments(points, gram)
    if max_size < 3:
        return
    yield from _triangles(points, gram)
    indices = range(len(points))
    for size in range(4, min(len(points), max_size) + 1):
        for subset in combinations(indices, size):
            proj = _project(gram, subset)
            if proj is not None and min(proj[1]) >= 0:
                yield _combine(proj[1], subset, points), proj[0]


def min_norm_point(points):
    """The unique point of the convex hull of ``points`` closest to 0.

    Exact.  The minimizer lies in the relative interior of a face, so it
    is the projection of the origin onto the affine hull of at most dim+1
    affinely independent input points; a candidate is accepted once the
    supporting inequality x.p >= |x|^2 holds for every input point, which
    characterizes the projection.  With the points scaled to integers P
    and x = X/(den*L), the inequality reads X.P*den >= X.X.
    """
    pts = [_vec(p) for p in points]
    if not pts:
        raise DomainError("need at least one point")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise DomainError("points must share a dimension")
    big, scaled = _scale(sorted(set(pts)))
    for x, den in _hull_projections(scaled, dim + 1):
        xx = dot(x, x)
        if all(dot(x, p) * den >= xx for p in scaled):
            return tuple(Fraction(c, den * big) for c in x)
    raise InternalCheckError("projection onto the hull not found; search is incomplete")


@dataclass(frozen=True)
class WeightSystem:
    """Weights (with multiplicities), roots, and a positive-chamber cone.

    dim is the dimension of the ambient rational vector space; chamber
    holds the linear functionals s with the closed chamber given by
    x.s >= 0 for all of them.  Roots must be closed under negation.

    The weights, roots and chamber functionals are also kept scaled to
    integers (see ``_scale``) in attributes that are not dataclass fields,
    so equality, hashing and repr see only the four fields.  The integer
    weights are the distinct vectors, in the order of
    ``distinct_weight_vectors``, each with its multiplicities summed.
    """

    dim: int
    weights: tuple
    roots: tuple
    chamber: tuple

    def __post_init__(self):
        if as_int(self.dim, "dimension") < 0:
            raise DomainError("dimension must be non-negative")
        weights = tuple((_vec(v), as_int(m, "multiplicity")) for v, m in self.weights)
        roots = tuple(_vec(r) for r in self.roots)
        chamber = tuple(_vec(s) for s in self.chamber)
        for v, m in weights:
            if len(v) != self.dim:
                raise DomainError("weight dimension mismatch")
            if m < 1:
                raise DomainError("multiplicities must be positive")
        for r in roots:
            if len(r) != self.dim:
                raise DomainError("root dimension mismatch")
            if all(x == 0 for x in r):
                raise DomainError("roots must be nonzero")
        for s in chamber:
            if len(s) != self.dim:
                raise DomainError("chamber functional dimension mismatch")
        if set(roots) != {vscale(Fraction(-1), r) for r in roots}:
            raise DomainError("root system not negation-closed")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "chamber", chamber)
        big, scaled = _scale([v for v, _ in weights])
        mults = {}
        for p, (_, m) in zip(scaled, weights):
            mults[p] = mults.get(p, 0) + m
        object.__setattr__(self, "_int_weights", (big, tuple(mults.items())))
        object.__setattr__(self, "_int_roots", tuple(_scale(roots)[1]))
        object.__setattr__(self, "_int_chamber", tuple(_scale(chamber)[1]))

    def distinct_weight_vectors(self):
        return list(dict.fromkeys(v for v, _ in self.weights))

    def in_chamber(self, x):
        """Whether x.s >= 0 for every chamber functional s; x may hold
        Fractions or ints.  Read from the functionals scaled to integers by
        a positive factor, which keeps the sign of every pairing."""
        return all(dot(x, s) >= 0 for s in self._int_chamber)


@dataclass(frozen=True)
class BetaIndex:
    """A nonzero index point with the weights supporting it.

    An index returned by ``index_set`` also carries its stratum's
    codimension, with the system it was counted in, in an attribute that
    is not a dataclass field (see ``stratum_codim``); equality, hashing,
    repr and ``dataclasses.replace`` see only the two fields."""

    beta: tuple
    support: tuple


def _support_codim(ws, x, den):
    """(support, codim) of the integer point (X, den), beta = X/(den*L):
    the positions in ``ws._int_weights`` of the weights on beta's
    supporting hyperplane, and the stratum's codimension.

    One pass over the distinct integer weights P pairs each with X: with
    v = P/L, v.beta = |beta|^2 reads P.X*den == X.X, and v.beta < |beta|^2
    reads P.X*den < X.X, which adds the weight's multiplicity to the count
    below the hyperplane.  The codimension is that count minus the roots
    negative against beta (the dimension of G/P for the parabolic attached
    to beta)."""
    xx = sum(map(mul, x, x))
    support = []
    below = 0
    for i, (p, m) in enumerate(ws._int_weights[1]):
        t = sum(map(mul, p, x)) * den
        if t < xx:
            below += m
        elif t == xx:
            support.append(i)
    return support, below - sum(1 for r in ws._int_roots if sum(map(mul, r, x)) < 0)


def index_set(ws):
    """All nonzero positive-chamber indices of the weight system.

    beta qualifies iff it is the minimum-norm point of the hull of its
    own support {alpha : alpha.beta = |beta|^2}.  Candidates are the
    projections of the origin onto the affine hulls of affinely
    independent subsets of at most dim weights that land inside their
    hull.  The minimizer over any hull is such a projection for at most
    dim+1 independent vertices of a face; a nonzero beta lies in that
    face's hull, inside the hyperplane x.beta = |beta|^2, so the face has
    at most dim independent vertices.  dim+1 independent points span the
    whole space and project 0 onto 0, which is never an index.

    Every candidate in the chamber qualifies, so none is searched again
    with ``min_norm_point``: it lies in the hull of the subset it was
    projected from, that subset lies in its support, and every point p
    of the support has p.beta = |beta|^2, the inequality that
    characterizes the minimizer.

    The weights are scaled to integers once (``WeightSystem`` keeps them)
    and projected by ``_hull_projections``; candidates are told apart by
    the reduced integer pair (X, den) with beta = X/(den*L).  The chamber
    test runs on X, and one pass of ``_support_codim`` over the weights
    finds each candidate's support and counts its stratum's codimension
    from the same products; the index keeps that count for
    ``stratum_codim``.

    The kept indices are sorted on integers.  With D the largest den among
    them, two distinct values of X.X/den^2 differ by at least 1/D^4 and
    two distinct values of X_i/den by at least 1/D^2, so
    floor(X.X*D^4/den^2) orders |beta|^2 = X.X/(den*L)^2 and
    floor(X_i*D^2/den) orders beta_i exactly.  Only the returned indices
    become ``Fraction`` vectors.

    A system with more than ``MAX_SUBSET_TESTS`` subset-weight pairs is
    refused with a DomainError before any projection.

    Sorted by |beta|^2 then lexicographically.
    """
    vectors = ws.distinct_weight_vectors()
    big, weights = ws._int_weights
    scaled = [p for p, _ in weights]
    subsets = sum(comb(len(scaled), k) for k in range(1, min(len(scaled), ws.dim) + 1))
    if subsets * len(scaled) > MAX_SUBSET_TESTS:
        raise DomainError(
            "%d subsets of %d distinct weights make %d subset-weight pairs, above the cap of %d"
            % (subsets, len(scaled), subsets * len(scaled), MAX_SUBSET_TESTS)
        )
    candidates = set()
    for x, den in _hull_projections(scaled, ws.dim):
        g = gcd(den, *x)
        candidates.add((tuple(c // g for c in x), den // g))

    kept = []
    for x, den in candidates:
        if not any(x) or not ws.in_chamber(x):
            continue
        support, codim = _support_codim(ws, x, den)
        if support:
            kept.append((x, den, support, codim))
    if len(kept) > 1:
        top = max(den for _, den, _, _ in kept)
        top2 = top * top
        top4 = top2 * top2

        def key(entry):
            x, den = entry[0], entry[1]
            return (sum(map(mul, x, x)) * top4 // (den * den), *(c * top2 // den for c in x))

        kept.sort(key=key)
    out = []
    for x, den, support, codim in kept:
        scale = den * big
        beta = tuple(Fraction(c, scale) for c in x)
        bi = BetaIndex(beta=beta, support=tuple(vectors[i] for i in support))
        object.__setattr__(bi, "_codim", (ws, codim))
        out.append(bi)
    return out


def stratum_codim(ws, beta_index):
    """Codimension of the unstable stratum attached to beta.

    Counts the weights strictly below the supporting hyperplane of beta,
    minus the number of roots negative against beta (the dimension of
    G/P for the parabolic attached to beta); a beta of another dimension
    than the system's is refused.

    An index that ``index_set`` returned for this very system object
    carries the count from its support pass, which is returned.  Any
    other index (built by hand, or one asked of an equal but distinct
    system) is counted by the same ``_support_codim``: with beta = B/M,
    the point X = B*L over den = M is beta on the system's integer
    weights.
    """
    stored = getattr(beta_index, "_codim", None)
    if stored is not None and stored[0] is ws:
        return stored[1]
    beta = _vec(beta_index.beta)
    if len(beta) != ws.dim:
        raise DomainError("beta has dimension %d, the weight system %d" % (len(beta), ws.dim))
    bscale, (b,) = _scale([beta])
    big = ws._int_weights[0]
    return _support_codim(ws, tuple(c * big for c in b), bscale)[1]
