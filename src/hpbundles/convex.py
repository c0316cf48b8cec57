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
per search; ``_project`` reads each subset's Gram system from that table
and solves it by fraction-free (Bareiss) Gauss-Jordan elimination,
returning integer barycentric coordinates over a common denominator den.
The point X with x = X/(den*L) is formed only after the hull test, for a
subset whose coordinates are all >= 0.  Sign tests, the chamber test,
support membership, the codimension count and the optimality inequality
are integer comparisons, and a ``Fraction`` is built only for a point
that is returned.  ``min_norm_point`` and ``index_set`` share that search,
``_hull_projections``.
``affine_projection`` and ``solve_linear`` work over ``Fraction`` and
stay as the reference that the all-faces oracle and the tests compare
against.  The codimension of a sequence of indices is the sum of
``stratum_codim`` over its steps, in the successively shifted systems.

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

# index_set projects the sum over k <= dim of C(m, k) subsets of the m
# distinct weights, and pairs each candidate they give with all m weights
# once, for its support and its stratum's codimension together; it refuses
# a system with more subset-weight pairs than this.  Near the cap, on
# random systems of distinct weights with no chamber (every candidate
# kept), a whole ``beta index-set`` run, which prints each index with its
# codimension, took 0.9-1.6 s in dimension 1 (1414 weights), 1.1-2.3 s in
# 2 (158), 1.4-2.3 s in 3 (58) and 1.9-3.1 s in 4 (34) on a shared 2-core
# Xeon with Python 3.11 (eight runs each), nearly all of it in index_set.
# The cost of a projection grows with the dimension, so higher ones take
# longer.
# The largest benchmark system (dimension 4, 11 weights) has 561
# subsets, 6171 pairs.
MAX_SUBSET_TESTS = 2_000_000


def _vec(values):
    return tuple(Fraction(x) for x in values)


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


def _hull_projections(points, max_size):
    """(X, den) for each affinely independent subset of at most max_size
    integer points whose hull contains X/den, the projection of the origin
    onto their affine hull; by subset size, in ``combinations`` order.

    A single point is its own projection, (p, 1).  Larger subsets read
    their Gram systems from one table of the pairwise products of the
    points, built once per search (not at all when max_size is 1), and X
    is formed only for a subset whose coordinates are all >= 0."""
    if max_size < 1:
        return
    for p in points:
        yield p, 1
    if max_size < 2:
        return
    gram = [[dot(p, q) for q in points] for p in points]
    indices = range(len(points))
    for size in range(2, min(len(points), max_size) + 1):
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
        if self.dim < 0:
            raise DomainError("dimension must be non-negative")
        weights = tuple((_vec(v), int(m)) for v, m in self.weights)
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
    xx = dot(x, x)
    support = []
    below = 0
    for i, (p, m) in enumerate(ws._int_weights[1]):
        t = dot(p, x) * den
        if t < xx:
            below += m
        elif t == xx:
            support.append(i)
    return support, below - sum(1 for r in ws._int_roots if dot(r, x) < 0)


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
    ``stratum_codim``.  The sort key |beta|^2 = X.X/(den*L)^2 is formed
    once per kept index, and only kept indices become ``Fraction``
    vectors.

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
        if not support:
            continue
        scale = den * big
        kept.append(
            (
                Fraction(dot(x, x), scale * scale),
                tuple(Fraction(c, scale) for c in x),
                tuple(vectors[i] for i in support),
                codim,
            )
        )
    # (|beta|^2, beta) is distinct for distinct betas, so no support or
    # count is compared; each entry is replaced by its index in place,
    # which frees its key as the index is built
    kept.sort()
    for i, (_, beta, support, codim) in enumerate(kept):
        kept[i] = bi = BetaIndex(beta=beta, support=support)
        object.__setattr__(bi, "_codim", (ws, codim))
    return kept


def stratum_codim(ws, beta_index):
    """Codimension of the unstable stratum attached to beta.

    Counts the weights strictly below the supporting hyperplane of beta,
    minus the number of roots negative against beta (the dimension of
    G/P for the parabolic attached to beta); a beta of another dimension
    than the system's is refused.

    An index that ``index_set`` returned for this very system object
    carries the count from its support pass, which is returned.  Any
    other index (built by hand, a step of ``d_beta_sequence``, or one
    asked of an equal but distinct system) is counted by the same
    ``_support_codim``: with beta = B/M, the point X = B*L over den = M
    is beta on the system's integer weights.
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


def _is_positive(vec, chamber):
    """Deterministic positivity: first nonzero pairing against the chamber
    functionals, falling back to the lexicographic sign of vec."""
    for s in chamber:
        t = dot(vec, s)
        if t > 0:
            return True
        if t < 0:
            return False
    for x in vec:
        if x > 0:
            return True
        if x < 0:
            return False
    return False


def shifted_system(ws, beta):
    """The weight system seen by the stabilizer of beta on the support
    locus: supporting weights translated by -beta, roots orthogonal to
    beta, chamber cut out by the surviving positive roots."""
    bb = norm_sq(beta)
    weights = tuple(
        (vsub(v, beta), m) for v, m in ws.weights if dot(v, beta) == bb
    )
    roots = tuple(r for r in ws.roots if dot(r, beta) == 0)
    chamber = tuple(r for r in roots if _is_positive(r, ws.chamber))
    return WeightSystem(dim=ws.dim, weights=weights, roots=roots, chamber=chamber)


def beta_sequences(ws, max_len):
    """All sequences (beta_1, ..., beta_q), q <= max_len, where each step
    is an index of the system successively shifted into stabilizers.

    Returned as tuples of vectors, depth-first in index order.
    """
    if max_len < 1:
        return []
    out = []
    for bi in index_set(ws):
        out.append((bi.beta,))
        if max_len > 1:
            sub = shifted_system(ws, bi.beta)
            for tail in beta_sequences(sub, max_len - 1):
                out.append((bi.beta,) + tail)
    return out


def d_beta_sequence(ws, seq):
    """Accumulated codimension of a sequence: the sum over its steps of
    ``stratum_codim`` of beta_j in the system shifted by the earlier steps
    (``shifted_system``), where only the weights supporting them and the
    roots orthogonal to them are left."""
    if not seq:
        raise DomainError("empty sequence")
    total = 0
    for beta in seq:
        beta = _vec(beta)
        total += stratum_codim(ws, BetaIndex(beta=beta, support=()))
        ws = shifted_system(ws, beta)
    return total
