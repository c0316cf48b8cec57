"""Filtration types of unstable bundles and reductive stabilizer classes.

A type records the ranks and degrees of the canonical filtration
quotients of an unstable bundle; its codimension is

    sum_{j < i} n_i d_j - n_j d_i + n_i n_j (g - 1)

over pairs of quotients taken in slope-decreasing order.  Reductive
stabilizer classes are the unordered pair multisets (m_j, n_j) indexing
the blow-up steps that separate the stable locus inside the semistable
one.

Enumeration bounds.  The sum over types is a priori infinite; it becomes
finite once a codimension cap K is imposed.  Grouping the pairwise terms
by their lower index j, with r = n_j, R = rank remaining from j on, and
S = degree remaining from j on,

    cost_j = d_j * R - r * S + (g - 1) * r * (R - r)

and codim = sum_j cost_j exactly.  Decreasing slopes force
d_j * R >= r * S + 1 (each slope strictly exceeds the weighted average
of the later ones), and every pairwise term of the remaining block is at
least 1 + n_k n_l (g - 1), which bounds d_j from above given K.  Both
bounds are used per coordinate, so the scan covers exactly the
integer box that can contain admissible degree vectors.  Slopes are
compared by cross-multiplying ranks and degrees, with no Fraction built.

Input caps.  The types of rank n are scanned composition by
composition, 2^(n-1) of them, so the rank is capped at MAX_RANK (128
compositions); the reductive classes, 451,400 at rank 30 and degree 0,
share the cap.  The number of types grows like a power of the
codimension cap, so the enumeration stops with a DomainError once it
would return more than MAX_HN_TYPES types.  A semistable series of
rank <= MAX_RANK to order <= ``semistable.MAX_ORDER`` needs at most
4316 of them (rank 7, degree 6, genus 2, order 100; rank 8 needs at
most 4108, at degree 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

from .errors import DomainError
from .poly import as_int

MAX_RANK = 8
MAX_HN_TYPES = 10000


@dataclass(frozen=True)
class HNType:
    """Ordered (rank, degree) quotients with strictly decreasing slopes."""

    quotients: tuple

    def __post_init__(self):
        if not self.quotients:
            raise DomainError("a filtration type needs at least one quotient")
        object.__setattr__(self, "quotients", tuple((int(r), int(d)) for r, d in self.quotients))
        prev = None
        for r, d in self.quotients:
            if r < 1:
                raise DomainError("quotient ranks must be positive")
            # d / r >= d' / r' for positive ranks, cross-multiplied
            if prev is not None and d * prev[0] >= prev[1] * r:
                raise DomainError("slopes must strictly decrease")
            prev = (r, d)

    @classmethod
    def _raw(cls, quotients):
        """A type from a tuple of int pairs already known to be valid."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "quotients", quotients)
        return obj

    @property
    def length(self):
        return len(self.quotients)

    @property
    def rank(self):
        return sum(r for r, _ in self.quotients)

    @property
    def degree(self):
        return sum(d for _, d in self.quotients)


def _check_rank(n):
    """Raise DomainError unless 1 <= n <= MAX_RANK."""
    if n < 1:
        raise DomainError("rank must be at least 1")
    if n > MAX_RANK:
        raise DomainError("rank %d is above the cap of %d" % (n, MAX_RANK))


def codim_hn(t, g):
    """Codimension of the stratum of bundles with filtration type t."""
    if g < 1:
        raise DomainError("genus must be at least 1")
    qs = t.quotients
    total = 0
    for j in range(len(qs)):
        nj, dj = qs[j]
        for i in range(j + 1, len(qs)):
            ni, di = qs[i]
            total += ni * dj - nj * di + ni * nj * (g - 1)
    return total


def enumerate_hn_types(n, d, g, max_codim):
    """All types with at least two quotients and codimension <= max_codim.

    Deterministic output: sorted by codimension, then by quotient tuple.
    """
    for x, name in ((n, "rank"), (d, "degree"), (g, "genus"), (max_codim, "codimension bound")):
        as_int(x, name)
    _check_rank(n)
    if g < 1:
        raise DomainError("genus must be at least 1")
    if max_codim < 0:
        raise DomainError("codimension bound must be non-negative")
    found = _scan_degrees(_shapes(n), g, d, max_codim)
    # the codimension of a found type is max_codim minus its budget left
    found.sort(key=lambda bt: (max_codim - bt[0], bt[1].quotients))
    return [t for _, t in found]


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _tail_pairs(ranks):
    """For each j, the number of pairs k < l of ranks[j:] and the sum of
    their rank products ranks[k] ranks[l].

    Every pairwise term of a type's codimension is at least
    1 + n_k n_l (g - 1), so the least possible contribution of the pairs
    within ranks[j:] is pairs[j] + (g - 1) products[j].
    """
    pairs, products = [], []
    for j in range(len(ranks) + 1):
        tail = ranks[j:]
        pairs.append(len(tail) * (len(tail) - 1) // 2)
        products.append(sum(a * b for i, a in enumerate(tail) for b in tail[i + 1 :]))
    return pairs, products


@cache
def _shapes(n):
    """(ranks, levels) for each composition of n into two parts or more,
    in the order of ``_compositions``: levels[j], for each quotient j but
    the last, is (r, R, r (R - r), pairs, products), r = ranks[j], R the
    rank from j on, and pairs and products those of ``_tail_pairs`` for
    the quotients after j.

    Formed once per rank, on first use, so importing the module costs
    nothing; ``enumerate_hn_types`` checks the rank first, so the cache
    holds at most MAX_RANK entries.  The genus enters only through the
    costs the scan forms from them.
    """
    shapes = []
    for ranks in _compositions(n):
        if len(ranks) > 1:
            pairs, products = _tail_pairs(ranks)
            rest = [sum(ranks[j:]) for j in range(len(ranks))]
            levels = tuple(
                (r, rest[j], r * (rest[j] - r), pairs[j + 1], products[j + 1]) for j, r in enumerate(ranks[:-1])
            )
            shapes.append((ranks, levels))
    return tuple(shapes)


def _scan_degrees(shapes, g, d, budget):
    """Each type of the shapes ``_shapes`` and total degree d within the
    budget, paired with its budget left, in order of shape and then of
    degree vector.

    The cost of block j, R, S the rank and degree from j on, is
    d_j R - r S + (g - 1) r (R - r).  The costs of the blocks sum to the
    codimension, and the last block costs nothing, so the budget left is
    the cap minus the codimension.  The scan is depth first, one stack
    entry per prefix of quotients, carrying its degree left S, its budget
    left and the quotient tuple.  Each degree d_j runs from its least
    value up to the least of its budget bound and the slope bound of the
    quotient before it, d_j / r < d' / r', that is d_j r' <= d' r - 1.
    The last quotient is appended inline: the least value of the one
    before it, d_j (r + r_k) >= r S + 1, is the last slope test.
    """
    gm = g - 1
    out = []
    stack = [(levels, len(levels) - 1, ranks[-1], 0, d, budget, ()) for ranks, levels in reversed(shapes)]
    pop, push = stack.pop, stack.append
    while stack:
        levels, leaf, last, j, S, budget, quotients = pop()
        r, R, rr, pairs, products = levels[j]
        base = gm * rr
        low = -((-(r * S + 1)) // R)  # ceil((r*S + 1) / R)
        high = (budget - pairs - gm * products + r * S - base) // R
        if quotients:
            pr, pd = quotients[-1]
            high = min(high, (pd * r - 1) // pr)
        if j < leaf:
            # pushed from the top, so the stack pops them in increasing order
            for dj in range(high, low - 1, -1):
                push((levels, leaf, last, j + 1, S - dj, budget - dj * R + r * S - base, quotients + ((r, dj),)))
        elif low <= high:
            if len(out) + high - low >= MAX_HN_TYPES:
                raise DomainError("more than %d filtration types under the codimension cap" % MAX_HN_TYPES)
            # the scan has checked the ranks and every slope
            for dj in range(low, high + 1):
                out.append((budget - dj * R + r * S - base, HNType._raw(quotients + ((r, dj), (last, S - dj)))))
    return out


@dataclass(frozen=True)
class ReductiveClass:
    """Unordered multiset of (multiplicity, rank) pairs; stored sorted.

    at_dimension_bound marks classes hitting the cap sum m_j^2 = m^2
    without being the single pair (m, n/m); they are enumerated like any
    other class but kept distinguishable downstream.
    """

    pairs: tuple
    at_dimension_bound: bool = field(default=False, compare=False)

    def __post_init__(self):
        pairs = tuple(sorted((int(m), int(r)) for m, r in self.pairs))
        if not pairs:
            raise DomainError("a stabilizer class needs at least one pair")
        if any(m < 1 or r < 1 for m, r in pairs):
            raise DomainError("pair entries must be positive")
        object.__setattr__(self, "pairs", pairs)

    @property
    def dim(self):
        """Dimension of the stabilizer: sum of m_j^2."""
        return sum(m * m for m, _ in self.pairs)

    @property
    def rank(self):
        return sum(m * r for m, r in self.pairs)


def enumerate_reductive_classes(n, d):
    """Stabilizer classes for rank n, degree d, in blow-up order.

    Conditions: sum m_j n_j = n, sum m_j^2 <= gcd(n,d)^2, and n | n_j d
    for each pair.  The class {(1, n)} is the generic stabilizer center
    and triggers no blow-up, so it is excluded.  Sorted by decreasing
    stabilizer dimension (the blow-up order), ties by pair tuple.
    """
    as_int(n, "rank")
    as_int(d, "degree")
    _check_rank(n)
    m = math.gcd(n, d)
    allowed = []
    for rank in range(1, n + 1):
        if (rank * d) % n != 0:
            continue
        for mult in range(1, n // rank + 1):
            if mult * mult <= m * m:
                allowed.append((mult, rank))
    allowed.sort(reverse=True)

    classes = []

    def extend(start, remaining_n, remaining_sq, chosen):
        if remaining_n == 0:
            classes.append(tuple(chosen))
            return
        for idx in range(start, len(allowed)):
            mult, rank = allowed[idx]
            if mult * rank > remaining_n or mult * mult > remaining_sq:
                continue
            chosen.append((mult, rank))
            extend(idx, remaining_n - mult * rank, remaining_sq - mult * mult, chosen)
            chosen.pop()

    extend(0, n, m * m, [])

    out = []
    for pairs in classes:
        if pairs == ((1, n),):
            continue
        dim = sum(mm * mm for mm, _ in pairs)
        boundary = dim == m * m and tuple(sorted(pairs)) != ((m, n // m),)
        out.append(ReductiveClass(pairs, at_dimension_bound=boundary))
    out.sort(key=lambda c: (-c.dim, c.pairs))
    return out


def codim_deeper_stratum(c, n, g):
    """Codimension of the locus stabilized by class c inside the rank-n
    semistable locus: (g-1)(n^2 - sum n_j^2) + sum (m_j^2 - 1)."""
    if g < 1:
        raise DomainError("genus must be at least 1")
    if c.rank != n:
        raise DomainError("class does not decompose rank %d" % n)
    return (g - 1) * (n * n - sum(r * r for _, r in c.pairs)) + sum(
        m * m - 1 for m, _ in c.pairs
    )
