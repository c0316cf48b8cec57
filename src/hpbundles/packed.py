"""Packed polynomials: a polynomial with int coefficients and
non-negative exponents held as one big integer, one slot per exponent,
for a computation that goes on working with its products, as the rank-2
pipeline does (``blocks._rank2_numerators``).

The packing is that of the dense product path of ``poly``
(``poly._mul_dense``), and the slot width, the unpacking and the
shift-add loop of ``poly._expand_binomials`` are reused from there.
Every packed value carries a bound on its L1 norm and on its exponents,
so a slot never overflows and a row never carries into the next: an
operation that could raises InternalCheckError.  Sums, small-int
multiples and products by (uv)^k or 1 - (uv)^k are then big-integer
adds and shifts, equality is integer equality, a parity mask finds odd
coefficients, the dual (uv)^d p(1/u, 1/v) reverses the slots, and the
division by a product of factors 1 - (uv)^m is a running sum by
shift-adds, certified by multiplying back.  A product of two binomial
rows (1 + c u^e)^k (1 + c v^e)^k is packed row by row, and a product by
binomial powers is one shift-add per power, fewest added rows first.
Only the results are unpacked, each into its dict by C iterators.
"""

from __future__ import annotations

from .errors import InternalCheckError
from .poly import _slot_pattern, _slot_width, _times_binomials, _unpack


class _Box:
    """The exponent box of a family of packed polynomials: origin (0, 0),
    cols slots per row and slots of width bytes, sized so that every
    coefficient and every tracked norm stays below limit = 2^(8 width - 1)
    for a norm bound of at most bound."""

    __slots__ = ("cols", "width", "limit")

    def __init__(self, cols, bound):
        self.cols = cols
        self.width = _slot_width(bound)
        self.limit = 1 << (8 * self.width - 1)

    def outer(self, c, e, k):
        """(1 + c u^e)^k (1 + c v^e)^k, packed row by row: the v-row by
        shift-adds on one row, then row p is the row times its own
        coefficient of u^p.  No pass runs over the whole box."""
        cols, width = self.cols, self.width
        norm = (1 + abs(c)) ** (2 * k)
        _check_bounds(self, norm, (e * k, e * k))
        row = _times_binomials(1, [(c, 0, e, k)], cols, width)
        coeffs = _unpack(row, (0, 0), 1, e * k + 1, width)
        blank = _slot_pattern(self.limit, width, cols)
        data = b"".join(
            (coeffs.get((0, p), 0) * row + blank).to_bytes(cols * width, "little") for p in range(e * k + 1)
        )
        value = int.from_bytes(data, "little") - _slot_pattern(self.limit, width, cols * (e * k + 1))
        return _Packed(self, value, norm, (e * k, e * k))


class _Packed:
    """A polynomial with int coefficients and exponents in a ``_Box``,
    packed as in ``poly._mul_dense``: value = sum c 2^(8 width (p cols + q)).

    norm bounds the sum of |c|, so every |c|, and top = (P, Q) bounds the
    exponents: p <= P and q <= Q.  Both are tracked through every
    operation; an operation whose result could reach the slot limit, or
    carry a term past the last column into the next row, raises
    InternalCheckError instead.  Within those bounds the packing is
    one-to-one, so two values are equal iff their integers are, and the
    operations below are big-integer shifts, adds and small-int
    multiplies: multiplying by (uv)^k is a shift by k (cols + 1) slots,
    and by 1 - (uv)^k one shift and one subtraction."""

    __slots__ = ("box", "value", "norm", "top")

    def __init__(self, box, value, norm, top):
        _check_bounds(box, norm, top)
        self.box = box
        self.value = value
        self.norm = norm
        self.top = top

    def _new(self, value, norm, top):
        return _Packed(self.box, value, norm, top)

    def __eq__(self, other):
        if not isinstance(other, _Packed):
            return NotImplemented
        return self.value == other.value

    __hash__ = None

    def __add__(self, other):
        return self._new(self.value + other.value, self.norm + other.norm, _max_top(self, other))

    def __sub__(self, other):
        return self._new(self.value - other.value, self.norm + other.norm, _max_top(self, other))

    def __rmul__(self, k):
        return self._new(k * self.value, abs(k) * self.norm, self.top)

    def uv(self, k):
        """self times (uv)^k, k >= 0: a shift by k (cols + 1) slots."""
        top = (self.top[0] + k, self.top[1] + k)
        return self._new(self.value << 8 * self.box.width * k * (self.box.cols + 1), self.norm, top)

    def times_one_minus_uv(self, k):
        """self times 1 - (uv)^k."""
        return self - self.uv(k)

    def times_binomials(self, factors):
        """self times prod (1 + c u^a v^b)^k over the factors (c, a, b, k)."""
        norm = self.norm
        p, q = self.top
        for c, a, b, k in factors:
            norm *= (1 + abs(c)) ** k
            p += k * a
            q += k * b
        _check_bounds(self.box, norm, (p, q))
        return self._new(_times_binomials(self.value, factors, self.box.cols, self.box.width), norm, (p, q))

    def halve(self):
        """self / 2, or None when a coefficient is odd.  Biased by the
        limit, every slot holds c + limit with no borrow, and the limit is
        even, so the low bits of the biased slots are the parities of c."""
        width = self.box.width
        slots = (self.top[0] + 1) * self.box.cols
        if (self.value + _slot_pattern(self.box.limit, width, slots)) & _slot_pattern(1, width, slots):
            return None
        return self._new(self.value >> 1, self.norm // 2, self.top)

    def unpack(self):
        """The term dict."""
        return _unpack(self.value, (0, 0), self.top[0] + 1, self.box.cols, self.box.width)

    def dual(self, dim):
        """(uv)^dim self(1/u, 1/v), for degrees at most dim in each
        variable: (p, q) goes to (dim - p, dim - q), which reverses the
        order of the slots up to (dim, dim).  The biased slots are reversed
        as bytes, one byte of every slot per slice."""
        if max(self.top) > dim:
            raise InternalCheckError("a degree above %d has no dual at %d" % (max(self.top), dim))
        width = self.box.width
        slots = dim * (self.box.cols + 1) + 1
        bias = _slot_pattern(self.box.limit, width, slots)
        data = (self.value + bias).to_bytes(width * slots, "little")
        out = bytearray(len(data))
        for k in range(width):
            out[k::width] = data[len(data) - width + k :: -width]
        return self._new(int.from_bytes(out, "little") - bias, self.norm, (dim, dim))

    def divide_diagonal(self, strides):
        """The quotient of self by prod (1 - (uv)^m) over the strides m,
        or None when the division is not exact.

        The diagonals of the box have at most reach = P + 1 points.
        Dividing by 1 - t, t = (uv)^m, is a running sum along them, and
        multiplying by (1 + t)(1 + t^2)(1 + t^4)... (1 + t^(2^(j-1))) is
        that sum cut after t^(2^j): j shift-adds.  With 2^j m >= reach the
        cut terms lie past the box, so the low reach (cols + 1) slots of
        the result, read as balanced digits, are the quotient if there is
        one; each shift-add keeps only those slots.

        Certified, not assumed: an exact quotient has norm at most the
        norm of self times reach^n, n the number of strides, and exponents
        up to top - (sum m, sum m).  The candidate must have digits of
        at most limit / 2^(n+1) and no term past those exponents (checked
        on the biased slots by masks), and prod (1 - (uv)^m) times it must
        be self.  Those digits keep every slot of that product and of the
        difference from self below 2^(8 width), so equal integers are equal
        polynomials.
        """
        box = self.box
        width, bits = box.width, 8 * box.width
        reach = self.top[0] + 1
        top = (self.top[0] - sum(strides), self.top[1] - sum(strides))
        norm = self.norm * reach ** len(strides)
        digit = box.limit >> (len(strides) + 1)
        if norm >= digit:
            raise InternalCheckError("quotient norm bound %d reaches the digit bound 2^%d" % (norm, digit.bit_length() - 1))
        if min(top) < 0:
            return self._new(0, 0, (0, 0)) if self.value == 0 else None
        step = bits * (box.cols + 1)
        low = reach * step
        mask = (1 << low) - 1
        z = self.value
        for m in strides:
            span = m
            while span < reach:
                # only the low slots are kept: the sum stays the size of the box
                z = (z + (z << span * step)) & mask
                span *= 2
        if z >> (low - 1):
            z -= 1 << low
        slots = (top[0] + 1) * box.cols
        bias = _slot_pattern(digit, width, slots)
        biased = z + bias
        high = _slot_pattern((1 << bits) - 2 * digit, width, slots)
        row = bytes(width * (top[1] + 1)) + b"\xff" * (width * (box.cols - top[1] - 1))
        past = int.from_bytes(row * (top[0] + 1), "little")
        if not 0 <= biased < 1 << bits * slots or biased & high or (biased ^ bias) & past:
            return None
        product = z
        for m in strides:
            product -= product << m * step
        if product != self.value:
            return None
        return self._new(z, norm, top)


def _check_bounds(box, norm, top):
    """Raise InternalCheckError unless a packed value of the box with this
    norm bound and these top exponents fits its slots and its rows; run
    before an operation forms the value, so that none overflows."""
    if norm >= box.limit:
        raise InternalCheckError("packed norm bound %d reaches the slot limit 2^%d" % (norm, 8 * box.width - 1))
    if top[1] >= box.cols:
        raise InternalCheckError("packed exponent %d of v is past the last of %d columns" % (top[1], box.cols))


def _max_top(a, b):
    return (max(a.top[0], b.top[0]), max(a.top[1], b.top[1]))
