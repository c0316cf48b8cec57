"""Packed polynomials: the one home of the packed-integer format.

A polynomial with int coefficients is packed as one big integer, one
slot per exponent of a box of rows of cols slots counted from an origin
(p0, q0): value = sum c 2^(8 width s) over its terms, s = (p - p0) cols
+ q - q0 the slot of u^p v^q.  Slots are whole bytes, wide enough for a
bound on every coefficient plus a sign bit (``_slot_width``), and cols
reaches past the largest exponent of v, so a slot never carries into the
next and a row never runs into the next.  Big-integer adds, shifts and
small-int multiples are then sums, products by monomials and scalings,
and one big-integer multiply is a product (Kronecker substitution, the
dense product path of ``poly._mul_dense``).

Reading and writing.  A packed value plus the bias, 2^(8 width - 1) in
every slot, has only non-negative slots and no borrows, so its bytes are
the biased slots.  ``_unpack`` reads them 8 bytes of each slot at a time
(``_slot_values``): strided slices, one byte of every slot per slice,
copy them into 8-byte limbs, a 256-byte table turns each biased top byte
into two's complement, and one ``array('q')`` reads all the limbs; the
two limbs of a 9-16-byte slot are combined by ``map``, a wider slot
takes one limb when its high bytes only extend the sign and is read on
its own otherwise, and the keys of a whole box or band window are
zipped with the nonzero values by C iterators (``_read_slots``).
``_pack`` writes slots of at most 8 bytes the same way round, into as
many slots as its caller sized.

The band.  A truncated series of the semistable recursion lies in a
thin band around the diagonal, so every windowed value of the recursion,
its leading series, type products and the series of a miss
(``semistable.SemistableSeries``), is packed in a band of width D
(``_Band``) instead of a box: u^p v^q, p, q >= 0 and |p - q| <= D,
sits at slot (D + 1) p + D q.  With s = p + q, t = p - q and
K = 2D + 1 that slot is (K s + t) / 2, and |t| <= D < K / 2, so the
points of total degree s take consecutive slots from (K s - D) / 2 up,
all below those of s + 1: the slot map is one-to-one on the band and
runs in order of total degree.  A point with p or q negative has a slot too, which no value
fills.  The window p + q <= N is thus exactly the low (K N + D) // 2 + 1
slots (``_Band.slots``): one low-bits mask keeps it, and a product read
there never converts the slots above.  The map is linear, so a
big-integer product of band values is their product while its
exponents stay in the band, D = band(a) + band(b), and multiplying by
(uv)^m is a shift by K m slots.  The window is read by ``_slot_values``
and zipped with a key table, the exponents of slots 0, 1, ... (slot i
holds s = (2i + D) // K and p = i - D s).  The tables are built at
power-of-two lengths, and the 64 used last of at most 2^16 keys are
kept (``_band_table``): a shorter window reads a prefix of its table,
no table is longer than twice a window read at its width, and each is
a tuple, built whole before it is shared, so threads can share them; a
longer table, read only by a closed form at a large genus, is built for
its read and dropped (``_BAND_TABLE_CAP``); a frozenset of a
window's points tests a term dict's exponents against it
(``_Band.points``).  Linearity also gives the dual: (p, q) ->
(dim - p, dim - q) sends slot i to K dim - i, so the dual
(uv)^dim x(1/u, 1/v) of a polynomial in the slots 0..K dim reverses
them, one byte of every slot per slice, as in a box (``_reverse_slots``).

Band values.  A ``_BandValue`` is a truncated series held in a band to
an order, with a bound on its coefficients, and the semistable recursion
works on its series only through these values and their operations, as
big-integer arithmetic with no term dict formed.  ``_Band.pack`` packs a
term dict, and the read unpacks a window.  The product of two values to
the lower order is one big-integer multiply masked once to that window
(``_BandValue.times``), the bound multiplied by a bound on the other
factor's L1 norm (Young's inequality).  The product by binomial rows
cut at the window is one shift and mask per power, so the work does not
grow with the uncut row (``times_rows``); the quotient by
prod (1 - (uv)^m) as a series is the running sums along the diagonals,
masked to the window (``over_diagonal``); the product by
prod (1 - (uv)^m) is one shift and subtraction per stride.  The caller
keeps every term in the band and gives a bound where one needs more
than Young's inequality, such as non-negative values; each operation
tracks its bound and refuses one that reaches its slots' limit.  The
recursion holds its leading series and type products so, each in slots
sized by its own bound, and a miss subtracts the shifted products from
the leading series (``_BandValue.subtract``) in slots sized for the sum
of the bounds, each held value widened into them once (``_widen``: one
strided byte slice per byte of the held slots).  A window is an exact
polynomial, a ``_Packed`` value of the band (below): so are the coprime
moduli polynomial, the closed-form numerator that certifies it and every
partial product, formed and compared in the band of the recursion's
series (``semistable.stable_coprime_polynomial``).  The layout rule: a
band holds everything that lies near the diagonal, and a box holds
square supports, the rank-2 record and ``poly``'s dense product: in a
band the corners of a square support would double the slots.

Products of binomial powers.  A packed value times
prod (1 + c u^a v^b)^k, a and b >= 0, is formed by shift-adds in its
layout (``_Packed.times_binomials``): each power is one big-integer
shift and add, x += c (x << shift), the factors taken in order of the
slots a power adds, fewest first, so that the passes run on the
shortest integers they can (``_times_binomials``).  A sum of monomials
times such products is formed part by part, each part added into one
value that the caller's layout sizes for every partial product and
partial sum, and unpacked once: so are the numerator of the
closed-form HN sum and the unwindowed leading terms, in the band of
width n g (``semistable._closed_form_numerator``), and the diagonal
products prod (1 - t^k)^m in t = uv, in a box of one column
(``series._expand_factors``).  An outer product of two binomial rows,
such as the Jacobian, is packed row by row from binomial coefficients
(``_Box.outer``).

Exact polynomials.  A computation that goes on working with its
products keeps them packed as ``_Packed`` values of one layout, a
``_Box`` with origin (0, 0) (the rank-2 pipeline,
``blocks._rank2_numerators``) or a ``_Band`` (the coprime certificate
and the closed-form numerators).  Every packed value carries a bound on
its largest |coefficient| and on its exponents, so an operation that
could overflow a slot, or carry a term past a box's last column into the
next row, raises InternalCheckError.  Sums add the bounds, small-int
multiples scale them, and a product by a polynomial, prod (1 - (uv)^m)
or binomial powers, multiplies the bound by the L1 norm of each partial
product it forms: by Young's inequality, max |coefficient of a b| <=
max |coefficient of a| |b|_1.  The norm of a diagonal product
prod (1 - (uv)^m) is worked out here from its strides m, never taken
from the caller: the largest L1 norm of a product over the first
strides, as each is formed (``_diagonal_norm``).  Those operations are
then big-integer adds and shifts in either layout, equality of two
values of one layout is integer equality, a parity mask finds odd
coefficients, and the dual (uv)^d p(1/u, 1/v) reverses the slots.  In
a box only, the division by a product of factors 1 - (uv)^m is a
running sum by shift-adds along the diagonals, its bound that of the
dividend times the L1 norm of the inverse series cut at the longest
diagonal (``_cut_inverse_norm``), certified by multiplying back.  A
layout holds its slot patterns, the bias, the parity mask and the digit
masks of a division: each is built once, for the longest run of slots
asked for, and cut to a shorter run by a mask, about 15 times cheaper
than building it.  Only the results are unpacked.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import compress, product, repeat
from math import comb
from operator import lshift, or_

from .errors import InternalCheckError


def _slot_width(bound):
    """Bytes per slot for coefficients of absolute value <= bound: room
    for the bound and a sign bit."""
    return (bound.bit_length() + 8) // 8


def _slot_pattern(value, width, slots):
    """The packed integer whose first slots slots, of width bytes, all
    hold the value (0 <= value < 2^(8 width))."""
    return int.from_bytes(value.to_bytes(width, "little") * slots, "little")


def _pack(terms, origin, strides, width, slots):
    """sum c 2^(8 width s) over the terms, s = (p - p0) sp + (q - q0) sq
    the slot of u^p v^q from the origin (p0, q0) for the strides (sp, sq):
    (cols, 1) in rows of cols slots, (D + 1, D) in a band of width D.  The
    caller passes slots, more than the last slot of any term, from the box
    or band it sized; 0 for no terms.

    Slots of at most 8 bytes are packed as ``_slot_values`` reads them,
    by limbs: a dense list holds c + 2^(8 width - 1) at each term's slot
    and that bias everywhere else, one ``array('Q')`` writes it as 8-byte
    limbs, strided slices keep the low width bytes of each, and the bias
    is taken off the one integer they make.  Wider slots are written term
    by term, the positive and the negative coefficients apart."""
    if not terms:
        return 0
    sp, sq = strides
    base = origin[0] * sp + origin[1] * sq
    if width <= 8:
        bias = 1 << (8 * width - 1)
        dense = [bias] * slots
        for (p, q), c in terms.items():
            dense[p * sp + q * sq - base] = c + bias
        limbs = array("Q", dense)
        if sys.byteorder == "big":
            limbs.byteswap()
        data = limbs.tobytes()
        if width < 8:
            buf = bytearray(width * slots)
            for j in range(width):
                buf[j::width] = data[j::8]
            data = buf
        return int.from_bytes(data, "little") - _slot_pattern(bias, width, slots)
    size = width * slots
    pos = bytearray(size)
    neg = bytearray(size)
    for (p, q), c in terms.items():
        at = width * (p * sp + q * sq - base)
        if c > 0:
            pos[at : at + width] = c.to_bytes(width, "little")
        else:
            neg[at : at + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(packed, origin, rows, cols, width):
    """The term dict of the packed value, its slot (0, 0) at the exponent
    origin, over its first rows rows of cols slots each: the keys of the
    box in row order zipped with the values (``_read_slots``)."""
    biased = packed + _slot_pattern(1 << (8 * width - 1), width, rows * cols)
    p0, q0 = origin
    return _read_slots(biased, product(range(p0, p0 + rows), range(q0, q0 + cols)), width, rows * cols)


def _read_slots(biased, keys, width, slots):
    """The dict of the first slots slots of a biased value, read by
    ``_slot_values``: the keys, one per slot in slot order, where the value
    is nonzero, zipped with those values, all by C iterators.  The keys may
    run on past the slots."""
    data = (biased & ((1 << 8 * width * slots) - 1)).to_bytes(width * slots, "little")
    values = _slot_values(data, width)
    return dict(zip(compress(keys, values), filter(None, values)))


# The longest key table held (``_band_table``).  Reads within the
# recursion's MAX_ORDER and the coprime caps take at most 2^15 keys; a
# wider read, a closed form at a large genus, would hold megabytes
_BAND_TABLE_CAP = 1 << 16


def _band_keys(band, slots):
    """The key table of the band of width band, at least slots long: the
    held table of its power-of-two length (``_band_table``), or, past
    _BAND_TABLE_CAP keys, one built for this read alone."""
    length = 1 << (slots - 1).bit_length()
    if length > _BAND_TABLE_CAP:
        return _band_table.__wrapped__(band, slots)
    return _band_table(band, length)


@lru_cache(maxsize=64)
def _band_table(band, slots):
    """The exponents (p, q) of the first slots slots of the band of width
    band, as a tuple: slot i holds u^p v^q of total degree
    s = (2i + band) // K, K = 2 band + 1, and p = i - band s."""
    k = 2 * band + 1
    keys = []
    for i in range(slots):
        s = (2 * i + band) // k
        keys.append((i - band * s, (band + 1) * s - i))
    return tuple(keys)


@lru_cache(maxsize=64)
def _band_points(band, slots):
    """The exponents of the first slots slots of the band of width band,
    as a frozenset."""
    return frozenset(_band_keys(band, slots)[:slots])


# A biased slot c + 2^(8 width - 1) differs from c in two's complement only
# in the top bit of its top byte, which _TWOS flips; _SIGN maps a two's
# complement byte to the byte that extends its sign.
_TWOS = bytes(b ^ 0x80 for b in range(256))
_SIGN = bytes(0xFF if b & 0x80 else 0 for b in range(256))


def _slot_values(data, width):
    """The signed values of the biased slots of width bytes in data.

    Each slot is read as one 8-byte limb: its bytes are copied into the
    limbs by strided slices, one byte of every slot per slice, its top byte
    through ``_TWOS``, the pad bytes of a narrower slot from ``_SIGN``,
    and all limbs are read by one ``array('q')``.  A wider slot takes one
    limb when all its bytes past the eighth extend the sign of the eighth,
    which one strided compare per byte checks.  Otherwise two-limb slots
    are combined from their limbs, high << 64 | low by ``map`` with no
    Python loop, and wider ones read one by one (cheaper at 35-byte slots
    than combining five limbs).
    """
    twos = data[width - 1 :: width].translate(_TWOS)
    if width <= 8:
        return _read_limbs(_top_limb(data, width, 0, twos), "q")
    sign = data[7::width].translate(_SIGN)
    if twos == sign and all(data[j::width] == sign for j in range(8, width - 1)):
        return _read_limbs(_limb(data, width, 0, 8), "q")
    if width <= 16:
        high = _read_limbs(_top_limb(data, width, 8, twos), "q")
        return list(map(or_, map(lshift, high, repeat(64)), _read_limbs(_limb(data, width, 0, 8), "Q")))
    buf = bytearray(data)
    buf[width - 1 :: width] = twos
    buf = bytes(buf)
    from_bytes = int.from_bytes
    return [from_bytes(buf[i : i + width], "little", signed=True) for i in range(0, len(buf), width)]


def _limb(data, width, start, stop):
    """The bytes start..stop-1 of every width-byte slot of data, each slot's
    at the low end of an 8-byte limb; the rest of each limb is 0."""
    buf = bytearray(8 * (len(data) // width))
    for j in range(start, stop):
        buf[j - start :: 8] = data[j::width]
    return buf


def _top_limb(data, width, start, twos):
    """The bytes from start of every width-byte slot of data, its top byte
    replaced by the one in twos, sign-extended to an 8-byte limb
    (width - start <= 8)."""
    buf = _limb(data, width, start, width - 1)
    buf[width - 1 - start :: 8] = twos
    sign = twos.translate(_SIGN)
    for j in range(width - start, 8):
        buf[j::8] = sign
    return buf


def _read_limbs(buf, code):
    """The little-endian 8-byte limbs of buf as ints: signed for code 'q',
    unsigned for 'Q'."""
    limbs = array(code)
    limbs.frombytes(buf)
    if sys.byteorder == "big":
        limbs.byteswap()
    return limbs.tolist()


def _times_binomials(x, factors, strides, width):
    """The packed x times prod (1 + c u^a v^b)^k over the factors
    (c, a, b, k), in slots of width bytes with u^p v^q at slot p sp + q sq
    for the strides (sp, sq) of a layout ((cols, 1) in rows of cols slots,
    (D + 1, D) in a band of width D): one big-integer shift by a sp + b sq
    slots and add per power.  The caller sizes the slots and the layout
    for every partial product.

    Each power lengthens x by the slots of its shift, so the factors are
    applied in order of that shift, fewest slots first (in rows, fewest
    rows first), and every pass before the last runs on a shorter integer.
    A product over any subset of the factors stays within the bounds on
    the coefficients and exponents of the whole product, so the order
    needs no room the caller has not sized."""
    sp, sq = strides
    for c, a, b, k in sorted(factors, key=lambda f: f[1] * sp + f[2] * sq):
        shift = 8 * width * (a * sp + b * sq)
        for _ in range(k):
            # a product by 1 or -1 would cost a pass over the whole integer
            if c == 1:
                x += x << shift
            elif c == -1:
                x -= x << shift
            else:
                x += c * (x << shift)
    return x


class _Slots:
    """Slots of width bytes, sized so that every coefficient and every
    tracked coefficient bound stays below limit = 2^(8 width - 1) for a
    bound of at most bound, u^p v^q at slot p sp + q sq for the strides
    (sp, sq) of a layout, ``_Box`` or ``_Band``, which gives the exponents
    of its slots (``keys``).  It holds the slot patterns its values are
    read and checked with, one per value."""

    __slots__ = ("strides", "width", "limit", "_patterns")

    def __init__(self, strides, bound):
        self.strides = strides
        self.width = _slot_width(bound)
        self.limit = 1 << (8 * self.width - 1)
        self._patterns = {}  # value -> (slots, its pattern over those slots)

    def offset(self, p, q):
        """The shift, in bits, that multiplies a packed value by u^p v^q."""
        sp, sq = self.strides
        return 8 * self.width * (p * sp + q * sq)

    def check(self, bound, top):
        """Raise InternalCheckError unless a value with this coefficient
        bound fits the slots: the one check of every ``_Packed`` bound.  A
        box checks the top exponents too; in a band the caller keeps them."""
        if bound >= self.limit:
            raise InternalCheckError("packed bound %d reaches the slot limit 2^%d" % (bound, 8 * self.width - 1))

    def span(self, top):
        """The slots up to that of u^P v^Q, top = (P, Q): those of every
        exponent up to top, the strides being non-negative."""
        sp, sq = self.strides
        return top[0] * sp + top[1] * sq + 1

    def read(self, value, slots):
        """The term dict of the first slots slots of a value, read against
        the layout's keys; none for no slots."""
        if slots <= 0:
            return {}
        return _read_slots(value + self.pattern(self.limit, slots), self.keys(slots), self.width, slots)

    def pattern(self, value, slots):
        """The packed integer whose first slots slots all hold the value:
        the held pattern of the value cut down by a mask, built anew only
        when it is shorter than slots."""
        held = self._patterns.get(value)
        if held is None or held[0] < slots:
            held = self._patterns[value] = (slots, _slot_pattern(value, self.width, slots))
        return held[1] if held[0] == slots else held[1] & ((1 << 8 * self.width * slots) - 1)

    def diagonal_product(self, value, strides):
        """value times prod (1 - (uv)^m) over the strides m: one shift by
        m (sp + sq) slots and one subtraction per stride, in order."""
        step = self.offset(1, 1)
        for m in strides:
            value -= value << m * step
        return value

    def running_sums(self, value, strides, reach, mask):
        """The running sums of value by each stride m along the diagonals,
        which hold at most reach points: value / prod (1 - (uv)^m) as a
        series cut after reach points of each diagonal.

        Dividing by 1 - t, t = (uv)^m, is a running sum, and multiplying
        by (1 + t)(1 + t^2)(1 + t^4)... (1 + t^(2^(j-1))) is that sum cut
        after t^(2^j): j shift-adds, with 2^j m >= reach.  Every shift-add
        keeps only the slots of mask, so the sum stays the size of the
        box or window."""
        step = self.offset(1, 1)
        for m in strides:
            span = m
            while span < reach:
                value = (value + (value << span * step)) & mask
                span *= 2
        return value


def _partition_counts(strides, reach):
    """The first reach coefficients of prod 1 / (1 - t^m) over the strides
    m, the series the running sums multiply by: for each j < reach, the
    number of ways to write j = sum k_i m_i over the list of strides, each
    k_i >= 0 (a stride listed twice counts twice).  All are non-negative."""
    counts = [1] + [0] * (reach - 1)
    for m in strides:
        for j in range(m, reach):
            counts[j] += counts[j - m]
    return counts


@lru_cache(maxsize=256)
def _cut_inverse_norm(strides, reach):
    """The L1 norm of prod 1 / (1 - t^m) over the strides m cut after its
    first reach terms: the sum of ``_partition_counts``, held per
    (strides, reach)."""
    return sum(_partition_counts(strides, reach))


@lru_cache(maxsize=256)
def _diagonal_norm(strides):
    """The largest L1 norm of prod (1 - t^m) over the first j strides m,
    j = 0..len(strides): the norm that bounds a product by
    prod (1 - (uv)^m), formed one stride at a time in order, each partial
    product being formed, not only the whole, by Young's inequality.
    Held per tuple of strides."""
    line, norm = [1], 1
    for m in strides:
        line += [0] * m
        for j in range(len(line) - 1, m - 1, -1):
            line[j] -= line[j - m]
        norm = max(norm, sum(map(abs, line)))
    return norm


class _Box(_Slots):
    """The exponent box of a family of packed polynomials: origin (0, 0),
    cols slots per row, so u^p v^q sits at slot p cols + q (strides
    (cols, 1)), in the slots of ``_Slots``."""

    __slots__ = ("cols",)

    def __init__(self, cols, bound):
        super().__init__((cols, 1), bound)
        self.cols = cols

    def check(self, bound, top):
        """``_Slots.check``, and no exponent of v past the last column,
        where a term would carry into the next row."""
        super().check(bound, top)
        if top[1] >= self.cols:
            raise InternalCheckError("packed exponent %d of v is past the last of %d columns" % (top[1], self.cols))

    def span(self, top):
        """The slots of the rows 0..P, top = (P, Q): whole rows, so that the
        reads and parity masks of a box share the lengths of its patterns."""
        return (top[0] + 1) * self.cols

    def keys(self, slots):
        """The exponents of slots 0, 1, ...: the box in row order."""
        return product(range(slots // self.cols + 1), range(self.cols))

    def outer(self, c, e, k):
        """(1 + c u^e)^k (1 + c v^e)^k, packed row by row: the v-row by
        shift-adds on one row, then row e j is the row times C(k, j) c^j,
        its coefficient of v^(e j), and the rows between are blank.  No
        pass runs over the whole box, and no slot is read.  Its largest
        coefficient is exactly (max_j C(k, j) |c|^j)^2, the bound, and
        the row's is its square root."""
        cols, width = self.cols, self.width
        coeffs = [0] * (e * k + 1)
        coeffs[::e] = [comb(k, j) * c**j for j in range(k + 1)]
        bound = max(map(abs, coeffs)) ** 2
        top = (e * k, e * k)
        self.check(bound, top)
        row = _times_binomials(1, [(c, 0, e, k)], self.strides, width)
        blank = self.pattern(self.limit, cols)
        data = b"".join((a * row + blank).to_bytes(cols * width, "little") for a in coeffs)
        value = int.from_bytes(data, "little") - self.pattern(self.limit, cols * (e * k + 1))
        return _Packed(self, value, bound, top)


class _Band(_Slots):
    """The band of width D = band of a truncated series: u^p v^q at slot
    (D + 1) p + D q (strides (D + 1, D)) for every exponent with
    |p - q| <= D, in the slots of ``_Slots``.  The window of total degree
    at most an order is the low ``slots(order)`` slots, and a value is
    read there against the band's key table."""

    __slots__ = ("band",)

    def __init__(self, band, bound):
        super().__init__((band + 1, band), bound)
        self.band = band

    def slots(self, order):
        """The number of slots of the window p + q <= order: the low
        (K order + D) // 2 + 1, K = 2 D + 1; none below order 0."""
        return max(0, ((2 * self.band + 1) * order + self.band) // 2 + 1)

    def points(self, order):
        """The exponents of the slots of the window p + q <= order: every
        (p, q) with p + q <= order and |p - q| <= D that has a slot, those
        with p or q negative included, which no value fills."""
        return _band_points(self.band, self.slots(order))

    def keys(self, slots):
        """The exponents of slots 0, 1, ...: the band's key table."""
        return _band_keys(self.band, slots)

    def mask(self, order):
        """The low-bits mask that keeps the window p + q <= order."""
        return (1 << 8 * self.width * self.slots(order)) - 1

    def pack(self, terms, order, bound):
        """The term dict, each exponent a point of the window
        p + q <= order (``points``), as a ``_BandValue`` held to order
        with the bound, which must bound every |coefficient|: the packed
        polynomial itself, exact."""
        return _BandValue(self, _pack(terms, (0, 0), self.strides, self.width, self.slots(order)), order, bound)


class _BandValue:
    """A truncated series held packed in a ``_Band``: value, congruent
    modulo 2^(8 w slots(order)), w the band's slot width, to the packed
    window p + q <= order, and bound, a bound on every coefficient there,
    which the band's slots hold.  A bound at an order also holds at every
    lower one, whose coefficients are among those bounded.  A value may be
    masked to its window, when a negative coefficient there leaves a
    borrow above it, or exact, the packed polynomial itself with nothing
    above its terms (``_Band.pack``); a polynomial of total degree at most
    order is its own window.

    Its operations are those of a truncated series, each a few big-integer
    shifts, adds or one multiply, masked to the window where terms above
    it would grow the integer: a window is exact, a ``_Packed`` value of
    the band.  Each tracks the bound, and one whose bound would reach the
    slot limit raises InternalCheckError, so no slot ever carries into the
    next.  The caller keeps every term of every partial result in the
    band, where the slots run in order of total degree: the terms above a
    window, and any carry or borrow among them, then sit above its slots,
    and change the value only by a multiple of 2^(8 w slots(order))."""

    __slots__ = ("band", "value", "order", "bound")

    def __init__(self, band, value, order, bound):
        if bound >= band.limit:
            raise InternalCheckError("band bound %d reaches the slot limit 2^%d" % (bound, 8 * band.width - 1))
        self.band = band
        self.value = value
        self.order = order
        self.bound = bound

    def read(self, order):
        """The term dict of the window p + q <= order <= self.order."""
        if order > self.order:
            raise InternalCheckError("cannot read order %d of a band value held to order %d" % (order, self.order))
        return self.band.read(self.value, self.band.slots(order))

    def window(self, order):
        """The window p + q <= order <= self.order, an exact ``_Packed``
        value with top (order, order): the value masked to the low
        slots(order) slots, less 2^(8 w slots(order)) when its top bit is
        set.  Every slot holds less than half its range, so the window's
        packed integer lies below half that of its slots: its sign."""
        if order > self.order:
            raise InternalCheckError("cannot cut order %d of a band value held to order %d" % (order, self.order))
        bits = 8 * self.band.width * self.band.slots(order)
        value = self.value & ((1 << bits) - 1)
        if bits and value >> (bits - 1):
            value -= 1 << bits
        return _Packed(self.band, value, self.bound, (order, order))

    def times(self, other, norm):
        """self times other, a value of the same band, to the lower of their
        orders: one big-integer product, masked once to that window, which
        depends only on the windows of the factors.  norm bounds the L1
        norm of other's window, so by Young's inequality every coefficient
        of the product of the windows, in the window or above it, is at
        most self.bound * norm, the product's bound."""
        band = self.band
        if other.band is not band:
            raise InternalCheckError("cannot multiply values of two bands")
        order = min(self.order, other.order)
        return _BandValue(band, self.value * other.value & band.mask(order), order, self.bound * norm)

    def times_rows(self, rows, bound):
        """self times prod 1 + sum_j c_j (u^a v^b)^j over the rows
        (a, b, (c_1, c_2, ...)), to self's order, for a bound on every
        partial product: each power of u^a v^b one shift and one mask to
        the window, so a row cut where j (a + b) passes the order costs no
        more however long the uncut row is."""
        band, mask, x = self.band, self.band.mask(self.order), self.value
        for a, b, row in rows:
            power, shift = x, band.offset(a, b)
            for c in row:
                power = (power << shift) & mask
                x += c * power
        return _BandValue(band, x, self.order, bound)

    def over_diagonal(self, strides, bound):
        """self / prod (1 - (uv)^m) over the strides m, as a series to
        self's order, for a bound on every partial running sum: the running
        sums along the diagonals, which hold at most order // 2 + 1 points
        of the window, masked to it (``_Slots.running_sums``)."""
        band = self.band
        value = band.running_sums(self.value, strides, self.order // 2 + 1, band.mask(self.order))
        return _BandValue(band, value, self.order, bound)

    def subtract(self, shifted, order):
        """The window p + q <= order of self less (uv)^c y for each pair
        (c, y) of shifted, each y held in a band of self's width D: a value
        of the band D whose slots hold the sum of the bounds of self and of
        one y per pair, that sum its bound.  self and each y are widened
        into those slots once (``_widen``), y cut at the window
        order - 2c of its first pair, and every pair of it shifts and
        subtracts that value.  The pairs of each y come in order of c, so
        that the window plus 2c covers the order; a pair whose shift is
        below its y's first raises InternalCheckError."""
        bound = self.bound + sum(y.bound for _, y in shifted)
        band = _Band(self.band.band, bound)
        value = _widen(self, band, order).value
        step = band.offset(1, 1)
        wide = {}  # y -> its window widened at its first pair
        for c, y in shifted:
            if y not in wide:
                wide[y] = _widen(y, band, order - 2 * c)
            if wide[y].order + 2 * c < order:
                raise InternalCheckError("window %d shifted by %d misses order %d" % (wide[y].order, c, order))
            value -= wide[y].value << c * step
        return _BandValue(band, value, order, bound)

    def times_diagonal(self, strides):
        """self times prod (1 - (uv)^m) over the strides m, as
        ``_Packed.times_diagonal``, the bound times ``_diagonal_norm``;
        its window at self's order depends only on self's."""
        value = self.band.diagonal_product(self.value, strides)
        return _BandValue(self.band, value, self.order, self.bound * _diagonal_norm(strides))


def _widen(held, target, order):
    """The window p + q <= order of the held ``_BandValue`` as a
    ``_BandValue`` of the band target, the same band in slots at least as
    wide, with the held bound: exact, nothing above the window.

    The held value plus its bias, masked to the window, has the biased
    slots c + 2^(8 w - 1) as its bytes, w the held width, even where the
    held value was masked with a negative coefficient in its window.
    Each of the w bytes of the slots is copied into the wider slots by
    one strided slice, and the pattern of 2^(8 w - 1) in the target's
    slots is taken off: every coefficient is kept, and no slot above the
    window is set.  A band change or a narrowing raises
    InternalCheckError: neither can keep every slot.
    """
    source = held.band
    if target.band != source.band or target.width < source.width or order > held.order:
        raise InternalCheckError(
            "cannot read a band-%d window of width %d, order %d, as band %d, width %d, order %d"
            % (source.band, source.width, held.order, target.band, target.width, order)
        )
    slots = source.slots(order)
    width, wide = source.width, target.width
    biased = (held.value + source.pattern(source.limit, slots)) & ((1 << 8 * width * slots) - 1)
    if wide > width:
        data = biased.to_bytes(width * slots, "little")
        buf = bytearray(wide * slots)
        for j in range(width):
            buf[j::wide] = data[j::width]
        biased = int.from_bytes(buf, "little")
    return _BandValue(target, biased - target.pattern(source.limit, slots), order, held.bound)


class _Packed:
    """A polynomial with int coefficients and non-negative exponents,
    packed exactly in the slots of a layout, a ``_Box`` or a ``_Band``:
    value = sum c 2^(8 width (p sp + q sq)), (sp, sq) the layout's strides.

    bound bounds every |c|, and top = (P, Q) bounds the exponents: p <= P
    and q <= Q.  Both are tracked through every operation and checked by
    the layout (``_Slots.check``), and in a band the caller keeps every
    term within its width.  Within those bounds the packing is one-to-one,
    so two values are equal iff their integers are, and the operations
    below are big-integer shifts, adds and small-int multiplies on values
    of one layout: multiplying by (uv)^k is a shift by k (sp + sq) slots,
    and by 1 - (uv)^k one shift and one subtraction.  A product by a
    polynomial multiplies the bound by its L1 norm (Young's inequality)."""

    __slots__ = ("layout", "value", "bound", "top")

    def __init__(self, layout, value, bound, top):
        layout.check(bound, top)
        self.layout = layout
        self.value = value
        self.bound = bound
        self.top = top

    def __eq__(self, other):
        """Integer equality, for values of one layout: the integers of two
        layouts can be equal for different polynomials."""
        if not isinstance(other, _Packed):
            return NotImplemented
        if other.layout is not self.layout:
            raise InternalCheckError("cannot compare values of two layouts")
        return self.value == other.value

    __hash__ = None

    def __add__(self, other):
        return self._sum(other, self.value + other.value)

    def __sub__(self, other):
        return self._sum(other, self.value - other.value)

    def _sum(self, other, value):
        """value, self plus or minus other, in their one layout."""
        layout = self.layout
        if other.layout is not layout:
            raise InternalCheckError("cannot add values of two layouts")
        (p, q), (r, s) = self.top, other.top
        return _Packed(layout, value, self.bound + other.bound, (p if p > r else r, q if q > s else s))

    def __rmul__(self, k):
        return _Packed(self.layout, k * self.value, abs(k) * self.bound, self.top)

    def uv(self, k):
        """self times (uv)^k, k >= 0: a shift by k (sp + sq) slots."""
        p, q = self.top
        return _Packed(self.layout, self.value << self.layout.offset(k, k), self.bound, (p + k, q + k))

    def times_diagonal(self, strides):
        """self times D = prod (1 - (uv)^m) over the strides m, one shift
        and subtraction per stride, in order: the bound times the largest
        L1 norm of a partial product over the first strides, each being
        formed, not only D (``_diagonal_norm``)."""
        total = sum(strides)
        p, q = self.top
        value = self.layout.diagonal_product(self.value, strides)
        return _Packed(self.layout, value, self.bound * _diagonal_norm(strides), (p + total, q + total))

    def times_binomials(self, factors):
        """self times prod (1 + c u^a v^b)^k over the factors (c, a, b, k),
        whose L1 norm is prod (1 + |c|)^k (``_times_binomials``)."""
        bound = self.bound
        p, q = self.top
        for c, a, b, k in factors:
            bound *= (1 + abs(c)) ** k
            p += k * a
            q += k * b
        layout = self.layout
        return _Packed(layout, _times_binomials(self.value, factors, layout.strides, layout.width), bound, (p, q))

    def halve(self):
        """self / 2, or None when a coefficient is odd.  Biased by the
        limit, every slot holds c + limit with no borrow, and the limit is
        even, so the low bits of the biased slots are the parities of c."""
        layout = self.layout
        slots = layout.span(self.top)
        if (self.value + layout.pattern(layout.limit, slots)) & layout.pattern(1, slots):
            return None
        return _Packed(layout, self.value >> 1, self.bound // 2, self.top)

    def unpack(self):
        """The term dict."""
        return self.layout.read(self.value, self.layout.span(self.top))

    def dual(self, dim):
        """(uv)^dim self(1/u, 1/v), for degrees at most dim in each
        variable: (p, q) goes to (dim - p, dim - q), which, the slot map
        being linear, reverses the order of the slots up to that of
        (dim, dim), dim (sp + sq).  The biased slots are reversed as bytes
        (``_reverse_slots``)."""
        if max(self.top) > dim:
            raise InternalCheckError("a degree above %d has no dual at %d" % (max(self.top), dim))
        layout = self.layout
        slots = dim * sum(layout.strides) + 1
        bias = layout.pattern(layout.limit, slots)
        data = _reverse_slots((self.value + bias).to_bytes(layout.width * slots, "little"), layout.width)
        return _Packed(layout, int.from_bytes(data, "little") - bias, self.bound, (dim, dim))

    def divide_diagonal(self, strides):
        """The quotient of self by prod (1 - (uv)^m) over the strides m,
        or None when the division is not exact; for a value of a box only,
        whose rows its masks are cut to.

        The diagonals of the box have at most reach = P + 1 points, and
        the running sums (``_Slots.running_sums``) of self cut there are, in
        the low reach (cols + 1) slots read as balanced digits, the
        quotient if there is one: the cut terms lie past the box.

        Certified, not assumed: an exact quotient is self times the series
        prod 1 / (1 - (uv)^m), of which only the first reach terms reach
        the box, so its coefficients are at most self's bound times their
        sum, the L1 norm of that cut series (``_cut_inverse_norm``), and
        its exponents are at most top - (sum m, sum m).  The candidate must
        have digits of at most limit / 2^(n+1), n the number of strides,
        and no term past those exponents (checked on the biased slots by
        masks), and prod (1 - (uv)^m) times it must be self.  Those digits
        keep every slot of that product and of the difference from self
        below 2^(8 width), so equal integers are equal polynomials.
        """
        box = self.layout
        if type(box) is not _Box:
            raise InternalCheckError("a diagonal division needs a box; this value is packed in a band")
        bits = 8 * box.width
        reach = self.top[0] + 1
        top = (self.top[0] - sum(strides), self.top[1] - sum(strides))
        bound = self.bound * _cut_inverse_norm(strides, reach)
        digit = box.limit >> (len(strides) + 1)
        if bound >= digit:
            raise InternalCheckError("quotient bound %d reaches the digit bound 2^%d" % (bound, digit.bit_length() - 1))
        if min(top) < 0:
            return _Packed(box, 0, 0, (0, 0)) if self.value == 0 else None
        low = reach * box.offset(1, 1)
        z = box.running_sums(self.value, strides, reach, (1 << low) - 1)
        if z >> (low - 1):
            z -= 1 << low
        slots = (top[0] + 1) * box.cols
        bias = box.pattern(digit, slots)
        biased = z + bias
        high = box.pattern((1 << bits) - 2 * digit, slots)
        # the slots past column top[1] of each of the top[0] + 1 rows
        row = ((1 << bits * (box.cols - top[1] - 1)) - 1) << bits * (top[1] + 1)
        past = _slot_pattern(row, box.width * box.cols, top[0] + 1)
        if not 0 <= biased < 1 << bits * slots or biased & high or (biased ^ bias) & past:
            return None
        quotient = _Packed(box, z, bound, top)
        return quotient if quotient.times_diagonal(strides) == self else None


def _reverse_slots(data, width):
    """The slots of width bytes in data in reverse order, each slot's bytes
    kept in order: one byte of every slot per slice."""
    out = bytearray(len(data))
    for k in range(width):
        out[k::width] = data[len(data) - width + k :: -width]
    return out
