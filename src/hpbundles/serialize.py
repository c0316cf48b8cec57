"""Machine-readable forms of every value type.

Coefficients travel as exact fraction strings ("1", "-3", "1/2"); term
lists are emitted sorted by (p+q, p) so identical values always print
byte-identically.  Weight systems are the one value read back: a file
of the form the CLI's ``--system`` option takes becomes a
``convex.WeightSystem`` (``weight_system_from_obj``), its fields read
exactly or refused as a DomainError.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction

from . import convex
from .errors import DomainError


def fraction_to_str(c):
    return str(c)


def parse_fraction(value):
    """An int or a fraction string as a Fraction; JSON booleans, floats and
    anything else fail.

    The forms ``fraction_to_str`` writes, ASCII "-?digits" and
    "-?digits/digits" with a nonzero denominator, are read by ``int()``,
    which gives the Fraction that ``Fraction(value)`` gives; any other
    string (a decimal, a sign "+", spaces, "_", a zero denominator, or
    more digits than ``int()`` reads) is left to ``Fraction``.  A string
    with an exponent fails before ``Fraction`` reads it: a few characters
    such as "1e10000000" would ask for an integer of millions of digits,
    and ``fraction_to_str`` never writes one."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if (
            value.isascii()
            and (num[1:] if num[:1] == "-" else num).isdigit()
            and (not slash or den.isdigit() and den.strip("0"))
        ):
            try:
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            except ValueError:
                pass  # over int()'s digit limit: Fraction(value) says so below
        if "e" in value or "E" in value:
            raise DomainError("bad fraction string %r: exponents are not accepted" % (value,))
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as err:
            raise DomainError("bad fraction string %r: %s" % (value, err)) from err
    raise DomainError("expected an integer or a fraction string, got %r" % (value,))


def poly_to_obj(p):
    return [
        {"p": e[0], "q": e[1], "c": fraction_to_str(c)}
        for e, c in p.sorted_terms()
    ]


@contextmanager
def _reading(kind):
    """Re-raise any error met while reading a kind of value, a bad field
    or a malformed shape (a missing key, a list where an object belongs,
    ...), as one DomainError naming the kind."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        # a DomainError says what is wrong; a KeyError alone names only the key
        detail = err if isinstance(err, DomainError) else "%s: %s" % (type(err).__name__, err)
        raise DomainError("malformed %s: %s" % (kind, detail)) from err


def series_to_obj(s):
    return {"order": s.order, "terms": poly_to_obj(s.as_poly())}


def _vector_to_obj(v):
    return [x.numerator if x.denominator == 1 else fraction_to_str(x) for x in v]


def _vector_from_obj(obj):
    if not isinstance(obj, list):
        raise DomainError("a vector must be a list, got %r" % (obj,))
    return tuple(parse_fraction(x) for x in obj)


def _int_from_obj(value, name):
    """The integer field name: an int, or a string that int() reads.
    Floats, booleans and any other value fail."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise DomainError("%s must be an integer, got %r" % (name, value))
    try:
        return int(value)
    except ValueError as err:
        raise DomainError("%s must be an integer, got %r" % (name, value)) from err


def weight_system_from_obj(obj):
    with _reading("weight system"):
        return convex.WeightSystem(
            dim=_int_from_obj(obj["dim"], "dim"),
            weights=tuple(
                (_vector_from_obj(w["v"]), _int_from_obj(w["mult"], "mult")) for w in obj["weights"]
            ),
            roots=tuple(_vector_from_obj(r) for r in obj.get("roots", [])),
            chamber=tuple(_vector_from_obj(s) for s in obj.get("chamber", [])),
        )


def beta_index_to_obj(bi):
    return {
        "beta": _vector_to_obj(bi.beta),
        "support": [_vector_to_obj(v) for v in bi.support],
    }


def hn_type_to_obj(t, codim=None):
    obj = {"quotients": [[r, d] for r, d in t.quotients]}
    if codim is not None:
        obj["codim"] = codim
    return obj


def reductive_class_to_obj(c, codim=None):
    obj = {
        "pairs": [[m, r] for m, r in c.pairs],
        "dim": c.dim,
        "at_dimension_bound": c.at_dimension_bound,
    }
    if codim is not None:
        obj["codim"] = codim
    return obj


def dumps(obj):
    """Deterministic JSON text (stable key order, no whitespace drift)."""
    return json.dumps(obj, indent=2, sort_keys=False)
