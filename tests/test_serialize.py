import json
from fractions import Fraction

import pytest

from hpbundles import DomainError, HNType, LaurentPoly, ReductiveClass, TruncatedSeries, WeightSystem
from hpbundles import serialize
from hpbundles.rank2 import weight_system_adjoint_sl2


def test_poly_obj_is_sorted_and_stringly_exact():
    p = LaurentPoly({(2, 2): 1, (0, 0): Fraction(1, 2)})
    obj = serialize.poly_to_obj(p)
    assert obj == [{"p": 0, "q": 0, "c": "1/2"}, {"p": 2, "q": 2, "c": "1"}]


def read_back(obj):
    """A written form as a reader of the CLI's output finds it: printed
    by ``dumps`` and parsed as JSON."""
    return json.loads(serialize.dumps(obj))


def poly_from_terms(terms):
    return LaurentPoly({(t["p"], t["q"]): serialize.parse_fraction(t["c"]) for t in terms})


def test_poly_roundtrip():
    # every term is written exactly: the JSON text gives the polynomial back
    p = LaurentPoly({(0, 0): 1, (2, 1): Fraction(-3, 2), (-1, 4): 7})
    assert poly_from_terms(read_back(serialize.poly_to_obj(p))) == p


def test_series_roundtrip():
    s = TruncatedSeries({(0, 0): 1, (1, 1): 3, (2, 0): Fraction(5, 7)}, 5)
    obj = read_back(serialize.series_to_obj(s))
    assert TruncatedSeries(poly_from_terms(obj["terms"]).terms(), obj["order"]) == s


def test_weight_system_roundtrip():
    # the adjoint system of SL(2) at genus 3, as a --system file holds it
    obj = {
        "dim": 1,
        "weights": [{"v": [2], "mult": 3}, {"v": [0], "mult": 3}, {"v": [-2], "mult": 3}],
        "roots": [[2], [-2]],
        "chamber": [[1]],
    }
    assert serialize.weight_system_from_obj(obj) == weight_system_adjoint_sl2(3)


def test_weight_system_fraction_entries():
    ws = WeightSystem(
        dim=2,
        weights=(((Fraction(1, 2), 1), 2),),
        roots=(),
        chamber=((1, 0),),
    )
    obj = {"dim": 2, "weights": [{"v": ["1/2", 1], "mult": 2}], "chamber": [[1, 0]]}
    assert serialize.weight_system_from_obj(obj) == ws


def test_weight_system_malformed_rejected():
    with pytest.raises(DomainError):
        serialize.weight_system_from_obj({"weights": []})


def test_hn_type_roundtrip():
    t = HNType(((1, 3), (2, -1)))
    obj = read_back(serialize.hn_type_to_obj(t, codim=4))
    assert HNType(tuple(map(tuple, obj["quotients"]))) == t
    assert obj["codim"] == 4


def test_reductive_class_roundtrip():
    c = ReductiveClass(((1, 1), (2, 1)), at_dimension_bound=True)
    obj = read_back(serialize.reductive_class_to_obj(c))
    back = ReductiveClass(tuple(map(tuple, obj["pairs"])), at_dimension_bound=obj["at_dimension_bound"])
    assert back.pairs == c.pairs
    assert back.at_dimension_bound == c.at_dimension_bound
    assert obj["dim"] == c.dim


def test_dumps_deterministic():
    s = TruncatedSeries({(1, 1): 1, (0, 0): Fraction(1, 2)}, 4)
    first = serialize.dumps(serialize.series_to_obj(s))
    second = serialize.dumps(serialize.series_to_obj(s))
    assert first == second


def test_fraction_strings_never_floats():
    with pytest.raises(DomainError):
        serialize.parse_fraction(0.5)


@pytest.mark.parametrize("flag", [True, False])
def test_booleans_are_not_numbers(flag):
    with pytest.raises(DomainError, match="expected an integer or a fraction string"):
        serialize.parse_fraction(flag)


# the integer fields of the forms the CLI writes, each read by the rule
# (``_int_from_obj``) that reads the integer fields of a --system file
WRITTEN_INTEGER_FIELDS = {
    "poly-p": "p",
    "poly-q": "q",
    "series-order": "order",
    "hn-type-rank": "rank",
    "hn-type-degree": "degree",
    "class-multiplicity": "multiplicity",
    "class-rank": "rank",
}
INTEGER_FIELDS = {
    **{
        key: lambda x, name=name: serialize._int_from_obj(x, name)
        for key, name in WRITTEN_INTEGER_FIELDS.items()
    },
    "weight-system-dim": lambda x: serialize.weight_system_from_obj({"dim": x, "weights": []}),
    "weight-system-mult": lambda x: serialize.weight_system_from_obj(
        {"dim": 1, "weights": [{"v": [1], "mult": x}]}
    ),
}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
@pytest.mark.parametrize("value", [1.7, 1.0, 3.9, True, False, "1.5", None], ids=repr)
def test_integer_fields_reject_floats_and_booleans(field, value):
    with pytest.raises(DomainError, match="must be an integer"):
        INTEGER_FIELDS[field](value)


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_fields_read_ints_and_integer_strings(field):
    assert INTEGER_FIELDS[field](1) == INTEGER_FIELDS[field]("1")


def fraction_reference(value):
    """What ``parse_fraction`` made of a string before it read the forms
    ``fraction_to_str`` writes with int(): ``Fraction(value)``, or the
    DomainError text of its failure."""
    if "e" in value or "E" in value:
        return "bad fraction string %r: exponents are not accepted" % (value,)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as err:
        return "bad fraction string %r: %s" % (value, err)


def parse_outcome(value):
    try:
        got = serialize.parse_fraction(value)
    except DomainError as err:
        return str(err)
    assert type(got) is Fraction
    return got


@pytest.mark.parametrize(
    "value",
    [
        "3", "-3", "0", "1/2", "-7/3", "2/4", "10/1", "-0/5", "007/003",
        "--3", "-", "+3", " 3", "3 ", "1_0", "3/", "/3", "3/-2", "0/0", "3/00",
        "007", "-0", "\u0663", "\u00b2", "1.5", "1e3", "1" * 5000, "1/" + "7" * 5000,
    ],
    ids=lambda value: value if len(value) < 20 else "%d-chars" % len(value),
)
def test_parse_fraction_matches_fraction_reading(value):
    # the canonical forms are read by int(); everything else, a digit
    # int() reads but the ASCII test refuses (U+0663) or one it does not
    # read (U+00B2) included, must give what Fraction gave before
    assert parse_outcome(value) == fraction_reference(value)


try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:  # hypothesis is a test-only dependency
    st = None


@pytest.mark.skipif(st is None, reason="hypothesis is a test-only dependency")
def test_parse_fraction_matches_fraction_reading_sweep():
    # signs, ASCII digits, slashes, spaces, underscores and one non-ASCII digit
    @given(st.text(alphabet="-+0123456789/ _\u0663", max_size=12))
    def check(value):
        assert parse_outcome(value) == fraction_reference(value)

    check()
