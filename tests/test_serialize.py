from fractions import Fraction

import pytest

from hpbundles import (
    DomainError,
    FactoredRational,
    HNType,
    LaurentPoly,
    ReductiveClass,
    TruncatedSeries,
    WeightSystem,
)
from hpbundles import serialize
from hpbundles.rank2 import weight_system_adjoint_sl2


def test_poly_roundtrip():
    p = LaurentPoly({(0, 0): 1, (2, 1): Fraction(-3, 2), (-1, 4): 7})
    assert serialize.poly_from_obj(serialize.poly_to_obj(p)) == p


def test_poly_obj_is_sorted_and_stringly_exact():
    p = LaurentPoly({(2, 2): 1, (0, 0): Fraction(1, 2)})
    obj = serialize.poly_to_obj(p)
    assert obj == [{"p": 0, "q": 0, "c": "1/2"}, {"p": 2, "q": 2, "c": "1"}]


def test_rational_roundtrip():
    f = FactoredRational(
        LaurentPoly({(0, 0): 1, (1, 1): -2}),
        {(1, 1): 2, (2, 2): 1},
        Fraction(1, 2),
    )
    g = serialize.rational_from_obj(serialize.rational_to_obj(f))
    assert g.num == f.num and g.den == f.den and g.scalar == f.scalar


def test_rational_json_shape():
    f = FactoredRational(LaurentPoly({(0, 0): 1}), {(1, 1): 2}, Fraction(1, 2))
    obj = serialize.rational_to_obj(f)
    assert obj == {
        "scalar": "1/2",
        "num": [{"p": 0, "q": 0, "c": "1"}],
        "den": [{"a": 1, "b": 1, "k": 2}],
    }


def test_series_roundtrip():
    s = TruncatedSeries({(0, 0): 1, (1, 1): 3}, 5)
    assert serialize.series_from_obj(serialize.series_to_obj(s)) == s


def test_weight_system_roundtrip():
    ws = weight_system_adjoint_sl2(3)
    again = serialize.weight_system_from_obj(serialize.weight_system_to_obj(ws))
    assert again == ws


def test_weight_system_fraction_entries():
    ws = WeightSystem(
        dim=2,
        weights=(((Fraction(1, 2), 1), 2),),
        roots=(),
        chamber=((1, 0),),
    )
    obj = serialize.weight_system_to_obj(ws)
    assert obj["weights"][0]["v"] == ["1/2", 1]
    assert serialize.weight_system_from_obj(obj) == ws


def test_weight_system_malformed_rejected():
    with pytest.raises(DomainError):
        serialize.weight_system_from_obj({"weights": []})


def test_hn_type_roundtrip():
    t = HNType(((1, 3), (2, -1)))
    assert serialize.hn_type_from_obj(serialize.hn_type_to_obj(t)) == t


def test_reductive_class_roundtrip():
    c = ReductiveClass(((1, 1), (2, 1)), at_dimension_bound=True)
    back = serialize.reductive_class_from_obj(serialize.reductive_class_to_obj(c))
    assert back.pairs == c.pairs
    assert back.at_dimension_bound == c.at_dimension_bound


def test_dumps_deterministic():
    f = FactoredRational(LaurentPoly({(1, 1): 1, (0, 0): 1}), {(2, 2): 1, (1, 1): 1})
    first = serialize.dumps(serialize.rational_to_obj(f))
    second = serialize.dumps(serialize.rational_to_obj(f))
    assert first == second


def test_fraction_strings_never_floats():
    with pytest.raises(DomainError):
        serialize.parse_fraction(0.5)


@pytest.mark.parametrize("flag", [True, False])
def test_booleans_are_not_numbers(flag):
    with pytest.raises(DomainError, match="expected an integer or a fraction string"):
        serialize.parse_fraction(flag)
    with pytest.raises(DomainError, match="expected an integer or a fraction string"):
        serialize.poly_from_obj([{"p": 0, "q": 0, "c": flag}])
    with pytest.raises(DomainError, match="expected an integer or a fraction string"):
        serialize.rational_from_obj({"scalar": flag, "num": [{"p": 0, "q": 0, "c": "1"}], "den": []})


INTEGER_FIELDS = {
    "poly-p": lambda x: serialize.poly_from_obj([{"p": x, "q": 0, "c": "1"}]),
    "poly-q": lambda x: serialize.poly_from_obj([{"p": 0, "q": x, "c": "1"}]),
    "den-a": lambda x: serialize.rational_from_obj({"num": [], "den": [{"a": x, "b": 1, "k": 1}]}),
    "den-b": lambda x: serialize.rational_from_obj({"num": [], "den": [{"a": 1, "b": x, "k": 1}]}),
    "den-k": lambda x: serialize.rational_from_obj({"num": [], "den": [{"a": 1, "b": 1, "k": x}]}),
    "series-order": lambda x: serialize.series_from_obj({"order": x, "terms": []}),
    "hn-type-rank": lambda x: serialize.hn_type_from_obj({"quotients": [[x, 1]]}),
    "hn-type-degree": lambda x: serialize.hn_type_from_obj({"quotients": [[1, x]]}),
    "class-multiplicity": lambda x: serialize.reductive_class_from_obj({"pairs": [[x, 1]]}),
    "class-rank": lambda x: serialize.reductive_class_from_obj({"pairs": [[1, x]]}),
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
    # FactoredRational has no ==, so the values are compared by their repr
    assert repr(INTEGER_FIELDS[field](1)) == repr(INTEGER_FIELDS[field]("1"))


MALFORMED_SHAPES = {
    "poly-term-without-c": lambda: serialize.poly_from_obj([{"p": 1}]),
    "rational-as-list": lambda: serialize.rational_from_obj([1]),
    "rational-off-diagonal-factor": lambda: serialize.rational_from_obj(
        {"num": [], "den": [{"a": 1, "b": 2, "k": 1}]}
    ),
    "series-without-order": lambda: serialize.series_from_obj({"terms": []}),
    "hn-type-short-pair": lambda: serialize.hn_type_from_obj({"quotients": [[1]]}),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_SHAPES))
def test_malformed_shapes_are_domain_errors(shape):
    # a KeyError, AttributeError or ValueError escaping here would crash
    # the CLI instead of exiting 1
    with pytest.raises(DomainError, match="malformed"):
        MALFORMED_SHAPES[shape]()


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
