import json
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2kit.liealg import heisenberg_model
from g2kit.linalg import Mat7
from g2kit.sampling import rand_mat
from g2kit.serialize import (
    DigitLimitError,
    algebra_from_json,
    algebra_to_json,
    canonical_json,
    endo_split_to_json,
    form_to_json,
    integer_terms_to_json,
    mat_from_json,
    mat_to_json,
    parse_rational,
    rational_str,
)
from g2kit.so7 import decompose_endo


def test_rational_str():
    assert rational_str(Fraction(3)) == "3"
    assert rational_str(Fraction(-1, 18)) == "-1/18"
    assert rational_str(Fraction(0)) == "0"


def test_rational_str_prints_ints_and_rejects_floats():
    assert rational_str(-7) == "-7"
    assert (rational_str(True), rational_str(False)) == ("1", "0")
    for x in (0.1, 0.5, 2.0):
        # a float's binary value is not an exact input to print
        with pytest.raises(TypeError):
            rational_str(x)


def test_parse_rational_strings_and_ints():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 5/6 ") == Fraction(5, 6)
    assert parse_rational(12) == Fraction(12)


def test_parse_rational_float_is_exact_binary():
    assert parse_rational(0.5) == Fraction(1, 2)
    assert parse_rational(0.1) == Fraction(0.1)  # exact value of the binary float
    with pytest.raises(TypeError):
        parse_rational(None)
    with pytest.raises(TypeError):
        parse_rational(True)


def test_vec_mat_roundtrip():
    m = rand_mat(Random(0))
    assert mat_from_json(mat_to_json(m)) == m
    assert mat_from_json({"matrix": mat_to_json(m)}) == m
    with pytest.raises(ValueError):
        mat_from_json([["1"] * 7] * 6)


def test_printing_past_the_digit_limit():
    x = Fraction(1, 10 ** sys.get_int_max_str_digits())
    with pytest.raises(DigitLimitError):
        rational_str(x)
    with pytest.raises(DigitLimitError):
        mat_to_json(Mat7.diag([x] + [0] * 6))


def test_parsing_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    message = f"more than {limit} digits"

    def matrix(entry) -> list:
        return [[entry if i == j == 0 else "0" for j in range(7)] for i in range(7)]

    def algebra(entry) -> dict:
        return {"dim": 7, "brackets": [{"i": 0, "j": 5, "coeffs": {"6": entry}}]}

    # an exponent past the limit is rejected before its power of ten is formed
    for entry in ("1e1000000", "1e-1000000", "-3.5E10000000"):
        with pytest.raises(DigitLimitError, match=message):
            parse_rational(entry)
        with pytest.raises(DigitLimitError, match=message):
            mat_from_json(matrix(entry))
        with pytest.raises(DigitLimitError, match=message):
            algebra_from_json(algebra(entry))
    # the boundary is that of printing: a value that prints parses, one that
    # cannot print is rejected (2e-L is 1/(5 10^(L-1)), 3e-L is 3/10^L)
    for fits, past in (
        (f"1e{limit - 1}", f"1e{limit}"),
        (f"1e-{limit - 1}", f"1e-{limit}"),
        (f"0.1e{limit}", f"10e{limit - 1}"),
        (f"2e-{limit}", f"3e-{limit}"),
    ):
        assert mat_to_json(mat_from_json(matrix(fits)))[0][0] == rational_str(Fraction(fits))
        with pytest.raises(DigitLimitError):
            rational_str(Fraction(past))
        with pytest.raises(DigitLimitError, match=message):
            parse_rational(past)
    # a zero mantissa is zero whatever its exponent
    assert parse_rational("0e100000000") == parse_rational("-0.00E-100000000") == 0


def test_errors_clip_the_values_they_echo():
    # a short value is echoed whole, as before; a long one is cut to 80 characters
    short = {
        "brackets must be a JSON list, got {'i': 0}": {"dim": 7, "brackets": {"i": 0}},
        "expected an integer, got 7.5": {"dim": 7.5},
        "expected an integer, got 'seven'": {"dim": "seven"},
        "index 7 is outside 0..6": {"brackets": [{"i": 7, "j": 0}]},
        "an algebra has a key outside its schema (dim, brackets): 'Dim', 'bracket'": {"Dim": 7, "bracket": []},
    }
    for message, doc in short.items():
        with pytest.raises(ValueError) as exc:
            algebra_from_json(doc)
        assert str(exc.value) == message
    with pytest.raises(ValueError, match=r"^zero denominator in '1/0'$"):
        parse_rational("1/0")
    long_list = [0] * 10**6
    clipped = repr(long_list)[:77] + "..."
    for doc, message in (
        ({"dim": 7, "brackets": [long_list]}, f"a bracket must be a JSON object, got {clipped}"),
        ({"dim": long_list}, f"expected an integer, got {clipped}"),
        ({"dim": "x" * 10**6}, f"expected an integer, got {repr('x' * 77)[:77]}..."),
    ):
        with pytest.raises(ValueError) as exc:
            algebra_from_json(doc)
        assert str(exc.value) == message
    with pytest.raises(TypeError) as exc:
        parse_rational(long_list)
    assert str(exc.value) == f"cannot parse rational from list: {clipped}"
    for text in ("x" * 10**6, "1/" + "0" * 10**6):
        with pytest.raises(ValueError) as exc:
            mat_from_json([[text] * 7] * 7)
        assert len(str(exc.value)) < 120


def test_form_roundtrip(standard):
    a = standard.phi
    data = form_to_json(a)
    assert data["degree"] == 3
    assert all(t["indices"] == sorted(t["indices"]) for t in data["terms"])


def test_integer_terms_read_the_grid(frame):
    # the tables report's star_phi quadruples: labelled indices and the
    # integer coefficient of each nonzero term, in key order
    off = frame.label_offset
    expected = [[*(i + off for i in key), int(v)] for key, v in frame.star_phi.terms()]
    assert integer_terms_to_json(frame.star_phi, off) == expected
    assert len(expected) == 7 and all(abs(t[-1]) == 1 for t in expected)
    # a non-integral coefficient is refused, not truncated
    with pytest.raises(ValueError, match="denominator 2"):
        integer_terms_to_json(frame.phi.scale(Fraction(1, 2)), off)


def test_endo_split_schema(standard):
    rng = Random(1)
    split = decompose_endo(rand_mat(rng), standard)
    data = endo_split_to_json(split, split.part_norms_sq())
    assert set(data) == {"scalar", "sym0", "g2part", "vector", "part_norms_sq"}
    assert set(data["part_norms_sq"]) == {"scalar", "sym0", "g2", "vector"}


def test_algebra_roundtrip():
    mla, _, _ = heisenberg_model()
    data = algebra_to_json(mla)
    assert data["dim"] == 7
    assert {"i": 0, "j": 5, "coeffs": {"6": "1"}} in data["brackets"]
    assert algebra_from_json(data) == mla
    # integral floats and integer strings are read as the integers they spell
    spelled = [dict(b, i=float(b["i"]), j=str(b["j"])) for b in data["brackets"]]
    assert algebra_from_json({"dim": 7.0, "brackets": spelled}) == mla
    with pytest.raises(ValueError):
        algebra_from_json({"dim": 6, "brackets": []})


@pytest.mark.parametrize("spelling", ["0_7", " 7 ", "\uff17", "0_0", " 5 ", "\uff15", "+-5", ""])
def test_integer_strings_are_plain_ascii_digits(spelling):
    # int() reads digit underscores, surrounding spaces and full-width
    # digits; an index, dim or coefficient key must be [+-]digits
    message = f"expected an integer, got {spelling!r}"
    bracket = {"i": 0, "j": 5, "coeffs": {"6": "1"}}
    for doc in (
        {"dim": spelling, "brackets": [bracket]},
        {"dim": 7, "brackets": [dict(bracket, i=spelling)]},
        {"dim": 7, "brackets": [dict(bracket, j=spelling)]},
        {"dim": 7, "brackets": [dict(bracket, coeffs={spelling: "1"})]},
    ):
        with pytest.raises(ValueError) as exc:
            algebra_from_json(doc)
        assert str(exc.value) == message
    # the plain spellings, signed ones included, still read as integers
    assert algebra_from_json({"dim": "+7", "brackets": [{"i": "-0", "j": "+5", "coeffs": {"06": "1"}}]}) == (
        algebra_from_json({"dim": 7, "brackets": [{"i": 0, "j": 5, "coeffs": {"6": "1"}}]})
    )


def test_canonical_json_is_deterministic():
    obj = {"b": [1, 2], "a": {"y": "1/2", "x": None}}
    assert canonical_json(obj) == canonical_json({"a": {"x": None, "y": "1/2"}, "b": [1, 2]})
    assert canonical_json(obj).endswith("\n")


# the value types of a report, nested: strings over all of Unicode (control
# characters and non-ASCII included), ints, bools, None, and empty or
# nonempty lists and string-keyed dicts
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=40,
)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(REPORT_VALUES)
@example({"": [], "a\x00\x1f\x7f": {}, "é€😀": ["\u2028", "\"\\/", -(10**30)]})
@example([[], {}, [[]], {"b": {"a": None}}, True, False, 0])
def test_canonical_json_matches_json_dumps(obj):
    assert canonical_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_canonical_json_writes_tuples_and_rejects_other_values():
    obj = {"t": (1, ("a", None))}
    assert canonical_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    # an exact report holds no floats, and its keys are strings
    for other in ({"x": 0.5}, {1: "int key"}, [Fraction(1, 2)]):
        with pytest.raises(TypeError):
            canonical_json(other)
