"""Property test: no input document makes the CLI crash.

Documents are drawn near the two input schemas (the classify matrix and the
nilmanifold algebra), with wrong JSON types, out-of-range or non-integral
indices and malformed rationals mixed in.  Whatever the document, the CLI
exits with 0, 1 or 2 and writes either nothing or exactly one ``error:``
line to stderr.  The search is derandomized, so every run draws the same
examples.
"""

import json
import math
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from g2kit.cli import main

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-8, 8),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["0", "1", "-1/2", "3/4", "1/0", "x", "7", "", " 2 ", "1e3"]),
    st.text(max_size=4),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
INDEX = st.one_of(
    st.integers(-1, 7),
    st.sampled_from(["0", "3", "6", "7", "-1", "x", "1.5"]),
    st.booleans(),
    st.sampled_from([1.0, 1.9, 6.5, math.inf]),
)
RATIONAL = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1", "-1", "1/2", "2/3", "1/0", "x"]),
    st.sampled_from([0.5, math.inf, math.nan]),
)
BRACKET = st.one_of(
    st.fixed_dictionaries(
        {"i": INDEX, "j": INDEX, "coeffs": st.dictionaries(INDEX.map(str), RATIONAL, max_size=3) | JSON}
    ),
    JSON,
)
ALGEBRA = st.one_of(
    st.fixed_dictionaries({"dim": st.one_of(st.just(7), INDEX), "brackets": st.lists(BRACKET, max_size=3)}),
    st.fixed_dictionaries({"brackets": st.lists(BRACKET, max_size=3) | JSON}),
    JSON,
)
ROW = st.lists(RATIONAL, min_size=7, max_size=7)
MATRIX = st.one_of(
    st.fixed_dictionaries({"matrix": st.lists(ROW, min_size=7, max_size=7)}),
    st.lists(ROW | JSON, min_size=6, max_size=8),
    st.fixed_dictionaries({"matrix": JSON}),
    JSON,
)


@settings(
    derandomize=True,
    max_examples=120,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=st.one_of(st.tuples(st.just("classify"), MATRIX), st.tuples(st.just("nilmanifold"), ALGEBRA)))
def test_cli_survives_any_input_document(tmp_path, capsys, case):
    command, doc = case
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))  # non-finite floats are written as NaN / Infinity
    code = main([command, "--input", str(path), "--format", "json"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert err == "" or (err.startswith("error: ") and len(err.splitlines()) == 1)


# documents every input must reject: an index, dim or coefficient key that
# int() reads but the schema does not (digit underscores, surrounding
# whitespace, full-width digits), nesting past the recursion limit of
# json.load, and an exponent spelling past the int/str digit limit
FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
LIMIT = sys.get_int_max_str_digits()


@st.composite
def misspelt_integer(draw, n: int) -> str:
    text = str(n)
    spelling = draw(st.sampled_from(["0_{}", "0_0{}", " {}", "{} ", " {} ", "\t{}\n"]))
    return text.translate(FULL_WIDTH) if draw(st.booleans()) else spelling.format(text)


@st.composite
def misspelt_algebra(draw) -> str:
    # a valid bracket [e_i, e_j] = e_k with one integer misspelt
    i, j, k = draw(st.permutations(range(7)))[:3]
    bracket = {"i": i, "j": j, "coeffs": {str(k): "1"}}
    field = draw(st.sampled_from(["dim", "i", "j", "key"]))
    if field == "dim":
        return json.dumps({"dim": draw(misspelt_integer(7)), "brackets": [bracket]})
    bad = draw(misspelt_integer({"i": i, "j": j, "key": k}[field]))
    bracket = {**bracket, "coeffs": {bad: "1"}} if field == "key" else {**bracket, field: bad}
    return json.dumps({"dim": 7, "brackets": [bracket]})


@st.composite
def past_limit_exponent(draw) -> str:
    # M e E with |E| >= limit + digits of M cannot print, for either sign of E
    mantissa = draw(st.integers(1, 10**6))
    exponent = LIMIT + len(str(mantissa)) + draw(st.integers(0, 10**6))
    signs = st.sampled_from(["", "-", "+"])
    return f"{draw(signs)}{mantissa}{draw(st.sampled_from('eE'))}{draw(signs)}{exponent}"


def entry_text(command: str, entry: str) -> str:
    """An input document whose one entry is the JSON text `entry`."""
    if command == "classify":
        doc = {"matrix": [["N" if i == j == 0 else "0" for j in range(7)] for i in range(7)]}
    else:
        doc = {"dim": 7, "brackets": [{"i": 0, "j": 5, "coeffs": {"6": "N"}}]}
    return json.dumps(doc).replace('"N"', entry)


COMMANDS = st.sampled_from(["classify", "nilmanifold"])
DEEP = st.builds(lambda command, depth: (command, entry_text(command, "[" * depth + "]" * depth)),
                 COMMANDS, st.integers(2_000, 100_000))
PAST_LIMIT = st.builds(lambda command, entry: (command, entry_text(command, json.dumps(entry))),
                       COMMANDS, past_limit_exponent())
REJECTED = st.one_of(st.tuples(st.just("nilmanifold"), misspelt_algebra()), DEEP, PAST_LIMIT)


@settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=REJECTED)
def test_cli_rejects_misspelt_deep_and_oversized_input(tmp_path, capsys, case):
    command, text = case
    path = tmp_path / "input.json"
    path.write_text(text)
    code = main([command, "--input", str(path), "--format", "json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
