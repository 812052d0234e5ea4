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
