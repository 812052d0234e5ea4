"""JSON schemas for the package's values.

Rationals serialize as strings "p/q" ("p" when q = 1).  Matrices are
row-major lists of such strings.  Forms serialize as
{"degree": k, "terms": [{"indices": [...], "coeff": "p/q"}]} with 0-based
increasing indices.  A metric Lie algebra is ingested from
{"dim": 7, "brackets": [{"i": 0, "j": 5, "coeffs": {"6": "1"}}, ...]}.

Parsing accepts JSON numbers as well: integers directly, floats through
``Fraction(float)``, which is exact for the binary value in the file.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .forms import KForm
from .linalg import DIM, Mat7, Vec7


def rational_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(value) -> Fraction:
    """Parse a rational; zero denominators and non-finite floats raise ValueError."""
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{value} is not a finite rational")
        return Fraction(value)
    raise TypeError(f"cannot parse rational from {type(value).__name__}: {value!r}")


def vec_to_json(v: Vec7) -> list[str]:
    return [rational_str(c) for c in v]


def vec_from_json(data) -> Vec7:
    if len(data) != DIM:
        raise ValueError(f"vector needs {DIM} entries, got {len(data)}")
    return Vec7(tuple(parse_rational(x) for x in data))


def mat_to_json(m: Mat7) -> list[list[str]]:
    return [[rational_str(x) for x in row] for row in m.entries]


def mat_from_json(data) -> Mat7:
    if isinstance(data, dict):
        data = data.get("matrix")
    if not (
        isinstance(data, list)
        and len(data) == DIM
        and all(isinstance(row, list) and len(row) == DIM for row in data)
    ):
        raise ValueError(f"matrix needs a {DIM}x{DIM} grid of lists")
    return Mat7(tuple(tuple(parse_rational(x) for x in row) for row in data))


def form_to_json(a: KForm) -> dict:
    return {
        "degree": a.degree,
        "terms": [
            {"indices": list(key), "coeff": rational_str(value)}
            for key, value in a.terms()
        ],
    }


def form_from_json(data) -> KForm:
    degree = int(data["degree"])
    terms = {}
    for term in data.get("terms", []):
        key = tuple(int(i) for i in term["indices"])
        terms[key] = terms.get(key, Fraction(0)) + parse_rational(term["coeff"])
    return KForm(degree, terms)


def endo_split_to_json(split) -> dict:
    norms = split.part_norms_sq()
    return {
        "scalar": rational_str(split.scalar),
        "sym0": mat_to_json(split.sym0),
        "g2part": mat_to_json(split.g2part.mat),
        "vector": vec_to_json(split.vector),
        "part_norms_sq": {
            "scalar": rational_str(norms[0]),
            "sym0": rational_str(norms[1]),
            "g2": rational_str(norms[2]),
            "vector": rational_str(norms[3]),
        },
    }


def algebra_to_json(mla) -> dict:
    brackets = []
    for i, j, k, v in mla.nonzero_entries():
        entry = next((b for b in brackets if b["i"] == i and b["j"] == j), None)
        if entry is None:
            entry = {"i": i, "j": j, "coeffs": {}}
            brackets.append(entry)
        entry["coeffs"][str(k)] = rational_str(v)
    return {"dim": DIM, "brackets": brackets}


def algebra_from_json(data):
    """Parse the algebra schema.  Objects and lists must have the schema's
    JSON types; indices and dim are integers, given as JSON integers or as
    integer strings (coefficient keys are always strings)."""
    from .liealg import MetricLieAlgebra

    data = _typed(data, dict, "an algebra")
    if _integer(data.get("dim", DIM)) != DIM:
        raise ValueError("only dimension 7 is supported")
    entries = {}
    for b in _typed(data.get("brackets", []), list, "brackets"):
        b = _typed(b, dict, "a bracket")
        i, j = _index(b["i"]), _index(b["j"])
        coeffs = {_index(k): parse_rational(v) for k, v in _typed(b.get("coeffs", {}), dict, "coeffs").items()}
        key = (i, j)
        acc = entries.setdefault(key, {})
        for k, v in coeffs.items():
            acc[k] = acc.get(k, Fraction(0)) + v
    return MetricLieAlgebra.from_nonzero(entries)


def _typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'list'}, got {value!r}")
    return value


def _integer(value) -> int:
    """A JSON integer, an integral float or an integer string; bools and
    fractional numbers are rejected rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _index(value) -> int:
    i = _integer(value)
    if not 0 <= i < DIM:
        raise ValueError(f"index {value!r} is outside 0..{DIM - 1}")
    return i


def canonical_json(obj) -> str:
    """Deterministic rendering used for every report."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
