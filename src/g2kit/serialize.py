"""JSON schemas for the package's values.

Rationals serialize as strings "p/q" ("p" when q = 1).  Matrices are
row-major lists of such strings.  Forms serialize as
{"degree": k, "terms": [{"indices": [...], "coeff": "p/q"}]} with 0-based
increasing indices.  A metric Lie algebra is ingested from
{"dim": 7, "brackets": [{"i": 0, "j": 5, "coeffs": {"6": "1"}}, ...]}.
A document with a key outside its schema is rejected.

Parsing accepts JSON numbers as well: integers directly, floats through
``Fraction(float)``, which is exact for the binary value in the file.

Values stored on an integer grid (matrices, vectors, forms, algebras,
connections) print from the grid, with no ``Fraction`` per entry: each
nonzero entry x over the denominator d goes through :func:`_grid_entry_str`;
algebras and connections print from their one list of nonzero entries.
The kernels' report records print here too, and :func:`render` writes
every report, as JSON or text; only this module and the command bodies of
:mod:`g2kit.cli` know the report keys and the "p/q" format.  Parsing reads
each entry as one integer pair (p, q) with :func:`rational_pair`: the plain
ASCII spelling ``[+-]digits[/digits]``, the one every report writes, goes
through ``int()``;
every other spelling and every non-string goes through :func:`parse_rational`
(``Fraction(str)`` for strings), so the accepted set and the error messages
are those of ``Fraction``, except that digit underscores are rejected on
every Python version, every spelling past the int/str digit limit gets the
one :class:`DigitLimitError` message, and an error echoes at most 80
characters of the value.  The grid is then one :func:`~g2kit.linalg.integer_pairs`
and one :meth:`Mat7.from_ints`; algebra coefficients take the same route
into the integer grid of :class:`~g2kit.liealg.MetricLieAlgebra`.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string
from math import gcd, isfinite

from .forms import FORM, KForm, all_increasing_tuples
from .liealg import MetricLieAlgebra
from .linalg import DIM, Mat7, Vec7, integer_coords, integer_pairs


class DigitLimitError(ValueError):
    """A value has an integer too long for Python's int/str conversion limit."""


def _digit_limit_error() -> DigitLimitError:
    return DigitLimitError(
        f"an exact value has more than {sys.get_int_max_str_digits()} digits, "
        "past Python's int/str conversion limit"
    )


def _clipped(text: str, width: int = 80) -> str:
    """text, cut to `width` characters ending in "...": an error message
    echoes what it rejects in one short line, however large the value."""
    return text if len(text) <= width else text[: width - 3] + "..."


def rational_str(x: Fraction | int) -> str:
    """"p/q", or "p" when q = 1, for a Fraction or an int (bools print as
    ints).  Floats, and anything else without an exact numerator and
    denominator, raise TypeError."""
    try:
        p, q = x.numerator, x.denominator
    except AttributeError:
        raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}") from None
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:
        raise _digit_limit_error() from None


# a decimal spelling M e E as Fraction reads it: mantissa digits, exponent
_EXPONENT_FORM = re.compile(r"[-+]?(\d*)\.?(\d*)e([-+]?\d+)", re.IGNORECASE)
_DIGIT_RUN = re.compile(r"\d+")


def _past_digit_limit(text: str) -> bool:
    """Whether text has a run of digits longer than ``int()`` converts."""
    limit = sys.get_int_max_str_digits()
    return bool(limit) and max(map(len, _DIGIT_RUN.findall(text)), default=0) > limit


def parse_rational(value) -> Fraction:
    """Parse a rational; zero denominators and non-finite floats raise ValueError.

    Strings are read by ``Fraction``, except that digit underscores
    ("1_000"), which ``Fraction`` accepts from Python 3.11 on, are rejected
    on every version with the message older versions give.  A numerator or
    denominator past Python's int/str digit limit, where printing it would
    fail, raises DigitLimitError; an exponent settles that first, and so
    does a run of digits past the limit, which ``int()`` inside ``Fraction``
    refuses.  An error echoes at most 80 characters of the value."""
    if isinstance(value, str):
        text = value.strip()
        if "_" in text:
            raise ValueError(f"Invalid literal for Fraction: {_clipped(repr(text))}")
        limit = sys.get_int_max_str_digits()
        match = limit and _EXPONENT_FORM.fullmatch(text)
        digits = match and match[1] + match[2]
        # M 10^(E - f) with f <= n fraction digits and 0 < M < 10^n: |E| >=
        # limit + n puts 10^limit under the numerator, or over the lowest-terms
        # denominator 10^(f - E) / gcd(M, 10^(f - E)), before 10^|E| is formed
        if digits and len(match[3].lstrip("+-")) <= limit and abs(int(match[3])) >= limit + len(digits):
            if not any(map(int, digits)):
                return Fraction(0)
            raise _digit_limit_error()
        try:
            x = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {_clipped(repr(value))}") from None
        except ValueError:
            if _past_digit_limit(text):
                raise _digit_limit_error() from None
            raise ValueError(f"Invalid literal for Fraction: {_clipped(repr(text))}") from None
        # n < 2^(3 limit) < 10^limit needs no power of ten
        if limit and any(n.bit_length() > 3 * limit and abs(n) >= 10**limit for n in (x.numerator, x.denominator)):
            raise _digit_limit_error()
        return x
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not isfinite(value):
            raise ValueError(f"{value} is not a finite rational")
        return Fraction(value)
    raise TypeError(f"cannot parse rational from {type(value).__name__}: {_clipped(repr(value))}")


def rational_pair(value) -> tuple[int, int]:
    """The rational value as integers (p, q) with q > 0, not necessarily in
    lowest terms.  A plain ASCII ``[+-]digits[/digits]`` string with a
    nonzero denominator is read with ``int()``; every other value goes
    through :func:`parse_rational`, so it is accepted or rejected, with the
    same message, exactly as there."""
    if isinstance(value, str) and value.isascii():
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] in ("+", "-") else num
        # ASCII str.isdigit is [0-9]+: no sign, space or underscore
        if digits.isdigit() and (not slash or den.isdigit()):
            try:
                p = int(digits)
                q = int(den) if slash else 1
            except ValueError:
                # the digits are checked: only the int/str digit limit fails
                raise _digit_limit_error() from None
            if q:
                return (-p if num[0] == "-" else p), q
    x = parse_rational(value)
    return x.numerator, x.denominator


def _grid_entry_str(x: int, d: int) -> str:
    """x / d in lowest terms, as rational_str prints it (d > 0); callers
    print a zero entry as "0" without calling it."""
    g = gcd(x, d)
    try:
        return str(x // g) if g == d else f"{x // g}/{d // g}"
    except ValueError:
        raise _digit_limit_error() from None


def vec_to_json(v: Vec7) -> list[str]:
    xs, d = integer_coords(v)
    return [_grid_entry_str(x, d) if x else "0" for x in xs]


def mat_to_json(m: Mat7) -> list[list[str]]:
    rows, d = integer_coords(m)
    return [[_grid_entry_str(x, d) if x else "0" for x in row] for row in rows]


def mat_from_json(data) -> Mat7:
    if isinstance(data, dict):
        data = _schema_keys(data, ("matrix",), "a matrix document").get("matrix")
    if not (
        isinstance(data, list)
        and len(data) == DIM
        and all(isinstance(row, list) and len(row) == DIM for row in data)
    ):
        raise ValueError(f"matrix needs a {DIM}x{DIM} grid of lists")
    xs, d = integer_pairs([rational_pair(x) for row in data for x in row])
    return Mat7.from_ints([xs[r : r + DIM] for r in range(0, DIM * DIM, DIM)], d)


def form_to_json(a: KForm) -> dict:
    xs, d = integer_coords(a)
    return {
        "degree": a.degree,
        "terms": [
            {"indices": list(key), "coeff": _grid_entry_str(x, d)}
            for key, x in zip(all_increasing_tuples(a.degree), xs)
            if x
        ],
    }


def integer_terms_to_json(a: KForm, offset: int) -> list[list[int]]:
    """The nonzero terms of a form with integer coefficients as
    [i_1 + offset, ..., i_k + offset, coefficient], read off the grid."""
    xs, d = integer_coords(a)
    if d != 1:
        raise ValueError(f"a {a.degree}-form with denominator {d} has no integer terms")
    return [[*(i + offset for i in key), x] for key, x in zip(all_increasing_tuples(a.degree), xs) if x]


def endo_split_to_json(split, norms) -> dict:
    """The split parts and their squared norms, `norms` being
    ``split.part_norms_sq()`` as (scalar, sym0, g2, vector)."""
    return {
        "scalar": rational_str(split.scalar),
        "sym0": mat_to_json(split.sym0),
        "g2part": mat_to_json(split.g2part),
        "vector": vec_to_json(split.vector),
        "part_norms_sq": dict(zip(("scalar", "sym0", "g2", "vector"), map(rational_str, norms))),
    }


def invariants_to_json(inv) -> dict:
    """An :class:`~g2kit.invariants.InvariantReport`; the characteristic
    polynomial only when the report has one."""
    out = {name: rational_str(getattr(inv, name)) for name in ("sigma1", "sigma2", "norm_sq", "i0", "i1", "i2")}
    if inv.charpoly is not None:
        out["charpoly"] = [rational_str(c) for c in inv.charpoly]
    return out


def torsion_class_to_json(cls) -> dict:
    """A :class:`~g2kit.torsion.TorsionClass`: its flags, and the part norms
    by class, X1..X4 being the scalar, g2, sym0 and vector parts."""
    scalar, sym0, g2, vector = map(rational_str, cls.part_norms_sq)
    return {"flags": sorted(cls.flags), "part_norms_sq": {"X1": scalar, "X2": g2, "X3": sym0, "X4": vector}}


def divergence_to_json(div) -> dict:
    """A :class:`~g2kit.liealg.DivergenceReport`, in its field order."""
    out = {name: rational_str(getattr(div, name)) for name in ("s_alt", "s_g2perp", "chi_sq", "alt_sq", "sym_sq")}
    return {
        **out, "chi": vec_to_json(div.chi), "rhs_total": rational_str(div.rhs_total),
        "div_chi": rational_str(div.div_chi), "balanced": div.balanced,
    }


def norms_to_json(norms: dict) -> dict:
    """A ``TorsionForms.norms_sq`` value, by sorted name."""
    return {name: rational_str(v) for name, v in sorted(norms.items())}


def bryant_to_json(bryant, norms: dict, vanishing) -> dict:
    """A :class:`~g2kit.liealg.BryantScalarReport`, with the torsion forms'
    ``norms_sq`` by convention and ``vanishing()``, which the caller holds."""
    return {
        "scalar_curvature": rational_str(bryant.scalar),
        "rhs_by_convention": {k: rational_str(v) for k, v in bryant.rhs_by_convention},
        "reconciling_conventions": list(bryant.reconciling),
        "delta_tau1": rational_str(bryant.delta_tau1),
        "tau_norms_form": norms_to_json(norms[FORM]),
        "tau_vanishing": sorted(vanishing),
    }


def algebra_to_json(mla) -> dict:
    """The brackets [e_i, e_j], i < j, with a nonzero structure constant."""
    coeffs = {}
    for i, j, k, x in mla._nonzero:
        if i < j:
            coeffs.setdefault((i, j), {})[str(k)] = _grid_entry_str(x, mla._den)
    return {"dim": DIM, "brackets": [{"i": i, "j": j, "coeffs": c} for (i, j), c in coeffs.items()]}


def connection_to_json(conn) -> dict:
    """The nonzero Gamma^k_ij as rows (i, j, k, value)."""
    rows = [[i, j, k, _grid_entry_str(x, conn._den)] for i, j, k, x in conn._nonzero]
    return {"columns": ["i", "j", "k", "value"], "rows": rows}


def algebra_from_json(data):
    """Parse the algebra schema.  Objects and lists must have the schema's
    JSON types; indices and dim are integers, given as JSON integers or as
    integer strings (coefficient keys are always strings).  Coefficients
    are read as integer pairs with :func:`rational_pair` and go straight to
    the algebra's integer grid.  An algebra that fails the Jacobi identity
    is rejected here, naming the first failing triple."""
    data = _schema_keys(_typed(data, dict, "an algebra"), ("dim", "brackets"), "an algebra")
    if _integer(data.get("dim", DIM)) != DIM:
        raise ValueError("only dimension 7 is supported")
    entries: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for b in _typed(data.get("brackets", []), list, "brackets"):
        b = _schema_keys(_typed(b, dict, "a bracket"), ("i", "j", "coeffs"), "a bracket")
        i, j = _index(b["i"]), _index(b["j"])
        terms = entries.setdefault((i, j), [])
        for k, v in _typed(b.get("coeffs", {}), dict, "coeffs").items():
            terms.append((_index(k), *rational_pair(v)))
    mla = MetricLieAlgebra.from_pairs(entries)
    if (defect := mla.jacobi_defect()) is not None:
        raise ValueError(f"Jacobi identity fails on triple {defect}")
    return mla


def _typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'list'}, got {_clipped(repr(value))}")
    return value


def _schema_keys(obj: dict, keys: tuple[str, ...], what: str) -> dict:
    """obj, which must have no key outside the schema's `keys`: a
    misspelled key is an error, not a silently absent one."""
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise ValueError(f"{what} has a key outside its schema ({', '.join(keys)}): {_clipped(', '.join(map(repr, unknown)))}")
    return obj


def _integer(value) -> int:
    """A JSON integer, an integral float or a plain ASCII ``[+-]digits``
    string, the integer spelling :func:`rational_pair` reads; bools,
    fractional numbers and every other string (digit underscores,
    surrounding spaces, non-ASCII digits, which ``int()`` would take) are
    rejected."""
    if isinstance(value, str):
        digits = value[1:] if value[:1] in ("+", "-") else value
        # ASCII str.isdigit is [0-9]+: no sign, space or underscore
        integral = value.isascii() and digits.isdigit()
    elif isinstance(value, float):
        integral = value.is_integer()
    else:
        integral = isinstance(value, int) and not isinstance(value, bool)
    if not integral:
        raise ValueError(f"expected an integer, got {_clipped(repr(value))}")
    try:
        return int(value)
    except ValueError:
        # the digits are checked: only the int/str digit limit fails
        raise _digit_limit_error() from None


def _index(value) -> int:
    i = _integer(value)
    if not 0 <= i < DIM:
        raise ValueError(f"index {_clipped(repr(value))} is outside 0..{DIM - 1}")
    return i


def render(report: dict, fmt: str) -> str:
    """The report as canonical_json for fmt "json", else as text: a dict is
    a ``key: value`` line per key, a nested value indented under ``key:``;
    a list of two or more rows of one length and scalar cells is a table
    with right-aligned columns, any other list a ``- item`` line per item.
    Text takes the value types of canonical_json, and TypeError for others."""
    if fmt == "json":
        return canonical_json(report)
    out: list[str] = []
    _text_lines(report, "", out)
    return "\n".join(out) + "\n"


def _text_lines(obj, pad: str, out: list[str]) -> None:
    """Append the lines of obj, indented by pad.  A list's cells are
    formatted as its rows are read, up to the first that is no table row."""
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError(f"report keys must be strings, got {obj!r}")
        entries = [(f"{pad}{key}:", value) for key, value in obj.items()]
    elif isinstance(obj, (list, tuple)):
        rows: list[list[str]] = []
        for row in obj:
            if not (isinstance(row, (list, tuple)) and len(row) == len(obj[0])):
                break
            texts = [_cell_text(x) for x in row]
            if None in texts:
                break
            rows.append(texts)
        if len(rows) == len(obj) > 1:
            widths = [max(map(len, column)) for column in zip(*rows)]
            out.extend(pad + "  ".join(t.rjust(w) for t, w in zip(texts, widths)) for texts in rows)
            return
        for texts in rows:  # rows of scalars, each a "- item" list
            out.append(pad + "-" if texts else pad + "- []")
            out.extend(f"{pad}  - {text}" for text in texts)
        entries = [(pad + "-", item) for item in obj[len(rows):]]
    else:
        out.append(pad + _cell_text(obj))
        return
    for head, value in entries:
        text = _cell_text(value)
        if text is None and value:
            out.append(head)
            _text_lines(value, pad + "  ", out)
        else:
            empty = "{}" if isinstance(value, dict) else "[]"
            out.append(f"{head} {empty if text is None else text}")


def _cell_text(value) -> str | None:
    """The text of a scalar report value; None for a dict, list or tuple."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return ("true" if value else "false") if isinstance(value, bool) else int.__repr__(value)
    if value is None:
        return "~"
    if isinstance(value, (dict, list, tuple)):
        return None
    raise TypeError(f"{type(value).__name__} is not a report value: {value!r}")


def canonical_json(obj) -> str:
    """Deterministic rendering used for every report: the bytes of
    ``json.dumps(obj, sort_keys=True, indent=2)`` and a newline.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder, so
    the report's value types (dicts with string keys, lists, tuples,
    strings, ints, bools and None) are written here instead, with the C
    string escaper; any other value raises TypeError.
    """
    return _json_text(obj, "\n") + "\n"


def _json_text(obj, newline: str) -> str:
    """The indented JSON text of obj; `newline` is a newline and the
    current indentation."""
    if isinstance(obj, str):
        return _json_string(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    # a container writes its strings and exact ints (not bools) inline, with no call
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            raise TypeError(f"report keys must be strings, got {obj!r}")
        items = [
            _json_string(key) + ": " + (_json_string(v) if type(v) is str else repr(v) if type(v) is int else _json_text(v, inner))
            for key, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_string(x) if type(x) is str else repr(x) if type(x) is int else _json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"{type(obj).__name__} is not a report value: {obj!r}")
