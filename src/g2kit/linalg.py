"""Exact rational vectors and matrices on R^7.

No floating point is allowed anywhere.  A :class:`Vec7` and a :class:`Mat7`
each hold an integer grid over one positive common denominator, in lowest
terms, so vector and matrix arithmetic runs on plain integers; both share
that storage with the metric Lie algebras and connections of
:mod:`g2kit.liealg` and the k-forms of :mod:`g2kit.forms` through one
immutable base.  Serialisation
reads and writes the grid directly (:func:`integer_rows`,
:meth:`Mat7.from_ints`); the ``Fraction`` coordinates and entries are a
view built on demand for the API.  Values are immutable and safe to share
between threads.  The package's frozen report records (:class:`_Record`)
share the base's attribute block.

Matrix convention: entries[i][j] is the coefficient of e_i in M(e_j), so a
matrix acts on column vectors, ``(M @ v)[i] = sum_j M[i][j] v[j]``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm
from operator import attrgetter, mul

DIM = 7

# integer coordinates of the basis vectors e_0..e_6
UNIT = tuple(tuple(int(i == j) for j in range(DIM)) for i in range(DIM))

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def as_fraction(x) -> Fraction:
    """Coerce an int or Fraction; floats are rejected to keep the core exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def _check_index(i: int) -> int:
    """i, when it indexes a basis vector; ValueError naming it otherwise."""
    if not 0 <= i < DIM:
        raise ValueError(f"index {i!r} is outside 0..{DIM - 1}")
    return i


def _leaves(grid, depth: int):
    """The entries of a nested grid `depth` levels deep, in order."""
    for _ in range(depth - 1):
        grid = chain.from_iterable(grid)
    return grid


def _mapped(f, grid, depth: int) -> tuple:
    """The nested grid `depth` levels deep with f applied to every entry."""
    if depth == 1:
        return tuple(map(f, grid))
    return tuple(_mapped(f, v, depth - 1) for v in grid)


class _Immutable:
    """Blocks setting and deleting attributes; subclasses fill their
    instances through ``object.__setattr__``, slot setters or ``__dict__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")


class _IntegerGrid(_Immutable):
    """Immutable base of the exact values: a nested integer grid ``_depth``
    levels deep over one positive denominator, always in lowest terms, so
    ``==``/``hash`` compare the grid directly.  Each subclass checks its
    shape in ``from_ints`` and keeps one view in the lazy ``_view`` slot.
    """

    __slots__ = ("_grid", "_den", "_view")
    _depth = 1  # nesting levels of the grid

    @classmethod
    def _make(cls, grid, d: int):
        """A value from a grid already in lowest terms over d > 0."""
        x = object.__new__(cls)
        _set_grid(x, grid)
        _set_den(x, d)
        _set_view(x, None)
        return x

    @classmethod
    def _scaled(cls, values) -> tuple[tuple, int]:
        """(d * values, d), in lowest terms, for a nested grid of int or
        Fraction values; d is their least common denominator."""
        values = _mapped(as_fraction, values, cls._depth)
        d = lcm(*(x.denominator for x in _leaves(values, cls._depth)))
        return _mapped(lambda x: x.numerator * (d // x.denominator), values, cls._depth), d

    @classmethod
    def _lowest(cls, grid, d: int):
        """The value grid / d for a nested integer grid and an integer d != 0,
        with the sign and the gcd divided out (``gcd`` rejects non-integers)."""
        if d == 0:
            raise ZeroDivisionError(f"{cls.__name__}.from_ints with denominator 0")
        g = gcd(d, *_leaves(grid, cls._depth))
        if d < 0:
            g = -g
        if g != 1:
            grid = _mapped(lambda x: x // g, grid, cls._depth)
            d //= g
        return cls._make(grid, d)

    def _viewed(self, build):
        """The view, built as build(grid, den) on first use."""
        view = self._view
        if view is None:
            view = build(self._grid, self._den)
            _set_view(self, view)
        return view

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._grid == other._grid

    def __hash__(self) -> int:
        return hash((self._grid, self._den))

    def __reduce__(self):
        return (type(self).from_ints, (self._grid, self._den))

    def __repr__(self) -> str:
        return f"{type(self).__name__}.from_ints({self._grid!r}, {self._den})"


# the slot setters, which bypass the base's blocking attribute hook
_set_grid = _IntegerGrid._grid.__set__
_set_den = _IntegerGrid._den.__set__
_set_view = _IntegerGrid._view.__set__


class _Record(_Immutable):
    """Base of the frozen report records: the class's own annotated names
    are its fields, in order, and a class attribute of the same name is
    that field's default.

    The constructor takes the fields by position and by keyword, and then
    calls ``__post_init__``; ``==`` holds between records of one class with
    equal fields, ``hash`` is over the fields, and ``repr`` lists them.  No
    method is generated per class, so defining a record costs no code
    generation at import time.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        cls._fields = fields
        cls._field_set = frozenset(fields)
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        cls._values = attrgetter(*fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if not kwargs and len(args) == len(fields):
            self.__dict__.update(zip(fields, args))
        elif not args and kwargs.keys() == self._field_set:
            self.__dict__.update(kwargs)
        else:
            self.__dict__.update(self._bound(args, kwargs))
        self.__post_init__()

    @classmethod
    def _bound(cls, args: tuple, kwargs: dict) -> dict:
        """The field values in order from a mixed or partial argument list,
        with the defaults filled in."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for field in fields[len(args):]:
            if field in kwargs:
                values[field] = kwargs.pop(field)
            elif field in cls._defaults:
                values[field] = cls._defaults[field]
            else:
                raise TypeError(f"{name}() missing required argument: {field!r}")
        extra = next(iter(kwargs), None)  # a name left over is a repeat or unknown
        if extra in values:
            raise TypeError(f"{name}() got multiple values for argument {extra!r}")
        if extra is not None:
            raise TypeError(f"{name}() got an unexpected keyword argument {extra!r}")
        return values

    def __post_init__(self):
        """Validation and derived attributes of a subclass; none by default."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Vec7(_IntegerGrid):
    """An exact vector in R^7, stored as integer coordinates over one common
    denominator: coordinate i is grid[i] / den, in lowest terms.
    :attr:`coords` is a lazily built ``Fraction`` view for the API."""

    __slots__ = ()

    def __new__(cls, coords):
        if len(coords) != DIM:
            raise ValueError(f"Vec7 needs {DIM} coordinates, got {len(coords)}")
        return Vec7._make(*Vec7._scaled(coords))

    @staticmethod
    def from_ints(xs, d: int) -> Vec7:
        """The vector xs / d for 7 integers xs and a nonzero integer d."""
        xs = tuple(xs)
        if len(xs) != DIM:
            raise ValueError(f"Vec7 needs {DIM} coordinates, got {len(xs)}")
        return Vec7._lowest(xs, d)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates as ``Fraction``s, built on first use."""
        return self._viewed(lambda grid, d: tuple(Fraction(x, d) for x in grid))

    @staticmethod
    def zero() -> Vec7:
        return Vec7._make((0,) * DIM, 1)

    @staticmethod
    def basis(i: int) -> Vec7:
        return Vec7._make(UNIT[_check_index(i)], 1)

    @staticmethod
    def of(*coords) -> Vec7:
        return Vec7(coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other: Vec7) -> Vec7:
        da, db = self._den, other._den
        d = lcm(da, db)
        fa, fb = d // da, d // db
        return Vec7.from_ints([fa * a + fb * b for a, b in zip(self._grid, other._grid)], d)

    def __sub__(self, other: Vec7) -> Vec7:
        return self + -other

    def __neg__(self) -> Vec7:
        return Vec7._make(tuple(-a for a in self._grid), self._den)

    def scale(self, s) -> Vec7:
        s = as_fraction(s)
        p = s.numerator
        return Vec7.from_ints([p * a for a in self._grid], s.denominator * self._den)

    __mul__ = scale
    __rmul__ = scale

    def dot(self, other: Vec7) -> Fraction:
        return Fraction(sum(map(mul, self._grid, other._grid)), self._den * other._den)

    def norm_sq(self) -> Fraction:
        a = self._grid
        return Fraction(sum(map(mul, a, a)), self._den * self._den)

    def is_zero(self) -> bool:
        return not any(self._grid)


class Mat7(_IntegerGrid):
    """An exact 7x7 matrix, stored as integer rows over one common
    denominator: entry (i, j) is rows[i][j] / den, in lowest terms, so den
    is the least common denominator of the entries.  Arithmetic runs on the
    integers and normalises once per result, and serialisation prints and
    parses the grid itself; :attr:`entries` is a lazily built ``Fraction``
    view for the API.
    """

    __slots__ = ()
    _depth = 2

    def __new__(cls, entries):
        if len(entries) != DIM or any(len(r) != DIM for r in entries):
            raise ValueError("Mat7 needs a 7x7 grid")
        return Mat7._make(*Mat7._scaled(entries))

    @staticmethod
    def from_ints(rows, d: int) -> Mat7:
        """The matrix rows / d for a 7x7 integer grid and a nonzero integer d."""
        rows = tuple(map(tuple, rows))
        if len(rows) != DIM or any(len(r) != DIM for r in rows):
            raise ValueError("Mat7 needs a 7x7 grid")
        return Mat7._lowest(rows, d)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as ``Fraction`` rows, built on first use."""
        return self._viewed(lambda grid, d: tuple(tuple(Fraction(x, d) for x in row) for row in grid))

    @staticmethod
    def zero() -> Mat7:
        return Mat7._make(((0,) * DIM,) * DIM, 1)

    @staticmethod
    def identity() -> Mat7:
        return Mat7._make(UNIT, 1)

    @staticmethod
    def from_columns(cols: list[Vec7]) -> Mat7:
        """Build the matrix sending e_j to cols[j]."""
        return Mat7(tuple(tuple(cols[j][i] for j in range(DIM)) for i in range(DIM)))

    @staticmethod
    def diag(values) -> Mat7:
        vals = list(values)
        return Mat7(tuple(tuple(as_fraction(vals[i]) if i == j else Fraction(0) for j in range(DIM)) for i in range(DIM)))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def column(self, j: int) -> Vec7:
        return Vec7.from_ints([row[j] for row in self._grid], self._den)

    def __add__(self, other: Mat7) -> Mat7:
        da, db = self._den, other._den
        d = lcm(da, db)
        fa, fb = d // da, d // db
        return Mat7.from_ints([[fa * a + fb * b for a, b in zip(ra, rb)] for ra, rb in zip(self._grid, other._grid)], d)

    def __sub__(self, other: Mat7) -> Mat7:
        da, db = self._den, other._den
        d = lcm(da, db)
        fa, fb = d // da, d // db
        return Mat7.from_ints([[fa * a - fb * b for a, b in zip(ra, rb)] for ra, rb in zip(self._grid, other._grid)], d)

    def __neg__(self) -> Mat7:
        return Mat7._make(tuple(tuple(-a for a in row) for row in self._grid), self._den)

    def scale(self, s) -> Mat7:
        s = as_fraction(s)
        p = s.numerator
        return Mat7.from_ints([[p * a for a in row] for row in self._grid], s.denominator * self._den)

    __rmul__ = scale

    def __matmul__(self, other):
        if isinstance(other, Vec7):
            v = other._grid
            return Vec7.from_ints([sum(map(mul, row, v)) for row in self._grid], self._den * other._den)
        if isinstance(other, Mat7):
            return Mat7.from_ints(int_matmul(self._grid, other._grid), self._den * other._den)
        return NotImplemented

    def transpose(self) -> Mat7:
        return Mat7._make(tuple(zip(*self._grid)), self._den)

    def trace(self) -> Fraction:
        rows = self._grid
        return Fraction(sum(rows[i][i] for i in range(DIM)), self._den)

    def is_symmetric(self) -> bool:
        return self._grid == tuple(zip(*self._grid))

    def is_skew(self) -> bool:
        rows = self._grid
        return all(rows[i][j] == -rows[j][i] for i in range(DIM) for j in range(i, DIM))

    def is_zero(self) -> bool:
        return not any(map(any, self._grid))

    def norm_sq(self) -> Fraction:
        """Trace-form squared norm tr(M^T M) = sum of squared entries."""
        d = self._den
        return Fraction(sum(x * x for row in self._grid for x in row), d * d)


def integer_rows(m: Mat7) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(d * M as integer rows, d) for the least common denominator d.

    Hot loops over matrices work with these plain integers and divide back
    exactly at the end.  This reads the stored grid, so it costs nothing.
    """
    return m._grid, m._den


def integer_coords(v: _IntegerGrid) -> tuple[tuple, int]:
    """(d * v as integer coordinates, d) for the least common denominator
    d, for a vector, a form or any other grid; it reads the stored grid,
    as :func:`integer_rows` does."""
    return v._grid, v._den


def integer_vector(xs) -> tuple[list[int], int]:
    """(d * x as integers, d) for the smallest common denominator d of the
    int or Fraction entries x."""
    d = lcm(*map(_denominator, xs))
    if d == 1:
        return list(map(_numerator, xs)), 1
    return [x.numerator * (d // x.denominator) for x in xs], d


def integer_pairs(pairs) -> tuple[list[int], int]:
    """(d * p / q as integers, d) for integer pairs (p, q), q > 0, and d the
    lcm of the q; ``from_ints`` divides out any common factor."""
    d = lcm(*(q for _, q in pairs))
    return [p * (d // q) for p, q in pairs], d


def integer_columns(m: Mat7) -> tuple[list[tuple[int, ...]], int]:
    """(columns of d * M as integer tuples, d), as in :func:`integer_rows`."""
    return list(zip(*m._grid)), m._den


def int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


# ---------------------------------------------------------------------------
# Generic exact routines on rectangular grids of int or Fraction entries
# (plain lists of lists).  They back the rank/kernel computations used for
# the g2 basis and the degree-wise form decompositions, and the per-frame
# linear systems; all of them run one fraction-free integer Gauss-Jordan.
# ---------------------------------------------------------------------------


def _reduce(m: list[list[int]]) -> list[int]:
    """Gauss-Jordan elimination of integer rows in place, fraction-free;
    returns the pivot columns.

    The pivot of column c is the first nonzero entry at or below row r, as
    in elimination over ``Fraction``s, so the pivots are the same, and every
    row ends as a nonzero multiple of its row of the reduced row echelon
    form.  A row with entry f in the pivot column becomes
    (p/g) row - (f/g) pivot_row for the pivot p and g = gcd(p, f), and is
    then divided by its content (the gcd of its entries)."""
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(m[i], prow)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                m[i] = row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _integer_grid(rows) -> list[list[int]]:
    """Each row of int or Fraction entries times the lcm of its denominators."""
    return [integer_vector(r)[0] for r in rows]


def _over(xs: list[int], p: int) -> tuple[list[int], int]:
    """(integers, d) with xs / p = integers / d in lowest terms and d > 0."""
    g = gcd(p, *xs)
    if p < 0:
        g = -g
    return [x // g for x in xs], p // g


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = _integer_grid(rows)
    pivots = _reduce(m)
    ncols = len(m[0]) if m else 0
    reduced = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    return reduced + [[Fraction(0)] * ncols for _ in m[len(pivots):]], pivots


def rank(rows) -> int:
    return len(_reduce(_integer_grid(rows)))


def nullspace(rows) -> list[list[Fraction]]:
    """Basis of {x : A x = 0}, one list per basis vector."""
    if not rows:
        return []
    m = _integer_grid(rows)
    ncols = len(m[0])
    pivots = _reduce(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(m, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


class LinearSystem:
    """A x = b for one fixed A = rows / d and many right-hand sides b.

    The integer rows of D [A | I] are reduced once with the integer
    Gauss-Jordan, where the diagonal D scales each row of A to integers (the
    identity block is scaled too, so the reduction sees a matrix row
    equivalent to [A | I]).  The rows with a pivot in A carry the transform
    E (E A = rref(A)), the others span the left null space of A; both are
    kept as integer rows, the transform in lowest terms over one common
    denominator.  :meth:`solve_ints` then costs one integer matrix-vector
    product plus a consistency check, and returns exactly what reducing
    [A | b] would give.  (Reducing past the A columns changes the E rows
    only by left-null rows, which vanish on every consistent b.)
    """

    def __init__(self, rows, d: int = 1):
        """The system with matrix rows / d, for rows of int or Fraction
        entries and an integer d > 0."""
        nrows = len(rows)
        self.ncols = ncols = len(rows[0])
        m = []
        for i, row in enumerate(rows):
            xs, di = integer_vector(row)
            scaled = [0] * nrows
            scaled[i] = di * d
            m.append(xs + scaled)
        pivots = _reduce(m)
        r = sum(1 for c in pivots if c < ncols)
        self.pivots = tuple(pivots[:r])
        transform = [_over(row[ncols:], row[c]) for row, c in zip(m, self.pivots)]
        self._den = den = lcm(*(dr for _, dr in transform))
        self._transform = tuple(tuple(x * (den // dr) for x in row) for row, dr in transform)
        self._left_null = tuple(_over(row[ncols:], row[c])[0] for row, c in zip(m[r:], pivots[r:]))

    def solve_ints(self, b, db: int) -> tuple[list[int], int] | None:
        """One exact solution of A x = b / db for integers b and db > 0, as
        (integers x, their common denominator), or None when inconsistent.
        The denominator is not reduced."""
        if any(sum(map(mul, row, b)) for row in self._left_null):
            return None
        x = [0] * self.ncols
        for pc, row in zip(self.pivots, self._transform):
            x[pc] = sum(map(mul, row, b))
        return x, self._den * db


def det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        result *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result * sign


def principal_minor_sum(mat: Mat7, k: int) -> Fraction:
    """Sum of all k-by-k principal minors; brute-force oracle for sigma_k."""
    if k == 0:
        return Fraction(1)
    total = Fraction(0)
    for idx in combinations(range(DIM), k):
        sub = [[mat.entries[i][j] for j in idx] for i in idx]
        total += det(sub)
    return total
