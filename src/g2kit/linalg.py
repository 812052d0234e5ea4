"""Exact rational vectors and matrices on R^7.

Everything here is built on :class:`fractions.Fraction`; no floating point
is allowed anywhere.  Values are immutable (tuple-backed frozen dataclasses)
and safe to share between threads.

Matrix convention: entries[i][j] is the coefficient of e_i in M(e_j), so a
matrix acts on column vectors, ``(M @ v)[i] = sum_j M[i][j] v[j]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

DIM = 7

# integer coordinates of the basis vectors e_0..e_6
UNIT = tuple(tuple(int(i == j) for j in range(DIM)) for i in range(DIM))

Rational = Fraction


def as_fraction(x) -> Fraction:
    """Coerce an int or Fraction; floats are rejected to keep the core exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


@dataclass(frozen=True)
class Vec7:
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != DIM:
            raise ValueError(f"Vec7 needs {DIM} coordinates, got {len(self.coords)}")
        object.__setattr__(self, "coords", tuple(as_fraction(c) for c in self.coords))

    @staticmethod
    def zero() -> Vec7:
        return Vec7((Fraction(0),) * DIM)

    @staticmethod
    def basis(i: int) -> Vec7:
        return Vec7(tuple(Fraction(1 if j == i else 0) for j in range(DIM)))

    @staticmethod
    def of(*coords) -> Vec7:
        return Vec7(tuple(coords))

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other: Vec7) -> Vec7:
        return Vec7(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: Vec7) -> Vec7:
        return Vec7(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> Vec7:
        return Vec7(tuple(-a for a in self.coords))

    def scale(self, s) -> Vec7:
        s = as_fraction(s)
        return Vec7(tuple(s * a for a in self.coords))

    __mul__ = scale
    __rmul__ = scale

    def dot(self, other: Vec7) -> Fraction:
        return sum((a * b for a, b in zip(self.coords, other.coords)), Fraction(0))

    def norm_sq(self) -> Fraction:
        return self.dot(self)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)


@dataclass(frozen=True)
class Mat7:
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != DIM or any(len(r) != DIM for r in self.entries):
            raise ValueError("Mat7 needs a 7x7 grid")
        object.__setattr__(
            self,
            "entries",
            tuple(tuple(as_fraction(x) for x in row) for row in self.entries),
        )

    @staticmethod
    def zero() -> Mat7:
        return Mat7(tuple((Fraction(0),) * DIM for _ in range(DIM)))

    @staticmethod
    def identity() -> Mat7:
        return Mat7(tuple(tuple(Fraction(1 if i == j else 0) for j in range(DIM)) for i in range(DIM)))

    @staticmethod
    def from_rows(rows) -> Mat7:
        return Mat7(tuple(tuple(row) for row in rows))

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
        return Vec7(tuple(self.entries[i][j] for i in range(DIM)))

    def columns(self) -> list[Vec7]:
        return [self.column(j) for j in range(DIM)]

    def __add__(self, other: Mat7) -> Mat7:
        return Mat7(tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: Mat7) -> Mat7:
        return Mat7(tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)))

    def __neg__(self) -> Mat7:
        return Mat7(tuple(tuple(-a for a in row) for row in self.entries))

    def scale(self, s) -> Mat7:
        s = as_fraction(s)
        return Mat7(tuple(tuple(s * a for a in row) for row in self.entries))

    __rmul__ = scale

    def __matmul__(self, other):
        if isinstance(other, Vec7):
            return Vec7(tuple(sum((self.entries[i][j] * other[j] for j in range(DIM)), Fraction(0)) for i in range(DIM)))
        if isinstance(other, Mat7):
            # scale the denominators out once; integer products avoid a gcd
            # normalisation per intermediate term
            a, da = integer_rows(self)
            b, db = integer_rows(other)
            d = da * db
            prod = int_matmul(a, b)
            return Mat7(tuple(tuple(Fraction(x, d) for x in row) for row in prod))
        return NotImplemented

    def transpose(self) -> Mat7:
        return Mat7(tuple(tuple(self.entries[j][i] for j in range(DIM)) for i in range(DIM)))

    def trace(self) -> Fraction:
        return sum((self.entries[i][i] for i in range(DIM)), Fraction(0))

    def symmetric_part(self) -> Mat7:
        return (self + self.transpose()).scale(Fraction(1, 2))

    def skew_part(self) -> Mat7:
        return (self - self.transpose()).scale(Fraction(1, 2))

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_skew(self) -> bool:
        return all(self.entries[i][j] == -self.entries[j][i] for i in range(DIM) for j in range(i, DIM))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def norm_sq(self) -> Fraction:
        """Trace-form squared norm tr(M^T M) = sum of squared entries."""
        return sum((x * x for row in self.entries for x in row), Fraction(0))


def frobenius(a: Mat7, b: Mat7) -> Fraction:
    """Trace inner product <A, B> = tr(A^T B)."""
    return sum((a.entries[i][j] * b.entries[i][j] for i in range(DIM) for j in range(DIM)), Fraction(0))


def integer_rows(m: Mat7) -> tuple[list[list[int]], int]:
    """(d * M as integer rows, d) for the smallest common denominator d.

    Hot loops over matrices scale out the denominator once and work with
    plain integers; results are divided back exactly at the end.  Each
    entry scales as numerator * (d // denominator), so no Fraction is
    multiplied.
    """
    d = lcm(*(x.denominator for row in m.entries for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in m.entries], d


def integer_vector(xs) -> tuple[list[int], int]:
    """(d * x as integers, d) for the smallest common denominator d of the
    int or Fraction entries x."""
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def integer_columns(m: Mat7) -> tuple[list[tuple[int, ...]], int]:
    """(columns of d * M as integer tuples, d), as in :func:`integer_rows`."""
    rows, d = integer_rows(m)
    return list(zip(*rows)), d


def int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


# ---------------------------------------------------------------------------
# Generic exact routines on rectangular Fraction grids (plain lists of lists).
# These back the rank/kernel computations used for the g2 basis and the
# degree-wise form decompositions.
# ---------------------------------------------------------------------------


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows: list[list[Fraction]]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of {x : A x = 0}, one list per basis vector."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


class LinearSystem:
    """A x = b for one fixed A and many right-hand sides b.

    [A | I] is reduced once with :func:`rref`.  The rows with a pivot in A
    carry the transform E (E A = rref(A)), the others span the left null
    space of A; both are kept as integer rows.  :meth:`solve` then costs one
    integer matrix-vector product plus a consistency check, and returns
    exactly what reducing [A | b] would give.  (Reducing past the A columns
    changes the E rows only by left-null rows, which vanish on every
    consistent b.)
    """

    def __init__(self, rows: list[list[Fraction]]):
        nrows = len(rows)
        self.ncols = ncols = len(rows[0])
        reduced, pivots = rref([list(r) + [Fraction(int(i == k)) for k in range(nrows)] for i, r in enumerate(rows)])
        r = sum(1 for c in pivots if c < ncols)
        self.pivots = tuple(pivots[:r])
        self._transform = tuple(integer_vector(row[ncols:]) for row in reduced[:r])
        self._left_null = tuple(integer_vector(row[ncols:])[0] for row in reduced[r:])

    def solve(self, rhs) -> list[Fraction] | None:
        """One exact solution of A x = b, or None when inconsistent.

        Free variables are set to zero; for the square nonsingular systems
        used in this package the solution is unique.
        """
        b, db = integer_vector(rhs)
        if any(sum(map(mul, row, b)) for row in self._left_null):
            return None
        x = [Fraction(0)] * self.ncols
        for pc, (row, d) in zip(self.pivots, self._transform):
            x[pc] = Fraction(sum(map(mul, row, b)), d * db)
        return x


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
