"""The splitting so(7) = g2 + R^7 and the four-way decomposition of End(R^7).

The contraction ``skew_to_vector`` sends a skew matrix a to the vector
sum_ijk eps_ijk a_jk e_i; its kernel is the 14-dimensional Lie algebra g2
and it maps the cross operator of v to 6v.  Applied to an arbitrary matrix
it only sees the skew part, which is also how products of cross operators
are handled inside commutators.
"""

from __future__ import annotations

from fractions import Fraction
from .frames import CrossTable, G2Frame, cross, per_frame
from .linalg import DIM, Mat7, Vec7, _Record, integer_coords, integer_rows, integer_vector, nullspace


def cross_operator(v: Vec7, frame: G2Frame) -> Mat7:
    """The skew operator u -> u x v; entries a_ij = sum_k eps_ijk v_k,
    formed from the integer vector d v and divided once per entry."""
    c, d = integer_coords(v)
    return Mat7.from_ints(frame.table.cross_rows(c), d)


def skew_to_vector(a: Mat7, frame: G2Frame) -> Vec7:
    """Contraction p(a)_i = sum_jk eps_ijk a_jk; it only sees the skew part
    of the argument."""
    rows, d = integer_rows(a)
    return Vec7.from_ints(frame.table.contract(rows), d)


def _skew_split(rows: list[list[int]], d: int, table: CrossTable) -> tuple[Mat7, Vec7]:
    """(g2 part, vector part) of the skew part of M = R / d, from the integer
    grid R.

    With S = R - R^T the skew part is S / 2d, its vector part is
    p(S) / 12d and its g2 part is (6 S - A_{p(S)}) / 12d, so the whole
    split runs over the integers and divides once.
    """
    s = [[a - b for a, b in zip(row, col)] for row, col in zip(rows, zip(*rows))]
    p = table.contract(s)
    q = 12 * d
    g2 = [[6 * x - y for x, y in zip(s_row, a_row)] for s_row, a_row in zip(s, table.cross_rows(p))]
    return Mat7.from_ints(g2, q), Vec7.from_ints(p, q)


def split_so7(a: Mat7, frame: G2Frame) -> tuple[Mat7, Vec7]:
    """Split a skew matrix as (g2 part, vector part v with a = g2 + A_v)."""
    if not a.is_skew():
        raise ValueError("split_so7 needs a skew matrix")
    return _skew_split(*integer_rows(a), frame.table)


def bracket_g2perp(u: Vec7, v: Vec7, frame: G2Frame) -> Mat7:
    """The g2-complement part of [A_u, A_v], which equals A_{u x v}."""
    return cross_operator(cross(u, v, frame), frame)


class EndoSplit(_Record):
    """Decomposition of an endomorphism into scalar, traceless symmetric,
    g2, and vector (cross-operator) parts."""

    scalar: Fraction
    sym0: Mat7
    g2part: Mat7
    vector: Vec7

    def reconstruct(self, frame: G2Frame) -> Mat7:
        return (
            Mat7.identity().scale(self.scalar)
            + self.sym0
            + self.g2part
            + cross_operator(self.vector, frame)
        )

    def part_norms_sq(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Squared trace norms of the four parts.  |A_Z|^2 = 6 |Z|^2."""
        return (
            7 * self.scalar * self.scalar,
            self.sym0.norm_sq(),
            self.g2part.norm_sq(),
            6 * self.vector.norm_sq(),
        )

    def nonzero_flags(self) -> frozenset[str]:
        flags = set()
        if self.scalar != 0:
            flags.add("X1")
        if not self.g2part.is_zero():
            flags.add("X2")
        if not self.sym0.is_zero():
            flags.add("X3")
        if not self.vector.is_zero():
            flags.add("X4")
        return frozenset(flags)


def decompose_endo(t: Mat7, frame: G2Frame) -> EndoSplit:
    """Split T into its four parts in one integer pass over R = d T: the
    scalar is tr R / 7d, the traceless symmetric part is
    (7 (R + R^T) - 2 tr R I) / 14d, and the skew part goes through
    :func:`_skew_split`."""
    rows, d = integer_rows(t)
    tr = sum(rows[i][i] for i in range(DIM))
    sym0 = [[7 * (a + b) for a, b in zip(row, col)] for row, col in zip(rows, zip(*rows))]
    for i in range(DIM):
        sym0[i][i] -= 2 * tr
    g2part, vector = _skew_split(rows, d, frame.table)
    return EndoSplit(scalar=Fraction(tr, 7 * d), sym0=Mat7.from_ints(sym0, 14 * d), g2part=g2part, vector=vector)


# ---------------------------------------------------------------------------
# Bases and dimension counts
# ---------------------------------------------------------------------------


def skew_basis_indices() -> list[tuple[int, int]]:
    """Index pairs (i < j) of the basis E_ij - E_ji of so(7)."""
    return [(i, j) for i in range(DIM) for j in range(i + 1, DIM)]


def p_matrix(table: CrossTable) -> list[list[int]]:
    """Matrix of the eps contraction on so(7) in the E_ij - E_ji basis (7 x 21)."""
    cols = []
    for i, j in skew_basis_indices():
        m = [[0] * DIM for _ in range(DIM)]
        m[i][j], m[j][i] = 1, -1
        cols.append(table.contract(m))
    return [[col[r] for col in cols] for r in range(DIM)]


@per_frame
def g2_basis(frame: G2Frame) -> tuple[Mat7, ...]:
    """A basis (14 matrices) of the kernel of the eps contraction on so(7),
    built once per frame."""
    pairs = skew_basis_indices()
    kernel = nullspace(p_matrix(frame.table))
    mats = []
    for coeffs in kernel:
        xs, d = integer_vector(coeffs)
        rows = [[0] * DIM for _ in range(DIM)]
        for x, (i, j) in zip(xs, pairs):
            rows[i][j] = x
            rows[j][i] = -x
        mats.append(Mat7.from_ints(rows, d))
    return tuple(mats)


@per_frame
def g2_basis_entries(frame: G2Frame) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The :func:`g2_basis` matrices R / d as (d, nonzero entries of R),
    each entry (7 i + j, R_ij); built once per frame."""
    out = []
    for b in g2_basis(frame):
        rows, d = integer_rows(b)
        out.append((d, tuple((DIM * i + j, x) for i, row in enumerate(rows) for j, x in enumerate(row) if x)))
    return tuple(out)
