"""Left-invariant geometry on 7-dimensional metric Lie algebras.

The frame e_0..e_6 is assumed orthonormal.  Structure constants determine
the Levi-Civita connection through the Koszul formula, the curvature
scalars (s, the sectional components R_ijji and the g2-perp part of s,
each read entry by entry off one kernel, :func:`_curvature_entries`), the
Chevalley-Eilenberg differential on invariant forms, and from there the
torsion endomorphism, Bryant-style torsion forms and the various
scalar-curvature identities.

Convention notes, fixed once here:

* Curvature sign: R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z -
  nabla_[X,Y] Z, with scalar curvature s = sum_ij <R(e_i,e_j)e_j, e_i>.
* The codifferential on invariant k-forms is delta = (-1)^k star d star
  (dimension 7); on unimodular algebras it is the formal adjoint of d for
  the "form" inner product, and on 1-forms the pairing with H.
* The torsion endomorphism is read off the connection as the g2-perp
  part of each nabla_{e_i}: T(e_i) = -(1/6) p(nabla_{e_i}), p the eps
  contraction, so that nabla_{e_i} phi = (cross operator of T(e_i)) * phi.
  The 2-tensor pairing r(X,Y) = <nabla_X phi, e_Y -| star phi> is reported
  as a cross-check; with the quarter-normalised inner product (increasing
  wedge monomials orthonormal on 4-tensors, i.e. 1/4 of the 3-form "form"
  pairing) and the reversed-orientation dual -star_phi it reproduces
  T(X) = (1/3) sum_i r(X, e_i) e_i exactly, including the quarter factor
  and the tabulated values that appear in published computations for this
  family.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, compress
from math import lcm
from operator import mul

from .forms import (
    FORM,
    TENSOR,
    KForm,
    _derivation,
    form_inner,
    form_norm_sq,
    hodge,
    interior,
    wedge,
)
from .frames import G2Frame, build_cayley_frame, per_frame
from .linalg import (
    DIM,
    Mat7,
    Vec7,
    _IntegerGrid,
    _Record,
    _check_index,
    as_fraction,
    integer_columns,
    integer_coords,
    integer_pairs,
    integer_rows,
)

_R = range(DIM)


def _grid3(values, what: str) -> tuple:
    """A 7x7 grid of length-7 sequences as nested tuples; ValueError otherwise."""
    grid = tuple(tuple(tuple(v) for v in row) for row in values)
    if len(grid) != DIM or any(len(row) != DIM or any(len(v) != DIM for v in row) for row in grid):
        raise ValueError(f"needs a 7x7 grid of {what}")
    return grid


def _vec7_grid(grid: tuple, d: int) -> tuple[tuple[Vec7, ...], ...]:
    """The ``Vec7`` view of a 7x7 grid of integer vectors over d."""
    return tuple(tuple(Vec7.from_ints(v, d) for v in row) for row in grid)


def _with_nonzero(value):
    """An algebra or connection with its ``_nonzero`` set: the nonzero entries
    (i, j, k, x) of its grid in row-major order, the one list that every
    kernel and writer reading only those reads."""
    rows = enumerate(value._grid)
    nonzero = ((i, j, k, x) for i, row in rows for j, v in enumerate(row) if any(v) for k, x in enumerate(v) if x)
    object.__setattr__(value, "_nonzero", tuple(nonzero))
    return value


# ---------------------------------------------------------------------------
# Metric Lie algebras
# ---------------------------------------------------------------------------


class MetricLieAlgebra(_IntegerGrid):
    """Structure constants c^k_ij with [e_i, e_j] = sum_k c^k_ij e_k; the
    frame is orthonormal.

    They are stored as an integer grid C[i][j][k] = d c^k_ij over one
    positive denominator d, in lowest terms, so the kernels of this module
    run on plain integers.  :attr:`brackets`, the 7x7 grid of bracket
    vectors, is a ``Vec7`` view built on first use.
    """

    __slots__ = ("_nonzero",)
    _depth = 3

    def __new__(cls, brackets):
        return MetricLieAlgebra.from_ints(*MetricLieAlgebra._scaled(_grid3(brackets, "bracket vectors")))

    @staticmethod
    def from_ints(grid, d: int) -> MetricLieAlgebra:
        """The algebra with c^k_ij = grid[i][j][k] / d for a 7x7x7 integer
        grid, antisymmetric in (i, j), and an integer d > 0."""
        grid = _grid3(grid, "bracket vectors")
        if d <= 0:
            raise ValueError(f"needs a positive denominator, got {d}")
        # a failing pair (i, j) with i > j fails as (j, i) first, in row-major order
        for i in _R:
            for j in range(i, DIM):
                if any(a != -b for a, b in zip(grid[i][j], grid[j][i])):
                    raise ValueError(f"brackets not antisymmetric at ({i},{j})")
        return _with_nonzero(MetricLieAlgebra._lowest(grid, d))

    @staticmethod
    def from_pairs(entries: dict) -> MetricLieAlgebra:
        """Build from {(i, j): [(k, p, q), ...]}, each term adding p / q
        (q > 0) to c^k_ij; antisymmetry is filled in."""
        bad = next((t for terms in entries.values() for t in terms if t[2] <= 0), None)
        if bad is not None:
            raise ValueError(f"term {bad} needs a positive denominator")
        xs, d = integer_pairs([(p, q) for terms in entries.values() for _, p, q in terms])
        scaled = iter(xs)
        grid = [[[0] * DIM for _ in _R] for _ in _R]
        for (i, j), terms in entries.items():
            if _check_index(i) == _check_index(j):
                raise ValueError("diagonal brackets must vanish")
            for (k, _, _), x in zip(terms, scaled):
                grid[i][j][_check_index(k)] += x
                grid[j][i][k] -= x
        return MetricLieAlgebra.from_ints(grid, d)

    @staticmethod
    def from_nonzero(entries: dict) -> MetricLieAlgebra:
        """Build from {(i, j): {k: coeff}} for i < j; antisymmetry is filled in."""
        pairs = {}
        for ij, coeffs in entries.items():
            values = [(k, as_fraction(x)) for k, x in coeffs.items()]
            pairs[ij] = [(k, x.numerator, x.denominator) for k, x in values]
        return MetricLieAlgebra.from_pairs(pairs)

    @property
    def brackets(self) -> tuple[tuple[Vec7, ...], ...]:
        """The bracket vectors [e_i, e_j] as a grid of ``Vec7``s."""
        return self._viewed(_vec7_grid)

    def jacobi_defect(self) -> tuple[int, int, int] | None:
        """First triple (i < j < k) violating the Jacobi identity, or None.

        The cyclic sum [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
        expands as sum_a c^a_ij [e_a, e_k] + ...; only nonzero structure
        constants enter it.
        """
        nonzero = {}
        for i, j, a, x in self._nonzero:
            nonzero.setdefault((i, j), []).append((a, x))
        for i, j, k in combinations(_R, 3):
            total = [0] * DIM
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                for a, c in nonzero.get((x, y), ()):
                    for b, c2 in nonzero.get((a, z), ()):
                        total[b] += c * c2
            if any(total):
                return (i, j, k)
        return None

    def trace_vector(self) -> Vec7:
        """H = sum_k tr(ad e_k) e_k, tr(ad e_k) = sum_j c^j_kj (Milnor 1976);
        on an invariant 1-form the codifferential is delta alpha = <alpha, H>."""
        return Vec7.from_ints([sum(row[j][j] for j in _R) for row in self._grid], self._den)

    def is_unimodular(self) -> bool:
        return self.trace_vector().is_zero()

    def nonzero_entries(self) -> list[tuple[int, int, int, Fraction]]:
        d = self._den
        return [(i, j, k, Fraction(x, d)) for i, j, k, x in self._nonzero if i < j]


# ---------------------------------------------------------------------------
# Connection and curvature
# ---------------------------------------------------------------------------


class ConnectionTable(_IntegerGrid):
    """Gamma^k_ij with nabla_{e_i} e_j = sum_k Gamma^k_ij e_k.

    Stored as an integer grid G[i][j][k] = D Gamma^k_ij over one positive
    denominator D, in lowest terms; :attr:`gamma` is a ``Vec7`` view built
    on first use.
    """

    __slots__ = ("_nonzero",)
    _depth = 3

    def __new__(cls, gamma):
        return ConnectionTable.from_ints(*ConnectionTable._scaled(_grid3(gamma, "connection vectors")))

    @staticmethod
    def from_ints(grid, d: int) -> ConnectionTable:
        """The connection with Gamma^k_ij = grid[i][j][k] / d, d > 0."""
        if d <= 0:
            raise ValueError(f"needs a positive denominator, got {d}")
        return _with_nonzero(ConnectionTable._lowest(_grid3(grid, "connection vectors"), d))

    @property
    def gamma(self) -> tuple[tuple[Vec7, ...], ...]:
        return self._viewed(_vec7_grid)

    def nonzero_entries(self) -> list[tuple[int, int, int, Fraction]]:
        d = self._den
        return [(i, j, k, Fraction(x, d)) for i, j, k, x in self._nonzero]


def koszul(mla: MetricLieAlgebra) -> ConnectionTable:
    """Levi-Civita connection of the left-invariant metric:
    2 Gamma^k_ij = c^k_ij - c^i_jk + c^j_ki (orthonormal frame), so the
    integer grid of the algebra over d gives Gamma over 2d, in lowest terms.
    Each nonzero c^c_ab enters 2 Gamma^c_ab, -2 Gamma^b_ca and 2 Gamma^a_bc;
    no Jacobi identity is needed, so every bracket has a connection."""
    grid = [[[0] * DIM for _ in _R] for _ in _R]
    for a, b, c, x in mla._nonzero:
        grid[a][b][c] += x
        grid[c][a][b] -= x
        grid[b][c][a] += x
    return ConnectionTable.from_ints(grid, 2 * mla._den)


# the pairs i < j, in row-major order
_PAIRS = tuple(combinations(_R, 2))


def _commutator_entries(rows, cols, terms, reads) -> list[list[int]]:
    """For the n-th pair (i, j) of _PAIRS, the entries reads[n] (row,
    column) of [A_i, A_j] - sum_m x_m A_m, the (m, x_m) in terms.get((i, j)),
    for integer operators A_i with rows rows[i] and columns cols[i].  Entry
    (a, b) of A_i A_j is row a of A_i against column b of A_j, so no
    product is formed in full."""
    out = []
    for (i, j), want in zip(_PAIRS, reads):
        ri, rj, ci, cj = rows[i], rows[j], cols[i], cols[j]
        lin = terms.get((i, j), ())
        values = []
        for a, b in want:
            x = sum(map(mul, ri[a], cj[b])) - sum(map(mul, rj[a], ci[b]))
            for m, c in lin:
                x -= c * cols[m][b][a]
            values.append(x)
        out.append(values)
    return out


def _curvature_entries(conn: ConnectionTable, mla: MetricLieAlgebra, reads) -> tuple[list[list[int]], int]:
    """The entries reads[n] (row l, column k: R_ijkl) of R(e_i, e_j) for
    the n-th pair i < j of _PAIRS, as integers over one denominator, from
    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z.  Over
    the common denominator L of Gamma and c, with N_i = L nabla_{e_i}, they
    are the entries of L^2 R(e_i, e_j) = [N_i, N_j] - sum_m (L c^m_ij) N_m
    over L^2; R(e_j, e_i) = -R(e_i, e_j)."""
    D, d = conn._den, mla._den
    L = lcm(D, d)
    f, g = L // D, L // d
    # column k of N_i is L nabla_{e_i} e_k, the row k of the connection block
    cols = conn._grid
    if f != 1:
        cols = [[tuple(f * x for x in v) for v in block] for block in cols]
    terms = {}
    for i, j, m, x in mla._nonzero:
        if i < j:
            terms.setdefault((i, j), []).append((m, g * x))
    return _commutator_entries([tuple(zip(*block)) for block in cols], cols, terms, reads), L * L


def curvature_diagonal(conn: ConnectionTable, mla: MetricLieAlgebra) -> list[tuple[int, int, Fraction]]:
    """Nonzero sectional components R_ijji with their ordered index pairs,
    one entry per pair i < j, since R_jiij = R_ijji (a metric connection)."""
    return _sectional(*_curvature_entries(conn, mla, [((i, j),) for i, j in _PAIRS]))


def _sectional(entries, dd: int) -> list[tuple[int, int, Fraction]]:
    """:func:`curvature_diagonal` from the entries, R_ijji first, of each pair."""
    values = {}
    for (i, j), (v, *_) in zip(_PAIRS, entries):
        if v:
            values[i, j] = values[j, i] = Fraction(v, dd)
    return [(i, j, v) for (i, j), v in sorted(values.items())]


def scalar_curvature(conn: ConnectionTable, mla: MetricLieAlgebra) -> Fraction:
    """s = sum_ij R_ijji, the sum of the :func:`curvature_diagonal` values."""
    return sum((v for _, _, v in curvature_diagonal(conn, mla)), Fraction(0))


@per_frame
def _pairing_reads(frame: G2Frame) -> tuple[tuple, tuple]:
    """Entries and weights of sum_ij <p(B_ij), e_i x e_j> for skew B_ij = -B_ji.

    Each pair reads p_k only for the slot (k, s) of (i, j), and p_k(B) =
    sum_ab eps_kab B_ab is twice its sum over a < b (B and eps_k.. are
    skew); (i, j) and (j, i) contribute equally.  So the pairing is 4 times
    the flat weights s eps_kab against the listed B_ab, a < b, of each pair."""
    table = frame.table
    slots = [
        [(a, b, s * e) for k, s in table.pair_slots(i, j) for a in _R for b, e in table.pair_slots(k, a) if a < b]
        for i, j in _PAIRS
    ]
    return tuple(tuple((a, b) for a, b, _ in slot) for slot in slots), tuple(w for slot in slots for *_, w in slot)


def g2perp_scalar_curvature(conn: ConnectionTable, mla: MetricLieAlgebra, frame: G2Frame) -> Fraction:
    """sum_ij <(R(e_i,e_j))_{g2-perp}(e_j), e_i>; equals s/3 whenever the
    first Bianchi identity holds.  The second value of :func:`curvature_scalars`."""
    return curvature_scalars(conn, mla, frame)[1]


def curvature_scalars(conn: ConnectionTable, mla: MetricLieAlgebra, frame: G2Frame) -> tuple[list, Fraction]:
    """(curvature_diagonal(conn, mla), s_g2perp) from one kernel pass: each
    pair reads R_ijji, then the entries s_g2perp pairs.  The projection of
    R(e_i,e_j) is the cross operator of p(R(e_i,e_j)) / 6, so s_g2perp is
    1/6 of the pairing of :func:`_pairing_reads`: three entries of
    R(e_i, e_j) per pair i < j."""
    reads, weights = _pairing_reads(frame)
    entries, dd = _curvature_entries(conn, mla, [((i, j), *r) for (i, j), r in zip(_PAIRS, reads)])
    pairing = sum(map(mul, weights, chain.from_iterable(e[1:] for e in entries)))
    return _sectional(entries, dd), Fraction(4 * pairing, 6 * dd)


def alt_scalar_curvature(t: Mat7, frame: G2Frame) -> Fraction:
    """sum_ij <[xi_{e_i}, xi_{e_j}]_{g2-perp} e_j, e_i> from the torsion
    slices; equals i0(T).  The commutator-and-projection route, independent
    of the i0 double sum: with the denominator of T scaled out, each pair
    reads three entries of the skew commutator [S_i, S_j] of the integer
    slices (S_i the cross operator of column i) for :func:`_pairing_reads`."""
    cols, d = integer_columns(t)
    reads, weights = _pairing_reads(frame)
    slices = [frame.table.cross_rows(c) for c in cols]
    entries = _commutator_entries(slices, [tuple(zip(*s)) for s in slices], {}, reads)
    return Fraction(4 * sum(map(mul, weights, chain.from_iterable(entries))), 6 * d * d)


class DivergenceReport(_Record):
    """Summands of div chi = (1/2) s_alt - (1/2) s_g2perp + |chi|^2 +
    |xi_alt|^2 - |xi_sym|^2 evaluated from algebraic data."""

    s_alt: Fraction
    s_g2perp: Fraction
    chi_sq: Fraction
    alt_sq: Fraction
    sym_sq: Fraction
    chi: Vec7
    rhs_total: Fraction
    balanced: bool | None


def divergence_balance(values: dict[str, Fraction], chi: Vec7, s_perp: Fraction) -> DivergenceReport:
    """The divergence summands of T against s_perp =
    g2perp_scalar_curvature(conn, mla, frame) and chi = classify(t, frame).chi,
    read off the part-norm values of T (``invariants.part_norm_invariants``):
    s_alt = i0, |chi|^2 = i1, and the rows alt_sq and sym_sq."""
    s_alt, chi_sq, alt_sq, sym_sq = values["i0"], values["i1"], values["alt_sq"], values["sym_sq"]
    rhs = Fraction(1, 2) * s_alt - Fraction(1, 2) * s_perp + chi_sq + alt_sq - sym_sq
    balanced = (rhs == 0) if chi.is_zero() else None
    return DivergenceReport(
        s_alt=s_alt, s_g2perp=s_perp, chi_sq=chi_sq, alt_sq=alt_sq, sym_sq=sym_sq,
        chi=chi, rhs_total=rhs, balanced=balanced,
    )


# ---------------------------------------------------------------------------
# Invariant exterior calculus
# ---------------------------------------------------------------------------


def _ce_table(mla: MetricLieAlgebra) -> list[list[tuple[tuple[int, int], int]]]:
    """The ``_derivation`` table of d e^m = -sum_{i<j} c^m_ij e^{ij} over
    mla._den, from the nonzero structure constants."""
    table = [[] for _ in _R]
    for i, j, m, x in mla._nonzero:
        if i < j:
            table[m].append(((i, j), -x))
    return table


def ce_differential(mla: MetricLieAlgebra, a: KForm) -> KForm:
    """Chevalley-Eilenberg differential on invariant forms, applied as the
    graded derivation with d e^m = -sum_{i<j} c^m_ij e^{ij} over the
    nonzero structure constants."""
    if a.degree == DIM:
        raise ValueError("no degree-8 forms on a 7-dimensional algebra")
    return _derivation(a, 2, [_ce_table(mla)], mla._den)[0]


def codifferential(mla: MetricLieAlgebra, a: KForm) -> KForm:
    """delta = (-1)^k star d star on invariant k-forms (dimension 7); the
    formal adjoint of d for the "form" inner product on unimodular algebras.
    The two Hodge duals cancel any orientation sign, so the result does not
    depend on the orientation."""
    if a.degree == 0:
        return KForm(0)
    sign = -1 if a.degree % 2 else 1
    return hodge(ce_differential(mla, hodge(a))).scale(sign)


def nabla_form(conn: ConnectionTable, a: KForm) -> tuple[KForm, ...]:
    """Covariant derivatives (nabla_{e_0} a, ..., nabla_{e_6} a) of an
    invariant form: (nabla_{e_i} a)(Y...) = -sum_m a(..., nabla_{e_i} Y_m, ...),
    the derivation action of -nabla_{e_i}, which maps e^m to
    -sum_l Gamma^m_il e^l."""
    tables = [[[] for _ in _R] for _ in _R]
    for i, l, m, x in conn._nonzero:
        tables[i][m].append(((l,), -x))
    return _derivation(a, 1, tables, conn._den)


# ---------------------------------------------------------------------------
# Torsion endomorphism from geometry
# ---------------------------------------------------------------------------


def torsion_endo(conn: ConnectionTable, frame: G2Frame) -> Mat7:
    """The torsion endomorphism T(e_i) = -(1/6) p(nabla_{e_i}).

    The g2-perp part of the skew operator nabla_{e_i} is the cross operator
    of p(nabla_{e_i}) / 6, and its g2 part fixes phi, so nabla_{e_i} phi =
    -(nabla_{e_i}) * phi = (cross operator of T(e_i)) * phi.  Row j of the
    integer block conn._grid[i] holds D nabla_{e_i} e_j: the block is the
    transpose of D nabla_{e_i}, and p of a transpose is -p, so each
    D Gamma^k_ij = x adds eps_ajk x to entry (a, i) of 6 D T."""
    slots = frame.table.pair_slots
    rows = [[0] * DIM for _ in _R]
    for i, j, k, x in conn._nonzero:
        for a, s in slots(j, k):
            rows[a][i] += s * x
    return Mat7.from_ints(rows, 6 * conn._den)


def _common_coords(forms) -> tuple[list[list[int]], int]:
    """The coordinates of each form over one common denominator."""
    grids = [integer_coords(f) for f in forms]
    d = lcm(*(df for _, df in grids))
    return [[x * (d // df) for x in xs] for xs, df in grids], d


# the 3-form pairing in each convention, as a multiple of the "form" one
_PAIRING_WEIGHT_3 = {FORM: 1, TENSOR: 6}


@per_frame
def _dual_coords(frame: G2Frame) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Coordinates of e_y -| (-star_phi) for y = 0..6 over one denominator."""
    star = -frame.star_phi
    coords, d = _common_coords([interior(Vec7.basis(y), star) for y in _R])
    return tuple(map(tuple, coords)), d


@per_frame
def _r_table(frame: G2Frame) -> tuple[tuple[tuple[tuple[int, int], ...], ...], int]:
    """(W, dd): W[7 l + m] lists the nonzero (y, w) with w / dd = <D phi,
    e_y -| (-star_phi)> ("form" pairing), D the derivation e^m -> e^l; the
    49 images of phi (over 1) come from one ``_derivation`` call."""
    duals, dd = _dual_coords(frame)
    readers = [[(y, c) for y, c in enumerate(col) if c] for col in zip(*duals)]  # by coordinate
    tables = [[()] * m + [(((l,), 1),)] + [()] * (DIM - 1 - m) for l in _R for m in _R]
    table = []
    for image in _derivation(frame.phi, 1, tables, 1):
        sums = [0] * DIM
        for v, reader in compress(zip(image._grid, readers), image._grid):
            for y, c in reader:
                sums[y] += v * c
        table.append(tuple((y, w) for y, w in enumerate(sums) if w))
    return tuple(table), dd


def r_map(nphi: tuple[KForm, ...], frame: G2Frame, convention: str = FORM) -> Mat7:
    """The 2-tensor r(X, Y) = <nabla_X phi, e_Y -| star phi> as a grid.

    The pairing is quarter-normalised (increasing monomials orthonormal on
    4-tensors: 1/4 of the 3-form "form" pairing, 6/4 of it for "tensor")
    and pairs against the reversed-orientation dual -star_phi.  This is the
    one normalisation that satisfies T(X) = (1/3) sum_i r(X, e_i) e_i
    against :func:`torsion_endo` on every metric Lie algebra, for both
    built-in frames, and it reproduces the tabulated r = (1/2)(e^01 - e^46)
    of the built-in nilmanifold model.
    """
    if convention not in _PAIRING_WEIGHT_3:
        raise ValueError(f"unknown convention {convention!r}")
    weight = _PAIRING_WEIGHT_3[convention]
    duals, dd = _dual_coords(frame)
    coords, d = _common_coords(nphi)
    return Mat7.from_ints([[weight * sum(map(mul, a, b)) for b in duals] for a in coords], 4 * d * dd)


class GeometryTorsionReport(_Record):
    torsion: Mat7
    r_grid: Mat7
    matched_convention: str | None


def geometry_torsion_report(conn: ConnectionTable, frame: G2Frame) -> GeometryTorsionReport:
    """T from the connection by :func:`torsion_endo`, and the pairing
    convention, if any, that lets the r route reproduce it via
    T(X) = (1/3) sum_i r(X, e_i) e_i.  The two routes are independent: r
    pairs nabla phi against the duals of star phi, T contracts Gamma with
    the eps table.  r = r_map(nabla_form(conn, phi), frame) is linear in
    Gamma: each D Gamma^m_il = x adds -x W[7 l + m] (:func:`_r_table`) to row i."""
    t = torsion_endo(conn, frame)
    table, dd = _r_table(frame)
    rows = [[0] * DIM for _ in _R]
    for i, l, m, x in conn._nonzero:
        for y, w in table[DIM * l + m]:
            rows[i][y] -= w * x
    d = 4 * conn._den * dd
    # r_map in a convention is r times its weight; weight r^T / 3 = T, cross-multiplied
    t_rows, t_den = integer_rows(t)
    pairs = [(x, y) for col, t_row in zip(zip(*rows), t_rows) for x, y in zip(col, t_row)]
    matched = next((c for c, w in _PAIRING_WEIGHT_3.items() if all(w * t_den * x == 3 * d * y for x, y in pairs)), None)
    return GeometryTorsionReport(torsion=t, r_grid=Mat7.from_ints(rows, d), matched_convention=matched)


# ---------------------------------------------------------------------------
# Torsion forms
# ---------------------------------------------------------------------------


class TorsionSolveError(ValueError):
    pass


# the Fernandez-Gray class of each torsion form
_FERNANDEZ_GRAY = {"tau0": "X1", "tau1": "X4", "tau2": "X2", "tau3": "X3"}


class TorsionForms(_Record):
    """Solution of d phi = tau0 star_phi + 3 tau1 ^ phi + star tau3 and
    d star_phi = 4 tau1 ^ star_phi + tau2 ^ phi, with tau2 in the
    14-dimensional and tau3 in the 27-dimensional summand."""

    tau0: Fraction
    tau1: KForm
    tau2: KForm
    tau3: KForm

    def norms_sq(self, convention: str) -> dict[str, Fraction]:
        return {
            "tau0_sq": self.tau0 * self.tau0,
            "tau1_sq": form_norm_sq(self.tau1, convention),
            "tau2_sq": form_norm_sq(self.tau2, convention),
            "tau3_sq": form_norm_sq(self.tau3, convention),
        }

    def _zero(self) -> dict[str, bool]:
        tau1, tau2, tau3 = self.tau1.is_zero(), self.tau2.is_zero(), self.tau3.is_zero()
        return {"tau0": self.tau0 == 0, "tau1": tau1, "tau2": tau2, "tau3": tau3}

    def vanishing(self) -> frozenset[str]:
        return frozenset(name for name, zero in self._zero().items() if zero)

    def class_flags(self) -> frozenset[str]:
        """Fernandez-Gray flags under tau0<->X1, tau2<->X2, tau3<->X3, tau1<->X4."""
        return frozenset(_FERNANDEZ_GRAY[name] for name, zero in self._zero().items() if not zero)


def torsion_forms(mla: MetricLieAlgebra, frame: G2Frame) -> TorsionForms:
    """Bryant's torsion forms in closed form (Bryant, *Some remarks on
    G2-structures*, 2005, section 4).

    With psi = star_phi and * the Hodge dual of the frame's orientation,
    d phi = tau0 psi + 3 tau1 ^ phi + *tau3 and d psi = 4 tau1 ^ psi +
    tau2 ^ phi give tau0 = (1/7) *(phi ^ d phi) = (1/7) <d phi, psi>,
    tau1 = (1/12) *(phi ^ *d phi), tau3 = *(d phi - tau0 psi -
    3 tau1 ^ phi) and tau2 = -*(d psi - 4 tau1 ^ psi).  The first equation
    then holds as written; TorsionSolveError is raised unless tau3 lies in
    Lambda^3_27 (phi ^ tau3 = 0 and psi ^ tau3 = <tau3, phi> vol = 0) and
    the second holds with tau2 in Lambda^2_14 (tau2 ^ phi = -*tau2).  On a
    G2 frame both always do, and the second holds exactly when
    (1/12) *(psi ^ *d psi) is the same tau1; on a table that is no cross
    product they reject every input that decomposing d phi and d psi
    against bases of Lambda^4 and Lambda^5 rejects.
    """
    phi, psi, o = frame.phi, frame.star_phi, frame.orientation
    table = [_ce_table(mla)]  # one Chevalley-Eilenberg table for d phi and d psi
    dphi = _derivation(phi, 2, table, mla._den)[0]
    dpsi = _derivation(psi, 2, table, mla._den)[0]
    tau0 = form_inner(dphi, psi) / 7
    tau1 = hodge(wedge(phi, hodge(dphi, o)), o).scale(Fraction(1, 12))
    tau3 = hodge(dphi + psi.scale(-tau0) + wedge(tau1.scale(-3), phi), o)
    if form_inner(tau3, phi) or not wedge(phi, tau3).is_zero():
        raise TorsionSolveError("d phi is not compatible with the 1+7+27 split")
    rest = dpsi + wedge(tau1.scale(-4), psi)
    # the dual for the opposite orientation is -*
    tau2 = hodge(rest, -o)
    if wedge(tau2, phi) != rest:
        raise TorsionSolveError("d star_phi is not 4 tau1 ^ star_phi + tau2 ^ phi with tau2 in Lambda^2_14")
    return TorsionForms(tau0=tau0, tau1=tau1, tau2=tau2, tau3=tau3)


class BryantScalarReport(_Record):
    scalar: Fraction
    rhs_by_convention: tuple[tuple[str, Fraction], ...]
    reconciling: tuple[str, ...]
    forms: TorsionForms
    delta_tau1: Fraction


def bryant_scalar_check(
    mla: MetricLieAlgebra, frame: G2Frame, s: Fraction, tf: TorsionForms, norms: dict | None = None
) -> BryantScalarReport:
    """Compare s = 12 delta tau1 + (21/8) tau0^2 + 30 |tau1|^2
    - (1/2)|tau2|^2 - (1/2)|tau3|^2 under each norm convention with the
    scalar curvature s of the Koszul/curvature route, where tf is
    torsion_forms(mla, frame), and report which convention gives exact
    equality.  The two sides come from independent routes.  `norms` maps
    each convention to ``tf.norms_sq(convention)`` when the caller has them."""
    dt1 = Vec7.from_ints(*integer_coords(tf.tau1)).dot(mla.trace_vector())
    if norms is None:
        norms = {convention: tf.norms_sq(convention) for convention in (FORM, TENSOR)}
    rhs = []
    matches = []
    for convention in (FORM, TENSOR):
        n = norms[convention]
        value = (
            12 * dt1
            + Fraction(21, 8) * n["tau0_sq"]
            + 30 * n["tau1_sq"]
            - Fraction(1, 2) * n["tau2_sq"]
            - Fraction(1, 2) * n["tau3_sq"]
        )
        rhs.append((convention, value))
        if value == s:
            matches.append(convention)
    return BryantScalarReport(
        scalar=s,
        rhs_by_convention=tuple(rhs),
        reconciling=tuple(matches),
        forms=tf,
        delta_tau1=dt1,
    )


# ---------------------------------------------------------------------------
# The built-in nilmanifold model (Heisenberg x torus)
# ---------------------------------------------------------------------------

# Connection coefficients as tabulated in reference material for this
# model: {(i, j): (k, value)} meaning nabla_{e_i} e_j = value * e_k.  The
# (4, 5) entry disagrees with the torsion-free connection derived from the
# brackets (it would force the bracket [e_4, e_5] to vanish) and is exactly
# the entry flagged by connection_reference_diff.
HEISENBERG_REFERENCE_CONNECTION: dict[tuple[int, int], tuple[int, Fraction]] = {
    (0, 5): (6, Fraction(1, 2)),
    (0, 6): (5, Fraction(-1, 2)),
    (1, 4): (5, Fraction(-1, 2)),
    (1, 5): (4, Fraction(1, 2)),
    (4, 1): (5, Fraction(-1, 2)),
    (4, 5): (1, Fraction(-1, 2)),
    (5, 0): (6, Fraction(-1, 2)),
    (5, 1): (4, Fraction(1, 2)),
    (5, 4): (1, Fraction(-1, 2)),
    (5, 6): (0, Fraction(1, 2)),
    (6, 0): (5, Fraction(-1, 2)),
    (6, 5): (0, Fraction(1, 2)),
}

# Reference multiset claim for the nonzero R_ijji values of the model.  It
# cannot be right as stated (R_ijji = R_jiij forces even multiplicities);
# the exact computation gives {-3/4: 4, 1/4: 8}, which sums to the same
# scalar curvature -1.
HEISENBERG_REFERENCE_CURVATURE_MULTISET: tuple[tuple[str, int], ...] = (
    ("-1/4", 2),
    ("-3/4", 3),
    ("1/4", 7),
)


def heisenberg_model() -> tuple[MetricLieAlgebra, G2Frame, Mat7]:
    """The Heisenberg-times-torus model: brackets [e_0, e_5] = e_6 and
    [e_4, e_5] = e_1 (from the coframe relations dz_a - x_a dy), the Cayley
    frame, and the tabulated torsion endomorphism with T(e_0) = e_1/6,
    T(e_1) = -e_0/6, T(e_4) = -e_6/6, T(e_6) = e_4/6."""
    mla = MetricLieAlgebra.from_nonzero({(0, 5): {6: 1}, (4, 5): {1: 1}})
    rows = [[0] * DIM for _ in _R]  # 6 T
    rows[1][0], rows[0][1], rows[6][4], rows[4][6] = 1, -1, -1, 1
    return mla, build_cayley_frame(), Mat7.from_ints(rows, 6)


def connection_reference_diff(conn: ConnectionTable) -> list[tuple[int, int, Vec7, Vec7]]:
    """Entries (i, j, derived, reference) where the Koszul connection of the
    Heisenberg model differs from the tabulated reference connection."""
    ref = {ij: Vec7.basis(k).scale(val) for ij, (k, val) in HEISENBERG_REFERENCE_CONNECTION.items()}
    entries = ((i, j, conn.gamma[i][j], ref.get((i, j), Vec7.zero())) for i in _R for j in _R)
    return [entry for entry in entries if entry[2] != entry[3]]
