"""Left-invariant geometry on 7-dimensional metric Lie algebras.

The frame e_0..e_6 is assumed orthonormal.  Structure constants determine
the Levi-Civita connection through the Koszul formula, the curvature
tensor, the Chevalley-Eilenberg differential on invariant forms, and from
there the torsion endomorphism, Bryant-style torsion forms and the various
scalar-curvature identities.

Convention notes, fixed once here:

* Curvature sign: R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z -
  nabla_[X,Y] Z, with scalar curvature s = sum_ij <R(e_i,e_j)e_j, e_i>.
* The codifferential on invariant k-forms is delta = (-1)^k star d star
  (dimension 7); on unimodular algebras it is the formal adjoint of d for
  the "form" inner product.
* The torsion endomorphism is recovered slice by slice from the exact
  linear system  (cross-operator of T(e_i)) acting on phi = nabla_{e_i} phi,
  which is solvable with zero residual for every metric connection.  The
  2-tensor pairing r(X,Y) = <nabla_X phi, e_Y -| star phi> is reported as a
  cross-check; with the quarter-normalised inner product (increasing wedge
  monomials orthonormal on 4-tensors, i.e. 1/4 of the 3-form "form"
  pairing) and the reversed-orientation dual -star_phi it reproduces
  T(X) = (1/3) sum_i r(X, e_i) e_i exactly, including the quarter factor
  and the tabulated values that appear in published computations for this
  family.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb, lcm
from operator import mul

from .forms import (
    FORM,
    TENSOR,
    KForm,
    all_increasing_tuples,
    form_inner,
    form_norm_sq,
    hodge,
    integer_terms,
    interior,
    two_form_from_matrix,
    wedge,
)
from .frames import G2Frame, build_cayley_frame
from .linalg import (
    DIM,
    LinearSystem,
    Mat7,
    Vec7,
    _IntegerGrid,
    _Record,
    as_fraction,
    integer_columns,
    integer_rows,
    integer_vector,
    nullspace,
)
from .so7 import cross_operator, g2_basis
from .torsion import characteristic_vector, torsion_energies

_R = range(DIM)


def _shaped(grid: tuple, depth: int, what: str) -> tuple:
    """grid, a nested tuple `depth` levels deep, once every level holds 7
    entries; ValueError otherwise."""
    level = (grid,)
    for k in range(depth):
        if k:
            level = tuple(chain.from_iterable(level))
        if set(map(len, level)) != {DIM}:
            raise ValueError(f"needs a 7x7 grid of {what}")
    return grid


def _grid3(values, what: str) -> tuple:
    """A 7x7 grid of length-7 sequences as nested tuples; ValueError otherwise."""
    return _shaped(tuple(tuple(tuple(v) for v in row) for row in values), 3, what)


def _grid4(values, what: str) -> tuple:
    """A 7x7 grid of 7x7 blocks as nested tuples; ValueError otherwise."""
    return _shaped(tuple(tuple(tuple(tuple(r) for r in op) for op in row) for row in values), 4, what)


def _vec7_grid(grid: tuple, d: int) -> tuple[tuple[Vec7, ...], ...]:
    """The ``Vec7`` view of a 7x7 grid of integer vectors over d."""
    return tuple(tuple(Vec7.from_ints(v, d) for v in row) for row in grid)


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

    __slots__ = ()
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
        return MetricLieAlgebra._lowest(grid, d)

    @staticmethod
    def from_pairs(entries: dict) -> MetricLieAlgebra:
        """Build from {(i, j): [(k, p, q), ...]}, each term adding p / q
        (q > 0) to c^k_ij; antisymmetry is filled in."""
        d = lcm(*(q for terms in entries.values() for _, _, q in terms))
        grid = [[[0] * DIM for _ in _R] for _ in _R]
        for (i, j), terms in entries.items():
            if i == j:
                raise ValueError("diagonal brackets must vanish")
            for k, p, q in terms:
                x = p * (d // q)
                grid[i][j][k] += x
                grid[j][i][k] -= x
        return MetricLieAlgebra.from_ints(grid, d)

    @staticmethod
    def from_nonzero(entries: dict) -> MetricLieAlgebra:
        """Build from {(i, j): {k: coeff}} for i < j; antisymmetry is filled in."""
        pairs = {}
        for (i, j), coeffs in entries.items():
            if i == j:
                raise ValueError("diagonal brackets must vanish")
            values = ((k, as_fraction(coeffs.get(k, 0))) for k in _R)
            pairs[i, j] = [(k, x.numerator, x.denominator) for k, x in values if x]
        return MetricLieAlgebra.from_pairs(pairs)

    @staticmethod
    def abelian() -> MetricLieAlgebra:
        return MetricLieAlgebra.from_nonzero({})

    @property
    def brackets(self) -> tuple[tuple[Vec7, ...], ...]:
        """The bracket vectors [e_i, e_j] as a grid of ``Vec7``s."""
        return self._viewed(_vec7_grid)

    def c(self, i: int, j: int, k: int) -> Fraction:
        return Fraction(self._grid[i][j][k], self._den)

    def jacobi_defect(self) -> tuple[int, int, int] | None:
        """First triple (i < j < k) violating the Jacobi identity, or None.

        The cyclic sum [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
        expands as sum_a c^a_ij [e_a, e_k] + ...; only nonzero structure
        constants enter it.
        """
        nonzero = {}
        for i, row in enumerate(self._grid):
            for j, v in enumerate(row):
                terms = [(a, x) for a, x in enumerate(v) if x]
                if terms:
                    nonzero[i, j] = terms
        for i, j, k in combinations(_R, 3):
            total = [0] * DIM
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                for a, c in nonzero.get((x, y), ()):
                    for b, c2 in nonzero.get((a, z), ()):
                        total[b] += c * c2
            if any(total):
                return (i, j, k)
        return None

    def is_unimodular(self) -> bool:
        return all(sum(row[j][j] for j in _R) == 0 for row in self._grid)

    def nonzero_entries(self) -> list[tuple[int, int, int, Fraction]]:
        d = self._den
        return [
            (i, j, k, Fraction(x, d))
            for i, row in enumerate(self._grid)
            for j in range(i + 1, DIM)
            for k, x in enumerate(row[j])
            if x
        ]



# ---------------------------------------------------------------------------
# Connection and curvature
# ---------------------------------------------------------------------------


class ConnectionTable(_IntegerGrid):
    """Gamma^k_ij with nabla_{e_i} e_j = sum_k Gamma^k_ij e_k.

    Stored as an integer grid G[i][j][k] = D Gamma^k_ij over one positive
    denominator D, in lowest terms; :attr:`gamma` is a ``Vec7`` view built
    on first use.
    """

    __slots__ = ()
    _depth = 3

    def __new__(cls, gamma):
        return ConnectionTable.from_ints(*ConnectionTable._scaled(_grid3(gamma, "connection vectors")))

    @staticmethod
    def from_ints(grid, d: int) -> ConnectionTable:
        """The connection with Gamma^k_ij = grid[i][j][k] / d, d > 0."""
        if d <= 0:
            raise ValueError(f"needs a positive denominator, got {d}")
        return ConnectionTable._lowest(_grid3(grid, "connection vectors"), d)

    @property
    def gamma(self) -> tuple[tuple[Vec7, ...], ...]:
        return self._viewed(_vec7_grid)

    def nabla(self, i: int, j: int) -> Vec7:
        return self.gamma[i][j]

    def operator(self, i: int) -> Mat7:
        """The skew operator nabla_{e_i} (column j is nabla_{e_i} e_j)."""
        return Mat7.from_ints(tuple(zip(*self._grid[i])), self._den)

    def is_metric(self) -> bool:
        return all(self.operator(i).is_skew() for i in range(DIM))

    def torsion_defect(self, mla: MetricLieAlgebra) -> tuple[int, int] | None:
        for i in range(DIM):
            for j in range(DIM):
                if self.gamma[i][j] - self.gamma[j][i] != mla.brackets[i][j]:
                    return (i, j)
        return None

    def nonzero_entries(self) -> list[tuple[int, int, int, Fraction]]:
        d = self._den
        return [
            (i, j, k, Fraction(x, d))
            for i, row in enumerate(self._grid)
            for j, v in enumerate(row)
            for k, x in enumerate(v)
            if x
        ]


def koszul(mla: MetricLieAlgebra) -> ConnectionTable:
    """Levi-Civita connection of the left-invariant metric:
    2 Gamma^k_ij = c^k_ij - c^i_jk + c^j_ki (orthonormal frame), so the
    integer grid of the algebra over d gives Gamma over 2d, in lowest terms."""
    defect = mla.jacobi_defect()
    if defect is not None:
        raise ValueError(f"Jacobi identity fails on triple {defect}")
    c = mla._grid
    grid = tuple(
        tuple(tuple(c[i][j][k] - c[j][k][i] + c[k][i][j] for k in _R) for j in _R) for i in _R
    )
    return ConnectionTable.from_ints(grid, 2 * mla._den)


class CurvatureTensor(_IntegerGrid):
    """Components R_ijkl = <R(e_i, e_j) e_k, e_l>.

    Stored as the integer operators D R(e_i, e_j) (row l, column k holds
    D R_ijkl) over one positive denominator D, in lowest terms;
    :attr:`components` is a ``Fraction`` view built on first use.
    """

    __slots__ = ()
    _depth = 4

    def __new__(cls, components):
        # operator (i, j) has row l, column k = R_ijkl
        ops = [[tuple(zip(*block)) for block in row] for row in _grid4(components, "7x7 component blocks")]
        return CurvatureTensor.from_ints(*CurvatureTensor._scaled(ops))

    @staticmethod
    def from_ints(ops, d: int) -> CurvatureTensor:
        """The tensor with R_ijkl = ops[i][j][l][k] / d, d > 0."""
        if d <= 0:
            raise ValueError(f"needs a positive denominator, got {d}")
        return CurvatureTensor._lowest(_grid4(ops, "7x7 component blocks"), d)

    @property
    def components(self) -> tuple[tuple[tuple[tuple[Fraction, ...], ...], ...], ...]:
        return self._viewed(
            lambda grid, d: tuple(
                tuple(tuple(tuple(Fraction(x, d) for x in col) for col in zip(*op)) for op in row) for row in grid
            )
        )

    def value(self, i: int, j: int, k: int, l: int) -> Fraction:
        return Fraction(self._grid[i][j][l][k], self._den)

    def operator(self, i: int, j: int) -> Mat7:
        """R(e_i, e_j) as a skew matrix."""
        return Mat7.from_ints(self._grid[i][j], self._den)

    def symmetry_defects(self) -> list[str]:
        out = []
        for i in range(DIM):
            for j in range(DIM):
                for k in range(DIM):
                    for l in range(DIM):
                        v = self.components[i][j][k][l]
                        if v != -self.components[j][i][k][l]:
                            out.append(f"antisymmetry in (i,j) fails at {(i, j, k, l)}")
                        if v != -self.components[i][j][l][k]:
                            out.append(f"antisymmetry in (k,l) fails at {(i, j, k, l)}")
                        if v != self.components[k][l][i][j]:
                            out.append(f"pair symmetry fails at {(i, j, k, l)}")
                        first_bianchi = (
                            v
                            + self.components[j][k][i][l]
                            + self.components[k][i][j][l]
                        )
                        if first_bianchi != 0:
                            out.append(f"first Bianchi fails at {(i, j, k, l)}")
                        if out:
                            return out
        return out


def curvature(conn: ConnectionTable, mla: MetricLieAlgebra) -> CurvatureTensor:
    """R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z.

    The connection (over D) and the structure constants (over d) are read
    over their common denominator L.  With N_i = L nabla_{e_i}, the
    operator L^2 R(e_i, e_j) = [N_i, N_j] - sum_m (L c^m_ij) N_m runs over
    the nonzero integer entries only; it is computed for i < j, since both
    terms are antisymmetric in (i, j).
    """
    D, d = conn._den, mla._den
    L = lcm(D, d)
    f, g = L // D, L // d
    # rows[i][l] = the nonzero (k, L Gamma^l_ik): row l of N_i
    rows = [
        [tuple((k, f * x) for k, x in enumerate(col) if x) for col in zip(*conn._grid[i])] for i in _R
    ]
    zero = ((0,) * DIM,) * DIM
    ops = [[zero] * DIM for _ in _R]
    for i in _R:
        for j in range(i + 1, DIM):
            op = [[0] * DIM for _ in _R]
            for a, b, sign in ((rows[i], rows[j], 1), (rows[j], rows[i], -1)):
                for out, arow in zip(op, a):
                    for s, x in arow:
                        for k, y in b[s]:
                            out[k] += sign * x * y
            for m, c in enumerate(mla._grid[i][j]):
                if c:
                    c *= g
                    for out, mrow in zip(op, rows[m]):
                        for k, y in mrow:
                            out[k] -= c * y
            ops[i][j] = tuple(map(tuple, op))
            ops[j][i] = tuple(tuple(-x for x in r) for r in op)
    return CurvatureTensor.from_ints(ops, L * L)


def scalar_curvature(r: CurvatureTensor) -> Fraction:
    """s = sum_ij R_ijji."""
    return Fraction(sum(row[j][i][j] for i, row in enumerate(r._grid) for j in _R), r._den)


def curvature_diagonal(r: CurvatureTensor) -> list[tuple[int, int, Fraction]]:
    """Nonzero sectional components R_ijji with their ordered index pairs."""
    d = r._den
    return [(i, j, Fraction(v, d)) for i, row in enumerate(r._grid) for j in _R if (v := row[j][i][j])]


def _contraction_reads(table) -> list[list[tuple[int, int, int]]]:
    """For each k, the six (a, b, s) with (b, s) in the slot of (k, a):
    component k of the contraction p(m) is sum of s m_ab over them."""
    return [[(a, b, s) for a in _R for b, s in table.pair_slots(k, a)] for k in _R]


def g2perp_scalar_curvature(r: CurvatureTensor, frame: G2Frame) -> Fraction:
    """sum_ij <(R(e_i,e_j))_{g2-perp}(e_j), e_i>; equals s/3 whenever the
    first Bianchi identity holds.

    The projection of R(e_i,e_j) is the cross operator of
    p(R(e_i,e_j)) / 6, so the summand is (1/6) <e_i x e_j, p(R(e_i,e_j))>,
    evaluated on the integer operator entries M[b][c] = R_ijcb.  The pairing
    reads p_a only for the slot (a, s) of (i, j), and p_a is a signed sum of
    six entries of M.
    """
    table = frame.table
    reads = _contraction_reads(table)
    total = 0
    for i, row in enumerate(r._grid):
        for j, op in enumerate(row):
            if i != j and any(map(any, op)):
                # <e_i x e_j, p> = sum of eps_ija p_a over the slot of (i, j)
                for a, s in table.pair_slots(i, j):
                    total += s * sum(e * op[b][c] for b, c, e in reads[a])
    return Fraction(total, 6 * r._den)


def alt_scalar_curvature(t: Mat7, frame: G2Frame) -> Fraction:
    """sum_ij <[xi_{e_i}, xi_{e_j}]_{g2-perp} e_j, e_i> from the torsion
    slices; equals i0(T).

    This is the commutator-and-projection route, kept independent of the
    i0 double sum; the denominator of T is scaled out so the commutators
    run over the integers.  Each pair (i, j) pairs the contraction p(C) of
    C = [S_i, S_j] with e_i x e_j, so it reads p_k only for the slot
    (k, s) of (i, j); p_k is a signed sum of six entries C_ab, and each
    entry is one row-by-column difference of the slices S_i, S_j.
    """
    table = frame.table
    cols, d = integer_columns(t)
    slices = [table.cross_rows(cols[i]) for i in range(DIM)]
    slice_cols = [list(zip(*s)) for s in slices]
    reads = _contraction_reads(table)
    total = 0
    for i in range(DIM):
        rows_i, cols_i = slices[i], slice_cols[i]
        for j in range(i + 1, DIM):
            rows_j, cols_j = slices[j], slice_cols[j]
            # ordered pairs (i, j) and (j, i) contribute equally;
            # <p, e_i x e_j> = sum of s p_k over the slot of (i, j)
            for k, s in table.pair_slots(i, j):
                pk = 0
                for a, b, e in reads[k]:
                    # C_ab = (S_i S_j - S_j S_i)_ab
                    pk += e * (sum(map(mul, rows_i[a], cols_j[b])) - sum(map(mul, rows_j[a], cols_i[b])))
                total += 2 * s * pk
    return Fraction(total, 6 * d * d)


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

    def to_dict(self) -> dict:
        from .serialize import rational_str, vec_to_json

        return {
            "s_alt": rational_str(self.s_alt),
            "s_g2perp": rational_str(self.s_g2perp),
            "chi_sq": rational_str(self.chi_sq),
            "alt_sq": rational_str(self.alt_sq),
            "sym_sq": rational_str(self.sym_sq),
            "chi": vec_to_json(self.chi),
            "rhs_total": rational_str(self.rhs_total),
            "balanced": self.balanced,
        }


def divergence_balance(t: Mat7, s_perp: Fraction, frame: G2Frame) -> DivergenceReport:
    """The divergence summands of T against s_perp =
    g2perp_scalar_curvature(R, frame), which the caller has computed."""
    s_alt = alt_scalar_curvature(t, frame)
    chi = characteristic_vector(t, frame)
    chi_sq, alt_sq, sym_sq = torsion_energies(t, frame)
    rhs = Fraction(1, 2) * s_alt - Fraction(1, 2) * s_perp + chi_sq + alt_sq - sym_sq
    balanced = (rhs == 0) if chi.is_zero() else None
    return DivergenceReport(
        s_alt=s_alt,
        s_g2perp=s_perp,
        chi_sq=chi_sq,
        alt_sq=alt_sq,
        sym_sq=sym_sq,
        chi=chi,
        rhs_total=rhs,
        balanced=balanced,
    )


# ---------------------------------------------------------------------------
# Invariant exterior calculus
# ---------------------------------------------------------------------------


def ce_differential(mla: MetricLieAlgebra, a: KForm) -> KForm:
    """Chevalley-Eilenberg differential on invariant forms, applied as the
    graded derivation with d e^m = -sum_{i<j} c^m_ij e^{ij}:
    d(e^{k_0} ^ ... ^ e^{k_r}) = sum_p (-1)^p e^{k_0} ^ ... ^ d e^{k_p} ^ ... ^ e^{k_r}.

    Only the nonzero structure constants enter.  Putting e^{ij} in slot p
    of the remaining indices `rest` and sorting costs the sign
    (-1)^(r_i + r_j), r_i being the number of indices in `rest` below i.
    """
    if a.degree == DIM:
        raise ValueError("no degree-8 forms on a 7-dimensional algebra")
    grid = mla._grid
    # d e^m as the nonzero (i, j, -d c^m_ij) over the algebra's denominator d
    differentials = [[(i, j, -grid[i][j][m]) for i, j in combinations(_R, 2) if grid[i][j][m]] for m in _R]
    num, den = integer_terms(a)
    acc: dict[tuple[int, ...], int] = {}
    for key, v in num.items():
        for p, m in enumerate(key):
            terms = differentials[m]
            if not terms:
                continue
            rest = key[:p] + key[p + 1:]
            for i, j, c in terms:
                if i in rest or j in rest:
                    continue
                ri, rj = bisect(rest, i), bisect(rest, j)
                new = rest[:ri] + (i,) + rest[ri:rj] + (j,) + rest[rj:]
                x = c * v
                acc[new] = acc.get(new, 0) + (-x if (p + ri + rj) % 2 else x)
    return KForm.from_ints(a.degree + 1, acc, den * mla._den)


def codifferential(mla: MetricLieAlgebra, a: KForm) -> KForm:
    """delta = (-1)^k star d star on invariant k-forms (dimension 7); the
    formal adjoint of d for the "form" inner product on unimodular algebras.
    The two Hodge duals cancel any orientation sign, so the result does not
    depend on the orientation."""
    if a.degree == 0:
        return KForm.zero(0)
    sign = -1 if a.degree % 2 else 1
    return hodge(ce_differential(mla, hodge(a))).scale(sign)


def _derive(rows, num: dict) -> dict:
    """Integer coefficients of A * form for the integer rows of A and the
    integer coefficients of the form: the term at `key` feeds, from each
    slot holding idx, every target l with weight A[idx][l], with the sign
    (-1)^(pos + r) of moving l from slot pos to its sorted slot r."""
    targets = [tuple((l, c) for l, c in enumerate(row) if c) for row in rows]
    acc: dict[tuple[int, ...], int] = {}
    for key, v in num.items():
        for pos, idx in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            for l, c in targets[idx]:
                if l in rest:
                    continue
                r = bisect(rest, l)
                new = rest[:r] + (l,) + rest[r:]
                x = c * v
                acc[new] = acc.get(new, 0) + (-x if (pos + r) % 2 else x)
    return acc


def derivation_action(a: Mat7, form: KForm) -> KForm:
    """(a * form)(Y_1..Y_k) = sum_m form(Y_1, ..., a Y_m, ..., Y_k).

    The stored index idx sits in a covariant slot, so the term at idx feeds
    every target l with weight (a e_l)_idx = a[idx][l]."""
    rows, d = integer_rows(a)
    num, den = integer_terms(form)
    return KForm.from_ints(form.degree, _derive(rows, num), d * den)


def nabla_form(conn: ConnectionTable, a: KForm) -> tuple[KForm, ...]:
    """Covariant derivatives (nabla_{e_0} a, ..., nabla_{e_6} a) of an
    invariant form: (nabla_{e_i} a)(Y...) = -sum_m a(..., nabla_{e_i} Y_m, ...),
    the derivation action of -nabla_{e_i}, whose row idx holds
    -Gamma^idx_il in column l."""
    num, den = integer_terms(a)
    d = conn._den * den
    return tuple(
        KForm.from_ints(a.degree, _derive([[-x for x in col] for col in zip(*g)], num), d) for g in conn._grid
    )


# ---------------------------------------------------------------------------
# Torsion endomorphism from geometry
# ---------------------------------------------------------------------------


class TorsionSolveError(ValueError):
    pass


@lru_cache(maxsize=None)
def _key_index(degree: int) -> dict[tuple[int, ...], int]:
    return {key: n for n, key in enumerate(all_increasing_tuples(degree))}


def _form_coords(a: KForm, degree: int) -> list[int]:
    """Coefficients of a on the increasing monomials of `degree`, in order,
    as integers over a's denominator."""
    coords = [0] * comb(DIM, degree)
    index = _key_index(degree)
    for key, v in integer_terms(a)[0].items():
        coords[index[key]] = v
    return coords


def _system(columns, degree: int) -> LinearSystem:
    """The linear system whose columns are the coordinates of the given forms."""
    coords, d = _common_coords(columns, degree)
    return LinearSystem(list(zip(*coords)), d)


def _common_coords(forms, degree: int) -> tuple[list[list[int]], int]:
    """The coordinates of each form over one common denominator."""
    dens = [integer_terms(f)[1] for f in forms]
    d = lcm(*dens)
    return [[x * (d // df) for x in _form_coords(f, degree)] for f, df in zip(forms, dens)], d


@lru_cache(maxsize=None)
def _cross_action_system(table, orientation) -> LinearSystem:
    """The 35x7 system of v -> (cross operator of v) * phi, reduced once per frame."""
    frame = G2Frame.from_table(table, orientation)
    return _system([derivation_action(cross_operator(Vec7.basis(k), frame), frame.phi) for k in _R], 3)


def torsion_endo_from_geometry(nphi: tuple[KForm, ...], frame: G2Frame) -> Mat7:
    """Recover T with nabla_{e_i} phi = (cross operator of T(e_i)) * phi
    from the covariant derivatives nphi = nabla_form(conn, frame.phi).

    Each slice is an exact overdetermined linear solve against one system
    per frame; for a metric connection the system is consistent with zero
    residual, and the resulting T reproduces the tabulated endomorphism of
    the built-in nilmanifold model.  The slices share one denominator, so
    their integer solutions are the columns of T over one denominator too.
    """
    system = _cross_action_system(frame.table, frame.orientation)
    coords, d = _common_coords(nphi, 3)
    cols = []
    for i, b in enumerate(coords):
        sol = system.solve_ints(b, d)
        if sol is None:
            raise TorsionSolveError(
                f"slice {i}: nabla_phi does not lie in the cross-operator orbit of phi"
            )
        cols.append(sol[0])
    return Mat7.from_ints(tuple(zip(*cols)), sol[1])


# the 3-form pairing in each convention, as a multiple of the "form" one
_PAIRING_WEIGHT_3 = {FORM: 1, TENSOR: 6}


@lru_cache(maxsize=None)
def _dual_coords(table, orientation) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Coordinates of e_y -| (-star_phi) for y = 0..6 over one denominator."""
    star = -G2Frame.from_table(table, orientation).star_phi
    coords, d = _common_coords([interior(Vec7.basis(y), star) for y in _R], 3)
    return tuple(map(tuple, coords)), d


def r_map(nphi: tuple[KForm, ...], frame: G2Frame, convention: str = FORM) -> Mat7:
    """The 2-tensor r(X, Y) = <nabla_X phi, e_Y -| star phi> as a grid.

    The pairing is quarter-normalised (increasing monomials orthonormal on
    4-tensors: 1/4 of the 3-form "form" pairing, 6/4 of it for "tensor")
    and pairs against the reversed-orientation dual -star_phi.  This is the
    one normalisation that satisfies T(X) = (1/3) sum_i r(X, e_i) e_i
    against the exactly solved torsion endomorphism on every metric Lie
    algebra, for both built-in frames, and it reproduces the tabulated
    r = (1/2)(e^01 - e^46) of the built-in nilmanifold model.
    """
    if convention not in _PAIRING_WEIGHT_3:
        raise ValueError(f"unknown convention {convention!r}")
    weight = _PAIRING_WEIGHT_3[convention]
    duals, dd = _dual_coords(frame.table, frame.orientation)
    coords, d = _common_coords(nphi, 3)
    return Mat7.from_ints([[weight * sum(map(mul, a, b)) for b in duals] for a in coords], 4 * d * dd)


class GeometryTorsionReport(_Record):
    torsion: Mat7
    r_grid: Mat7
    matched_convention: str | None

    def to_dict(self) -> dict:
        from .serialize import mat_to_json

        return {
            "torsion": mat_to_json(self.torsion),
            "r_grid": mat_to_json(self.r_grid),
            "matched_convention": self.matched_convention,
        }


def geometry_torsion_report(nphi: tuple[KForm, ...], frame: G2Frame) -> GeometryTorsionReport:
    """Solve for T from nphi = nabla_form(conn, frame.phi) and record which
    pairing convention lets the r route reproduce it via
    T(X) = (1/3) sum_i r(X, e_i) e_i."""
    t = torsion_endo_from_geometry(nphi, frame)
    matched = None
    r_form = r_map(nphi, frame, FORM)
    for convention in (FORM, TENSOR):
        grid = r_form if convention == FORM else r_map(nphi, frame, convention)
        candidate = grid.transpose().scale(Fraction(1, 3))
        if candidate == t:
            matched = convention
            break
    return GeometryTorsionReport(torsion=t, r_grid=r_form, matched_convention=matched)


# ---------------------------------------------------------------------------
# Torsion forms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _lambda2_14_forms(table) -> tuple[KForm, ...]:
    frame = G2Frame.from_table(table)
    return tuple(two_form_from_matrix(m) for m in g2_basis(frame))


@lru_cache(maxsize=None)
def _lambda3_27_forms(table, orientation) -> tuple[KForm, ...]:
    frame = G2Frame.from_table(table, orientation)
    keys3 = all_increasing_tuples(3)
    rows = []
    # gamma ^ phi = 0 (7 equations in Lambda^6), gamma ^ star_phi = 0 (1
    # equation in Lambda^7); each group of rows is scaled to integers
    for form, targets in ((frame.phi, all_increasing_tuples(6)), (frame.star_phi, [tuple(_R)])):
        wedges = [integer_terms(wedge(KForm.monomial(key), form)) for key in keys3]
        d = lcm(*(dw for _, dw in wedges))
        rows += [[num.get(target, 0) * (d // dw) for num, dw in wedges] for target in targets]
    out = []
    for coeffs in nullspace(rows):
        xs, d = integer_vector(coeffs)
        out.append(KForm.from_ints(3, dict(zip(keys3, xs)), d))
    return tuple(out)


@lru_cache(maxsize=None)
def _lambda4_system(table, orientation) -> LinearSystem:
    """Lambda^4 against {star_phi} + {e^i ^ phi} + {star(27-part basis)}:
    35 equations in 35 unknowns, reduced once per frame."""
    frame = G2Frame.from_table(table, orientation)
    cols = [frame.star_phi]
    cols += [wedge(KForm.monomial((i,)), frame.phi) for i in _R]
    cols += [hodge(gamma, orientation) for gamma in _lambda3_27_forms(table, orientation)]
    return _system(cols, 4)


@lru_cache(maxsize=None)
def _lambda5_system(table, orientation) -> LinearSystem:
    """Lambda^5 against {e^i ^ star_phi} + {(14-part basis) ^ phi}:
    21 equations in 21 unknowns, reduced once per frame."""
    frame = G2Frame.from_table(table, orientation)
    cols = [wedge(KForm.monomial((i,)), frame.star_phi) for i in _R]
    cols += [wedge(beta, frame.phi) for beta in _lambda2_14_forms(table)]
    return _system(cols, 5)


def _combination(basis: tuple[KForm, ...], coeffs: list[int], d: int, degree: int) -> KForm:
    """sum_a (coeffs[a] / d) basis[a] for integer coefficients and d > 0."""
    terms = [integer_terms(f) for f in basis]
    common = lcm(*(df for _, df in terms))
    acc: dict[tuple[int, ...], int] = {}
    for c, (num, df) in zip(coeffs, terms):
        if c:
            c *= common // df
            for key, v in num.items():
                acc[key] = acc.get(key, 0) + c * v
    return KForm.from_ints(degree, acc, common * d)


class TorsionForms(_Record):
    """Solution of d phi = tau0 star_phi + 3 tau1 ^ phi + star tau3 and
    d star_phi = 4 tau1 ^ star_phi + tau2 ^ phi, with tau2 in the
    14-dimensional and tau3 in the 27-dimensional summand."""

    tau0: Fraction
    tau1: KForm
    tau2: KForm
    tau3: KForm
    convention: str = FORM

    def norms_sq(self, convention: str | None = None) -> dict[str, Fraction]:
        conv = convention or self.convention
        return {
            "tau0_sq": self.tau0 * self.tau0,
            "tau1_sq": form_norm_sq(self.tau1, conv),
            "tau2_sq": form_norm_sq(self.tau2, conv),
            "tau3_sq": form_norm_sq(self.tau3, conv),
        }

    def vanishing(self) -> frozenset[str]:
        out = set()
        if self.tau0 == 0:
            out.add("tau0")
        if self.tau1.is_zero():
            out.add("tau1")
        if self.tau2.is_zero():
            out.add("tau2")
        if self.tau3.is_zero():
            out.add("tau3")
        return frozenset(out)

    def class_flags(self) -> frozenset[str]:
        """Fernandez-Gray flags under tau0<->X1, tau2<->X2, tau3<->X3, tau1<->X4."""
        flags = set()
        if self.tau0 != 0:
            flags.add("X1")
        if not self.tau2.is_zero():
            flags.add("X2")
        if not self.tau3.is_zero():
            flags.add("X3")
        if not self.tau1.is_zero():
            flags.add("X4")
        return frozenset(flags)


def torsion_forms(mla: MetricLieAlgebra, frame: G2Frame, convention: str = FORM) -> TorsionForms:
    """Solve the two defining equations by exact linear algebra.

    d phi is decomposed against the basis {star_phi} + {e^i ^ phi} +
    {star(27-part basis)} of Lambda^4, d star_phi against {e^i ^ star_phi}
    + {(14-part basis) ^ phi} of Lambda^5; the one-form from the two
    systems must agree, and both solves must be consistent, otherwise the
    residual is reported through TorsionSolveError.
    """
    dphi = ce_differential(mla, frame.phi)
    dstar = ce_differential(mla, frame.star_phi)

    # system 1: Lambda^4, 35 unknowns
    sol4 = _lambda4_system(frame.table, frame.orientation).solve_ints(_form_coords(dphi, 4), integer_terms(dphi)[1])
    if sol4 is None:
        raise TorsionSolveError("d phi is not compatible with the 1+7+27 split")
    x, d4 = sol4
    tau0 = Fraction(x[0], d4)
    tau1 = KForm.from_ints(1, {(i,): x[1 + i] for i in _R}, 3 * d4)
    tau3 = _combination(_lambda3_27_forms(frame.table, frame.orientation), x[8:], d4, 3)

    # system 2: Lambda^5, 21 unknowns
    sol5 = _lambda5_system(frame.table, frame.orientation).solve_ints(_form_coords(dstar, 5), integer_terms(dstar)[1])
    if sol5 is None:
        raise TorsionSolveError("d star_phi is not compatible with the 7+14 split")
    y, d5 = sol5
    if KForm.from_ints(1, {(i,): y[i] for i in _R}, 4 * d5) != tau1:
        raise TorsionSolveError("the one-form parts of d phi and d star_phi disagree")
    tau2 = _combination(_lambda2_14_forms(frame.table), y[7:], d5, 2)

    return TorsionForms(tau0=tau0, tau1=tau1, tau2=tau2, tau3=tau3, convention=convention)


class BryantScalarReport(_Record):
    scalar: Fraction
    rhs_by_convention: tuple[tuple[str, Fraction], ...]
    reconciling: tuple[str, ...]
    forms: TorsionForms
    delta_tau1: Fraction

    def to_dict(self) -> dict:
        from .serialize import rational_str

        return {
            "scalar_curvature": rational_str(self.scalar),
            "rhs_by_convention": {k: rational_str(v) for k, v in self.rhs_by_convention},
            "reconciling_conventions": list(self.reconciling),
            "delta_tau1": rational_str(self.delta_tau1),
            "tau_norms_form": {
                k: rational_str(v) for k, v in sorted(self.forms.norms_sq(FORM).items())
            },
            "tau_vanishing": sorted(self.forms.vanishing()),
        }


def bryant_scalar_check(
    mla: MetricLieAlgebra, frame: G2Frame, s: Fraction, tf: TorsionForms
) -> BryantScalarReport:
    """Compare s = 12 delta tau1 + (21/8) tau0^2 + 30 |tau1|^2
    - (1/2)|tau2|^2 - (1/2)|tau3|^2 under each norm convention with the
    scalar curvature s of the Koszul/curvature route, where tf is
    torsion_forms(mla, frame), and report which convention gives exact
    equality.  The two sides come from independent routes."""
    dt1 = codifferential(mla, tf.tau1).coeff(())
    rhs = []
    matches = []
    for convention in (FORM, "tensor"):
        n = tf.norms_sq(convention)
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


class NearlyParallelReport(_Record):
    """Nearly parallel check at a purely algebraic level: substitute
    d phi := -8 lambda0 star_phi and Z = 0 into the skew-torsion formulas."""

    lambda0: Fraction
    torsion_is_expected_multiple: bool
    expected_scalar: Fraction
    tor_sq_by_convention: tuple[tuple[str, Fraction], ...]
    check_27_by_convention: tuple[tuple[str, Fraction], ...]
    check_27_reconciling: tuple[str, ...]
    scalar_formula_by_convention: tuple[tuple[str, Fraction], ...]
    scalar_formula_reconciling: tuple[str, ...]

    def to_dict(self) -> dict:
        from .serialize import rational_str

        return {
            "lambda0": rational_str(self.lambda0),
            "torsion_is_minus_4_thirds_lambda0_phi": self.torsion_is_expected_multiple,
            "expected_scalar": rational_str(self.expected_scalar),
            "tor_sq_by_convention": {k: rational_str(v) for k, v in self.tor_sq_by_convention},
            "check_27_halves": {k: rational_str(v) for k, v in self.check_27_by_convention},
            "check_27_halves_reconciling": list(self.check_27_reconciling),
            "scalar_formula": {k: rational_str(v) for k, v in self.scalar_formula_by_convention},
            "scalar_formula_reconciling": list(self.scalar_formula_reconciling),
        }

    @property
    def passed(self) -> bool:
        return (
            self.torsion_is_expected_multiple
            and bool(self.check_27_reconciling)
            and bool(self.scalar_formula_reconciling)
        )


def nearly_parallel_torsion_check(lambda0, frame: G2Frame) -> NearlyParallelReport:
    """With d phi := -8 lambda0 star_phi and vanishing vector class, the
    characteristic skew torsion is Tor = (1/6)(d phi, star phi) phi
    - star d phi = -(4/3) lambda0 phi.  Checks s = (27/2)|Tor|^2 and
    s = (1/18)(d phi, star phi)^2 - (1/12)|Tor|^2 against s = 168 lambda0^2,
    reporting which norm convention reconciles each; the (d phi, star phi)
    pairing itself is always taken in the "form" convention."""
    lam = as_fraction(lambda0)
    dphi = frame.star_phi.scale(-8 * lam)
    pairing = form_inner(dphi, frame.star_phi, FORM)
    tor = frame.phi.scale(pairing / 6) - hodge(dphi, frame.orientation)
    expected_tor = frame.phi.scale(Fraction(-4, 3) * lam)
    expected_scalar = 168 * lam * lam

    tor_sq = []
    check27 = []
    check27_ok = []
    scalar_formula = []
    scalar_ok = []
    for convention in (FORM, "tensor"):
        tsq = form_norm_sq(tor, convention)
        tor_sq.append((convention, tsq))
        v27 = Fraction(27, 2) * tsq
        check27.append((convention, v27))
        if v27 == expected_scalar:
            check27_ok.append(convention)
        vsf = Fraction(1, 18) * pairing * pairing - Fraction(1, 12) * tsq
        scalar_formula.append((convention, vsf))
        if vsf == expected_scalar:
            scalar_ok.append(convention)

    return NearlyParallelReport(
        lambda0=lam,
        torsion_is_expected_multiple=(tor == expected_tor),
        expected_scalar=expected_scalar,
        tor_sq_by_convention=tuple(tor_sq),
        check_27_by_convention=tuple(check27),
        check_27_reconciling=tuple(check27_ok),
        scalar_formula_by_convention=tuple(scalar_formula),
        scalar_formula_reconciling=tuple(scalar_ok),
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
    frame = build_cayley_frame()
    s = Fraction(1, 6)
    cols = [
        Vec7.basis(1).scale(s),
        Vec7.basis(0).scale(-s),
        Vec7.zero(),
        Vec7.zero(),
        Vec7.basis(6).scale(-s),
        Vec7.zero(),
        Vec7.basis(4).scale(s),
    ]
    return mla, frame, Mat7.from_columns(cols)


def connection_reference_diff(conn: ConnectionTable) -> list[tuple[int, int, Vec7, Vec7]]:
    """Entries (i, j, derived, reference) where the Koszul connection of the
    Heisenberg model differs from the tabulated reference connection."""
    out = []
    for i in range(DIM):
        for j in range(DIM):
            ref = Vec7.zero()
            if (i, j) in HEISENBERG_REFERENCE_CONNECTION:
                k, val = HEISENBERG_REFERENCE_CONNECTION[(i, j)]
                ref = Vec7.basis(k).scale(val)
            if conn.gamma[i][j] != ref:
                out.append((i, j, conn.gamma[i][j], ref))
    return out
