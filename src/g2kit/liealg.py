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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .forms import (
    FORM,
    KForm,
    all_increasing_tuples,
    form_inner,
    form_norm_sq,
    hodge,
    interior,
    two_form_from_matrix,
    wedge,
)
from .frames import G2Frame, build_cayley_frame
from .linalg import DIM, UNIT, LinearSystem, Mat7, Vec7, as_fraction, int_matmul, integer_columns, nullspace
from .so7 import cross_operator, g2_basis
from .torsion import torsion_energies


# ---------------------------------------------------------------------------
# Metric Lie algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricLieAlgebra:
    """Structure constants c^k_ij with [e_i, e_j] = sum_k c^k_ij e_k,
    stored as a 7x7 grid of bracket vectors; the frame is orthonormal."""

    brackets: tuple[tuple[Vec7, ...], ...]

    def __post_init__(self):
        if len(self.brackets) != DIM or any(len(row) != DIM for row in self.brackets):
            raise ValueError("needs a 7x7 grid of bracket vectors")
        for i in range(DIM):
            for j in range(DIM):
                if self.brackets[i][j] != -self.brackets[j][i]:
                    raise ValueError(f"brackets not antisymmetric at ({i},{j})")

    @staticmethod
    def from_nonzero(entries: dict) -> MetricLieAlgebra:
        """Build from {(i, j): {k: coeff}} for i < j; antisymmetry is filled in."""
        grid = [[Vec7.zero() for _ in range(DIM)] for _ in range(DIM)]
        for (i, j), coeffs in entries.items():
            if i == j:
                raise ValueError("diagonal brackets must vanish")
            v = Vec7(tuple(as_fraction(coeffs.get(k, 0)) for k in range(DIM)))
            grid[i][j] = grid[i][j] + v
            grid[j][i] = grid[j][i] - v
        return MetricLieAlgebra(tuple(tuple(row) for row in grid))

    @staticmethod
    def abelian() -> MetricLieAlgebra:
        return MetricLieAlgebra.from_nonzero({})

    def c(self, i: int, j: int, k: int) -> Fraction:
        return self.brackets[i][j][k]

    def bracket(self, u: Vec7, v: Vec7) -> Vec7:
        acc = Vec7.zero()
        for i in range(DIM):
            if u[i] == 0:
                continue
            for j in range(DIM):
                if v[j] == 0:
                    continue
                acc = acc + self.brackets[i][j].scale(u[i] * v[j])
        return acc

    def jacobi_defect(self) -> tuple[int, int, int] | None:
        """First triple violating the Jacobi identity, or None."""
        for i in range(DIM):
            for j in range(i + 1, DIM):
                for k in range(j + 1, DIM):
                    total = (
                        self.bracket(self.brackets[i][j], Vec7.basis(k))
                        + self.bracket(self.brackets[j][k], Vec7.basis(i))
                        + self.bracket(self.brackets[k][i], Vec7.basis(j))
                    )
                    if not total.is_zero():
                        return (i, j, k)
        return None

    def is_unimodular(self) -> bool:
        return all(
            sum((self.brackets[i][j][j] for j in range(DIM)), Fraction(0)) == 0
            for i in range(DIM)
        )

    def nonzero_entries(self) -> list[tuple[int, int, int, Fraction]]:
        out = []
        for i in range(DIM):
            for j in range(i + 1, DIM):
                for k in range(DIM):
                    if self.brackets[i][j][k] != 0:
                        out.append((i, j, k, self.brackets[i][j][k]))
        return out


# ---------------------------------------------------------------------------
# Connection and curvature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectionTable:
    """Gamma^k_ij with nabla_{e_i} e_j = sum_k Gamma^k_ij e_k."""

    gamma: tuple[tuple[Vec7, ...], ...]

    def nabla(self, i: int, j: int) -> Vec7:
        return self.gamma[i][j]

    def operator(self, i: int) -> Mat7:
        """The skew operator nabla_{e_i} (column j is nabla_{e_i} e_j)."""
        return Mat7.from_columns([self.gamma[i][j] for j in range(DIM)])

    def is_metric(self) -> bool:
        return all(self.operator(i).is_skew() for i in range(DIM))

    def torsion_defect(self, mla: MetricLieAlgebra) -> tuple[int, int] | None:
        for i in range(DIM):
            for j in range(DIM):
                if self.gamma[i][j] - self.gamma[j][i] != mla.brackets[i][j]:
                    return (i, j)
        return None

    def nonzero_entries(self) -> list[tuple[int, int, int, Fraction]]:
        out = []
        for i in range(DIM):
            for j in range(DIM):
                for k in range(DIM):
                    if self.gamma[i][j][k] != 0:
                        out.append((i, j, k, self.gamma[i][j][k]))
        return out


def koszul(mla: MetricLieAlgebra) -> ConnectionTable:
    """Levi-Civita connection of the left-invariant metric:
    2 Gamma^k_ij = c^k_ij - c^i_jk + c^j_ki (orthonormal frame)."""
    defect = mla.jacobi_defect()
    if defect is not None:
        raise ValueError(f"Jacobi identity fails on triple {defect}")
    half = Fraction(1, 2)
    gamma = tuple(
        tuple(
            Vec7(
                tuple(
                    half * (mla.c(i, j, k) - mla.c(j, k, i) + mla.c(k, i, j))
                    for k in range(DIM)
                )
            )
            for j in range(DIM)
        )
        for i in range(DIM)
    )
    return ConnectionTable(gamma)


@dataclass(frozen=True)
class CurvatureTensor:
    """Components R_ijkl = <R(e_i, e_j) e_k, e_l>."""

    components: tuple[tuple[tuple[tuple[Fraction, ...], ...], ...], ...]

    def value(self, i: int, j: int, k: int, l: int) -> Fraction:
        return self.components[i][j][k][l]

    def operator(self, i: int, j: int) -> Mat7:
        """R(e_i, e_j) as a skew matrix."""
        return Mat7(
            tuple(
                tuple(self.components[i][j][k][l] for k in range(DIM))
                for l in range(DIM)
            )
        )

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

    The connection coefficients and structure constants are scaled to one
    common denominator d, so with D_i = d nabla_{e_i} the operator
    d^2 R(e_i, e_j) = [D_i, D_j] - sum_m (d c^m_ij) D_m runs over the
    integers; each component is divided back exactly at the end.
    """
    d = lcm(*(x.denominator for grid in (conn.gamma, mla.brackets) for row in grid for v in row for x in v))

    def scaled(x: Fraction) -> int:
        return x.numerator * (d // x.denominator)

    # ops[i][l][k] = d Gamma^l_ik: row l, column k of D_i
    ops = [[[scaled(conn.gamma[i][k][l]) for k in range(DIM)] for l in range(DIM)] for i in range(DIM)]
    prods = [[int_matmul(a, b) for b in ops] for a in ops]
    dd = d * d
    zero = Fraction(0)
    comps = []
    for i in range(DIM):
        row = []
        for j in range(DIM):
            op = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(prods[i][j], prods[j][i])]
            for m, c in enumerate(mla.brackets[i][j]):
                if c:
                    c = scaled(c)
                    op = [[x - c * y for x, y in zip(r1, r2)] for r1, r2 in zip(op, ops[m])]
            # R_ijkl is row l, column k of R(e_i, e_j)
            row.append(tuple(tuple(Fraction(x, dd) if x else zero for x in col) for col in zip(*op)))
        comps.append(tuple(row))
    return CurvatureTensor(tuple(comps))


def scalar_curvature(r: CurvatureTensor) -> Fraction:
    return sum(
        (r.components[i][j][j][i] for i in range(DIM) for j in range(DIM)),
        Fraction(0),
    )


def curvature_diagonal(r: CurvatureTensor) -> list[tuple[int, int, Fraction]]:
    """Nonzero sectional components R_ijji with their ordered index pairs."""
    out = []
    for i in range(DIM):
        for j in range(DIM):
            v = r.components[i][j][j][i]
            if v != 0:
                out.append((i, j, v))
    return out


def g2perp_scalar_curvature(r: CurvatureTensor, frame: G2Frame) -> Fraction:
    """sum_ij <(R(e_i,e_j))_{g2-perp}(e_j), e_i>; equals s/3 whenever the
    first Bianchi identity holds.

    The projection of R(e_i,e_j) is the cross operator of
    p(R(e_i,e_j)) / 6, so the summand is (1/6) <e_i x e_j, p(R(e_i,e_j))>,
    evaluated componentwise from the operator entries M[b][c] = R_ijcb.
    """
    table = frame.table
    total = Fraction(0)
    for i in range(DIM):
        for j in range(DIM):
            p = table.contract(tuple(zip(*r.components[i][j])))
            # <e_i x e_j, p> = (e_j x p)_i
            total += table.cross(UNIT[j], p)[i]
    return total / 6


def alt_scalar_curvature(t: Mat7, frame: G2Frame) -> Fraction:
    """sum_ij <[xi_{e_i}, xi_{e_j}]_{g2-perp} e_j, e_i> from the torsion
    slices; equals i0(T).

    This is the commutator-and-projection route, kept independent of the
    i0 double sum; the denominator of T is scaled out so the commutators
    run over the integers.
    """
    table = frame.table
    cols, d = integer_columns(t)
    slices = [table.cross_rows(cols[i]) for i in range(DIM)]
    total = 0
    for i in range(DIM):
        for j in range(i + 1, DIM):
            ab = int_matmul(slices[i], slices[j])
            ba = int_matmul(slices[j], slices[i])
            comm = [[ab[p][q] - ba[p][q] for q in range(DIM)] for p in range(DIM)]
            w = table.contract(comm)
            # ordered pairs (i, j) and (j, i) contribute equally;
            # <w, e_i x e_j> = (e_j x w)_i
            total += 2 * table.cross(UNIT[j], w)[i]
    return Fraction(total, 6 * d * d)


@dataclass(frozen=True)
class DivergenceReport:
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


def divergence_balance(t: Mat7, r: CurvatureTensor, frame: G2Frame) -> DivergenceReport:
    from .torsion import characteristic_vector

    s_alt = alt_scalar_curvature(t, frame)
    s_perp = g2perp_scalar_curvature(r, frame)
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
    """Chevalley-Eilenberg differential on invariant forms:
    d a(X_0..X_k) = sum_{p<q} (-1)^{p+q} a([X_p, X_q], ..., no X_p, X_q)."""
    if a.degree == DIM:
        raise ValueError("no degree-8 forms on a 7-dimensional algebra")
    terms = {}
    for key in all_increasing_tuples(a.degree + 1):
        total = Fraction(0)
        for p in range(len(key)):
            for q in range(p + 1, len(key)):
                rest = key[:p] + key[p + 1:q] + key[q + 1:]
                bracket = mla.brackets[key[p]][key[q]]
                sign = -1 if (p + q) % 2 else 1
                for m in range(DIM):
                    if bracket[m] != 0:
                        total += sign * bracket[m] * a.coeff((m,) + rest)
        if total != 0:
            terms[key] = total
    return KForm(a.degree + 1, terms)


def codifferential(mla: MetricLieAlgebra, a: KForm, orientation: int = 1) -> KForm:
    """delta = (-1)^k star d star on invariant k-forms (dimension 7); the
    formal adjoint of d for the "form" inner product on unimodular algebras.
    The two Hodge duals cancel any orientation sign, so the result does not
    depend on the orientation argument."""
    if a.degree == 0:
        return KForm.zero(0)
    sign = -1 if a.degree % 2 else 1
    return hodge(ce_differential(mla, hodge(a, orientation)), orientation).scale(sign)


def derivation_action(a: Mat7, form: KForm) -> KForm:
    """(a * form)(Y_1..Y_k) = sum_m form(Y_1, ..., a Y_m, ..., Y_k)."""
    acc: dict[tuple[int, ...], Fraction] = {}
    for key, value in form.terms():
        for pos, idx in enumerate(key):
            # the stored index idx sits in a covariant slot, so the term at
            # idx feeds every target l with weight (a e_l)_idx = a[idx][l]
            for l in range(DIM):
                c = a.entries[idx][l]
                if c == 0:
                    continue
                newkey = key[:pos] + (l,) + key[pos + 1:]
                acc[newkey] = acc.get(newkey, Fraction(0)) + c * value
    return KForm(form.degree, acc)


def nabla_form(conn: ConnectionTable, a: KForm) -> tuple[KForm, ...]:
    """Covariant derivatives (nabla_{e_0} a, ..., nabla_{e_6} a) of an
    invariant form: (nabla_{e_i} a)(Y...) = -sum_m a(..., nabla_{e_i} Y_m, ...)."""
    return tuple(-derivation_action(conn.operator(i), a) for i in range(DIM))


# ---------------------------------------------------------------------------
# Torsion endomorphism from geometry
# ---------------------------------------------------------------------------


class TorsionSolveError(ValueError):
    pass


def _form_coords(a: KForm, degree: int) -> list[Fraction]:
    return [a.coeff(key) for key in all_increasing_tuples(degree)]


@lru_cache(maxsize=None)
def _cross_action_system(table, orientation) -> LinearSystem:
    """The 35x7 system of v -> (cross operator of v) * phi, reduced once per frame."""
    frame = G2Frame.from_table(table, orientation)
    cols = [
        _form_coords(derivation_action(cross_operator(Vec7.basis(k), frame).mat, frame.phi), 3)
        for k in range(DIM)
    ]
    return LinearSystem(list(zip(*cols)))


def torsion_endo_from_geometry(nphi: tuple[KForm, ...], frame: G2Frame) -> Mat7:
    """Recover T with nabla_{e_i} phi = (cross operator of T(e_i)) * phi
    from the covariant derivatives nphi = nabla_form(conn, frame.phi).

    Each slice is an exact overdetermined linear solve against one system
    per frame; for a metric connection the system is consistent with zero
    residual, and the resulting T reproduces the tabulated endomorphism of
    the built-in nilmanifold model.
    """
    system = _cross_action_system(frame.table, frame.orientation)
    cols = []
    for i in range(DIM):
        sol = system.solve(_form_coords(nphi[i], 3))
        if sol is None:
            raise TorsionSolveError(
                f"slice {i}: nabla_phi does not lie in the cross-operator orbit of phi"
            )
        cols.append(Vec7(tuple(sol)))
    return Mat7.from_columns(cols)


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
    star = -frame.star_phi
    duals = [interior(Vec7.basis(y), star) for y in range(DIM)]
    quarter = Fraction(1, 4)
    return Mat7(tuple(tuple(quarter * form_inner(a, b, convention) for b in duals) for a in nphi))


@dataclass(frozen=True)
class GeometryTorsionReport:
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
    for convention in (FORM, "tensor"):
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
    # gamma ^ phi = 0 (7 equations in Lambda^6)
    for target in all_increasing_tuples(6):
        row = []
        for key in keys3:
            row.append(wedge(KForm.monomial(key), frame.phi).coeff(target))
        rows.append(row)
    # gamma ^ star_phi = 0 (1 equation in Lambda^7)
    target = tuple(range(DIM))
    rows.append([wedge(KForm.monomial(key), frame.star_phi).coeff(target) for key in keys3])
    basis = nullspace(rows)
    out = []
    for coeffs in basis:
        out.append(KForm(3, {key: c for key, c in zip(keys3, coeffs) if c != 0}))
    return tuple(out)


@lru_cache(maxsize=None)
def _lambda4_system(table, orientation) -> LinearSystem:
    """Lambda^4 against {star_phi} + {e^i ^ phi} + {star(27-part basis)}:
    35 equations in 35 unknowns, reduced once per frame."""
    frame = G2Frame.from_table(table, orientation)
    cols = [_form_coords(frame.star_phi, 4)]
    cols += [_form_coords(wedge(KForm.monomial((i,)), frame.phi), 4) for i in range(DIM)]
    cols += [_form_coords(hodge(gamma, orientation), 4) for gamma in _lambda3_27_forms(table, orientation)]
    return LinearSystem(list(zip(*cols)))


@lru_cache(maxsize=None)
def _lambda5_system(table, orientation) -> LinearSystem:
    """Lambda^5 against {e^i ^ star_phi} + {(14-part basis) ^ phi}:
    21 equations in 21 unknowns, reduced once per frame."""
    frame = G2Frame.from_table(table, orientation)
    cols = [_form_coords(wedge(KForm.monomial((i,)), frame.star_phi), 5) for i in range(DIM)]
    cols += [_form_coords(wedge(beta, frame.phi), 5) for beta in _lambda2_14_forms(table)]
    return LinearSystem(list(zip(*cols)))


@dataclass(frozen=True)
class TorsionForms:
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

    gamma_basis = _lambda3_27_forms(frame.table, frame.orientation)
    beta_basis = _lambda2_14_forms(frame.table)

    # system 1: Lambda^4, 35 unknowns
    sol4 = _lambda4_system(frame.table, frame.orientation).solve(_form_coords(dphi, 4))
    if sol4 is None:
        raise TorsionSolveError("d phi is not compatible with the 1+7+27 split")

    tau0 = sol4[0]
    tau1 = KForm(1, {(i,): sol4[1 + i] / 3 for i in range(DIM)})
    tau3 = KForm.zero(3)
    for a, gamma in enumerate(gamma_basis):
        if sol4[8 + a] != 0:
            tau3 = tau3 + gamma.scale(sol4[8 + a])

    # system 2: Lambda^5, 21 unknowns
    sol5 = _lambda5_system(frame.table, frame.orientation).solve(_form_coords(dstar, 5))
    if sol5 is None:
        raise TorsionSolveError("d star_phi is not compatible with the 7+14 split")

    tau1_bis = KForm(1, {(i,): sol5[i] / 4 for i in range(DIM)})
    if tau1_bis != tau1:
        raise TorsionSolveError("the one-form parts of d phi and d star_phi disagree")
    tau2 = KForm.zero(2)
    for b, beta in enumerate(beta_basis):
        if sol5[7 + b] != 0:
            tau2 = tau2 + beta.scale(sol5[7 + b])

    return TorsionForms(tau0=tau0, tau1=tau1, tau2=tau2, tau3=tau3, convention=convention)


@dataclass(frozen=True)
class BryantScalarReport:
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
    dt1 = codifferential(mla, tf.tau1, frame.orientation).coeff(())
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


@dataclass(frozen=True)
class NearlyParallelReport:
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
