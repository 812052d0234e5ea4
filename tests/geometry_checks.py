"""Structural checks of a connection and its curvature, the exact solves
for the torsion endomorphism and the torsion forms, and the algebraic
nearly parallel check, for the tests.

The package computes the Levi-Civita connection and reads curvature
entries off it but never checks them against their defining properties;
the tests do, with these helpers, through the public ``gamma`` view and
all 49 entries of each R(e_i, e_j) read through the curvature kernel.
The package reads T off the connection in closed form
(``liealg.torsion_endo``); the solve here recovers it from nabla phi
instead, as the solution of nabla_{e_i} phi = (cross operator of T(e_i))
* phi.  The package reads Bryant's torsion forms off d phi and d star_phi
in closed form too (``liealg.torsion_forms``); the solve here decomposes
d phi against a basis of Lambda^4 = 1 + 7 + 27 and d star_phi against one
of Lambda^5 = 7 + 14, built per frame from a Lambda^3_27 nullspace and the
g2 basis.  Each system is kept per frame as its integer rows over one
denominator, and :func:`solve_columns` solves it for all the right-hand
sides of one call with a single ``linalg.rref`` of [A | B], the package's
one exact solver.  No command reads the nearly parallel check either; it
substitutes a nearly parallel d phi into the skew-torsion formulas.
Dense inputs come from :func:`rotated_models`: model algebras of Lie types
the samplers never give, each in a rotated orthonormal basis, so every
structure constant is nonzero as a rule.
"""

from fractions import Fraction
from itertools import combinations, product
from math import lcm
from random import Random

from g2kit.forms import FORM, KForm, _derivation, all_increasing_tuples, form_inner, form_norm_sq, hodge, wedge
from g2kit.frames import G2Frame, per_frame
from g2kit.liealg import (
    MetricLieAlgebra,
    TorsionForms,
    TorsionSolveError,
    _common_coords,
    _curvature_entries,
    ce_differential,
)
from g2kit.linalg import (
    DIM,
    Mat7,
    Vec7,
    _Record,
    as_fraction,
    integer_coords,
    integer_vector,
    nullspace,
    rref,
)
from g2kit.sampling import rand_orthogonal
from g2kit.so7 import cross_operator, g2_basis


def is_metric(conn) -> bool:
    """Every nabla_{e_i} is skew, so the connection preserves the metric."""
    return all(Mat7.from_columns(conn.gamma[i]).is_skew() for i in range(DIM))


def torsion_defect(conn, mla) -> tuple[int, int] | None:
    """The first (i, j) with nabla_{e_i} e_j - nabla_{e_j} e_i != [e_i, e_j],
    or None when the connection is torsion free."""
    for i in range(DIM):
        for j in range(DIM):
            if conn.gamma[i][j] - conn.gamma[j][i] != mla.brackets[i][j]:
                return (i, j)
    return None


def _milnor(l1, l2, l3, shift: int = 0) -> dict:
    """Milnor's unimodular three-dimensional algebra on e_shift..e_shift+2:
    [e_1, e_2] = l1 e_0, [e_2, e_0] = l2 e_1, [e_0, e_1] = l3 e_2 (Milnor
    1976, section 4), as ``from_nonzero`` entries."""
    a, b, c = shift, shift + 1, shift + 2
    return {(b, c): {a: l1}, (a, c): {b: -l2}, (a, b): {c: l3}}


# model algebras as ``MetricLieAlgebra.from_nonzero`` entries: the filiform
# L_7 ([e_0, e_i] = e_{i+1}, nilpotent of step 5), su(2), sl(2, R) and
# e(1, 1) times R^4, and su(2) + su(2) + R
MODEL_ALGEBRAS = {
    "filiform": {(0, i): {i + 1: 1} for i in range(1, 6)},
    "su2+R4": _milnor(1, 1, 1),
    "sl2R+R4": _milnor(1, 1, -1),
    "e11+R4": _milnor(1, -1, 0),
    "su2+su2+R": {**_milnor(1, 1, 1), **_milnor(1, 1, 1, 3)},
}


def rotate_algebra(mla: MetricLieAlgebra, q: Mat7) -> MetricLieAlgebra:
    """The algebra in the orthonormal basis e'_i = sum_a Q_ai e_a for an
    orthogonal Q: c'^k_ij = sum_abc Q_ai Q_bj c^c_ab Q_ck.  The Jacobi
    identity is basis-free, so it holds whenever it held before."""
    qs = q.entries
    grid = [[[Fraction(0)] * DIM for _ in range(DIM)] for _ in range(DIM)]
    for a, b, c, x in mla.nonzero_entries():  # a < b; (b, a) adds the other sign
        for i, j in product(range(DIM), repeat=2):
            w = x * (qs[a][i] * qs[b][j] - qs[b][i] * qs[a][j])
            if w:
                for k in range(DIM):
                    grid[i][j][k] += w * qs[c][k]
    return MetricLieAlgebra(grid)


def rotated_models(seed: int) -> list[MetricLieAlgebra]:
    """Each of MODEL_ALGEBRAS rotated by ``rand_orthogonal(Random(seed))``."""
    q = rand_orthogonal(Random(seed))
    return [rotate_algebra(MetricLieAlgebra.from_nonzero(entries), q) for entries in MODEL_ALGEBRAS.values()]


def curvature_components(conn, mla) -> tuple:
    """All R_ijkl = <R(e_i, e_j) e_k, e_l> as nested ``Fraction`` tuples
    c[i][j][k][l], read through ``liealg._curvature_entries`` with all 49
    entries (row l, column k) of each R(e_i, e_j), i < j, and
    R(e_j, e_i) = -R(e_i, e_j)."""
    pairs = list(combinations(range(DIM), 2))
    entries, dd = _curvature_entries(conn, mla, [tuple(product(range(DIM), repeat=2))] * len(pairs))
    zero = ((Fraction(0),) * DIM,) * DIM
    ops = {}
    for (i, j), e in zip(pairs, entries):
        ops[i, j] = tuple(tuple(Fraction(e[DIM * l + k], dd) for l in range(DIM)) for k in range(DIM))
        ops[j, i] = tuple(tuple(-x for x in row) for row in ops[i, j])
    return tuple(tuple(ops.get((i, j), zero) for j in range(DIM)) for i in range(DIM))


def symmetry_defects(c) -> list[str]:
    """The failed symmetries of the curvature components c[i][j][k][l] at
    the first index tuple with one: antisymmetry in (i, j) and in (k, l),
    pair symmetry and the first Bianchi identity; empty when all hold."""
    out = []
    for i in range(DIM):
        for j in range(DIM):
            for k in range(DIM):
                for l in range(DIM):
                    v = c[i][j][k][l]
                    if v != -c[j][i][k][l]:
                        out.append(f"antisymmetry in (i,j) fails at {(i, j, k, l)}")
                    if v != -c[i][j][l][k]:
                        out.append(f"antisymmetry in (k,l) fails at {(i, j, k, l)}")
                    if v != c[k][l][i][j]:
                        out.append(f"pair symmetry fails at {(i, j, k, l)}")
                    if v + c[j][k][i][l] + c[k][i][j][l] != 0:
                        out.append(f"first Bianchi fails at {(i, j, k, l)}")
                    if out:
                        return out
    return out


def derivation_action(a: Mat7, form: KForm) -> KForm:
    """(a * form)(Y_1..Y_k) = sum_m form(Y_1, ..., a Y_m, ..., Y_k).

    The stored index m sits in a covariant slot, so the derivation maps e^m
    to sum_l (a e_l)_m e^l = sum_l a[m][l] e^l."""
    rows, d = integer_coords(a)
    return _derivation(form, 1, [[[((l,), c) for l, c in enumerate(row) if c] for row in rows]], d)[0]


def _system(columns) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows, d): the matrix rows / d whose columns are the coordinates of
    the given forms."""
    coords, d = _common_coords(columns)
    return tuple(zip(*coords)), d


def solve_columns(system, rhs) -> list[list[Fraction]] | None:
    """The solution x of A x = b for A = rows / d, system = (rows, d), and
    each right-hand side b in rhs (int or Fraction entries), read off the
    pivot rows of one ``rref`` of [rows | d b_0 | d b_1 | ...]; None when a
    pivot lands in the right block, so that some b is not in the column
    space of A.  A free unknown of a rank-deficient A is 0."""
    rows, d = system
    ncols = len(rows[0])
    reduced, pivots = rref([[*row, *(d * x for x in bs)] for row, bs in zip(rows, zip(*rhs))])
    if pivots and pivots[-1] >= ncols:
        return None
    solutions = [[Fraction(0)] * ncols for _ in rhs]
    for row, c in zip(reduced, pivots):
        for x, value in zip(solutions, row[ncols:]):
            x[c] = value
    return solutions


def cross_action_system(frame: G2Frame) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The 35x7 system of v -> (cross operator of v) * phi."""
    return _system([derivation_action(cross_operator(Vec7.basis(k), frame), frame.phi) for k in range(DIM)])


def solved_torsion_endo(nphi: tuple[KForm, ...], system) -> Mat7:
    """T with nabla_{e_i} phi = (cross operator of T(e_i)) * phi, from the
    covariant derivatives nphi = nabla_form(conn, frame.phi) and the
    frame's cross_action_system.

    The seven slices are exact overdetermined solves, reduced together; for
    a metric connection each is consistent with zero residual, and the
    solutions are the columns of T.
    """
    coords, d = _common_coords(nphi)
    cols = solve_columns(system, coords)
    if cols is None:
        raise TorsionSolveError("nabla_phi does not lie in the cross-operator orbit of phi")
    return Mat7(tuple(zip(*cols))).scale(Fraction(1, d))


def two_form_from_matrix(m: Mat7) -> KForm:
    """2-form alpha(e_i, e_j) = M_ij of a skew matrix."""
    rows, d = integer_coords(m)
    return KForm.from_ints(2, [rows[i][j] for i, j in all_increasing_tuples(2)], d)


@per_frame
def _lambda2_14_forms(frame: G2Frame) -> tuple[KForm, ...]:
    return tuple(two_form_from_matrix(m) for m in g2_basis(frame))


@per_frame
def _lambda3_27_forms(frame: G2Frame) -> tuple[KForm, ...]:
    rows = []
    # gamma ^ phi = 0 (7 equations in Lambda^6), gamma ^ star_phi = 0 (1
    # equation in Lambda^7); each group of rows is scaled to integers
    for form in (frame.phi, frame.star_phi):
        coords, _ = _common_coords([wedge(KForm(3, {key: 1}), form) for key in all_increasing_tuples(3)])
        rows += zip(*coords)
    return tuple(KForm.from_ints(3, *integer_vector(coeffs)) for coeffs in nullspace(rows))


@per_frame
def _lambda4_system(frame: G2Frame) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Lambda^4 against {star_phi} + {e^i ^ phi} + {star(27-part basis)}:
    35 equations in 35 unknowns."""
    cols = [frame.star_phi]
    cols += [wedge(KForm(1, {(i,): 1}), frame.phi) for i in range(DIM)]
    cols += [hodge(gamma, frame.orientation) for gamma in _lambda3_27_forms(frame)]
    return _system(cols)


@per_frame
def _lambda5_system(frame: G2Frame) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Lambda^5 against {e^i ^ star_phi} + {(14-part basis) ^ phi}:
    21 equations in 21 unknowns."""
    cols = [wedge(KForm(1, {(i,): 1}), frame.star_phi) for i in range(DIM)]
    cols += [wedge(beta, frame.phi) for beta in _lambda2_14_forms(frame)]
    return _system(cols)


def _combination(basis: tuple[KForm, ...], coeffs: list[int], d: int) -> KForm:
    """sum_a (coeffs[a] / d) basis[a] for integer coefficients and d > 0;
    only the forms with a nonzero coefficient are rescaled."""
    used = [(c, f) for c, f in zip(coeffs, basis) if c]
    common = lcm(*(f._den for _, f in used))
    acc = [0] * len(basis[0]._grid)
    for c, f in used:
        c *= common // f._den
        for n, v in enumerate(f._grid):
            if v:
                acc[n] += c * v
    return KForm.from_ints(basis[0].degree, acc, common * d)


def solved_torsion_forms(mla, frame: G2Frame) -> TorsionForms:
    """tau0..tau3 by exact linear algebra: d phi decomposed against the
    basis {star_phi} + {e^i ^ phi} + {star(27-part basis)} of Lambda^4,
    d star_phi against {e^i ^ star_phi} + {(14-part basis) ^ phi} of
    Lambda^5.  Either solve can fail, and the one-forms of the two must
    agree; TorsionSolveError otherwise."""
    dphi = ce_differential(mla, frame.phi)
    dstar = ce_differential(mla, frame.star_phi)

    # system 1: Lambda^4, 35 unknowns
    coords, dd = integer_coords(dphi)
    sol4 = solve_columns(_lambda4_system(frame), [coords])
    if sol4 is None:
        raise TorsionSolveError("d phi is not compatible with the 1+7+27 split")
    x, d4 = integer_vector(sol4[0])
    d4 *= dd
    tau0 = Fraction(x[0], d4)
    tau1 = KForm.from_ints(1, x[1:8], 3 * d4)
    tau3 = _combination(_lambda3_27_forms(frame), x[8:], d4)

    # system 2: Lambda^5, 21 unknowns
    coords, dd = integer_coords(dstar)
    sol5 = solve_columns(_lambda5_system(frame), [coords])
    if sol5 is None:
        raise TorsionSolveError("d star_phi is not compatible with the 7+14 split")
    y, d5 = integer_vector(sol5[0])
    d5 *= dd
    if KForm.from_ints(1, y[:7], 4 * d5) != tau1:
        raise TorsionSolveError("the one-form parts of d phi and d star_phi disagree")
    tau2 = _combination(_lambda2_14_forms(frame), y[7:], d5)

    return TorsionForms(tau0=tau0, tau1=tau1, tau2=tau2, tau3=tau3)


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
