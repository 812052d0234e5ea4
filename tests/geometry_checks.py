"""Structural checks of a connection and a curvature tensor, the exact
solve for the torsion endomorphism, and the algebraic nearly parallel
check, for the tests.

The package computes the Levi-Civita connection and its curvature but
never checks them against their defining properties; the tests do, with
these helpers, through the public ``gamma``, ``operator`` and
``components`` views.  The package reads T off the connection in closed
form (``liealg.torsion_endo``); the solve here recovers it from nabla phi
instead, as the solution of nabla_{e_i} phi = (cross operator of T(e_i))
* phi.  No command reads the nearly parallel check either; it substitutes
a nearly parallel d phi into the skew-torsion formulas.
"""

from fractions import Fraction

from g2kit.forms import FORM, KForm, _derivation, form_inner, form_norm_sq, hodge
from g2kit.frames import G2Frame
from g2kit.liealg import TorsionSolveError, _common_coords, _system
from g2kit.linalg import DIM, LinearSystem, Mat7, Vec7, _Record, as_fraction, integer_rows
from g2kit.so7 import cross_operator


def is_metric(conn) -> bool:
    """Every nabla_{e_i} is skew, so the connection preserves the metric."""
    return all(conn.operator(i).is_skew() for i in range(DIM))


def torsion_defect(conn, mla) -> tuple[int, int] | None:
    """The first (i, j) with nabla_{e_i} e_j - nabla_{e_j} e_i != [e_i, e_j],
    or None when the connection is torsion free."""
    for i in range(DIM):
        for j in range(DIM):
            if conn.gamma[i][j] - conn.gamma[j][i] != mla.brackets[i][j]:
                return (i, j)
    return None


def symmetry_defects(r) -> list[str]:
    """The failed curvature symmetries at the first index tuple with one:
    antisymmetry in (i, j) and in (k, l), pair symmetry and the first
    Bianchi identity; empty when all hold."""
    c = r.components
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
    rows, d = integer_rows(a)
    return _derivation(form, 1, [[[((l,), c) for l, c in enumerate(row) if c] for row in rows]], d)[0]


def cross_action_system(frame: G2Frame) -> LinearSystem:
    """The 35x7 system of v -> (cross operator of v) * phi."""
    return _system([derivation_action(cross_operator(Vec7.basis(k), frame), frame.phi) for k in range(DIM)])


def solved_torsion_endo(nphi: tuple[KForm, ...], system: LinearSystem) -> Mat7:
    """T with nabla_{e_i} phi = (cross operator of T(e_i)) * phi, from the
    covariant derivatives nphi = nabla_form(conn, frame.phi) and the
    frame's cross_action_system.

    Each slice is an exact overdetermined solve; for a metric connection it
    is consistent with zero residual.  The slices share one denominator, so
    their integer solutions are the columns of T over one denominator too.
    """
    coords, d = _common_coords(nphi)
    cols = []
    for i, b in enumerate(coords):
        sol = system.solve_ints(b, d)
        if sol is None:
            raise TorsionSolveError(f"slice {i}: nabla_phi does not lie in the cross-operator orbit of phi")
        cols.append(sol[0])
    return Mat7.from_ints(tuple(zip(*cols)), sol[1])


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
