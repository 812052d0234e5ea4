"""Intrinsic torsion of a G2-structure induced by an endomorphism T.

The torsion acts by xi_X Y = Y x T(X); every slice X -> xi_X is the cross
operator of T(X) and in particular skew.  The characteristic vector is the
trace chi = sum_i xi_{e_i} e_i = sum_i e_i x T(e_i); it vanishes exactly
when the vector part of T vanishes, and equals -6Z when T is the cross
operator of Z.  All class flags are pointwise: the scalar flag reports a
nonzero scalar part at this single point, while constancy over a manifold
is a field-level condition outside this package's scope.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub

from .frames import G2Frame, build_standard_frame
from .invariants import i0, sigma2
from .linalg import DIM, Mat7, Vec7, _Record, integer_columns
from .so7 import EndoSplit, cross_operator, decompose_endo

# Scaling note attached to reports whenever a structure with nonzero vector
# class is classified: for pure vector type the consistent normalisation is
# (1/6) s = 45 |Z|^2, equivalently (1/3) s = 90 |Z|^2.  Reference material
# for this family prints 45 against the (1/3) normalisation, which is off by
# a factor of 2; all values reported here follow the (1/6) normalisation.
VECTOR_CLASS_SCALING_NOTE = (
    "pure vector class scaling: this report uses (1/6)s = 45|Z|^2; "
    "the (1/3)s variant printed in reference material (45 instead of 90) "
    "is inconsistent by a factor of 2"
)


def characteristic_vector(t: Mat7, frame: G2Frame) -> Vec7:
    """chi = sum_i e_i x T(e_i).

    Componentwise chi_k = sum_ij eps_kij T_ji, the contraction of the grid
    of columns of T; it runs on d T and divides once.
    """
    cols, d = integer_columns(t)
    return Vec7.from_ints(frame.table.contract(cols), d)


def torsion_energies(t: Mat7, frame: G2Frame) -> tuple[Fraction, Fraction, Fraction]:
    """(|chi|^2, |xi_alt|^2, |xi_sym|^2) with xi_sym/alt the symmetric and
    alternating parts of xi in its two arguments.

    The combination |chi|^2 + |xi_alt|^2 - |xi_sym|^2 equals i1(T) - i2(T).
    """
    cols, d = integer_columns(t)
    # row j of the cross operator of T(e_i) is T(e_i) x e_j = -xi_{e_i} e_j;
    # the sign drops out of every square below
    xi = [frame.table.cross_rows(c) for c in cols]
    chi = list(map(sum, zip(*(xi[i][i] for i in range(DIM)))))
    # |xi_sym|^2 and |xi_alt|^2 are the sums over (i, j) of
    # |xi_ij +- xi_ji|^2 / 4d^2.  The pairs (i, j) and (j, i) add equal
    # terms, so each pair i < j is summed once over 2d^2; the pair (i, i)
    # adds |2 xi_ii|^2 / 4d^2 = 2 |xi_ii|^2 / 2d^2 to the symmetric part only
    diag = 2 * sum(sum(map(mul, xi[i][i], xi[i][i])) for i in range(DIM))
    alt_int = 0
    sym_int = 0
    for i in range(DIM):
        xi_i = xi[i]
        for j in range(i + 1, DIM):
            a, b = xi_i[j], xi[j][i]
            s = list(map(add, a, b))
            r = list(map(sub, a, b))
            sym_int += sum(map(mul, s, s))
            alt_int += sum(map(mul, r, r))
    dd = 2 * d * d
    return Fraction(sum(map(mul, chi, chi)), d * d), Fraction(alt_int, dd), Fraction(sym_int + diag, dd)


class TorsionClass(_Record):
    split: EndoSplit
    flags: frozenset[str]
    part_norms_sq: tuple[Fraction, Fraction, Fraction, Fraction]  # (scalar, sym0, g2, vector)


def classify(t: Mat7, frame: G2Frame) -> TorsionClass:
    """Pointwise class flags from exact nonzero tests of the four parts."""
    split = decompose_endo(t, frame)
    return TorsionClass(
        split=split,
        flags=split.nonzero_flags(),
        part_norms_sq=split.part_norms_sq(),
    )


def curvature_integrand(t: Mat7, frame: G2Frame) -> Fraction:
    """-(3/2) i0(T) + 6 sigma2(T), the algebraic side of the scalar-curvature
    balance (equal to s/6 pointwise when the vector class vanishes); the
    reports read the ``integrand`` row of ``PART_NORM_TABLE`` instead."""
    return Fraction(-3, 2) * i0(t, frame) + 6 * sigma2(t)


class VectorClassPresent(ValueError):
    """Raised when a vector-free operation receives T with nonzero vector part."""

    def __init__(self, vector: Vec7):
        self.vector = vector
        super().__init__(
            f"vector part is nonzero: Z = {tuple(str(c) for c in vector)}; "
            "the pointwise scalar-curvature formula needs a vanishing characteristic vector"
        )


def predicted_scalar_curvature(t: Mat7, frame: G2Frame) -> Fraction:
    """6 * curvature_integrand(T): the scalar curvature predicted for
    structures whose vector class vanishes (chi = 0)."""
    split = decompose_endo(t, frame)
    if not split.vector.is_zero():
        raise VectorClassPresent(split.vector)
    return 6 * curvature_integrand(t, frame)


class HypersurfaceReport(_Record):
    passed: bool
    lhs: Fraction
    rhs: Fraction
    sigma2_shape: Fraction


def hypersurface_identity_check(s: Mat7) -> HypersurfaceReport:
    """For symmetric shape operator S, set T = (8/3) S (the coupling used by
    the hypersurface construction; both signs give the same value) and check
    6 * curvature_integrand(T) = 128 * sigma2(S) exactly.

    This verifies the internal algebraic chain s = 18 sigma2(T) =
    128 sigma2(S) only.  The coupling that meets the Gauss equation
    s = 2 sigma2(S) of a hypersurface of R^8 is T = +-S/3, so the 8/3 one is
    surfaced, not endorsed; README lists it among the known discrepancies.
    """
    if not s.is_symmetric():
        raise ValueError("hypersurface shape operator must be symmetric")
    t = s.scale(Fraction(8, 3))
    # for symmetric T the integrand is frame independent (i0 = 2 sigma2)
    lhs = 6 * curvature_integrand(t, build_standard_frame())
    rhs = 128 * sigma2(s)
    return HypersurfaceReport(passed=(lhs == rhs), lhs=lhs, rhs=rhs, sigma2_shape=sigma2(s))


def pure_vector_energy(z: Vec7, frame: G2Frame) -> Fraction:
    """curvature_integrand of the cross operator of Z; equals 45 |Z|^2 and is
    strictly positive for Z != 0, so a structure with vanishing integrand
    cannot be of pure vector type unless Z = 0."""
    return curvature_integrand(cross_operator(z, frame), frame)
