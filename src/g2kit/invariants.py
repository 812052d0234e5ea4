"""Quadratic invariants of endomorphisms of R^7.

sigma1, sigma2, the squared trace norm and the characteristic polynomial are
orthogonal invariants; i0, i1, i2 are built from the cross product and are
invariants of the frame-preserving subgroup only, so every i-evaluator takes
the frame explicitly.

End(R^7) = R + S^2_0 + g2 + R^7 holds each summand once, so every quadratic
form on End(R^7) invariant under the frame's G2 is a fixed combination of the
four part norms (:data:`PART_NORM_TABLE`).  Reports read their invariants
off that table; the kernels below evaluate each invariant directly, the
independent route the identity checks compare against.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import itemgetter, mul

from .frames import CheckReport, G2Frame
from .linalg import DIM, Mat7, _Record, integer_columns, integer_coords, integer_vector
from .so7 import decompose_endo


def char_poly(t: Mat7) -> tuple[Fraction, ...]:
    """Coefficients (c_0, ..., c_7) of det(T - t I) = sum_i c_i t^i.

    Computed by Berkowitz's division-free recursion on the denominator-scaled
    integer matrix N = d T.  Step r borders the leading r-by-r block A with
    the column S above and the row R left of the diagonal entry a_rr: the
    coefficients of det(tI - .) of the bordered block are the lower-
    triangular Toeplitz matrix with first column 1, -a_rr, -R S, -R A S,
    ..., -R A^(r-1) S times those of A.  No step divides; the common
    denominator is restored per degree at the end.

    The recursion runs on N = diag(s) M, s_i the content of row i of N (1
    for a zero row): a product with row i of N is s_i times the product
    with the much shorter entries of row i of M, and the Toeplitz column
    past its leading 1 is s_r times (m_rr, M_r S, M_r A S, ...).  The
    integers e_k are those of the recursion on N itself.
    """
    n_rows, d = integer_coords(t)
    s = [gcd(*row) or 1 for row in n_rows]
    m_rows = [[x // c for x in row] for row, c in zip(n_rows, s)]
    # e = (1, e_1, ..., e_r) with det(tI - N_r) = sum_k e_k t^(r-k) for the
    # leading r-by-r block N_r of N
    e = [1]
    for r in range(DIM):
        block = [(s[i], m_rows[i][:r]) for i in range(r)]
        row = m_rows[r][:r]
        col = [n_rows[i][r] for i in range(r)]
        # (m_rr, M_r S, M_r A S, ..., M_r A^(r-1) S), one factor s_r short
        # of minus the Toeplitz column below its leading 1
        walk = [m_rows[r][r]]
        for k in range(r):
            if k:
                col = [c * sum(map(mul, b, col)) for c, b in block]
            walk.append(sum(map(mul, row, col)))
        s_r = s[r]
        e.append(0)
        e = [1] + [e[i] - s_r * sum(map(mul, walk[i - 1 :: -1], e)) for i in range(1, r + 2)]
    # det(tI - N) = sum_k e_k t^{7-k}, so det(T - tI) = -t^7 - sum_k (e_k / d^k) t^{7-k}
    coeffs = [Fraction(0)] * (DIM + 1)
    coeffs[DIM] = Fraction(-1)
    for k in range(1, DIM + 1):
        coeffs[DIM - k] = Fraction(-e[k], d**k)
    return tuple(coeffs)


def sigma_from_char_poly(coeffs: tuple[Fraction, ...], k: int) -> Fraction:
    """Elementary symmetric function sigma_k from det(T - tI) coefficients,
    following det(T - tI) = sum_i (-1)^i sigma_{7-i} t^i."""
    return (-1) ** (k + 1) * coeffs[DIM - k]


def sigma2(t: Mat7) -> Fraction:
    """Second elementary symmetric function, ((tr T)^2 - tr(T^2)) / 2."""
    rows, d = integer_coords(t)
    tr = sum(rows[i][i] for i in range(DIM))
    tr2 = sum(rows[i][j] * rows[j][i] for i in range(DIM) for j in range(DIM))
    return Fraction(tr * tr - tr2, 2 * d * d)


def i0(t: Mat7, frame: G2Frame) -> Fraction:
    """sum_ij <T(e_i) x T(e_j), e_i x e_j>, one table slot per pair."""
    cols, d = integer_columns(t)
    return Fraction(frame.table.pair_trace(cols), d * d)


def i1(t: Mat7, frame: G2Frame) -> Fraction:
    """sum_ij <T(e_i) x e_i, T(e_j) x e_j> = |chi|^2 for the contraction
    chi = sum_i e_i x T(e_i) of the columns of T; the sign drops out."""
    cols, d = integer_columns(t)
    chi = frame.table.contract(cols)
    return Fraction(sum(map(mul, chi, chi)), d * d)


def i2(t: Mat7, frame: G2Frame) -> Fraction:
    """sum_ij <T(e_i) x e_j, T(e_j) x e_i>, one pass over the table's
    quadratic form in the entries of T."""
    cols, d = integer_columns(t)
    return Fraction(frame.table.swap_trace(cols), d * d)


class InvariantReport(_Record):
    """The orthogonal and frame invariants of one endomorphism; ``charpoly``
    is None in the report of :func:`verify_quadratic_relations`, which
    does not read it."""

    sigma1: Fraction
    sigma2: Fraction
    norm_sq: Fraction
    i0: Fraction
    i1: Fraction
    i2: Fraction
    charpoly: tuple[Fraction, ...] | None


# Each quadratic invariant as (name, integer coefficients of the part norms
# (p1, p27, p14, p7) = EndoSplit.part_norms_sq(), divisor); sigma2, for
# one, is (6 p1 - p27 + p14 + p7) / 2.  The integrand row is the paper's
# -(3/2) i0 + 6 sigma2 = 9 p1 - (3/2) p27 - (3/2) p14 + (15/2) p7; the
# last two are the divergence terms |xi_alt|^2 and |xi_sym|^2.
PART_NORM_TABLE = (
    ("sigma2", (6, -1, 1, 1), 2),
    ("norm_sq", (1, 1, 1, 1), 1),
    ("i0", (6, -1, 3, -3), 1),
    ("i1", (0, 0, 0, 6), 1),
    ("i2", (-6, 1, 3, -3), 1),
    ("integrand", (18, -3, -3, 15), 2),
    ("alt_sq", (12, 5, 3, 9), 2),
    ("sym_sq", (0, 7, 9, 3), 2),
)


def part_norm_invariants(norms: tuple[Fraction, Fraction, Fraction, Fraction]) -> dict[str, Fraction]:
    """The invariants of :data:`PART_NORM_TABLE` by name, from the part norms
    (p1, p27, p14, p7): the norms go over one common denominator, and each
    invariant is one integer combination divided once."""
    nums, d = integer_vector(norms)
    return {name: Fraction(sum(map(mul, coeffs, nums)), div * d) for name, coeffs, div in PART_NORM_TABLE}


# the table's values that an InvariantReport holds, in its field order
_REPORT_ROWS = itemgetter("sigma2", "norm_sq", "i0", "i1", "i2")


def invariant_report_from_norms(t: Mat7, values: dict[str, Fraction]) -> InvariantReport:
    """The report of T from ``values = part_norm_invariants(norms)`` of its
    part norms, but the integrand; only sigma1 and the characteristic
    polynomial are computed from T itself."""
    return InvariantReport(t.trace(), *_REPORT_ROWS(values), char_poly(t))


def invariant_report(t: Mat7, frame: G2Frame) -> InvariantReport:
    return invariant_report_from_norms(t, part_norm_invariants(decompose_endo(t, frame).part_norms_sq()))


class QuadraticRelationsReport(_Record):
    passed: bool
    invariants: InvariantReport
    residual_i1: Fraction
    residual_i2: Fraction
    residual_difference: Fraction


def verify_quadratic_relations(t: Mat7, frame: G2Frame) -> QuadraticRelationsReport:
    """Check i1 = -i0 + |T|^2 + 4 sigma2 - sigma1^2,
    i2 = i0 + |T|^2 - 2 sigma2 - sigma1^2 and their difference identity.

    Only the six values the relations read are computed; the report's
    ``invariants.charpoly`` is None."""
    inv = InvariantReport(
        sigma1=t.trace(),
        sigma2=sigma2(t),
        norm_sq=t.norm_sq(),
        i0=i0(t, frame),
        i1=i1(t, frame),
        i2=i2(t, frame),
        charpoly=None,
    )
    s1sq = inv.sigma1 * inv.sigma1
    r1 = inv.i1 - (-inv.i0 + inv.norm_sq + 4 * inv.sigma2 - s1sq)
    r2 = inv.i2 - (inv.i0 + inv.norm_sq - 2 * inv.sigma2 - s1sq)
    rd = (inv.i1 - inv.i2) - (-2 * inv.i0 + 6 * inv.sigma2)
    return QuadraticRelationsReport(
        passed=(r1 == 0 and r2 == 0 and rd == 0),
        invariants=inv,
        residual_i1=r1,
        residual_i2=r2,
        residual_difference=rd,
    )


def special_case_check(t: Mat7, frame: G2Frame) -> CheckReport:
    """Detect scalar, symmetric, or cross-operator shape and assert the
    closed-form invariant values for that shape.

    Scalar lambda*Id: (i0, i1, i2) = (42, 0, -42) lambda^2, sigma2 = 21
    lambda^2, |T|^2 = 7 lambda^2.  Symmetric: i0 = 2 sigma2, i1 = 0,
    i2 = -2 sigma2.  Cross operator A_Z: (i0, i1, i2, sigma2, |T|^2) =
    (-18, 36, -18, 3, 6) |Z|^2 and i1 - i2 = 54 |Z|^2.
    "not special" is a valid non-error outcome.
    """
    split = decompose_endo(t, frame)
    failures: list[str] = []

    def expect(label: str, actual: Fraction, wanted: Fraction):
        if actual != wanted:
            failures.append(f"{label}: expected {wanted}, got {actual}")

    if split.sym0.is_zero() and split.g2part.is_zero() and split.vector.is_zero():
        case = "scalar"
        lam2 = split.scalar * split.scalar
        expect("i0", i0(t, frame), 42 * lam2)
        expect("i1", i1(t, frame), Fraction(0))
        expect("i2", i2(t, frame), -42 * lam2)
        expect("sigma2", sigma2(t), 21 * lam2)
        expect("norm_sq", t.norm_sq(), 7 * lam2)
    elif t.is_symmetric():
        case = "symmetric"
        s2 = sigma2(t)
        expect("i0", i0(t, frame), 2 * s2)
        expect("i1", i1(t, frame), Fraction(0))
        expect("i2", i2(t, frame), -2 * s2)
    elif split.scalar == 0 and split.sym0.is_zero() and split.g2part.is_zero():
        case = "vector"
        zsq = split.vector.norm_sq()
        v1, v2 = i1(t, frame), i2(t, frame)
        expect("i0", i0(t, frame), -18 * zsq)
        expect("i1", v1, 36 * zsq)
        expect("i2", v2, -18 * zsq)
        expect("sigma2", sigma2(t), 3 * zsq)
        expect("norm_sq", t.norm_sq(), 6 * zsq)
        expect("i1 - i2", v1 - v2, 54 * zsq)
    else:
        case = "not special"

    return CheckReport(
        name="special-case",
        passed=not failures,
        counts=(),
        failures=tuple(failures),
        notes=(f"case: {case}",),
    )
