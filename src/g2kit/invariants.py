"""Quadratic invariants of endomorphisms of R^7.

sigma1, sigma2, the squared trace norm and the characteristic polynomial are
orthogonal invariants; i0, i1, i2 are built from the cross product and are
invariants of the frame-preserving subgroup only, so every i-evaluator takes
the frame explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .frames import CheckReport, G2Frame
from .linalg import DIM, UNIT, Mat7, _Record, integer_columns, integer_rows
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
    """
    n_rows, d = integer_rows(t)
    # e = (1, e_1, ..., e_r) with det(tI - N_r) = sum_k e_k t^(r-k) for the
    # leading r-by-r block N_r of N
    e = [1]
    for r in range(DIM):
        block = [n_rows[i][:r] for i in range(r)]
        row = n_rows[r][:r]
        col = [n_rows[i][r] for i in range(r)]
        toeplitz = [1, -n_rows[r][r]]
        for k in range(r):
            if k:
                col = [sum(map(mul, b, col)) for b in block]
            toeplitz.append(-sum(map(mul, row, col)))
        e = [sum(toeplitz[i - j] * e[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
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
    rows, d = integer_rows(t)
    tr = sum(rows[i][i] for i in range(DIM))
    tr2 = sum(rows[i][j] * rows[j][i] for i in range(DIM) for j in range(DIM))
    return Fraction(tr * tr - tr2, 2 * d * d)


def i0(t: Mat7, frame: G2Frame) -> Fraction:
    """sum_ij <T(e_i) x T(e_j), e_i x e_j>, one table slot per pair."""
    cols, d = integer_columns(t)
    return Fraction(frame.table.pair_trace(cols), d * d)


def i1(t: Mat7, frame: G2Frame) -> Fraction:
    """sum_ij <T(e_i) x e_i, T(e_j) x e_j> = |sum_i T(e_i) x e_i|^2."""
    table = frame.table
    cols, d = integer_columns(t)
    acc = [0] * DIM
    for i in range(DIM):
        # e_i x T(e_i) = -T(e_i) x e_i; the sign drops out of the square
        for k, x in enumerate(table.cross(UNIT[i], cols[i])):
            acc[k] += x
    return Fraction(sum(x * x for x in acc), d * d)


def i2(t: Mat7, frame: G2Frame) -> Fraction:
    """sum_ij <T(e_i) x e_j, T(e_j) x e_i>."""
    cols, d = integer_columns(t)
    # row j of the cross operator of T(e_i) is T(e_i) x e_j
    crossed = [frame.table.cross_rows(c) for c in cols]
    total = 0
    for i in range(DIM):
        total += sum(x * x for x in crossed[i][i])
        for j in range(i + 1, DIM):
            total += 2 * sum(a * b for a, b in zip(crossed[i][j], crossed[j][i]))
    return Fraction(total, d * d)


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

    def to_dict(self) -> dict:
        from .serialize import rational_str

        out = {
            "sigma1": rational_str(self.sigma1),
            "sigma2": rational_str(self.sigma2),
            "norm_sq": rational_str(self.norm_sq),
            "i0": rational_str(self.i0),
            "i1": rational_str(self.i1),
            "i2": rational_str(self.i2),
        }
        if self.charpoly is not None:
            out["charpoly"] = [rational_str(c) for c in self.charpoly]
        return out


def invariant_report(t: Mat7, frame: G2Frame) -> InvariantReport:
    return InvariantReport(
        sigma1=t.trace(),
        sigma2=sigma2(t),
        norm_sq=t.norm_sq(),
        i0=i0(t, frame),
        i1=i1(t, frame),
        i2=i2(t, frame),
        charpoly=char_poly(t),
    )


class QuadraticRelationsReport(_Record):
    passed: bool
    invariants: InvariantReport
    residual_i1: Fraction
    residual_i2: Fraction
    residual_difference: Fraction

    def to_dict(self) -> dict:
        from .serialize import rational_str

        return {
            "passed": self.passed,
            "invariants": self.invariants.to_dict(),
            "residual_i1": rational_str(self.residual_i1),
            "residual_i2": rational_str(self.residual_i2),
            "residual_difference": rational_str(self.residual_difference),
        }


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
