from fractions import Fraction
from functools import cache
from itertools import combinations
from random import Random

from test_kernel_oracles import SHARED_PAIR_TABLE, flipped_frame

from g2kit.frames import G2Frame, cross
from g2kit.invariants import (
    PART_NORM_TABLE,
    char_poly,
    i0,
    i1,
    i2,
    invariant_report,
    part_norm_invariants,
    sigma2,
    sigma_from_char_poly,
    special_case_check,
    verify_quadratic_relations,
)
from g2kit.liealg import heisenberg_model
from g2kit.linalg import DIM, Mat7, Vec7, principal_minor_sum
from g2kit.sampling import (
    rand_mat,
    rand_orthogonal,
    rand_symmetric,
    rand_vec,
    table_symmetries,
)
from g2kit.serialize import invariants_to_json
from g2kit.so7 import cross_operator, decompose_endo
from g2kit.torsion import characteristic_vector, curvature_integrand


def test_char_poly_identity():
    coeffs = char_poly(Mat7.identity())
    # sigma_k = C(7, k)
    binom = [1, 7, 21, 35, 35, 21, 7, 1]
    for k in range(8):
        assert sigma_from_char_poly(coeffs, k) == binom[k]


def test_char_poly_heisenberg():
    _, _, t = heisenberg_model()
    coeffs = char_poly(t)
    expected = [Fraction(0)] * 8
    expected[7] = Fraction(-1)
    expected[5] = Fraction(-1, 18)
    expected[3] = Fraction(-1, 6**4)
    assert list(coeffs) == expected


def test_char_poly_vs_minor_sum_oracle():
    rng = Random(0)
    mats = [rand_mat(rng) for _ in range(20)]

    def wide():
        return Fraction(rng.randint(-(2**17), 2**17), rng.randint(1, 2**17))

    # 17-bit denominators, as in the classify-wide inputs
    mats += [Mat7([[wide() for _ in range(DIM)] for _ in range(DIM)]) for _ in range(3)]
    for t in mats:
        coeffs = char_poly(t)
        for k in range(8):
            assert sigma_from_char_poly(coeffs, k) == principal_minor_sum(t, k)


def test_sigma2_closed_forms(frame):
    assert sigma2(Mat7.identity().scale(Fraction(3))) == 21 * 9
    diag = Mat7.diag([1, -1, 0, 0, 0, 0, 0])
    # 2x2 minor enumeration oracle
    oracle = sum(
        diag.entries[i][i] * diag.entries[j][j] - diag.entries[i][j] * diag.entries[j][i]
        for i in range(DIM)
        for j in range(i + 1, DIM)
    )
    assert oracle == -1
    assert sigma2(diag) == -1
    assert sigma_from_char_poly(char_poly(diag), 1) == 0
    z = rand_vec(Random(1))
    assert sigma2(cross_operator(z, frame)) == 3 * z.norm_sq()
    _, heis_frame, t = heisenberg_model()
    assert sigma2(t) == Fraction(1, 18)


def test_i_invariants_naive_oracle(frame):
    # direct double-sum evaluation, independent of the packaged fast paths
    rng = Random(2)
    for _ in range(15):
        t = rand_mat(rng)
        cols = [t.column(j) for j in range(DIM)]
        oracle_i0 = sum(
            (
                cross(cols[i], cols[j], frame).dot(cross(Vec7.basis(i), Vec7.basis(j), frame))
                for i in range(DIM)
                for j in range(DIM)
            ),
            Fraction(0),
        )
        oracle_i1 = sum(
            (
                cross(cols[i], Vec7.basis(i), frame).dot(cross(cols[j], Vec7.basis(j), frame))
                for i in range(DIM)
                for j in range(DIM)
            ),
            Fraction(0),
        )
        oracle_i2 = sum(
            (
                cross(cols[i], Vec7.basis(j), frame).dot(cross(cols[j], Vec7.basis(i), frame))
                for i in range(DIM)
                for j in range(DIM)
            ),
            Fraction(0),
        )
        assert i0(t, frame) == oracle_i0
        assert i1(t, frame) == oracle_i1
        assert i2(t, frame) == oracle_i2


def test_i_invariants_closed_forms(frame):
    assert i0(Mat7.identity(), frame) == 42
    lam = Fraction(-5, 3)
    scaled = Mat7.identity().scale(lam)
    assert i0(scaled, frame) == 42 * lam * lam
    assert i1(scaled, frame) == 0
    assert i2(scaled, frame) == -42 * lam * lam
    z = Vec7.basis(1)
    a_z = cross_operator(z, frame)
    assert (i0(a_z, frame), i1(a_z, frame), i2(a_z, frame)) == (-18, 36, -18)


def test_i0_heisenberg():
    _, frame, t = heisenberg_model()
    assert i0(t, frame) == Fraction(1, 3)


def test_quadratic_relations_random(frame):
    rng = Random(3)
    for _ in range(150):
        rep = verify_quadratic_relations(rand_mat(rng), frame)
        assert rep.passed


def test_quadratic_relations_closed_cases(frame):
    lam = Fraction(2, 5)
    rep = verify_quadratic_relations(Mat7.identity().scale(lam), frame)
    assert rep.passed
    assert rep.invariants.i1 - rep.invariants.i2 == 42 * lam * lam
    s = rand_symmetric(Random(4))
    rep = verify_quadratic_relations(s, frame)
    assert rep.passed
    assert rep.invariants.i0 == 2 * rep.invariants.sigma2
    assert rep.invariants.i1 == 0
    assert rep.invariants.i2 == -2 * rep.invariants.sigma2


def test_invariant_report_consistency(frame):
    rng = Random(5)
    t = rand_mat(rng)
    rep = invariant_report(t, frame)
    assert rep.sigma1 == t.trace()
    assert rep.sigma2 == sigma_from_char_poly(rep.charpoly, 2)
    assert rep.sigma1 == sigma_from_char_poly(rep.charpoly, 1)
    d = invariants_to_json(rep)
    assert set(d) == {"sigma1", "sigma2", "norm_sq", "i0", "i1", "i2", "charpoly"}


@cache
def polarization_points() -> tuple[Mat7, ...]:
    """E_a and E_a + E_b over the 49 matrix units, 1,225 points: a quadratic
    form on End(R^7) is fixed by its values there, since
    2 B(E_a, E_b) = Q(E_a + E_b) - Q(E_a) - Q(E_b)."""
    out = []
    for units in [(a,) for a in range(DIM * DIM)] + list(combinations(range(DIM * DIM), 2)):
        rows = [[0] * DIM for _ in range(DIM)]
        for a in units:
            rows[a // DIM][a % DIM] = 1
        out.append(Mat7.from_ints(rows, 1))
    return tuple(out)


@cache
def orthogonal_kernel_values() -> tuple[tuple[Fraction, Fraction], ...]:
    """(sigma2, |T|^2) of each polarization point; neither reads the frame."""
    return tuple((sigma2(t), t.norm_sq()) for t in polarization_points())


def table_disagreements(frame) -> dict[str, int]:
    """For each kernel, the number of polarization points at which it differs
    from PART_NORM_TABLE applied to the part norms of decompose_endo."""
    bad = {name: 0 for name, _, _ in PART_NORM_TABLE}
    for t, (s2, norm) in zip(polarization_points(), orthogonal_kernel_values()):
        table = part_norm_invariants(decompose_endo(t, frame).part_norms_sq())
        kernels = {
            "sigma2": s2,
            "norm_sq": norm,
            "i0": i0(t, frame),
            "i1": i1(t, frame),
            "i2": i2(t, frame),
            "integrand": curvature_integrand(t, frame),
        }
        for name, value in kernels.items():
            bad[name] += value != table[name]
    return bad


def test_part_norm_table_matches_the_kernels_on_every_endomorphism(frame):
    # each kernel and each table row is a quadratic form in T, so agreement
    # on the polarization points is agreement everywhere
    assert table_disagreements(frame) == dict.fromkeys(("sigma2", "norm_sq", "i0", "i1", "i2", "integrand"), 0)


def test_integrand_row_is_the_kernel_combination():
    rows = {name: [Fraction(c, div) for c in coeffs] for name, coeffs, div in PART_NORM_TABLE}
    assert rows["integrand"] == [Fraction(-3, 2) * a + 6 * b for a, b in zip(rows["i0"], rows["sigma2"])]
    assert rows["integrand"] == [9, Fraction(-3, 2), Fraction(-3, 2), Fraction(15, 2)]


def test_curvature_integrand_equals_the_table_row(frame):
    rng = Random(45)
    for _ in range(100):
        t = rand_mat(rng)
        table = part_norm_invariants(decompose_endo(t, frame).part_norms_sq())
        assert curvature_integrand(t, frame) == table["integrand"]


def test_i1_is_the_square_of_the_characteristic_vector(frame):
    # chi is the contraction of the columns of T on any table: a flipped
    # triple or two triples on one pair leave i1 = |chi|^2 intact
    rng = Random(46)
    for target in (frame, flipped_frame(frame, 2), G2Frame.from_table(SHARED_PAIR_TABLE)):
        for t in [rand_mat(rng) for _ in range(10)] + [cross_operator(rand_vec(rng), frame)]:
            assert i1(t, target) == characteristic_vector(t, target).norm_sq()


def test_part_norm_table_certificate_fails_on_flipped_triples(frame):
    # a sign-flipped base triple leaves no G2 structure: i0, i2 and the
    # integrand, which reads i0, leave the table, while sigma2 and |T|^2,
    # which read no table, and i1 = |chi|^2, the square of the contraction
    # that also gives the vector part, agree
    for index in range(DIM):
        assert table_disagreements(flipped_frame(frame, index)) == {
            "sigma2": 0,
            "norm_sq": 0,
            "i0": 48,
            "i1": 0,
            "i2": 48,
            "integrand": 48,
        }


def test_special_cases(frame):
    rep = special_case_check(Mat7.identity().scale(3), frame)
    assert rep.passed and "case: scalar" in rep.notes
    assert i0(Mat7.identity().scale(3), frame) == 378

    rep = special_case_check(rand_symmetric(Random(6)), frame)
    assert rep.passed and "case: symmetric" in rep.notes

    a_z = cross_operator(Vec7.basis(0), frame)
    rep = special_case_check(a_z, frame)
    assert rep.passed and "case: vector" in rep.notes
    assert i1(a_z, frame) == 36

    rep = special_case_check(rand_mat(Random(7)), frame)
    assert rep.passed and "case: not special" in rep.notes


def test_invariance_under_table_symmetries(frame):
    rng = Random(8)
    syms = table_symmetries(frame, rng, 4)
    assert len(syms) >= 2  # identity plus at least one nontrivial symmetry
    t = rand_mat(rng)
    base = (
        i0(t, frame),
        i1(t, frame),
        i2(t, frame),
        sigma2(t),
        t.trace() ** 2,
        t.norm_sq(),
    )
    for p in syms:
        assert p @ p.transpose() == Mat7.identity()
        conj = p @ t @ p.transpose()
        assert (
            i0(conj, frame),
            i1(conj, frame),
            i2(conj, frame),
            sigma2(conj),
            conj.trace() ** 2,
            conj.norm_sq(),
        ) == base


def test_orthogonal_invariance_of_sigma_quantities():
    rng = Random(9)
    t = rand_mat(rng)
    for _ in range(3):
        q = rand_orthogonal(rng)
        assert q @ q.transpose() == Mat7.identity()
        conj = q @ t @ q.transpose()
        assert sigma2(conj) == sigma2(t)
        assert conj.trace() == t.trace()
        assert conj.norm_sq() == t.norm_sq()
        assert char_poly(conj) == char_poly(t)
