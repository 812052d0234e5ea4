from fractions import Fraction
from random import Random

import pytest
from geometry_checks import hyperbolic
from test_kernel_oracles import flipped_frame

from g2kit.frames import cross
from g2kit.invariants import i1, i2, sigma2
from g2kit.liealg import heisenberg_model, koszul, scalar_curvature, torsion_endo
from g2kit.linalg import DIM, Mat7, Vec7
from g2kit.sampling import rand_mat, rand_symmetric, rand_vec, table_symmetries
from g2kit.so7 import cross_operator, decompose_endo, skew_to_vector
from g2kit.torsion import (
    VECTOR_CLASS_SCALING_NOTE,
    characteristic_vector,
    classify,
    curvature_integrand,
    hypersurface_identity_check,
    pure_vector_energy,
    torsion_energies,
)


def torsion_grid(t, frame):
    """The torsion by its definition: grid[i][j] = xi_{e_i} e_j = e_j x T(e_i),
    49 cross products."""
    cols = [t.column(j) for j in range(DIM)]
    return [[cross(Vec7.basis(j), cols[i], frame) for j in range(DIM)] for i in range(DIM)]


def slice_operator(xi, i):
    """The operator xi_{e_i} as the matrix with columns xi_{e_i} e_j."""
    return Mat7.from_columns(xi[i])


def trace_vector(xi):
    return sum((xi[i][i] for i in range(DIM)), Vec7.zero())


def test_torsion_tensor_structure(frame):
    rng = Random(0)
    t = rand_mat(rng)
    xi = torsion_grid(t, frame)
    for i in range(DIM):
        op = slice_operator(xi, i)
        assert op.is_skew()
        assert op == cross_operator(t.column(i), frame)
        assert skew_to_vector(op, frame) == t.column(i).scale(6)
        for j in range(DIM):
            assert xi[i][j] == cross(Vec7.basis(j), t.column(i), frame)
    assert trace_vector(xi) == characteristic_vector(t, frame)


def test_torsion_zero_and_identity(frame):
    assert all(v.is_zero() for row in torsion_grid(Mat7.zero(), frame) for v in row)
    xi = torsion_grid(Mat7.identity(), frame)
    for i in range(DIM):
        for j in range(DIM):
            assert xi[i][j] == cross(Vec7.basis(j), Vec7.basis(i), frame)


def test_heisenberg_slice():
    _, frame, t = heisenberg_model()
    xi = torsion_grid(t, frame)
    expected = cross_operator(Vec7.basis(1).scale(Fraction(1, 6)), frame)
    assert slice_operator(xi, 0) == expected


def test_chi_cases(frame):
    rng = Random(1)
    assert characteristic_vector(rand_symmetric(rng), frame).is_zero()
    from g2kit.sampling import rand_g2

    assert characteristic_vector(rand_g2(rng, frame), frame).is_zero()
    z = rand_vec(rng)
    assert characteristic_vector(cross_operator(z, frame), frame) == z.scale(-6)


def test_chi_vanishes_iff_vector_part_vanishes(frame):
    rng = Random(2)
    for _ in range(100):
        t = rand_mat(rng)
        chi = characteristic_vector(t, frame)
        vec = decompose_endo(t, frame).vector
        assert chi == vec.scale(-6)
        assert chi.is_zero() == vec.is_zero()


def test_classify_chi_is_minus_six_times_the_vector_part(frame):
    # chi = -p(T) and the vector part is p(T) / 6 on any skew eps table, so
    # the reports' chi holds on a sign-flipped triple too; -3 times the
    # vector part, the control, differs wherever chi is nonzero
    rng = Random(48)
    for target in (frame, flipped_frame(frame, 3)):
        samples = [rand_mat(rng) for _ in range(20)] + [cross_operator(rand_vec(rng), frame), Mat7.zero()]
        for t in samples:
            cls = classify(t, target)
            chi = characteristic_vector(t, target)
            assert cls.chi == chi
            assert (cls.split.vector.scale(-3) == chi) == chi.is_zero()


def test_energies(frame):
    assert torsion_energies(Mat7.zero(), frame) == (0, 0, 0)
    z = rand_vec(Random(3))
    chi_sq, alt_sq, sym_sq = torsion_energies(cross_operator(z, frame), frame)
    assert chi_sq + alt_sq - sym_sq == 54 * z.norm_sq()
    rng = Random(4)
    for _ in range(100):
        t = rand_mat(rng)
        chi_sq, alt_sq, sym_sq = torsion_energies(t, frame)
        assert chi_sq + alt_sq - sym_sq == i1(t, frame) - i2(t, frame)
        # sym and alt parts reconstruct xi: |xi|^2 = |sym|^2 + |alt|^2
        xi = torsion_grid(t, frame)
        xi_sq = sum(
            (xi[i][j].norm_sq() for i in range(DIM) for j in range(DIM)),
            Fraction(0),
        )
        assert xi_sq == alt_sq + sym_sq


def test_classify(frame):
    _, heis_frame, t_heis = heisenberg_model()
    assert sorted(classify(t_heis, heis_frame).flags) == ["X2"]
    z = rand_vec(Random(5))
    assert sorted(classify(cross_operator(z, frame), frame).flags) == ["X4"]
    mixed = Mat7.identity().scale(Fraction(2)) + cross_operator(z, frame)
    assert sorted(classify(mixed, frame).flags) == ["X1", "X4"]
    assert classify(Mat7.zero(), frame).flags == frozenset()


def test_integrand(frame):
    assert curvature_integrand(Mat7.zero(), frame) == 0
    lam = Fraction(3, 2)
    assert curvature_integrand(Mat7.identity().scale(lam), frame) == 63 * lam * lam
    s = rand_symmetric(Random(6))
    assert curvature_integrand(s, frame) == 3 * sigma2(s)
    _, heis_frame, t = heisenberg_model()
    assert curvature_integrand(t, heis_frame) == Fraction(-1, 6)


def test_integrand_invariant_under_table_symmetries(frame):
    rng = Random(7)
    t = rand_mat(rng)
    base = curvature_integrand(t, frame)
    for p in table_symmetries(frame, rng, 3):
        assert curvature_integrand(p @ t @ p.transpose(), frame) == base


def test_pointwise_prediction(frame):
    # s/6 = integrand - div chi; chi = 0 for the scalar shape and the
    # built-in model, so there s = 6 * integrand
    lam = Fraction(-2, 3)
    assert 6 * curvature_integrand(Mat7.identity().scale(lam), frame) == 378 * lam * lam
    _, heis_frame, t = heisenberg_model()
    assert 6 * curvature_integrand(t, heis_frame) == -1
    # the vector class: on H^7 (ad e_0 = I on the other six) chi = -2 e_0
    # and H = 6 e_0, so div chi = -<chi, H> = 12 and s = 6 (5 - 12) = -42,
    # which 6 * integrand alone misses
    mla = hyperbolic(0, 1)
    conn = koszul(mla)
    t = torsion_endo(conn, frame)
    chi = characteristic_vector(t, frame)
    assert chi == Vec7.basis(0).scale(-2)
    integrand, div_chi = curvature_integrand(t, frame), -chi.dot(mla.trace_vector())
    assert (integrand, div_chi, scalar_curvature(conn, mla)) == (5, 12, -42)
    assert 6 * (integrand - div_chi) == -42 != 6 * integrand


def test_hypersurface_identity(standard):
    rep = hypersurface_identity_check(Mat7.identity())
    assert rep.passed and rep.lhs == 2688 and rep.rhs == 2688
    rep = hypersurface_identity_check(Mat7.zero())
    assert rep.passed and rep.lhs == 0
    rep = hypersurface_identity_check(Mat7.diag([1, -1, 0, 0, 0, 0, 0]))
    assert rep.passed and rep.lhs == -128 and rep.rhs == -128
    rng = Random(9)
    for _ in range(100):
        s = rand_symmetric(rng)
        rep = hypersurface_identity_check(s)
        assert rep.passed
        assert rep.lhs == 128 * sigma2(s)
        # the expression is even, so both coupling signs agree
        assert hypersurface_identity_check(s.scale(-1)).lhs == rep.lhs
    with pytest.raises(ValueError):
        hypersurface_identity_check(cross_operator(Vec7.basis(0), standard))


def test_hypersurface_coupling_one_third_meets_the_gauss_equation(frame):
    # A hypersurface of flat R^8 with shape operator S has s = 2 sigma2(S)
    # (Gauss).  For symmetric T the vector class vanishes, so the paper's
    # s = 6 * integrand(T); T = +-S/3 meets the Gauss equation, in both
    # frames, while the library's 8/3 coupling gives 128 sigma2(S)
    third = Fraction(1, 3)
    # the round sphere of radius 2/3: S = (3/2) I, T = I/2, s = 189/2
    assert 6 * curvature_integrand(Mat7.identity().scale(Fraction(1, 2)), frame) == Fraction(189, 2)
    rng = Random(27)
    cases = []
    for _ in range(30):
        v = rand_vec(rng)
        # a generic S, and a rank-one S = v v^T with sigma2(S) = 0
        cases += [rand_symmetric(rng), Mat7(tuple(tuple(a * b for b in v) for a in v))]
    nonzero = 0
    for s in cases:
        gauss = 2 * sigma2(s)
        for sign in (1, -1):
            assert 6 * curvature_integrand(s.scale(sign * third), frame) == gauss
        # control: the 8/3 coupling's chain holds and misses Gauss unless sigma2(S) = 0
        rep = hypersurface_identity_check(s)
        assert rep.passed and rep.lhs == 6 * curvature_integrand(s.scale(Fraction(8, 3)), frame) == 128 * sigma2(s)
        assert (rep.lhs == gauss) == (gauss == 0)
        nonzero += gauss != 0
    assert nonzero == 30


def test_pure_vector_energy(frame):
    assert pure_vector_energy(Vec7.basis(1), frame) == 45
    assert pure_vector_energy(Vec7.zero(), frame) == 0
    assert pure_vector_energy(Vec7.basis(1).scale(2), frame) == 180
    rng = Random(10)
    for _ in range(50):
        z = rand_vec(rng)
        assert pure_vector_energy(z, frame) == 45 * z.norm_sq()
        assert (pure_vector_energy(z, frame) == 0) == z.is_zero()
