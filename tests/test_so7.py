from fractions import Fraction
from random import Random

import pytest

from g2kit.frames import cross
from g2kit.linalg import DIM, Mat7, Vec7, rank
from g2kit.sampling import rand_g2, rand_mat, rand_skew, rand_vec
from g2kit.so7 import (
    bracket_g2perp,
    cross_operator,
    decompose_endo,
    g2_basis,
    p_matrix,
    skew_basis_indices,
    skew_to_vector,
    split_so7,
)


def is_derivation_of_cross(a, frame):
    """Whether a(u x v) = a(u) x v + u x a(v) on all basis pairs: g2
    membership by its definition, independent of the eps contraction."""
    for i in range(DIM):
        ei = Vec7.basis(i)
        for j in range(DIM):
            ej = Vec7.basis(j)
            lhs = a @ cross(ei, ej, frame)
            rhs = cross(a @ ei, ej, frame) + cross(ei, a @ ej, frame)
            if lhs != rhs:
                return False
    return True


def endo_part_maps(t, frame):
    """The four projections of t as matrices (scalar, sym0, g2, vector)."""
    s = decompose_endo(t, frame)
    return (
        Mat7.identity().scale(s.scalar),
        s.sym0,
        s.g2part,
        cross_operator(s.vector, frame),
    )


def test_skewmat_validates(standard):
    # so(7) membership is checked where an outside matrix enters: is_skew on
    # Mat7 and the guard in split_so7
    assert not Mat7.identity().is_skew()
    assert Mat7.zero().is_skew()
    with pytest.raises(ValueError):
        split_so7(Mat7.identity(), standard)
    split_so7(Mat7.zero(), standard)


def test_cross_operator_action(frame):
    rng = Random(0)
    v = rand_vec(rng)
    a = cross_operator(v, frame)
    for i in range(DIM):
        assert a @ Vec7.basis(i) == cross(Vec7.basis(i), v, frame)
    assert (a @ v).is_zero()


def test_cross_operator_e3_standard(standard):
    # from eps_123 = +1 (labels): e1 x e3 = -e2
    a = cross_operator(Vec7.basis(2), standard)
    assert a @ Vec7.basis(0) == -Vec7.basis(1)


def test_p_of_cross_operator_is_6v(frame):
    rng = Random(1)
    for i in range(DIM):
        e = Vec7.basis(i)
        assert skew_to_vector(cross_operator(e, frame), frame) == e.scale(6)
    for _ in range(100):
        v = rand_vec(rng)
        assert skew_to_vector(cross_operator(v, frame), frame) == v.scale(6)


def test_p_rank_and_kernel_dimension(frame):
    pm = p_matrix(frame.table)
    assert rank(pm) == 7
    assert len(skew_basis_indices()) == 21
    assert len(g2_basis(frame)) == 14


def test_g2_basis_kernel_and_derivation_property(frame):
    for b in g2_basis(frame):
        assert b.is_skew()
        assert skew_to_vector(b, frame).is_zero()
        assert is_derivation_of_cross(b, frame)


def test_split_so7_cases(frame):
    rng = Random(2)
    z = rand_vec(rng)
    g2part, vec = split_so7(cross_operator(z, frame), frame)
    assert g2part.is_zero() and vec == z
    g = rand_g2(rng, frame)
    g2part, vec = split_so7(g, frame)
    assert vec.is_zero() and g2part == g


def test_split_so7_random_roundtrip(frame):
    rng = Random(3)
    for _ in range(100):
        a = rand_skew(rng)
        g2part, vec = split_so7(a, frame)
        a_v = cross_operator(vec, frame)
        assert g2part + a_v == a
        assert (g2part.transpose() @ a_v).trace() == 0
        assert skew_to_vector(g2part, frame).is_zero()
        # idempotent: splitting the parts again changes nothing
        assert split_so7(g2part, frame)[1].is_zero()
        assert split_so7(a_v, frame)[1] == vec


def test_split_rejects_non_skew(frame):
    with pytest.raises(ValueError):
        split_so7(Mat7.identity(), frame)
    # one diagonal entry is enough to leave so(7)
    with pytest.raises(ValueError):
        split_so7(cross_operator(Vec7.basis(0), frame) + Mat7.diag([1, 0, 0, 0, 0, 0, 0]), frame)
    assert split_so7(Mat7.zero(), frame) == (Mat7.zero(), Vec7.zero())


def test_so7_outputs_are_skew(frame):
    # cross operators, brackets and g2 parts are plain Mat7 values; their
    # skewness is an invariant of the kernels, not a run-time check
    rng = Random(7)
    for _ in range(30):
        u, v = rand_vec(rng), rand_vec(rng)
        assert cross_operator(u, frame).is_skew()
        assert bracket_g2perp(u, v, frame).is_skew()
        g2_of_skew = split_so7(rand_skew(rng), frame)[0]
        g2_of_endo = decompose_endo(rand_mat(rng), frame).g2part
        for g2part in (g2_of_skew, g2_of_endo):
            assert g2part.is_skew()
            assert skew_to_vector(g2part, frame).is_zero()


def test_bracket_projection_identity(frame):
    rng = Random(4)
    u = rand_vec(rng)
    assert bracket_g2perp(u, u, frame).is_zero()
    for _ in range(200):
        u, v = rand_vec(rng), rand_vec(rng)
        au = cross_operator(u, frame)
        av = cross_operator(v, frame)
        comm = au @ av - av @ au
        got = bracket_g2perp(u, v, frame)
        assert got == cross_operator(cross(u, v, frame), frame)
        _, w = split_so7(comm, frame)
        assert w == cross(u, v, frame)
        assert skew_to_vector(comm, frame) == cross(u, v, frame).scale(6)


def test_bracket_e1e2_standard(standard):
    got = bracket_g2perp(Vec7.basis(0), Vec7.basis(1), standard)
    assert got == cross_operator(Vec7.basis(2), standard)


def test_decompose_endo_special_inputs(frame):
    split = decompose_endo(Mat7.identity(), frame)
    assert split.scalar == 1
    assert split.sym0.is_zero() and split.g2part.is_zero() and split.vector.is_zero()
    z = rand_vec(Random(5))
    split = decompose_endo(cross_operator(z, frame), frame)
    assert split.scalar == 0 and split.sym0.is_zero() and split.g2part.is_zero()
    assert split.vector == z


def test_decompose_endo_random(frame):
    rng = Random(6)
    for _ in range(60):
        t = rand_mat(rng)
        split = decompose_endo(t, frame)
        assert split.reconstruct(frame) == t
        assert split.sym0.is_symmetric()
        assert split.sym0.trace() == 0
        assert skew_to_vector(split.g2part, frame).is_zero()
        parts = endo_part_maps(t, frame)
        for a in range(4):
            for b in range(a + 1, 4):
                assert (parts[a].transpose() @ parts[b]).trace() == 0
        norms = split.part_norms_sq()
        assert norms[3] == 6 * split.vector.norm_sq()
        assert sum(norms, Fraction(0)) == t.norm_sq()


def test_part_maps_projection_quadruple(frame):
    # idempotent, pairwise annihilating, summing to the identity on End(R^7)
    for i in range(DIM):
        for j in range(DIM):
            basis_mat = Mat7(
                [[Fraction(1 if (r, c) == (i, j) else 0) for c in range(DIM)] for r in range(DIM)]
            )
            parts = endo_part_maps(basis_mat, frame)
            total = parts[0] + parts[1] + parts[2] + parts[3]
            assert total == basis_mat
            for a in range(4):
                again = endo_part_maps(parts[a], frame)
                assert again[a] == parts[a]
                for b in range(4):
                    if b != a:
                        assert again[b].is_zero()


def test_part_dimensions_by_rank(frame):
    # matrices of the four projections on the 49-dimensional space End(R^7)
    mats = [[], [], [], []]
    for i in range(DIM):
        for j in range(DIM):
            basis_mat = Mat7(
                [[Fraction(1 if (r, c) == (i, j) else 0) for c in range(DIM)] for r in range(DIM)]
            )
            parts = endo_part_maps(basis_mat, frame)
            for a in range(4):
                mats[a].append([parts[a].entries[r][c] for r in range(DIM) for c in range(DIM)])
    dims = [rank(m) for m in mats]
    assert dims == [1, 27, 14, 7]
