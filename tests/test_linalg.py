from fractions import Fraction
from random import Random

import pytest
from geometry_checks import solve_columns

from g2kit.linalg import (
    DIM,
    Mat7,
    Vec7,
    det,
    int_matmul,
    integer_rows,
    nullspace,
    principal_minor_sum,
    rank,
    rref,
)
from g2kit.sampling import rand_fraction, rand_mat, rand_vec


def test_vec_arithmetic():
    u = Vec7.of(1, 2, 3, 4, 5, 6, 7)
    v = Vec7.basis(2)
    assert (u + v)[2] == 4
    assert (u - u).is_zero()
    assert u.scale(Fraction(1, 2))[0] == Fraction(1, 2)
    assert u.dot(v) == 3
    assert Vec7.zero().norm_sq() == 0


@pytest.mark.parametrize("index", [-1, 7, 10])
def test_basis_names_an_index_outside_the_frame(index):
    with pytest.raises(ValueError, match=rf"^index {index} is outside 0\.\.6$"):
        Vec7.basis(index)


def test_vec_rejects_floats():
    with pytest.raises(TypeError):
        Vec7.of(0.5, 0, 0, 0, 0, 0, 0)


def test_dot_positive_definite():
    rng = Random(3)
    for _ in range(50):
        v = rand_vec(rng)
        assert v.norm_sq() >= 0
        assert (v.norm_sq() == 0) == v.is_zero()


def test_mat_compose_associative_and_transpose_involution():
    rng = Random(1)
    a, b, c = rand_mat(rng), rand_mat(rng), rand_mat(rng)
    assert (a @ b) @ c == a @ (b @ c)
    assert a.transpose().transpose() == a
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_trace_invariant_under_signed_permutation_conjugation():
    rng = Random(2)
    a = rand_mat(rng)
    # signed permutation: orthogonal, so conjugation preserves the trace
    perm = [3, 0, 6, 1, 5, 2, 4]
    signs = [1, -1, 1, 1, -1, -1, 1]
    rows = [[Fraction(0)] * DIM for _ in range(DIM)]
    for i in range(DIM):
        rows[perm[i]][i] = Fraction(signs[i])
    p = Mat7(rows)
    assert p @ p.transpose() == Mat7.identity()
    assert (p @ a @ p.transpose()).trace() == a.trace()


def test_matvec_column_convention():
    rng = Random(4)
    m = rand_mat(rng)
    for j in range(DIM):
        assert m @ Vec7.basis(j) == m.column(j)


def test_rref_rank_nullspace():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    assert rank(rows) == 2
    ns = nullspace(rows)
    assert len(ns) == 1
    x = ns[0]
    for row in rows:
        assert sum(r * c for r, c in zip(row, x)) == 0


def test_solve_consistent_and_inconsistent():
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    assert solve_columns((rows, 1), [[3, 1]]) == [[2, 1]]
    # rows / d: the same system over the denominator 2
    assert solve_columns(([[2, 2], [2, -2]], 2), [[3, 1], [0, 2]]) == [[2, 1], [1, -1]]
    rows_bad = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve_columns((rows_bad, 1), [[1, 3]]) is None
    # one inconsistent right-hand side makes the whole solve None
    assert solve_columns((rows_bad, 1), [[1, 2], [1, 3]]) is None


def reference_solve(rows, rhs):
    """Reduce [A | b] once per right-hand side and read x off the pivots."""
    ncols = len(rows[0])
    reduced, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols]
    return x


def seeded_system(shape: str) -> list[list[Fraction]]:
    rng = Random(sum(map(ord, shape)))
    if shape == "square":
        return [[rand_fraction(rng) for _ in range(DIM)] for _ in range(DIM)]
    if shape == "overdetermined-35":
        return [[rand_fraction(rng) for _ in range(DIM)] for _ in range(35)]
    # rank 4: twelve combinations of four random rows, nine columns, one zero row
    base = [[rand_fraction(rng) for _ in range(9)] for _ in range(4)]
    rows = []
    for _ in range(11):
        coeffs = [rand_fraction(rng, 3, 2) for _ in base]
        rows.append([sum((c * b[k] for c, b in zip(coeffs, base)), Fraction(0)) for k in range(9)])
    return rows + [[Fraction(0)] * 9]


@pytest.mark.parametrize("shape", ["square", "overdetermined-35", "rank-deficient"])
def test_linear_system_matches_reference_solve(shape):
    rows = seeded_system(shape)
    rng = Random(5)
    inconsistent = 0
    images = []
    for _ in range(5):
        x0 = [rand_fraction(rng) for _ in rows[0]]
        image = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
        arbitrary = [rand_fraction(rng) for _ in rows]
        for rhs in (image, arbitrary, [Fraction(0)] * len(rows)):
            expected = reference_solve(rows, rhs)
            assert solve_columns((rows, 1), [rhs]) == (None if expected is None else [expected])
            inconsistent += expected is None
        images.append(image)
    # one reduction for all the consistent right-hand sides reads the same solutions
    assert solve_columns((rows, 1), images) == [reference_solve(rows, b) for b in images]
    # random right-hand sides are inconsistent unless A has full row rank
    assert (inconsistent > 0) == (shape != "square")


def test_det_matches_minor_expansion():
    rng = Random(6)
    m = rand_mat(rng)
    assert principal_minor_sum(m, DIM) == det([list(r) for r in m.entries])
    assert principal_minor_sum(m, 1) == m.trace()


def test_integer_rows_roundtrip():
    rng = Random(7)
    m = rand_mat(rng)
    rows, d = integer_rows(m)
    for i in range(DIM):
        for j in range(DIM):
            assert Fraction(rows[i][j], d) == m.entries[i][j]
    a, da = integer_rows(m)
    prod = int_matmul(a, a)
    mm = m @ m
    for i in range(DIM):
        for j in range(DIM):
            assert Fraction(prod[i][j], da * da) == mm.entries[i][j]
