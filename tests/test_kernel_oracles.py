"""The integer kernels against the Fraction formulas they replaced.

Each reference below is the earlier Fraction implementation, copied here
unchanged in substance, so the integer routes are held to an independent
oracle: the endomorphism split, the so(7) split, the characteristic vector
and the cross-product axiom checks.
"""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from g2kit.frames import CrossTable, G2Frame, _triple_failure, cross, validate_cross_axioms
from g2kit.linalg import DIM, Mat7, Vec7, integer_vector
from g2kit.sampling import rand_mat, rand_skew, rand_symmetric, rand_vec
from g2kit.so7 import cross_operator, decompose_endo, split_so7
from g2kit.torsion import characteristic_vector


def ref_split_so7(m: Mat7, frame) -> tuple[Mat7, Vec7]:
    v = Vec7(tuple(frame.table.contract(m.entries))).scale(Fraction(1, 6))
    return Mat7(m.entries) - Mat7.from_rows(frame.table.cross_rows(v)), v


def ref_decompose_endo(t: Mat7, frame) -> tuple[Fraction, Mat7, Mat7, Vec7]:
    scalar = t.trace() / 7
    sym0 = t.symmetric_part() - Mat7.identity().scale(scalar)
    g2part, vector = ref_split_so7(t.skew_part(), frame)
    return scalar, sym0, g2part, vector


def ref_characteristic_vector(t: Mat7, frame) -> Vec7:
    acc = Vec7.zero()
    for i in range(DIM):
        acc = acc + cross(Vec7.basis(i), t.column(i), frame)
    return acc


def ref_triple_failure(frame, u: Vec7, v: Vec7, w: Vec7) -> str | None:
    uv = cross(u, v, frame)
    vw = cross(v, w, frame)
    if uv.dot(w) != u.dot(vw):
        return "rule1"
    uw = cross(u, w, frame)
    if cross(u, uw, frame) != u.scale(u.dot(w)) - w.scale(u.norm_sq()):
        return "rule2"
    rhs3 = -cross(v, uw, frame) + v.scale(u.dot(w)) + u.scale(v.dot(w)) - w.scale(2 * u.dot(v))
    if cross(u, vw, frame) != rhs3:
        return "rule3"
    return None


def ref_validate_cross_axioms(frame, seed: int, trials: int) -> tuple[tuple, tuple]:
    failures = []
    basis_cases = 0
    for i, j, k in product(range(DIM), repeat=3):
        basis_cases += 1
        rule = ref_triple_failure(frame, Vec7.basis(i), Vec7.basis(j), Vec7.basis(k))
        if rule:
            failures.append(f"{rule} fails on basis ({i},{j},{k})")
            break
    rng = Random(seed)
    random_cases = 0
    if not failures:
        for t in range(trials):
            u, v, w = rand_vec(rng), rand_vec(rng), rand_vec(rng)
            random_cases += 1
            rule = ref_triple_failure(frame, u, v, w)
            if rule:
                failures.append(f"{rule} fails on seeded trial {t}")
                break
    return (("basis_triples", basis_cases), ("seeded_triples", random_cases)), tuple(failures)


def wide_fraction(rng: Random) -> Fraction:
    return Fraction(rng.randint(-(2**17), 2**17), rng.randint(1, 2**17))


def seeded_matrices(seed: int) -> list[Mat7]:
    """Dense, symmetric, skew and cross-operator shapes with small (<= 9)
    and 17-bit denominators."""
    rng = Random(seed)
    mats = []
    for _ in range(4):
        mats += [rand_mat(rng), rand_symmetric(rng), rand_skew(rng)]
        wide = Mat7(tuple(tuple(wide_fraction(rng) for _ in range(DIM)) for _ in range(DIM)))
        mats += [wide, wide - wide.transpose(), wide + wide.transpose()]
    mats += [Mat7.zero(), Mat7.identity().scale(Fraction(-5, 3))]
    return mats


def flipped_frame(frame: G2Frame, index: int) -> G2Frame:
    """The frame's table with the sign of one base triple flipped."""
    triples = list(frame.table.base_triples)
    i, j, k, s = triples[index]
    triples[index] = (i, j, k, -s)
    return G2Frame.from_table(CrossTable(tuple(triples), frame.table.label_offset))


@pytest.mark.parametrize("seed", [0, 1])
def test_decompose_endo_matches_fraction_route(frame, seed):
    for t in seeded_matrices(seed):
        split = decompose_endo(t, frame)
        scalar, sym0, g2part, vector = ref_decompose_endo(t, frame)
        assert (split.scalar, split.sym0, split.g2part.mat, split.vector) == (scalar, sym0, g2part, vector)
        assert split.reconstruct(frame) == t


@pytest.mark.parametrize("seed", [0, 1])
def test_split_so7_matches_fraction_route(frame, seed):
    rng = Random(seed)
    skews = [m for m in seeded_matrices(seed) if m.is_skew()]
    skews += [cross_operator(rand_vec(rng), frame).mat for _ in range(3)]
    for a in skews:
        g2part, vector = split_so7(a, frame)
        assert (g2part.mat, vector) == ref_split_so7(a, frame)
    with pytest.raises(ValueError):
        split_so7(Mat7.identity(), frame)


@pytest.mark.parametrize("seed", [0, 1])
def test_characteristic_vector_matches_fraction_route(frame, seed):
    for t in seeded_matrices(seed):
        assert characteristic_vector(t, frame) == ref_characteristic_vector(t, frame)


@pytest.mark.parametrize("flip", [None, 0, 4])
def test_triple_check_matches_fraction_route(frame, flip):
    target = frame if flip is None else flipped_frame(frame, flip)
    rng = Random(11)
    outcomes = set()
    for _ in range(150):
        u, v, w = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        expected = ref_triple_failure(target, u, v, w)
        scaled = [integer_vector(x)[0] for x in (u, v, w)]
        assert _triple_failure(target.table, *scaled) == expected
        outcomes.add(expected)
    # a valid table passes every triple; a corrupted one fails some
    assert (outcomes == {None}) == (flip is None)


@pytest.mark.parametrize("flip", [None, 0, 4])
@pytest.mark.parametrize("seed", [0, 7])
def test_validate_cross_axioms_matches_fraction_route(frame, flip, seed):
    target = frame if flip is None else flipped_frame(frame, flip)
    rep = validate_cross_axioms(target, seed=seed, trials=25)
    assert (rep.counts, rep.failures) == ref_validate_cross_axioms(target, seed, 25)
    assert rep.passed == (flip is None)
