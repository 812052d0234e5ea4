"""Mat7 as an integer grid over one denominator, held to plain Fraction grids.

Every operation is compared with the same operation written out on lists
of ``Fraction`` entries, on seeded matrices with small (<= 9) and 17-bit
denominators, and every result is checked to be in canonical form.
"""

import copy
import pickle
from fractions import Fraction
from itertools import chain
from math import gcd
from random import Random

import pytest

from g2kit.linalg import DIM, Mat7, Vec7, frobenius, integer_columns, integer_rows

SEEDS = [0, 1, 2]


def small_fraction(rng: Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def wide_fraction(rng: Random) -> Fraction:
    return Fraction(rng.randint(-(2**17), 2**17), rng.randint(1, 2**17))


def grids(seed: int) -> list[list[list[Fraction]]]:
    """Dense, symmetric, skew, diagonal, integral and zero grids of both sizes."""
    rng = Random(seed)
    out = []
    for draw in (small_fraction, wide_fraction):
        dense = [[draw(rng) for _ in range(DIM)] for _ in range(DIM)]
        sym = [[dense[i][j] + dense[j][i] for j in range(DIM)] for i in range(DIM)]
        skew = [[dense[i][j] - dense[j][i] for j in range(DIM)] for i in range(DIM)]
        diag = [[draw(rng) if i == j else Fraction(0) for j in range(DIM)] for i in range(DIM)]
        out += [dense, sym, skew, diag]
    out.append([[Fraction(rng.randint(-5, 5)) for _ in range(DIM)] for _ in range(DIM)])
    out.append([[Fraction(0)] * DIM for _ in range(DIM)])
    return out


def vectors(seed: int) -> list[list[Fraction]]:
    rng = Random(seed + 100)
    return [[draw(rng) for _ in range(DIM)] for draw in (small_fraction, wide_fraction)] + [[Fraction(0)] * DIM]


def assert_canonical(m: Mat7) -> None:
    rows, d = integer_rows(m)
    assert type(d) is int and d > 0
    assert all(type(x) is int for x in chain.from_iterable(rows))
    assert gcd(d, *chain.from_iterable(rows)) == 1


def same(m: Mat7, grid) -> bool:
    assert_canonical(m)
    return [list(row) for row in m.entries] == [list(row) for row in grid]


def ref_transpose(a):
    return [[a[j][i] for j in range(DIM)] for i in range(DIM)]


def ref_matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(DIM)), Fraction(0)) for j in range(DIM)] for i in range(DIM)]


@pytest.mark.parametrize("seed", SEEDS)
def test_construction_is_canonical_and_matches_entries(seed):
    for g in grids(seed):
        m = Mat7(g)
        assert same(m, g)
        rows, d = integer_rows(m)
        # the denominator is the least common denominator of the entries
        assert all(d % x.denominator == 0 for x in chain.from_iterable(g))
        assert [[Fraction(x, d) for x in row] for row in rows] == g
        cols, dc = integer_columns(m)
        assert dc == d and [list(c) for c in cols] == [list(r) for r in zip(*rows)]
        assert all(m[i, j] == g[i][j] for i in range(DIM) for j in range(DIM))
        assert [list(v) for v in m.columns()] == ref_transpose(g)


@pytest.mark.parametrize("seed", SEEDS)
def test_from_ints_equals_fraction_construction(seed):
    rng = Random(seed)
    for g in grids(seed):
        m = Mat7(g)
        rows, d = integer_rows(m)
        for k in (1, 6, -1, -35, rng.randint(2, 2**20)):
            scaled = [[k * x for x in row] for row in rows]
            n = Mat7.from_ints(scaled, k * d)
            assert n == m and hash(n) == hash(m)
            assert integer_rows(n) == integer_rows(m)
            assert_canonical(n)
    # a grid with common factors and a negative denominator
    n = Mat7.from_ints([[6 * (i - j) for j in range(DIM)] for i in range(DIM)], -4)
    assert n == Mat7([[Fraction(3 * (j - i), 2) for j in range(DIM)] for i in range(DIM)])
    assert integer_rows(n)[1] == 2
    assert Mat7.from_ints([[0] * DIM] * DIM, -7) == Mat7.zero()
    assert integer_rows(Mat7.zero()) == (((0,) * DIM,) * DIM, 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_operations_match_fraction_reference(seed):
    gs = grids(seed)
    rng = Random(seed)
    for a, b in zip(gs, gs[1:] + gs[:1]):
        ma, mb = Mat7(a), Mat7(b)
        s = wide_fraction(rng) if rng.random() < 0.5 else small_fraction(rng)
        assert same(ma + mb, [[x + y for x, y in zip(r, q)] for r, q in zip(a, b)])
        assert same(ma - mb, [[x - y for x, y in zip(r, q)] for r, q in zip(a, b)])
        assert same(ma - ma, [[Fraction(0)] * DIM for _ in range(DIM)])
        assert same(-ma, [[-x for x in r] for r in a])
        assert same(ma.scale(s), [[s * x for x in r] for r in a])
        assert same(s * ma, [[s * x for x in r] for r in a])
        assert same(ma.scale(3), [[3 * x for x in r] for r in a])
        assert same(ma.scale(0), [[Fraction(0)] * DIM for _ in range(DIM)])
        assert same(ma @ mb, ref_matmul(a, b))
        assert same(ma.transpose(), ref_transpose(a))
        at = ref_transpose(a)
        assert same(ma.symmetric_part(), [[(x + y) / 2 for x, y in zip(r, q)] for r, q in zip(a, at)])
        assert same(ma.skew_part(), [[(x - y) / 2 for x, y in zip(r, q)] for r, q in zip(a, at)])
        assert ma.trace() == sum((a[i][i] for i in range(DIM)), Fraction(0))
        assert ma.is_symmetric() == (a == at)
        assert ma.is_skew() == all(a[i][j] == -a[j][i] for i in range(DIM) for j in range(DIM))
        assert ma.is_zero() == all(x == 0 for x in chain.from_iterable(a))
        assert ma.norm_sq() == sum((x * x for x in chain.from_iterable(a)), Fraction(0))
        assert frobenius(ma, mb) == sum((x * y for x, y in zip(chain(*a), chain(*b))), Fraction(0))
        assert (ma == mb) == (a == b)
        for v in vectors(seed):
            expected = [sum((a[i][j] * v[j] for j in range(DIM)), Fraction(0)) for i in range(DIM)]
            assert list(ma @ Vec7(tuple(v))) == expected


def test_shapes_and_predicates_on_known_matrices():
    assert Mat7.identity().is_symmetric() and not Mat7.identity().is_skew()
    assert Mat7.zero().is_skew() and Mat7.zero().is_symmetric() and Mat7.zero().is_zero()
    assert Mat7.identity() @ Mat7.identity() == Mat7.identity()
    assert Mat7.diag(range(DIM)).trace() == 21
    assert Mat7([[Fraction(i * j, 3) for j in range(DIM)] for i in range(DIM)]).is_symmetric()


def test_floats_rejected():
    grid = [[Fraction(0)] * DIM for _ in range(DIM)]
    grid[2][3] = 0.5
    with pytest.raises(TypeError):
        Mat7(grid)
    with pytest.raises(TypeError):
        Mat7.from_ints([[0.5] * DIM for _ in range(DIM)], 1)
    with pytest.raises(TypeError):
        Mat7.from_ints([[1] * DIM for _ in range(DIM)], 2.0)
    with pytest.raises(TypeError):
        Mat7.identity().scale(0.5)
    with pytest.raises(TypeError):
        Mat7.diag([0.5] * DIM)


def test_malformed_grids_rejected():
    with pytest.raises(ValueError):
        Mat7([[Fraction(0)] * DIM] * (DIM - 1))
    with pytest.raises(ValueError):
        Mat7.from_ints([[0] * (DIM + 1)] * DIM, 1)
    with pytest.raises(ZeroDivisionError):
        Mat7.from_ints([[0] * DIM] * DIM, 0)


def test_immutable():
    m = Mat7(grids(0)[0])
    before = integer_rows(m)
    for name in ("entries", "_rows", "_den", "_entries", "other"):
        with pytest.raises(AttributeError):
            setattr(m, name, None)
    with pytest.raises(AttributeError):
        del m._den
    assert integer_rows(m) == before


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    for g in grids(1):
        m = Mat7(g)
        back = pickle.loads(pickle.dumps(m, protocol))
        assert back == m and hash(back) == hash(m)
        assert back.entries == m.entries
        assert_canonical(back)


def test_copy_and_deepcopy_round_trip():
    for g in grids(2):
        m = Mat7(g)
        for dup in (copy.copy(m), copy.deepcopy(m), copy.deepcopy([m, m])[0]):
            assert dup == m and hash(dup) == hash(m)
            assert dup.entries == m.entries


def test_repr_rebuilds_the_matrix():
    m = Mat7(grids(0)[4])
    assert eval(repr(m), {"Mat7": Mat7}) == m
