"""Mat7 as an integer grid over one denominator, held to plain Fraction grids.

Every operation is compared with the same operation written out on lists
of ``Fraction`` entries, on seeded matrices with small (<= 9) and 17-bit
denominators, and every result is checked to be in canonical form.  The
immutability, pickling, copying, ``repr`` and lowest-terms checks also run
on the other values of the same integer-grid base: ``Vec7``, metric Lie
algebras and their Koszul connections.  The linear structure the base
gives every grid type (``Vec7``, ``Mat7``, ``KForm`` of each degree,
algebras and connections) is held to the same operations on the
``Fraction`` views.
"""

import copy
import pickle
from fractions import Fraction
from itertools import chain
from math import gcd
from random import Random

import pytest

from g2kit.forms import KForm, all_increasing_tuples
from g2kit.frames import build_cayley_frame, build_standard_frame, cross
from g2kit.liealg import ConnectionTable, MetricLieAlgebra, heisenberg_model, koszul
from g2kit.linalg import DIM, Mat7, Vec7, integer_columns, integer_coords
from g2kit.sampling import rand_two_step_nilpotent
from g2kit.torsion import characteristic_vector

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


# each value type of the integer-grid base and the name of its view
VIEWS = {
    Mat7: "entries",
    Vec7: "coords",
    MetricLieAlgebra: "brackets",
    ConnectionTable: "gamma",
}


def leaves(grid) -> list:
    """The entries of a nested tuple or list grid, in order."""
    return [y for x in grid for y in leaves(x)] if isinstance(grid, (tuple, list)) else [grid]


def assert_canonical(x) -> None:
    """The stored grid, the one ``from_ints`` rebuilds x from, has integer
    entries over a positive denominator sharing no factor with them."""
    *_, grid, d = x.__reduce__()[1]
    entries = leaves(grid)
    assert type(d) is int and d > 0
    assert all(type(v) is int for v in entries)
    assert gcd(d, *entries) == 1


def grid_values(seed: int) -> list:
    """A Mat7, a Vec7, a seeded metric Lie algebra and its Koszul connection."""
    mla = rand_two_step_nilpotent(Random(seed))
    return [Mat7(grids(seed)[0]), Vec7(tuple(vectors(seed)[1])), mla, koszul(mla)]


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
        rows, d = integer_coords(m)
        # the denominator is the least common denominator of the entries
        assert all(d % x.denominator == 0 for x in chain.from_iterable(g))
        assert [[Fraction(x, d) for x in row] for row in rows] == g
        cols, dc = integer_columns(m)
        assert dc == d and [list(c) for c in cols] == [list(r) for r in zip(*rows)]
        assert all(m[i, j] == g[i][j] for i in range(DIM) for j in range(DIM))
        assert [list(m.column(j)) for j in range(DIM)] == ref_transpose(g)


@pytest.mark.parametrize("seed", SEEDS)
def test_from_ints_equals_fraction_construction(seed):
    rng = Random(seed)
    for g in grids(seed):
        m = Mat7(g)
        rows, d = integer_coords(m)
        for k in (1, 6, -1, -35, rng.randint(2, 2**20)):
            scaled = [[k * x for x in row] for row in rows]
            n = Mat7.from_ints(scaled, k * d)
            assert n == m and hash(n) == hash(m)
            assert integer_coords(n) == integer_coords(m)
            assert_canonical(n)
    # a grid with common factors and a negative denominator
    n = Mat7.from_ints([[6 * (i - j) for j in range(DIM)] for i in range(DIM)], -4)
    assert n == Mat7([[Fraction(3 * (j - i), 2) for j in range(DIM)] for i in range(DIM)])
    assert integer_coords(n)[1] == 2
    assert Mat7.from_ints([[0] * DIM] * DIM, -7) == Mat7.zero()
    assert integer_coords(Mat7.zero()) == (((0,) * DIM,) * DIM, 1)


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
        assert ma.trace() == sum((a[i][i] for i in range(DIM)), Fraction(0))
        assert ma.is_symmetric() == (a == at)
        assert ma.is_skew() == all(a[i][j] == -a[j][i] for i in range(DIM) for j in range(DIM))
        assert ma.is_zero() == all(x == 0 for x in chain.from_iterable(a))
        assert ma.norm_sq() == sum((x * x for x in chain.from_iterable(a)), Fraction(0))
        assert (ma == mb) == (a == b)
        for v in vectors(seed):
            expected = [sum((a[i][j] * v[j] for j in range(DIM)), Fraction(0)) for i in range(DIM)]
            assert list(ma @ Vec7(tuple(v))) == expected


def fraction_grid(rng: Random, shape: tuple) -> list:
    """A nested list of the shape, about a third of its entries zero and
    the rest small or 17-bit fractions."""
    if not shape:
        return Fraction(0) if rng.random() < 0.3 else (small_fraction if rng.random() < 0.5 else wide_fraction)(rng)
    return [fraction_grid(rng, shape[1:]) for _ in range(shape[0])]


def antisymmetric(c: list) -> list:
    """The brackets of c above the diagonal, filled in below it."""
    zero = [Fraction(0)] * DIM
    return [[c[i][j] if i < j else [-x for x in c[j][i]] if i > j else zero for j in range(DIM)] for i in range(DIM)]


def form_type(k: int) -> tuple:
    """The k-forms as an entry of GRID_TYPES: the view is the list of
    coefficients on the increasing monomials."""
    keys = all_increasing_tuples(k)
    return f"KForm{k}", (len(keys),), lambda xs: KForm(k, dict(zip(keys, xs))), lambda f: list(map(f.coeff, keys))


def vector_grid(grid) -> list:
    """A 7x7 grid of ``Vec7``s as nested lists of their coordinates."""
    return [[list(v) for v in row] for row in grid]


# each grid type as (name, the shape of its Fraction view, the value of a
# view, the view of a value)
GRID_TYPES = [
    ("Vec7", (DIM,), Vec7, lambda v: list(v.coords)),
    ("Mat7", (DIM, DIM), Mat7, lambda m: [list(r) for r in m.entries]),
    *map(form_type, range(DIM + 1)),
    ("MetricLieAlgebra", (DIM, DIM, DIM), lambda c: MetricLieAlgebra(antisymmetric(c)), lambda a: vector_grid(a.brackets)),
    ("ConnectionTable", (DIM, DIM, DIM), ConnectionTable, lambda g: vector_grid(g.gamma)),
]


def zipped(f, a, b):
    """The nested lists a and b combined entry by entry with f."""
    return [zipped(f, x, y) for x, y in zip(a, b)] if isinstance(a, list) else f(a, b)


def times(k: int, grid):
    """The nested tuple grid with every entry times k."""
    return tuple(times(k, g) for g in grid) if isinstance(grid, tuple) else k * grid


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", GRID_TYPES, ids=[t[0] for t in GRID_TYPES])
def test_linear_structure_matches_fraction_reference(kind, seed):
    _, shape, build, view = kind
    rng = Random(seed)
    xs = [build(fraction_grid(rng, shape)) for _ in range(3)]
    xs.append(xs[0] - xs[0])
    for a, b in zip(xs, xs[1:] + xs[:1]):
        ra, rb = view(a), view(b)
        s = wide_fraction(rng) if rng.random() < 0.5 else small_fraction(rng)
        results = [
            (a + b, zipped(lambda x, y: x + y, ra, rb)),
            (a - b, zipped(lambda x, y: x - y, ra, rb)),
            (-a, zipped(lambda x, _: -x, ra, ra)),
            (a.scale(s), zipped(lambda x, _: s * x, ra, ra)),
            (s * a, zipped(lambda x, _: s * x, ra, ra)),
            (a * 3, zipped(lambda x, _: 3 * x, ra, ra)),
            (a.scale(0), zipped(lambda x, _: 0 * x, ra, ra)),
        ]
        for got, want in results:
            assert type(got) is type(a)
            assert view(got) == want
            assert_canonical(got)
            # in lowest terms: from_ints over k times the denominator
            # builds a value equal to it, with the same hash
            build_ints, args = got.__reduce__()
            *head, grid, d = args
            for k in (2, 6, rng.randint(2, 2**20)):
                again = build_ints(*head, times(k, grid), k * d)
                assert again == got
                if type(got).__hash__ is not None:
                    assert hash(again) == hash(got)
        assert a.is_zero() == all(x == 0 for x in leaves(ra))
        assert a.norm_sq() == sum((x * x for x in leaves(ra)), Fraction(0))
        assert (a == b) == (ra == rb)
    assert xs[-1].is_zero() and xs[-1].norm_sq() == 0


def test_linear_structure_rejects_mixed_types_and_floats():
    values = [Vec7.basis(0), Mat7.identity(), KForm(1, {(0,): 1}), heisenberg_model()[0], koszul(heisenberg_model()[0])]
    for a in values:
        for b in values:
            if type(a) is not type(b):
                with pytest.raises(TypeError):
                    a + b
                with pytest.raises(TypeError):
                    a - b
        for s in (0.5, 1.0, "2"):
            with pytest.raises(TypeError):
                a.scale(s)
            with pytest.raises(TypeError):
                a * s
    for j, k in ((3, 4), (2, 5), (0, 7), (1, 2)):
        a, b = KForm(j, {}), KForm(k, {})
        # degrees k and 7 - k have the same number of coordinates
        for op in (lambda: a + b, lambda: a - b, lambda: b + a):
            with pytest.raises(ValueError, match="cannot add forms of different degree"):
                op()


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
    for x in grid_values(0):
        view = VIEWS[type(x)]
        before = repr(x)
        for name in (view, "_grid", "_den", "_view", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
        with pytest.raises(AttributeError):
            del x._den
        getattr(x, view)
        assert repr(x) == before


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    for x in [Mat7(g) for g in grids(1)] + grid_values(1):
        back = pickle.loads(pickle.dumps(x, protocol))
        assert type(back) is type(x)
        assert back == x and hash(back) == hash(x)
        view = VIEWS[type(x)]
        assert getattr(back, view) == getattr(x, view)
        assert_canonical(back)


def test_copy_and_deepcopy_round_trip():
    for x in [Mat7(g) for g in grids(2)] + grid_values(2):
        view = VIEWS[type(x)]
        for dup in (copy.copy(x), copy.deepcopy(x), copy.deepcopy([x, x])[0]):
            assert type(dup) is type(x)
            assert dup == x and hash(dup) == hash(x)
            assert getattr(dup, view) == getattr(x, view)


def test_repr_rebuilds_the_matrix():
    namespace = {cls.__name__: cls for cls in VIEWS}
    for x in [Mat7(grids(0)[4])] + grid_values(0):
        assert eval(repr(x), namespace) == x


@pytest.mark.parametrize("seed", SEEDS)
def test_results_are_in_lowest_terms(seed):
    rng = Random(seed)
    algebras = [rand_two_step_nilpotent(rng) for _ in range(6)] + [heisenberg_model()[0]]
    # even integer brackets: the Koszul grid over 2d has a common factor
    # that must be divided out
    algebras.append(MetricLieAlgebra.from_nonzero({(0, 1): {2: 2}, (3, 4): {5: -4}}))
    for mla in algebras:
        conn = koszul(mla)
        assert_canonical(mla)
        assert_canonical(conn)
    vs = [Vec7(tuple(v)) for v in vectors(seed)]
    vs += [v.scale(6) for v in vs] + [Vec7.basis(3).scale(Fraction(2, 4))]
    s = small_fraction(rng)
    for frame in (build_standard_frame(), build_cayley_frame()):
        for u in vs:
            assert_canonical(u)
            assert_canonical(u.scale(s))
            assert_canonical(u.scale(0))
            for v in vs + [-u]:
                for w in (u + v, u - v, cross(u, v, frame)):
                    assert_canonical(w)
        for g in grids(seed):
            m = Mat7(g)
            assert_canonical(characteristic_vector(m, frame))
            assert_canonical(characteristic_vector(m.scale(12), frame))
            for v in vs:
                assert_canonical(m @ v)
