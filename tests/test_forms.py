import pickle
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from g2kit.forms import (
    FORM,
    TENSOR,
    KForm,
    all_increasing_tuples,
    form_inner,
    form_norm_sq,
    hodge,
    interior,
    sort_with_sign,
    two_form_from_matrix,
    wedge,
)
from g2kit.linalg import DIM, Vec7, integer_coords
from g2kit.sampling import rand_fraction, rand_skew, rand_vec


def rand_form(rng: Random, degree: int) -> KForm:
    terms = {}
    for key in combinations(range(DIM), degree):
        if rng.random() < 0.5:
            terms[key] = rand_fraction(rng)
    return KForm(degree, terms)


def test_sort_with_sign():
    assert sort_with_sign((1, 2, 3)) == ((1, 2, 3), 1)
    assert sort_with_sign((2, 1, 3)) == ((1, 2, 3), -1)
    assert sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)
    assert sort_with_sign((1, 1, 2))[1] == 0


def test_only_increasing_keys_stored_and_signed_eval():
    a = KForm(2, {(3, 1): 5})
    assert a.terms() == (((1, 3), Fraction(-5)),)
    assert a.coeff((3, 1)) == 5
    assert a.coeff((1, 3)) == -5
    assert a.coeff((1, 1)) == 0


def test_degree_bounds():
    with pytest.raises(ValueError):
        KForm(8, {})
    with pytest.raises(ValueError):
        KForm(2, {(0, 9): 1})


def coords_of(degree: int, terms: dict) -> list[int]:
    """The coordinates of integer terms on increasing index tuples."""
    return [terms.get(key, 0) for key in combinations(range(DIM), degree)]


def test_from_ints_is_canonical_and_checks_its_keys():
    # coordinates sit on the increasing monomials in combinations order
    a = KForm.from_ints(2, coords_of(2, {(0, 1): 6, (2, 5): -4, (3, 4): 0}), 8)
    assert a == KForm(2, {(0, 1): Fraction(3, 4), (2, 5): Fraction(-1, 2)})
    assert a.terms() == (((0, 1), Fraction(3, 4)), ((2, 5), Fraction(-1, 2)))
    assert integer_coords(a) == (tuple(coords_of(2, {(0, 1): 3, (2, 5): -2})), 4)
    assert KForm.from_ints(1, [0, 0, 0, 5, 0, 0, 0], 5) == KForm.monomial((3,))
    assert integer_coords(KForm.from_ints(1, [0] * DIM, 5)) == ((0,) * DIM, 1)
    assert KForm.from_ints(1, [0] * DIM, 5) == KForm.zero(1)
    for coords, d in (([1] * 20, 1), ([1] * 22, 1), ([1] * 35, 1), ([1] * 21, 0), ([1] * 21, -3)):
        with pytest.raises(ValueError):
            KForm.from_ints(2, coords, d)
    with pytest.raises(ValueError):
        KForm.from_ints(8, [1], 1)
    with pytest.raises(AttributeError):
        a.degree = 3


def test_equality_compares_the_degree():
    # a 3-form and a 4-form both have 35 coordinates
    assert KForm.zero(3) != KForm.zero(4)
    three = KForm.from_ints(3, range(35), 2)
    four = KForm.from_ints(4, range(35), 2)
    assert integer_coords(three) == integer_coords(four)
    assert three != four and not three == four
    assert three == KForm.from_ints(3, range(35), 2)
    assert three != integer_coords(three)


def test_forms_pickle_and_do_not_hash():
    rng = Random(8)
    for k in range(DIM + 1):
        a = rand_form(rng, k)
        b = pickle.loads(pickle.dumps(a))
        assert b == a and b.degree == k and b.terms() == a.terms()
        with pytest.raises(TypeError):
            hash(a)


def test_wedge_alternation_and_anticommutativity():
    e1 = KForm.monomial((1,))
    assert wedge(e1, e1).is_zero()
    rng = Random(0)
    for p, q in [(1, 1), (1, 2), (2, 3), (3, 3)]:
        a, b = rand_form(rng, p), rand_form(rng, q)
        sign = (-1) ** (p * q)
        assert wedge(a, b) == wedge(b, a).scale(sign)


def test_wedge_associative():
    rng = Random(1)
    a, b, c = rand_form(rng, 1), rand_form(rng, 2), rand_form(rng, 3)
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_degree_overflow_rejected():
    a = KForm.monomial((0, 1, 2, 3))
    b = KForm.monomial((4, 5, 6))
    wedge(a, b)  # degree 7 is fine
    with pytest.raises(ValueError):
        wedge(a, KForm.monomial((3, 4, 5, 6)))


def test_hodge_unit_and_involution():
    one = KForm.constant(1)
    assert hodge(one) == KForm.monomial(range(DIM))
    rng = Random(2)
    for k in range(DIM + 1):
        a = rand_form(rng, k)
        assert hodge(hodge(a)) == a
        assert hodge(hodge(a, -1), -1) == a
        assert hodge(a, -1) == -hodge(a)


def test_hodge_is_the_signed_coordinate_reversal():
    # the complement of the n-th increasing k-subset is the n-th from the
    # end among the (7 - k)-subsets
    full = set(range(DIM))
    for k in range(DIM + 1):
        keys, duals = list(combinations(range(DIM), k)), list(combinations(range(DIM), DIM - k))
        assert [tuple(sorted(full - set(key))) for key in keys] == duals[::-1]
    rng = Random(9)
    for k in range(DIM + 1):
        a = rand_form(rng, k)
        xs, d = integer_coords(a)
        for orientation in (1, -1):
            star = hodge(a, orientation)
            ys, dy = integer_coords(star)
            assert star.degree == DIM - k and dy == d
            signs = [orientation * sort_with_sign(key + tuple(sorted(full - set(key))))[1]
                     for key in combinations(range(DIM), k)]
            assert list(ys) == [s * x for s, x in zip(signs, xs)][::-1]
            assert hodge(star, orientation) == a


def test_hodge_isometry_every_degree():
    rng = Random(3)
    for k in range(DIM + 1):
        a, b = rand_form(rng, k), rand_form(rng, k)
        assert form_inner(hodge(a), hodge(b)) == form_inner(a, b)


def test_hodge_defining_property():
    # a ^ hodge(b) = <a, b> vol for same-degree forms
    rng = Random(4)
    for k in range(DIM + 1):
        a, b = rand_form(rng, k), rand_form(rng, k)
        assert wedge(a, hodge(b)) == KForm.monomial(range(DIM)).scale(form_inner(a, b))


def test_interior_adjoint_to_wedge_with_one_form():
    # <x -| a, b> = <a, x-flat ^ b>
    rng = Random(5)
    for k in range(1, DIM + 1):
        x = rand_vec(rng)
        a = rand_form(rng, k)
        b = rand_form(rng, k - 1)
        x_flat = KForm(1, {(i,): x[i] for i in range(DIM)})
        assert form_inner(interior(x, a), b) == form_inner(a, wedge(x_flat, b))


def test_interior_on_zero_form_rejected():
    with pytest.raises(ValueError):
        interior(Vec7.basis(0), KForm.constant(1))


def test_tensor_convention_is_factorial_multiple():
    rng = Random(6)
    for k in range(DIM + 1):
        a = rand_form(rng, k)
        fact = 1
        for i in range(1, k + 1):
            fact *= i
        assert form_norm_sq(a, TENSOR) == fact * form_norm_sq(a, FORM)


def test_two_form_matrix_bridge():
    rng = Random(7)
    s = rand_skew(rng)
    a = two_form_from_matrix(s)
    for i in range(DIM):
        for j in range(DIM):
            assert a.coeff((i, j)) == s.entries[i][j]


def test_all_increasing_tuples_counts():
    assert len(all_increasing_tuples(3)) == 35
    assert len(all_increasing_tuples(4)) == 35
    assert len(all_increasing_tuples(7)) == 1
