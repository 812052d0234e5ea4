"""Exterior algebra on R^7 with exact rational coefficients.

A k-form is stored as a map from strictly increasing index tuples to
coefficients.  Evaluation on an arbitrary ordered tuple applies the sign of
the sorting permutation and returns 0 on repeated indices.

Two inner-product conventions appear in the literature this package deals
with: "form" makes the increasing wedge monomials e^{i1<...<ik} orthonormal,
"tensor" sums over all ordered index tuples and equals k! times "form".
Functions taking a ``convention`` argument accept either name.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

from .linalg import DIM, Mat7, Vec7, as_fraction

FORM = "form"
TENSOR = "tensor"


def sort_with_sign(indices) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple, returning (sorted tuple, permutation sign).

    Sign is 0 when an index repeats.
    """
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return tuple(sorted(idx)), 0
    sign = 1
    # insertion sort; counts inversions for tuples this small
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


class KForm:
    """An exact k-form on R^7, 0 <= k <= 7."""

    __slots__ = ("degree", "_terms")

    def __init__(self, degree: int, terms=None):
        if not 0 <= degree <= DIM:
            raise ValueError(f"form degree must lie in 0..{DIM}, got {degree}")
        self.degree = degree
        acc: dict[tuple[int, ...], Fraction] = {}
        for key, value in (terms or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise ValueError(f"index tuple {key} has wrong length for degree {degree}")
            if any(not 0 <= i < DIM for i in key):
                raise ValueError(f"index out of range in {key}")
            skey, sign = sort_with_sign(key)
            if sign == 0:
                continue
            value = as_fraction(value) * sign
            acc[skey] = acc.get(skey, Fraction(0)) + value
        self._terms = {k: v for k, v in acc.items() if v != 0}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(degree: int) -> KForm:
        return KForm(degree)

    @staticmethod
    def monomial(indices, coeff=1) -> KForm:
        indices = tuple(indices)
        return KForm(len(indices), {indices: coeff})

    @staticmethod
    def constant(value) -> KForm:
        return KForm(0, {(): value})

    @staticmethod
    def volume() -> KForm:
        return KForm.monomial(tuple(range(DIM)))

    # -- access ------------------------------------------------------------

    def terms(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        return tuple(sorted(self._terms.items()))

    def coeff(self, indices) -> Fraction:
        """Signed coefficient on an arbitrary ordered index tuple."""
        skey, sign = sort_with_sign(tuple(indices))
        if sign == 0:
            return Fraction(0)
        return self._terms.get(skey, Fraction(0)) * sign

    def __call__(self, *indices) -> Fraction:
        return self.coeff(indices)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KForm)
            and self.degree == other.degree
            and self._terms == other._terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        if self.is_zero():
            return f"KForm({self.degree}, 0)"
        body = " + ".join(f"{v}*e^{''.join(map(str, k))}" for k, v in self.terms())
        return f"KForm({self.degree}, {body})"

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: KForm) -> KForm:
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        acc = dict(self._terms)
        for k, v in other._terms.items():
            acc[k] = acc.get(k, Fraction(0)) + v
        return KForm(self.degree, acc)

    def __sub__(self, other: KForm) -> KForm:
        return self + other.scale(-1)

    def __neg__(self) -> KForm:
        return self.scale(-1)

    def scale(self, s) -> KForm:
        s = as_fraction(s)
        return KForm(self.degree, {k: s * v for k, v in self._terms.items()})

    __mul__ = scale
    __rmul__ = scale


def wedge(a: KForm, b: KForm) -> KForm:
    """Wedge product; raises when the result degree would exceed 7."""
    degree = a.degree + b.degree
    if degree > DIM:
        raise ValueError(f"wedge degree {degree} exceeds {DIM}")
    acc: dict[tuple[int, ...], Fraction] = {}
    for ka, va in a._terms.items():
        sa = set(ka)
        for kb, vb in b._terms.items():
            if sa & set(kb):
                continue
            key, sign = sort_with_sign(ka + kb)
            acc[key] = acc.get(key, Fraction(0)) + sign * va * vb
    return KForm(degree, acc)


def interior(x: Vec7, a: KForm) -> KForm:
    """Interior product x ⌟ a."""
    if a.degree == 0:
        raise ValueError("interior product of a 0-form is undefined")
    acc: dict[tuple[int, ...], Fraction] = {}
    for key, value in a._terms.items():
        for pos, idx in enumerate(key):
            xi = x[idx]
            if xi == 0:
                continue
            rest = key[:pos] + key[pos + 1:]
            sign = -1 if pos % 2 else 1
            acc[rest] = acc.get(rest, Fraction(0)) + sign * xi * value
    return KForm(a.degree - 1, acc)


def hodge(a: KForm, orientation: int = 1) -> KForm:
    """Hodge dual for the orthonormal frame and the orientation e^{0...6}.

    ``orientation=-1`` computes the dual for the reversed orientation, i.e.
    the negative of the standard one.  On a 7-dimensional space the double
    dual is the identity on every degree for either choice.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    full = set(range(DIM))
    acc: dict[tuple[int, ...], Fraction] = {}
    for key, value in a._terms.items():
        comp = tuple(sorted(full - set(key)))
        _, sign = sort_with_sign(key + comp)
        acc[comp] = acc.get(comp, Fraction(0)) + sign * orientation * value
    return KForm(DIM - a.degree, acc)


def form_inner(a: KForm, b: KForm, convention: str = FORM) -> Fraction:
    """Inner product of two forms of equal degree.

    "form": increasing monomials are orthonormal.  "tensor": sum over all
    ordered index tuples of the coefficient tensors, i.e. k! times "form".
    """
    if a.degree != b.degree:
        raise ValueError("inner product needs equal degrees")
    total = sum((v * b._terms.get(k, Fraction(0)) for k, v in a._terms.items()), Fraction(0))
    if convention == FORM:
        return total
    if convention == TENSOR:
        return factorial(a.degree) * total
    raise ValueError(f"unknown convention {convention!r}")


def form_norm_sq(a: KForm, convention: str = FORM) -> Fraction:
    return form_inner(a, a, convention)


def one_form(v: Vec7) -> KForm:
    """Musical isomorphism v -> v-flat for the orthonormal frame."""
    return KForm(1, {(i,): v[i] for i in range(DIM) if v[i] != 0})


def two_form_from_matrix(m) -> KForm:
    """2-form alpha(e_i, e_j) = M_ij of a skew matrix."""
    terms = {}
    for i in range(DIM):
        for j in range(i + 1, DIM):
            terms[(i, j)] = m.entries[i][j]
    return KForm(2, terms)


def matrix_from_two_form(a: KForm) -> Mat7:
    """Skew matrix with M_ij = alpha(e_i, e_j)."""
    rows = [[Fraction(0)] * DIM for _ in range(DIM)]
    for (i, j), v in a._terms.items():
        rows[i][j] = v
        rows[j][i] = -v
    return Mat7(rows)


def all_increasing_tuples(k: int) -> list[tuple[int, ...]]:
    return list(combinations(range(DIM), k))
