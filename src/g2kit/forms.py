"""Exterior algebra on R^7 with exact rational coefficients.

A k-form is stored as integer coefficients on strictly increasing index
tuples over one positive common denominator, in lowest terms, the way
:class:`~g2kit.linalg.Mat7` stores a matrix; the kernels in this module and
in :mod:`g2kit.liealg` run on those integers and normalise once per result.
Evaluation on an arbitrary ordered tuple applies the sign of the sorting
permutation and returns 0 on repeated indices; :meth:`KForm.coeff` and
:meth:`KForm.terms` read a ``Fraction`` view built on first use.

Two inner-product conventions appear in the literature this package deals
with: "form" makes the increasing wedge monomials e^{i1<...<ik} orthonormal,
"tensor" sums over all ordered index tuples and equals k! times "form".
Functions taking a ``convention`` argument accept either name.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm

from .linalg import DIM, Mat7, Vec7, _Immutable, as_fraction, integer_coords, integer_rows

FORM = "form"
TENSOR = "tensor"

_ZERO = Fraction(0)

# the valid keys of each degree: strictly increasing index tuples
_INCREASING = tuple(frozenset(combinations(range(DIM), k)) for k in range(DIM + 1))


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


class KForm(_Immutable):
    """An exact k-form on R^7, 0 <= k <= 7: integer coefficients on
    increasing index tuples over one common denominator.

    The form is canonical (den > 0, no zero coefficient, and gcd(den, all
    coefficients) == 1), so ``==`` compares the integers directly.  Forms
    are immutable.  :meth:`from_ints` builds one from integers; the
    constructor takes int or ``Fraction`` values on index tuples in any
    order, sorted with their sign and summed.
    """

    __slots__ = ("degree", "_num", "_den", "_view")

    def __new__(cls, degree: int, terms=None):
        _check_degree(degree)
        pairs = []
        for key, value in (terms or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise ValueError(f"index tuple {key} has wrong length for degree {degree}")
            if any(not 0 <= i < DIM for i in key):
                raise ValueError(f"index out of range in {key}")
            skey, sign = sort_with_sign(key)
            if sign:
                value = as_fraction(value)
                pairs.append((skey, sign * value.numerator, value.denominator))
        d = lcm(*(q for _, _, q in pairs))
        acc: dict[tuple[int, ...], int] = {}
        for key, p, q in pairs:
            acc[key] = acc.get(key, 0) + p * (d // q)
        return _form(degree, acc, d)

    @staticmethod
    def from_ints(degree: int, terms: dict, d: int) -> KForm:
        """The form with coefficient terms[key] / d on each increasing index
        tuple key, for integers and a positive integer d; zero coefficients
        and the gcd are divided out."""
        _check_degree(degree)
        if d <= 0:
            raise ValueError(f"KForm.from_ints needs a positive denominator, got {d}")
        if not terms.keys() <= _INCREASING[degree]:
            raise ValueError(f"KForm.from_ints needs increasing index tuples of length {degree} in 0..{DIM - 1}")
        return _form(degree, terms, d)

    def __reduce__(self):
        return (KForm.from_ints, (self.degree, self._num, self._den))

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

    # -- access ------------------------------------------------------------

    def _fractions(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as Fractions in key order, built on first use."""
        view = self._view
        if view is None:
            d = self._den
            view = {k: Fraction(v, d) for k, v in sorted(self._num.items())}
            object.__setattr__(self, "_view", view)
        return view

    def terms(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        return tuple(self._fractions().items())

    def coeff(self, indices) -> Fraction:
        """Signed coefficient on an arbitrary ordered index tuple."""
        skey, sign = sort_with_sign(tuple(indices))
        if sign == 0:
            return _ZERO
        x = self._fractions().get(skey, _ZERO)
        return x if sign > 0 else -x

    def __call__(self, *indices) -> Fraction:
        return self.coeff(indices)

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KForm)
            and self.degree == other.degree
            and self._den == other._den
            and self._num == other._num
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
        da, db = self._den, other._den
        d = lcm(da, db)
        fa, fb = d // da, d // db
        acc = {k: fa * v for k, v in self._num.items()}
        for k, v in other._num.items():
            acc[k] = acc.get(k, 0) + fb * v
        return _form(self.degree, acc, d)

    def __sub__(self, other: KForm) -> KForm:
        return self + -other

    def __neg__(self) -> KForm:
        return _make(self.degree, {k: -v for k, v in self._num.items()}, self._den)

    def scale(self, s) -> KForm:
        s = as_fraction(s)
        p = s.numerator
        return _form(self.degree, {k: p * v for k, v in self._num.items()}, s.denominator * self._den)

    __mul__ = scale
    __rmul__ = scale


def _check_degree(degree: int) -> None:
    if not 0 <= degree <= DIM:
        raise ValueError(f"form degree must lie in 0..{DIM}, got {degree}")


def _make(degree: int, num: dict, d: int) -> KForm:
    """A KForm from integer coefficients already in canonical form over d."""
    f = object.__new__(KForm)
    object.__setattr__(f, "degree", degree)
    object.__setattr__(f, "_num", num)
    object.__setattr__(f, "_den", d)
    object.__setattr__(f, "_view", None)
    return f


def _form(degree: int, acc: dict, d: int) -> KForm:
    """The form acc / d for integer coefficients on increasing index tuples
    and d > 0: zero coefficients are dropped and the gcd divided out."""
    num = {k: v for k, v in acc.items() if v}
    g = gcd(d, *num.values())
    if g != 1:
        num = {k: v // g for k, v in num.items()}
        d //= g
    return _make(degree, num, d)


def integer_terms(a: KForm) -> tuple[dict[tuple[int, ...], int], int]:
    """({increasing key: d * coefficient}, d) for the least common
    denominator d, as :func:`~g2kit.linalg.integer_rows` is for matrices.
    This reads the stored integers, so it costs nothing; the dict must not
    be modified."""
    return a._num, a._den


def wedge(a: KForm, b: KForm) -> KForm:
    """Wedge product; raises when the result degree would exceed 7."""
    degree = a.degree + b.degree
    if degree > DIM:
        raise ValueError(f"wedge degree {degree} exceeds {DIM}")
    acc: dict[tuple[int, ...], int] = {}
    for ka, va in a._num.items():
        sa = set(ka)
        for kb, vb in b._num.items():
            if sa & set(kb):
                continue
            key, sign = sort_with_sign(ka + kb)
            acc[key] = acc.get(key, 0) + sign * va * vb
    return _form(degree, acc, a._den * b._den)


def interior(x: Vec7, a: KForm) -> KForm:
    """Interior product x ⌟ a."""
    if a.degree == 0:
        raise ValueError("interior product of a 0-form is undefined")
    xs, dx = integer_coords(x)
    acc: dict[tuple[int, ...], int] = {}
    for key, value in a._num.items():
        for pos, idx in enumerate(key):
            xi = xs[idx]
            if xi == 0:
                continue
            rest = key[:pos] + key[pos + 1:]
            v = xi * value
            acc[rest] = acc.get(rest, 0) + (-v if pos % 2 else v)
    return _form(a.degree - 1, acc, dx * a._den)


def hodge(a: KForm, orientation: int = 1) -> KForm:
    """Hodge dual for the orthonormal frame and the orientation e^{0...6}.

    ``orientation=-1`` computes the dual for the reversed orientation, i.e.
    the negative of the standard one.  On a 7-dimensional space the double
    dual is the identity on every degree for either choice.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    full = set(range(DIM))
    num = {}
    for key, value in a._num.items():
        comp = tuple(sorted(full - set(key)))
        _, sign = sort_with_sign(key + comp)
        num[comp] = sign * orientation * value
    # complements are distinct and the integers only change sign: still canonical
    return _make(DIM - a.degree, num, a._den)


def form_inner(a: KForm, b: KForm, convention: str = FORM) -> Fraction:
    """Inner product of two forms of equal degree.

    "form": increasing monomials are orthonormal.  "tensor": sum over all
    ordered index tuples of the coefficient tensors, i.e. k! times "form".
    """
    if a.degree != b.degree:
        raise ValueError("inner product needs equal degrees")
    bn = b._num
    total = sum(v * bn.get(k, 0) for k, v in a._num.items())
    if convention == FORM:
        return Fraction(total, a._den * b._den)
    if convention == TENSOR:
        return Fraction(factorial(a.degree) * total, a._den * b._den)
    raise ValueError(f"unknown convention {convention!r}")


def form_norm_sq(a: KForm, convention: str = FORM) -> Fraction:
    return form_inner(a, a, convention)


def two_form_from_matrix(m: Mat7) -> KForm:
    """2-form alpha(e_i, e_j) = M_ij of a skew matrix."""
    rows, d = integer_rows(m)
    return _form(2, {(i, j): rows[i][j] for i in range(DIM) for j in range(i + 1, DIM)}, d)


def all_increasing_tuples(k: int) -> list[tuple[int, ...]]:
    return list(combinations(range(DIM), k))
