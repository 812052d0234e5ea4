"""Exterior algebra on R^7 with exact rational coefficients.

A k-form is an integer grid like :class:`~g2kit.linalg.Vec7` and
:class:`~g2kit.linalg.Mat7`: its C(7, k) coordinates on the increasing
monomials e^{i1<...<ik}, in ``itertools.combinations`` order, over one
positive common denominator, in lowest terms.  The kernels run on those
integers and normalise once per result; only this module reads the
monomial layout, and :mod:`g2kit.liealg` reaches it through the one
(anti)derivation kernel behind ``interior``, ``ce_differential`` and
``nabla_form``.
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
from functools import reduce
from itertools import combinations
from math import factorial, lcm
from operator import mul, xor

from .linalg import DIM, Mat7, Vec7, _IntegerGrid, as_fraction, integer_coords, integer_rows

FORM = "form"
TENSOR = "tensor"

_ZERO = Fraction(0)

# the increasing index tuples of each degree, in ``combinations`` order (the
# monomials a form's coordinates sit on)
_MONOMIALS = tuple(tuple(combinations(range(DIM), k)) for k in range(DIM + 1))

# each monomial J as (its bit mask, the xor `below` of the masks of the
# indices below each J_t: for any mask S, |S & below| and the sum over t of
# the number of indices of S below J_t agree mod 2), and the position of
# each mask among the monomials of its degree
_BITS = {J: (sum(1 << j for j in J), reduce(xor, [(1 << j) - 1 for j in J], 0)) for keys in _MONOMIALS for J in keys}
_POSITION = {_BITS[key][0]: n for keys in _MONOMIALS for n, key in enumerate(keys)}


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


# the sign of e^I ^ e^J = sign e^{0...6} for each increasing k-tuple I and
# its complement J: the r-th index i_r of I precedes i_r - r indices of J.
# J is the (7 - k)-tuple in the mirrored position, so the Hodge dual
# reverses the coordinates
_HODGE_SIGNS = tuple(
    tuple((-1) ** (sum(key) - k * (k - 1) // 2) for key in keys) for k, keys in enumerate(_MONOMIALS)
)


class KForm(_IntegerGrid):
    """An exact k-form on R^7, 0 <= k <= 7: integer coordinates on the
    increasing monomials over one common denominator, in lowest terms.

    ``==`` compares the degree and the integers.  Forms are immutable and,
    unlike the other grids, unhashable.  :meth:`from_ints` builds one from
    coordinates; the constructor takes int or ``Fraction`` values on index
    tuples in any order, sorted with their sign and summed.
    """

    __slots__ = ("degree",)

    def __new__(cls, degree: int, terms=None):
        _check_degree(degree)
        values: dict[int, Fraction] = {}  # by coordinate position
        for key, value in (terms or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise ValueError(f"index tuple {key} has wrong length for degree {degree}")
            if any(not 0 <= i < DIM for i in key):
                raise ValueError(f"index out of range in {key}")
            skey, sign = sort_with_sign(key)
            if sign:
                n = _POSITION[_BITS[skey][0]]
                values[n] = values.get(n, _ZERO) + sign * as_fraction(value)
        # over the lcm of the reduced denominators the integers are in lowest terms
        d = lcm(*(x.denominator for x in values.values()))
        coords = [0] * len(_MONOMIALS[degree])
        for n, x in values.items():
            coords[n] = x.numerator * (d // x.denominator)
        return _graded(degree, KForm._make(tuple(coords), d))

    @staticmethod
    def from_ints(degree: int, coords, d: int) -> KForm:
        """The form with coordinate coords[n] / d on the n-th increasing
        monomial of the degree, for integers and a positive integer d; the
        gcd is divided out."""
        _check_degree(degree)
        coords = tuple(coords)
        if len(coords) != len(_MONOMIALS[degree]):
            raise ValueError(f"a {degree}-form needs {len(_MONOMIALS[degree])} coordinates, got {len(coords)}")
        if d <= 0:
            raise ValueError(f"KForm.from_ints needs a positive denominator, got {d}")
        return _graded(degree, KForm._lowest(coords, d))

    def __reduce__(self):
        return (KForm.from_ints, (self.degree, self._grid, self._den))

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
        """The nonzero coefficients as Fractions in key order, built on first use."""
        keys = _MONOMIALS[self.degree]
        return self._viewed(lambda grid, d: {k: Fraction(x, d) for k, x in zip(keys, grid) if x})

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
        return not any(self._grid)

    def __eq__(self, other) -> bool:
        # a 3-form and a 4-form have the same number of coordinates
        eq = _IntegerGrid.__eq__(self, other)
        return eq if eq is NotImplemented else eq and self.degree == other.degree

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
        return KForm.from_ints(self.degree, [fa * a + fb * b for a, b in zip(self._grid, other._grid)], d)

    def __sub__(self, other: KForm) -> KForm:
        return self + -other

    def __neg__(self) -> KForm:
        return _graded(self.degree, KForm._make(tuple(-a for a in self._grid), self._den))

    def scale(self, s) -> KForm:
        s = as_fraction(s)
        p = s.numerator
        return KForm.from_ints(self.degree, [p * a for a in self._grid], s.denominator * self._den)

    __mul__ = scale
    __rmul__ = scale


def _check_degree(degree: int) -> None:
    if not 0 <= degree <= DIM:
        raise ValueError(f"form degree must lie in 0..{DIM}, got {degree}")


# the degree's slot setter, which bypasses the base's blocking attribute hook
_set_degree = KForm.degree.__set__


def _graded(degree: int, form: KForm) -> KForm:
    """form, just made from its grid, with its degree set."""
    _set_degree(form, degree)
    return form


def wedge(a: KForm, b: KForm) -> KForm:
    """Wedge product; raises when the result degree would exceed 7."""
    degree = a.degree + b.degree
    if degree > DIM:
        raise ValueError(f"wedge degree {degree} exceeds {DIM}")
    acc = [0] * len(_MONOMIALS[degree])
    bterms = [(_BITS[kb], vb) for kb, vb in zip(_MONOMIALS[b.degree], b._grid) if vb]
    # sorting e^A ^ e^B moves each b in B past the |A| - |A below b| indices
    # of A above it: |A| |B| + |A & below| transpositions, mod 2
    flips = a.degree * b.degree
    for ka, va in zip(_MONOMIALS[a.degree], a._grid):
        if not va:
            continue
        amask = _BITS[ka][0]
        for (bmask, below), vb in bterms:
            if not amask & bmask:
                x = va * vb
                acc[_POSITION[amask | bmask]] += -x if (flips + (amask & below).bit_count()) % 2 else x
    return KForm.from_ints(degree, acc, a._den * b._den)


def _derivation(a: KForm, q: int, tables, d: int) -> tuple[KForm, ...]:
    """The (anti)derivations extending each table to the form a, one
    result of degree a.degree + q - 1 per table.

    table[m] lists the (J, c), J an increasing q-tuple and c an integer,
    of the image sum c e^J / d of e^m.  Replacing e^m in slot p of a term
    by e^J and sorting costs (-1)^(p + sum_t r_t), r_t the number of
    remaining indices below J_t; a repeated index gives 0.  q = 0 is an
    interior product, q = 1 a derivation action, q = 2 the
    Chevalley-Eilenberg differential.
    """
    degree = a.degree + q - 1
    # every slot of every nonzero term, read once for all the tables
    slots = [
        (p, m, _BITS[key][0] ^ (1 << m), v)
        for key, v in zip(_MONOMIALS[a.degree], a._grid)
        if v
        for p, m in enumerate(key)
    ]
    out = []
    for table in tables:
        acc = [0] * len(_MONOMIALS[degree])
        for p, m, rest, v in slots:
            for J, c in table[m]:
                jmask, below = _BITS[J]
                if not rest & jmask:
                    x = c * v
                    # sum_t r_t = |rest & below| mod 2
                    acc[_POSITION[rest | jmask]] += -x if (p + (rest & below).bit_count()) % 2 else x
        out.append(KForm.from_ints(degree, acc, a._den * d))
    return tuple(out)


def interior(x: Vec7, a: KForm) -> KForm:
    """Interior product x ⌟ a."""
    if a.degree == 0:
        raise ValueError("interior product of a 0-form is undefined")
    xs, dx = integer_coords(x)
    return _derivation(a, 0, [[[((), xi)] if xi else [] for xi in xs]], dx)[0]


def hodge(a: KForm, orientation: int = 1) -> KForm:
    """Hodge dual for the orthonormal frame and the orientation e^{0...6}.

    ``orientation=-1`` computes the dual for the reversed orientation, i.e.
    the negative of the standard one.  On a 7-dimensional space the double
    dual is the identity on every degree for either choice.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    signed = [orientation * s * x for s, x in zip(_HODGE_SIGNS[a.degree], a._grid)]
    # the integers only change sign and order: still in lowest terms
    return _graded(DIM - a.degree, KForm._make(tuple(reversed(signed)), a._den))


def form_inner(a: KForm, b: KForm, convention: str = FORM) -> Fraction:
    """Inner product of two forms of equal degree.

    "form": increasing monomials are orthonormal.  "tensor": sum over all
    ordered index tuples of the coefficient tensors, i.e. k! times "form".
    """
    if a.degree != b.degree:
        raise ValueError("inner product needs equal degrees")
    total = sum(map(mul, a._grid, b._grid))
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
    return KForm.from_ints(2, [rows[i][j] for i, j in _MONOMIALS[2]], d)


def all_increasing_tuples(k: int) -> list[tuple[int, ...]]:
    return list(_MONOMIALS[k])
