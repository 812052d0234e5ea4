"""The left-invariant geometry is linear in the structure constants c.

Everything a report derives before the curvature is linear in c: the
Koszul connection, the torsion endomorphism T and the torsion forms
tau0..tau3.  On seeded pairs of algebras (a, b) and rational λ, each is
checked on a + λb against its values on a and b, through the exact
``+`` and ``scale`` of the algebras and connections, in both frames; the
pairs include brackets that fail the Jacobi identity, since ``koszul`` is
total.  A linear map is fixed by its values on the 147 single brackets
E_(ij,k), so the Koszul connection and T are also checked as
f(Σ c_n E_n) = Σ c_n f(E_n).  The curvature scalars are quadratic in c,
and as a control they must fail additivity on some seeded pair.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import add
from random import Random

import pytest

from g2kit.liealg import MetricLieAlgebra, curvature_scalars, koszul, torsion_endo, torsion_forms
from g2kit.linalg import DIM
from g2kit.sampling import rand_almost_abelian, rand_fraction, rand_two_step_nilpotent

SEEDS = [0, 1, 2]
TAUS = ("tau0", "tau1", "tau2", "tau3")


def rand_bracket(rng: Random) -> MetricLieAlgebra:
    """A sparse antisymmetric bracket with no reason to satisfy Jacobi."""
    entries = {}
    for ij in combinations(range(DIM), 2):
        if rng.random() < 0.3:
            entries[ij] = {k: rand_fraction(rng) for k in range(DIM) if rng.random() < 0.4}
    return MetricLieAlgebra.from_nonzero(entries)


def pairs(seed: int) -> list[tuple[MetricLieAlgebra, MetricLieAlgebra, Fraction]]:
    """Seeded (a, b, λ): nilpotent with almost abelian, almost abelian
    with nilpotent, and a non-Jacobi bracket with nilpotent."""
    rng = Random(seed)
    out = []
    for _ in range(2):
        nil, almost, bracket = rand_two_step_nilpotent(rng), rand_almost_abelian(rng), rand_bracket(rng)
        out += [(nil, almost, rand_fraction(rng)), (almost, nil, rand_fraction(rng)), (bracket, nil, rand_fraction(rng))]
    assert any(a.jacobi_defect() is not None for a, _, _ in out)
    return out


def single_bracket(i: int, j: int, k: int) -> MetricLieAlgebra:
    """E_(ij,k): [e_i, e_j] = e_k, i < j, and no other bracket."""
    return MetricLieAlgebra.from_nonzero({(i, j): {k: 1}})


SINGLE_BRACKETS = {(i, j, k): single_bracket(i, j, k) for i, j in combinations(range(DIM), 2) for k in range(DIM)}


@pytest.mark.parametrize("seed", SEEDS)
def test_connection_and_torsion_are_linear_in_the_brackets(seed, frame):
    for a, b, lam in pairs(seed):
        c = a + b.scale(lam)
        ga, gb, gc = koszul(a), koszul(b), koszul(c)
        assert gc == ga + gb.scale(lam)
        assert koszul(a - b) == ga - gb
        assert torsion_endo(ga + gb, frame) == torsion_endo(ga, frame) + torsion_endo(gb, frame)
        assert torsion_endo(gc, frame) == torsion_endo(ga, frame) + torsion_endo(gb, frame).scale(lam)
        ta, tb, tc = (torsion_forms(x, frame) for x in (a, b, c))
        assert tc.tau0 == ta.tau0 + lam * tb.tau0
        for name in TAUS[1:]:
            assert getattr(tc, name) == getattr(ta, name) + getattr(tb, name).scale(lam)


@pytest.mark.parametrize("seed", SEEDS)
def test_linear_kernels_are_fixed_by_the_single_brackets(seed, frame):
    basis_connections = {n: koszul(e) for n, e in SINGLE_BRACKETS.items()}
    basis_torsions = {n: torsion_endo(g, frame) for n, g in basis_connections.items()}
    for a, _, _ in pairs(seed)[:3]:
        terms = [((i, j, k), x) for i, j, k, x in a.nonzero_entries()]
        assert reduce(add, (SINGLE_BRACKETS[n].scale(x) for n, x in terms)) == a
        g = koszul(a)
        assert reduce(add, (basis_connections[n].scale(x) for n, x in terms)) == g
        assert reduce(add, (basis_torsions[n].scale(x) for n, x in terms)) == torsion_endo(g, frame)


def test_curvature_scalars_are_not_additive(frame):
    # control: s and s_g2perp are quadratic in c, so some seeded pair breaks
    # the additivity that the linear kernels above keep
    broken = set()
    for seed in SEEDS:
        for a, b, lam in pairs(seed):
            values = [curvature_scalars(koszul(x), x, frame) for x in (a, b, a + b.scale(lam))]
            (da, pa), (db, pb), (dc, pc) = ((sum(v for *_, v in diag), perp) for diag, perp in values)
            broken.update(name for name, ok in (("s", dc == da + lam * db), ("s_g2perp", pc == pa + lam * pb)) if not ok)
    assert broken == {"s", "s_g2perp"}
