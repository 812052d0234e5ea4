"""Deterministic seeded generators for the randomized identity suites.

Every generator takes an explicit ``random.Random`` so that identical seeds
reproduce identical runs; suites may be sharded by deriving child seeds with
:func:`spawn_seeds` and merging results by conjunction.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .frames import G2Frame
from .liealg import MetricLieAlgebra
from .linalg import DIM, LinearSystem, Mat7, Vec7
from .so7 import g2_basis


def spawn_seeds(seed: int, n: int) -> list[int]:
    rng = Random(seed)
    return [rng.randrange(2**32) for _ in range(n)]


def rand_fraction(rng: Random, num: int = 9, den: int = 9) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_vec(rng: Random) -> Vec7:
    return Vec7(tuple(rand_fraction(rng) for _ in range(DIM)))


def rand_nonzero_vec(rng: Random) -> Vec7:
    while True:
        v = rand_vec(rng)
        if not v.is_zero():
            return v


def rand_mat(rng: Random) -> Mat7:
    return Mat7(tuple(tuple(rand_fraction(rng) for _ in range(DIM)) for _ in range(DIM)))


def rand_symmetric(rng: Random) -> Mat7:
    rows = [[Fraction(0)] * DIM for _ in range(DIM)]
    for i in range(DIM):
        rows[i][i] = rand_fraction(rng)
        for j in range(i + 1, DIM):
            v = rand_fraction(rng)
            rows[i][j] = v
            rows[j][i] = v
    return Mat7.from_rows(rows)


def rand_skew(rng: Random) -> Mat7:
    rows = [[Fraction(0)] * DIM for _ in range(DIM)]
    for i in range(DIM):
        for j in range(i + 1, DIM):
            v = rand_fraction(rng)
            rows[i][j] = v
            rows[j][i] = -v
    return Mat7.from_rows(rows)


def rand_g2(rng: Random, frame: G2Frame) -> Mat7:
    """Random element of the 14-dimensional kernel of the eps contraction."""
    rows = [[Fraction(0)] * DIM for _ in range(DIM)]
    for b in g2_basis(frame):
        c = rand_fraction(rng, 5, 5)
        if c != 0:
            for i in range(DIM):
                brow = b.entries[i]
                row = rows[i]
                for j in range(DIM):
                    if brow[j]:
                        row[j] += c * brow[j]
    return Mat7.from_rows(rows)


def rand_vector_free(rng: Random, frame: G2Frame) -> Mat7:
    """Random endomorphism with vanishing vector part
    (scalar + traceless symmetric + g2)."""
    sym = rand_symmetric(rng)
    return sym + rand_g2(rng, frame)


def rand_orthogonal(rng: Random) -> Mat7:
    """Rational special orthogonal matrix via the Cayley transform
    (I - S)(I + S)^{-1} of a random skew S; I + S is always invertible.

    The 7 columns solve one system (I + S) x = (I - S) e_j, reduced once."""
    s = rand_skew(rng)
    system = LinearSystem((Mat7.identity() + s).entries)
    b = Mat7.identity() - s
    cols = []
    for j in range(DIM):
        sol = system.solve(b.column(j))
        if sol is None:
            raise ValueError("Cayley transform failed: I + S is singular")
        cols.append(Vec7(tuple(sol)))
    return Mat7.from_columns(cols)


def table_symmetries(frame: G2Frame, rng: Random, count: int, max_tries: int = 4000) -> list[Mat7]:
    """Sampled signed-permutation matrices P with P(u x v) = Pu x Pv.

    Rejection-sampled: a random index permutation is kept when some sign
    vector makes it preserve the table exactly (checked on all 35 sorted
    triples); the identity is always included.
    """
    from itertools import combinations, product

    table = frame.table
    triples = list(combinations(range(DIM), 3))
    found: list[Mat7] = [Mat7.identity()]
    seen = {tuple(range(DIM)) + (1,) * DIM}
    tries = 0
    while len(found) < count and tries < max_tries:
        tries += 1
        perm = list(range(DIM))
        rng.shuffle(perm)
        # unsigned precheck: the permutation must map triples to triples
        if any(
            (table.eps(*t) == 0) != (table.eps(perm[t[0]], perm[t[1]], perm[t[2]]) == 0)
            for t in triples
        ):
            continue
        for signs in product((1, -1), repeat=DIM):
            ok = all(
                table.eps(*t)
                == signs[t[0]] * signs[t[1]] * signs[t[2]] * table.eps(perm[t[0]], perm[t[1]], perm[t[2]])
                for t in triples
            )
            if ok:
                key = tuple(perm) + signs
                if key in seen:
                    break
                seen.add(key)
                rows = [[Fraction(0)] * DIM for _ in range(DIM)]
                for i in range(DIM):
                    rows[perm[i]][i] = Fraction(signs[i])
                found.append(Mat7.from_rows(rows))
                break
    return found[:count]


def rand_two_step_nilpotent(rng: Random) -> MetricLieAlgebra:
    """Random 2-step nilpotent metric Lie algebra: a horizontal index set
    brackets into a disjoint central set, so Jacobi holds by construction."""
    while True:
        indices = list(range(DIM))
        rng.shuffle(indices)
        n_h = rng.randint(2, 4)
        n_c = rng.randint(1, min(3, DIM - n_h))
        horizontal = indices[:n_h]
        central = indices[n_h:n_h + n_c]
        entries: dict[tuple[int, int], dict[int, Fraction]] = {}
        nonzero = False
        for a in range(n_h):
            for b in range(a + 1, n_h):
                coeffs = {}
                for z in central:
                    if rng.random() < 0.6:
                        c = rand_fraction(rng, 4, 3)
                        if c != 0:
                            coeffs[z] = c
                            nonzero = True
                if coeffs:
                    i, j = horizontal[a], horizontal[b]
                    if i > j:
                        i, j = j, i
                        coeffs = {k: -v for k, v in coeffs.items()}
                    entries[(i, j)] = coeffs
        if nonzero:
            return MetricLieAlgebra.from_nonzero(entries)
