"""Deterministic seeded generators for the randomized identity suites.

Every generator takes an explicit ``random.Random`` so that identical seeds
reproduce identical runs.  Row k of ``cli.SEEDED_SUITES``, the seeded
``identities`` suites, draws from the stream ``Random(seed + k)``, and each
frame builds its own streams, so the frames share no state:
``cli.cmd_identities`` runs the Cayley frame in a forked child beside the
standard frame and appends its suites after the standard ones.

A rational entry p / q is the pair ``(rng.randint(-num, num),
rng.randint(1, den))``.  :func:`_rand_ratios` draws a whole matrix or
vector of such pairs with ``rng.getrandbits``, by the rejection that
``randint`` itself runs, so the values and the stream position are those
of the ``randint`` calls on every supported Python, at a fraction of their
call overhead.  The samplers scale the pairs to one common denominator
(:func:`~g2kit.linalg.integer_pairs`), with no ``Fraction`` in between.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import lcm
from random import Random

from .frames import G2Frame
from .liealg import MetricLieAlgebra
from .linalg import DIM, LinearSystem, Mat7, Vec7, integer_columns, integer_pairs, integer_rows
from .so7 import g2_basis_entries


def _rand_ratios(rng: Random, count: int, num: int = 9, den: int = 9) -> list[tuple[int, int]]:
    """count (numerator, denominator) pairs, each the pair
    (rng.randint(-num, num), rng.randint(1, den)), in that order.

    Drawn the way ``random.Random.randint`` draws: an integer below n is
    ``getrandbits(n.bit_length())``, taken again while it is n or more.
    The values and the stream position are those of the randint calls.
    An empty range (num < 0 or den < 1) raises ``ValueError`` as randint
    does, here before any draw.
    """
    if num < 0 or den < 1:
        raise ValueError(f"empty range for a ratio draw: numerator bound {num}, denominator bound {den}")
    getrandbits = rng.getrandbits
    n = 2 * num + 1
    kp, kq = n.bit_length(), den.bit_length()
    out = []
    for _ in range(count):
        p = getrandbits(kp)
        while p >= n:
            p = getrandbits(kp)
        q = getrandbits(kq)
        while q >= den:
            q = getrandbits(kq)
        out.append((p - num, q + 1))
    return out


def _rand_ratio(rng: Random, num: int = 9, den: int = 9) -> tuple[int, int]:
    """(numerator, denominator) of one :func:`rand_fraction` draw."""
    return _rand_ratios(rng, 1, num, den)[0]


def rand_fraction(rng: Random, num: int = 9, den: int = 9) -> Fraction:
    return Fraction(*_rand_ratio(rng, num, den))


def _rows(flat: list) -> list[list]:
    """The 7x7 grid of a row-major list of 49 entries."""
    return [flat[r : r + DIM] for r in range(0, DIM * DIM, DIM)]


def rand_vec(rng: Random) -> Vec7:
    return Vec7.from_ints(*integer_pairs(_rand_ratios(rng, DIM)))


def rand_nonzero_vec(rng: Random) -> Vec7:
    while True:
        v = rand_vec(rng)
        if not v.is_zero():
            return v


def rand_mat(rng: Random) -> Mat7:
    xs, d = integer_pairs(_rand_ratios(rng, DIM * DIM))
    return Mat7.from_ints(_rows(xs), d)


def rand_symmetric(rng: Random) -> Mat7:
    """The upper triangle with its diagonal drawn row by row, mirrored."""
    pairs = [(0, 1)] * (DIM * DIM)
    for (i, j), ratio in zip(combinations_with_replacement(range(DIM), 2), _rand_ratios(rng, DIM * (DIM + 1) // 2)):
        pairs[DIM * i + j] = pairs[DIM * j + i] = ratio
    xs, d = integer_pairs(pairs)
    return Mat7.from_ints(_rows(xs), d)


def rand_skew(rng: Random) -> Mat7:
    """The strict upper triangle drawn row by row, mirrored with its sign."""
    pairs = [(0, 1)] * (DIM * DIM)
    for (i, j), (p, q) in zip(combinations(range(DIM), 2), _rand_ratios(rng, DIM * (DIM - 1) // 2)):
        pairs[DIM * i + j], pairs[DIM * j + i] = (p, q), (-p, q)
    xs, d = integer_pairs(pairs)
    return Mat7.from_ints(_rows(xs), d)


def rand_g2(rng: Random, frame: G2Frame) -> Mat7:
    """Random element of the 14-dimensional kernel of the eps contraction:
    the g2 basis matrices B_b = R_b / d_b with coefficients p_b / q_b, summed
    over the lcm of the q_b d_b.  Only the nonzero entries of each R_b are
    read."""
    basis = g2_basis_entries(frame)
    terms = [(p, q * d, entries) for (p, q), (d, entries) in zip(_rand_ratios(rng, len(basis), 5, 5), basis) if p]
    den = lcm(*(qd for _, qd, _ in terms))
    acc = [0] * (DIM * DIM)
    for p, qd, entries in terms:
        f = p * (den // qd)
        for at, x in entries:
            acc[at] += f * x
    return Mat7.from_ints(_rows(acc), den)


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
    system = LinearSystem(*integer_rows(Mat7.identity() + s))
    b, db = integer_columns(Mat7.identity() - s)
    cols = []
    for col in b:
        sol = system.solve_ints(col, db)
        if sol is None:
            raise ValueError("Cayley transform failed: I + S is singular")
        cols.append(sol[0])
    return Mat7.from_ints(tuple(zip(*cols)), sol[1])


def table_symmetries(frame: G2Frame, rng: Random, count: int, max_tries: int = 4000) -> list[Mat7]:
    """Sampled signed-permutation matrices P with P(u x v) = Pu x Pv.

    Rejection-sampled: a random index permutation is kept when some sign
    vector makes it preserve the table exactly (checked on all 35 sorted
    triples); the identity is always included.
    """
    from itertools import product

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
                found.append(Mat7(rows))
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
