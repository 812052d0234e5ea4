"""Cross-product tables and G2 frames on R^7.

A :class:`CrossTable` holds the totally antisymmetric coefficients eps_ijk
of a 7-dimensional cross product, e_i x e_j = sum_k eps_ijk e_k.  Indices
are always 0..6 internally; ``label_offset`` records how the frame is
displayed (1 for the standard frame labelled 1..7, 0 for the Cayley frame
labelled 0..6).

The table is stored once, as a 7x7 grid of ordered-pair slots, and five
kernels read it: the cross product u x v, the cross-operator rows
a_ij = sum_k eps_ijk v_k, the pair trace sum_ij <c_i x c_j, e_i x e_j>,
the swap trace sum_ij <c_i x e_j, c_j x e_i> and the contraction
p(m)_i = sum_jk eps_ijk m_jk.
They accept int or Fraction coordinates, so callers that scale a common
denominator out can run them over the integers.  No other module knows the
table layout.

A :class:`G2Frame` bundles the table with the induced 3-form phi and its
dual 4-form star_phi.  star_phi is constructed by combinatorial Hodge
duality from phi; the orientation sign is chosen so that the contraction
identity

    sum_i eps_ijk eps_ipq = eps_jkpq + d_jp d_kq - d_jq d_kp

holds (the Cayley table induces the orientation opposite to e^{0...6}, so
its dual carries a global minus sign relative to the standard-orientation
Hodge dual).  The pairing eps_ijkl = <e_i x e_j, e_k x e_l> is then verified
separately by :func:`star_phi_pairing_check`, which also detects the global
sign flip when a frame is forced onto the wrong orientation.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, wraps
from itertools import chain, compress, permutations, product, repeat
from operator import add, mul
from random import Random

from .forms import KForm, hodge, sort_with_sign
from .linalg import DIM, UNIT, Vec7, _Record, integer_coords


_INDICES = range(DIM)


def _dot(a, b):
    """Dot product of two coordinate sequences (int or Fraction)."""
    return sum(map(mul, a, b))


class CrossTable(_Record):
    """Antisymmetric 3-index table with entries in {-1, 0, +1}, stored as a
    7x7 grid of ordered-pair slots: slot (i, j) holds the (k, eps_ijk) with
    nonzero eps_ijk."""

    base_triples: tuple[tuple[int, int, int, int], ...]  # (i<j<k, sign)
    label_offset: int = 0

    def __post_init__(self):
        seen = set()
        grid = [[[] for _ in range(DIM)] for _ in range(DIM)]
        for i, j, k, s in self.base_triples:
            if not (0 <= i < j < k < DIM):
                raise ValueError(f"triple {(i, j, k)} must be strictly increasing in 0..6")
            if s not in (1, -1):
                raise ValueError(f"triple sign must be +-1, got {s}")
            if (i, j, k) in seen:
                raise ValueError(f"duplicate triple {(i, j, k)}")
            seen.add((i, j, k))
            # cyclic permutations keep the sign, transpositions flip it
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                grid[a][b].append((c, s))
                grid[b][a].append((c, -s))
        object.__setattr__(
            self, "_grid", tuple(tuple(tuple(sorted(slot)) for slot in row) for row in grid)
        )
        # the same slots read by their third index: component k of u x v is
        # sum of s (u_a v_b - u_b v_a) over the pairs a < b with (k, s) in slot (a, b)
        component = [[] for _ in range(DIM)]
        for a, row in enumerate(grid):
            for b in range(a + 1, DIM):
                for k, s in row[b]:
                    component[k].append((a, b, s))
        object.__setattr__(self, "_component", tuple(tuple(sorted(c)) for c in component))

    def eps(self, i: int, j: int, k: int) -> int:
        for c, s in self._grid[i][j]:
            if c == k:
                return s
        return 0

    def pair_slots(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """Nonzero (k, eps_ijk) for the ordered pair (i, j); for a valid
        cross-product table this has exactly one entry when i != j."""
        return self._grid[i][j]

    def nonzero_ordered(self) -> tuple[tuple[int, int, int, int], ...]:
        """All ordered (i, j, k, eps_ijk) with nonzero eps; 42 for a valid table."""
        return tuple(
            (i, j, k, s)
            for i, row in enumerate(self._grid)
            for j, slot in enumerate(row)
            for k, s in slot
        )

    def display_triples(self) -> tuple[tuple[int, int, int, int], ...]:
        off = self.label_offset
        return tuple((i + off, j + off, k + off, s) for i, j, k, s in sorted(self.base_triples))

    # The table loops.  Coordinates may be ints or Fractions; zero
    # coordinates are skipped, so crosses with basis vectors stay cheap.

    def cross(self, u, v) -> list:
        """Coordinates of u x v: (u x v)_k = sum_ij eps_ijk u_i v_j."""
        out = [0] * DIM
        vs = [(j, v[j]) for j in compress(_INDICES, v)]
        for i in compress(_INDICES, u):
            ui = u[i]
            row = self._grid[i]
            for j, vj in vs:
                for k, s in row[j]:
                    out[k] += s * ui * vj
        return out

    def cross_rows(self, v) -> list[list]:
        """Rows of the cross operator of v: a_ij = sum_k eps_ijk v_k."""
        rows = [[0] * DIM for _ in range(DIM)]
        for vk, pairs in zip(v, self._component):
            if vk:
                for a, b, s in pairs:
                    x = s * vk
                    rows[a][b] += x
                    rows[b][a] -= x
        return rows

    def pair_trace(self, cols) -> int:
        """sum_ij <c_i x c_j, e_i x e_j> over a grid of 7 coordinate vectors.

        e_i x e_j = sum of eps_ijk e_k over the slot of (i, j), so each pair
        reads only component k of c_i x c_j; the pairs (i, j) and (j, i)
        contribute equally.
        """
        component = self._component
        total = 0
        for i, row in enumerate(self._grid):
            ci = cols[i]
            for j in range(i + 1, DIM):
                cj = cols[j]
                for k, s in row[j]:
                    total += s * sum(e * (ci[a] * cj[b] - ci[b] * cj[a]) for a, b, e in component[k])
        return 2 * total

    def swap_trace(self, cols) -> int:
        """sum_ij <c_i x e_j, c_j x e_i> over a grid of 7 coordinate vectors.

        Component k of c_i x e_j is sum_a eps_ajk c_i[a], so the sum is a
        quadratic form in the 49 coordinates c_i[a], read in one pass over
        its nonzero coefficients (:attr:`_swap_form`, built once per table).
        """
        x = list(chain.from_iterable(cols))
        first, second, coeffs = self._swap_form
        at = x.__getitem__
        return sum(map(mul, coeffs, map(mul, map(at, first), map(at, second))))

    @cached_property
    def _swap_form(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The form of :meth:`swap_trace` as (first index, second index,
        coefficient) columns over the coordinates x[7 i + a] = c_i[a].

        The product c_i[a] c_j[b] has the coefficient sum_k eps_ajk eps_bik;
        both orders of a pair of coordinates are summed into one coefficient.
        """
        by_k = [[] for _ in range(DIM)]
        for a, j, k, s in self.nonzero_ordered():
            by_k[k].append((a, j, s))
        form: dict[tuple[int, int], int] = {}
        for pairs in by_k:
            for a, j, s in pairs:
                for b, i, t in pairs:
                    key = tuple(sorted((DIM * i + a, DIM * j + b)))
                    form[key] = form.get(key, 0) + s * t
        terms = sorted((key, c) for key, c in form.items() if c)
        return tuple(p for (p, _), _ in terms), tuple(q for (_, q), _ in terms), tuple(c for _, c in terms)

    @cached_property
    def _basis_products(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The 49 basis products: P[i][j] holds the coordinates of e_i x e_j,
        each from :meth:`cross`; the exhaustive checks read these."""
        return tuple(tuple(tuple(self.cross(UNIT[i], UNIT[j])) for j in _INDICES) for i in _INDICES)

    @cached_property
    def _product_pairings(self) -> tuple[tuple[int, ...], ...]:
        """<e_j x e_k, e_p x e_q> as 49 blocks, one per (j, k), of 49 entries
        indexed 7 p + q, for both exhaustive pairing checks; block (j, k) is
        the sum over the nonzero v[i] of v = e_j x e_k of v[i] times
        component i of every e_p x e_q."""
        flat = tuple(chain.from_iterable(self._basis_products))
        by_coordinate = tuple(zip(*flat))  # component i of every e_p x e_q
        blocks = []
        for v in flat:
            block = (0,) * len(flat)
            for i in compress(_INDICES, v):
                block = tuple(map(add, block, map(mul, repeat(v[i]), by_coordinate[i])))
            blocks.append(block)
        return tuple(blocks)

    def contract(self, m) -> list:
        """The contraction p(m)_i = sum_jk eps_ijk m_jk of a 7x7 grid m."""
        out = [0] * DIM
        for i, row in enumerate(self._grid):
            for slot, mj in zip(row, m):
                for k, s in slot:
                    x = mj[k]
                    if x:
                        out[i] += s * x
        return out


class G2Frame(_Record):
    table: CrossTable
    phi: KForm
    star_phi: KForm
    orientation: int
    name: str = "custom"

    @property
    def label_offset(self) -> int:
        return self.table.label_offset

    @cached_property
    def _star_phi_values(self) -> tuple[tuple, ...]:
        """star_phi(e_j, e_k, e_p, e_q) as 49 blocks, one per (j, k), of 49
        entries indexed 7 p + q, read off star_phi's monomials once per
        frame; the exhaustive checks share it."""
        blocks = [[0] * (DIM * DIM) for _ in range(DIM * DIM)]
        for key, _ in self.star_phi.terms():
            for j, k, p, q in permutations(key):
                blocks[DIM * j + k][DIM * p + q] = self.star_phi.coeff((j, k, p, q))
        return tuple(map(tuple, blocks))

    @staticmethod
    def from_table(table: CrossTable, orientation: int | None = None, name: str = "custom") -> G2Frame:
        phi = KForm(3, {(i, j, k): s for i, j, k, s in table.base_triples})
        plus_dual = hodge(phi, 1)
        if orientation is None:
            orientation = _detect_orientation(table, plus_dual)
        star_phi = plus_dual if orientation == 1 else -plus_dual
        return G2Frame(table=table, phi=phi, star_phi=star_phi, orientation=orientation, name=name)


def per_frame(build):
    """Memoize build(frame) on the frame: the value is kept in the frame's
    own ``__dict__`` under the builder's name, as :func:`cached_property`
    keeps it, so a fresh frame starts cold and ``==``/``repr`` ignore it."""
    name = build.__name__

    @wraps(build)
    def memoized(frame):
        store = frame.__dict__
        if name not in store:
            store[name] = build(frame)
        return store[name]

    return memoized


def _detect_orientation(table: CrossTable, plus_dual: KForm) -> int:
    """Majority vote over the dual's monomials comparing the cross pairing.

    For a genuine cross-product table all quadruples agree; the vote keeps
    the constructor total on corrupted tables (checks will then fail).
    """
    votes = 0
    for (i, j, k, l), coeff in plus_dual.terms():
        pairing = _dot(table.cross(UNIT[i], UNIT[j]), table.cross(UNIT[k], UNIT[l]))
        if pairing == coeff:
            votes += 1
        elif pairing == -coeff:
            votes -= 1
    return 1 if votes >= 0 else -1


@lru_cache(maxsize=None)
def build_standard_frame() -> G2Frame:
    """Frame whose phi is e^123 + e^145 + e^167 + e^246 - e^257 - e^347 - e^356
    in labels 1..7 (internally 0-based).

    Built once per process: a frame and its forms are never modified, so
    every caller shares the same instance."""
    triples = (
        (0, 1, 2, 1),
        (0, 3, 4, 1),
        (0, 5, 6, 1),
        (1, 3, 5, 1),
        (1, 4, 6, -1),
        (2, 3, 6, -1),
        (2, 4, 5, -1),
    )
    return G2Frame.from_table(CrossTable(triples, label_offset=1), name="standard")


@lru_cache(maxsize=None)
def build_cayley_frame() -> G2Frame:
    """Frame with e_i x e_{i+1} = e_{i+3}, indices mod 7, labels 0..6; built
    once per process, like :func:`build_standard_frame`."""
    base: dict[tuple[int, int, int], int] = {}
    for i in range(DIM):
        key, sign = sort_with_sign((i, (i + 1) % DIM, (i + 3) % DIM))
        base[key] = sign
    triples = tuple((i, j, k, s) for (i, j, k), s in sorted(base.items()))
    return G2Frame.from_table(CrossTable(triples, label_offset=0), name="cayley")


def cross(u: Vec7, v: Vec7, frame: G2Frame) -> Vec7:
    """Cross product u x v induced by the frame's table, formed from the
    integer grids of u and v and divided once."""
    a, da = integer_coords(u)
    b, db = integer_coords(v)
    return Vec7.from_ints(frame.table.cross(a, b), da * db)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


class CheckReport(_Record):
    name: str
    passed: bool
    counts: tuple[tuple[str, int], ...] = ()
    failures: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()


def check_epsilon_identities(frame: G2Frame) -> CheckReport:
    """Exhaustive contraction identities of the 3- and 4-index tables.

    Checks sum_ij eps_ijk eps_ijl = 6 d_kl over all (k, l) and
    sum_i eps_ijk eps_ipq = eps_jkpq + d_jp d_kq - d_jq d_kp over all
    7^4 tuples (j, k, p, q), with eps_jkpq read off star_phi.  Since
    e_j x e_k = sum_i eps_ijk e_i, the left-hand side is
    <e_j x e_k, e_p x e_q>; the 7^4 tuples are compared as 49 blocks, one
    per (j, k), and only a block that differs is read entry by entry.
    """
    pairings = frame.table._product_pairings
    failures = []
    checked = 0
    for k in range(DIM):
        for l in range(DIM):
            total = sum(pairings[DIM * j + k][DIM * j + l] for j in range(DIM))
            checked += 1
            if total != (6 if k == l else 0):
                failures.append(f"contraction over two indices fails at (k,l)=({k},{l}): {total}")
    size = DIM * DIM
    for block, (lhs, star) in enumerate(zip(pairings, frame._star_phi_values)):
        j, k = divmod(block, DIM)
        rhs = list(star)
        rhs[block] += 1  # d_jp d_kq at (p, q) = (j, k)
        rhs[DIM * k + j] -= 1  # d_jq d_kp at (p, q) = (k, j)
        if list(lhs) == rhs:
            checked += size
            continue
        for entry in range(size):
            checked += 1
            if lhs[entry] != rhs[entry]:
                p, q = divmod(entry, DIM)
                failures.append(
                    f"contraction over one index fails at (j,k,p,q)=({j},{k},{p},{q}): {lhs[entry]} != {rhs[entry]}"
                )
                if len(failures) > 3:
                    break
        if len(failures) > 3:
            break
    return CheckReport(
        name="epsilon-identities",
        passed=not failures,
        counts=(("cases", checked),),
        failures=tuple(failures[:3]),
    )


def _triple_failure(table: CrossTable, u, v, w) -> str | None:
    """The first of rule1..rule3 that fails on (u, v, w), or None.

    Coordinates are integers here: every rule is homogeneous in u, in v and
    in w separately, so scaling each vector by its own denominator is exact.
    """
    vw = table.cross(v, w)
    if _dot(table.cross(u, v), w) != _dot(u, vw):
        return "rule1"
    uw = table.cross(u, w)
    u_w = _dot(u, w)
    u_u = _dot(u, u)
    if table.cross(u, uw) != [u_w * a - u_u * c for a, c in zip(u, w)]:
        return "rule2"
    v_w = _dot(v, w)
    u_v2 = 2 * _dot(u, v)
    rhs3 = [u_w * b + v_w * a - u_v2 * c - x for x, a, b, c in zip(table.cross(v, uw), u, v, w)]
    if table.cross(u, vw) != rhs3:
        return "rule3"
    return None


def _basis_triple_rules(table: CrossTable):
    """(first failing rule or None, i, j, k) for each basis triple in
    lexicographic order: :func:`_triple_failure` on (e_i, e_j, e_k), read
    off the basis products P.

    Rule 1 compares P[i][j][k] with P[j][k][i].  Rule 2 depends on (i, k)
    only and is evaluated once per pair.  Rule 3 compares
    e_i x P[j][k] + e_j x P[i][k] with d_ik e_j + d_jk e_i - 2 d_ij e_k.
    """
    products = table._basis_products
    # nested[a][b][c] = e_a x (e_b x e_c)
    nested = [[[tuple(table.cross(UNIT[a], x)) for x in pb] for pb in products] for a in _INDICES]
    rule2 = [
        [nested[i][i][k] == tuple(a * (i == k) - c for a, c in zip(UNIT[i], UNIT[k])) for k in _INDICES]
        for i in _INDICES
    ]
    zero = (0,) * DIM
    for i, j, k in product(_INDICES, repeat=3):
        if products[i][j][k] != products[j][k][i]:
            yield "rule1", i, j, k
        elif not rule2[i][k]:
            yield "rule2", i, j, k
        else:
            rhs3 = zero if i != j != k != i else tuple(
                (i == k) * b + (j == k) * a - 2 * (i == j) * c for a, b, c in zip(UNIT[i], UNIT[j], UNIT[k])
            )
            yield ("rule3" if tuple(map(add, nested[i][j][k], nested[j][i][k])) != rhs3 else None), i, j, k


def validate_cross_axioms(frame: G2Frame, seed: int = 0, trials: int = 200) -> CheckReport:
    """Exhaustive basis-triple and seeded random checks of the product rules.

    Rule 1: <u x v, w> = <u, v x w>.
    Rule 2: u x (u x w) = <u, w> u - |u|^2 w.
    Rule 3: u x (v x w) = -v x (u x w) + <u, w> v + <v, w> u - 2 <u, v> w.
    """
    from .sampling import rand_vec

    table = frame.table
    failures: list[str] = []
    for basis_cases, (rule, i, j, k) in enumerate(_basis_triple_rules(table), 1):
        if rule:
            failures.append(f"{rule} fails on basis ({i},{j},{k})")
            break

    rng = Random(seed)
    random_cases = 0
    if not failures:
        for t in range(trials):
            u, v, w = (integer_coords(rand_vec(rng))[0] for _ in range(3))
            random_cases += 1
            rule = _triple_failure(table, u, v, w)
            if rule:
                failures.append(f"{rule} fails on seeded trial {t}")
                break

    return CheckReport(
        name="cross-product-axioms",
        passed=not failures,
        counts=(("basis_triples", basis_cases), ("seeded_triples", random_cases)),
        failures=tuple(failures),
    )


def star_phi_pairing_check(frame: G2Frame) -> CheckReport:
    """Verify star_phi(e_i,e_j,e_k,e_l) = <e_i x e_j, e_k x e_l> on all 840
    ordered distinct quadruples, reading the pairings of the basis products;
    reports whether a single global sign would reconcile a systematic
    mismatch (orientation sensitivity)."""
    pairings = frame.table._product_pairings
    star = frame._star_phi_values
    match = 0
    flipped = 0
    both_zero = 0
    total = 0
    first_bad = None
    for quad in permutations(range(DIM), 4):
        i, j, k, l = quad
        pairing = pairings[DIM * i + j][DIM * k + l]
        value = star[DIM * i + j][DIM * k + l]
        total += 1
        if value == pairing == 0:
            both_zero += 1
        elif value == pairing:
            match += 1
        elif value == -pairing != 0:
            flipped += 1
        elif first_bad is None:
            first_bad = f"quadruple {quad}: star_phi={value}, pairing={pairing}"
    nonzero = total - both_zero
    if first_bad is not None or match + flipped != nonzero:
        verdict, passed = "fail", False
    elif flipped == 0:
        verdict, passed = "pass", True
    elif match == 0:
        verdict, passed = "global-sign", True
    else:
        verdict, passed = "fail", False
    notes = (f"verdict: {verdict}",)
    if verdict == "global-sign":
        notes += ("a single global sign flip of star_phi reconciles all quadruples",)
    return CheckReport(
        name="star-phi-pairing",
        passed=passed,
        counts=(("quadruples", total), ("matching", match), ("sign_flipped", flipped)),
        failures=(first_bad,) if first_bad else (),
        notes=notes,
    )

