import re
from random import Random

import pytest

from g2kit.forms import hodge
from g2kit.frames import (
    CrossTable,
    G2Frame,
    build_cayley_frame,
    build_standard_frame,
    check_epsilon_identities,
    cross,
    star_phi_pairing_check,
    validate_cross_axioms,
)
from g2kit.linalg import DIM, Vec7
from g2kit.sampling import rand_vec


def hodge_dual_oracle(triple: tuple[int, int, int]) -> tuple[tuple[int, ...], int]:
    """Independent complement-and-inversion-count oracle for star(e^ijk)."""
    comp = tuple(sorted(set(range(DIM)) - set(triple)))
    seq = triple + comp
    inversions = sum(
        1 for a in range(DIM) for b in range(a + 1, DIM) if seq[a] > seq[b]
    )
    return comp, (-1) ** inversions


def test_standard_frame_phi_terms(standard):
    # labels 1..7: e123 + e145 + e167 + e246 - e257 - e347 - e356
    assert standard.label_offset == 1
    assert standard.table.eps(0, 1, 2) == 1  # eps_123
    assert standard.table.eps(0, 3, 4) == 1  # eps_145
    assert standard.table.eps(1, 4, 6) == -1  # eps_257
    assert standard.table.eps(2, 3, 6) == -1  # eps_347
    assert standard.table.eps(2, 4, 5) == -1  # eps_356


def test_standard_star_phi_e4567_via_oracle(standard):
    # duals computed by an independent complement-sign oracle
    comp, sign = hodge_dual_oracle((0, 1, 2))
    assert comp == (3, 4, 5, 6) and sign == 1
    assert standard.star_phi.coeff((3, 4, 5, 6)) == 1  # e4567 in labels 1..7
    for i, j, k, s in standard.table.base_triples:
        comp, sign = hodge_dual_oracle((i, j, k))
        assert standard.star_phi.coeff(comp) == s * sign * standard.orientation


def test_cayley_frame_rules(cayley):
    assert cayley.label_offset == 0
    for i in range(DIM):
        a, b, c = i, (i + 1) % DIM, (i + 3) % DIM
        assert cayley.table.eps(a, b, c) == 1  # e_i x e_{i+1} = e_{i+3}
        assert cayley.table.eps(a, c, b) == -1  # e_i x e_{i+3} = -e_{i+1}
        assert cayley.table.eps(b, c, a) == 1  # e_{i+1} x e_{i+3} = e_i
    assert cayley.table.eps(1, 2, 4) == 1
    assert cayley.table.eps(3, 1, 0) == -1  # antisymmetrisation of eps_013 = 1


def test_table_entry_counts(frame):
    assert len(frame.table.base_triples) == 7
    assert len(frame.table.nonzero_ordered()) == 42
    assert all(s in (1, -1) for _, _, _, s in frame.table.nonzero_ordered())


def test_phi_evaluates_to_eps(frame):
    for i in range(DIM):
        for j in range(DIM):
            for k in range(DIM):
                assert frame.phi.coeff((i, j, k)) == frame.table.eps(i, j, k)


def test_epsilon_identities_exhaustive(frame):
    rep = check_epsilon_identities(frame)
    assert rep.passed, rep.failures


def test_cross_basis_cases(standard, cayley):
    e = Vec7.basis
    assert cross(e(0), e(1), standard) == e(2)  # e1 x e2 = e3 in labels
    assert cross(e(1), e(4), standard) == -e(6)  # e2 x e5 = -e7
    assert cross(e(0), e(1), cayley) == e(3)  # e0 x e1 = e3
    u = rand_vec(Random(0))
    assert cross(u, u, standard).is_zero()


def test_cross_orthogonality_and_norm_1000_pairs(frame):
    rng = Random(11)
    for _ in range(1000):
        u, v = rand_vec(rng), rand_vec(rng)
        w = cross(u, v, frame)
        assert w.dot(u) == 0
        assert w.dot(v) == 0
        assert w.norm_sq() == u.norm_sq() * v.norm_sq() - u.dot(v) ** 2


def test_cross_axioms(frame):
    rep = validate_cross_axioms(frame, seed=0, trials=150)
    assert rep.passed, rep.failures


def test_star_phi_pairing(frame):
    rep = star_phi_pairing_check(frame)
    assert rep.passed
    assert dict(rep.counts)["quadruples"] == 840
    assert "verdict: pass" in rep.notes


def test_repeated_index_quadruple_trivial(frame):
    # both sides vanish, so repeated indices sit outside the distinct claim
    assert frame.star_phi.coeff((0, 0, 1, 2)) == 0
    assert cross(Vec7.basis(0), Vec7.basis(0), frame).dot(cross(Vec7.basis(1), Vec7.basis(2), frame)) == 0


def test_forced_wrong_orientation_reports_global_sign(cayley):
    forced = G2Frame.from_table(cayley.table, orientation=1)
    rep = star_phi_pairing_check(forced)
    assert rep.passed  # global sign still reconciles
    assert "verdict: global-sign" in rep.notes


def test_corrupt_table_fails_with_witness():
    triples = list(build_standard_frame().table.base_triples)
    triples[0] = (0, 1, 2, -1)  # flip eps_123 only
    frame = G2Frame.from_table(CrossTable(tuple(triples), label_offset=1))
    rep = validate_cross_axioms(frame, seed=0, trials=20)
    assert not rep.passed
    assert rep.failures  # names the violated rule and witness
    assert not check_epsilon_identities(frame).passed


def test_orientations(standard, cayley):
    assert standard.orientation == 1
    assert cayley.orientation == -1
    assert cayley.star_phi == -hodge(cayley.phi, 1)


def test_pair_slots_unique(frame):
    for i in range(DIM):
        for j in range(DIM):
            slots = frame.table.pair_slots(i, j)
            if i == j:
                assert slots == ()
            else:
                assert len(slots) == 1


def test_display_triples(standard, cayley):
    assert (1, 2, 3, 1) in standard.table.display_triples()
    assert (2, 5, 7, -1) in standard.table.display_triples()
    assert (0, 1, 3, 1) in cayley.table.display_triples()


def test_crosstable_rejects_malformed():
    with pytest.raises(ValueError, match=re.escape("triple (0, 0, 1) must be strictly increasing in 0..6")):
        CrossTable(((0, 0, 1, 1),))
    with pytest.raises(ValueError, match=re.escape("triple (0, 1, 7) must be strictly increasing in 0..6")):
        CrossTable(((0, 1, 7, 1),))
    with pytest.raises(ValueError, match=re.escape("triple sign must be +-1, got 2")):
        CrossTable(((0, 1, 2, 2),))
    with pytest.raises(ValueError, match=re.escape("duplicate triple (0, 1, 2)")):
        CrossTable(((0, 1, 2, 1), (0, 1, 2, -1)))


def test_frame_builders_return_one_shared_frame():
    for build in (build_standard_frame, build_cayley_frame):
        first = build()
        assert build() is first
        # the shared frame is the one a fresh construction gives
        fresh = G2Frame.from_table(CrossTable(first.table.base_triples, first.table.label_offset), name=first.name)
        assert fresh == first
