from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from g2kit.forms import FORM, TENSOR, KForm, form_inner, form_norm_sq, hodge, wedge
from g2kit.invariants import i0
from g2kit.liealg import (
    HEISENBERG_REFERENCE_CONNECTION,
    CurvatureTensor,
    MetricLieAlgebra,
    TorsionSolveError,
    _lambda2_14_forms,
    _lambda3_27_forms,
    alt_scalar_curvature,
    bryant_scalar_check,
    ce_differential,
    codifferential,
    connection_reference_diff,
    curvature,
    curvature_diagonal,
    derivation_action,
    divergence_balance,
    g2perp_scalar_curvature,
    geometry_torsion_report,
    heisenberg_model,
    koszul,
    nabla_form,
    nearly_parallel_torsion_check,
    r_map,
    scalar_curvature,
    torsion_endo_from_geometry,
    torsion_forms,
)
from g2kit.linalg import DIM, Mat7, Vec7
from g2kit.sampling import rand_fraction, rand_two_step_nilpotent, rand_vec
from g2kit.so7 import cross_operator, skew_to_vector
from g2kit.torsion import classify


def test_algebra_construction_and_validation():
    mla = MetricLieAlgebra.from_nonzero({(0, 5): {6: 1}, (4, 5): {1: 1}})
    assert mla.c(0, 5, 6) == 1
    assert mla.c(5, 0, 6) == -1
    assert mla.jacobi_defect() is None
    assert mla.is_unimodular()
    # [[e0,e1],e2] = [e1,e2] = e3 is the lone surviving cyclic term
    bad = MetricLieAlgebra.from_nonzero({(0, 1): {1: 1}, (1, 2): {3: 1}})
    assert bad.jacobi_defect() == (0, 1, 2)
    with pytest.raises(ValueError):
        koszul(bad)


def test_koszul_abelian_is_flat():
    conn = koszul(MetricLieAlgebra.abelian())
    assert all(conn.nabla(i, j).is_zero() for i in range(DIM) for j in range(DIM))


def test_koszul_heisenberg_entries():
    mla, _, _ = heisenberg_model()
    conn = koszul(mla)
    assert conn.nabla(0, 5) == Vec7.basis(6).scale(Fraction(1, 2))
    assert conn.nabla(5, 0) == Vec7.basis(6).scale(Fraction(-1, 2))
    assert conn.nabla(6, 5) == Vec7.basis(0).scale(Fraction(1, 2))
    assert conn.nabla(4, 5) == Vec7.basis(1).scale(Fraction(1, 2))  # differs from reference


def test_koszul_invariants_random():
    rng = Random(0)
    for _ in range(20):
        mla = rand_two_step_nilpotent(rng)
        conn = koszul(mla)
        assert conn.is_metric()
        assert conn.torsion_defect(mla) is None


def test_connection_reference_diff_is_single_entry():
    mla, _, _ = heisenberg_model()
    diff = connection_reference_diff(koszul(mla))
    assert [(i, j) for i, j, _, _ in diff] == [(4, 5)]
    _, _, derived, reference = diff[0]
    assert derived == Vec7.basis(1).scale(Fraction(1, 2))
    assert reference == Vec7.basis(1).scale(Fraction(-1, 2))
    assert len(HEISENBERG_REFERENCE_CONNECTION) == 12


def test_curvature_abelian_and_symmetries():
    assert scalar_curvature(curvature(koszul(MetricLieAlgebra.abelian()), MetricLieAlgebra.abelian())) == 0
    rng = Random(1)
    for _ in range(5):
        mla = rand_two_step_nilpotent(rng)
        r = curvature(koszul(mla), mla)
        assert r.symmetry_defects() == []


def reference_curvature(conn, mla):
    """R(e_i, e_j) = [nabla_i, nabla_j] - sum_m c^m_ij nabla_m over Fraction
    matrices, the formula the integer kernel replaces."""
    ops = [conn.operator(i) for i in range(DIM)]
    comps = []
    for i in range(DIM):
        row = []
        for j in range(DIM):
            op = ops[i] @ ops[j] - ops[j] @ ops[i]
            cij = mla.brackets[i][j]
            for m in range(DIM):
                if cij[m] != 0:
                    op = op - ops[m].scale(cij[m])
            row.append(tuple(tuple(op.entries[l][k] for l in range(DIM)) for k in range(DIM)))
        comps.append(tuple(row))
    return CurvatureTensor(tuple(comps))


def test_integer_curvature_matches_fraction_route():
    rng = Random(13)
    algebras = [rand_two_step_nilpotent(rng) for _ in range(5)]
    # so(3) + R^4 with brackets scaled by 2/3: not nilpotent, not unimodular-trivial
    lam = Fraction(2, 3)
    algebras.append(MetricLieAlgebra.from_nonzero({(0, 1): {2: lam}, (1, 2): {0: lam}, (0, 2): {1: -lam}}))
    for mla in algebras:
        conn = koszul(mla)
        assert curvature(conn, mla) == reference_curvature(conn, mla)
    # a connection paired with another algebra's brackets: the common
    # denominator must cover the structure constants too
    conn = koszul(algebras[0])
    assert curvature(conn, algebras[-1]) == reference_curvature(conn, algebras[-1])


def test_curvature_heisenberg_values():
    mla, _, _ = heisenberg_model()
    r = curvature(koszul(mla), mla)
    # hand expansion of the three-term formula on the 0-5-6 block:
    # R(e0,e5)e5 = -nabla_5(e6/2) - nabla_6 e5 = -e0/4 - e0/2
    assert r.value(0, 5, 5, 0) == Fraction(-3, 4)
    assert r.value(0, 6, 6, 0) == Fraction(1, 4)
    assert scalar_curvature(r) == -1
    diag = curvature_diagonal(r)
    values = sorted(v for _, _, v in diag)
    assert values.count(Fraction(-3, 4)) == 4
    assert values.count(Fraction(1, 4)) == 8
    assert len(values) == 12
    pairs = {(i, j) for i, j, _ in diag}
    assert pairs == {
        (5, 0), (6, 0), (4, 1), (5, 1), (1, 4), (5, 4),
        (0, 5), (1, 5), (4, 5), (6, 5), (0, 6), (5, 6),
    }


def test_g2perp_scalar_curvature(cayley):
    mla, frame, _ = heisenberg_model()
    r = curvature(koszul(mla), mla)
    assert g2perp_scalar_curvature(r, frame) == Fraction(-1, 3)
    rng = Random(2)
    for _ in range(15):
        mla = rand_two_step_nilpotent(rng)
        r = curvature(koszul(mla), mla)
        assert g2perp_scalar_curvature(r, cayley) == scalar_curvature(r) / 3


def test_alt_scalar_curvature(frame):
    assert alt_scalar_curvature(Mat7.zero(), frame) == 0
    _, heis_frame, t = heisenberg_model()
    assert alt_scalar_curvature(t, heis_frame) == Fraction(1, 3)
    rng = Random(3)
    from g2kit.sampling import rand_mat

    for _ in range(50):
        m = rand_mat(rng)
        assert alt_scalar_curvature(m, frame) == i0(m, frame)


def test_divergence_balance():
    mla, frame, t = heisenberg_model()
    r = curvature(koszul(mla), mla)
    rep = divergence_balance(t, r, frame)
    assert rep.balanced is True
    assert rep.rhs_total == 0
    assert rep.s_alt == Fraction(1, 3)
    assert rep.s_g2perp == Fraction(-1, 3)
    assert rep.chi_sq == 0
    assert rep.alt_sq == Fraction(1, 6)
    assert rep.sym_sq == Fraction(1, 2)
    # type-X4 input: the |chi|^2 term is 36|Z|^2 and balance is not asserted
    z = rand_vec(Random(4))
    rep = divergence_balance(cross_operator(z, frame).mat, r, frame)
    assert rep.chi_sq == 36 * z.norm_sq()
    assert rep.balanced is None
    # zero torsion against a flat curvature: every summand vanishes
    flat = curvature(koszul(MetricLieAlgebra.abelian()), MetricLieAlgebra.abelian())
    rep = divergence_balance(Mat7.zero(), flat, frame)
    assert rep == divergence_balance(Mat7.zero(), flat, frame)
    assert (rep.s_alt, rep.s_g2perp, rep.chi_sq, rep.alt_sq, rep.sym_sq, rep.rhs_total) == (0, 0, 0, 0, 0, 0)
    assert rep.balanced is True


def test_ce_differential_heisenberg():
    mla, _, _ = heisenberg_model()
    de6 = ce_differential(mla, KForm.monomial((6,)))
    assert de6 == KForm(2, {(0, 5): -1})
    assert ce_differential(mla, de6).is_zero()
    de1 = ce_differential(mla, KForm.monomial((1,)))
    assert de1 == KForm(2, {(4, 5): -1})


def test_ce_differential_abelian_and_d_squared():
    abelian = MetricLieAlgebra.abelian()
    rng = Random(5)
    for k in range(0, 6):
        terms = {
            key: rand_fraction(rng)
            for key in combinations(range(DIM), k)
            if rng.random() < 0.4
        }
        a = KForm(k, terms)
        assert ce_differential(abelian, a).is_zero()
    for _ in range(5):
        mla = rand_two_step_nilpotent(rng)
        for k in range(0, 6):
            terms = {
                key: rand_fraction(rng)
                for key in combinations(range(DIM), k)
                if rng.random() < 0.4
            }
            a = KForm(k, terms)
            assert ce_differential(mla, ce_differential(mla, a)).is_zero()


def test_codifferential_adjoint_on_unimodular():
    rng = Random(6)
    for _ in range(5):
        mla = rand_two_step_nilpotent(rng)
        assert mla.is_unimodular()
        for k in range(0, 6):
            a = KForm(
                k,
                {key: rand_fraction(rng) for key in combinations(range(DIM), k) if rng.random() < 0.5},
            )
            b = KForm(
                k + 1,
                {key: rand_fraction(rng) for key in combinations(range(DIM), k + 1) if rng.random() < 0.5},
            )
            assert form_inner(ce_differential(mla, a), b) == form_inner(a, codifferential(mla, b))
    # orientation drops out
    mla = rand_two_step_nilpotent(rng)
    c = KForm(2, {(0, 1): Fraction(1), (2, 4): Fraction(-2)})
    assert codifferential(mla, c, 1) == codifferential(mla, c, -1)


def test_derivation_action_matches_direct_evaluation(frame):
    # (a * phi)(Y, Z, W) = phi(aY, Z, W) + phi(Y, aZ, W) + phi(Y, Z, aW)
    from g2kit.sampling import rand_mat

    rng = Random(7)
    a = rand_mat(rng)
    acted = derivation_action(a, frame.phi)
    cols = a.columns()
    for key in combinations(range(DIM), 3):
        y, z, w = key
        direct = (
            sum(cols[y][l] * frame.phi.coeff((l, z, w)) for l in range(DIM))
            + sum(cols[z][l] * frame.phi.coeff((y, l, w)) for l in range(DIM))
            + sum(cols[w][l] * frame.phi.coeff((y, z, l)) for l in range(DIM))
        )
        assert acted.coeff(key) == direct


def test_nabla_form_abelian_and_heisenberg():
    abelian = MetricLieAlgebra.abelian()
    conn = koszul(abelian)
    frame = heisenberg_model()[1]
    assert all(f.is_zero() for f in nabla_form(conn, frame.phi))
    mla, frame, _ = heisenberg_model()
    nphi = nabla_form(koszul(mla), frame.phi)
    expected = KForm(
        3,
        {(2, 3, 6): Fraction(1, 2), (3, 4, 5): Fraction(-1, 2),
         (0, 4, 6): Fraction(1, 2), (0, 2, 5): Fraction(-1, 2)},
    )
    assert nphi[0] == expected
    assert nphi[2].is_zero() and nphi[3].is_zero() and nphi[5].is_zero()


def test_torsion_endo_from_geometry_heisenberg():
    mla, frame, t_ref = heisenberg_model()
    t = torsion_endo_from_geometry(nabla_form(koszul(mla), frame.phi), frame)
    assert t == t_ref
    assert t.column(0) == Vec7.basis(1).scale(Fraction(1, 6))
    assert t.column(4) == Vec7.basis(6).scale(Fraction(-1, 6))
    assert t.column(6) == Vec7.basis(4).scale(Fraction(1, 6))


def test_torsion_endo_abelian_is_zero(frame):
    nphi = nabla_form(koszul(MetricLieAlgebra.abelian()), frame.phi)
    assert torsion_endo_from_geometry(nphi, frame) == Mat7.zero()


def test_r_map_reproduces_reference_two_form():
    mla, frame, _ = heisenberg_model()
    nphi = nabla_form(koszul(mla), frame.phi)
    grid = r_map(nphi, frame)
    expected = Mat7.zero()
    half = Fraction(1, 2)
    rows = [[Fraction(0)] * DIM for _ in range(DIM)]
    rows[0][1], rows[1][0] = half, -half  # (1/2) e^01
    rows[4][6], rows[6][4] = -half, half  # -(1/2) e^46
    assert grid == Mat7.from_rows(rows)


def test_geometry_report_matches_form_convention(frame):
    rng = Random(8)
    for _ in range(4):
        mla = rand_two_step_nilpotent(rng)
        nphi = nabla_form(koszul(mla), frame.phi)
        rep = geometry_torsion_report(nphi, frame)
        assert rep.matched_convention == FORM
        # round-trip: nabla_phi equals the torsion slices acting on phi
        for i in range(DIM):
            acted = derivation_action(cross_operator(rep.torsion.column(i), frame).mat, frame.phi)
            assert acted == nphi[i]


def test_lambda_bases_dimensions(frame):
    assert len(_lambda2_14_forms(frame.table)) == 14
    basis27 = _lambda3_27_forms(frame.table, frame.orientation)
    assert len(basis27) == 27
    for gamma in basis27:
        assert wedge(gamma, frame.phi).is_zero()
        assert wedge(gamma, frame.star_phi).is_zero()
        assert form_inner(gamma, frame.phi) == 0


def test_torsion_forms_heisenberg():
    mla, frame, _ = heisenberg_model()
    tf = torsion_forms(mla, frame)
    assert tf.tau0 == 0
    assert tf.tau1.is_zero()
    assert tf.tau3.is_zero()
    assert tf.tau2 == KForm(2, {(0, 1): 1, (4, 6): -1})
    assert form_norm_sq(tf.tau2, FORM) == 2
    assert tf.class_flags() == frozenset({"X2"})
    # defining equations hold with zero residual
    assert ce_differential(mla, frame.phi).is_zero()
    dstar = ce_differential(mla, frame.star_phi)
    assert wedge(tf.tau2, frame.phi) == dstar
    # tau2 lies in the 14-dimensional summand
    from g2kit.forms import matrix_from_two_form

    assert skew_to_vector(matrix_from_two_form(tf.tau2), frame).is_zero()


def test_torsion_forms_abelian(frame):
    tf = torsion_forms(MetricLieAlgebra.abelian(), frame)
    assert tf.tau0 == 0 and tf.tau1.is_zero() and tf.tau2.is_zero() and tf.tau3.is_zero()


def test_torsion_forms_residual_equations_random(cayley):
    rng = Random(9)
    for _ in range(6):
        mla = rand_two_step_nilpotent(rng)
        tf = torsion_forms(mla, cayley)
        dphi = ce_differential(mla, cayley.phi)
        dstar = ce_differential(mla, cayley.star_phi)
        lhs1 = (
            cayley.star_phi.scale(tf.tau0)
            + wedge(tf.tau1, cayley.phi).scale(3)
            + hodge(tf.tau3, cayley.orientation)
        )
        assert lhs1 == dphi
        lhs2 = wedge(tf.tau1, cayley.star_phi).scale(4) + wedge(tf.tau2, cayley.phi)
        assert lhs2 == dstar
        # flags agree with the endomorphism classification
        t = torsion_endo_from_geometry(nabla_form(koszul(mla), cayley.phi), cayley)
        assert tf.class_flags() == classify(t, cayley).flags


def test_torsion_forms_synthetic_nearly_parallel(frame):
    # d phi := -8 lambda0 star_phi, d star_phi := 0 matches tau0 = -8 lambda0
    lam = Fraction(3, 2)
    dphi = frame.star_phi.scale(-8 * lam)
    # solve the tau0 coefficient directly: the 1-part of Lambda^4 is spanned
    # by star_phi, and the synthetic input sits entirely inside it
    coeff = form_inner(dphi, frame.star_phi) / form_inner(frame.star_phi, frame.star_phi)
    assert coeff == -8 * lam


def test_bryant_scalar_heisenberg():
    mla, frame, _ = heisenberg_model()
    rep = bryant_scalar_check(mla, frame, Fraction(-1), torsion_forms(mla, frame))
    assert rep.scalar == -1
    assert rep.reconciling == (FORM,)
    assert dict(rep.rhs_by_convention)[FORM] == -1
    assert rep.forms.norms_sq(FORM)["tau2_sq"] == 2
    assert rep.delta_tau1 == 0


def test_bryant_scalar_abelian(frame):
    mla = MetricLieAlgebra.abelian()
    rep = bryant_scalar_check(mla, frame, scalar_curvature(curvature(koszul(mla), mla)), torsion_forms(mla, frame))
    assert rep.scalar == 0
    assert FORM in rep.reconciling and TENSOR in rep.reconciling


def test_bryant_scalar_random_regression(cayley):
    rng = Random(10)
    for _ in range(6):
        mla = rand_two_step_nilpotent(rng)
        s = scalar_curvature(curvature(koszul(mla), mla))
        rep = bryant_scalar_check(mla, cayley, s, torsion_forms(mla, cayley))
        assert FORM in rep.reconciling


def test_nearly_parallel_check(frame):
    rep = nearly_parallel_torsion_check(1, frame)
    assert rep.torsion_is_expected_multiple
    assert rep.expected_scalar == 168
    assert dict(rep.check_27_by_convention)[FORM] == 168
    assert rep.check_27_reconciling == (FORM,)
    assert rep.scalar_formula_reconciling == (TENSOR,)
    assert dict(rep.tor_sq_by_convention)[FORM] == Fraction(112, 9)
    # 3136/18 - |Tor|^2/12 balances under the tensor-norm convention
    assert dict(rep.scalar_formula_by_convention)[TENSOR] == 168
    assert rep.passed

    zero = nearly_parallel_torsion_check(0, frame)
    assert zero.expected_scalar == 0
    assert zero.torsion_is_expected_multiple

    rng = Random(11)
    for _ in range(10):
        lam = rand_fraction(rng)
        rep = nearly_parallel_torsion_check(lam, frame)
        assert rep.torsion_is_expected_multiple
        assert dict(rep.check_27_by_convention)[FORM] == 168 * lam * lam


def test_heisenberg_model_data():
    mla, frame, t = heisenberg_model()
    assert frame.name == "cayley"
    assert mla.nonzero_entries() == [
        (0, 5, 6, Fraction(1)),
        (4, 5, 1, Fraction(1)),
    ]
    assert t.column(6) == Vec7.basis(4).scale(Fraction(1, 6))
    assert koszul(mla).nabla(6, 5) == Vec7.basis(0).scale(Fraction(1, 2))
    assert scalar_curvature(curvature(koszul(mla), mla)) == -1


def test_torsion_solve_error_on_incompatible_input(frame):
    # feeding a 4-form outside the 1+7+27 decomposition image is impossible
    # for genuine d phi, so drive the solver directly with a bogus system
    from g2kit.liealg import _form_coords
    from g2kit.linalg import LinearSystem

    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]]
    assert LinearSystem(rows).solve([Fraction(0), Fraction(1)]) is None
    assert isinstance(TorsionSolveError("x"), ValueError)
    assert len(_form_coords(frame.phi, 3)) == 35
