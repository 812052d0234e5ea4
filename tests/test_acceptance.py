"""Acceptance criteria, one test per criterion.

Every comparison is exact rational equality.  Each test prints a single
PASS line on success (visible with ``pytest -s`` or ``-rA``); a failing
criterion shows up as an ordinary pytest failure.
"""

import json
from fractions import Fraction
from random import Random

from geometry_checks import nearly_parallel_torsion_check

from g2kit.cli import RunConfig, main, run
from g2kit.forms import FORM, TENSOR, form_norm_sq, wedge
from g2kit.frames import (
    build_cayley_frame,
    build_standard_frame,
    check_epsilon_identities,
    cross,
    validate_cross_axioms,
)
from g2kit.invariants import (
    char_poly,
    i0,
    i1,
    i2,
    sigma2,
    verify_quadratic_relations,
)
from g2kit.liealg import (
    alt_scalar_curvature,
    bryant_scalar_check,
    ce_differential,
    connection_reference_diff,
    curvature_diagonal,
    g2perp_scalar_curvature,
    geometry_torsion_report,
    heisenberg_model,
    koszul,
    scalar_curvature,
    torsion_forms,
)
from g2kit.linalg import Mat7, Vec7
from g2kit.sampling import (
    rand_fraction,
    rand_mat,
    rand_nonzero_vec,
    rand_symmetric,
    rand_two_step_nilpotent,
    rand_vec,
    rand_vector_free,
)
from g2kit.serialize import mat_to_json
from g2kit.so7 import cross_operator, split_so7
from g2kit.torsion import (
    characteristic_vector,
    classify,
    curvature_integrand,
    torsion_energies,
)

FRAMES = {"standard": build_standard_frame(), "cayley": build_cayley_frame()}


def report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_epsilon_identities_exhaustive():
    for name, frame in FRAMES.items():
        rep = check_epsilon_identities(frame)
        assert rep.passed, (name, rep.failures)
        assert dict(rep.counts)["cases"] == 7**4 + 49
    report(1, "both eps identities hold on all index tuples for both frames")


def test_criterion_02_cross_product_axioms():
    for name, frame in FRAMES.items():
        rep = validate_cross_axioms(frame, seed=11, trials=1000)
        assert rep.passed, (name, rep.failures)
        counts = dict(rep.counts)
        assert counts["basis_triples"] == 343
        assert counts["seeded_triples"] == 1000
    report(2, "cross-product rules pass on basis triples and 1000 seeded triples, both frames")


def test_criterion_03_bracket_projection_1000_pairs():
    for frame in FRAMES.values():
        rng = Random(23)
        for _ in range(1000):
            u, v = rand_vec(rng), rand_vec(rng)
            au = cross_operator(u, frame)
            av = cross_operator(v, frame)
            comm = au @ av - av @ au
            _, w = split_so7(comm, frame)
            assert w == cross(u, v, frame)
    report(3, "g2-perp part of [A_u, A_v] equals A_{u x v} for 1000 seeded pairs per frame")


def test_criterion_04_quadratic_relations_1000_matrices():
    frame = FRAMES["standard"]
    rng = Random(31)
    for _ in range(1000):
        rep = verify_quadratic_relations(rand_mat(rng), frame)
        assert rep.passed
    frame = FRAMES["cayley"]
    for _ in range(200):
        rep = verify_quadratic_relations(rand_mat(rng), frame)
        assert rep.passed
    report(4, "both quadratic relations and the difference identity hold for 1000 seeded matrices")


def test_criterion_05_special_shapes():
    for frame in FRAMES.values():
        rng = Random(41)
        for _ in range(200):
            lam = rand_fraction(rng)
            t = Mat7.identity().scale(lam)
            lam2 = lam * lam
            assert (
                i0(t, frame),
                i1(t, frame),
                i2(t, frame),
                sigma2(t),
                t.norm_sq(),
            ) == (42 * lam2, 0, -42 * lam2, 21 * lam2, 7 * lam2)

            s = rand_symmetric(rng)
            s2 = sigma2(s)
            assert (i0(s, frame), i1(s, frame), i2(s, frame)) == (2 * s2, 0, -2 * s2)

            z = rand_vec(rng)
            a = cross_operator(z, frame)
            zsq = z.norm_sq()
            assert (
                i0(a, frame),
                i1(a, frame),
                i2(a, frame),
                sigma2(a),
                a.norm_sq(),
            ) == (-18 * zsq, 36 * zsq, -18 * zsq, 3 * zsq, 6 * zsq)
    report(5, "scalar, symmetric, and cross-operator shapes give the closed-form invariants")


def test_criterion_06_heisenberg_numbers():
    mla, frame, t_ref = heisenberg_model()
    conn = koszul(mla)
    s = scalar_curvature(conn, mla)
    assert s == -1
    assert sigma2(t_ref) == Fraction(1, 18)
    assert i0(t_ref, frame) == Fraction(1, 3)
    coeffs = char_poly(t_ref)
    expected = [Fraction(0)] * 8
    expected[7], expected[5], expected[3] = Fraction(-1), Fraction(-1, 18), Fraction(-1, 6**4)
    assert list(coeffs) == expected
    assert curvature_integrand(t_ref, frame) == Fraction(-1, 6) == s / 6
    assert g2perp_scalar_curvature(conn, mla, frame) == Fraction(-1, 3) == s / 3
    assert geometry_torsion_report(conn, frame).torsion == t_ref
    assert sorted(classify(t_ref, frame).flags) == ["X2"]
    # chi = 0 and the model is nilpotent, so div chi = 0 and s = 6 * integrand
    assert characteristic_vector(t_ref, frame).is_zero() and mla.is_unimodular()
    assert 6 * curvature_integrand(t_ref, frame) == -1
    report(6, "nilmanifold model reproduces s=-1, sigma2=1/18, i0=1/3, charpoly, -1/6 balance, pure X2")


def test_criterion_07_discrepancy_reports(tmp_path, capsys):
    mla, frame, _ = heisenberg_model()
    diff = connection_reference_diff(koszul(mla))
    assert [(i, j) for i, j, _, _ in diff] == [(4, 5)]

    diag = curvature_diagonal(koszul(mla), mla)
    multiset: dict[Fraction, int] = {}
    for _, _, v in diag:
        multiset[v] = multiset.get(v, 0) + 1
    assert all(n % 2 == 0 for n in multiset.values())
    assert sum(v * n for v, n in multiset.items()) == -1

    a_z = cross_operator(Vec7.basis(1), frame)
    path = tmp_path / "az.json"
    path.write_text(json.dumps({"matrix": mat_to_json(a_z)}))
    code = main(["classify", "--input", str(path), "--frame", "cayley", "--format", "json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["flags"] == ["X4"]
    assert any("factor of 2" in note for note in out["notes"])
    report(7, "single connection-table diff at (4,5), even curvature multiset summing to -1, "
              "and the vector-class scaling discrepancy note")


def test_criterion_08_characteristic_vector_1000_each():
    frame = FRAMES["cayley"]
    rng = Random(53)
    for _ in range(1000):
        t = rand_vector_free(rng, frame)
        assert characteristic_vector(t, frame).is_zero()
    for _ in range(1000):
        z = rand_nonzero_vec(rng)
        a = cross_operator(z, frame)
        assert characteristic_vector(a, frame) == z.scale(-6)
    report(8, "chi = 0 for 1000 vector-free T and chi = -6Z for 1000 cross operators")


def test_criterion_09_energy_identity_and_alt_scalar_1000():
    frame = FRAMES["standard"]
    rng = Random(61)
    for _ in range(1000):
        t = rand_mat(rng)
        chi_sq, alt_sq, sym_sq = torsion_energies(t, frame)
        assert chi_sq + alt_sq - sym_sq == i1(t, frame) - i2(t, frame)
        assert alt_scalar_curvature(t, frame) == i0(t, frame)
    report(9, "|chi|^2+|xi_alt|^2-|xi_sym|^2 = i1-i2 and s_alt = i0 for 1000 seeded T")


def test_criterion_10_hypersurface_chain_1000():
    frame = FRAMES["standard"]
    rng = Random(71)
    t_id = Mat7.identity().scale(Fraction(8, 3))
    assert 6 * curvature_integrand(t_id, frame) == 2688 == 128 * sigma2(Mat7.identity())
    for _ in range(1000):
        s = rand_symmetric(rng)
        t = s.scale(Fraction(8, 3))
        assert 6 * curvature_integrand(t, frame) == 128 * sigma2(s)
    report(10, "6(-(3/2)i0+6sigma2)((8/3)S) = 128 sigma2(S) for 1000 seeded symmetric S, with 2688 at S=Id")


def test_criterion_11_bryant_heisenberg():
    mla, frame, _ = heisenberg_model()
    tf = torsion_forms(mla, frame)
    assert tf.tau0 == 0 and tf.tau1.is_zero() and tf.tau3.is_zero()
    # zero residuals in both defining equations
    assert ce_differential(mla, frame.phi).is_zero()
    assert wedge(tf.tau1, frame.star_phi).scale(4) + wedge(tf.tau2, frame.phi) == ce_differential(mla, frame.star_phi)
    rep = bryant_scalar_check(mla, scalar_curvature(koszul(mla), mla), tf)
    assert rep.scalar == -1
    assert rep.reconciling == (FORM,)  # exactly one convention, and it is named
    assert form_norm_sq(tf.tau2, FORM) == 2
    assert rep.scalar == -Fraction(1, 2) * form_norm_sq(tf.tau2, FORM)
    report(11, "tau0=tau1=tau3=0 with zero residuals and s = -(1/2)|tau2|^2 = -1 under the form convention only")


def test_criterion_12_nearly_parallel_checks():
    frame = FRAMES["standard"]
    rng = Random(83)
    lambdas = [Fraction(1), Fraction(0)] + [rand_fraction(rng) for _ in range(30)]
    for lam in lambdas:
        rep = nearly_parallel_torsion_check(lam, frame)
        assert rep.torsion_is_expected_multiple  # Tor = -(4/3) lambda0 phi
        value = dict(rep.check_27_by_convention)[FORM]
        assert value == 168 * lam * lam == 7 * 24 * lam * lam
        if lam != 0:
            assert rep.check_27_reconciling == (FORM,)
            assert rep.scalar_formula_reconciling == (TENSOR,)
        assert dict(rep.scalar_formula_by_convention)[TENSOR] == 168 * lam * lam
    report(12, "Tor = -(4/3)lambda0 phi with (27/2)|Tor|^2_form = 168 lambda0^2 and the "
               "skew-torsion scalar formula balancing under the reported convention")


def test_criterion_13_nilpotent_scalar_third_100():
    frame = FRAMES["cayley"]
    rng = Random(97)
    for _ in range(100):
        mla = rand_two_step_nilpotent(rng)
        conn = koszul(mla)
        assert g2perp_scalar_curvature(conn, mla, frame) == scalar_curvature(conn, mla) / 3
    report(13, "s_g2perp = s/3 on 100 seeded 2-step nilpotent metric Lie algebras")


def test_criterion_14_determinism(tmp_path):
    _, _, t = heisenberg_model()
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"matrix": mat_to_json(t)}))
    configs = [
        RunConfig(command="identities", seed=5, trials=15, fmt="json"),
        RunConfig(command="identities", seed=5, trials=15, fmt="text"),
        RunConfig(command="classify", frame="cayley", input_path=str(path), fmt="json"),
        RunConfig(command="nilmanifold", fmt="json"),
        RunConfig(command="nilmanifold", fmt="text"),
        RunConfig(command="tables", frame="standard", fmt="json"),
        RunConfig(command="tables", frame="cayley", fmt="text"),
    ]
    for cfg in configs:
        a = run(cfg)
        b = run(cfg)
        assert a[0] == b[0]
        assert a[1].encode("utf-8") == b[1].encode("utf-8")
    report(14, "byte-identical reports for identical run configurations across all commands")
