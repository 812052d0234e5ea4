"""Quadratic invariants of endomorphisms and their exact identities.

Run with:  python demos/quadratic_invariants.py
"""

from fractions import Fraction
from random import Random

from g2kit import (
    Mat7,
    Vec7,
    build_standard_frame,
    char_poly,
    cross_operator,
    curvature_integrand,
    decompose_endo,
    i0,
    i1,
    i2,
    sigma2,
    sigma_from_char_poly,
    special_case_check,
    torsion_energies,
    verify_quadratic_relations,
)
from g2kit.invariants import PART_NORM_TABLE, part_norm_invariants
from g2kit.sampling import rand_mat

frame = build_standard_frame()
rng = Random(1)

t = rand_mat(rng)
coeffs = char_poly(t)
print("characteristic polynomial det(T - tI), coefficients of t^0..t^7:")
print("  ", [str(c) for c in coeffs])
print("sigma_1 = trace:", sigma_from_char_poly(coeffs, 1) == t.trace())
print("sigma_2 two ways:", sigma_from_char_poly(coeffs, 2) == sigma2(t))

rep = verify_quadratic_relations(t, frame)
print("\nboth quadratic relations hold exactly:", rep.passed)
print("  i0 =", rep.invariants.i0, " i1 =", rep.invariants.i1, " i2 =", rep.invariants.i2)
print("  i1 - i2 = -2 i0 + 6 sigma2:",
      rep.invariants.i1 - rep.invariants.i2 == -2 * rep.invariants.i0 + 6 * rep.invariants.sigma2)

print("\nclosed forms on special shapes:")
lam = Fraction(3)
scaled = Mat7.identity().scale(lam)
print("  lambda*Id:", (i0(scaled, frame), i1(scaled, frame), i2(scaled, frame)),
      "= (42, 0, -42) lambda^2")
z = Vec7.basis(1)
a_z = cross_operator(z, frame)
print("  cross operator of a unit vector:", (i0(a_z, frame), i1(a_z, frame), i2(a_z, frame)),
      "= (-18, 36, -18)")
for sample in (scaled, a_z, rand_mat(rng)):
    rep = special_case_check(sample, frame)
    print("  detected:", rep.notes[0], "->", "pass" if rep.passed else "FAIL")

print("\nevery quadratic invariant from the part norms (p1, p27, p14, p7):")
print(" " * 12 + "".join(f"{col:>7}" for col in ("p1", "p27", "p14", "p7")))
for name, coeffs, div in PART_NORM_TABLE:
    print(f"  {name:10s}" + "".join(f"{str(Fraction(c, div)):>7}" for c in coeffs))
for label, sample in (("random T", t), ("lambda*Id", scaled), ("cross operator", a_z)):
    table = part_norm_invariants(decompose_endo(sample, frame).part_norms_sq())
    kernels = {
        "sigma2": sigma2(sample),
        "norm_sq": sample.norm_sq(),
        "i0": i0(sample, frame),
        "i1": i1(sample, frame),
        "i2": i2(sample, frame),
        "integrand": curvature_integrand(sample, frame),
    }
    # the divergence terms |xi_alt|^2 and |xi_sym|^2 of the torsion
    _, kernels["alt_sq"], kernels["sym_sq"] = torsion_energies(sample, frame)
    print(f"  {label}: kernels equal the table:", kernels == table)
