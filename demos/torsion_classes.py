"""Intrinsic torsion from an endomorphism: classes, energies, and the
pointwise scalar-curvature balance.

Run with:  python demos/torsion_classes.py
"""

from fractions import Fraction
from random import Random

from g2kit import (
    Mat7,
    Vec7,
    build_standard_frame,
    characteristic_vector,
    classify,
    cross,
    cross_operator,
    curvature_integrand,
    hypersurface_identity_check,
    i1,
    i2,
    predicted_scalar_curvature,
    pure_vector_energy,
    torsion_energies,
)
from g2kit.sampling import rand_mat, rand_symmetric, rand_vector_free

frame = build_standard_frame()
rng = Random(2)

t = rand_mat(rng)
print("every torsion slice xi_{e_i} e_j = e_j x T(e_i) is the cross operator of T(e_i):",
      all(cross_operator(t.column(i), frame) @ Vec7.basis(j) == cross(Vec7.basis(j), t.column(i), frame)
          for i in range(7) for j in range(7)))

chi_sq, alt_sq, sym_sq = torsion_energies(t, frame)
print("|chi|^2 + |xi_alt|^2 - |xi_sym|^2 = i1 - i2:",
      chi_sq + alt_sq - sym_sq == i1(t, frame) - i2(t, frame))

print("\nclass flags:")
print("  random endomorphism:", sorted(classify(t, frame).flags))
z = Vec7.of(1, 0, -2, 0, 0, 1, 0)
a_z = cross_operator(z, frame)
print("  cross operator:", sorted(classify(a_z, frame).flags), " chi = -6Z:",
      characteristic_vector(a_z, frame) == z.scale(-6))
vec_free = rand_vector_free(rng, frame)
print("  vector-free input has chi = 0:", characteristic_vector(vec_free, frame).is_zero())

lam = Fraction(1, 2)
scaled = Mat7.identity().scale(lam)
print("\npointwise balance for the scalar shape:",
      predicted_scalar_curvature(scaled, frame) == 378 * lam * lam)
print("integrand of a pure vector shape is 45|Z|^2:",
      pure_vector_energy(z, frame) == 45 * z.norm_sq())

s = rand_symmetric(rng)
rep = hypersurface_identity_check(s)
print("hypersurface chain 18 sigma2((8/3)S) = 128 sigma2(S):", rep.passed,
      f"(both sides {rep.lhs})")
print("integrand of a symmetric shape is 3 sigma2:",
      curvature_integrand(s, frame) == 3 * rep.sigma2_shape)
