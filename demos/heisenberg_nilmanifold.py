"""The Heisenberg-times-torus model, end to end.

Every number below is produced by exact rational arithmetic: the
Levi-Civita connection from the brackets, the curvature scalars read off it,
the torsion endomorphism read off the connection, its invariants, and
the torsion forms with the structure equations they solve and the
scalar-curvature formula they satisfy.

Run with:  python demos/heisenberg_nilmanifold.py
"""

from g2kit import (
    bryant_scalar_check,
    ce_differential,
    characteristic_vector,
    classify,
    curvature_integrand,
    g2perp_scalar_curvature,
    geometry_torsion_report,
    heisenberg_model,
    i0,
    koszul,
    scalar_curvature,
    sigma2,
    torsion_forms,
    wedge,
)
from g2kit.liealg import connection_reference_diff, curvature_diagonal

mla, frame, t_table = heisenberg_model()
print("brackets:", [(i, j, k, str(v)) for i, j, k, v in mla.nonzero_entries()])

conn = koszul(mla)
print("nonzero connection entries:", len(conn.nonzero_entries()))
diff = connection_reference_diff(conn)
print("entries differing from the tabulated reference:",
      [(i, j) for i, j, _, _ in diff], "(the reference's (4,5) entry is not torsion-free)")

s = scalar_curvature(conn, mla)
values = sorted(str(v) for _, _, v in curvature_diagonal(conn, mla))
print("nonzero R_ijji values:", {v: values.count(v) for v in sorted(set(values))})
print("scalar curvature s =", s)
print("g2-perp scalar curvature equals s/3:", g2perp_scalar_curvature(conn, mla, frame) == s / 3)

geo = geometry_torsion_report(conn, frame)
t = geo.torsion
print("\ntorsion endomorphism T(e_i) = -(1/6) p(nabla_e_i) matches the tabulated T:", t == t_table)
print("r-map convention whose nabla(phi) pairing reproduces it:", geo.matched_convention)
print("sigma2(T) =", sigma2(t), "  i0(T) =", i0(t, frame))
print("classification:", sorted(classify(t, frame).flags), " chi =",
      tuple(str(c) for c in characteristic_vector(t, frame)))

lhs = curvature_integrand(t, frame)
print("balance: -(3/2) i0 + 6 sigma2 =", lhs, " and s/6 =", s / 6, "->", lhs == s / 6)

tf = torsion_forms(mla, frame)
print("\ntorsion forms: vanishing =", sorted(tf.vanishing()),
      " tau2 =", tf.tau2.terms())
dphi, dpsi = (ce_differential(mla, form) for form in (frame.phi, frame.star_phi))
print("d phi = 0 (phi is closed):", dphi.is_zero(), "  d star_phi = tau2 ^ phi:", dpsi == wedge(tf.tau2, frame.phi))
rep = bryant_scalar_check(mla, s, tf)
print("scalar-curvature formula from the torsion forms reconciles under:",
      rep.reconciling, " with |tau2|^2 =", rep.forms.norms_sq("form")["tau2_sq"])
