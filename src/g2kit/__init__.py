"""g2kit: exact rational algebra of G2-structures on R^7.

The package implements the cross product and its two standard frames, the
splitting so(7) = g2 + R^7, the quadratic invariants of endomorphisms, the
intrinsic torsion induced by an endomorphism with its class flags, and
left-invariant geometry on 7-dimensional metric Lie algebras (Levi-Civita
connection, curvature scalars, Chevalley-Eilenberg calculus, Bryant torsion
forms), including a fully worked Heisenberg-times-torus nilmanifold model.
All arithmetic is exact over the rationals.
"""

from fractions import Fraction

from .forms import FORM, TENSOR, KForm, form_inner, form_norm_sq, hodge, interior, wedge
from .frames import (
    CheckReport,
    CrossTable,
    G2Frame,
    build_cayley_frame,
    build_standard_frame,
    check_epsilon_identities,
    cross,
    star_phi_pairing_check,
    validate_cross_axioms,
)
from .invariants import (
    InvariantReport,
    char_poly,
    i0,
    i1,
    i2,
    invariant_report,
    sigma2,
    sigma_from_char_poly,
    special_case_check,
    verify_quadratic_relations,
)
from .liealg import (
    ConnectionTable,
    MetricLieAlgebra,
    TorsionForms,
    alt_scalar_curvature,
    bryant_scalar_check,
    ce_differential,
    codifferential,
    divergence_balance,
    g2perp_scalar_curvature,
    geometry_torsion_report,
    heisenberg_model,
    koszul,
    nabla_form,
    r_map,
    scalar_curvature,
    torsion_endo,
    torsion_forms,
)
from .linalg import Mat7, Vec7
from .so7 import (
    EndoSplit,
    bracket_g2perp,
    cross_operator,
    decompose_endo,
    g2_basis,
    skew_to_vector,
    split_so7,
)
from .torsion import (
    TorsionClass,
    characteristic_vector,
    classify,
    curvature_integrand,
    hypersurface_identity_check,
    pure_vector_energy,
    torsion_energies,
)

__version__ = "0.1.0"

__all__ = [
    "Fraction",
    "FORM",
    "TENSOR",
    "KForm",
    "form_inner",
    "form_norm_sq",
    "hodge",
    "interior",
    "wedge",
    "CheckReport",
    "CrossTable",
    "G2Frame",
    "build_cayley_frame",
    "build_standard_frame",
    "check_epsilon_identities",
    "cross",
    "star_phi_pairing_check",
    "validate_cross_axioms",
    "InvariantReport",
    "char_poly",
    "i0",
    "i1",
    "i2",
    "invariant_report",
    "sigma2",
    "sigma_from_char_poly",
    "special_case_check",
    "verify_quadratic_relations",
    "ConnectionTable",
    "MetricLieAlgebra",
    "TorsionForms",
    "alt_scalar_curvature",
    "bryant_scalar_check",
    "ce_differential",
    "codifferential",
    "divergence_balance",
    "g2perp_scalar_curvature",
    "geometry_torsion_report",
    "heisenberg_model",
    "koszul",
    "nabla_form",
    "r_map",
    "scalar_curvature",
    "torsion_endo",
    "torsion_forms",
    "Mat7",
    "Vec7",
    "EndoSplit",
    "bracket_g2perp",
    "cross_operator",
    "decompose_endo",
    "g2_basis",
    "skew_to_vector",
    "split_so7",
    "TorsionClass",
    "characteristic_vector",
    "classify",
    "curvature_integrand",
    "hypersurface_identity_check",
    "pure_vector_energy",
    "torsion_energies",
]
