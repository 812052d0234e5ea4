"""The frozen report records, held to the behaviour of frozen dataclasses.

Every record class is built from a real library result and checked for
positional, keyword and default construction, value ``==`` and ``hash``
within one class only, ``repr``, pickling, and ``AttributeError`` on
setting or deleting a field.  A frame keeps what is derived from it in
its own store, which these record properties do not see (``CrossTable``
validation messages are pinned in ``test_frames``).
"""

import pickle
from fractions import Fraction
from functools import lru_cache

import pytest
from geometry_checks import (
    NearlyParallelReport,
    _lambda2_14_forms,
    _lambda3_27_forms,
    _lambda4_system,
    _lambda5_system,
    nearly_parallel_torsion_check,
)

from g2kit.cli import RunConfig
from g2kit.frames import CheckReport, CrossTable, G2Frame, build_standard_frame, check_epsilon_identities
from g2kit.invariants import (
    InvariantReport,
    QuadraticRelationsReport,
    invariant_report,
    part_norm_invariants,
    verify_quadratic_relations,
)
from g2kit.liealg import (
    BryantScalarReport,
    DivergenceReport,
    GeometryTorsionReport,
    TorsionForms,
    _dual_coords,
    bryant_scalar_check,
    divergence_balance,
    g2perp_scalar_curvature,
    geometry_torsion_report,
    heisenberg_model,
    koszul,
    scalar_curvature,
    torsion_forms,
)
from g2kit.linalg import Mat7
from g2kit.so7 import EndoSplit, decompose_endo, g2_basis, g2_basis_entries
from g2kit.torsion import HypersurfaceReport, TorsionClass, classify, hypersurface_identity_check

# the fields of each record, in constructor order
FIELDS = {
    RunConfig: ("command", "seed", "trials", "frame", "convention", "input_path", "fmt"),
    CrossTable: ("base_triples", "label_offset"),
    G2Frame: ("table", "phi", "star_phi", "orientation", "name"),
    CheckReport: ("name", "passed", "counts", "failures", "notes"),
    InvariantReport: ("sigma1", "sigma2", "norm_sq", "i0", "i1", "i2", "charpoly"),
    QuadraticRelationsReport: ("passed", "invariants", "residual_i1", "residual_i2", "residual_difference"),
    EndoSplit: ("scalar", "sym0", "g2part", "vector"),
    TorsionClass: ("split", "flags", "part_norms_sq"),
    HypersurfaceReport: ("passed", "lhs", "rhs", "sigma2_shape"),
    DivergenceReport: ("s_alt", "s_g2perp", "chi_sq", "alt_sq", "sym_sq", "chi", "rhs_total", "balanced"),
    GeometryTorsionReport: ("torsion", "r_grid", "matched_convention"),
    TorsionForms: ("tau0", "tau1", "tau2", "tau3"),
    BryantScalarReport: ("scalar", "rhs_by_convention", "reconciling", "forms", "delta_tau1"),
    NearlyParallelReport: (
        "lambda0",
        "torsion_is_expected_multiple",
        "expected_scalar",
        "tor_sq_by_convention",
        "check_27_by_convention",
        "check_27_reconciling",
        "scalar_formula_by_convention",
        "scalar_formula_reconciling",
    ),
}

DEFAULTS = {
    RunConfig: {"seed": 0, "trials": 200, "frame": "standard", "convention": "auto", "input_path": None, "fmt": "text"},
    CrossTable: {"label_offset": 0},
    G2Frame: {"name": "custom"},
    CheckReport: {"counts": (), "failures": (), "notes": ()},
}

# records holding a KForm, which has no hash
UNHASHABLE = {G2Frame, TorsionForms, BryantScalarReport}

RECORDS = list(FIELDS)


@lru_cache(maxsize=None)
def examples() -> dict:
    """One record of each class, from the built-in nilmanifold model."""
    mla, frame, _ = heisenberg_model()
    conn = koszul(mla)
    s = scalar_curvature(conn, mla)
    geo = geometry_torsion_report(conn, frame)
    t = geo.torsion + Mat7.identity().scale(Fraction(1, 3))
    tf = torsion_forms(mla, frame)
    shape = Mat7([[Fraction(i + j, 1 + i * j) for j in range(7)] for i in range(7)])
    return {
        RunConfig: RunConfig("classify", 3, 12, "cayley", "form", "in.json", "json"),
        CrossTable: frame.table,
        G2Frame: frame,
        CheckReport: check_epsilon_identities(frame),
        InvariantReport: invariant_report(t, frame),
        QuadraticRelationsReport: verify_quadratic_relations(t, frame),
        EndoSplit: decompose_endo(t, frame),
        TorsionClass: classify(t, frame),
        HypersurfaceReport: hypersurface_identity_check(shape),
        DivergenceReport: divergence_balance(
            part_norm_invariants(classify(t, frame).part_norms_sq),
            classify(t, frame).chi,
            g2perp_scalar_curvature(conn, mla, frame),
        ),
        GeometryTorsionReport: geo,
        TorsionForms: tf,
        BryantScalarReport: bryant_scalar_check(mla, frame, s, tf),
        NearlyParallelReport: nearly_parallel_torsion_check(Fraction(1, 2), build_standard_frame()),
    }


def values(cls) -> list:
    rec = examples()[cls]
    return [getattr(rec, name) for name in FIELDS[cls]]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_positional_keyword_and_default_construction(cls):
    rec, names, vals = examples()[cls], FIELDS[cls], values(cls)
    by_position = cls(*vals)
    by_keyword = cls(**dict(zip(reversed(names), reversed(vals))))
    mixed = cls(*vals[:1], **dict(zip(names[1:], vals[1:])))
    for built in (by_position, by_keyword, mixed):
        assert built == rec
        assert [getattr(built, name) for name in names] == vals

    defaults = DEFAULTS.get(cls, {})
    required = {name: v for name, v in zip(names, vals) if name not in defaults}
    built = cls(**required)
    for name, default in defaults.items():
        assert getattr(built, name) == default
    if defaults:
        assert cls(*required.values()) == built


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_bad_arguments_raise_type_error(cls):
    names, vals = FIELDS[cls], values(cls)
    with pytest.raises(TypeError, match="missing required argument: " + repr(names[0])):
        cls(**dict(zip(names[1:], vals[1:])))
    with pytest.raises(TypeError, match="takes .* positional arguments but .* were given"):
        cls(*vals, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*vals, bogus=1)
    with pytest.raises(TypeError, match="multiple values for argument " + repr(names[0])):
        cls(*vals, **{names[0]: vals[0]})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equality_and_hash_by_value(cls):
    rec, vals = examples()[cls], values(cls)
    same = cls(*vals)
    assert same is not rec
    assert same == rec and not same != rec
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(same) == hash(rec)
        assert {rec: 1}[same] == 1
    # another value in the last field makes another record
    assert cls(*vals[:-1], object()) != rec
    # records of different classes, and plain tuples, never compare equal
    for other in RECORDS:
        if other is not cls:
            assert rec != examples()[other]
    assert rec != tuple(vals)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_and_pickle(cls):
    rec, names = examples()[cls], FIELDS[cls]
    fields = ", ".join(f"{name}={getattr(rec, name)!r}" for name in names)
    assert repr(rec) == f"{cls.__name__}({fields})"
    assert pickle.loads(pickle.dumps(rec)) == rec


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_cannot_be_set_or_deleted(cls):
    rec, vals = examples()[cls], values(cls)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError, match=f"cannot set {name!r}"):
            setattr(rec, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete {name!r}"):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert values(cls) == vals


BUILDERS = (
    g2_basis,
    g2_basis_entries,
    _dual_coords,
    _lambda2_14_forms,
    _lambda3_27_forms,
    _lambda4_system,
    _lambda5_system,
)


def fresh_standard_frame() -> G2Frame:
    table = build_standard_frame().table
    return G2Frame.from_table(CrossTable(table.base_triples, table.label_offset), name="standard")


def test_a_frame_builds_each_derived_value_once_in_its_own_store():
    frame, bare = fresh_standard_frame(), fresh_standard_frame()
    table = frame.table
    # a fresh frame's store, and its table's, start empty
    assert set(vars(frame)) == set(G2Frame._fields)
    assert set(vars(table)) == {*CrossTable._fields, "_grid", "_component"}
    for build in BUILDERS:
        value = build(frame)
        assert build(frame) is value and vars(frame)[build.__name__] is value
    assert table._basis_products is table._basis_products and table._swap_form is table._swap_form
    assert set(vars(frame)) == {*G2Frame._fields, *(build.__name__ for build in BUILDERS)}
    assert set(vars(table)) == {*CrossTable._fields, "_grid", "_component", "_basis_products", "_swap_form"}
    # the store is invisible to ==, repr (which perfbench hashes) and the table's hash
    assert frame == bare and repr(frame) == repr(bare)
    assert table == bare.table and hash(table) == hash(bare.table)
    with pytest.raises(AttributeError, match="cannot set 'g2_basis'"):
        frame.g2_basis = None
    with pytest.raises(AttributeError, match="cannot set 'extra'"):
        table.extra = 1
    # an equal frame fills its own store
    other = g2_basis(bare)
    assert other == g2_basis(frame) and other is not g2_basis(frame)
