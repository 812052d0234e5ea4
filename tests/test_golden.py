"""Report bytes pinned to committed golden files.

Each entry of ``golden_manifest.GOLDENS`` runs through ``cli.main`` in this
process from the repository root, and must print the bytes of
``tests/golden/<name>`` (the manifest's own runner checks the same entries
in fresh interpreters, and says how to regenerate a golden).  An
``identities`` entry runs here with ``os.fork`` deleted, both frames in
this process; ``test_cli`` runs it once more with the Cayley frame in a
forked child, so each route runs every identities golden once.  The
nilmanifold, classify and tables entries and one identities entry run a
second time from freshly built frames.  Everything derived from a frame is
kept in its store (see ``frames.per_frame``) and the two frame builders are
the only process-wide state, so clearing them makes a cold start: the bytes
pin the fill of the frame's bases, dual coordinates and basis products as
well as the warm route, and each cold case names exactly what its command
filled.
"""

import os

import pytest
from golden_manifest import GOLDEN, GOLDENS, ROOT
from regen_goldens import additive_change

from g2kit.cli import FRAMES, build_parser, main

@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def entries(command: str) -> list[str]:
    return sorted(name for name, argv in GOLDENS.items() if argv[0] == command)


def report(argv: list[str], capsys) -> bytes:
    """The stdout bytes of ``main(argv)``, which must exit 0."""
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_report_bytes_match_golden(name, capsys, monkeypatch):
    if GOLDENS[name][0] == "identities":
        # both frames in this process, where os.fork exists or not;
        # test_cli runs the same entry with the Cayley frame in a forked child
        monkeypatch.delattr(os, "fork", raising=False)
    assert report(GOLDENS[name], capsys) == (GOLDEN / name).read_bytes()


# what the nilmanifold geometry builds on its frame; its table stays bare
GEOMETRY = {"_dual_coords", "_pairing_reads", "_r_table"}
# what the identities checks build on each frame and on its table
IDENTITIES = (
    {"g2_basis", "g2_basis_entries", "_star_phi_values", "_pairing_reads"},
    {"_basis_products", "_product_pairings", "_swap_form"},
)
BARE = (set(), set())


def filled(rec) -> set[str]:
    """The names in a frame's or a table's store: what its ``__dict__``
    holds beyond that of an equal record built from its fields."""
    bare = type(rec)(*(getattr(rec, name) for name in rec._fields))
    return set(vars(rec)) - set(vars(bare))


def assert_cold_golden(name: str, capsys, expected: dict[str, tuple[set[str], set[str]]]):
    """From freshly built frames the entry prints its golden bytes and fills
    the `expected` names on each built-in frame and its table."""
    for build in FRAMES.values():
        build.cache_clear()
    assert report(GOLDENS[name], capsys) == (GOLDEN / name).read_bytes()
    assert {frame: (filled(build()), filled(build().table)) for frame, build in FRAMES.items()} == expected


@pytest.mark.parametrize("name", entries("nilmanifold"))
def test_nilmanifold_bytes_match_golden_from_cold_caches(name, capsys):
    # the built-in model is set in the Cayley frame; the geometry fills its
    # frame's store and builds nothing that only the identities checks read
    args = build_parser().parse_args(GOLDENS[name])
    used = args.frame if args.input_path else "cayley"
    assert_cold_golden(name, capsys, {frame: (GEOMETRY, set()) if frame == used else BARE for frame in FRAMES})


@pytest.mark.parametrize("name", entries("classify"))
def test_classify_bytes_match_golden_from_cold_caches(name, capsys):
    # the report reads its invariants off the part norms, so nothing is
    # built on the frame or its table
    assert_cold_golden(name, capsys, {frame: BARE for frame in FRAMES})


@pytest.mark.parametrize("name", entries("tables"))
def test_tables_bytes_match_golden_from_cold_caches(name, capsys):
    # the dump reads the table's own fields
    assert_cold_golden(name, capsys, {frame: BARE for frame in FRAMES})


def test_identities_bytes_match_golden_from_cold_caches(monkeypatch, capsys):
    monkeypatch.delattr(os, "fork", raising=False)  # both frames fill in this process
    assert_cold_golden("identities-seed3-trials15.json", capsys, {frame: IDENTITIES for frame in FRAMES})


# a report before and after a change that adds div_chi and changes balanced
OLD_REPORT = """divergence:
  rhs_total: 0
  balanced: ~
checks:
  r_map_form_convention: true
passed: true
"""
NEW_REPORT = """divergence:
  rhs_total: 0
  div_chi: 0
  balanced: true
checks:
  r_map_form_convention: true
  integral_formula_balanced: true
passed: true
"""


def test_regeneration_accepts_added_lines_and_listed_keys():
    added, changed = additive_change(OLD_REPORT, NEW_REPORT, {"balanced"})
    assert added == ["  div_chi: 0", "  integral_formula_balanced: true"]
    assert changed == [("  balanced: ~", "  balanced: true")]
    old_json = '{\n  "balanced": null,\n  "rhs_total": "0"\n}'
    new_json = '{\n  "balanced": true,\n  "div_chi": "0",\n  "rhs_total": "0"\n}'
    assert additive_change(old_json, new_json, {"balanced"}) == (
        ['  "div_chi": "0",'], [('  "balanced": null,', '  "balanced": true,')]
    )
    # a new golden is all added lines
    assert additive_change("", NEW_REPORT, set()) == (NEW_REPORT.splitlines(), [])


@pytest.mark.parametrize(
    "new, keys",
    [
        # a removed line
        (NEW_REPORT.replace("passed: true\n", ""), {"balanced"}),
        # a changed line whose key is not listed
        (NEW_REPORT.replace("rhs_total: 0", "rhs_total: 1"), {"balanced"}),
        # the listed key's change, with no key listed
        (NEW_REPORT, set()),
        # a listed key changed at another depth
        (NEW_REPORT.replace("  balanced: true", "balanced: true"), {"balanced"}),
        # a moved line
        ("passed: true\n" + NEW_REPORT.replace("passed: true\n", ""), {"balanced"}),
    ],
)
def test_regeneration_refuses_anything_but_additions(new, keys):
    with pytest.raises(ValueError):
        additive_change(OLD_REPORT, new, keys)

