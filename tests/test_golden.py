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
pin the fill of the frame's linear systems, bases and basis products as
well as the warm route, and each cold case names exactly what its command
filled.
"""

import os

import pytest
from golden_manifest import GOLDEN, GOLDENS, ROOT

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
GEOMETRY = {
    "g2_basis",
    "_dual_coords",
    "_lambda2_14_forms",
    "_lambda3_27_forms",
    "_lambda4_system",
    "_lambda5_system",
    "_pairing_reads",
}
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
