"""Report bytes pinned to committed golden files.

Each case renders one CLI configuration through ``cli.run`` and compares the
bytes with ``tests/golden/<name>``.  Reports echo ``--input``, so inputs are
passed as repository-relative paths and the test runs from the repository
root.  A golden file changes only with a deliberate change of report content;
to regenerate one, write ``run(cfg)[1]`` for its configuration to the file.
The nilmanifold and classify cases and one identities case run a second time
from freshly built frames.  Everything derived from a frame is kept in its
store (see ``frames.per_frame``) and the two frame builders are the only
process-wide state, so clearing them makes a cold start: the bytes pin the
fill of the frame's linear systems, bases and basis products as well as the
warm route, and each cold case names exactly what its command filled.
"""

import os
from pathlib import Path

import pytest

from g2kit.cli import RunConfig, run
from g2kit.frames import build_cayley_frame, build_standard_frame

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INPUTS = "tests/golden/inputs"

CASES = {
    "tables-standard.json": RunConfig("tables", frame="standard", fmt="json"),
    "tables-cayley.json": RunConfig("tables", frame="cayley", fmt="json"),
    "classify-heisenberg-standard.json": RunConfig(
        "classify", frame="standard", input_path=f"{INPUTS}/heisenberg.json", fmt="json"
    ),
    "classify-heisenberg-cayley.json": RunConfig(
        "classify", frame="cayley", input_path=f"{INPUTS}/heisenberg.json", fmt="json"
    ),
    "classify-dense17-standard.json": RunConfig(
        "classify", frame="standard", input_path=f"{INPUTS}/dense17.json", fmt="json"
    ),
    "classify-dense17-cayley.json": RunConfig(
        "classify", frame="cayley", input_path=f"{INPUTS}/dense17.json", fmt="json"
    ),
    "classify-sym17-standard.json": RunConfig(
        "classify", frame="standard", input_path=f"{INPUTS}/sym17.json", fmt="json"
    ),
    "classify-sym17-cayley.json": RunConfig(
        "classify", frame="cayley", input_path=f"{INPUTS}/sym17.json", fmt="json"
    ),
    "classify-skew17-standard.json": RunConfig(
        "classify", frame="standard", input_path=f"{INPUTS}/skew17.json", fmt="json"
    ),
    "classify-skew17-cayley.json": RunConfig(
        "classify", frame="cayley", input_path=f"{INPUTS}/skew17.json", fmt="json"
    ),
    "classify-spellings-standard.json": RunConfig(
        "classify", frame="standard", input_path=f"{INPUTS}/spellings.json", fmt="json"
    ),
    "nilmanifold.json": RunConfig("nilmanifold", fmt="json"),
    "nilmanifold.txt": RunConfig("nilmanifold", fmt="text"),
    "nilmanifold-algebra-cayley.txt": RunConfig(
        "nilmanifold", frame="cayley", input_path=f"{INPUTS}/algebra.json", fmt="text"
    ),
    "nilmanifold-almost-abelian-standard.json": RunConfig(
        "nilmanifold", frame="standard", input_path=f"{INPUTS}/almost-abelian.json", fmt="json"
    ),
    "nilmanifold-almost-abelian-cayley.json": RunConfig(
        "nilmanifold", frame="cayley", input_path=f"{INPUTS}/almost-abelian.json", fmt="json"
    ),
    "identities-seed3-trials15.json": RunConfig("identities", seed=3, trials=15, fmt="json"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, text = run(CASES[name])
    assert code == 0
    assert text.encode() == (GOLDEN / name).read_bytes()


BUILDERS = {"standard": build_standard_frame, "cayley": build_cayley_frame}
# what the nilmanifold geometry builds on its frame; its table stays bare
GEOMETRY = {
    "g2_basis",
    "_cross_action_system",
    "_dual_coords",
    "_lambda2_14_forms",
    "_lambda3_27_forms",
    "_lambda4_system",
    "_lambda5_system",
}
# what the identities checks build on each frame and on its table
IDENTITIES = ({"g2_basis", "g2_basis_entries", "_star_phi_values"}, {"_basis_products", "_swap_form"})
BARE = (set(), set())


def run_cold(cfg: RunConfig) -> tuple[int, str]:
    for build in BUILDERS.values():
        build.cache_clear()
    return run(cfg)


def filled(rec) -> set[str]:
    """The names in a frame's or a table's store: what its ``__dict__``
    holds beyond that of an equal record built from its fields."""
    bare = type(rec)(*(getattr(rec, name) for name in rec._fields))
    return set(vars(rec)) - set(vars(bare))


def stores() -> dict[str, tuple[set[str], set[str]]]:
    """The filled names of each built-in frame and of its table."""
    return {name: (filled(build()), filled(build().table)) for name, build in BUILDERS.items()}


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("nilmanifold")))
def test_nilmanifold_bytes_match_golden_from_cold_caches(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    cfg = CASES[name]
    code, text = run_cold(cfg)
    assert code == 0
    assert text.encode() == (GOLDEN / name).read_bytes()
    # the built-in model is set in the Cayley frame; the geometry fills its
    # frame's store and builds nothing that only the identities checks read
    used = cfg.frame if cfg.input_path else "cayley"
    assert stores() == {frame: (GEOMETRY, set()) if frame == used else BARE for frame in BUILDERS}


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("classify")))
def test_classify_bytes_match_golden_from_cold_caches(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, text = run_cold(CASES[name])
    assert code == 0
    assert text.encode() == (GOLDEN / name).read_bytes()
    # the report reads its invariants off the part norms, so nothing is
    # built on the frame or its table
    assert stores() == {frame: BARE for frame in BUILDERS}


def test_identities_bytes_match_golden_from_cold_caches(monkeypatch):
    name = "identities-seed3-trials15.json"
    monkeypatch.chdir(ROOT)
    monkeypatch.delattr(os, "fork", raising=False)  # both frames fill in this process
    code, text = run_cold(CASES[name])
    assert code == 0
    assert text.encode() == (GOLDEN / name).read_bytes()
    assert stores() == {frame: IDENTITIES for frame in BUILDERS}
