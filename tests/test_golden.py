"""Report bytes pinned to committed golden files.

Each case renders one CLI configuration through ``cli.run`` and compares the
bytes with ``tests/golden/<name>``.  Reports echo ``--input``, so inputs are
passed as repository-relative paths and the test runs from the repository
root.  A golden file changes only with a deliberate change of report content;
to regenerate one, write ``run(cfg)[1]`` for its configuration to the file.
The nilmanifold cases run a second time after the per-frame caches are
cleared, so the bytes pin the cold fill of the frame's linear systems and
bases as well as the cached route.
"""

from pathlib import Path

import pytest

from g2kit import liealg, so7
from g2kit.cli import RunConfig, run

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
    "classify-skew17-standard.json": RunConfig(
        "classify", frame="standard", input_path=f"{INPUTS}/skew17.json", fmt="json"
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


# the linear systems and bases that each process builds once per frame
PER_FRAME_CACHES = (
    liealg._cross_action_system,
    liealg._lambda4_system,
    liealg._lambda5_system,
    liealg._lambda3_27_forms,
    liealg._lambda2_14_forms,
    liealg._dual_coords,
    so7._g2_basis_cached,
)


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("nilmanifold")))
def test_nilmanifold_bytes_match_golden_from_cold_caches(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    for cache in PER_FRAME_CACHES:
        cache.cache_clear()
    code, text = run(CASES[name])
    assert code == 0
    assert text.encode() == (GOLDEN / name).read_bytes()
    assert all(cache.cache_info().misses for cache in PER_FRAME_CACHES)
