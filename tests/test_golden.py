"""Report bytes pinned to committed golden files.

Each case renders one CLI configuration through ``cli.run`` and compares the
bytes with ``tests/golden/<name>``.  Reports echo ``--input``, so inputs are
passed as repository-relative paths and the test runs from the repository
root.  A golden file changes only with a deliberate change of report content;
to regenerate one, write ``run(cfg)[1]`` for its configuration to the file.
"""

from pathlib import Path

import pytest

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
    "identities-seed3-trials15.json": RunConfig("identities", seed=3, trials=15, fmt="json"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, text = run(CASES[name])
    assert code == 0
    assert text.encode() == (GOLDEN / name).read_bytes()
