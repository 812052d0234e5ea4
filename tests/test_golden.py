"""Report bytes pinned to committed golden files.

Each case renders one CLI configuration through ``cli.run`` and compares the
bytes with ``tests/golden/<name>``.  Reports echo ``--input``, so inputs are
passed as repository-relative paths and the test runs from the repository
root.  A golden file changes only with a deliberate change of report content;
to regenerate one, write ``run(cfg)[1]`` for its configuration to the file.
The nilmanifold and classify cases and one identities case run a second time
after the per-frame caches are cleared, so the bytes pin the cold fill of the
frame's linear systems, bases and basis products as well as the cached route.
"""

import importlib
import os
import pkgutil
from inspect import signature
from pathlib import Path

import pytest

import g2kit
from g2kit import frames, liealg, so7
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


def _table_caches() -> tuple:
    """Every ``lru_cache`` defined in a g2kit module whose first parameter is
    ``table``: the values each process builds once per cross-product table."""
    caches = []
    for info in pkgutil.iter_modules(g2kit.__path__):
        module = importlib.import_module(f"g2kit.{info.name}")
        for value in vars(module).values():
            if (
                hasattr(value, "cache_clear")
                and value.__module__ == module.__name__
                and list(signature(value).parameters)[:1] == ["table"]
            ):
                caches.append(value)
    return tuple(caches)


TABLE_CACHES = _table_caches()
# nilmanifold reads every table cache but the three that only the identities
# checks read (reports take i2 off the part norms, so only the i2 kernel reads
# the swap form); identities reads every table cache outside the geometry of
# liealg.  A new table cache is then required to fill on one of the two.
IDENTITIES_ONLY = (frames._basis_products, so7._g2_basis_entries_cached, frames._swap_form)
NILMANIFOLD_CACHES = tuple(cache for cache in TABLE_CACHES if cache not in IDENTITIES_ONLY)
IDENTITIES_CACHES = tuple(cache for cache in TABLE_CACHES if cache.__module__ != "g2kit.liealg")


def run_cold(cfg: RunConfig) -> tuple[int, str]:
    for cache in TABLE_CACHES:
        cache.cache_clear()
    return run(cfg)


def test_table_caches_are_found():
    geometry = (
        liealg._cross_action_system,
        liealg._lambda4_system,
        liealg._lambda5_system,
        liealg._lambda3_27_forms,
        liealg._lambda2_14_forms,
        liealg._dual_coords,
        so7._g2_basis_cached,
    )
    assert set(geometry) <= set(NILMANIFOLD_CACHES)
    assert set(IDENTITIES_ONLY + (so7._g2_basis_cached,)) <= set(IDENTITIES_CACHES)


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("nilmanifold")))
def test_nilmanifold_bytes_match_golden_from_cold_caches(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, text = run_cold(CASES[name])
    assert code == 0
    assert text.encode() == (GOLDEN / name).read_bytes()
    # every per-frame linear system and basis the geometry reads was built
    # anew, once for the one frame, and no cache of the identities checks
    assert all(cache.cache_info().misses == 1 for cache in NILMANIFOLD_CACHES)
    assert all(cache.cache_info().misses == 0 for cache in IDENTITIES_ONLY)


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("classify")))
def test_classify_bytes_match_golden_from_cold_caches(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, text = run_cold(CASES[name])
    assert code == 0
    assert text.encode() == (GOLDEN / name).read_bytes()
    # the report reads its invariants off the part norms, so the i2 kernel's
    # swap form and the other identities caches stay empty
    assert all(cache.cache_info().misses == 0 for cache in IDENTITIES_ONLY)


def test_identities_bytes_match_golden_from_cold_caches(monkeypatch):
    name = "identities-seed3-trials15.json"
    monkeypatch.chdir(ROOT)
    monkeypatch.delattr(os, "fork", raising=False)  # both frames fill in this process
    code, text = run_cold(CASES[name])
    assert code == 0
    assert text.encode() == (GOLDEN / name).read_bytes()
    # identities builds each of its table caches, the basis products among
    # them, once per frame
    assert all(cache.cache_info().misses == 2 for cache in IDENTITIES_CACHES)
