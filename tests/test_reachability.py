"""Every def in ``src/g2kit`` is reached by a command, or the ledger says why not.

The probe runs in a fresh interpreter, as ``python tests/test_reachability.py``
(no options): it deletes ``os.fork``, installs a trace hook before it
imports g2kit, runs ``cli.main`` on every golden configuration of
``golden_manifest.GOLDENS`` but the 1000-trial one (which reaches nothing
more), on every adversarial input document under
``tests/golden/inputs/adversarial/``, and runs every demo under ``demos/``,
then prints the (line, file) of each code object of the package that was
called, as JSON.  The test matches these against an ``ast`` list of every
``def`` in the package, methods and nested defs included.

A def that none of this reaches needs an entry in ``LEDGER`` with one
reason:

* ``api``: the public API, named in a backtick span of README.md (as
  ``.name`` for a method);
* ``demo``: a script under ``demos/`` calls it;
* ``oracle <test id>``: that tier-1 test compares the package against it;
* ``sampler``: a seeded generator of ``g2kit.sampling``;
* ``error <test id>``: only an error path reaches it, and that test does;
* ``protocol``: a dunder, reached through Python's protocols;
* ``fork``: it runs only beside a forked child, which the probe disables.

The test fails on an unreached def without an entry, on an entry whose def
is now reached or gone, and on an entry whose reason does not hold.  A def
that fits no reason is deleted, not moved into the tests.
"""

import ast
import contextlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "g2kit"
TESTS = ROOT / "tests"
REASONS = ("api", "demo", "oracle", "sampler", "error", "protocol", "fork")

# why each def that no command reaches stays in the package
LEDGER = {
    "cli._frame_in_child.collect": "fork",
    "forms.KForm.__call__": "protocol",
    "forms.KForm.__reduce__": "protocol",
    "forms.KForm.__repr__": "protocol",
    "frames.CrossTable.eps": "api",
    "invariants.invariant_report": "api",
    "liealg.MetricLieAlgebra.brackets": "api",
    "liealg.MetricLieAlgebra.is_unimodular": "api",
    "liealg.codifferential": "oracle tests/test_liealg.py::test_codifferential_of_a_one_form_is_the_pairing_with_the_trace_vector",
    "liealg.nabla_form": "oracle tests/test_kernel_oracles.py::test_r_table_route_equals_r_map_of_nabla_form",
    "liealg.r_map": "oracle tests/test_kernel_oracles.py::test_r_table_route_equals_r_map_of_nabla_form",
    "linalg.Mat7.__getitem__": "protocol",
    "linalg.Mat7.diag": "api",
    "linalg.Mat7.entries": "api",
    "linalg.Mat7.from_columns": "api",
    "linalg.Mat7.transpose": "api",
    "linalg.Mat7.zero": "api",
    "linalg.Vec7.__getitem__": "protocol",
    "linalg._Immutable.__delattr__": "protocol",
    "linalg._Immutable.__setattr__": "protocol",
    "linalg._IntegerGrid.__hash__": "protocol",
    "linalg._IntegerGrid.__reduce__": "protocol",
    "linalg._IntegerGrid.__repr__": "protocol",
    "linalg._Record.__eq__": "protocol",
    "linalg._Record.__hash__": "protocol",
    "linalg._Record.__repr__": "protocol",
    "linalg.det": "oracle tests/test_linalg.py::test_det_matches_minor_expansion",
    "linalg.principal_minor_sum": "oracle tests/test_invariants.py::test_char_poly_vs_minor_sum_oracle",
    "linalg.rank": "api",
    "linalg.rref": "api",
    "sampling.rand_almost_abelian": "sampler",
    "sampling.rand_orthogonal": "oracle tests/test_invariants.py::test_orthogonal_invariance_of_sigma_quantities",
    "sampling.rand_two_step_nilpotent": "sampler",
    "sampling.table_symmetries": "sampler",
    "serialize._past_digit_limit": "error tests/test_cli.py::test_digit_limit_spellings_print_one_message",
}


def defs() -> dict[str, tuple[str, int]]:
    """Every def of the package as its dotted name ("module.Class.method",
    nested defs under their function) -> (file, first line), the line of
    the first decorator for a decorated def, as a code object counts it."""
    out = {}

    def walk(node, prefix: str, path: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                assert name not in out, f"two defs named {name}; the ledger could not tell them apart"
                out[name] = (path, min([child.lineno] + [d.lineno for d in child.decorator_list]))
                walk(child, name, path)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}", path)
            else:
                walk(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, str(path))
    return out


def probe() -> list[tuple[int, str]]:
    """(first line, file) of every package code object called by the probe's runs."""
    sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
    os.chdir(ROOT)
    from golden_manifest import GOLDENS

    if hasattr(os, "fork"):
        del os.fork  # both identities frames run here, where the hook sees them
    called = set()

    def hook(frame, event, arg):
        # the global trace function sees only "call" events; it returns
        # None, so no frame is traced line by line
        called.add(frame.f_code)

    sys.settrace(hook)
    try:
        from g2kit.cli import main

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in GOLDENS.values():
                if "1000" not in argv:  # the 1000-trial identities run reaches nothing more
                    main(argv)
            for path in sorted((TESTS / "golden" / "inputs" / "adversarial").glob("*.json")):
                main([path.stem.partition("-")[0], "--input", str(path)])
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.settrace(None)
    return sorted({(c.co_firstlineno, c.co_filename) for c in called if c.co_filename.startswith(str(SRC))})


def tier1_tests() -> dict[str, str]:
    """The source of its file for the id "tests/<file>::<test>" of every
    test function in the tests directory."""
    out = {}
    for path in TESTS.glob("test_*.py"):
        source = path.read_text(encoding="utf-8")
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                out[f"tests/{path.name}::{node.name}"] = source
    return out


def ledger_faults(
    names: set[str], reached: set[str], ledger: dict[str, str], readme: str, tests: dict[str, str]
) -> list[str]:
    """What is wrong with the ledger against the defs `names` and the
    `reached` ones: unreached defs without an entry, entries for defs now
    reached or gone, and reasons that do not hold.  `tests` maps each test
    id to the source of its file."""
    faults = [f"{name}: unreached and not in the ledger" for name in sorted(names - reached - ledger.keys())]
    for name, reason in sorted(ledger.items()):
        kind, _, test = reason.partition(" ")
        short = name.rpartition(".")[2]
        # README names a method as ".name", a function as the bare name
        method = name.count(".") > 1
        named = (r"\." if method else r"(?<![\w.])") + short + r"\b"
        if name not in names:
            faults.append(f"{name}: in the ledger but gone")
        elif name in reached:
            faults.append(f"{name}: in the ledger but reached")
        elif kind not in REASONS:
            faults.append(f"{name}: unknown reason {reason!r}")
        elif kind in ("oracle", "error") and test not in tests:
            faults.append(f"{name}: {kind} names no tier-1 test ({test!r})")
        elif kind == "oracle" and not re.search(rf"\b{short}\b", tests[test]):
            faults.append(f"{name}: the oracle test's file never names {short}")
        elif kind == "api" and not re.search(rf"`[^`]*{named}[^`]*`", readme):
            faults.append(f"{name}: api but README names no {'.' * method}{short}")
        elif kind == "protocol" and not (short.startswith("__") and short.endswith("__")):
            faults.append(f"{name}: protocol but not a dunder")
        elif kind == "sampler" and not name.startswith("sampling."):
            faults.append(f"{name}: sampler outside g2kit.sampling")
        elif kind == "fork" and not name.startswith("cli._frame_in_child."):
            faults.append(f"{name}: fork outside the forked child's context")
        elif kind == "demo" and not any(short in d.read_text() for d in (ROOT / "demos").glob("*.py")):
            faults.append(f"{name}: no demo calls {short}")
    return faults


def test_every_unreached_def_is_ledgered():
    env = {**os.environ, "PYTHONPATH": ""}
    proc = subprocess.run([sys.executable, __file__], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = {(path, line) for line, path in json.loads(proc.stdout)}
    where = defs()
    reached = {name for name, at in where.items() if at in lines}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert ledger_faults(set(where), reached, LEDGER, readme, tier1_tests()) == []


def test_ledger_checker_catches_each_fault():
    # negative controls on synthetic defs: each fault is reported by name
    names = {"m.f", "m.g", "m.C.__eq__", "m.C.view", "sampling.draw", "m.h"}
    tests = {"tests/test_m.py::test_f": "assert f(1) == g(1)"}
    readme = "The `C.view` of a value, and `g`."
    good = {
        "m.f": "oracle tests/test_m.py::test_f",
        "m.C.__eq__": "protocol",
        "m.C.view": "api",
        "sampling.draw": "sampler",
        "m.h": "error tests/test_m.py::test_f",
    }
    assert ledger_faults(names, {"m.g"}, good, readme, tests) == []
    cases = {
        # an unreached def without an entry
        "unledgered": ({k: v for k, v in good.items() if k != "m.h"}, "m.h: unreached and not in the ledger"),
        # a stale entry: its def is reached now, or gone
        "reached": ({**good, "m.g": "api"}, "m.g: in the ledger but reached"),
        "gone": ({**good, "m.k": "api"}, "m.k: in the ledger but gone"),
        # a reason outside the seven, or one that does not hold
        "unknown": ({**good, "m.h": "legacy"}, "m.h: unknown reason 'legacy'"),
        "no test": ({**good, "m.h": "error tests/test_m.py::test_h"}, "m.h: error names no tier-1 test"),
        "unnamed oracle": ({**good, "m.h": "oracle tests/test_m.py::test_f"}, "m.h: the oracle test's file never"),
        "not in README": ({**good, "m.h": "api"}, "m.h: api but README names no h"),
        "not a dunder": ({**good, "m.h": "protocol"}, "m.h: protocol but not a dunder"),
        "not a sampler": ({**good, "m.h": "sampler"}, "m.h: sampler outside g2kit.sampling"),
        "not the fork": ({**good, "m.h": "fork"}, "m.h: fork outside the forked child's context"),
    }
    for case, (ledger, fault) in cases.items():
        found = ledger_faults(names, {"m.g"}, ledger, readme, tests)
        assert len(found) == 1 and found[0].startswith(fault), (case, found)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit("usage: python tests/test_reachability.py (it takes no options)")
    print(json.dumps(probe()))
