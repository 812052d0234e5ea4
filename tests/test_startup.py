"""Start-up cost of the CLI module, checked by module names, not by times,
and the source rules every package module keeps.

Every CLI process and every benchmark worker imports ``g2kit.cli``.  The
report records need no ``dataclasses`` (which loads ``inspect``, ``ast``,
``dis`` and ``tokenize``), and only ``main`` needs ``argparse``, so a fresh
interpreter that imports the module loads none of them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import g2kit

PACKAGE = Path(g2kit.__file__).parent

UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse")

# the monomial layout of a form's coordinates, which only forms.py reads
LAYOUT = {"_MONOMIALS", "_POSITION", "_BITS"}


def test_importing_the_cli_loads_no_heavy_module():
    # -S skips site, whose third-party .pth hooks may import any of them
    probe = f"import sys, g2kit.cli; print(' '.join(m for m in {UNWANTED!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def rule_breaks(path: Path) -> list[str]:
    """The breaks of the package's source rules in one module, from one walk
    of its syntax tree: no ``dataclasses`` import and no ``exec``/``eval``;
    no ``assert``, which ``python -O`` strips; no ``lru_cache``/``cache`` on
    a function of a table or a frame, whose values live on the frame; no
    ``_num`` or ``_den`` slot outside ``linalg._IntegerGrid``, the one
    storage of exact values; no read of the monomial layout outside
    ``forms.py``, whose kernels are the only ones to walk it; no unused
    import outside ``__init__``, which re-exports."""
    found, imported, used = [], {}, set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if path.name != "forms.py":
            # a name, an attribute or an imported name
            for name in sorted({getattr(node, f, None) for f in ("id", "attr", "name")} & LAYOUT):
                found.append(f"{where} reads the monomial layout {name}")
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assert):
            found.append(f"{where} assert statement")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("exec", "eval"):
            found.append(f"{where} {node.func.id}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            found += [f"{where} imports dataclasses" for module in modules if module == "dataclasses"]
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = [a.arg for a in node.args.posonlyargs + node.args.args][:1]
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            cached = {getattr(d, "id", None) for d in decorators} | {getattr(d, "attr", None) for d in decorators}
            if first in (["table"], ["frame"]) and cached & {"lru_cache", "cache"}:
                found.append(f"{where} process-wide cache on {node.name}, keyed by a {first[0]}")
        elif isinstance(node, ast.ClassDef) and (path.name, node.name) != ("linalg.py", "_IntegerGrid"):
            for stmt in node.body:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else []
                if any(getattr(t, "id", None) == "__slots__" for t in targets):
                    slots = {c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)}
                    for name in sorted(slots & {"_num", "_den"}):
                        found.append(f"{where} {node.name} stores exact values in slot {name}")
    if path.name != "__init__.py":
        found += [f"{path.name}:{line} unused import {name}" for name, line in imported.items() if name not in used]
    return found


def test_package_modules_keep_the_source_rules():
    assert [found for path in sorted(PACKAGE.glob("*.py")) for found in rule_breaks(path)] == []


def body_key(node: ast.FunctionDef) -> str:
    """A function's body as ``ast.dump`` text, without its docstring and
    with its parameters renamed by position, so two functions that differ
    only in those have one key."""
    args = node.args
    params = [a.arg for a in args.posonlyargs + args.args + [args.vararg] + args.kwonlyargs + [args.kwarg] if a]
    renamed = {name: f"_{k}" for k, name in enumerate(params)}
    module = ast.Module(body=node.body[1:] if ast.get_docstring(node) is not None else node.body, type_ignores=[])
    for name in ast.walk(module):  # renames in place: the tree is parsed for this check only
        if isinstance(name, ast.Name):
            name.id = renamed.get(name.id, name.id)
    return ast.dump(module)


def test_no_two_package_functions_share_a_body():
    where: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where.setdefault(body_key(node), []).append(f"{path.name}:{node.name}")
    assert [names for names in where.values() if len(names) > 1] == []
