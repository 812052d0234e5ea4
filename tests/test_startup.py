"""Start-up cost of the CLI module, checked by module names, not by times.

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


def test_importing_the_cli_loads_no_heavy_module():
    # -S skips site, whose third-party .pth hooks may import any of them
    probe = f"import sys, g2kit.cli; print(' '.join(m for m in {UNWANTED!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_no_package_module_imports_dataclasses_or_runs_generated_code():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names = [node.func.id] if node.func.id in ("exec", "eval") else []
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in ("dataclasses", "exec", "eval")]
    assert found == []
