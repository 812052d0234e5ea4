"""The pinned report configurations: one CLI argv per golden file.

``GOLDENS`` maps each report file under ``tests/golden/`` to the argv of
the ``g2kit`` command whose stdout it pins; ``test_golden`` and ``test_cli``
run its entries in process.  Run as ``python tests/golden_manifest.py``
(no options), it runs each entry in a fresh interpreter as ``python -W
error -O -m g2kit.cli <argv>``, and each ``identities`` entry a second time
with ``os.fork`` deleted, so that both frames run in one process.  Every
run must exit 0 and print the golden's bytes; it prints one line per
mismatch and exits 1 if any run differs.  It imports neither pytest nor
g2kit, so it runs on every supported interpreter.

Reports echo ``--input``, so inputs are repository-relative and every run
starts in the repository root.  A golden changes only with a deliberate
change of report content; to regenerate one, write its entry's stdout to it.
"""

import os
import subprocess
import sys
from pathlib import Path

INPUTS = "tests/golden/inputs"

GOLDENS = {
    name: command.split()
    for name, command in {
        "tables-standard.json": "tables --frame standard --format json",
        "tables-cayley.json": "tables --frame cayley --format json",
        "tables-cayley.txt": "tables --frame cayley --format text",
        "classify-heisenberg-standard.json":
            f"classify --input {INPUTS}/heisenberg.json --frame standard --format json",
        "classify-heisenberg-cayley.json": f"classify --input {INPUTS}/heisenberg.json --frame cayley --format json",
        "classify-dense17-standard.json": f"classify --input {INPUTS}/dense17.json --frame standard --format json",
        "classify-dense17-standard.txt": f"classify --input {INPUTS}/dense17.json --frame standard --format text",
        "classify-dense17-cayley.json": f"classify --input {INPUTS}/dense17.json --frame cayley --format json",
        "classify-sym17-standard.json": f"classify --input {INPUTS}/sym17.json --frame standard --format json",
        "classify-sym17-cayley.json": f"classify --input {INPUTS}/sym17.json --frame cayley --format json",
        "classify-skew17-standard.json": f"classify --input {INPUTS}/skew17.json --frame standard --format json",
        "classify-skew17-cayley.json": f"classify --input {INPUTS}/skew17.json --frame cayley --format json",
        "classify-spellings-standard.json":
            f"classify --input {INPUTS}/spellings.json --frame standard --format json",
        "nilmanifold.json": "nilmanifold --format json",
        "nilmanifold.txt": "nilmanifold --format text",
        "nilmanifold-tensor.json": "nilmanifold --convention tensor --format json",
        "nilmanifold-algebra-cayley.txt": f"nilmanifold --input {INPUTS}/algebra.json --frame cayley --format text",
        "nilmanifold-algebra-standard-form.txt":
            f"nilmanifold --input {INPUTS}/algebra.json --frame standard --convention form --format text",
        "nilmanifold-almost-abelian-standard.json":
            f"nilmanifold --input {INPUTS}/almost-abelian.json --frame standard --format json",
        "nilmanifold-almost-abelian-cayley.json":
            f"nilmanifold --input {INPUTS}/almost-abelian.json --frame cayley --format json",
        "identities-seed3-trials15.json": "identities --seed 3 --trials 15 --format json",
        "identities-seed3-trials15.txt": "identities --seed 3 --trials 15 --format text",
        "identities-seed0-trials200.json": "identities --seed 0 --trials 200 --format json",
        "identities-seed7-trials1000.json": "identities --seed 7 --trials 1000 --format json",
    }.items()
}

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
IN_ONE_PROCESS = "import os, sys; del os.fork; from g2kit.cli import main; sys.exit(main(sys.argv[1:]))"


def check_all() -> int:
    """Run every entry on each of its routes; 1 if any run differs from its golden."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    runs = mismatches = 0
    for name, argv in GOLDENS.items():
        expected = (GOLDEN / name).read_bytes()
        routes = {"-m g2kit.cli": ["-m", "g2kit.cli", *argv]}
        if argv[0] == "identities":
            routes["os.fork deleted"] = ["-c", IN_ONE_PROCESS, *argv]
        for route, args in routes.items():
            proc = subprocess.run([sys.executable, "-W", "error", "-O", *args], cwd=ROOT, env=env, capture_output=True)
            runs += 1
            if proc.returncode != 0 or proc.stdout != expected:
                mismatches += 1
                err = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
                stdout = "matches" if proc.stdout == expected else "differs"
                print(f"FAIL tests/golden/{name} ({route}): exit {proc.returncode}, stdout {stdout}", *err, sep="; ")
    print(f"{len(GOLDENS)} goldens, {runs} runs, {mismatches} mismatched")
    return 1 if mismatches else 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit("usage: python tests/golden_manifest.py (it takes no options)")
    sys.exit(check_all())
