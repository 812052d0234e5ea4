"""Rewrite the goldens whose report changed, when the change only adds lines.

Run as ``python tests/regen_goldens.py KEY...`` from any directory.  It runs
every entry of ``golden_manifest.GOLDENS`` once, as ``python -W error -O -m
g2kit.cli <argv>`` through the manifest's own ``run``, and compares its
stdout with the golden; a golden that does not exist yet counts as empty.
Each golden that differs must be its old lines, in their order, with lines
added, and with lines changed in place only on the listed KEYs, if any (a
line's key is its leading ``"name":`` in JSON or ``name:`` in text, at the
same indentation).  If every run exits 0 and every changed golden passes, it
rewrites those goldens and prints one summary line per file; otherwise it
prints why and writes nothing.  Exit code 0 when it wrote (or nothing
changed), 1 when it refused, 2 on a usage error.
"""

import re
import sys

from golden_manifest import GOLDEN, GOLDENS, run

KEY = re.compile(r'(\s*)"?([^"\s:]+)"?:(?:\s|$)')


def line_key(line: str) -> tuple[str, str] | None:
    """(indentation, name) of a ``"name": value`` or ``name: value`` line."""
    m = KEY.match(line)
    return m.groups() if m else None


def additive_change(old: str, new: str, keys: set[str]) -> tuple[list[str], list[tuple[str, str]]]:
    """(added lines, changed (old, new) line pairs) of ``new`` against
    ``old``.  Raises ``ValueError`` unless the lines of ``old`` appear in
    ``new`` in their order, each as it was or, for a line whose key is in
    ``keys``, as a line with the same key and indentation."""
    added, changed = [], []
    lines = iter(new.splitlines())
    for n, line in enumerate(old.splitlines(), 1):
        key = line_key(line)
        for candidate in lines:
            if candidate == line:
                break
            if key is not None and key[1] in keys and line_key(candidate) == key:
                changed.append((line, candidate))
                break
            added.append(candidate)
        else:
            raise ValueError(f"old line {n} {line!r} is gone, moved or changed")
    added.extend(lines)
    return added, changed


def summary(name: str, old: str, added: list[str], changed: list[tuple[str, str]]) -> str:
    """One line per rewritten golden: what it gained and what changed."""
    if not old:
        return f"tests/golden/{name}: new, {len(added)} lines"
    names = sorted({key[1] if key else "(no key)" for key in map(line_key, added)})
    edits = sorted({f"{a.strip()} -> {b.strip()}" for a, b in changed})
    return (
        f"tests/golden/{name}: +{len(added)} lines ({', '.join(names) or '-'}), "
        f"{len(changed)} changed ({'; '.join(edits) or '-'})"
    )


def main(keys: list[str]) -> int:
    if any(key.startswith("-") for key in keys):
        print("usage: python tests/regen_goldens.py [KEY...] (the keys whose lines may change)", file=sys.stderr)
        return 2
    pending, lines, refused = {}, [], False
    for name, argv in GOLDENS.items():
        proc = run(["-m", "g2kit.cli", *argv])
        path = GOLDEN / name
        old = path.read_bytes().decode() if path.exists() else ""
        if proc.returncode != 0:
            refused = True
            err = proc.stderr.decode(errors="replace").splitlines()[-1:]
            print(f"FAIL tests/golden/{name}: exit {proc.returncode}", *err, sep="; ")
            continue
        new = proc.stdout.decode()
        if new == old:
            continue
        try:
            added, changed = additive_change(old, new, set(keys))
        except ValueError as exc:
            refused = True
            print(f"REFUSED tests/golden/{name}: {exc}")
            continue
        pending[path] = proc.stdout
        lines.append(summary(name, old, added, changed))
    if refused:
        print("nothing written")
        return 1
    for path, data in pending.items():
        path.write_bytes(data)
    print(*lines, f"{len(pending)} of {len(GOLDENS)} goldens rewritten", sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
