"""Workload definitions: seeded inputs, the operations, and their checks.

Inputs come from this file's own `random.Random(seed)` code, never from
`g2kit.sampling`, so a change to the package's samplers cannot shift them.
They are written in the documented JSON schemas, as a user would hand
them to `g2kit classify --input` or `g2kit nilmanifold --input`.

An operation is a dict naming one g2kit report:
``{"command", "seed", "trials", "frame", "input_path", "shape", "traced"}``.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from fractions import Fraction
from random import Random

DIM = 7
WORKLOADS = ("identities", "nilmanifold-batch", "classify-wide")
FRAMES = ("standard", "cayley")

# trials per `g2kit identities` run: ~2.2 s per run on a 2-vCPU x86 virtual
# machine (Intel Xeon, 2.0 GHz), about half of it in the seeded suites and
# half in the exhaustive ones
IDENTITY_TRIALS = 30

# seconds per operation measured on that machine with Python 3.11; a run
# does round(--seconds / cost) operations, so wall_s stays a fixed amount of
# work for a given --seconds
NOMINAL_COST_S = {"identities": 2.2, "nilmanifold-batch": 0.30, "classify-wide": 0.016}

# every tenth nilmanifold report is the built-in Heisenberg-times-torus model
BUILTIN_EVERY = 10

# (horizontal, central) sizes of the 2-step nilpotent algebras, used in equal
# shares so the mix, and with it the mean report cost, does not vary by seed
NIL_SHAPES = ((2, 1), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3))

CLASSIFY_SHAPES = ("dense", "symmetric", "skew")
WIDE = 10**5  # |p| <= WIDE, 1 <= q <= WIDE


def op_count(workload: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_COST_S[workload]))


def rational_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _wide(rng: Random) -> Fraction:
    return Fraction(rng.randint(-WIDE, WIDE), rng.randint(1, WIDE))


def wide_matrix(rng: Random, shape: str) -> list[list[Fraction]]:
    m = [[Fraction(0)] * DIM for _ in range(DIM)]
    for i in range(DIM):
        for j in range(DIM):
            if shape == "dense":
                m[i][j] = _wide(rng)
            elif j >= i and not (shape == "skew" and i == j):
                m[i][j] = _wide(rng)
                m[j][i] = m[i][j] if shape == "symmetric" else -m[i][j]
    return m


def two_step_nilpotent(rng: Random, n_h: int, n_c: int) -> dict:
    """Brackets of horizontal pairs land in a disjoint central set, so the
    Jacobi identity holds by construction.  At least one bracket is nonzero."""
    indices = list(range(DIM))
    rng.shuffle(indices)
    horizontal, central = indices[:n_h], indices[n_h:n_h + n_c]
    brackets = []
    while not brackets:
        for a in range(n_h):
            for b in range(a + 1, n_h):
                i, j = sorted((horizontal[a], horizontal[b]))
                coeffs = {}
                for z in central:
                    if rng.random() < 0.6:
                        c = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))
                        coeffs[str(z)] = rational_str(c)
                if coeffs:
                    brackets.append({"i": i, "j": j, "coeffs": coeffs})
    return {"dim": DIM, "brackets": brackets}


def _shuffled_mix(rng: Random, kinds, n: int) -> list:
    """Exactly equal shares of `kinds` (up to rounding), in random order."""
    mix = [kinds[k % len(kinds)] for k in range(n)]
    rng.shuffle(mix)
    return mix


def make_ops(workload: str, seed: int, n: int, workdir: str,
             trials: int = IDENTITY_TRIALS) -> tuple[list[dict], dict]:
    """The run's operations and a summary of their input properties."""
    rng = Random(f"{workload}:{seed}")
    ops: list[dict] = []
    if workload == "identities":
        for _ in range(n):
            ops.append(_op("identities", seed=rng.randrange(2**31), trials=trials))
        return ops, {"trials_per_run": trials, "frames": list(FRAMES), "max_denominator": 9}

    bits: list[int] = []  # bit lengths of the input denominators
    if workload == "nilmanifold-batch":
        builtin = range(0, n, BUILTIN_EVERY)
        shapes = iter(_shuffled_mix(rng, NIL_SHAPES, n - len(builtin)))
        for k in range(n):
            if k in builtin:
                ops.append(_op("nilmanifold", shape="builtin"))
                continue
            n_h, n_c = next(shapes)
            algebra = two_step_nilpotent(rng, n_h, n_c)
            bits.extend(Fraction(v).denominator.bit_length() for b in algebra["brackets"] for v in b["coeffs"].values())
            path = _write(workdir, k, algebra)
            ops.append(_op("nilmanifold", frame=FRAMES[k % 2], input_path=path, shape=f"h{n_h}c{n_c}"))
        return ops, {"shape_mix": _counts(op["shape"] for op in ops), **_bit_summary(bits)}

    shapes = _shuffled_mix(rng, CLASSIFY_SHAPES, n)
    for k in range(n):
        m = wide_matrix(rng, shapes[k])
        bits.extend(x.denominator.bit_length() for row in m for x in row)
        path = _write(workdir, k, {"matrix": [[rational_str(x) for x in row] for row in m]})
        ops.append(_op("classify", frame=FRAMES[k % 2], input_path=path, shape=shapes[k]))
    return ops, {"shape_mix": _counts(shapes), **_bit_summary(bits)}


def warmup_ops(workload: str, workdir: str) -> list[dict]:
    """Fixed, seed-independent first operations that fill the caches of both frames."""
    if workload == "identities":
        return []
    if workload == "nilmanifold-batch":
        algebra = {"dim": DIM, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}]}
        path = _write(workdir, "warmup", algebra)
        return [_op("nilmanifold", shape="builtin"), _op("nilmanifold", frame="standard", input_path=path)]
    path = _write(workdir, "warmup", {"matrix": [[str(i * DIM + j - 24) for j in range(DIM)] for i in range(DIM)]})
    return [_op("classify", frame=frame, input_path=path) for frame in FRAMES]


def _op(command, seed=0, trials=1, frame="standard", input_path=None, shape="") -> dict:
    return {"command": command, "seed": seed, "trials": trials, "frame": frame,
            "input_path": input_path, "shape": shape, "traced": False}


def _write(workdir: str, k, data) -> str:
    path = os.path.join(workdir, f"input-{k}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _counts(items) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in items:
        out[item] = out.get(item, 0) + 1
    return dict(sorted(out.items()))


def _bit_summary(bits: list[int]) -> dict:
    return {"denominator_bits_max": max(bits), "denominator_bits_median": statistics.median(bits)}


def cli_argv(op: dict) -> list[str]:
    argv = [op["command"], "--seed", str(op["seed"]), "--trials", str(op["trials"]),
            "--frame", op["frame"], "--format", "json"]
    if op["input_path"]:
        argv += ["--input", op["input_path"]]
    return argv


def check(op: dict, code: int, text: str) -> str | None:
    """Why a report is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if op["command"] in ("identities", "nilmanifold"):
        return None if report.get("passed") is True else "report says passed: false"
    chi_zero = all(Fraction(c) == 0 for c in report["chi"])
    if op["shape"] == "symmetric" and not chi_zero:
        return "chi is nonzero for a symmetric input"
    if ("X4" in report["flags"]) == chi_zero:
        return f"X4 flag {'present' if chi_zero else 'absent'} with chi {'zero' if chi_zero else 'nonzero'}"
    return None


def run_stream(ops: list[dict], run, repeat=(), tracer=None) -> dict:
    """Run `ops` one after another with `run(op) -> (exit code, report)`.

    Only `run` is timed.  Each report is checked and fed to one sha256 over
    the concatenated reports; the operations listed in `repeat` are run once
    more after the stream, and their reports must come out byte-identical.
    With a `tracer`, operations marked ``traced`` run with it installed;
    installing and removing it is not timed.
    """
    latency, failures, kept = [], [], {}
    digest = hashlib.sha256()
    for k, op in enumerate(ops):
        traced = tracer is not None and op["traced"]
        if traced:
            tracer.op = k
            tracer.install()
        start = time.perf_counter()
        code, text = run(op)
        latency.append(time.perf_counter() - start)
        if traced:
            tracer.uninstall()
        digest.update(text.encode())
        if k in repeat:
            kept[k] = text
        problem = check(op, code, text)
        if problem is not None:
            failures.append([k, problem])
    mismatch = [k for k in repeat if run(ops[k])[1] != kept[k]]
    return {"latency_s": latency, "sha256": digest.hexdigest(), "failures": failures,
            "repeat_mismatch": mismatch}
