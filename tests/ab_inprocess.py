"""Same-interpreter A/B timing of two g2kit trees on perfbench's inputs.

    python tests/ab_inprocess.py A B WORKLOAD [--seed S] [--seconds T] [--rounds R] [--format F]
        [--record PATH]

A and B are two checkouts of this repository.  The first line printed
gives the line count of each tree's ``src/g2kit/*.py`` (the figure of
``cat src/g2kit/*.py | wc -l``) and B's change.  Their ``src/g2kit`` load
into this one interpreter as the packages ``g2a`` and ``g2b``, so both
trees share the interpreter, its memory layout and the machine's CPU mode
at each moment, which separate processes do not.  WORKLOAD is one of
perfbench's workloads; its inputs come from ``perfbench/workloads.make_ops``
(imported without writing bytecode), with the report count perfbench runs
for ``--seconds`` (20 by default).  WORKLOAD may also be
``nilmanifold-dense``: as many ``nilmanifold`` reports as
``nilmanifold-batch`` runs, on the 15 algebras of
``tests/geometry_checks.rotated_models`` for the seeds S, S + 1 and S + 2
(five model algebras in a rotated basis each, 105-147 nonzero structure
constants), written in the ``{"dim", "brackets"}`` schema by the
``g2kit`` of this script's own checkout, with frames alternating.

Every report, the warm-up ones included, must come out byte-identical from
the two trees, in json and in text; the script exits 1 otherwise.  It then
times the reports in ``--format`` (json by default, or text) for
``--rounds`` rounds: each report runs once on each tree, the two in random
order, and each round gives the mean, p80 and p99 latency per tree.  It
prints, per metric, the median over the rounds for each tree, B's change
against A, the rounds in which B was faster, and the spread of A's rounds
(interquartile range over median).  An A/A run (the same tree twice)
shows the noise floor.

Last it counts, per tree, the opcode events a report in ``--format``
executes in the tree's own g2kit code (``sys.settrace`` with
``f_trace_opcodes``, on no other code), with ``os.fork`` deleted so that
every frame runs in this process: warm, the mean over the timed reports,
and cold, each frame's first report from freshly built frames.  These
counts repeat exactly from run to run, so an A/A run whose counts differ
exits 1.

With ``--record PATH`` it also appends what it printed (the line counts,
each metric's medians, B/A, B's wins and A's spread, the opcode counts),
with the workload, seed, report and round counts, the Python version and
``nproc``, as one entry of the ``runs`` list of the JSON file at PATH,
which it creates if missing; one file so holds several input sets.
Tier-1 does not collect this file; it imports no test framework.
"""

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
DENSE = "nilmanifold-dense"


def load_cli(tree: str, name: str):
    """The ``cli`` module of ``tree/src/g2kit``, loaded as package `name`."""
    package = Path(tree).resolve() / "src" / "g2kit"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def line_count(tree: str) -> int:
    """The newlines in the tree's ``src/g2kit/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (Path(tree) / "src" / "g2kit").glob("*.py"))


def dense_ops(seed: int, n: int, workdir: str) -> list[dict]:
    """n nilmanifold reports cycling through the rotated model algebras of
    the seeds seed..seed + 2, frames alternating."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from geometry_checks import rotated_models

    from g2kit.serialize import algebra_to_json

    paths = []
    for k, mla in enumerate(m for s in range(seed, seed + 3) for m in rotated_models(s)):
        paths.append(os.path.join(workdir, f"dense-{k}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(algebra_to_json(mla), fh)
    frames = ("standard", "cayley")
    return [{"command": "nilmanifold", "seed": 0, "trials": 1, "frame": frames[k % 2],
             "input_path": paths[k % len(paths)]} for k in range(n)]


def runner(cli, fmt: str):
    def run(op: dict) -> tuple[int, str]:
        cfg = cli.RunConfig(op["command"], seed=op["seed"], trials=op["trials"], frame=op["frame"],
                            input_path=op["input_path"], fmt=fmt)
        return cli.run(cfg)

    return run


def opcode_events(run, op: dict, package: str, before=None) -> int:
    """The opcode events run(op) executes in code whose file lies under
    `package`; calls into any other code are not traced.  The report runs
    twice, each time after before() when it is given, and the second run
    is counted: Python 3.12 and 3.13 report fewer events for the first
    traced run of a code path."""
    count = 0

    def opcode(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return opcode

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcode

    for _ in range(2):
        if before is not None:
            before()
        count = 0
        sys.settrace(call)
        try:
            run(op)
        finally:
            sys.settrace(None)
    return count


def opcode_counts(cli, package: str, ops: list[dict], fmt: str) -> dict[str, float]:
    """Warm: the mean opcode events per report in `fmt` over `ops`.  Cold:
    for each frame, those of its first report in `ops` after every frame
    builder is cleared; this leaves the tree's frames cold."""
    run = runner(cli, fmt)

    def clear():
        for build in cli.FRAMES.values():
            build.cache_clear()

    fork = getattr(os, "fork", None)
    if fork is not None:
        del os.fork
    try:
        counts = {"warm mean": statistics.fmean(opcode_events(run, op, package) for op in ops)}
        for frame in cli.FRAMES:
            first = next((op for op in ops if op["frame"] == frame), None)
            if first is not None:
                counts[f"cold {frame}"] = opcode_events(run, first, package, clear)
    finally:
        if fork is not None:
            os.fork = fork
    return counts


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def summary(latency: list[float]) -> dict[str, float]:
    return {
        "mean_ms": 1e3 * statistics.fmean(latency),
        "p80_ms": 1e3 * percentile(latency, 80),
        "p99_ms": 1e3 * percentile(latency, 99),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    parser.add_argument("--record", metavar="PATH")
    args = parser.parse_args(argv)
    lines = [line_count(tree) for tree in (args.a, args.b)]
    print(f"src/g2kit lines: A {lines[0]}, B {lines[1]} ({lines[1] - lines[0]:+d})", flush=True)

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    if args.workload not in (*workloads.WORKLOADS, DENSE):
        parser.error(f"WORKLOAD must be one of {', '.join(workloads.WORKLOADS)}, {DENSE}")
    clis = {"A": load_cli(args.a, "g2a"), "B": load_cli(args.b, "g2b")}
    with tempfile.TemporaryDirectory() as workdir:
        if args.workload == DENSE:
            n = workloads.op_count("nilmanifold-batch", args.seconds)
            ops, warmup = dense_ops(args.seed, n, workdir), workloads.warmup_ops("nilmanifold-batch", workdir)
        else:
            n = workloads.op_count(args.workload, args.seconds)
            ops, _ = workloads.make_ops(args.workload, args.seed, n, workdir)
            warmup = workloads.warmup_ops(args.workload, workdir)
        for op in warmup + ops:
            for fmt in ("json", "text"):
                a, b = (runner(cli, fmt)(op) for cli in clis.values())
                if a != b:
                    print(f"reports differ ({fmt}): {op}", file=sys.stderr)
                    return 1
        runs = {side: runner(cli, args.fmt) for side, cli in clis.items()}
        coin = Random(args.seed)
        rounds = {side: [] for side in runs}
        for _ in range(args.rounds):
            latency = {side: [] for side in runs}
            for op in ops:
                order = list(runs)
                coin.shuffle(order)
                for side in order:
                    start = time.perf_counter()
                    runs[side](op)
                    latency[side].append(time.perf_counter() - start)
            for side in runs:
                rounds[side].append(summary(latency[side]))
        packages = {side: str(Path(tree).resolve() / "src" / "g2kit") + os.sep for side, tree in zip("AB", (args.a, args.b))}
        counts = {side: opcode_counts(cli, packages[side], ops, args.fmt) for side, cli in clis.items()}

    latency = {}
    for metric in rounds["A"][0]:
        a = [r[metric] for r in rounds["A"]]
        b = [r[metric] for r in rounds["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        # one round has no spread
        q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (ma, ma, ma)
        latency[metric] = {"A median": ma, "B median": mb, "B/A - 1": mb / ma - 1,
                           "B wins": sum(y < x for x, y in zip(a, b)), "A spread": (q3 - q1) / ma}

    print(f"{args.workload}, seed {args.seed}: {len(ops)} reports x {args.rounds} rounds, "
          f"byte-identical in json and text, timed in {args.fmt}")
    print(f"{'metric':8} {'A median':>9} {'B median':>9} {'B/A - 1':>8} {'B wins':>7} {'A spread':>9}")
    for metric, m in latency.items():
        print(f"{metric:8} {m['A median']:9.3f} {m['B median']:9.3f} {m['B/A - 1']:+8.1%} "
              f"{m['B wins']:>3}/{args.rounds:<3} {m['A spread']:9.1%}")

    print("opcode events per report in g2kit code")
    print(f"{'count':14} {'A':>12} {'B':>12} {'B/A - 1':>8}")
    for name, a in counts["A"].items():
        b = counts["B"][name]
        print(f"{name:14} {a:12.1f} {b:12.1f} {b / a - 1:+8.2%}")
    if args.record is not None:
        record(args.record, {
            "workload": args.workload, "seed": args.seed, "reports": len(ops), "rounds": args.rounds,
            "format": args.fmt, "python": platform.python_version(), "nproc": nproc(),
            "src_lines": dict(zip("AB", lines)), "latency": latency,
            "opcode_events": {name: {side: counts[side][name] for side in "AB"} for name in counts["A"]},
        })
    if packages["A"] == packages["B"] and counts["A"] != counts["B"]:
        print("the same tree counted differently on the two sides", file=sys.stderr)
        return 1
    return 0


def nproc() -> int:
    """The CPUs this process may run on, as ``nproc`` prints them."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def record(path: str, run: dict) -> None:
    """Append one run's figures to the ``runs`` list of the JSON file at
    `path`, which is created if it does not exist."""
    runs = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"runs": [*runs, run]}, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
