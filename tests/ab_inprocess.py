"""Same-interpreter A/B timing of two g2kit trees on perfbench's inputs.

    python tests/ab_inprocess.py A B WORKLOAD [--seed S] [--seconds T] [--rounds R]

A and B are two checkouts of this repository.  Their ``src/g2kit`` load
into this one interpreter as the packages ``g2a`` and ``g2b``, so both
trees share the interpreter, its memory layout and the machine's CPU mode
at each moment, which separate processes do not.  WORKLOAD is one of
perfbench's workloads; its inputs come from ``perfbench/workloads.make_ops``
(imported without writing bytecode), with the report count perfbench runs
for ``--seconds`` (20 by default).

Every report, the warm-up ones included, must come out byte-identical from
the two trees, in json and in text; the script exits 1 otherwise.  It then
times the json reports for ``--rounds`` rounds: each report runs once on
each tree, the two in random order, and each round gives the mean, p80 and
p99 latency per tree.  It prints, per metric, the median over the rounds
for each tree, B's change against A, the rounds in which B was faster, and
the spread of A's rounds (interquartile range over median).  An A/A run
(the same tree twice) shows the noise floor.  Tier-1 does not collect this
file; it imports no test framework.
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent


def load_cli(tree: str, name: str):
    """The ``cli`` module of ``tree/src/g2kit``, loaded as package `name`."""
    package = Path(tree).resolve() / "src" / "g2kit"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def runner(cli, fmt: str):
    def run(op: dict) -> tuple[int, str]:
        cfg = cli.RunConfig(op["command"], seed=op["seed"], trials=op["trials"], frame=op["frame"],
                            input_path=op["input_path"], fmt=fmt)
        return cli.run(cfg)

    return run


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
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"WORKLOAD must be one of {', '.join(workloads.WORKLOADS)}")
    clis = {"A": load_cli(args.a, "g2a"), "B": load_cli(args.b, "g2b")}
    with tempfile.TemporaryDirectory() as workdir:
        n = workloads.op_count(args.workload, args.seconds)
        ops, _ = workloads.make_ops(args.workload, args.seed, n, workdir)
        for op in workloads.warmup_ops(args.workload, workdir) + ops:
            for fmt in ("json", "text"):
                a, b = (runner(cli, fmt)(op) for cli in clis.values())
                if a != b:
                    print(f"reports differ ({fmt}): {op}", file=sys.stderr)
                    return 1
        runs = {side: runner(cli, "json") for side, cli in clis.items()}
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

    print(f"{args.workload}, seed {args.seed}: {len(ops)} reports x {args.rounds} rounds, "
          "byte-identical in json and text")
    print(f"{'metric':8} {'A median':>9} {'B median':>9} {'B/A - 1':>8} {'B wins':>7} {'A spread':>9}")
    for metric in rounds["A"][0]:
        a = [r[metric] for r in rounds["A"]]
        b = [r[metric] for r in rounds["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        q1, _, q3 = statistics.quantiles(a, n=4)
        wins = sum(y < x for x, y in zip(a, b))
        print(f"{metric:8} {ma:9.3f} {mb:9.3f} {mb / ma - 1:+8.1%} {wins:>3}/{len(a):<3} {(q3 - q1) / ma:9.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
