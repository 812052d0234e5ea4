#!/usr/bin/env python3
"""g2kit benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload classify-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick            # all three workloads in a few seconds

Run from the root of a g2kit checkout; the package is imported from
``src/`` of that checkout.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give the same numbers for people, with the machine facts,
the input properties and a sha256 over the concatenated reports.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_SAMPLES = 5
# a single-threaded workload that gets less CPU than this share of its wall
# time was waiting for a CPU: other processes were competing for the machine
CPU_SHARE_LOADED = 0.9
QUICK_OPS = {"identities": 2, "nilmanifold-batch": 2, "classify-wide": 6}
QUICK_IDENTITY_TRIALS = 2
# candidate tail percentiles, highest first; the report uses the highest one
# that leaves at least ten samples above it, or the maximum when none does
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


class Child:
    """Outcome of one child process: its wall time, stdout, exit code and CPU time."""

    def __init__(self, argv: list[str], wait_ready: bool = False):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        try:
            self.ready_s = None
            if wait_ready and proc.stdout.readline() == b"ready\n":
                self.ready_s = time.perf_counter() - start
            self.stdout = proc.stdout.read().decode()
            # wait4 gives this child's own rusage, not that of earlier children
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime

    def result(self) -> dict:
        if self.code != 0:
            raise RuntimeError(f"benchmark worker exited with code {self.code}")
        return json.loads(self.stdout.splitlines()[-1])


def worker_argv(config: dict, workdir: str, name: str) -> list[str]:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return [sys.executable, str(HERE / "worker.py"), path]


def tail(latency: list[float]) -> tuple[float, str]:
    """Nearest-rank percentile that leaves >= 10 samples above it (or the maximum)."""
    ordered = sorted(latency)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = -(-n * q // 100)  # ceil
        if n - rank >= 10:
            return ordered[int(rank) - 1], f"p{q:g}"
    return ordered[-1], "max"


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_identities(ops, repeat, workdir, span_path) -> dict:
    """Each operation is a fresh `g2kit identities` CLI process."""
    children = []

    def run_cli(op: dict) -> tuple[int, str]:
        k = len(children)
        rss_path = os.path.join(workdir, f"rss-{k}")
        trace = ["--spans", span_path(k)] if op["traced"] else []
        child = Child([sys.executable, str(HERE / "cli_child.py"), rss_path, *trace, *workloads.cli_argv(op)])
        child.rss_mb = 0.0  # a child that crashed wrote none; its check fails
        if os.path.exists(rss_path):
            with open(rss_path, encoding="ascii") as fh:
                child.rss_mb = float(fh.read())
        children.append(child)
        return child.code, child.stdout

    result = workloads.run_stream(ops, run_cli, repeat)
    timed = [c for c, op in zip(children, ops) if not op["traced"]]
    result["peak_rss_mb"] = max(c.rss_mb for c in timed)
    result["cpu_share"] = sum(c.cpu_s for c in timed) / sum(c.wall_s for c in timed)
    return result


def run_in_process(workload, ops, repeat, workdir, span_path) -> dict:
    """One worker process runs the warm-up, then the operations back to back."""
    config = {"workload": workload, "warmup": workloads.warmup_ops(workload, workdir), "ops": ops,
              "repeat": repeat, "spans_path": span_path(0)}
    child = Child(worker_argv(config, workdir, "worker"))
    result = child.result()
    result["cpu_share"] = child.cpu_s / child.wall_s
    return result


def setup_samples(workload: str, workdir: str, count: int) -> list[float]:
    """Fresh interpreter until the first untimed operation is done, `count` times."""
    config = {"workload": workload, "warmup": workloads.warmup_ops(workload, workdir), "setup_only": True}
    argv = worker_argv(config, workdir, "setup")
    out = []
    for _ in range(count):
        child = Child(argv, wait_ready=True)
        if child.code != 0 or child.ready_s is None:
            raise RuntimeError(f"set-up probe exited with code {child.code}")
        out.append(child.ready_s)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    n = QUICK_OPS[workload] if quick else workloads.op_count(workload, seconds)
    load_start = os.getloadavg()[0]
    WORK.mkdir(exist_ok=True)
    span_dir = WORK / "spans"
    span_dir.mkdir(exist_ok=True)
    for old in span_dir.glob(f"{workload}-*.pkl"):
        old.unlink()

    def span_path(k: int) -> str:
        return str(span_dir / f"{workload}-{k}.pkl")

    workdir = tempfile.mkdtemp(prefix="inputs-", dir=WORK)
    try:
        trials = QUICK_IDENTITY_TRIALS if quick else workloads.IDENTITY_TRIALS
        ops, props = workloads.make_ops(workload, seed, n, workdir, trials)
        # a traced run traces every second operation, so that traced and
        # untraced operations see the same machine for the overhead ratio
        for k, op in enumerate(ops):
            op["traced"] = trace and k % 2 == 1
        untraced = [k for k, op in enumerate(ops) if not op["traced"]]
        repeat = [untraced[0]] if workload == "identities" else sorted({untraced[0], untraced[-1]})
        setup = [] if trace else setup_samples(workload, workdir, 1 if quick else SETUP_SAMPLES)
        if workload == "identities":
            result = run_identities(ops, repeat, workdir, span_path)
        else:
            result = run_in_process(workload, ops, repeat, workdir, span_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = result["failures"] + [[k, "report differs on repeat"] for k in result["repeat_mismatch"]]
    attempted = len(ops) + len(repeat)
    failed = len({k for k, _ in failures})
    latency = [result["latency_s"][k] for k in untraced]
    tail_value, tail_name = tail(latency)
    summary = {
        "workload": workload, "seed": seed, "ops": len(latency), "traced_ops": len(ops) - len(latency),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "git": git_sha(),
                    "load1_start": load_start, "load1_end": os.getloadavg()[0]},
        "inputs": props,
        "reports_sha256": result["sha256"],
        "tail_percentile": tail_name,
        "report_p50_ms": statistics.median(latency) * 1e3,
        "setup_samples": len(setup),
        "failed_ratio": failed / attempted,
        "cpu_share": result["cpu_share"],
        "failures": failures[:5],
    }
    if trace:
        traced = [t for t, op in zip(result["latency_s"], ops) if op["traced"]]
        dumps = [spans.load(path) for path in sorted(span_dir.glob(f"{workload}-*.pkl"))]
        metrics = {name: (value, unit_of(name)) for name, value in spans.layer_metrics(dumps).items()}
        metrics["trace_overhead_ratio"] = (statistics.fmean(traced) / statistics.fmean(latency), "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (sum(latency), "s"),
            "reports_per_s": (len(latency) / sum(latency), "1/s"),
            "report_tail_ms": (tail_value * 1e3, "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    return {"summary": summary, "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def unit_of(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".self_us_per_call"):
        return "us"
    return "ratio" if name.endswith("_ratio") else "count"


def report(out: dict) -> None:
    summary = out["summary"]
    machine = summary["machine"]
    print(f"workload {summary['workload']}  seed {summary['seed']}  operations {summary['ops']}"
          f"  traced {summary['traced_ops']}")
    print("machine " + "  ".join(f"{k} {v}" for k, v in machine.items()))
    print(f"cpu_share {summary['cpu_share']:.3f} (CPU time over wall time of the workload's processes)")
    if summary["cpu_share"] < CPU_SHARE_LOADED:
        print("warning: the workload did not get a full CPU; the machine is loaded and timings are suspect")
    print("inputs " + json.dumps(summary["inputs"], sort_keys=True))
    print(f"reports sha256 {summary['reports_sha256']}")
    print(f"failed_ratio {summary['failed_ratio']:.4g} ratio ({out['failed']} of {out['attempted']})")
    print(f"report_p50_ms {summary['report_p50_ms']:.6g} ms (median of {summary['ops']} reports; not gated)")
    for problem in summary["failures"]:
        print(f"failure: operation {problem[0]}: {problem[1]}")
    notes = {"setup_s": f"median of {summary['setup_samples']} fresh processes",
             "report_tail_ms": f"{summary['tail_percentile']} of {summary['ops']} reports"}
    for name, (value, unit) in out["metrics"].items():
        print(f"{name:48s} {value:14.6g} {unit:6s} {notes.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()},
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="run every workload (or --workload) at a tiny size")
    args = parser.parse_args(argv)
    if not (SRC / "g2kit" / "cli.py").is_file():
        print(f"error: no g2kit sources under {SRC}; run from a g2kit checkout", file=sys.stderr)
        return 2
    if args.workload is None and not args.quick:
        parser.error("--workload is required unless --quick is given")
    compileall.compile_dir(str(SRC), quiet=1)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    correct = True
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace), args.quick)
        report(out)
        correct = correct and out["correct"]
    return 0 if correct or not args.quick else 1


if __name__ == "__main__":
    sys.exit(main())
