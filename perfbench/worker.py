"""Child process that runs a workload's reports inside one g2kit process.

Usage: ``python3 perfbench/worker.py CONFIG.json`` (started by run.py).

The config names the workload, the warm-up operations, the timed
operations (some marked ``traced``), the operations to repeat for the
determinism check and where to write spans.  The worker prints ``ready``
once g2kit is imported and the warm-up is done (run.py times set-up up to
that line), then, unless the config asks for set-up only, one JSON line with
per-operation latencies, the report digest, check results and peak RSS.
"""

from __future__ import annotations

import json
import sys

import g2kit.cli as cli
from g2kit.so7 import g2_basis

import spans
import workloads
from cli_child import peak_rss_mb


def run_op(op: dict) -> tuple[int, str]:
    cfg = cli.RunConfig(op["command"], seed=op["seed"], trials=op["trials"], frame=op["frame"],
                        input_path=op["input_path"], fmt="json")
    return cli.run(cfg)


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    if config["workload"] == "identities":
        # identities runs are CLI processes with no warm-up report; their
        # set-up is the frames and the g2 basis cache
        for build in cli.FRAMES.values():
            g2_basis(build())
    for op in config["warmup"]:
        code, text = run_op(op)
        problem = workloads.check(op, code, text)
        if problem is not None:
            print(f"warm-up operation failed: {problem}", file=sys.stderr)
            return 1
    print("ready", flush=True)
    if config.get("setup_only"):
        return 0

    traced = any(op["traced"] for op in config["ops"])
    tracer = spans.Tracer() if traced else None
    result = workloads.run_stream(config["ops"], run_op, config["repeat"], tracer)
    result["peak_rss_mb"] = peak_rss_mb()
    if traced:
        tracer.dump(config["spans_path"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
