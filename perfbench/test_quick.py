"""Smoke test of the benchmark's quick mode: every workload runs, every report
checks out, and the printed metrics are exactly those BENCHMARK.json declares.

    python3 -m pytest -q perfbench/test_quick.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _declared(kind: str) -> set[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_mode(trace, kind):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    results = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 3
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == _declared(kind)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
