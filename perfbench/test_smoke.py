"""Smoke test of the benchmark: every workload, one short run per mode.

    python3 -m pytest perfbench/test_smoke.py -q

A run of 0.1 s still makes one full pass (two with --trace 1), so this
checks every answer of every workload and that each metric named in
BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    record = json.loads(
        (ROOT / ".perfbench" / f"result-{workload}-seed7-trace{trace}.json").read_text()
    )
    assert {"nproc", "python", "numpy", "src_lines"} <= set(record["machine"])


def test_crash_is_counted_and_the_run_goes_on():
    package = workloads.import_simplexcode(ROOT)
    client = run.Client(package.cli.main)
    deep = workloads.search_op(1, 3000, 1, False)  # recursion one level per codeword
    client.execute(deep)
    client.execute(workloads.search_op(2, 7, 2, True))
    assert client.attempted == 2 and client.wrong == 0
    if client.failed:
        assert client.failed == 1 and "raised RecursionError" in client.problems[0]


def test_wrong_answer_is_counted():
    client = run.Client(lambda argv: 0)
    client.execute(workloads.Op("stub", (), 0, lambda out: "wrong"))
    client.execute(workloads.Op("stub", (), 1, lambda out: None))
    assert (client.attempted, client.failed, client.wrong) == (2, 2, 2)
