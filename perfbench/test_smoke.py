"""Smoke test of the benchmark itself: every workload at tiny sizes, with
all output checks on, untraced once and traced twice.  Run from the
repository root with `python3 -m pytest perfbench`."""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
COUNTS = [name for name, _, _ in run.COUNTS] + ["io.json_bytes"]


def bench(capsys, workload: str, trace: int):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("env ")
    stamp = json.loads(lines[0][4:])
    assert stamp["seed"] == 7 and "kernels_using_numba" in stamp
    result = json.loads(lines[-1])
    assert code == 0, "\n".join(lines)
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result["metrics"]


@pytest.mark.parametrize("workload", run.NAMES)
def test_workload_checks_pass_and_counts_repeat(capsys, workload):
    assert [w["name"] for w in SPEC["workloads"]] == run.NAMES
    e2e = bench(capsys, workload, 0)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in e2e.values())
    first = bench(capsys, workload, 1)
    second = bench(capsys, workload, 1)
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    assert any(first[n]["value"] for n in COUNTS)
    assert {n: first[n] for n in COUNTS} == {n: second[n] for n in COUNTS}
