"""The benchmark's own tests: tiny runs of every workload, and its checks.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root.  Each test runs the real command at ``--scale tiny``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


@pytest.fixture
def scratch():
    """A throwaway directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench" / "test-scratch"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
        if not trace:
            assert emitted["value"] > 0, metric["name"]
        # The human-readable line names the metric, its unit and samples.
        assert f"metric {metric['name']} = " in done.stdout
    assert "fingerprint {" in done.stdout
    if trace and workload.startswith("serve"):
        assert "subtraction table" in done.stdout


@pytest.mark.parametrize("workload",
                         ["serve-json", "serve-open-wal", "cluster-routed"])
def test_corrupted_served_report_fails_the_run(workload):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--scale", "tiny", "--corrupt-report")
    assert done.returncode == 1
    assert "correctness check failed" in done.stderr
    assert '"metrics"' not in done.stdout


def test_without_program_sources_exits_nonzero(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(ROOT / "perfbench", scratch / "perfbench")
    done = bench("--workload", "replay", "--seed", "1", "--seconds", "1",
                 cwd=scratch)
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_refuses_absolute_numbers_across_machines(scratch):
    result = {"workload": "replay", "seed": 1, "trace": 0, "scale": "full",
              "metrics": {
                  "events_per_s": {"value": 100.0, "unit": "ev/s"},
                  "cost_ratio": {"value": 2.5, "unit": "ratio"},
              }}
    base = dict(result, fingerprint={"cpu_model": "a", "nproc": 2})
    new = dict(result, fingerprint={"cpu_model": "b", "nproc": 2})
    (scratch / "base.json").write_text(json.dumps(base))
    (scratch / "new.json").write_text(json.dumps(new))
    done = subprocess.run(
        [sys.executable, "perfbench/compare.py", str(scratch / "base.json"),
         str(scratch / "new.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 3
    assert "cost_ratio" in done.stdout
    assert "events_per_s" not in done.stdout
