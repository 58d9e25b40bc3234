"""The benchmark's own tests, at toy size:

    python3 -m pytest bench
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_toy(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@functools.cache
def toy_result(workload: str, trace: int) -> dict:
    proc = run_toy(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_toy_run_is_correct_and_reports_listed_metrics(workload, trace):
    result = toy_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed


def test_every_layer_metric_is_measured_by_some_workload():
    # The tracer computes whatever names BENCHMARK.json lists, reading 0 for
    # a span or counter it never records; a misspelt name would read 0 on
    # every workload.
    seen = {name for w in workloads.WORKLOADS for name, m in
            toy_result(w, 1)["metrics"].items() if m["value"] != 0}
    listed = {m["name"] for m in SPEC["per_layer"]} - {run.OVERHEAD}
    assert listed - seen == set()


def test_workloads_are_the_listed_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
def test_wrappers_are_installed_only_in_traced_runs(trace):
    inputs = workloads.make_inputs("bigprime", 1, "toy")
    rep_args = ["--inputs", json.dumps(inputs), "--trace", str(trace)]
    result, _, _ = run.spawn_rep(rep_args, time.monotonic() + 60)
    assert (result["wrappers"] > 0) == bool(trace)
    assert ("layers" in result) == bool(trace)


def test_without_program_sources_no_result_and_nonzero_exit(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_toy("battery", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrong_battery_digest_fails_every_battery_row(monkeypatch):
    monkeypatch.setitem(workloads.SIZES["toy"], "battery_csv_sha256", "0" * 64)
    tally = workloads.run(workloads.make_inputs("battery", 1, "toy"))
    assert tally.failed == workloads.SIZES["toy"]["battery_rows"]


def test_inputs_depend_only_on_the_seed():
    a = workloads.make_inputs("bigprime", 5)
    assert a == workloads.make_inputs("bigprime", 5)
    assert a["primes"] != workloads.make_inputs("bigprime", 6)["primes"]
    lo, hi = workloads.SIZES["full"]["bigprime_range"]
    primes = set(workloads.primes_between(lo, hi))
    assert len(a["primes"]) == 6 and set(a["primes"]) <= primes
    # Mirrored pairs keep the total work the same whatever the seed, and
    # the extreme pair keeps the largest table the same.
    assert abs(sum(a["primes"]) - 3 * (lo + hi)) < 1000
    assert a["primes"][0] == min(primes) and a["primes"][-1] == max(primes)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        ["a", 0.0, 10.0, -1, False],
        ["b", 1.0, 4.0, 0, False],
        ["a", 2.0, 3.0, 1, True],
        ["b", 5.0, 6.0, 0, False],
    ]
    inclusive, own = tracer.times()
    assert inclusive == {"a": 10.0, "b": 4.0}
    assert own == {"a": 10.0 - 4.0 + 1.0, "b": 3.0 - 1.0 + 1.0}
