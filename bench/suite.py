"""Run every benchmark workload, record a results file, compare with another.

    python3 bench/suite.py --trace --out bench/out/results.json
    python3 bench/suite.py --compare bench/baseline.json

Each workload of BENCHMARK.json is run 10 times through run.py, for
BENCHMARK.json's run_seconds each, one run at a time, with seeds 1..10.
For every end-to-end metric the suite prints the median over runs, the
quartiles, the spread (quartile distance over median) and the sample
count, plus the workload's error_ratio (operations failed over operations
attempted).  --trace adds one traced run per workload for the per-layer
metrics.  The results file records the Python version, CPU count, git SHA
and seeds.

--compare prints each end-to-end metric per workload against an earlier
results file.  A change is "worse" when the median moved the wrong way by
more than the metric's bound in BENCHMARK.json, and "unresolved" when
either file's spread exceeds that bound, unless every new run beats every
old one.  The exit code is 1 when any correctness gate failed, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, int]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, json.JSONDecodeError):
        return None, proc.returncode


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def git_sha() -> str:
    """HEAD's SHA, marked "+modified" when the program sources differ from it."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+modified" if status.strip() else "")


def measure(spec: dict, trace: bool) -> tuple[dict, bool]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    results: dict = {}
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in units}
        attempted = failed = 0
        for seed in range(1, RUNS + 1):
            res, code = run_once(workload, seed, seconds, 0)
            if res is None:
                print(f"{workload} seed {seed}: no result (exit {code})", file=sys.stderr)
                all_correct = False
                continue
            all_correct &= res["correct"] and code == 0
            attempted += res["attempted"]
            failed += res["failed"]
            for name in units:
                values[name].append(res["metrics"][name]["value"])
        entry: dict = {
            "attempted": attempted,
            "failed": failed,
            "error_ratio": failed / attempted if attempted else 1.0,
            "end_to_end": {
                name: {"unit": units[name], **summary(v)} for name, v in values.items() if v
            },
        }
        print(f"\n{workload}  ({RUNS} runs, error_ratio {entry['error_ratio']:.4g}"
              f" = {failed}/{attempted})")
        for name, s in entry["end_to_end"].items():
            print(f"  {name:<14} median {s['median']:.4f} {units[name]:<4} q1 {s['q1']:.4f}"
                  f" q3 {s['q3']:.4f} spread {s['spread']:.2%}  n={len(s['values'])}")
        if trace:
            res, code = run_once(workload, 1, seconds, 1)
            if res is None:
                all_correct = False
            else:
                all_correct &= res["correct"] and code == 0
                entry["per_layer"] = res["metrics"]
                for name, m in res["metrics"].items():
                    print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
        results[workload] = entry
    return results, all_correct


def compare(spec: dict, old: dict, new: dict) -> None:
    print(f"\ncompare against {old.get('git_sha', '?')} ({old.get('date', '?')})")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, entry in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            print(f"  {workload}: not in the earlier file")
            continue
        for name, s in entry["end_to_end"].items():
            b = before["end_to_end"].get(name)
            if b is None:
                continue
            m = bounds[name]
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (s["median"] - b["median"]) / b["median"]
            # Signed so that smaller is better for every metric.
            beats = max(sign * v for v in s["values"]) < min(sign * v for v in b["values"])
            if max(s["spread"], b["spread"]) > m["bound"] and not beats:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "WORSE"
            elif beats and change < 0:
                verdict = "better"
            else:
                verdict = "same"
            print(f"  {workload:<14} {name:<14} {b['median']:.4f} -> {s['median']:.4f}"
                  f" {m['unit']:<4}"
                  f"  change {(s['median'] - b['median']) / b['median']:+.1%}"
                  f"  bound {m['bound']:.0%}  {verdict}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, help="write the results file here")
    parser.add_argument("--compare", type=Path, help="an earlier results file")
    args = parser.parse_args()
    sys.stdout.reconfigure(line_buffering=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads, correct = measure(spec, args.trace)
    results = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "seconds": spec["run_seconds"],
        "seeds": list(range(1, RUNS + 1)),
        "workloads": workloads,
    }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    if args.compare:
        compare(spec, json.loads(args.compare.read_text()), results)
    print("\nall correctness gates passed" if correct else "\na correctness gate FAILED")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
