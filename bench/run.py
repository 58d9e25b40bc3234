"""Run one benchmark workload for a fixed time and print its metrics.

    python3 bench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; mhslab is imported from `src/`,
so nothing needs installing.  Every repetition is a fresh interpreter
(rep.py), started one at a time, because every command-line user pays the
import and the cold Bernoulli cache on each invocation.  The run repeats
the workload until `--seconds` have passed and reports medians.  Before
each workload repetition it times one set-up-only repetition, so that the
set-up samples are spread over the whole run like the workload's own.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones;
BENCHMARK.json lists both, with their units.  --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics from the
traced ones, plus trace.overhead_s, the median over pairs of a traced
repetition's wall time minus that of the untraced one just before it.  The
last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
exit code is 0 when every output was correct, 1 when a correctness gate
failed, and 2 (with no result printed) when the run could not be made,
for example because the checkout holds no mhslab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
# Computed here from paired repetitions, not by the tracer.
OVERHEAD = "trace.overhead_s"
# Every run must end well inside three minutes, whatever --seconds says.
HARD_LIMIT_S = 170.0


class RepFailed(RuntimeError):
    """A repetition crashed, timed out or printed no result."""


def spawn_rep(rep_args: list[str], deadline: float) -> tuple[dict, float, resource.struct_rusage]:
    """Run rep.py once; returns (its JSON result, setup_s, resource usage).

    The usage comes from wait4, so it covers the repetition and every
    descendant it reaped (the pool workers of a parallel scan): ru_maxrss
    is the largest peak RSS among them and ru_utime + ru_stime their CPU.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MHSLAB_THREADS", None)
    cmd = [sys.executable, str(HERE / "rep.py"), *rep_args]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, start_new_session=True)
    killer = threading.Timer(max(deadline - started, 0.0), os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{' '.join(rep_args[:2])}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["ready"] - started, usage


def measure(
    inputs: dict, seconds: float, layers: list[str] | None, deadline: float, spans: Path
) -> dict:
    """Repeat the workload until `seconds` have passed; collect samples.

    With `layers` (the per-layer metric names), each untraced repetition
    is followed by a traced one that reports those metrics.
    """
    start = time.monotonic()
    samples: dict[str, list] = {"setup_s": [], "wall_s": [], "cpu_s": [], "peak_rss_mib": []}
    traced: dict[str, list] = {"overhead_s": [], "layers": []}
    attempted = failed = 0
    notes: set[str] = set()
    rep_inputs = ["--inputs", json.dumps(inputs)]
    while True:
        if layers is None:
            _, setup, _ = spawn_rep(["--setup-only"], deadline)
            samples["setup_s"].append(setup)
        result, setup, usage = spawn_rep(rep_inputs + ["--trace", "0"], deadline)
        samples["setup_s"].append(setup)
        samples["wall_s"].append(result["wall_s"])
        samples["cpu_s"].append(usage.ru_utime + usage.ru_stime)
        samples["peak_rss_mib"].append(usage.ru_maxrss / 1024)  # ru_maxrss is in KiB
        results = [result]
        if layers is not None:
            spans.parent.mkdir(exist_ok=True)
            trace_args = ["--trace", "1", "--spans", str(spans), "--layers", ",".join(layers)]
            result, _, _ = spawn_rep(rep_inputs + trace_args, deadline)
            traced["overhead_s"].append(result["wall_s"] - samples["wall_s"][-1])
            traced["layers"].append(result["layers"])
            results.append(result)
        for res in results:
            attempted += res["attempted"]
            failed += res["failed"]
            notes.update(res["notes"])
        if time.monotonic() - start >= seconds:
            break
    return {
        "samples": samples,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "notes": sorted(notes),
    }


def end_to_end(m: dict, spec: list[dict]) -> tuple[dict, list[str]]:
    metrics, lines = {}, []
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        values = m["samples"][name]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        lines.append(f"{name:<14} median {statistics.median(values):.4f} {unit}  n={len(values)}")
    return metrics, lines


def per_layer(m: dict, spec: list[dict]) -> tuple[dict, list[str]]:
    layers = m["traced"]["layers"]
    metrics, lines = {}, []
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name == OVERHEAD:
            values = m["traced"]["overhead_s"]
        else:
            values = [layer[name] for layer in layers]
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:<40} {value:.6g} {unit}")
    lines.append(f"traced repetitions: {len(layers)}")
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input size; 'toy' is for the benchmark's own tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "mhslab" / "__init__.py").is_file():
        print(f"run.py: no mhslab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    layers = [e["name"] for e in spec if e["name"] != OVERHEAD] if args.trace else None
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    spans = HERE / "out" / f"spans-{args.workload}.json"
    try:
        m = measure(inputs, args.seconds, layers, deadline, spans)
    except RepFailed as exc:
        print(f"run.py: repetition failed: {exc}", file=sys.stderr)
        return 2
    metrics, lines = per_layer(m, spec) if args.trace else end_to_end(m, spec)
    correct = m["failed"] == 0 and m["attempted"] > 0
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    for line in lines + [f"note: {n}" for n in m["notes"]]:
        print(line)
    if args.trace:
        print(f"note: spans written to {spans.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
