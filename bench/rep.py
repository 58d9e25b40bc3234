"""One repetition of a benchmark workload, in a fresh interpreter.

Started by run.py with mhslab's source directory on PYTHONPATH.  It
imports mhslab and builds the check registry (the set-up every command-line
user pays), then, unless --setup-only, runs the workload on the inputs it
was given, checks the outputs, and prints one JSON line:

    ready      time.monotonic() when set-up finished (run.py subtracts the
               moment it started this process, giving setup_s)
    wall_s     from the first call into mhslab until the outputs are checked
    attempted, failed, notes   the correctness gate's tally
    wrappers   tracing wrappers installed at the end of the work
    layers     the per-layer metrics named by --layers (traced repetitions only)
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inputs", help="workload inputs as JSON")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where a traced repetition writes its spans")
    parser.add_argument("--layers", default="",
                        help="comma-separated per-layer metric names a traced repetition reports")
    args = parser.parse_args()

    import mhslab.congruences

    mhslab.congruences.registry()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import tracing
    import workloads

    inputs = json.loads(args.inputs)
    tracer = tracing.Tracer().install() if args.trace else None
    t0 = time.perf_counter()
    tally = workloads.run(inputs)
    wall = time.perf_counter() - t0
    out = {
        "ready": ready,
        "wall_s": wall,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
        "wrappers": tracing.count_wrappers(),
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics(args.layers.split(","))
        if inputs.get("jobs", 1) > 1:
            out["notes"].append(
                "spans are parent-side only: forked pool workers' spans are lost"
            )
        if args.spans:
            tracer.dump(args.spans, {"workload": inputs["workload"], "notes": out["notes"]})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
