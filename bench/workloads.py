"""The benchmark's workloads: inputs made from a seed, the work, and the
correctness gate of each.

`make_inputs` runs in the run.py process and uses the standard library
only, so mhslab receives nothing but the generated inputs.  `run` runs in
a fresh interpreter (see rep.py), calls public mhslab functions through
their modules (so that the traced run's wrappers are the ones called), and
returns how many operations were attempted and how many failed.  An
operation is one report row (battery, battery-jobs2, bigprime) or one
identity instance or stuffle pair (identity).  Wrong output and raised
exceptions both count as failures; an exception counts every operation of
its phase as failed.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import sys
import traceback

WORKLOADS = ("battery", "battery-jobs2", "bigprime", "identity")

# "full" is what the benchmark measures; "toy" keeps the benchmark's own
# tests fast and is gated by its own pinned digest.
SIZES = {
    "full": {
        # None: the package's default battery through run_battery().
        "battery": None,
        "battery_rows": 1057,
        "battery_csv_sha256": "020294a3a1e8ada2d4320ddc35050e177d68a89c24f9d590b4c9bc8776ff41e8",
        "cor34_range": (11, 600),
        "bigprime_range": (20_000, 100_000),
        "bigprime_count": 6,
        "thm21": (4, 60),
        "thm31": (3, 61),
        "probe": (50, 60),
        "stuffle": (4, 40),
    },
    "toy": {
        # A hand-picked scan list run through run_scan, because the package's
        # battery is too slow for a test.  The toy runs therefore never call
        # run_battery(), which only the full size measures.
        "battery": (
            ("cor-sun-modp", 3, 60),
            ("thm23-general", 3, 40),
            ("hoffman-chain-B3sq", 11, 40),
            ("cor-sun-modp2", 7, 40),
            ("h-ones-modp3", 5, 30),
        ),
        "battery_rows": 52,
        "battery_csv_sha256": "541c392d4375536eef83d04f9d72286c22a79c5a7d96245d0fc3eace45f940b7",
        "cor34_range": (11, 80),
        "bigprime_range": (200, 1_000),
        "bigprime_count": 2,
        "thm21": (2, 8),
        "thm31": (2, 13),
        "probe": (5, 12),
        "stuffle": (2, 6),
    },
}

# The published weight-9 constants are wrong on purpose; every fail row of
# these scans must carry the refitted value.
COR34_FITTED = {"cor34-first": "-11/3", "cor34-second": "29/3"}

# Checks whose right sides need no Bernoulli number at all.
BIGPRIME_CHECKS = (
    "homog-vanishing-modp",
    "homog-vanishing-modp2",
    "h5h4-over-j3",
    "cor-sun-modp-even-zero",
)

OK_STATUSES = ("pass", "skipped(hypothesis)", "skipped(bernoulli-pole)")


def primes_between(lo: int, hi: int) -> list[int]:
    """Odd primes p with lo <= p <= hi, by sieve."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, int(hi**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(sieve[q * q :: q]))
    return [p for p in range(max(lo, 3), hi + 1) if sieve[p]]


def compositions_upto(weight: int) -> list[tuple[int, ...]]:
    """Every composition of weight 1..weight, shortest weight first."""

    def of(w: int):
        if w == 0:
            yield ()
            return
        for first in range(1, w + 1):
            for rest in of(w - first):
                yield (first,) + rest

    return [c for w in range(1, weight + 1) for c in of(w)]


def mirrored_primes(seed: int, lo: int, hi: int, count: int) -> list[int]:
    """`count` distinct primes in [lo, hi] in pairs whose members sit
    mirrored about the middle of the range.  Mod-p work grows linearly
    with p, so every seed gets nearly the same total work.  The first pair
    is the range's extreme primes, so the largest table, and with it peak
    memory, is the same for every seed; the seed chooses the other pairs."""
    primes = primes_between(lo, hi)
    rng = random.Random(seed)
    chosen = {primes[0], primes[-1]}
    while len(chosen) < count:
        p = rng.choice(primes)
        i = bisect.bisect_left(primes, lo + hi - p)
        q = min(primes[max(i - 1, 0) : i + 1], key=lambda x: abs(x - (lo + hi - p)))
        if p != q and p not in chosen and q not in chosen:
            chosen.update((p, q))
    return sorted(chosen)


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """The JSON-serializable inputs of one run of `workload`."""
    sz = SIZES[size]
    if workload in ("battery", "battery-jobs2"):
        battery = sz["battery"]
        return {
            "workload": workload,
            "size": size,
            "jobs": 2 if workload == "battery-jobs2" else 1,
            "battery": None
            if battery is None
            else [[cid, primes_between(lo, hi)] for cid, lo, hi in battery],
            "cor34_primes": primes_between(*sz["cor34_range"]),
        }
    if workload == "bigprime":
        return {
            "workload": workload,
            "size": size,
            "checks": list(BIGPRIME_CHECKS),
            "primes": mirrored_primes(seed, *sz["bigprime_range"], sz["bigprime_count"]),
        }
    if workload == "identity":
        smax31, pmax = sz["thm31"]
        comps = compositions_upto(sz["stuffle"][0])
        return {
            "workload": workload,
            "size": size,
            "thm21": list(sz["thm21"]),
            "thm31": [smax31, [p - 1 for p in primes_between(5, pmax)]],
            "probe": [*sz["probe"], seed],
            "stuffle_pairs": [
                [list(a), list(b)] for i, a in enumerate(comps) for b in comps[i:]
            ],
            "stuffle_n": sz["stuffle"][1],
        }
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


class Tally:
    """Operations attempted and failed, phase by phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def phase(self, label: str, planned: int, work) -> None:
        """Run `work()`, which returns its failed-operation count; an
        exception fails all `planned` operations of the phase."""
        self.attempted += planned
        try:
            failed = work()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed = planned
            self.notes.append(f"{label}: raised")
        if failed:
            self.notes.append(f"{label}: {failed} of {planned} failed")
        self.failed += min(planned, failed)


def _battery(inputs: dict, tally: Tally) -> None:
    import mhslab.congruences as congruences

    sz = SIZES[inputs["size"]]
    jobs = inputs["jobs"]

    def battery() -> int:
        if inputs["battery"] is None:
            reports = congruences.run_battery(jobs=jobs)
        else:
            reports = []
            for cid, primes in inputs["battery"]:
                reports.extend(congruences.run_scan(cid, primes, jobs=jobs))
        csv = congruences.reports_to_csv(reports)
        doc = json.loads(congruences.reports_to_json(reports))
        digest = hashlib.sha256(csv.encode()).hexdigest()
        rows = sorted(reports, key=lambda r: (r.check_id, r.p))
        if digest != sz["battery_csv_sha256"] or doc["reports"] != [r.to_dict() for r in rows]:
            tally.notes.append(f"battery CSV sha256 {digest}")
            return sz["battery_rows"]
        return sum(r.status not in OK_STATUSES for r in reports)

    tally.phase("battery", sz["battery_rows"], battery)
    primes = inputs["cor34_primes"]
    for cid, fitted in COR34_FITTED.items():

        def cor34(cid: str = cid, fitted: str = fitted) -> int:
            reports = congruences.run_scan(cid, primes, jobs=jobs)
            congruences.reports_to_csv(reports)
            congruences.reports_to_json(reports)
            refit = [r for r in reports if r.status == "fail"]
            if not refit:
                return len(primes)
            good = sum(r.note.endswith(f"fitted={fitted}") for r in refit)
            good += sum(r.status == "pass" for r in reports)
            return len(primes) - good

        tally.phase(cid, len(primes), cor34)


def _bigprime(inputs: dict, tally: Tally) -> None:
    import mhslab.congruences as congruences

    primes = inputs["primes"]
    for cid in inputs["checks"]:

        def scan(cid: str = cid) -> int:
            reports = congruences.run_scan(cid, primes, jobs=1)
            return len(primes) - sum(r.status == "pass" for r in reports)

        tally.phase(cid, len(primes), scan)


def _identity(inputs: dict, tally: Tally) -> None:
    import mhslab.compositions as compositions
    import mhslab.identities as identities
    import mhslab.mhs as mhs

    def suite(label: str, planned: int, run) -> None:
        def work() -> int:
            report = run()
            return len(report.failures) + abs(planned - report.points)

        tally.phase(label, planned, work)

    smax, nmax = inputs["thm21"]
    suite("thm21", 2 * smax**3 * (nmax + 1), lambda: identities.run_thm21_suite(smax, nmax))
    smax31, nvalues = inputs["thm31"]
    suite("thm31", smax31**4 * len(nvalues), lambda: identities.run_thm31_suite(smax31, nvalues))
    count, pnmax, seed = inputs["probe"]
    suite("probe", count, lambda: identities.probe_thm31_random(count, nmax=pnmax, seed=seed))

    pairs = inputs["stuffle_pairs"]
    n = inputs["stuffle_n"]

    def roundtrip() -> int:
        bad = 0
        for a, b in pairs:
            lhs = identities.eval_formal_sum(compositions.stuffle(a, b), n)
            bad += lhs != mhs.mhs_exact(a, n) * mhs.mhs_exact(b, n)
        return bad

    tally.phase("stuffle", len(pairs), roundtrip)


_RUNNERS = {
    "battery": _battery,
    "battery-jobs2": _battery,
    "bigprime": _bigprime,
    "identity": _identity,
}


def run(inputs: dict) -> Tally:
    """Do one workload's work and check its outputs."""
    tally = Tally()
    _RUNNERS[inputs["workload"]](inputs, tally)
    return tally
