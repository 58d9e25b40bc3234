"""Acceptance battery: ten end-to-end criteria, one test (and one printed
pass line) each.

Each criterion re-derives its expectations from scratch (independent
oracles, fixed random seeds, published constants), so a pass here means
the package reproduces the full verification matrix, not just its own
cached numbers.
"""

import hashlib
import random
import time
from fractions import Fraction

import pytest

from mhslab.bernoulli import (
    PDividesDenominator,
    bernoulli_exact,
    bernoulli_mod,
    von_staudt_clausen_check,
)
from mhslab.compositions import Composition, stuffle
from mhslab.congruences import (
    STATUS_FAIL,
    STATUS_PASS,
    fit_coefficient,
    fit_families,
    reports_to_csv,
    reports_to_json,
    run_battery,
    run_scan,
)
from mhslab.exactnum import primes_in_range, rational_to_residue
from mhslab.identities import probe_thm31_random, run_thm21_suite, run_thm31_suite
from mhslab.mhs import PrefixTable


def _no_failures(reports):
    assert reports, "scan produced no rows"
    fails = [r for r in reports if r.status == STATUS_FAIL]
    assert not fails, f"fail rows: {[(r.check_id, r.p, r.note) for r in fails[:5]]}"
    return sum(1 for r in reports if r.status == STATUS_PASS)


def test_criterion_01_identity_suite_two_factor():
    start = time.perf_counter()
    rep = run_thm21_suite(smax=4, nmax=40)
    elapsed = time.perf_counter() - start
    assert not rep.failures, rep.failures[:3]
    assert rep.points == 4**3 * 41 * 2
    assert elapsed < 60
    print(f"criterion 1: PASS ({rep.points} instances, 0 failures, {elapsed:.1f}s)")


def test_criterion_02_identity_suite_three_factor():
    rep = run_thm31_suite(smax=3, nvalues=(4, 6, 10, 12))
    assert not rep.failures, rep.failures[:3]
    assert rep.points == 3**4 * 4
    probe = probe_thm31_random(50)
    assert not probe.failures, probe.failures[:3]
    print(
        f"criterion 2: PASS ({rep.points} grid instances and"
        f" {probe.points} general-n probes, 0 failures)"
    )


def test_criterion_03_stuffle_faithfulness():
    rng = random.Random(20240814)

    def random_composition():
        depth = rng.randint(1, 3)
        parts = []
        budget = 8
        for i in range(depth):
            hi = budget - (depth - i - 1)
            part = rng.randint(1, max(1, hi - 1) if i < depth - 1 else hi)
            parts.append(part)
            budget -= part
        return Composition(parts)

    table = PrefixTable.for_exact(30)
    checked = 0
    for _ in range(200):
        a, b = random_composition(), random_composition()
        row_a = table.mhs_all(a)
        row_b = table.mhs_all(b)
        expanded = [Fraction(0)] * 31
        for comp, coeff in stuffle(a, b):
            row = table.mhs_all(comp)
            for n in range(31):
                expanded[n] += coeff * row[n]
        for n in range(31):
            assert row_a[n] * row_b[n] == expanded[n], (a, b, n)
            checked += 1
    print(f"criterion 3: PASS (200 random pairs, {checked} exact product checks)")


def test_criterion_04_bernoulli_validation():
    # independent recurrence: the Akiyama-Tanigawa transform
    row = []
    for n in range(61):
        row.append(Fraction(1, n + 1))
        for j in range(n, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        if n != 1:
            assert bernoulli_exact(n) == row[0], f"B_{n}"
    for n in range(2, 201, 2):
        assert von_staudt_clausen_check(n), f"denominator of B_{n}"
    # power-sum cross-oracle: sum a^m == p * B_m (mod p^2)
    pairs = 0
    for p in primes_in_range(3, 100):
        for m in range(2, 51, 2):
            s = sum(pow(a, m, p * p) for a in range(1, p)) % (p * p)
            if m % (p - 1) == 0:
                with pytest.raises(PDividesDenominator):
                    bernoulli_mod(m, p, 1)
                continue
            assert s == p * int(bernoulli_mod(m, p, 1)) % (p * p), (p, m)
            pairs += 1
    print(f"criterion 4: PASS (oracle to B_60, denominators to B_200, {pairs} prime pairs)")


def test_criterion_05_mod_p_scans():
    total = 0
    for check_id, lo, hi in (
        ("cor-sun-modp", 3, 1000),
        ("thm23-general", 3, 300),
        ("hoffman-chain-B3sq", 11, 300),
        ("hjh2-over-j2", 11, 300),
        ("h5h4-over-j3", 17, 300),
        ("tauraso-lemma", 3, 300),
    ):
        total += _no_failures(run_scan(check_id, primes_in_range(lo, hi)))
    print(f"criterion 5: PASS ({total} passing rows, 0 failures)")


def test_criterion_06_mod_p2_scans():
    total = 0
    for check_id in (
        "cor-sun-modp2",
        "h2h-over-j",
        "h2-over-j3-modp2",
        "h3-over-j-modp2",
        "lemma-modp2-triples",
        "cor-conjecture2",
    ):
        total += _no_failures(run_scan(check_id, primes_in_range(7, 500)))
    print(f"criterion 6: PASS ({total} passing rows, 0 failures)")


def test_criterion_07_mod_p3_spot_check():
    reports = run_scan("h-ones-modp3", primes_in_range(5, 200))
    passed = _no_failures(reports)
    assert passed == len(reports)  # no skips in this range either
    print(f"criterion 7: PASS ({passed} primes, exact equality mod p^3)")


def test_criterion_08_constant_adjudication():
    published = {"cor34-1": Fraction(-13), "cor34-2": Fraction(83, 3)}
    verdicts = []
    for name, claimed in published.items():
        fam = fit_families()[name]
        res = fit_coefficient(fam.lhs, fam.w, primes_in_range(11, 200))
        got = res.coefficient
        assert got is not None, f"{name}: no stable coefficient"
        assert len(res.primes_used) >= 10
        assert max(abs(got.numerator), got.denominator) < 100
        # Re-check the ansatz c * B_{p-9} == lhs(p) (mod p) at every used
        # prime from the Bernoulli numbers, not from the fitter's own values.
        assert (fam.w, fam.t, fam.e) == (9, 0, 1)
        for p in res.primes_used:
            c = int(rational_to_residue(got, p, 1))
            assert c * int(bernoulli_mod(p - 9, p, 1)) % p == fam.lhs(p) % p
        verdicts.append(
            f"{name}: fitted {got}, "
            + ("agrees with" if got == claimed else "DISAGREES with")
            + f" the published {claimed}"
        )
    # regression pin: the stable values across every admissible prime
    assert verdicts[0].startswith("cor34-1: fitted -11/3, DISAGREES")
    assert verdicts[1].startswith("cor34-2: fitted 29/3, DISAGREES")
    print("criterion 8: PASS (" + "; ".join(verdicts) + ")")


def test_criterion_09_fitter_soundness():
    c = Fraction(-691, 2730)

    def planted(p):
        return int(rational_to_residue(c, p, 1)) * int(bernoulli_mod(p - 3, p, 1)) % p

    res = fit_coefficient(planted, 3, (31, 37, 41, 43, 47))
    assert res.coefficient == c
    assert res.primes_used == (31, 37, 41, 43, 47)
    print(f"criterion 9: PASS (planted {c} recovered from 5 primes)")


# Pins the battery's report: a faster Bernoulli or table path must not
# change a single byte of it.
BATTERY_CSV_SHA256 = "020294a3a1e8ada2d4320ddc35050e177d68a89c24f9d590b4c9bc8776ff41e8"


def test_criterion_10_battery_performance_and_determinism():
    start = time.perf_counter()
    serial = run_battery(jobs=1)
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"battery took {elapsed:.0f}s single-threaded"
    assert not any(r.status == STATUS_FAIL for r in serial)
    assert hashlib.sha256(reports_to_csv(serial).encode()).hexdigest() == BATTERY_CSV_SHA256
    parallel = run_battery(jobs=2)
    assert reports_to_csv(serial) == reports_to_csv(parallel)
    assert reports_to_json(serial) == reports_to_json(parallel)
    print(
        f"criterion 10: PASS ({len(serial)} rows in {elapsed:.1f}s serial,"
        " parallel output byte-identical)"
    )
