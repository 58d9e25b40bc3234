"""Congruence checks: closed forms against direct modular evaluation, the
check registry, scan orchestration, and the coefficient fitter.

The closed-form (rhs) and direct (lhs) evaluators are independent by
construction: rhs code touches Bernoulli numbers and binomials only, lhs
code touches prefix tables only.  Two tests enforce that independence by
sabotaging the other side's entry points.
"""

import json
import math
import multiprocessing
import pickle
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from fractions import Fraction

import pytest

import mhslab.congruences as congruences
from mhslab.bernoulli import bernoulli_mod
from mhslab.congruences import (
    DEFAULT_BATTERY,
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_SKIP_HYPOTHESIS,
    STATUS_SKIP_POLE,
    CheckMember,
    CongruenceCheck,
    InsufficientPrimes,
    UnknownCheckId,
    fit_coefficient,
    fit_families,
    get_check,
    registry,
    reports_to_csv,
    reports_to_json,
    run_battery,
    run_check,
    run_scan,
    thm23_random_triples,
)
from mhslab.exactnum import primes_in_range, rational_to_residue
from mhslab.mhs import PrefixTable, mhs_mod

ALL_CHECK_IDS = [
    "cor-conjecture2",
    "cor-first-display",
    "cor-sun-modp",
    "cor-sun-modp-even-zero",
    "cor-sun-modp2",
    "cor34-first",
    "cor34-fourth",
    "cor34-second",
    "cor34-third",
    "depth2-modp",
    "depth2-modp2",
    "depth3-oddweight-modp",
    "h-ones-modp3",
    "h2-over-j3-modp2",
    "h2h-over-j",
    "h3-over-j-modp2",
    "h5h4-over-j3",
    "hjh2-over-j2",
    "hoffman-chain-B3sq",
    "homog-bernoulli-modp2",
    "homog-vanishing-modp",
    "homog-vanishing-modp2",
    "lemma-modp2-triples",
    "tauraso-lemma",
    "thm23-general",
]


# ---------------------------------------------------------------------------
# Closed forms against direct evaluation.
# ---------------------------------------------------------------------------


def _member(check_id, label):
    chk = get_check(check_id)
    (mem,) = [m for m in chk.members if m.label == label]
    return mem


def _assert_members_match(check_id, primes):
    """Every member of a check agrees with mhs_mod at its admissible primes."""
    chk = get_check(check_id)
    checked = 0
    for p in primes:
        t = PrefixTable.for_prime(p, chk.e)
        for mem in chk.members:
            if p >= mem.min_prime:
                want = t.mhs(mem.composition)
                assert mem.rhs(p, chk.e) == want, (mem.label, p)
                checked += 1
    return checked


def test_homogeneous_closed_form():
    for check_id in (
        "homog-vanishing-modp",
        "homog-vanishing-modp2",
        "homog-bernoulli-modp2",
        "h-ones-modp3",
    ):
        assert _assert_members_match(check_id, primes_in_range(5, 40))
    # the builder over the full (s, k) grid, registered or not
    for p in (13, 17, 19):
        for s in (1, 2, 3):
            for k in (1, 2, 3):
                for e in (1, 2):
                    min_prime, terms = congruences._homogeneous(s, k, e)
                    if p < min_prime:
                        continue
                    got = congruences._evaluate(terms, p, e)
                    assert got == int(mhs_mod((s,) * k, p, e)), (s, k, p, e)


def test_homogeneous_validation():
    # the hypothesis p >= sk+3 is the member's smallest prime
    assert _member("homog-vanishing-modp", "s=2,l=3").min_prime == 9
    rep = run_check("homog-vanishing-modp", 7)
    assert rep.status == STATUS_PASS and "s=2,l=3" not in rep.lhs
    with pytest.raises(ValueError):
        congruences._homogeneous(0, 1, 1)
    with pytest.raises(ValueError):
        congruences._homogeneous(1, 1, 4)


def test_depth2_mod_p_full_grid():
    chk = get_check("depth2-modp")
    grid = [(s1, s2) for s1 in range(1, 5) for s2 in range(1, 5)]
    assert [m.composition for m in chk.members] == grid
    assert all(m.min_prime == sum(m.composition) + 1 for m in chk.members)
    assert _assert_members_match("depth2-modp", (7, 11, 13)) == 13 + 16 + 16


def test_depth2_mod_p_exponent_reduction():
    # exponents reduce mod p-1, onto a registered member's closed form
    rhs = _member("depth2-modp", "H(2,3)").rhs(7, 1)
    assert int(mhs_mod((8, 9), 7, 1)) == int(mhs_mod((2, 3), 7, 1)) == rhs == 2


def test_depth2_mod_p_weight_boundary():
    # at p = s1+s2, just below the registered range, the binomial
    # coefficient (-1)^s2 C(p,s1)/p absorbs the prime and B_0 = 1
    for (s1, s2), p in (((2, 3), 5), ((3, 4), 7), ((4, 3), 7)):
        want = (-1) ** s2 * (math.comb(p, s1) // p) % p
        assert int(mhs_mod((s1, s2), p, 1)) == want, (s1, s2)
    assert int(mhs_mod((2, 3), 5, 1)) == 3
    # above the boundary the sum vanishes mod p
    assert int(mhs_mod((3, 3), 5, 1)) == 0
    assert int(mhs_mod((4, 4), 7, 1)) == 0


def test_depth2_mod_p2_even_weight():
    assert _assert_members_match("depth2-modp2", (11, 13, 17)) == 3 * 8
    # p > w+1: at p = 5 no member is admissible
    assert _member("depth2-modp2", "H(2,2)").min_prime == 6
    rep = run_check("depth2-modp2", 5)
    assert (rep.status, rep.note) == (STATUS_SKIP_HYPOTHESIS, "requires p >= 6")


def test_depth2_mod_p2_odd_weight_four_term_form():
    # the refined closed form for H(1,4) and its negated reversal,
    # exact mod p^2 for every prime from 11 up
    h14, h41 = _member("depth2-modp2", "H(1,4)"), _member("depth2-modp2", "H(4,1)")
    for p in primes_in_range(11, 60):
        t = PrefixTable.for_prime(p, 2)
        assert h14.rhs(p, 2) == t.mhs((1, 4))
        assert h41.rhs(p, 2) == t.mhs((4, 1))
        # reduced mod p it collapses to the classical one-term values
        b = int(bernoulli_mod(p - 5, p, 1))
        assert h14.rhs(p, 2) % p == b
        assert h41.rhs(p, 2) % p == -b % p


def test_depth2_mod_p2_odd_weight_rejections():
    # the four-term form starts at p = 11: at p = 7 it is defined but wrong
    assert _member("depth2-modp2", "H(1,4)").min_prime == 11
    assert _member("depth2-modp2", "H(1,4)").rhs(7, 2) != int(mhs_mod((1, 4), 7, 2))
    assert "H(1,4)" not in run_check("depth2-modp2", 7).lhs
    with pytest.raises(ValueError):
        congruences._depth2_modp2(2, 3)  # no closed form registered for (2,3)
    with pytest.raises(ValueError):
        congruences._depth2_modp2(0, 2)


def test_depth3_odd_weight_closed_form():
    chk = get_check("depth3-oddweight-modp")
    triples = [(1, 1, 1), (1, 2, 2), (2, 1, 2), (1, 3, 1), (3, 1, 1), (2, 2, 3)]
    assert [m.composition for m in chk.members] == triples
    assert _assert_members_match("depth3-oddweight-modp", (11, 13)) == 12
    assert _member("depth3-oddweight-modp", "H(1,1,1)").rhs(11, 1) == 0  # odd middle
    with pytest.raises(ValueError):
        congruences._depth3_oddweight(1, 1, 2)  # even weight
    # p <= w is outside the hypothesis: (2,2,3) needs p >= 8
    assert _member("depth3-oddweight-modp", "H(2,2,3)").min_prime == 8
    assert "H(2,2,3)" not in run_check("depth3-oddweight-modp", 7).lhs


def test_tauraso_closed_form():
    assert _assert_members_match("tauraso-lemma", (13, 17)) == 28 + 32


def test_tauraso_symmetric_case_skips_bernoulli():
    # a = b makes the coefficient vanish; for a = b = 0, mid = 1 the
    # Bernoulli factor would be the undefined B_{p-1}, so the zero must
    # short-circuit first.
    assert _member("tauraso-lemma", "a=0,mid=1,b=0").rhs(3, 1) == 0
    assert _member("tauraso-lemma", "a=2,mid=3,b=2").rhs(23, 1) == 0


def test_tauraso_validation():
    with pytest.raises(ValueError):
        congruences._tauraso_232(-1, 0, 1)
    with pytest.raises(ValueError):
        congruences._tauraso_232(1, 0, 2)
    # w = 7 needs p > 7
    assert _member("tauraso-lemma", "a=1,mid=3,b=1").min_prime == 8
    assert "a=1,mid=3,b=1" not in run_check("tauraso-lemma", 7).lhs


def test_closed_form_checks_pass_below_400():
    for check_id in ("depth2-modp", "depth2-modp2", "depth3-oddweight-modp"):
        chk = get_check(check_id)
        reports = run_scan(check_id, primes_in_range(3, 400), jobs=1)
        for r in reports:
            # a row is skipped only when no member is admissible yet
            want = STATUS_PASS if r.p >= chk.min_prime else STATUS_SKIP_HYPOTHESIS
            assert r.status == want, (check_id, r.p, r.note)


def test_weighted_sum_closed_form():
    # every odd-weight triple the sampler can draw, registered or not
    tables = {p: PrefixTable.for_prime(p, 1) for p in (11, 13)}
    for tr in thm23_random_triples(63):
        min_prime, terms = congruences._thm23(*tr)
        for p, t in tables.items():
            if p >= min_prime:
                got = congruences._evaluate(terms, p, 1)
                assert got == t.weighted_sum2(*tr), (tr, p)
    with pytest.raises(ValueError):
        congruences._thm23(1, 1, 2)
    assert congruences._thm23(3, 3, 3)[0] == 10  # p = 7 is below the hypothesis


# ---------------------------------------------------------------------------
# Registry and single-check runs.
# ---------------------------------------------------------------------------


def test_registry_contents():
    reg = registry()
    assert sorted(reg) == ALL_CHECK_IDS
    for cid, chk in reg.items():
        assert chk.check_id == cid
        assert chk.e in (1, 2, 3)
        assert chk.members
        assert chk.min_prime == min(m.min_prime for m in chk.members)
    with pytest.raises(TypeError):
        reg["new"] = None  # the mapping is read-only


def test_registry_is_picklable_data():
    # no member holds a closure, so every check can cross a process boundary
    for chk in registry().values():
        assert pickle.loads(pickle.dumps(chk)) == chk


def test_every_member_rhs_evaluates_at_every_admissible_prime():
    # min_prime carries every hypothesis: no rhs raises or hits a
    # Bernoulli pole at an admissible prime.
    pairs = 0
    for chk in registry().values():
        for mem in chk.members:
            for p in primes_in_range(max(3, mem.min_prime), 400):
                assert 0 <= mem.rhs(p, chk.e) < p**chk.e
                pairs += 1
    assert pairs == 12387


def test_get_check_unknown_id():
    with pytest.raises(UnknownCheckId) as exc:
        get_check("nope")
    assert "cor-sun-modp" in str(exc.value)


def test_run_check_pass_and_skip():
    rep = run_check("cor-sun-modp2", 7)
    assert (rep.status, rep.lhs, rep.rhs, rep.note) == (STATUS_PASS, "14", "14", "")
    rep = run_check("hoffman-chain-B3sq", 7)
    assert rep.status == STATUS_SKIP_HYPOTHESIS
    assert rep.note == "requires p >= 11"
    assert run_check("h-ones-modp3", 5).status == STATUS_PASS


def test_run_check_partial_membership():
    # at p = 13 only the s <= 3 members of the s-indexed family are active
    rep = run_check("cor-sun-modp", 13)
    assert rep.status == STATUS_PASS
    assert "s=1=" in rep.lhs and "s=3=" in rep.lhs and "s=4" not in rep.lhs


def test_run_check_rejects_bad_prime():
    with pytest.raises(ValueError):
        run_check("cor-sun-modp", 9)
    with pytest.raises(ValueError):
        run_check("cor-sun-modp", 2)


def _fake_registry(monkeypatch, member):
    chk = CongruenceCheck("fake", 1, "synthetic", (member,))
    monkeypatch.setattr(congruences, "_registry", lambda: {"fake": chk})
    return chk


def test_run_check_reports_bernoulli_pole(monkeypatch):
    # B_{p-1} has a pole at every prime
    pole = ((Fraction(1), 0, ((1, 1),)),)
    _fake_registry(monkeypatch, CheckMember("m0", 3, ("mhs", ((1,),)), pole))
    rep = run_check("fake", 11)
    assert rep.status == STATUS_SKIP_POLE
    assert "m0" in rep.note


def test_run_check_detects_mismatch(monkeypatch):
    # H(1; p-1) vanishes mod p, against the constant monomial 1
    one = ((Fraction(1), 0, ()),)
    _fake_registry(monkeypatch, CheckMember("m0", 3, ("mhs", ((1,),)), one))
    rep = run_check("fake", 11)
    assert rep.status == STATUS_FAIL
    assert rep.lhs == "0" and rep.rhs == "1"
    assert rep.note == "fail: m0"


def test_run_check_sends_its_sums_through_one_trie_walk(monkeypatch):
    calls = []
    original = PrefixTable.mhs_many

    def spy(self, compositions):
        comps = list(compositions)
        calls.append(comps)
        return original(self, comps)

    monkeypatch.setattr(PrefixTable, "mhs_many", spy)
    chk = get_check("homog-vanishing-modp")
    rep = run_check(chk.check_id, 101)
    assert calls == [[m.composition for m in chk.members]]
    t = PrefixTable.for_prime(101, chk.e)
    assert rep.lhs == ";".join(f"{m.label}={t.mhs(*m.lhs_spec[1])}" for m in chk.members)


def test_checks_at_one_prime_share_one_trie_walk(monkeypatch):
    # tauraso-lemma and homog-vanishing-modp both need H(2,2,...) chains.
    calls = []
    original = PrefixTable.mhs_many

    def spy(self, compositions):
        comps = list(compositions)
        calls.append(comps)
        return original(self, comps)

    monkeypatch.setattr(PrefixTable, "mhs_many", spy)
    ids = ("tauraso-lemma", "homog-vanishing-modp")
    monkeypatch.setattr(congruences, "DEFAULT_BATTERY", tuple((cid, 101, 101) for cid in ids))
    reports = run_battery(jobs=1)
    assert [m.composition for cid in ids for m in get_check(cid).members] == calls[0]
    assert len(calls) == 1
    monkeypatch.undo()
    assert reports == [run_check(cid, 101) for cid in sorted(ids)]


class _Bomb:
    def __getattr__(self, name):
        raise AssertionError("forbidden code path reached")

    def __call__(self, *a, **k):
        raise AssertionError("forbidden code path reached")


def _first_admissible_prime(min_prime):
    p = max(min_prime, 3)
    while not congruences.is_prime(p):
        p += 1
    return p


def test_rhs_side_never_builds_prefix_tables(monkeypatch):
    monkeypatch.setattr(congruences, "PrefixTable", _Bomb())
    for chk in registry().values():
        for mem in chk.members:
            mem.rhs(_first_admissible_prime(mem.min_prime), chk.e)


def test_lhs_side_never_touches_bernoulli(monkeypatch):
    monkeypatch.setattr(congruences, "bernoulli_mod", _Bomb())
    tables = {}
    for chk in registry().values():
        for mem in chk.members:
            p = _first_admissible_prime(mem.min_prime)
            t = tables.get((p, chk.e))
            if t is None:
                t = tables[(p, chk.e)] = PrefixTable.for_prime(p, chk.e)
            mem.lhs(t)


# ---------------------------------------------------------------------------
# Scans.
# ---------------------------------------------------------------------------


def test_scan_serial_and_parallel_agree():
    primes = primes_in_range(3, 80)
    serial = run_scan("cor-sun-modp", primes, jobs=1)
    parallel = run_scan("cor-sun-modp", primes, jobs=2)
    assert serial == parallel
    assert reports_to_csv(serial) == reports_to_csv(parallel)
    assert reports_to_json(serial) == reports_to_json(parallel)
    assert [r.p for r in serial] == primes
    assert all(r.status in (STATUS_PASS, STATUS_SKIP_HYPOTHESIS) for r in serial)


def test_scan_appends_fitted_note_on_failures():
    reports = run_scan("cor34-first", primes_in_range(11, 60))
    assert reports and all(r.status == STATUS_FAIL for r in reports)
    assert all(r.note == "fail: (2,2,2,3); fitted=-11/3" for r in reports)


def test_scan_of_cor34_fourth_fails_with_its_refit():
    # The published constant 3 fails at every prime; the refit is 31/8.
    reports = run_scan("cor34-fourth", primes_in_range(11, 120))
    assert reports and all(r.status == STATUS_FAIL for r in reports)
    assert all(r.note == "fail: (2,1,2,2); fitted=31/8" for r in reports)


def test_scan_passing_rows_have_clean_notes():
    for r in run_scan("h2h-over-j", [7, 11, 13]):
        assert r.status == STATUS_PASS and r.note == ""


def test_scan_input_validation():
    assert run_scan("cor-sun-modp", []) == []
    with pytest.raises(ValueError):
        run_scan("cor-sun-modp", [4])
    with pytest.raises(ValueError):
        run_scan("cor-sun-modp", [2, 7])
    with pytest.raises(ValueError):
        run_scan("cor-sun-modp", [7], jobs=0)
    with pytest.raises(UnknownCheckId):
        run_scan("made-up", [7])


def test_scan_worker_count_env(monkeypatch):
    monkeypatch.setenv("MHSLAB_THREADS", "1")
    assert run_scan("cor-sun-modp", [7, 11]) == run_scan(
        "cor-sun-modp", [7, 11], jobs=2
    )
    monkeypatch.setenv("MHSLAB_THREADS", "abc")
    with pytest.raises(ValueError):
        run_scan("cor-sun-modp", [7, 11])
    monkeypatch.setenv("MHSLAB_THREADS", "0")
    with pytest.raises(ValueError):
        run_scan("cor-sun-modp", [7, 11])


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace the process pool by an in-process fake; the list it returns
    records the worker count of every pool started."""
    started = []

    class InProcessPool:
        def __init__(self, max_workers, mp_context=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(congruences, "ProcessPoolExecutor", InProcessPool)
    return started


def test_scan_pool_is_clamped_to_the_primes(in_process_pool):
    reports = run_scan("cor-sun-modp", [7, 11], jobs=64)
    assert in_process_pool == [2]
    assert reports == run_scan("cor-sun-modp", [7, 11], jobs=1)


def test_scan_pool_is_clamped_to_the_cpus(monkeypatch, in_process_pool):
    monkeypatch.setattr(congruences.os, "cpu_count", lambda: 3)
    primes = primes_in_range(3, 3000)
    parallel = reports_to_csv(run_scan("cor-sun-modp2", primes, jobs=5000))
    assert in_process_pool == [3]
    assert parallel == reports_to_csv(run_scan("cor-sun-modp2", primes, jobs=1))
    monkeypatch.setenv("MHSLAB_THREADS", "5000")
    run_scan("cor-sun-modp2", primes_in_range(3, 100))
    assert in_process_pool == [3, 3]


def test_battery_starts_one_pool(monkeypatch, in_process_pool):
    monkeypatch.setattr(congruences.os, "cpu_count", lambda: 2)
    parallel = reports_to_csv(run_battery(jobs=2))
    assert in_process_pool == [2]
    assert parallel == reports_to_csv(run_battery(jobs=1))
    assert in_process_pool == [2]


@pytest.fixture
def table_builds(monkeypatch):
    """Count PrefixTable constructions by (prime, exponent)."""
    built = Counter()
    init = PrefixTable.__init__

    def counting_init(self, n, *, prime=None, exponent=1):
        built[(prime, exponent)] += 1
        init(self, n, prime=prime, exponent=exponent)

    monkeypatch.setattr(PrefixTable, "__init__", counting_init)
    return built


def _evaluated(reports):
    return {(r.p, r.e) for r in reports if r.status in (STATUS_PASS, STATUS_FAIL)}


def test_battery_builds_one_table_per_prime_and_exponent(table_builds):
    reports = run_battery(jobs=1)
    assert set(table_builds.values()) == {1}
    # A table is built exactly where some check evaluated its left sides.
    assert set(table_builds) == _evaluated(reports)
    assert len(table_builds) <= 303


def test_refit_reads_the_scans_left_sides(table_builds):
    # 3, 5 and 7 are skipped rows, and the fit skips them too (p <= w = 9).
    reports = run_scan("cor34-first", primes_in_range(3, 120), jobs=1)
    assert {r.note for r in reports if r.status == STATUS_FAIL} == {
        "fail: (2,2,2,3); fitted=-11/3"
    }
    assert set(table_builds.values()) == {1}
    assert set(table_builds) == _evaluated(reports)


def test_refit_builds_no_table_of_its_own(monkeypatch, table_builds):
    # Bump the right side of the sun-s1 member, s=1, so that every evaluated
    # prime fails.  The refit then fits the left sides at 7..59 alone: p = 5
    # is a skipped row (the member needs p >= 6) and gets no table either.
    rhs = CheckMember.rhs
    monkeypatch.setattr(CheckMember, "rhs", lambda m, p, e: rhs(m, p, e) + (m.label == "s=1"))
    reports = run_scan("cor-sun-modp", primes_in_range(3, 60), jobs=1)
    fails = [r for r in reports if r.status == STATUS_FAIL]
    assert [r.p for r in fails] == primes_in_range(7, 60)
    assert {r.note for r in fails} == {"fail: s=1; fitted=1"}
    assert set(table_builds.values()) == {1}
    assert set(table_builds) == _evaluated(reports)


def test_battery_units_cross_a_spawn_pool(monkeypatch):
    # Spawned workers import mhslab afresh, so every unit and the function
    # that runs it must pickle.
    spawn = multiprocessing.get_context("spawn")
    started = []

    def spawn_pool(max_workers, mp_context=None):
        started.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers, mp_context=spawn)

    monkeypatch.setattr(congruences, "ProcessPoolExecutor", spawn_pool)
    monkeypatch.setattr(congruences.os, "cpu_count", lambda: 2)
    small = (("cor-sun-modp", 3, 60), ("tauraso-lemma", 3, 60))
    monkeypatch.setattr(congruences, "DEFAULT_BATTERY", small)
    parallel = reports_to_csv(run_battery(jobs=2))
    assert started == [2]
    serial = reports_to_csv(run_battery(jobs=1))
    assert parallel == serial
    assert {row.split(",")[0] for row in serial.splitlines()[1:]} == {cid for cid, _, _ in small}


# The refits a scan over 3..200 appends to the fail rows of these checks.
REFITS = {"cor34-first": "-11/3", "cor34-second": "29/3", "cor34-fourth": "31/8"}


@pytest.mark.parametrize("check_id", ALL_CHECK_IDS)
def test_scan_is_run_check_at_every_prime(check_id):
    primes = primes_in_range(3, 200)
    single = [run_check(check_id, p) for p in primes]
    if check_id in REFITS:
        suffix = f"; fitted={REFITS[check_id]}"
        single = [
            replace(r, note=r.note + suffix) if r.status == STATUS_FAIL else r for r in single
        ]
    assert reports_to_csv(run_scan(check_id, primes, jobs=1)) == reports_to_csv(single)


def test_scan_past_the_exact_bernoulli_cap():
    # B_{2p-6} at p > 1000 lies beyond the exact cache's index cap.
    reports = run_scan("h2-over-j3-modp2", primes_in_range(1009, 1031), jobs=1)
    assert [r.p for r in reports] == primes_in_range(1009, 1031)
    assert all(r.status == STATUS_PASS for r in reports)


def test_default_battery_is_well_formed():
    reg = registry()
    for check_id, lo, hi in DEFAULT_BATTERY:
        assert check_id in reg
        assert 3 <= lo < hi
    assert len({cid for cid, _, _ in DEFAULT_BATTERY}) == len(DEFAULT_BATTERY)


def test_random_triples_are_deterministic():
    a = thm23_random_triples()
    b = thm23_random_triples()
    assert a == b
    assert len(a) == 50 == len(set(a))
    assert all(sum(t) % 2 == 1 and sum(t) <= 15 for t in a)
    assert thm23_random_triples(10, seed=1) != thm23_random_triples(10, seed=2)


def test_random_triples_refuse_more_than_exist():
    # [1,5]^3 holds 63 odd-weight triples, all of weight <= 15
    every = thm23_random_triples(63)
    assert len(set(every)) == 63
    with pytest.raises(ValueError, match="only 63"):
        thm23_random_triples(64)
    with pytest.raises(ValueError):
        thm23_random_triples(2, smax=1, wmax=3)  # (1,1,1) is the only one


# ---------------------------------------------------------------------------
# Coefficient fitting.
# ---------------------------------------------------------------------------


def test_fit_recovers_unit_coefficient():
    fam = fit_families()["sun-s1"]
    res = fit_coefficient(fam.lhs, fam.w, primes_in_range(7, 50), name=fam.name)
    assert res.coefficient == 1
    assert res.family == "sun-s1"
    assert len(res.primes_used) >= 10


@pytest.mark.parametrize(
    "name, value",
    [
        ("sun-s1", 1),
        ("cor34-1", Fraction(-11, 3)),
        ("cor34-2", Fraction(29, 3)),
        ("cor34-3", Fraction(-21, 8)),
        ("cor34-4", Fraction(31, 8)),
        ("zero", 0),
        ("h3-over-j", Fraction(3, 2)),
    ],
)
def test_every_fit_family_recovers_its_value(name, value):
    fam = fit_families()[name]
    res = fit_coefficient(fam.lhs, fam.w, primes_in_range(11, 120), t=fam.t, e=fam.e)
    assert res.coefficient == value


def test_fit_families_are_registry_members():
    # a check's scan refits with a family built from one of its own members:
    # each family is carried by exactly one member, each check by at most one
    carriers = Counter()
    for chk in registry().values():
        tagged = [m.family for m in chk.members if m.family is not None]
        assert len(tagged) <= 1, chk.check_id
        carriers.update(tagged)
        assert chk.fit_family == (tagged[0] if tagged else None)
        if chk.fit_family is not None:
            assert fit_families()[chk.fit_family].member in chk.members
    assert set(carriers.values()) == {1}
    assert set(carriers) == set(fit_families())
    assert get_check("tauraso-lemma").fit_family == "zero"
    # w and t come from the member's single monomial, e from its check
    fam = fit_families()["h3-over-j"]
    assert (fam.w, fam.t, fam.e) == (5, 1, 2)
    assert fam.member in get_check("h3-over-j-modp2").members
    assert fit_families()["zero"].member.rhs_terms == ((0, 0, ((1, 5),)),)


def test_fit_zero_family_skips_irregular_prime():
    # B_32 == 0 (mod 37), so p = 37 cannot normalize and must be skipped
    fam = fit_families()["zero"]
    res = fit_coefficient(fam.lhs, fam.w, primes_in_range(11, 80), name=fam.name)
    assert res.coefficient == 0
    assert (37, "bernoulli-zero") in res.skipped
    assert 37 not in res.primes_used


def test_fit_divided_family():
    # left side carries one factor of p; t = 1 strips it before fitting
    fam = fit_families()["h3-over-j"]
    res = fit_coefficient(fam.lhs, fam.w, primes_in_range(7, 60), t=1, e=2)
    assert res.coefficient == Fraction(3, 2)


def test_fit_published_constant_disagreement():
    fam = fit_families()["cor34-1"]
    res = fit_coefficient(fam.lhs, 9, primes_in_range(11, 100), name=fam.name)
    assert res.coefficient == Fraction(-11, 3)
    assert res.coefficient != Fraction(-13)


def test_fit_planted_coefficient_with_p_power():
    c = Fraction(-691, 2730)

    def family(p):
        b = int(bernoulli_mod(p - 3, p, 1))
        return p * (int(rational_to_residue(c, p, 1)) * b % p)

    res = fit_coefficient(family, 3, (31, 37, 41, 43, 47), t=1, e=2)
    assert res.coefficient == c
    assert res.primes_used == (31, 37, 41, 43, 47)


def test_fit_rejects_noise():
    res = fit_coefficient(lambda p: 3 % p, 3, primes_in_range(11, 80))
    assert res.coefficient is None
    assert len(res.primes_used) >= 10  # nothing skipped, just no stable ratio


def test_fit_skip_reasons():
    res = fit_coefficient(lambda p: 0, 5, primes_in_range(3, 30))
    assert (3, "hypothesis") in res.skipped and (5, "hypothesis") in res.skipped
    with pytest.raises(InsufficientPrimes) as exc:
        fit_coefficient(lambda p: 1, 3, [11, 13, 17], t=1, e=2)
    assert "p-power" in str(exc.value)
    with pytest.raises(InsufficientPrimes):
        fit_coefficient(lambda p: 0, 3, [11, 13])
    # w = 1: B_{p-1} has a pole at every prime (von Staudt-Clausen)
    with pytest.raises(InsufficientPrimes) as exc:
        fit_coefficient(lambda p: 1, 1, [11, 13, 17])
    assert "bernoulli-pole" in str(exc.value)
    # w = 0: B_p has an odd index, so it is 0, which is not a pole
    with pytest.raises(InsufficientPrimes) as exc:
        fit_coefficient(lambda p: 1, 0, [11, 13, 17])
    assert "bernoulli-zero" in str(exc.value) and "bernoulli-pole" not in str(exc.value)


def test_fit_argument_validation():
    with pytest.raises(ValueError):
        fit_coefficient(lambda p: 0, 3, [11, 13, 17], t=1, e=1)
    with pytest.raises(ValueError):
        fit_coefficient(lambda p: 0, 3, [11, 13, 17], e=4)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def test_csv_golden():
    got = reports_to_csv(run_scan("cor-sun-modp", [5, 7]))
    assert got == (
        "check_id,p,e,status,lhs,rhs,note\n"
        "cor-sun-modp,5,1,skipped(hypothesis),,,requires p >= 6\n"
        "cor-sun-modp,7,1,pass,s=1=3,s=1=3,\n"
    )


def test_csv_sorts_rows():
    reports = run_scan("cor-sun-modp", [11, 7, 13])
    shuffled = [reports[2], reports[0], reports[1]]
    assert reports_to_csv(shuffled) == reports_to_csv(reports)


def test_json_document_shape():
    reports = run_scan("h-ones-modp3", [5, 7])
    doc = json.loads(reports_to_json(reports))
    assert doc["schema"] == 1
    assert [r["p"] for r in doc["reports"]] == [5, 7]
    assert doc["reports"][0] == reports[0].to_dict()
    assert set(doc["reports"][0]) == {"check_id", "p", "e", "status", "lhs", "rhs", "note"}
    assert reports_to_json(reports).endswith("\n")
