"""Congruence checks: closed forms against direct modular evaluation, the
check registry, scan orchestration, and the coefficient fitter.

The closed-form (rhs) and direct (lhs) evaluators are independent by
construction: rhs code touches Bernoulli numbers and binomials only, lhs
code touches prefix tables only.  Two tests enforce that independence by
sabotaging the other side's entry points.
"""

import json
import pickle
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
    HypothesisViolated,
    InsufficientPrimes,
    UnknownCheckId,
    fit_coefficient,
    fit_families,
    get_check,
    registry,
    reports_to_csv,
    reports_to_json,
    rhs_depth2,
    rhs_depth3_oddweight,
    rhs_homogeneous,
    rhs_tauraso_232,
    rhs_thm23,
    run_check,
    run_scan,
    thm23_random_triples,
)
from mhslab.exactnum import primes_in_range, rational_to_residue
from mhslab.mhs import PrefixTable, mhs_mod, weighted_sum2

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


def test_homogeneous_closed_form():
    for p in (13, 17, 19):
        for s in (1, 2, 3):
            for k in (1, 2, 3):
                if p < s * k + 3:
                    continue
                for e in (1, 2):
                    got = rhs_homogeneous(s, k, p, e)
                    assert got == mhs_mod((s,) * k, p, e), (s, k, p, e)
    for p in primes_in_range(7, 40):
        for k in (1, 3):
            assert rhs_homogeneous(1, k, p, 3) == mhs_mod((1,) * k, p, 3)


def test_homogeneous_validation():
    with pytest.raises(HypothesisViolated):
        rhs_homogeneous(2, 3, 7, 1)  # needs p >= 9
    with pytest.raises(ValueError):
        rhs_homogeneous(0, 1, 7, 1)
    with pytest.raises(ValueError):
        rhs_homogeneous(1, 1, 7, 4)


def test_depth2_mod_p_full_grid():
    for p in (7, 11, 13):
        for s1 in range(1, 5):
            for s2 in range(1, 5):
                assert rhs_depth2(s1, s2, p, 1) == mhs_mod((s1, s2), p, 1)


def test_depth2_mod_p_exponent_reduction():
    # exponents reduce mod p-1 before the formula applies
    assert int(rhs_depth2(8, 9, 7, 1)) == int(mhs_mod((8, 9), 7, 1)) == 2
    with pytest.raises(HypothesisViolated):
        rhs_depth2(6, 1, 7, 1)  # 6 reduces to 0 mod 6


def test_depth2_mod_p_weight_boundary():
    # at p = s1+s2 the binomial coefficient absorbs the prime and B_0 = 1
    assert int(rhs_depth2(2, 3, 5, 1)) == int(mhs_mod((2, 3), 5, 1)) == 3
    # above the boundary the sum vanishes mod p
    assert int(rhs_depth2(3, 3, 5, 1)) == int(mhs_mod((3, 3), 5, 1)) == 0


def test_depth2_mod_p2_even_weight():
    for p in (11, 13, 17):
        for s1, s2 in ((1, 3), (3, 1), (2, 2), (2, 4), (1, 5), (3, 3)):
            assert rhs_depth2(s1, s2, p, 2) == mhs_mod((s1, s2), p, 2), (s1, s2, p)
    with pytest.raises(HypothesisViolated):
        rhs_depth2(2, 2, 5, 2)  # needs p > w+1


def test_depth2_mod_p2_odd_weight_four_term_form():
    # the refined closed form for H(1,4) and its negated reversal,
    # exact mod p^2 for every prime from 11 up
    for p in primes_in_range(11, 60):
        t = PrefixTable.for_prime(p, 2)
        assert rhs_depth2(1, 4, p, 2) == mhs_mod((1, 4), p, 2, table=t)
        assert rhs_depth2(4, 1, p, 2) == mhs_mod((4, 1), p, 2, table=t)
        # reduced mod p it collapses to the classical one-term values
        b = int(bernoulli_mod(p - 5, p, 1))
        assert int(rhs_depth2(1, 4, p, 2)) % p == b
        assert int(rhs_depth2(4, 1, p, 2)) % p == -b % p


def test_depth2_mod_p2_odd_weight_rejections():
    with pytest.raises(HypothesisViolated):
        rhs_depth2(1, 4, 7, 2)  # the four-term form starts at p = 11
    with pytest.raises(HypothesisViolated):
        rhs_depth2(2, 3, 13, 2)  # no closed form registered for (2,3)
    with pytest.raises(HypothesisViolated):
        rhs_depth2(1, 2, 11, 3)  # depth-2 forms stop at e = 2
    with pytest.raises(ValueError):
        rhs_depth2(0, 1, 7, 1)


def test_depth3_odd_weight_closed_form():
    for p in (11, 13):
        for tr in ((1, 1, 1), (1, 2, 2), (2, 1, 2), (1, 3, 1), (3, 1, 1), (2, 2, 3)):
            assert rhs_depth3_oddweight(*tr, p) == mhs_mod(tr, p, 1), (tr, p)
    assert int(rhs_depth3_oddweight(1, 1, 1, 11)) == 0  # symmetric, odd middle
    with pytest.raises(HypothesisViolated):
        rhs_depth3_oddweight(1, 1, 2, 11)  # even weight
    with pytest.raises(HypothesisViolated):
        rhs_depth3_oddweight(2, 3, 2, 7)  # p <= w


def test_tauraso_closed_form():
    for p in (13, 17):
        for a in range(3):
            for b in range(3):
                for mid in (1, 3):
                    if p <= 2 * a + 2 * b + mid:
                        continue
                    comp = (2,) * a + (mid,) + (2,) * b
                    assert rhs_tauraso_232(a, b, mid, p) == mhs_mod(comp, p, 1)


def test_tauraso_symmetric_case_skips_bernoulli():
    # a = b makes the coefficient vanish; for a = b = 0, mid = 1 the
    # Bernoulli factor would be the undefined B_{p-1}, so the zero must
    # short-circuit first.
    assert int(rhs_tauraso_232(0, 0, 1, 3)) == 0
    assert int(rhs_tauraso_232(2, 2, 3, 23)) == 0


def test_tauraso_validation():
    with pytest.raises(ValueError):
        rhs_tauraso_232(-1, 0, 1, 7)
    with pytest.raises(ValueError):
        rhs_tauraso_232(1, 0, 2, 7)
    with pytest.raises(HypothesisViolated):
        rhs_tauraso_232(1, 1, 3, 7)  # w = 7 needs p > 7


def test_weighted_sum_closed_form():
    for p in (11, 13):
        t = PrefixTable.for_prime(p, 1)
        for tr in ((1, 1, 1), (2, 1, 2), (1, 2, 2), (3, 1, 1), (1, 4, 2)):
            got = rhs_thm23(*tr, p)
            assert int(got) == int(weighted_sum2(*tr, p=p, table=t)), (tr, p)
    with pytest.raises(HypothesisViolated):
        rhs_thm23(1, 1, 2, 11)
    with pytest.raises(HypothesisViolated):
        rhs_thm23(3, 3, 3, 7)


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
    # min_prime carries every hypothesis: no rhs raises HypothesisViolated
    # or hits a Bernoulli pole at an admissible prime.
    pairs = 0
    for chk in registry().values():
        for mem in chk.members:
            for p in primes_in_range(max(3, mem.min_prime), 400):
                assert 0 <= mem.rhs(p, chk.e) < p**chk.e
                pairs += 1
    assert pairs == 10138


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

    def spy(self, compositions, n=None):
        comps = list(compositions)
        calls.append(comps)
        return original(self, comps, n)

    monkeypatch.setattr(PrefixTable, "mhs_many", spy)
    chk = get_check("homog-vanishing-modp")
    rep = run_check(chk.check_id, 101)
    assert calls == [[m.composition for m in chk.members]]
    t = PrefixTable.for_prime(101, chk.e)
    assert rep.lhs == ";".join(f"{m.label}={t.mhs(*m.lhs_spec[1])}" for m in chk.members)


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


def test_scan_pool_is_clamped_to_the_primes(monkeypatch):
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
    reports = run_scan("cor-sun-modp", [7, 11], jobs=64)
    assert started == [2]
    assert reports == run_scan("cor-sun-modp", [7, 11], jobs=1)


def test_scan_pool_is_clamped_to_the_cpus(monkeypatch):
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
    monkeypatch.setattr(congruences.os, "cpu_count", lambda: 3)
    primes = primes_in_range(3, 3000)
    parallel = reports_to_csv(run_scan("cor-sun-modp2", primes, jobs=5000))
    assert started == [3]
    assert parallel == reports_to_csv(run_scan("cor-sun-modp2", primes, jobs=1))
    monkeypatch.setenv("MHSLAB_THREADS", "5000")
    run_scan("cor-sun-modp2", primes_in_range(3, 100))
    assert started == [3, 3]


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
    # a check's scan refits with a family built from one of its own members
    for chk in registry().values():
        if chk.fit_family is not None:
            assert fit_families()[chk.fit_family].member in chk.members
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
    assert (37, "bernoulli-pole") in res.skipped
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
        return p * int(rational_to_residue(c, p, 1) * bernoulli_mod(p - 3, p, 1))

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
