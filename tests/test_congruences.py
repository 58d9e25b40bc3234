"""Congruence checks: closed forms against direct modular evaluation, the
check registry, scan orchestration, and the coefficient fitter.

The closed-form (rhs) and direct (lhs) evaluators are independent by
construction: rhs code touches Bernoulli numbers and binomials only, lhs
code touches prefix tables only.  Two tests enforce that independence by
sabotaging the other side's entry points.
"""

import hashlib
import itertools
import json
import math
import multiprocessing
import os
import pickle
import re
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

import mhslab.congruences as congruences
import mhslab.mhs as mhs
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
from mhslab.exactnum import is_prime, primes_in_range, rational_to_residue
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


def _composition(mem):
    """The composition of a member whose left side is H(s_1..s_k; p-1)."""
    kind, parts = mem.lhs_spec
    assert kind == "mhs"
    return tuple(parts)


def _assert_members_match(check_id, primes):
    """Every member of a check agrees with mhs_mod at its admissible primes."""
    chk = get_check(check_id)
    checked = 0
    for p in primes:
        values = PrefixTable.for_prime(p, chk.e).single_values(
            ("mhs", _composition(mem)) for mem in chk.members
        )
        for mem in chk.members:
            if p >= mem.min_prime:
                want = values["mhs", _composition(mem)]
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
    assert [_composition(m) for m in chk.members] == grid
    assert all(m.min_prime == sum(_composition(m)) + 1 for m in chk.members)
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
    # the refined closed form for H(1,4) and its negated reversal, exact
    # mod p^2 at every prime 11 <= p < 400, the range its comment claims
    h14, h41 = _member("depth2-modp2", "H(1,4)"), _member("depth2-modp2", "H(4,1)")
    for p in primes_in_range(11, 399):
        values = PrefixTable.for_prime(p, 2).single_values([("mhs", (1, 4)), ("mhs", (4, 1))])
        assert h14.rhs(p, 2) == values["mhs", (1, 4)]
        assert h41.rhs(p, 2) == values["mhs", (4, 1)]
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
        congruences._depth2(2, 3, 2)  # no closed form registered for (2,3)
    with pytest.raises(ValueError):
        congruences._depth2(0, 2, 2)
    with pytest.raises(ValueError):
        congruences._depth2(1, 3, 3)  # mod p and mod p^2 only


def test_depth3_odd_weight_closed_form():
    chk = get_check("depth3-oddweight-modp")
    triples = [(1, 1, 1), (1, 2, 2), (2, 1, 2), (1, 3, 1), (3, 1, 1), (2, 2, 3)]
    assert [_composition(m) for m in chk.members] == triples
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
    # every odd-weight triple the sampler can draw, registered or not, read
    # off Theorem 2.1 from its smallest prime w+1 on
    tables = {p: PrefixTable.for_prime(p, 1) for p in (11, 13)}
    every = [t for t in itertools.product(range(1, 6), repeat=3) if sum(t) % 2]
    assert len(every) == 63
    for tr in every:
        min_prime, terms = sum(tr) + 1, congruences._derive(tr, 1)
        for p, t in tables.items():
            if p >= min_prime:
                got = congruences._evaluate(terms, p, 1)
                assert got == t.weighted_sum2(*tr), (tr, p)
    with pytest.raises(ValueError, match=re.escape("no closed form of H(1, 1, 2)")):
        congruences._derive((1, 1, 2), 1)
    # the rows state w+1: p = 7 is below the hypothesis of (3,3,3)
    assert _member("cor-first-display", "s=3,r=3").min_prime == 10


def test_thm23_read_off_theorem_21_is_the_printed_bracket():
    # The registry reads Theorem 2.3 off Theorem 2.1's first form; the
    # coefficient the paper prints is the oracle:
    # [(-1)^(s1+1) C(w,s1) + ((-1)^s3 + 2(-1)^(s1+s2)) C(w,s3)] / (2w).
    every = [t for t in itertools.product(range(1, 6), repeat=3) if sum(t) % 2]
    assert len(every) == 63
    for s1, s2, s3 in every:
        w = s1 + s2 + s3
        bracket = (-1) ** (s1 + 1) * math.comb(w, s1) + (
            (-1) ** s3 + 2 * (-1) ** (s1 + s2)
        ) * math.comb(w, s3)
        printed = congruences._one(Fraction(bracket, 2 * w), w)
        assert congruences._derive((s1, s2, s3), 1) == printed, (s1, s2, s3)
    # the rows that read it keep their stated smallest primes: the printed
    # w+1, and 11 for hjh2-over-j2
    for cid in ("thm23-general", "cor-first-display", "hjh2-over-j2"):
        for mem in get_check(cid).members:
            exps = mem.lhs_spec[1]
            assert mem.rhs_terms == congruences._derive(exps, 1)
            assert mem.min_prime == (11 if cid == "hjh2-over-j2" else sum(exps) + 1)
    with pytest.raises(ValueError, match="exponents must be >= 1"):
        congruences._derive((0, 1, 2), 1)
    with pytest.raises(ValueError, match=re.escape("no closed form of H(1, 1, 2)")):
        congruences._derive((1, 1, 2), 1)


def test_cor_sun_modp_is_sun_binomial():
    # Read off Theorem 2.1's first form as H(s,2s); Sun's printed value is
    # C(3s,s) B_{p-3s} / (3s), from p >= 3s+3 on.
    chk = get_check("cor-sun-modp")
    assert [m.label for m in chk.members] == [f"s={s}" for s in range(1, 6)]
    for s, mem in zip(range(1, 6), chk.members):
        assert mem.rhs_terms == congruences._one(Fraction(math.comb(3 * s, s), 3 * s), 3 * s)
        assert mem.min_prime == 3 * s + 3
    for s in range(1, 9):
        sun = congruences._one(Fraction(math.comb(3 * s, s), 3 * s), 3 * s)
        assert congruences._derive((s, s, s), 1) == sun, s


def test_cor_conjecture2_is_the_printed_bracket():
    # [2 C(3s+1,s-1) + s] / (2(3s+1)) p B_{p-3s-1}, mod p^2 for even s, as
    # printed, is what Theorem 2.1's first form gives; the rows state p >= 3s+2.
    for s in (2, 4, 6, 8, 10):
        printed = Fraction(2 * math.comb(3 * s + 1, s - 1) + s, 2 * (3 * s + 1))
        want = congruences._one(printed, 3 * s + 1, t=1)
        assert congruences._derive((s, s, s), 2) == want, s
    chk = get_check("cor-conjecture2")
    for s, mem in zip((2, 4), chk.members):
        assert (mem.label, mem.min_prime) == (f"s={s}", 3 * s + 2)
        assert mem.rhs_terms == congruences._derive((s, s, s), 2)


@pytest.mark.parametrize(
    "check_id, exps, printed",
    [
        ("cor-sun-modp2", (1, 2, 1), congruences._one(Fraction(4, 5), 5, t=1)),
        ("h2h-over-j", (2, 1, 1), congruences._one(Fraction(-7, 10), 5, t=1)),
        ("h2-over-j3-modp2", (1, 3, 1), congruences._H14_MODP2),
        ("h3-over-j-modp2", (1, 1, 1, 1), congruences._one(Fraction(3, 2), 5, t=1)),
    ],
)
def test_mod_p2_sums_are_the_printed_values(check_id, exps, printed):
    # 4/5, -7/10 and 3/2 as printed, and H(1,4)'s four-term form, are what
    # Theorems 2.1 and 3.1 give mod p^2; each row keeps its stated prime.
    (mem,) = get_check(check_id).members
    assert congruences._derive(exps, 2) == printed
    assert (mem.lhs_spec, mem.rhs_terms) == (("weighted_sum", exps), printed)
    assert mem.min_prime == (11 if check_id == "h2-over-j3-modp2" else 7)


def test_derive_reads_h_before_w(monkeypatch):
    # W(1,1,1) mod p^2 is blocked by H(1,2), yet Theorem 3.1 gives W(1,1,1,1)
    # mod p^2, since its product H(1) W(1,1,1) ends at H(1) == 0 (mod p^2),
    # in whatever order the statement lists the two factors.
    with pytest.raises(ValueError, match=re.escape("(1,2)")):
        congruences._derive((1, 1, 1), 2)
    want = congruences._one(Fraction(3, 2), 5, t=1)
    assert congruences._derive((1, 1, 1, 1), 2) == want
    thm31 = congruences.thm31

    def w_first(*s):
        ((lhs, rhs),) = thm31(*s).values()
        return {"thm31": (lhs, tuple((factors[::-1], c) for factors, c in rhs))}

    monkeypatch.setattr(congruences, "thm31", w_first)
    assert congruences._derive((1, 1, 1, 1), 2) == want


def _weighted_fails(terms, exps, primes):
    """The primes where terms differ from the weighted sum at exps, mod p^2."""
    spec = ("weighted_sum", exps)
    return [
        p
        for p in primes
        if congruences._evaluate(terms, p, 2)
        != PrefixTable.for_prime(p, 2).single_values([spec])[spec]
    ]


def test_the_pinned_minus_nine_tenths_is_load_bearing(monkeypatch):
    # cor-sun-modp2 and h3-over-j-modp2 read H(1,2,1) = -(9/10) p B_{p-5}
    # through _derive; with the displayed +9/10 both fail at every prime of
    # 7..199 but p = 37, where B_32 == 0 (mod 37).
    primes = primes_in_range(7, 199)
    for exps in ((1, 2, 1), (1, 1, 1, 1)):
        assert _weighted_fails(congruences._derive(exps, 2), exps, primes) == []
    flipped = (7, congruences._one(Fraction(9, 10), 5, t=1))
    monkeypatch.setitem(congruences._WEIGHT5_MODP2, (1, 2, 1), flipped)
    for exps in ((1, 2, 1), (1, 1, 1, 1)):
        fails = _weighted_fails(congruences._derive(exps, 2), exps, primes)
        assert fails == [p for p in primes if p != 37], exps


def _with_tauraso(monkeypatch):
    """_closed with Tauraso's H({2}^a, m, {2}^b) as a fallback after the others."""
    closed = congruences._closed

    def fallback(c, e):
        try:
            return closed(c, e)
        except ValueError:
            others = [i for i, part in enumerate(c) if part != 2]
            if len(others) != 1 or c[others[0]] not in (1, 3):
                raise
            (i,) = others
            return congruences._tauraso_232(i, len(c) - 1 - i, c[i])

    monkeypatch.setattr(congruences, "_closed", fallback)


def test_cor34_derive_to_the_refits_with_tauraso(monkeypatch):
    # Theorem 3.1 with Tauraso's forms gives the constants the scans refit,
    # not the published -13, 83/3 and 3 the registry keeps.  Without them,
    # its first term H(s1,s3,s2,s4) blocks the derivation.
    refits = {
        "cor34-first": (Fraction(-11, 3), 9, (2, 2, 2, 3)),
        "cor34-second": (Fraction(29, 3), 9, (2, 2, 3, 2)),
        "cor34-third": (Fraction(-21, 8), 7, (2, 2, 2, 1)),
        "cor34-fourth": (Fraction(31, 8), 7, (2, 2, 1, 2)),
    }
    for cid, (_, _, blocker) in refits.items():
        (mem,) = get_check(cid).members
        with pytest.raises(ValueError, match=re.escape(f"no closed form of H{blocker}")):
            congruences._derive(mem.lhs_spec[1], 1)
    _with_tauraso(monkeypatch)
    for cid, (coef, w, _) in refits.items():
        (mem,) = get_check(cid).members
        assert congruences._derive(mem.lhs_spec[1], 1) == congruences._one(coef, w), cid


def test_blocked_checks_name_the_sum_without_closed_form(monkeypatch):
    # Even-weight depth-3 sums have no closed form in the registry, so these
    # rows stay typed, and Tauraso's forms do not unblock them: Theorem 2.1's
    # first term, H(s1,s2,s3) itself, is named.
    blocked = [m.lhs_spec[1] for cid in ("hoffman-chain-B3sq", "h5h4-over-j3")
               for m in get_check(cid).members]
    assert blocked == [(2, 3, 1), (3, 2, 1), (3, 1, 2), (1, 4, 1), (4, 1, 1), (5, 3, 4)]
    for tauraso in (False, True):
        if tauraso:
            _with_tauraso(monkeypatch)
        for exps in blocked:
            with pytest.raises(ValueError, match=re.escape(f"no closed form of H{exps}")):
                congruences._derive(exps, 1)


def test_every_derivable_weighted_sum_member_is_derived():
    # 68 of the 80 weighted-sum members equal _derive's right side.  The
    # other twelve are the ten blocked ones (None) and the stated even-s
    # zeros, which _derive gives as (5/2) B_{p-6} and (165/4) B_{p-12}.
    equal, other = 0, {}
    for cid, chk in registry().items():
        for mem in chk.members:
            kind, exps = mem.lhs_spec
            if kind != "weighted_sum":
                continue
            try:
                derived = congruences._derive(exps, chk.e)
            except ValueError:
                derived = None
            if derived == mem.rhs_terms:
                equal += 1
            else:
                other[cid, mem.label] = derived
    assert equal == 68
    blocked = ["hoffman-chain-B3sq", "h5h4-over-j3"] + [
        f"cor34-{n}" for n in ("first", "second", "third", "fourth")
    ]
    assert other == {
        ("cor-sun-modp-even-zero", "s=2"): congruences._one(Fraction(5, 2), 6),
        ("cor-sun-modp-even-zero", "s=4"): congruences._one(Fraction(165, 4), 12),
        **{(cid, m.label): None for cid in blocked for m in get_check(cid).members},
    }


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


def _registry_rendering():
    """Every datum of the registry and the fit families, one line each,
    sorted by id, with coefficients written as a/b."""
    lines = []
    for cid in sorted(registry()):
        chk = registry()[cid]
        lines.append(f"check {cid} e={chk.e} {chk.description}")
        for m in chk.members:
            terms = " + ".join(
                f"{c.numerator}/{c.denominator} p^{t} "
                + "".join(f"B[{k}p-{w}]" for k, w in factors)
                for c, t, factors in m.rhs_terms
            )
            lines.append(
                f"  {m.label} min_prime={m.min_prime} spec={m.lhs_spec!r}"
                f" terms=({terms}) family={m.family}"
            )
    for name in sorted(fit_families()):
        fam = fit_families()[name]
        lines.append(f"family {name} w={fam.w} t={fam.t} e={fam.e} member={fam.member.label}")
    return "\n".join(lines) + "\n"


# The sha256 of _registry_rendering().  The battery CSV pins the data of
# the 13 battery checks only; this pins every label, description, family
# tag, smallest prime, spec and coefficient of all of them.
REGISTRY_DIGEST = "ecc481171e2fc288e95739f52b0f5f283fc1ed36458adab7bb8bc9cb6fdcf4cf"


def test_registry_data_is_pinned():
    digest = hashlib.sha256(_registry_rendering().encode()).hexdigest()
    assert digest == REGISTRY_DIGEST, (
        f"the registry's data changed; its digest is now {digest}.  A"
        " deliberate change updates REGISTRY_DIGEST together with a CHANGES.md"
        " line that says what changed."
    )


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


def test_every_coefficient_but_three_can_fail():
    # Adding 1 to one monomial's coefficient must fail some prime below 100.
    # Three coefficients no prime can test, as each Bernoulli factor has an
    # odd index above 1 wherever the member holds: H(4,4) of depth2-modp
    # (B_{p-8}, from p = 9 on) and cor-sun-modp at s = 2 and 4 (B_{p-6},
    # B_{p-12}).  The other even-weight depth2-modp members fail at p = w+1
    # alone, where B_{p-w} = B_1 = -1/2.  A mutant that meets a Bernoulli
    # pole cannot pass either: the Tauraso member 0 * B_{p-1}.
    fails: dict = {}
    for cid, chk in registry().items():
        for p in primes_in_range(3, 100):
            active = [m for m in chk.members if p >= m.min_prime]
            lhs = PrefixTable.for_prime(p, chk.e).single_values(m.lhs_spec for m in active)
            for mem in active:
                for i, (c, t, f) in enumerate(mem.rhs_terms):
                    mutant = mem.rhs_terms[:i] + ((c + 1, t, f),) + mem.rhs_terms[i + 1:]
                    try:
                        caught = congruences._evaluate(mutant, p, chk.e) != lhs[mem.lhs_spec]
                    except congruences.PDividesDenominator:
                        caught = True
                    fails.setdefault((cid, mem.label, i), []).extend([p] if caught else [])
    assert len(fails) == 162
    untestable = sorted(key for key, primes in fails.items() if not primes)
    assert untestable == [
        ("cor-sun-modp", "s=2", 0), ("cor-sun-modp", "s=4", 0), ("depth2-modp", "H(4,4)", 0)
    ]
    for s1, s2 in [(1, 1), (1, 3), (3, 1), (2, 2), (2, 4), (4, 2), (3, 3)]:
        assert fails["depth2-modp", f"H({s1},{s2})", 0] == [s1 + s2 + 1]
    # every other coefficient fails at 17 primes or more
    assert min(len(primes) for primes in fails.values() if len(primes) > 1) == 17


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
    monkeypatch.setattr(congruences, "registry", lambda: {"fake": chk})
    return chk


def test_run_check_reports_bernoulli_pole(monkeypatch):
    # B_{p-1} has a pole at every prime
    pole = ((Fraction(1), 0, ((1, 1),)),)
    _fake_registry(monkeypatch, CheckMember("m0", 3, ("mhs", (1,)), pole))
    rep = run_check("fake", 11)
    assert rep.status == STATUS_SKIP_POLE
    assert "m0" in rep.note


def test_run_check_detects_mismatch(monkeypatch):
    # H(1; p-1) vanishes mod p, against the constant monomial 1
    one = ((Fraction(1), 0, ()),)
    _fake_registry(monkeypatch, CheckMember("m0", 3, ("mhs", (1,)), one))
    rep = run_check("fake", 11)
    assert rep.status == STATUS_FAIL
    assert rep.lhs == "0" and rep.rhs == "1"
    assert rep.note == "fail: m0"


def _spy_on_single_values(monkeypatch):
    """The spec lists of every single_values call, in order."""
    calls = []
    original = PrefixTable.single_values

    def spy(self, specs):
        specs = list(specs)
        calls.append(specs)
        return original(self, specs)

    monkeypatch.setattr(PrefixTable, "single_values", spy)
    return calls


def test_run_check_sends_its_sums_through_one_trie_walk(monkeypatch):
    calls = _spy_on_single_values(monkeypatch)
    chk = get_check("homog-vanishing-modp")
    rep = run_check(chk.check_id, 101)
    assert calls == [[m.lhs_spec for m in chk.members]]
    values = PrefixTable.for_prime(101, chk.e).single_values(m.lhs_spec for m in chk.members)
    assert rep.lhs == ";".join(f"{m.label}={values[m.lhs_spec]}" for m in chk.members)


def test_checks_at_one_prime_share_one_trie_walk(monkeypatch):
    # tauraso-lemma and homog-vanishing-modp both need H(2,2,...) chains,
    # and cor-sun-modp's weighted sums read their harmonic factors.
    calls = _spy_on_single_values(monkeypatch)
    ids = ("cor-sun-modp", "tauraso-lemma", "homog-vanishing-modp")
    monkeypatch.setattr(congruences, "DEFAULT_BATTERY", tuple((cid, 101, 101) for cid in ids))
    reports = run_battery(jobs=1)
    assert [m.lhs_spec for cid in ids for m in get_check(cid).members] == calls[0]
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
    while not is_prime(p):
        p += 1
    return p


def test_rhs_side_never_builds_prefix_tables(monkeypatch):
    monkeypatch.setattr(congruences, "PrefixTable", _Bomb())
    for chk in registry().values():
        for mem in chk.members:
            mem.rhs(_first_admissible_prime(mem.min_prime), chk.e)


def test_lhs_side_never_touches_bernoulli(monkeypatch):
    monkeypatch.setattr(congruences, "bernoulli_mod", _Bomb())
    monkeypatch.setattr(congruences, "bernoulli_mod_int", _Bomb())
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


def test_default_jobs_is_the_cpu_count_whatever_the_environment(monkeypatch, in_process_pool):
    # The worker count has one source, jobs=; no environment variable
    # sets its default.
    monkeypatch.setenv("MHSLAB_THREADS", "1")
    monkeypatch.setattr(congruences.os, "cpu_count", lambda: 2)
    reports = run_scan("cor-sun-modp", [7, 11])
    assert in_process_pool == [2]
    assert reports == run_scan("cor-sun-modp", [7, 11], jobs=1)


def test_battery_starts_one_pool(monkeypatch, in_process_pool):
    monkeypatch.setattr(congruences.os, "cpu_count", lambda: 2)
    parallel = reports_to_csv(run_battery(jobs=2))
    assert in_process_pool == [2]
    assert parallel == reports_to_csv(run_battery(jobs=1))
    assert in_process_pool == [2]


def test_platforms_without_fork_run_every_unit_in_process(monkeypatch, in_process_pool):
    monkeypatch.setattr(congruences.os, "cpu_count", lambda: 2)
    monkeypatch.delattr(os, "fork")
    reports = run_scan("cor-sun-modp", [7, 11], jobs=2)
    assert in_process_pool == []
    assert reports == run_scan("cor-sun-modp", [7, 11], jobs=1)


# The fork path.  Over primes [7, 11] with jobs=2 the units run largest
# first, so the caller's share 0 is p = 11 and the child's share 1 is p = 7.


def _act_at(monkeypatch, p, in_child, act):
    """Make _run_unit call act() at p, in a forked child or in the caller."""
    caller = os.getpid()
    run_unit = congruences._run_unit

    def unit(u):
        if u[0] == p and (os.getpid() != caller) == in_child:
            act()
        return run_unit(u)

    monkeypatch.setattr(congruences, "_run_unit", unit)
    monkeypatch.setattr(congruences.os, "cpu_count", lambda: 2)


def _assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_childs_exception_reaches_the_caller(monkeypatch):
    def fail():
        raise ValueError("unit at 7 broke")

    _act_at(monkeypatch, 7, True, fail)
    with pytest.raises(ValueError) as caught:
        run_scan("cor-sun-modp", [7, 11], jobs=2)
    assert type(caught.value) is ValueError
    assert str(caught.value) == "unit at 7 broke"
    _assert_no_child_is_left()


def test_a_child_that_exits_without_its_results_raises(monkeypatch):
    _act_at(monkeypatch, 7, True, lambda: os._exit(3))
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="exited with status 3 "):
        run_scan("cor-sun-modp", [7, 11], jobs=2)
    assert time.monotonic() - start < 5
    _assert_no_child_is_left()


def test_an_exception_in_the_callers_share_kills_the_children(monkeypatch):
    # The child would sleep for a minute; the caller's share fails at once.
    def fail():
        raise ValueError("unit at 11 broke")

    _act_at(monkeypatch, 7, True, lambda: time.sleep(60))
    _act_at(monkeypatch, 11, False, fail)
    start = time.monotonic()
    with pytest.raises(ValueError, match="unit at 11 broke"):
        run_scan("cor-sun-modp", [7, 11], jobs=2)
    assert time.monotonic() - start < 5
    _assert_no_child_is_left()


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


def test_battery_builds_one_table_per_prime(table_builds):
    reports = run_battery(jobs=1)
    assert set(table_builds.values()) == {1}
    # A table is built exactly where some check evaluated its left sides,
    # mod p^e for the largest e evaluated there.
    top: dict[int, int] = {}
    for p, e in _evaluated(reports):
        top[p] = max(e, top.get(p, 0))
    assert set(table_builds) == set(top.items())
    assert len(table_builds) == 167


# Checks at e = 1, 2 and 3, with Bernoulli-free, fit-family and
# several-member checks among them.
MIXED_UNIT = (
    "cor-sun-modp",
    "homog-vanishing-modp2",
    "h-ones-modp3",
    "tauraso-lemma",
    "lemma-modp2-triples",
    "cor34-first",
)


def _assert_unit_is_run_check(p, table_builds):
    """The unit's reports and refit left sides are those of its checks run
    one by one, and the unit built one table, mod p^e for the largest e it
    evaluated."""
    reports, family_lhs = congruences._run_unit((p, MIXED_UNIT))
    assert table_builds == {(p, max(e for _, e in _evaluated(reports))): 1}
    assert reports == [run_check(cid, p) for cid in MIXED_UNIT]
    alone = {}
    for cid in MIXED_UNIT:
        alone.update(congruences._run_unit((p, (cid,)))[1])
    assert family_lhs == alone
    table_builds.clear()


def test_a_unit_of_mixed_exponents_is_run_check_by_check(table_builds):
    for p in primes_in_range(3, 199):
        _assert_unit_is_run_check(p, table_builds)


@pytest.mark.parametrize("p", [4001, 20011])
def test_a_unit_of_mixed_exponents_on_the_numpy_kernel(monkeypatch, table_builds, p):
    # At 4001 the unit's table mod p^3 takes the numpy kernel; at 20011,
    # p^3 >= 2^40, it takes the Python kernel while the one-check units
    # at e = 1 and 2 take numpy.
    pytest.importorskip("numpy")
    monkeypatch.setattr(mhs, "_NUMPY_MIN_N", 0)
    _assert_unit_is_run_check(p, table_builds)


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


def _bump_cor_sun(monkeypatch, bumped):
    """Bump the right side of each cor-sun-modp member where
    bumped(label, p) holds, so that the member fails there."""
    rhs = CheckMember.rhs
    monkeypatch.setattr(CheckMember, "rhs", lambda m, p, e: rhs(m, p, e) + bumped(m.label, p))
    return run_scan("cor-sun-modp", primes_in_range(3, 60), jobs=1)


def test_no_refit_when_only_an_untagged_member_fails(monkeypatch):
    # s=3 fails at every prime from 13 on, but the family sun-s1 is s=1,
    # which passes everywhere: no row may carry s=1's constant.
    reports = _bump_cor_sun(monkeypatch, lambda label, p: label == "s=3")
    fails = [r for r in reports if r.status == STATUS_FAIL]
    assert [r.p for r in fails] == primes_in_range(13, 60)
    assert {r.note for r in fails} == {"fail: s=3"}


def test_refit_notes_only_the_rows_where_the_tagged_member_failed(monkeypatch):
    # s=3 fails at every prime from 13 on, s=1 only at p = 1 (mod 4).
    reports = _bump_cor_sun(
        monkeypatch, lambda label, p: label == "s=3" or (label == "s=1" and p % 4 == 1)
    )
    s1_fails = [p for p in primes_in_range(7, 60) if p % 4 == 1]
    assert [r.p for r in reports if "fitted=" in r.note] == s1_fails
    for r in reports:
        if r.p in s1_fails:
            assert r.note == "fail: s=1; s=3; fitted=1"
        elif r.status == STATUS_FAIL:
            assert r.note == "fail: s=3"


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
            r._replace(note=r.note + suffix) if r.status == STATUS_FAIL else r for r in single
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


# ---------------------------------------------------------------------------
# Coefficient fitting.
# ---------------------------------------------------------------------------


def test_fit_recovers_unit_coefficient():
    fam = fit_families()["sun-s1"]
    res = fit_coefficient(fam.lhs, fam.w, primes_in_range(7, 50))
    assert res.coefficient == 1
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
    res = fit_coefficient(fam.lhs, fam.w, primes_in_range(11, 80))
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
    res = fit_coefficient(fam.lhs, 9, primes_in_range(11, 100))
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
