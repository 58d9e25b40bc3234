"""Polynomial identity suites for the two- and three-factor weighted sums."""

from fractions import Fraction

import pytest

from mhslab.compositions import FormalSum
from mhslab.exactnum import rational_to_residue
from mhslab.identities import (
    IdentityInstance,
    SuiteReport,
    check_thm21_form1,
    check_thm21_form2,
    check_thm31,
    eval_formal_sum,
    probe_thm31_random,
    run_thm21_suite,
    run_thm31_suite,
)
from mhslab.mhs import PrefixTable, mhs_exact, weighted_sum2, weighted_sum3


def test_single_instances_hold():
    for s in [(1, 1, 1), (2, 3, 1), (4, 1, 2)]:
        for n in (0, 1, 6, 17):
            inst1 = check_thm21_form1(*s, n)
            inst2 = check_thm21_form2(*s, n)
            assert inst1.verdict and inst1.lhs == inst1.rhs
            assert inst2.verdict and inst2.lhs == inst2.rhs
            assert inst1.lhs == inst2.lhs  # both expand the same sum
    inst = check_thm31(2, 1, 1, 3, 9)
    assert inst.verdict
    assert inst.identity == "thm31"
    assert inst.exponents == (2, 1, 1, 3)


def test_instance_lhs_is_the_weighted_sum():
    inst = check_thm21_form1(1, 1, 1, 5)
    assert inst.lhs == weighted_sum2(1, 1, 1, 5) == Fraction(1160603, 216000)


def test_instance_detects_disagreement():
    bad = IdentityInstance("x", (1,), 3, Fraction(1), Fraction(2), False)
    assert not bad.verdict
    rep = SuiteReport("x", 10, (bad,))
    assert not rep.ok
    assert SuiteReport("x", 10, ()).ok


def test_thm21_suite_small_grid():
    rep = run_thm21_suite(smax=2, nmax=10)
    assert rep.identity == "thm21"
    assert rep.points == 2**3 * 11 * 2
    assert rep.ok


def test_thm31_suite_small():
    rep = run_thm31_suite(smax=2, nvalues=(4, 6))
    assert rep.identity == "thm31"
    assert rep.points == 2**4 * 2
    assert rep.ok


def test_suite_argument_validation():
    with pytest.raises(ValueError):
        run_thm21_suite(smax=0)
    with pytest.raises(ValueError):
        run_thm21_suite(nmax=-1)
    with pytest.raises(ValueError):
        run_thm31_suite(nvalues=())
    with pytest.raises(ValueError):
        run_thm31_suite(nvalues=(4, -2))


def test_probe_is_deterministic():
    a = probe_thm31_random(10, smax=3, nmax=25, seed=5)
    b = probe_thm31_random(10, smax=3, nmax=25, seed=5)
    assert a.identity == "thm31-general-n"
    assert a.points == b.points == 10
    assert a.ok and b.ok


def test_eval_formal_sum_exact_and_mod():
    f = FormalSum.single((1,), 2) + FormalSum.single((2, 1), -3)
    n = 8
    expected = 2 * mhs_exact((1,), n) - 3 * mhs_exact((2, 1), n)
    assert eval_formal_sum(f, n) == expected
    t = PrefixTable.for_exact(n)
    sums = t.mhs_many(comp for comp, _ in f)
    assert sum(c * t.to_fraction(sums[comp], comp.weight) for comp, c in f) == expected
    # the mod route must agree with reducing the exact value
    got = eval_formal_sum(f, p=11, e=2)
    assert got == rational_to_residue(
        2 * mhs_exact((1,), 10) - 3 * mhs_exact((2, 1), 10), 11, 2
    )


def test_empty_formal_sum_evaluates_to_zero():
    assert eval_formal_sum(FormalSum(), 9) == 0



def _bump_last_cell(monkeypatch, method):
    """Add 1 to the numerator in the last cell of every row `method` returns."""
    original = getattr(PrefixTable, method)

    def bumped(self, *args):
        row = list(original(self, *args))
        row[self.n] += 1
        return row

    monkeypatch.setattr(PrefixTable, method, bumped)


def test_failures_report_both_sides_as_fractions(monkeypatch):
    # Each side is a numerator over scale**w with scale = lcm(1..nmax) and
    # w the weight; a bumped left-side cell is off by exactly 1/scale**w.
    wsum2_6 = weighted_sum2(1, 1, 1, 6)
    lhs31 = {n: -weighted_sum3(1, 1, 1, 1, n) for n in (5, 12)}

    _bump_last_cell(monkeypatch, "weighted_sum2_all")
    rep = run_thm21_suite(1, 6)
    # both forms share the bumped left side, so each fails at n = 6
    assert [(f.identity, f.exponents, f.n) for f in rep.failures] == [
        ("thm21-form1", (1, 1, 1), 6),
        ("thm21-form2", (1, 1, 1), 6),
    ]
    for inst in rep.failures:
        assert type(inst.lhs) is Fraction and type(inst.rhs) is Fraction
        assert inst.lhs == wsum2_6 + Fraction(1, 60**3)
        assert inst.rhs == wsum2_6
        assert not inst.verdict
    monkeypatch.undo()

    # thm31's left side is minus the three-factor sum
    _bump_last_cell(monkeypatch, "weighted_sum3_all")
    rep = run_thm31_suite(1, (12,))
    probe = probe_thm31_random(3, smax=1, nmax=5)
    assert [(f.exponents, f.n) for f in rep.failures] == [((1, 1, 1, 1), 12)]
    assert [(f.exponents, f.n) for f in probe.failures] == [((1, 1, 1, 1), 5)] * 3
    for inst, scale in [(rep.failures[0], 27720), *((f, 60) for f in probe.failures)]:
        assert type(inst.lhs) is Fraction and type(inst.rhs) is Fraction
        assert inst.lhs == lhs31[inst.n] - Fraction(1, scale**4)
        assert inst.rhs == lhs31[inst.n]
        assert not inst.verdict
