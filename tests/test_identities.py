"""Polynomial identity suites for the two- and three-factor weighted sums."""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from mhslab.compositions import FormalSum
from mhslab.exactnum import rational_to_residue
from mhslab.identities import (
    IdentityInstance,
    SuiteReport,
    eval_formal_sum,
    probe_thm31_random,
    run_thm21_suite,
    run_thm31_suite,
)
from mhslab.mhs import PrefixTable, mhs_exact, weighted_sum2, weighted_sum3


def test_single_instances_hold():
    # Covers the points (1,1,1), (2,3,1), (4,1,2) at n = 0, 1, 6, 17 for
    # both forms, and (2,1,1,3) at n = 9.
    rep21 = run_thm21_suite(4, 17)
    assert rep21.ok and rep21.points == 2 * 4**3 * 18
    rep31 = run_thm31_suite(3, (9,))
    assert rep31.ok and rep31.points == 3**4


def test_instance_lhs_is_the_weighted_sum():
    assert weighted_sum2(1, 1, 1, 5) == Fraction(1160603, 216000)


def test_instance_detects_disagreement():
    bad = IdentityInstance("x", (1,), 3, Fraction(1), Fraction(2))
    assert bad.lhs != bad.rhs
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


def _record_passes(monkeypatch) -> list:
    """Record (rows, specs) for every single_values call from now on."""
    passes = []
    original = PrefixTable.single_values

    def spy(self, specs, *, rows=False):
        specs = list(specs)
        passes.append((rows, specs))
        return original(self, specs, rows=rows)

    monkeypatch.setattr(PrefixTable, "single_values", spy)
    return passes


def test_thm21_builds_each_row_once(monkeypatch):
    # One pass of rows per (s1, s2), for all its s3: each left row is asked
    # for once, in the pass of its (s1, s2).
    passes = _record_passes(monkeypatch)
    assert run_thm21_suite(4, 10).ok
    assert len(passes) == 4**2 and all(rows for rows, _ in passes)
    lefts = [args for _, specs in passes for method, args in specs if method == "weighted_sum2"]
    assert sorted(lefts) == list(product(range(1, 5), repeat=3))
    for _, specs in passes:
        assert len({args[:2] for method, args in specs if method == "weighted_sum2"}) == 1


def test_thm31_builds_each_two_factor_row_once(monkeypatch):
    # One pass of rows per (s1, s2, s3), for all its s4: the two-factor row
    # is asked for once there, and each three-factor row once in the grid.
    passes = _record_passes(monkeypatch)
    assert run_thm31_suite(3, (4, 6, 10, 12)).ok
    assert len(passes) == 3**3 and all(rows for rows, _ in passes)
    by_method = Counter(method for _, specs in passes for method, _ in dict.fromkeys(specs))
    assert by_method["weighted_sum2"] == 3**3 and by_method["weighted_sum3"] == 3**4


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


def _bump_cell_n(monkeypatch, method):
    """Add 1 to the numerator of every `method` spec where the suites read
    it, cell n of its row on a table for n: the row's cell, or the value."""
    original = PrefixTable.single_values

    def bumped(self, specs, *, rows=False):
        values = original(self, specs, rows=rows)
        for spec in values:
            if spec[0] == method:
                if rows:
                    values[spec][self.n] += 1
                else:
                    values[spec] += 1
        return values

    monkeypatch.setattr(PrefixTable, "single_values", bumped)


def test_failures_report_both_sides_as_fractions(monkeypatch):
    # Each side is a numerator over scale**w with scale = lcm(1..nmax) and
    # w the weight; a bumped left-side cell is off by exactly 1/scale**w.
    wsum2_6 = weighted_sum2(1, 1, 1, 6)
    lhs31 = {n: -weighted_sum3(1, 1, 1, 1, n) for n in (5, 12)}

    _bump_cell_n(monkeypatch, "weighted_sum2")
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
        assert inst.lhs != inst.rhs
    monkeypatch.undo()

    # thm31's left side is minus the three-factor sum
    _bump_cell_n(monkeypatch, "weighted_sum3")
    rep = run_thm31_suite(1, (12,))
    probe = probe_thm31_random(3, smax=1, nmax=5)
    assert [(f.exponents, f.n) for f in rep.failures] == [((1, 1, 1, 1), 12)]
    assert [(f.exponents, f.n) for f in probe.failures] == [((1, 1, 1, 1), 5)] * 3
    for inst, scale in [(rep.failures[0], 27720), *((f, 60) for f in probe.failures)]:
        assert type(inst.lhs) is Fraction and type(inst.rhs) is Fraction
        assert inst.lhs == lhs31[inst.n] - Fraction(1, scale**4)
        assert inst.rhs == lhs31[inst.n]
        assert inst.lhs != inst.rhs
