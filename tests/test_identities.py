"""Polynomial identity suites for the two- and three-factor weighted sums."""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import mhslab.identities as identities
from mhslab.compositions import Composition
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
    assert not rep21.failures and rep21.points == 2 * 4**3 * 18
    rep31 = run_thm31_suite(3, (9,))
    assert not rep31.failures and rep31.points == 3**4


def test_instance_lhs_is_the_weighted_sum():
    assert weighted_sum2(1, 1, 1, 5) == Fraction(1160603, 216000)


def test_instance_detects_disagreement():
    bad = IdentityInstance("x", (1,), 3, Fraction(1), Fraction(2))
    assert bad.lhs != bad.rhs
    assert SuiteReport("x", 10, (bad,)).failures == (bad,)


def test_thm21_suite_small_grid():
    rep = run_thm21_suite(smax=2, nmax=10)
    assert rep.identity == "thm21"
    assert rep.points == 2**3 * 11 * 2
    assert not rep.failures


def test_thm31_suite_small():
    rep = run_thm31_suite(smax=2, nvalues=(4, 6))
    assert rep.identity == "thm31"
    assert rep.points == 2**4 * 2
    assert not rep.failures


def test_suite_argument_validation(monkeypatch):
    with pytest.raises(ValueError):
        run_thm21_suite(smax=0)
    with pytest.raises(ValueError):
        run_thm21_suite(nmax=-1)
    with pytest.raises(ValueError):
        run_thm31_suite(nvalues=())
    with pytest.raises(ValueError):
        run_thm31_suite(nvalues=(4, -2))

    # More exponent tuples than the cap are refused before any row is
    # built; the largest grids and probe count under it reach the rows.
    def no_rows(self, specs, *, rows=False):
        raise AssertionError("built rows")

    monkeypatch.setattr(PrefixTable, "single_values", no_rows)
    cap = identities._MAX_TUPLES
    for run, message in [
        (lambda: run_thm21_suite(smax=24), f"smax 24: 13824 exponent tuples exceed cap {cap}"),
        (lambda: run_thm31_suite(smax=11), f"smax 11: 14641 exponent tuples exceed cap {cap}"),
        (lambda: probe_thm31_random(cap + 1), f"probe count {cap + 1} exceeds cap {cap}"),
    ]:
        with pytest.raises(ValueError, match=message):
            run()
    for run in [
        lambda: run_thm21_suite(smax=23),
        lambda: run_thm31_suite(smax=10),
        lambda: probe_thm31_random(cap),
    ]:
        with pytest.raises(AssertionError, match="built rows"):
            run()


def test_check_probes_builds_no_table(monkeypatch):
    # The EXACT_N_CAP refusal is a comparison, not a table built to be refused.
    class NoTable(PrefixTable):
        def __init__(self, *args, **kwargs):
            raise AssertionError("built a table")

    monkeypatch.setattr(identities, "PrefixTable", NoTable)
    identities.check_probes(1, 10_000)
    with pytest.raises(ValueError, match="^exact upper index 10001 exceeds cap 10000$"):
        identities.check_probes(1, 10_001)


@pytest.mark.parametrize(
    "state, exponents",
    [
        (identities.thm21, list(product(range(1, 6), repeat=3))),
        (identities.thm31, list(product(range(1, 5), repeat=4))),
    ],
)
def test_every_product_has_the_identitys_weight(state, exponents):
    # The suites compare cells as numerators over scale**sum(s), which
    # holds only if every product on both sides has weight sum(s).
    t = PrefixTable.for_exact(3)
    for s in exponents:
        specs = []
        for lhs, rhs in state(*s).values():
            for factors, coefficient in lhs + rhs:
                assert type(coefficient) is int and coefficient != 0
                assert sum(sum(args) for _, args in factors) == sum(s)
                specs += factors
        assert set(t.single_values(specs)) == set(specs)


def test_probe_is_deterministic():
    a = probe_thm31_random(10, smax=3, nmax=25, seed=5)
    b = probe_thm31_random(10, smax=3, nmax=25, seed=5)
    assert a.identity == "thm31-general-n"
    assert a.points == b.points == 10
    assert not a.failures and not b.failures


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
    assert not run_thm21_suite(4, 10).failures
    assert len(passes) == 4**2 and all(rows for rows, _ in passes)
    lefts = [args for _, specs in passes for kind, args in specs if kind == "weighted_sum"]
    assert sorted(lefts) == list(product(range(1, 5), repeat=3))
    for _, specs in passes:
        assert len({args[:2] for kind, args in specs if kind == "weighted_sum"}) == 1


def test_thm31_builds_each_two_factor_row_once(monkeypatch):
    # One pass of rows per (s1, s2, s3), for all its s4: the two-factor row
    # is asked for once there, and each three-factor row once in the grid.
    passes = _record_passes(monkeypatch)
    assert not run_thm31_suite(3, (4, 6, 10, 12)).failures
    assert len(passes) == 3**3 and all(rows for rows, _ in passes)
    asked = [spec for _, specs in passes for spec in dict.fromkeys(specs)]
    by_arity = Counter(len(args) for kind, args in asked if kind == "weighted_sum")
    assert by_arity[3] == 3**3 and by_arity[4] == 3**4


def test_eval_formal_sum_exact_and_mod():
    f = [(Composition((1,)), 2), (Composition((2, 1)), -3)]
    n = 8
    expected = 2 * mhs_exact((1,), n) - 3 * mhs_exact((2, 1), n)
    assert eval_formal_sum(f, n) == expected
    t = PrefixTable.for_exact(n)
    sums = t.single_values(("mhs", comp) for comp, _ in f)
    assert sum(c * t.to_fraction(sums["mhs", comp], comp.weight) for comp, c in f) == expected
    # the mod route must agree with reducing the exact value
    got = eval_formal_sum(f, p=11, e=2)
    assert got == rational_to_residue(
        2 * mhs_exact((1,), 10) - 3 * mhs_exact((2, 1), 10), 11, 2
    )


def test_empty_formal_sum_evaluates_to_zero():
    assert eval_formal_sum([], 9) == 0


def test_eval_formal_sum_merges_repeated_compositions():
    # Pairs are evaluated as given: a repeated composition adds its
    # coefficients and a zero coefficient adds nothing.
    f = [((1, 2), 3), ((3,), 5), ((1, 2), -1), ((2,), 0)]
    merged = [((1, 2), 2), ((3,), 5)]
    assert eval_formal_sum(f, 9) == eval_formal_sum(merged, 9)
    assert eval_formal_sum(f, 9) == 2 * mhs_exact((1, 2), 9) + 5 * mhs_exact((3,), 9)
    assert eval_formal_sum(f, p=11, e=2) == eval_formal_sum(merged, p=11, e=2)
    assert eval_formal_sum(f, p=11, e=2) == rational_to_residue(
        2 * mhs_exact((1, 2), 10) + 5 * mhs_exact((3,), 10), 11, 2
    )


def test_zero_coefficients_are_never_evaluated(monkeypatch):
    # A zero term's weight would pass EXACT_BITS_CAP at n = 3; it adds nothing.
    f = [((1,), 1), ((40000,), 0)]
    assert eval_formal_sum(f, 3) == Fraction(11, 6)
    assert eval_formal_sum(f, p=7, e=2) == rational_to_residue(mhs_exact((1,), 6), 7, 2)
    want = 2 * mhs_exact((3,), 9)
    asked = []
    single_values = PrefixTable.single_values

    def spy(self, specs, **kwargs):
        specs = list(specs)
        asked.extend(specs)
        return single_values(self, specs, **kwargs)

    monkeypatch.setattr(PrefixTable, "single_values", spy)
    cancel = [((1, 2), 1), ((3,), 2), ((1, 2), -1)]
    assert eval_formal_sum(cancel, 9) == want
    assert asked == [("mhs", (3,))]
    # A malformed composition is refused whatever its coefficient.
    with pytest.raises(ValueError):
        eval_formal_sum([((0,), 0)], 3)


def _bump_cell_n(monkeypatch, arity):
    """Add 1 to the numerator of every weighted-sum spec of `arity`
    exponents where the suites read it, cell n of its row on a table for
    n: the row's cell, or the value."""
    original = PrefixTable.single_values

    def bumped(self, specs, *, rows=False):
        values = original(self, specs, rows=rows)
        for spec in values:
            if spec[0] == "weighted_sum" and len(spec[1]) == arity:
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

    _bump_cell_n(monkeypatch, 3)
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
    _bump_cell_n(monkeypatch, 4)
    rep = run_thm31_suite(1, (12,))
    probe = probe_thm31_random(3, smax=1, nmax=5)
    assert [(f.exponents, f.n) for f in rep.failures] == [((1, 1, 1, 1), 12)]
    assert [(f.exponents, f.n) for f in probe.failures] == [((1, 1, 1, 1), 5)] * 3
    for inst, scale in [(rep.failures[0], 27720), *((f, 60) for f in probe.failures)]:
        assert type(inst.lhs) is Fraction and type(inst.rhs) is Fraction
        assert inst.lhs == lhs31[inst.n] - Fraction(1, scale**4)
        assert inst.rhs == lhs31[inst.n]
        assert inst.lhs != inst.rhs
