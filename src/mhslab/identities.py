"""Exact rational verification of the structural identities relating the
weighted sums to plain multiple harmonic sums.

Everything here compares exact values for equality; no modular shortcut
is taken.  The two three-factor-free forms (form1 with the product term,
form2 fully expanded through the quasi-shuffle) and the four-exponent
relation are each exposed as single-point checks plus grid suites.  Every
check and suite builds one exact PrefixTable for its largest upper index,
refused above EXACT_N_CAP before any row is built, and a suite reuses whole
prefix rows across its grid.  Every term of an identity has the same
weight, so both sides are compared as raw-int numerators over one
denominator; only reported instances carry Fractions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .compositions import FormalSum
from .exactnum import is_prime
from .mhs import PrefixTable, _value

__all__ = [
    "IdentityInstance",
    "SuiteReport",
    "check_thm21_form1",
    "check_thm21_form2",
    "check_thm31",
    "eval_formal_sum",
    "run_thm21_suite",
    "run_thm31_suite",
    "probe_thm31_random",
]


@dataclass(frozen=True, slots=True)
class IdentityInstance:
    """One identity evaluated at one point: exponents, upper index, both
    sides, and whether they agree exactly."""

    identity: str
    exponents: tuple[int, ...]
    n: int
    lhs: Fraction
    rhs: Fraction
    verdict: bool


@dataclass(frozen=True, slots=True)
class SuiteReport:
    identity: str
    points: int
    failures: tuple[IdentityInstance, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _instance(
    identity: str, exps: tuple[int, ...], n: int, t: PrefixTable, lhs: int, rhs: int
) -> IdentityInstance:
    """Both sides as Fractions, from numerators over t.scale**sum(exps)."""
    w = sum(exps)
    return IdentityInstance(
        identity, exps, n, t.to_fraction(lhs, w), t.to_fraction(rhs, w), lhs == rhs
    )


def _thm21_rows(t: PrefixTable, s1: int, s2: int, s3: int, form: int) -> tuple[list, list]:
    """(lhs, rhs) rows over every upper index 0..t.n for one exponent triple,
    as numerators over t.scale**(s1+s2+s3)."""
    lhs = t.weighted_sum2_all(s1, s2, s3)
    if form == 1:
        a = t.mhs_all((s1, s2, s3))
        b = t.mhs_all((s3, s1 + s2))
        c = t.harmonic_prefix(s1 + s2 + s3)
        d = t.harmonic_prefix(s3)
        e = t.mhs_all((s1, s2))
        rhs = [-a[j] + b[j] + c[j] + d[j] * e[j] for j in range(t.n + 1)]
    else:
        rows = [
            t.mhs_all((s1, s3, s2)),
            t.mhs_all((s3, s1, s2)),
            t.mhs_all((s3, s1 + s2)),
            t.mhs_all((s1 + s3, s2)),
            t.mhs_all((s1, s2 + s3)),
            t.harmonic_prefix(s1 + s2 + s3),
        ]
        rhs = [sum(r[j] for r in rows) for j in range(t.n + 1)]
    return lhs, rhs


def _thm31_rows(t: PrefixTable, s1: int, s2: int, s3: int, s4: int) -> tuple[list, list]:
    """As _thm21_rows, over t.scale**(s1+s2+s3+s4)."""
    lhs = [-v for v in t.weighted_sum3_all(s1, s2, s3, s4)]
    rows = [
        t.mhs_all((s1, s3, s2, s4)),
        t.mhs_all((s3, s1, s2, s4)),
        t.mhs_all((s3, s1 + s2, s4)),
        t.mhs_all((s1 + s3, s2, s4)),
        t.mhs_all((s1, s2 + s3, s4)),
        t.mhs_all((s1 + s2 + s3, s4)),
    ]
    h4 = t.harmonic_prefix(s4)
    w2 = t.weighted_sum2_all(s1, s2, s3)
    # The product term carries a minus sign; summing the six nested sums
    # alone overshoots by exactly H^(s4)_n times the two-factor sum.
    rhs = [sum(r[j] for r in rows) - h4[j] * w2[j] for j in range(t.n + 1)]
    return lhs, rhs


def check_thm21_form1(s1: int, s2: int, s3: int, n: int) -> IdentityInstance:
    """Compare sum_j H^(s1)H^(s3)/j^(s2) (up to n) against
    -H(s1,s2,s3) + H(s3,s1+s2) + H(s1+s2+s3) + H(s3)H(s1,s2)."""
    t = PrefixTable.for_exact(n)
    lhs, rhs = _thm21_rows(t, s1, s2, s3, form=1)
    return _instance("thm21-form1", (s1, s2, s3), n, t, lhs[n], rhs[n])


def check_thm21_form2(s1: int, s2: int, s3: int, n: int) -> IdentityInstance:
    """Compare the same weighted sum against its fully expanded six-term
    form H(s1,s3,s2) + H(s3,s1,s2) + H(s3,s1+s2) + H(s1+s3,s2) +
    H(s1,s2+s3) + H(s1+s2+s3)."""
    t = PrefixTable.for_exact(n)
    lhs, rhs = _thm21_rows(t, s1, s2, s3, form=2)
    return _instance("thm21-form2", (s1, s2, s3), n, t, lhs[n], rhs[n])


def check_thm31(s1: int, s2: int, s3: int, s4: int, n: int) -> IdentityInstance:
    """Compare -sum_j H^(s1)H^(s3)H^(s4)/j^(s2) against the six length-four
    sums minus H^(s4)_n times the two-factor weighted sum."""
    t = PrefixTable.for_exact(n)
    lhs, rhs = _thm31_rows(t, s1, s2, s3, s4)
    return _instance("thm31", (s1, s2, s3, s4), n, t, lhs[n], rhs[n])


def eval_formal_sum(F: FormalSum, n: int | None = None, *, p: int | None = None, e: int = 1):
    """Evaluate sum coeff * H(c; n) over the terms of F.

    Exact mode (give n) returns a Fraction; mod mode (give p, e) evaluates
    at n = p-1 and returns a Residue.  Every term goes through one trie walk.
    """
    # Bring every term to the largest weight's denominator (mod mode has
    # scale 1, so there the factor is 1).
    top = max((comp.weight for comp, _ in F), default=0)

    def evaluate(t: PrefixTable) -> int:
        sums = t.mhs_many(comp for comp, _ in F)
        return sum(c * sums[comp] * t.scale ** (top - comp.weight) for comp, c in F)

    return _value(evaluate, top, n, p, e)


def run_thm21_suite(smax: int = 4, nmax: int = 40) -> SuiteReport:
    """Verify both expanded forms on the whole grid [1,smax]^3 x [0,nmax]."""
    if smax < 1 or nmax < 0:
        raise ValueError("smax must be >= 1 and nmax >= 0")
    t = PrefixTable.for_exact(nmax)
    failures: list[IdentityInstance] = []
    points = 0
    for s1, s2, s3 in product(range(1, smax + 1), repeat=3):
        for form in (1, 2):
            lhs, rhs = _thm21_rows(t, s1, s2, s3, form)
            for n in range(nmax + 1):
                points += 1
                if lhs[n] != rhs[n]:
                    failures.append(
                        _instance(f"thm21-form{form}", (s1, s2, s3), n, t, lhs[n], rhs[n])
                    )
    return SuiteReport("thm21", points, tuple(failures))


def run_thm31_suite(smax: int = 3, nvalues: Sequence[int] = (4, 6, 10, 12)) -> SuiteReport:
    """Verify the four-exponent relation on [1,smax]^4 at the given n."""
    if smax < 1 or not nvalues or min(nvalues) < 0:
        raise ValueError("smax must be >= 1 and nvalues non-empty, >= 0")
    t = PrefixTable.for_exact(max(nvalues))
    failures: list[IdentityInstance] = []
    points = 0
    for s in product(range(1, smax + 1), repeat=4):
        lhs, rhs = _thm31_rows(t, *s)
        for n in nvalues:
            points += 1
            if lhs[n] != rhs[n]:
                failures.append(_instance("thm31", s, n, t, lhs[n], rhs[n]))
    return SuiteReport("thm31", points, tuple(failures))


def probe_thm31_random(
    count: int = 50, *, smax: int = 4, nmax: int = 40, seed: int = 1729
) -> SuiteReport:
    """Probe the four-exponent relation at random exponents and random
    upper indices n with n+1 composite (so n is never of the form p-1)."""
    if count < 0:
        raise ValueError(f"probe count must be >= 0, got {count}")
    if nmax < 5:
        raise ValueError(f"nmax must be >= 5 (the smallest n with n+1 composite is 5), got {nmax}")
    t = PrefixTable.for_exact(nmax)
    rng = random.Random(seed)
    composite_n = [n for n in range(4, nmax + 1) if not is_prime(n + 1)]
    failures: list[IdentityInstance] = []
    for _ in range(count):
        s = tuple(rng.randint(1, smax) for _ in range(4))
        n = rng.choice(composite_n)
        lhs, rhs = _thm31_rows(t, *s)
        if lhs[n] != rhs[n]:
            failures.append(_instance("thm31-general-n", s, n, t, lhs[n], rhs[n]))
    return SuiteReport("thm31-general-n", count, tuple(failures))
