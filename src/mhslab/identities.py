"""Exact rational verification of the structural identities relating the
weighted sums to plain multiple harmonic sums.

Everything here compares exact values for equality; no modular shortcut
is taken.  The two three-factor-free forms (form1 with the product term,
form2 fully expanded through the quasi-shuffle) and the four-exponent
relation are each verified by a grid suite.  Every suite builds one
exact PrefixTable for its largest upper index, refused above EXACT_N_CAP
before any row is built.  The table caches only its inverse-power and
harmonic-prefix rows; the mhs_all and weighted-sum rows are built anew
for each exponent tuple, once for both forms of Theorem 2.1, and the
Theorem 3.1 grid builds each two-factor weighted-sum row once for all
the s4 that share its (s1, s2, s3).  Every term of an identity has the
same weight, so both sides are compared as raw-int numerators over one
denominator; only reported instances carry Fractions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .exactnum import is_prime
from .mhs import PrefixTable, eval_formal_sum

__all__ = [
    "IdentityInstance",
    "SuiteReport",
    "eval_formal_sum",
    "run_thm21_suite",
    "run_thm31_suite",
    "probe_thm31_random",
]


@dataclass(frozen=True, slots=True)
class IdentityInstance:
    """One identity evaluated at one point: exponents, upper index and both
    sides.  A suite reports only the points where the sides differ."""

    identity: str
    exponents: tuple[int, ...]
    n: int
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True, slots=True)
class SuiteReport:
    identity: str
    points: int
    failures: tuple[IdentityInstance, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _compare(t: PrefixTable, exps: tuple, lhs: list, sides: dict, ns: Sequence, out: list) -> int:
    """Compare the lhs row with each named right-side row at every n in ns,
    appending to out, in (identity, n) order, an IdentityInstance with both
    sides as Fractions wherever they differ.  Rows are numerators over
    t.scale**sum(exps).  Returns the number of points compared."""
    w, frac = sum(exps), t.to_fraction
    for identity, rhs in sides.items():
        for n in ns:
            if lhs[n] != rhs[n]:
                out.append(IdentityInstance(identity, exps, n, frac(lhs[n], w), frac(rhs[n], w)))
    return len(sides) * len(ns)


def _thm21_rows(t: PrefixTable, s1: int, s2: int, s3: int) -> tuple[list, dict]:
    """The left row and both forms' right rows over every upper index
    0..t.n for one exponent triple, as numerators over
    t.scale**(s1+s2+s3).  The left side is sum_j H^(s1)H^(s3)/j^(s2);
    form 1's right side is -H(s1,s2,s3) + H(s3,s1+s2) + H(s1+s2+s3) +
    H(s3)H(s1,s2), and form 2's is the six-term expansion H(s1,s3,s2) +
    H(s3,s1,s2) + H(s3,s1+s2) + H(s1+s3,s2) + H(s1,s2+s3) + H(s1+s2+s3).
    The two terms the forms share are built once."""
    lhs = t.weighted_sum2_all(s1, s2, s3)
    b, c = t.mhs_all((s3, s1 + s2)), t.harmonic_prefix(s1 + s2 + s3)
    a, d, e = t.mhs_all((s1, s2, s3)), t.harmonic_prefix(s3), t.mhs_all((s1, s2))
    rest = [t.mhs_all(u) for u in ((s1, s3, s2), (s3, s1, s2), (s1 + s3, s2), (s1, s2 + s3))]
    cells = range(t.n + 1)
    shared = [b[j] + c[j] for j in cells]
    return lhs, {
        "thm21-form1": [shared[j] - a[j] + d[j] * e[j] for j in cells],
        "thm21-form2": [shared[j] + sum(r[j] for r in rest) for j in cells],
    }


def _thm31_rows(t: PrefixTable, s1: int, s2: int, s3: int, s4: int, w2: list) -> tuple[list, list]:
    """As _thm21_rows, over t.scale**(s1+s2+s3+s4): the left side is
    -sum_j H^(s1)H^(s3)H^(s4)/j^(s2), the right the six length-four sums
    minus H^(s4) times the two-factor weighted sum, whose row
    t.weighted_sum2_all(s1, s2, s3) the caller passes as w2."""
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
    # The product term carries a minus sign; summing the six nested sums
    # alone overshoots by exactly H^(s4)_n times the two-factor sum.
    rhs = [sum(r[j] for r in rows) - h4[j] * w2[j] for j in range(t.n + 1)]
    return lhs, rhs


def run_thm21_suite(smax: int = 4, nmax: int = 40) -> SuiteReport:
    """Verify both expanded forms on the whole grid [1,smax]^3 x [0,nmax]."""
    if smax < 1 or nmax < 0:
        raise ValueError("smax must be >= 1 and nmax >= 0")
    t = PrefixTable.for_exact(nmax)
    failures: list[IdentityInstance] = []
    points = 0
    for s in product(range(1, smax + 1), repeat=3):
        points += _compare(t, s, *_thm21_rows(t, *s), range(nmax + 1), failures)
    return SuiteReport("thm21", points, tuple(failures))


def run_thm31_suite(smax: int = 3, nvalues: Sequence[int] = (4, 6, 10, 12)) -> SuiteReport:
    """Verify the four-exponent relation on [1,smax]^4 at the given n."""
    if smax < 1 or not nvalues or min(nvalues) < 0:
        raise ValueError("smax must be >= 1 and nvalues non-empty, >= 0")
    t = PrefixTable.for_exact(max(nvalues))
    failures: list[IdentityInstance] = []
    points = 0
    exps = range(1, smax + 1)
    # The grid in product(exps, repeat=4) order, s4 fastest: the s4 that
    # share an (s1, s2, s3) share its two-factor row.
    for s123 in product(exps, repeat=3):
        w2 = t.weighted_sum2_all(*s123)
        for s4 in exps:
            s = (*s123, s4)
            lhs, rhs = _thm31_rows(t, *s, w2)
            points += _compare(t, s, lhs, {"thm31": rhs}, nvalues, failures)
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
        lhs, rhs = _thm31_rows(t, *s, t.weighted_sum2_all(*s[:3]))
        _compare(t, s, lhs, {"thm31-general-n": rhs}, (n,), failures)
    return SuiteReport("thm31-general-n", count, tuple(failures))
