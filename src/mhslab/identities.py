"""Exact rational verification of the structural identities relating the
weighted sums to plain multiple harmonic sums.

Everything here compares exact values for equality; no modular shortcut
is taken.  The two three-factor-free forms (form1 with the product term,
form2 fully expanded through the quasi-shuffle) and the four-exponent
relation are each verified by a grid suite.  A grid suite builds one
exact PrefixTable for its largest upper index and asks it for its rows
in batches, one single_values(specs, rows=True) pass per batch: Theorem
2.1 one pass per (s1, s2) with all its s3, for both forms, and Theorem
3.1 one per (s1, s2, s3) with all its s4, so the rows a pass holds grow
with smax, not with the grid.  Each random probe of Theorem 3.1 is one
pass on a table for its own upper index n.  An upper index above
EXACT_N_CAP is refused before any row is built.  Every term of an
identity has the same weight, so both sides are compared as raw-int
numerators over one denominator; only reported instances carry
Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import NamedTuple, Sequence

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


class IdentityInstance(NamedTuple):
    """One identity evaluated at one point: exponents, upper index and both
    sides.  A suite reports only the points where the sides differ."""

    identity: str
    exponents: tuple[int, ...]
    n: int
    lhs: Fraction
    rhs: Fraction


class SuiteReport(NamedTuple):
    """The points a suite compared and the instances where the sides
    differ; the identity holds on the suite when failures is empty."""

    identity: str
    points: int
    failures: tuple[IdentityInstance, ...]


def _compare(t: PrefixTable, exps: tuple, lhs: list, sides: dict, ns: Sequence, out: list) -> int:
    """Compare the lhs cells with each named right side's cells, both at
    the upper indices ns in order, appending to out, in (identity, n)
    order, an IdentityInstance with both sides as Fractions wherever they
    differ.  Cells are numerators over t.scale**sum(exps).  Returns the
    number of points compared."""
    w, frac = sum(exps), t.to_fraction
    for identity, rhs in sides.items():
        for n, left, right in zip(ns, lhs, rhs):
            if left != right:
                out.append(IdentityInstance(identity, exps, n, frac(left, w), frac(right, w)))
    return len(sides) * len(ns)


def _thm21_specs(s1: int, s2: int, s3: int) -> list:
    """The left side sum_j H^(s1)H^(s3)/j^(s2), then the nine sums of both
    forms' right sides, in the order _thm21_sides reads them."""
    a = s1 + s2
    comps = [(s3, a), (a + s3,), (s1, s2, s3), (s3,), (s1, s2)]
    comps += [(s1, s3, s2), (s3, s1, s2), (s1 + s3, s2), (s1, s2 + s3)]
    return [("weighted_sum", (s1, s2, s3))] + [("mhs", c) for c in comps]


def _thm21_sides(rows: dict, s: tuple) -> tuple[list, dict]:
    """The left row and both forms' right rows over every upper index, from
    the rows of _thm21_specs(*s).  Form 1's right side is -H(s1,s2,s3) +
    H(s3,s1+s2) + H(s1+s2+s3) + H(s3)H(s1,s2), and form 2's is the
    six-term expansion H(s1,s3,s2) + H(s3,s1,s2) + H(s3,s1+s2) +
    H(s1+s3,s2) + H(s1,s2+s3) + H(s1+s2+s3).  The two terms the forms
    share are added once."""
    lhs, b, c, a, d, e, *rest = (rows[spec] for spec in _thm21_specs(*s))
    cells = range(len(lhs))
    shared = [b[j] + c[j] for j in cells]
    return lhs, {
        "thm21-form1": [shared[j] - a[j] + d[j] * e[j] for j in cells],
        "thm21-form2": [shared[j] + sum(r[j] for r in rest) for j in cells],
    }


def _thm31_specs(s1: int, s2: int, s3: int, s4: int) -> list:
    """The three-factor sum, the two-factor sum of (s1, s2, s3), H(s4) and
    the six length-four sums, in the order _thm31_sides reads them."""
    comps = [(s4,), (s1, s3, s2, s4), (s3, s1, s2, s4), (s3, s1 + s2, s4)]
    comps += [(s1 + s3, s2, s4), (s1, s2 + s3, s4), (s1 + s2 + s3, s4)]
    wsums = [("weighted_sum", (s1, s2, s3, s4)), ("weighted_sum", (s1, s2, s3))]
    return wsums + [("mhs", c) for c in comps]


def _thm31_sides(rows: dict, s: tuple, ns: Sequence) -> tuple[list, list]:
    """As _thm21_sides, at the upper indices ns only, from the rows of
    _thm31_specs(*s): the left side is -sum_j H^(s1)H^(s3)H^(s4)/j^(s2),
    the right the six length-four sums minus H^(s4) times the two-factor
    weighted sum."""
    w3, w2, h4, *six = (rows[spec] for spec in _thm31_specs(*s))
    # The product term carries a minus sign; summing the six nested sums
    # alone overshoots by exactly H^(s4)_n times the two-factor sum.
    return [-w3[n] for n in ns], [sum(r[n] for r in six) - h4[n] * w2[n] for n in ns]


def run_thm21_suite(smax: int = 4, nmax: int = 40) -> SuiteReport:
    """Verify both expanded forms on the whole grid [1,smax]^3 x [0,nmax]."""
    if smax < 1 or nmax < 0:
        raise ValueError("smax must be >= 1 and nmax >= 0")
    t = PrefixTable.for_exact(nmax)
    failures: list[IdentityInstance] = []
    points = 0
    exps = range(1, smax + 1)
    # One pass per (s1, s2) for all its s3; the grid in product order.
    for s12 in product(exps, repeat=2):
        rows = t.single_values([spec for s3 in exps for spec in _thm21_specs(*s12, s3)], rows=True)
        for s3 in exps:
            s = (*s12, s3)
            points += _compare(t, s, *_thm21_sides(rows, s), range(nmax + 1), failures)
    return SuiteReport("thm21", points, tuple(failures))


def run_thm31_suite(smax: int = 3, nvalues: Sequence[int] = (4, 6, 10, 12)) -> SuiteReport:
    """Verify the four-exponent relation on [1,smax]^4 at the given n."""
    if smax < 1 or not nvalues or min(nvalues) < 0:
        raise ValueError("smax must be >= 1 and nvalues non-empty, >= 0")
    t = PrefixTable.for_exact(max(nvalues))
    failures: list[IdentityInstance] = []
    points = 0
    exps = range(1, smax + 1)
    # One pass per (s1, s2, s3) for all its s4; the grid in product order.
    for s123 in product(exps, repeat=3):
        rows = t.single_values([spec for s4 in exps for spec in _thm31_specs(*s123, s4)], rows=True)
        for s4 in exps:
            s = (*s123, s4)
            lhs, rhs = _thm31_sides(rows, s, nvalues)
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
    PrefixTable.for_exact(nmax)  # refuses nmax above EXACT_N_CAP before any probe runs
    rng = random.Random(seed)
    composite_n = [n for n in range(4, nmax + 1) if not is_prime(n + 1)]
    failures: list[IdentityInstance] = []
    for _ in range(count):
        s = tuple(rng.randint(1, smax) for _ in range(4))
        n = rng.choice(composite_n)
        t = PrefixTable.for_exact(n)
        lhs, rhs = _thm31_sides(t.single_values(_thm31_specs(*s), rows=True), s, (n,))
        _compare(t, s, lhs, {"thm31-general-n": rhs}, (n,), failures)
    return SuiteReport("thm31-general-n", count, tuple(failures))
