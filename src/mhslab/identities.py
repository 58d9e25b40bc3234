"""Exact rational verification of the structural identities relating the
weighted sums to plain multiple harmonic sums.

Theorem 2.1, in form 1 (with a product term) and form 2 (expanded
through the quasi-shuffle), and Theorem 3.1 are stated once, as data:
thm21 and thm31 give both sides as products of single_values specs
with integer coefficients.  One loop, _run, compares the sides exactly,
for the grid suites and the random probes alike, with one
single_values(specs, rows=True) pass per batch of exponent tuples:
Theorem 2.1 per (s1, s2) with all its s3, Theorem 3.1 per (s1, s2, s3)
with all its s4, and a probe on a table at its own n.  More exponent
tuples than _MAX_TUPLES, or an upper index above EXACT_N_CAP, is refused
before any row is built.  Every term of an identity has the same
weight, so the sides are compared as raw-int numerators over one
denominator; only reported instances carry Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import prod
from typing import Callable, Iterable, NamedTuple, Sequence

from .exactnum import is_prime
from .mhs import EXACT_N_CAP, PrefixTable, eval_formal_sum

__all__ = [
    "IdentityInstance",
    "SuiteReport",
    "check_probes",
    "eval_formal_sum",
    "run_thm21_suite",
    "run_thm31_suite",
    "probe_thm31_random",
]

# Most exponent tuples one suite evaluates: smax**3, smax**4 or the probe count.
# At nmax 40 the largest 2.1 suite it admits, smax 23, took 9-11 s (2-CPU Xeon, Python 3.11).
_MAX_TUPLES = 12_500
# The default largest upper index of the random probes.
_PROBE_NMAX = 40


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


def thm21(s1: int, s2: int, s3: int) -> dict:
    """Theorem 2.1 at (s1, s2, s3): sum_j H_j^(s1) H_j^(s3) / j^(s2) equals
    form 1, -H(s1,s2,s3) + H(s3,s1+s2) + H(s1+s2+s3) + H(s3) H(s1,s2), and
    form 2, H(s1,s3,s2) + H(s3,s1,s2) + H(s3,s1+s2) + H(s1+s3,s2) +
    H(s1,s2+s3) + H(s1+s2+s3).  Each form maps to (lhs, rhs); a side is a
    tuple of products (factors, coefficient), the factors specs."""
    lhs = (((("weighted_sum", (s1, s2, s3)),), 1),)
    shared = tuple(((("mhs", c),), 1) for c in [(s3, s1 + s2), (s1 + s2 + s3,)])
    form1 = ((("mhs", (s1, s2, s3)),), -1), ((("mhs", (s3,)), ("mhs", (s1, s2))), 1)
    comps = [(s1, s3, s2), (s3, s1, s2), (s1 + s3, s2), (s1, s2 + s3)]
    form2 = tuple(((("mhs", c),), 1) for c in comps)
    return {"thm21-form1": (lhs, shared + form1), "thm21-form2": (lhs, shared + form2)}


def thm31(s1: int, s2: int, s3: int, s4: int) -> dict:
    """Theorem 3.1 at (s1, s2, s3, s4), stated as thm21 states its forms:
    minus sum_j H_j^(s1) H_j^(s3) H_j^(s4) / j^(s2) equals H(s1,s3,s2,s4) +
    H(s3,s1,s2,s4) + H(s3,s1+s2,s4) + H(s1+s3,s2,s4) + H(s1,s2+s3,s4) +
    H(s1+s2+s3,s4) - H(s4) sum_j H_j^(s1) H_j^(s3) / j^(s2)."""
    comps = [(s1, s3, s2, s4), (s3, s1, s2, s4), (s3, s1 + s2, s4)]
    comps += [(s1 + s3, s2, s4), (s1, s2 + s3, s4), (s1 + s2 + s3, s4)]
    six = tuple(((("mhs", c),), 1) for c in comps)
    product_term = (("mhs", (s4,)), ("weighted_sum", (s1, s2, s3))), -1
    return {"thm31": ((((("weighted_sum", (s1, s2, s3, s4)),), -1),), six + (product_term,))}


def _cells(side: tuple, rows: dict) -> list:
    """Per cell, the sum of each product's coefficient times its factors' cells."""
    terms = []
    for factors, c in side:
        cells = rows[factors[0]] if len(factors) == 1 else map(prod, zip(*map(rows.get, factors)))
        terms.append(cells if c == 1 else [c * x for x in cells])
    return list(map(sum, zip(*terms)))


def _run(t: PrefixTable, identities: Callable, batches: Iterable, ns: Sequence, out: list) -> int:
    """Compare the sides of each identity that identities(*s) states, for
    each tuple s of each batch, at the upper indices ns, with one pass of
    rows on t per batch.  Appends to out, in (s, identity, n) order, an
    IdentityInstance wherever they differ.  Returns the points compared."""
    whole = list(ns) == list(range(t.n + 1))  # then the rows are read as they come
    frac, points = t.to_fraction, 0
    for batch in batches:
        stated = [(s, identities(*s)) for s in batch]
        sides = [side for _, pairs in stated for pair in pairs.values() for side in pair]
        specs = dict.fromkeys(spec for side in sides for factors, _ in side for spec in factors)
        rows = t.single_values(specs, rows=True)
        if not whole:
            rows = {spec: [row[n] for n in ns] for spec, row in rows.items()}
        for s, pairs in stated:
            w = sum(s)
            for identity, (lhs, rhs) in pairs.items():
                for n, left, right in zip(ns, _cells(lhs, rows), _cells(rhs, rows)):
                    if left != right:
                        out.append(IdentityInstance(identity, s, n, frac(left, w), frac(right, w)))
                points += len(ns)
    return points


def _grid(name: str, identities: Callable, arity: int, smax: int, ns: Sequence) -> SuiteReport:
    """Compare identities on [1,smax]^arity at the upper indices ns, in product order."""
    if smax**arity > _MAX_TUPLES:
        raise ValueError(f"smax {smax}: {smax**arity} exponent tuples exceed cap {_MAX_TUPLES}")
    t = PrefixTable.for_exact(max(ns))
    exps = range(1, smax + 1)
    batches = ([(*lead, last) for last in exps] for lead in product(exps, repeat=arity - 1))
    failures: list[IdentityInstance] = []
    points = _run(t, identities, batches, ns, failures)
    return SuiteReport(name, points, tuple(failures))


def run_thm21_suite(smax: int = 4, nmax: int = 40) -> SuiteReport:
    """Verify both expanded forms on the whole grid [1,smax]^3 x [0,nmax]."""
    if smax < 1 or nmax < 0:
        raise ValueError("smax must be >= 1 and nmax >= 0")
    return _grid("thm21", thm21, 3, smax, range(nmax + 1))


def run_thm31_suite(smax: int = 3, nvalues: Sequence[int] = (4, 6, 10, 12)) -> SuiteReport:
    """Verify the four-exponent relation on [1,smax]^4 at the given n."""
    if smax < 1 or not nvalues or min(nvalues) < 0:
        raise ValueError("smax must be >= 1 and nvalues non-empty, >= 0")
    return _grid("thm31", thm31, 4, smax, nvalues)


def check_probes(count: int, nmax: int = _PROBE_NMAX) -> None:
    """Raise ValueError unless probe_thm31_random(count, nmax=nmax) can run,
    so a caller that runs other work first can refuse bad probes up front."""
    if count < 0:
        raise ValueError(f"probe count must be >= 0, got {count}")
    if nmax < 5:
        raise ValueError(f"nmax must be >= 5 (the smallest n with n+1 composite is 5), got {nmax}")
    if count > _MAX_TUPLES:
        raise ValueError(f"probe count {count} exceeds cap {_MAX_TUPLES}")
    if nmax > EXACT_N_CAP:
        raise ValueError(f"exact upper index {nmax} exceeds cap {EXACT_N_CAP}")


def probe_thm31_random(
    count: int = 50, *, smax: int = 4, nmax: int = _PROBE_NMAX, seed: int = 1729
) -> SuiteReport:
    """Probe the four-exponent relation at random exponents and random
    upper indices n with n+1 composite (so n is never of the form p-1)."""
    check_probes(count, nmax)
    rng = random.Random(seed)
    composite_n = [n for n in range(4, nmax + 1) if not is_prime(n + 1)]
    failures: list[IdentityInstance] = []
    for _ in range(count):
        s = tuple(rng.randint(1, smax) for _ in range(4))
        n = rng.choice(composite_n)
        sides = thm31(*s)["thm31"]
        _run(PrefixTable.for_exact(n), lambda *_: {"thm31-general-n": sides}, [[s]], (n,), failures)
    return SuiteReport("thm31-general-n", count, tuple(failures))
