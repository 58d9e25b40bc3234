"""Bernoulli numbers as exact rationals (B_1 = -1/2 convention) and as
residues mod p^e.

The cache holds even-index values only; B_n for odd n >= 3 is zero and
never stored.  Values come from the defining recurrence

    sum_{j=0}^{m} C(m+1, j) B_j = 0        (m >= 1),

solved for the top index, restricted to even j since the odd entries drop
out.

Modular values never touch the exact cache.  Faulhaber's formula for the
prime power sum S_n(p) = sum_{a=1}^{p-1} a^n reads

    p*B_n = S_n - sum_{j>=1} C(n,j)/(j+1) * p^j * (p*B_{n-j}),

and every p*B_m is p-integral (von Staudt-Clausen), so the j-th term has
p-adic valuation at least j - v_p(j+1).  Mod p^(e+1) only the first few
terms survive, each needing p*B_{n-j} to lower precision; B_n mod p^e is
then p*B_n divided by p.  That costs O(e*p) per (index, prime), with no
index cap.  von Staudt-Clausen also pins down exactly when B_n has no
residue: (p-1) | n for even n > 0.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction

from .exactnum import MAX_PRIME, DenominatorDivisibleByP, Residue, is_prime

__all__ = [
    "IndexAboveCap",
    "PDividesDenominator",
    "BernoulliCache",
    "bernoulli_exact",
    "bernoulli_mod",
    "check_pole",
    "von_staudt_clausen_check",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 2000


class IndexAboveCap(ValueError):
    """A Bernoulli index beyond the configured cache cap was requested."""


class PDividesDenominator(DenominatorDivisibleByP):
    """B_n has no residue mod p^e because p divides its denominator,
    which happens exactly when (p-1) | n for even n > 0."""


class BernoulliCache:
    """Append-only cache of B_0, B_2, B_4, ... up to a fixed cap.

    One writer at a time (guarded internally); concurrent reads of
    already-published entries are safe.
    """

    def __init__(self, cap: int = DEFAULT_CAP) -> None:
        self.cap = cap
        self._even: list[Fraction] = [Fraction(1)]
        self._lock = threading.Lock()

    def warm(self, n: int) -> None:
        """Ensure every B_k for k <= n is computed."""
        if n > self.cap:
            raise IndexAboveCap(f"index {n} exceeds cache cap {self.cap}")
        top = n // 2
        if top < len(self._even):
            return
        with self._lock:
            for m in range(len(self._even), top + 1):
                # B_{2m} = -[1 - (2m+1)/2 + sum_{j=1}^{m-1} C(2m+1,2j) B_{2j}]
                #          / (2m+1)
                acc = 1 - Fraction(2 * m + 1, 2)
                for j in range(1, m):
                    acc += math.comb(2 * m + 1, 2 * j) * self._even[j]
                self._even.append(-acc / (2 * m + 1))

    def get(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {n}")
        if n == 1:
            return Fraction(-1, 2)
        if n % 2:
            return Fraction(0)
        self.warm(n)
        return self._even[n // 2]


_CACHE = BernoulliCache()


def bernoulli_exact(n: int, cache: BernoulliCache | None = None) -> Fraction:
    """Exact B_n; raises IndexAboveCap beyond the cache cap (default 2000)."""
    return (cache or _CACHE).get(n)


def _power_sum(n: int, p: int, m: int) -> int:
    """sum_{a=1}^{p-1} a^n mod m, with a^n = q^n * b^n for a = q*b.

    A linear sieve reaches every composite a < p once from its least
    prime factor q, so only primes pay for a modular power.
    """
    powers = [0] * p
    powers[1] = 1 % m
    primes: list[int] = []
    for a in range(2, p):
        x = powers[a]
        if x == 0:  # a is prime: a^n is a unit mod m, so never 0
            x = powers[a] = pow(a, n, m)
            primes.append(a)
        for q in primes:
            if q * a >= p:
                break
            powers[q * a] = powers[q] * x % m
            if a % q == 0:
                break
    return sum(powers) % m


@functools.lru_cache(maxsize=4096)
def _p_times_bernoulli(n: int, p: int, k: int) -> int:
    """p*B_n mod p^k, from the power sum S_n(p) and Faulhaber's formula."""
    m = p**k
    if n == 0:
        return p % m
    if n == 1:
        return -p * ((m + 1) // 2) % m  # p * (-1/2); m is odd
    if n % 2:
        return 0
    acc = _power_sum(n, p, m)
    # j - v_p(j+1) >= j - log_3(j+1) >= k once j > 2k: later terms vanish.
    for j in range(1, min(n, 2 * k) + 1):
        t, unit = 0, j + 1
        while unit % p == 0:
            t, unit = t + 1, unit // p
        shift = j - t
        if shift >= k:
            continue
        coef = math.comb(n, j) * p**shift * pow(unit, -1, m)
        acc -= coef * _p_times_bernoulli(n - j, p, k - shift)
    return acc % m


def check_pole(n: int, p: int) -> None:
    """Raise PDividesDenominator when p divides the denominator of B_n:
    by von Staudt-Clausen, exactly when (p-1) | n for even n > 0."""
    if n > 0 and n % 2 == 0 and n % (p - 1) == 0:
        raise PDividesDenominator(f"p = {p} divides the denominator of B_{n}")


def bernoulli_mod(n: int, p: int, e: int) -> Residue:
    """B_n reduced into Z/p^e, for any index n >= 0 and any odd prime p
    up to MAX_PRIME (ValueError above it).

    Raises PDividesDenominator where check_pole does.
    """
    if n < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {n}")
    Residue(0, p, e)  # validate the ring before anything else
    check_pole(n, p)
    if p > MAX_PRIME:
        raise ValueError(f"prime {p} exceeds the limit {MAX_PRIME} for O(p) work")
    return Residue(_p_times_bernoulli(n, p, e + 1) // p, p, e)


def von_staudt_clausen_check(n: int, cache: BernoulliCache | None = None) -> bool:
    """True iff denominator(B_n) equals the product of primes q with (q-1) | n.

    Independent structural validation of the recurrence output; n must be
    even and >= 2.
    """
    if n < 2 or n % 2:
        raise ValueError(f"von Staudt-Clausen applies to even n >= 2, got {n}")
    denom = 1
    for d in range(1, n + 1):
        if n % d == 0 and is_prime(d + 1):
            denom *= d + 1
    return bernoulli_exact(n, cache).denominator == denom
