"""Bernoulli numbers as exact rationals (B_1 = -1/2 convention) and as
residues mod p^e.

The cache holds even-index values only; B_n for odd n >= 3 is zero and
never stored.  They come from the tangent numbers T_k, read off Seidel's
boustrophedon triangle: each row is the running sums of the previous row
reversed, starting from 0, and row 2k-1 ends in T_k.  Then

    B_{2k} = (-1)^(k-1) * 2k * T_k / (4^k * (4^k - 1))

(Brent and Harvey, "Fast computation of Bernoulli, Tangent and Secant
numbers", 2011).  The triangle takes only integer additions, and one
Fraction is made per published value.  The cache keeps its last row, so
it extends from where it stopped.

Modular values never touch the exact cache.  Faulhaber's formula for the
prime power sum S_n(p) = sum_{a=1}^{p-1} a^n reads

    p*B_n = S_n - sum_{j>=1} C(n,j)/(j+1) * p^j * (p*B_{n-j}),

and every p*B_m is p-integral (von Staudt-Clausen), so the j-th term has
p-adic valuation at least j - v_p(j+1).  Mod p^(e+1) only the first few
terms survive, each needing p*B_{n-j} to lower precision; B_n mod p^e is
then p*B_n divided by p.  Each power sum pairs a with p - a, so it runs
over a <= (p-1)/2 only and holds (p+1)/2 powers.  That costs O(e*p) per
(index, prime), with no index cap.  von Staudt-Clausen pins down exactly
when B_n has no residue, (p-1) | n for even n > 0, and gives p*B_n mod p
without a power sum: -1 in that case, 0 otherwise.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .exactnum import DenominatorDivisibleByP, Residue, check_o_of_p, check_ring, is_prime

__all__ = [
    "IndexAboveCap",
    "PDividesDenominator",
    "BernoulliCache",
    "bernoulli_exact",
    "bernoulli_mod",
    "bernoulli_mod_int",
    "check_pole",
    "von_staudt_clausen_check",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 2000


class IndexAboveCap(ValueError):
    """A Bernoulli index beyond DEFAULT_CAP was requested."""


class PDividesDenominator(DenominatorDivisibleByP):
    """B_n has no residue mod p^e because p divides its denominator,
    which happens exactly when (p-1) | n for even n > 0."""


class BernoulliCache:
    """Append-only cache of B_0, B_2, B_4, ... up to DEFAULT_CAP.

    One writer at a time (guarded internally); concurrent reads of
    already-published entries are safe.
    """

    def __init__(self) -> None:
        self._even: list[Fraction] = [Fraction(1)]
        self._row = [1]  # row 2k of Seidel's triangle, k = len(self._even) - 1
        self._lock = threading.Lock()

    def warm(self, n: int) -> None:
        """Ensure every B_k for k <= n is computed."""
        if n > DEFAULT_CAP:
            raise IndexAboveCap(f"index {n} exceeds cache cap {DEFAULT_CAP}")
        top = n // 2
        if top < len(self._even):
            return
        with self._lock:
            row = self._row
            for k in range(len(self._even), top + 1):
                row = list(accumulate(reversed(row), initial=0))
                t = row[-1] if k % 2 else -row[-1]  # row 2k-1 ends in T_k
                row = list(accumulate(reversed(row), initial=0))
                b = Fraction(2 * k * t, 4**k * (4**k - 1))
                # Row and value back to back, so an interrupt cannot split them.
                self._row = row
                self._even.append(b)

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


def bernoulli_exact(n: int) -> Fraction:
    """Exact B_n; raises IndexAboveCap beyond DEFAULT_CAP (2000)."""
    return _CACHE.get(n)


def _power_sum(n: int, p: int, m: int) -> int:
    """sum_{a=1}^{p-1} a^n mod m, for m a power p^k of the odd prime p,
    from the terms a <= (p-1)/2 alone.

    The terms pair off as a and p - a, and by the binomial theorem
    (p-a)^n = (-1)^n sum_i C(n,i) (-p)^i a^(n-i), where only i <= d
    survive mod m: d is the largest i <= n with p^i != 0 mod m, so d < k.
    Hence

        S_n = sum_{a <= (p-1)/2} a^(n-d) sum_{i<=d} c_i C(n,i) (-p)^i a^(d-i)

    with c_0 = 1 + (-1)^n and c_i = (-1)^n for i >= 1.  A linear sieve
    makes a^(n-d) for every a <= (p-1)/2, reaching every composite from
    its least prime factor q as q^(n-d) * b^(n-d), so only primes pay for
    a modular power; the d + 1 sums over a then run in C.
    """
    sign = -1 if n % 2 else 1
    weights = []  # weights[i] = c_i C(n,i) (-p)^i mod m, i = 0..d
    for i in range(n + 1):
        if p**i % m == 0:
            break
        weights.append(((i == 0) + sign) * math.comb(n, i) * (-p) ** i % m)
    d = len(weights) - 1
    half = (p - 1) // 2
    powers = [0] * (half + 1)  # powers[a] = a^(n-d) mod m
    powers[1] = 1 % m
    primes: list[int] = []
    for a in range(2, half + 1):
        x = powers[a]
        if x == 0:  # a is prime: a^(n-d) is a unit mod m, so never 0
            x = powers[a] = pow(a, n - d, m)
            primes.append(a)
        for q in primes:
            if q * a > half:
                break
            powers[q * a] = powers[q] * x % m
            if a % q == 0:
                break
    # weights[d - t] multiplies sum_a a^(n-d) a^t, t = 0..d; each sum
    # streams its products, so no second list of (p+1)/2 cells is made.
    total = 0
    for t, w in enumerate(reversed(weights)):
        cells = powers
        for _ in range(t):
            cells = map(mul, cells, range(half + 1))
        total += w * sum(cells)
    return total % m


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
    if k == 1:
        # von Staudt-Clausen: p*B_n = -1 (mod p) when (p-1) | n, else 0.
        return p - 1 if n % (p - 1) == 0 else 0
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


def bernoulli_mod_int(n: int, p: int, e: int) -> int:
    """B_n mod p^e as an int in [0, p^e), for a ring Z/p^e the caller has
    validated (check_ring); bernoulli_mod is this with the checks and a
    Residue.  Raises PDividesDenominator where check_pole does and
    ValueError for n < 0 or p above MAX_PRIME.
    """
    if n < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {n}")
    check_pole(n, p)
    check_o_of_p(p)
    return _p_times_bernoulli(n, p, e + 1) // p


def bernoulli_mod(n: int, p: int, e: int) -> Residue:
    """B_n reduced into Z/p^e, for any index n >= 0 and any odd prime p
    up to MAX_PRIME (ValueError above it).

    Raises PDividesDenominator where check_pole does.
    """
    check_ring(p, e)
    return Residue(bernoulli_mod_int(n, p, e), p, e)


def von_staudt_clausen_check(n: int) -> bool:
    """True iff denominator(B_n) equals the product of primes q with (q-1) | n.

    Independent structural validation of the exact values; n must be even
    and >= 2.
    """
    if n < 2 or n % 2:
        raise ValueError(f"von Staudt-Clausen applies to even n >= 2, got {n}")
    denom = 1
    for d in range(1, n + 1):
        if n % d == 0 and is_prime(d + 1):
            denom *= d + 1
    return bernoulli_exact(n).denominator == denom
