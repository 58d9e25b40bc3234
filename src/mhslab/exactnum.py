"""Exact arbitrary-precision arithmetic: rationals, residue rings Z/p^e, and
rational reconstruction.

Rationals are `fractions.Fraction` (always stored reduced, denominator
positive); their modular images live in Z/p^e for an odd prime p and
exponent e in {1, 2, 3}.  A Residue is only a value handed across the API
boundary; arithmetic happens on plain ints.  Inversion is pow(a, -1, m),
so a non-unit is detected exactly rather than silently mapped through a
Fermat power.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "MAX_PRIME",
    "NotAUnit",
    "DenominatorDivisibleByP",
    "mod_inverse_int",
    "is_prime",
    "primes_in_range",
    "Residue",
    "rational_to_residue",
    "rational_reconstruct",
    "crt_list",
]

# Largest prime accepted for O(p) work: mod-mode PrefixTable rows and the
# power sums behind bernoulli_mod hold p ints per row, so time and memory
# grow linearly with p: at the limit one such row takes about 400 MiB.
MAX_PRIME = 10_000_000


class NotAUnit(ArithmeticError):
    """Inversion was requested for a residue sharing a factor with the modulus."""


class DenominatorDivisibleByP(ArithmeticError):
    """A rational whose denominator the prime divides has no residue mod p^e."""


def mod_inverse_int(a: int, m: int) -> int:
    """Inverse of a modulo m in [0, m); raises NotAUnit if gcd(a, m) != 1."""
    try:
        return pow(a, -1, m)
    except ValueError:
        g = math.gcd(a, m)
        raise NotAUnit(f"{a} is not a unit modulo {m} (gcd {g})") from None


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for every n below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=1024)
def _is_odd_prime(n: int) -> bool:
    """Memoized ring check: bernoulli_mod builds a Residue for every
    right-side Bernoulli factor, at a handful of primes."""
    return n >= 3 and is_prime(n)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi (inclusive endpoints), by sieve."""
    if hi < 2 or hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, math.isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(sieve[q * q :: q]))
    lo = max(lo, 2)
    return [p for p in range(lo, hi + 1) if sieve[p]]


@dataclass(frozen=True, slots=True)
class Residue:
    """An element of Z/p^e for an odd prime p and exponent e in {1, 2, 3},
    as returned by the public evaluators: the value reduced into [0, p^e),
    validated on construction.  It has no arithmetic; int(r) gives the
    value to compute with.  Instances are immutable and hashable.
    """

    value: int
    prime: int
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent not in (1, 2, 3):
            raise ValueError(f"exponent must be 1, 2 or 3, got {self.exponent}")
        if not _is_odd_prime(self.prime):
            raise ValueError(f"modulus base must be an odd prime, got {self.prime}")
        object.__setattr__(self, "value", self.value % self.prime**self.exponent)

    @property
    def modulus(self) -> int:
        return self.prime**self.exponent

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return f"{self.value} (mod {self.modulus})"


def rational_to_residue(q: Fraction | int, p: int, e: int) -> Residue:
    """Reduce an exact rational into Z/p^e.

    Raises DenominatorDivisibleByP when the reduced denominator is divisible
    by p (the rational has a pole at p and no image in the ring).
    """
    q = Fraction(q)
    if q.denominator % p == 0:
        raise DenominatorDivisibleByP(f"denominator of {q} is divisible by {p}")
    m = p**e
    v = q.numerator % m * mod_inverse_int(q.denominator % m, m) % m
    return Residue(v, p, e)


def rational_reconstruct(r: int, m: int) -> Fraction | None:
    """Recover a small rational a/b from its residue r modulo m.

    Runs the half-extended Euclid descent, stopping at the first remainder
    not exceeding floor(sqrt(m/2)).  The candidate is accepted when
    gcd(a, b) = 1, gcd(b, m) = 1, a = r*b (mod m), and it is small: either
    2*|a|*b < m or both |a| and b are within the descent bound.  Returns
    None when no such pair exists.
    """
    if m <= 1:
        raise ValueError(f"modulus must exceed 1, got {m}")
    r %= m
    bound = math.isqrt(m // 2)
    r0, t0 = m, 0
    r1, t1 = r, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0:
        return None
    a, b = (r1, t1) if t1 > 0 else (-r1, -t1)
    if math.gcd(a, b) != 1 or math.gcd(b, m) != 1:
        return None
    if (a - r * b) % m != 0:
        return None
    if not (2 * abs(a) * b < m or (abs(a) <= bound and b <= bound)):
        return None
    return Fraction(a, b)


def crt_list(residues: list[int], moduli: list[int]) -> tuple[int, int]:
    """Combine residues over pairwise-coprime moduli; returns (x, prod).

    Raises NotAUnit when two moduli share a factor.
    """
    x, m = 0, 1
    for r, n in zip(residues, moduli, strict=True):
        t = (r - x) % n * mod_inverse_int(m % n, n) % n
        x += m * t
        m *= n
    return x % m, m
