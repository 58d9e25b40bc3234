"""Exact arbitrary-precision arithmetic: rationals, residue rings Z/p^e, and
rational reconstruction.

Rationals are `fractions.Fraction` (always stored reduced, denominator
positive); their modular images live in Z/p^e for an odd prime p and
exponent e in EXPONENTS.  Which rings the package accepts, and how large
a prime O(p) work takes, are stated here once: check_ring, check_o_of_p.
A Residue is only a value handed across the API boundary; arithmetic
happens on plain ints.  Inversion is pow(a, -1, m), so a non-unit is
detected exactly rather than silently mapped through a Fermat power.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "EXPONENTS",
    "MAX_PRIME",
    "NotAUnit",
    "DenominatorDivisibleByP",
    "mod_inverse_int",
    "is_prime",
    "is_odd_prime",
    "check_ring",
    "check_o_of_p",
    "primes_in_range",
    "Residue",
    "rational_to_residue",
    "rational_reconstruct",
    "crt_list",
]

EXPONENTS = (1, 2, 3)  # the e of every ring Z/p^e the package computes in

# Largest prime accepted for O(p) work, whose time grows linearly with p.
# So does memory, more slowly: a mod-mode PrefixTable keeps one whole row
# for its single values, the p inverses mod p^e (about 80 MiB at the limit
# as int64, 340-380 MiB as Python ints), and a power sum behind
# bernoulli_mod holds (p+1)/2 ints.
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


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the smallest strong pseudoprime to all of _MR_BASES (Sorenson and
# Webster 2017): below it the bases decide primality exactly.
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below
    3317044064679887385961981; ValueError at or above it, where these
    bases cannot certify primality."""
    if n < 2:
        return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"cannot certify primality of {n}: at or above {_MR_EXACT_BELOW}")
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
def is_odd_prime(n: int) -> bool:
    """n >= 3 and is_prime(n), memoized: a scan asks about the same few
    primes for every table, Bernoulli residue and Residue it builds."""
    return n >= 3 and is_prime(n)


def check_ring(p: int, e: int) -> None:
    """Raise ValueError unless Z/p^e is a ring the package computes in:
    e in EXPONENTS and p an odd prime certified by is_prime."""
    if e not in EXPONENTS:
        raise ValueError(f"exponent must be 1, 2 or 3, got {e}")
    if not is_odd_prime(p):
        raise ValueError(f"modulus base must be an odd prime, got {p}")


def check_o_of_p(p: int) -> None:
    """Raise ValueError when p is too large for work linear in p."""
    if p > MAX_PRIME:
        raise ValueError(f"prime {p} exceeds the limit {MAX_PRIME} for O(p) work")


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


class _ResidueFields(NamedTuple):
    value: int
    prime: int
    exponent: int


class Residue(_ResidueFields):
    """An element of Z/p^e, as returned by the public evaluators: the value
    reduced into [0, p^e), the ring validated by check_ring on
    construction.  It has no arithmetic; int(r) gives the value to
    compute with.  It is a NamedTuple, so immutable, hashable and equal to
    the plain tuple (value, prime, exponent); construction, pickling and
    _replace all go through __new__, which validates and reduces.
    """

    __slots__ = ()

    def __new__(cls, value: int, prime: int, exponent: int) -> Residue:
        check_ring(prime, exponent)
        return super().__new__(cls, value % prime**exponent, prime, exponent)

    @classmethod
    def _make(cls, iterable) -> Residue:
        return cls(*iterable)

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
