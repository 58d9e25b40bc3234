"""Multiple harmonic sums H(s_1,...,s_k; n) and the weighted sums
sum_j H_j^(s1) H_j^(s3) / j^(s2) (optionally with a third harmonic factor),
exactly over the rationals and modulo p^e.

Everything is driven by one recurrence,

    H(s_1,...,s_k; m) = H(s_1,...,s_k; m-1) + m^(-s_k) H(s_1,...,s_{k-1}; m-1),

so a length-k sum over upper index n costs O(k n) ring operations rather
than a k-fold nested enumeration.  A PrefixTable caches the inverse powers
1/j^s (and their prefix sums) for one upper index as raw ints in both
modes: residues mod p^e, or in exact mode numerators over scale**w with
scale = lcm(1..n) and w the weight of the value.  The modular tables are
built with batched inversion, one extended Euclid for the whole row; the
exact rows never build a Fraction or take a gcd.  Fraction and Residue
objects appear only at the public boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .compositions import Composition
from .exactnum import Residue, is_prime, mod_inverse_int

__all__ = [
    "EXACT_N_CAP",
    "PrefixTable",
    "mhs_exact",
    "mhs_mod",
    "weighted_sum2",
    "weighted_sum3",
]

# Exact-mode upper-index cap: rational bit-length grows superlinearly in n.
EXACT_N_CAP = 10_000


class PrefixTable:
    """Inverse-power and harmonic-prefix caches for upper indices 0..n.

    Every row is a list of raw ints indexed by j = 0..n.  Mod mode stores
    residues in [0, p^e) with n fixed to p-1, where every j <= n is a unit.
    Exact mode (modulus None) stores numerators over scale**w, where
    scale = lcm(1..n) and w is the row's weight: s for inv_powers(s) and
    harmonic_prefix(s), the composition's weight for mhs_all, and the sum
    of the exponents for the weighted sums.  Values of one weight share a
    denominator, so they add and compare as ints, and a product of rows has
    the sum of their weights.  to_fraction() turns one cell into its value.
    Mod mode sets scale to 1.
    """

    __slots__ = ("n", "prime", "exponent", "modulus", "scale", "_inv", "_ipow", "_hpref")

    def __init__(self, n: int, *, prime: int | None = None, exponent: int = 1) -> None:
        if prime is None:
            if n < 0:
                raise ValueError(f"upper index must be >= 0, got {n}")
            self.modulus = None
            self.scale = math.lcm(*range(1, n + 1))
        else:
            if prime < 3 or not is_prime(prime):
                raise ValueError(f"modulus base must be an odd prime, got {prime}")
            if exponent not in (1, 2, 3):
                raise ValueError(f"exponent must be 1, 2 or 3, got {exponent}")
            if n != prime - 1:
                raise ValueError("mod-mode tables are built at upper index p-1")
            self.modulus = prime**exponent
            self.scale = 1
        self.n = n
        self.prime = prime
        self.exponent = exponent
        self._inv: list[int] | None = None
        self._ipow: dict[int, Sequence] = {}
        self._hpref: dict[int, Sequence] = {}

    @classmethod
    def for_exact(cls, n: int) -> "PrefixTable":
        return cls(n)

    @classmethod
    def for_prime(cls, p: int, e: int = 1) -> "PrefixTable":
        return cls(p - 1, prime=p, exponent=e)

    def to_fraction(self, num: int, w: int) -> Fraction:
        """The exact value of one weight-w cell: num / scale**w."""
        return Fraction(num, self.scale**w)

    def _inverses(self) -> list[int]:
        """1/j mod p^e for j = 1..n, by one inversion plus O(n) products."""
        if self._inv is None:
            m = self.modulus
            assert m is not None
            pref = [1] * (self.n + 1)
            for j in range(2, self.n + 1):
                pref[j] = pref[j - 1] * j % m
            inv = [0] * (self.n + 1)
            run = mod_inverse_int(pref[self.n], m)
            for j in range(self.n, 0, -1):
                inv[j] = run * pref[j - 1] % m
                run = run * j % m
            self._inv = inv
        return self._inv

    def inv_powers(self, s: int) -> Sequence:
        """The row j -> j^(-s), j = 1..n (index 0 holds a zero)."""
        if s < 1:
            raise ValueError(f"exponent must be >= 1, got {s}")
        row = self._ipow.get(s)
        if row is None:
            if self.modulus is None:
                scale = self.scale
                row = [0] + [(scale // j) ** s for j in range(1, self.n + 1)]
            else:
                m = self.modulus
                row = [0] + [pow(v, s, m) for v in self._inverses()[1:]]
            self._ipow[s] = row
        return row

    def harmonic_prefix(self, s: int) -> Sequence:
        """The row j -> H_j^(s), j = 0..n."""
        row = self._hpref.get(s)
        if row is None:
            ip = self.inv_powers(s)
            m = self.modulus
            acc = 0
            if m is None:
                row = [acc := acc + ip[j] for j in range(self.n + 1)]
            else:
                row = [acc := (acc + ip[j]) % m for j in range(self.n + 1)]
            self._hpref[s] = row
        return row

    def mhs_all(self, parts: Iterable[int]) -> list:
        """H(parts; m) for every m = 0..n, by the recurrence."""
        parts = tuple(Composition(parts))
        m = self.modulus
        cur = [1] * (self.n + 1)
        for i, s in enumerate(parts, 1):
            ip = self.inv_powers(s)
            new = [0] * (self.n + 1)
            acc = 0
            if m is None:
                for j in range(i, self.n + 1):
                    acc += ip[j] * cur[j - 1]
                    new[j] = acc
            else:
                for j in range(i, self.n + 1):
                    acc = (acc + ip[j] * cur[j - 1]) % m
                    new[j] = acc
            cur = new
        return cur

    def mhs(self, parts: Iterable[int]) -> int:
        """H(parts; n) as a raw int: the numerator over scale**weight in
        exact mode, the residue in mod mode."""
        return self.mhs_all(parts)[self.n]

    def weighted_sum2_all(self, s1: int, s2: int, s3: int) -> list:
        """sum_{j<=m} H_j^(s1) H_j^(s3) / j^(s2) for every m = 0..n."""
        h1 = self.harmonic_prefix(s1)
        h3 = self.harmonic_prefix(s3)
        ip = self.inv_powers(s2)
        m = self.modulus
        acc = 0
        if m is not None:
            return [acc := (acc + h1[j] * h3[j] % m * ip[j]) % m for j in range(self.n + 1)]
        return [acc := acc + h1[j] * h3[j] * ip[j] for j in range(self.n + 1)]

    def weighted_sum3_all(self, s1: int, s2: int, s3: int, s4: int) -> list:
        """As weighted_sum2_all with a third harmonic factor H_j^(s4)."""
        h1 = self.harmonic_prefix(s1)
        h3 = self.harmonic_prefix(s3)
        h4 = self.harmonic_prefix(s4)
        ip = self.inv_powers(s2)
        m = self.modulus
        acc = 0
        if m is not None:
            return [
                acc := (acc + h1[j] * h3[j] % m * h4[j] % m * ip[j]) % m
                for j in range(self.n + 1)
            ]
        return [acc := acc + h1[j] * h3[j] * h4[j] * ip[j] for j in range(self.n + 1)]

    def weighted_sum2(self, s1: int, s2: int, s3: int):
        return self.weighted_sum2_all(s1, s2, s3)[self.n]

    def weighted_sum3(self, s1: int, s2: int, s3: int, s4: int):
        return self.weighted_sum3_all(s1, s2, s3, s4)[self.n]


def _exact_table(n: int, table: PrefixTable | None, cap: int) -> PrefixTable:
    if n > cap:
        raise ValueError(f"exact upper index {n} exceeds cap {cap}")
    if table is None:
        return PrefixTable.for_exact(n)
    if table.modulus is not None or table.n < n:
        raise ValueError("table must be an exact-mode PrefixTable covering n")
    return table


def _mod_table(p: int, e: int, table: PrefixTable | None) -> PrefixTable:
    if table is None:
        return PrefixTable.for_prime(p, e)
    if table.prime != p or table.exponent != e:
        raise ValueError(f"table is mod {table.prime}^{table.exponent}, not {p}^{e}")
    return table


def mhs_exact(
    parts: Iterable[int], n: int, *, table: PrefixTable | None = None, cap: int = EXACT_N_CAP
) -> Fraction:
    """H(parts; n) as an exact Fraction.

    Conventions: H(parts; r) = 0 for r < len(parts), and the empty
    composition evaluates to 1 for every n.
    """
    parts = Composition(parts)
    t = _exact_table(n, table, cap)
    return t.to_fraction(t.mhs_all(parts)[n], parts.weight)


def mhs_mod(
    parts: Iterable[int], p: int, e: int = 1, *, table: PrefixTable | None = None
) -> Residue:
    """H(parts; p-1) as a Residue mod p^e."""
    t = _mod_table(p, e, table)
    return Residue(t.mhs(parts), p, e)


def weighted_sum2(
    s1: int,
    s2: int,
    s3: int,
    n: int | None = None,
    *,
    p: int | None = None,
    e: int = 1,
    table: PrefixTable | None = None,
    cap: int = EXACT_N_CAP,
):
    """sum_{j=1}^{n} H_j^(s1) H_j^(s3) / j^(s2).

    Exact mode (give n): returns a Fraction.  Mod mode (give p and e):
    the sum runs to p-1 and a Residue comes back.
    """
    if (n is None) == (p is None):
        raise ValueError("give exactly one of n (exact mode) or p (mod mode)")
    if p is None:
        assert n is not None
        t = _exact_table(n, table, cap)
        return t.to_fraction(t.weighted_sum2_all(s1, s2, s3)[n], s1 + s2 + s3)
    t = _mod_table(p, e, table)
    return Residue(t.weighted_sum2(s1, s2, s3), p, e)


def weighted_sum3(
    s1: int,
    s2: int,
    s3: int,
    s4: int,
    n: int | None = None,
    *,
    p: int | None = None,
    e: int = 1,
    table: PrefixTable | None = None,
    cap: int = EXACT_N_CAP,
):
    """sum_{j=1}^{n} H_j^(s1) H_j^(s3) H_j^(s4) / j^(s2), as weighted_sum2."""
    if (n is None) == (p is None):
        raise ValueError("give exactly one of n (exact mode) or p (mod mode)")
    if p is None:
        assert n is not None
        t = _exact_table(n, table, cap)
        return t.to_fraction(t.weighted_sum3_all(s1, s2, s3, s4)[n], s1 + s2 + s3 + s4)
    t = _mod_table(p, e, table)
    return Residue(t.weighted_sum3(s1, s2, s3, s4), p, e)
