"""Multiple harmonic sums H(s_1,...,s_k; n) and the weighted sums
sum_j H_j^(s1) H_j^(s3) / j^(s2) (optionally with a third harmonic factor),
exactly over the rationals and modulo p^e.

Everything is driven by one recurrence,

    H(s_1,...,s_k; m) = H(s_1,...,s_k; m-1) + m^(-s_k) H(s_1,...,s_{k-1}; m-1),

so a length-k sum over upper index n costs O(k n) ring operations rather
than a k-fold nested enumeration.  A PrefixTable caches the inverse powers
1/j^s (and their prefix sums) for one upper index as raw ints in both
modes: residues mod p^e, or in exact mode numerators over scale**w with
scale = lcm(1..n) and w the weight of the value.  Fraction and Residue
objects appear only at the public boundary.

Rows are built by one kernel for both modes: products and running sums
stream through itertools.accumulate and map(operator.mul, ...), reduced
mod p^e cell by cell as they are stored (exact mode stores them as they
are).  A single value, H(s_1..s_k; n) or a weighted sum at n, never builds
its last row: that level is one dot product and one reduction.  The
modular inverse row comes from the recurrence 1/j = -(m // j) / (m mod j)
mod m, one product per cell.  mhs_many() evaluates a batch of compositions
over their prefix trie, so a prefix shared by several sums is built once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import mod, mul
from typing import Iterable, Iterator, Sequence

from .compositions import Composition
from .exactnum import Residue, is_prime

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

    The single-value methods (mhs, mhs_many, weighted_sum2, weighted_sum3)
    take an optional upper index n <= self.n, so an exact table built for a
    large n also serves every smaller one.
    """

    __slots__ = ("n", "prime", "exponent", "modulus", "scale", "_ipow", "_hpref")

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

    # -- the kernel: one code path for both modes --------------------------

    def _reduced(self, values: Iterator[int]) -> Iterator[int]:
        """The values mod p^e, lazily; exact mode passes them through."""
        m = self.modulus
        return values if m is None else map(mod, values, repeat(m))

    def _reduce(self, value: int) -> int:
        m = self.modulus
        return value if m is None else value % m

    def _upto(self, n: int | None) -> int:
        if n is None:
            return self.n
        if not 0 <= n <= self.n:
            raise ValueError(f"upper index {n} is outside the table's range 0..{self.n}")
        return n

    def _terms(self, prev: Sequence | None, s: int, n: int) -> Iterator[int]:
        """j -> j^(-s) H(P; j-1) for j = 1..n, where prev is the row of the
        prefix P over 0..n (None for the empty prefix, whose row is all 1)."""
        head = islice(self.inv_powers(s), 1, n + 1)
        return head if prev is None else map(mul, head, prev)

    def _extend(self, prev: Sequence | None, s: int, n: int) -> list:
        """The row m -> H(P, s; m), m = 0..n, from the row of P."""
        return [0, *self._reduced(accumulate(self._terms(prev, s, n)))]

    def _dot(self, prev: Sequence | None, s: int, n: int) -> int:
        """H(P, s; n) alone: the last level as one sum, no row built."""
        return self._reduce(sum(self._terms(prev, s, n)))

    def _wsum_terms(self, s2: int, factors: tuple[int, ...], n: int) -> Iterator[int]:
        """j -> j^(-s2) prod_s H_j^(s) over the factors, j = 0..n, unreduced."""
        terms = islice(self.inv_powers(s2), n + 1)
        for s in factors:
            terms = map(mul, terms, self.harmonic_prefix(s))
        return terms

    # -- rows ----------------------------------------------------------------

    def _inverses(self) -> list[int]:
        """1/j mod m for j = 1..n (index 0 holds a zero), m = p^e, by the
        recurrence 1/j = -(m // j) * 1/(m mod j).  It needs j < p: then j
        does not divide m, so m mod j is a smaller nonzero index."""
        m = self.modulus
        assert m is not None
        inv = [0, 1]
        push = inv.append
        for j in range(2, self.n + 1):
            push((m - m // j) * inv[m % j] % m)
        return inv

    def inv_powers(self, s: int) -> Sequence:
        """The row j -> j^(-s), j = 1..n (index 0 holds a zero)."""
        if s < 1:
            raise ValueError(f"exponent must be >= 1, got {s}")
        row = self._ipow.get(s)
        if row is None:
            if self.modulus is None:
                scale = self.scale
                row = [0] + [(scale // j) ** s for j in range(1, self.n + 1)]
            elif s == 1:
                row = self._inverses()
            else:
                row = list(map(pow, self.inv_powers(1), repeat(s), repeat(self.modulus)))
            self._ipow[s] = row
        return row

    def harmonic_prefix(self, s: int) -> Sequence:
        """The row j -> H_j^(s), j = 0..n."""
        row = self._hpref.get(s)
        if row is None:
            row = self._hpref[s] = self._extend(None, s, self.n)
        return row

    def mhs_all(self, parts: Iterable[int]) -> list:
        """H(parts; m) for every m = 0..n, by the recurrence."""
        row = None
        for s in Composition(parts):
            row = self._extend(row, s, self.n)
        return [1] * (self.n + 1) if row is None else row

    def weighted_sum2_all(self, s1: int, s2: int, s3: int) -> list:
        """sum_{j<=m} H_j^(s1) H_j^(s3) / j^(s2) for every m = 0..n."""
        terms = self._wsum_terms(s2, (s1, s3), self.n)
        return list(self._reduced(accumulate(terms)))

    def weighted_sum3_all(self, s1: int, s2: int, s3: int, s4: int) -> list:
        """As weighted_sum2_all with a third harmonic factor H_j^(s4)."""
        terms = self._wsum_terms(s2, (s1, s3, s4), self.n)
        return list(self._reduced(accumulate(terms)))

    # -- single values -------------------------------------------------------

    def mhs_many(
        self, compositions: Iterable[Iterable[int]], n: int | None = None
    ) -> dict[Composition, int]:
        """H(c; n) as a raw int for every composition c, keyed by c as a
        tuple; the empty composition gives 1.

        The compositions are walked depth first as a trie of prefixes.  The
        row of a prefix is built once and feeds every extension of it, and
        it is dropped as soon as its last child has been built; a leaf is
        one dot product and builds no row.  A chain of prefixes thus never
        holds more than two rows at once.
        """
        n = self._upto(n)
        wanted = dict.fromkeys(map(Composition, compositions))
        trie: dict = {}
        for comp in wanted:
            node = trie
            for s in comp:
                node = node.setdefault(s, {})
        out: dict[Composition, int] = {Composition(): 1} if () in wanted else {}
        # Each entry: a prefix, its row (None for the empty prefix) and the
        # children not yet built.  The entry leaves the stack as its last
        # child is taken, so that child's row replaces it.
        stack = [(Composition(), None, list(trie.items()))] if trie else []
        while stack:
            prefix, row, children = stack[-1]
            s, grandchildren = children.pop()
            if not children:
                stack.pop()
            comp = Composition((*prefix, s))
            if not grandchildren:
                out[comp] = self._dot(row, s, n)
                continue
            child = self._extend(row, s, n)
            if comp in wanted:
                out[comp] = child[n]
            stack.append((comp, child, list(grandchildren.items())))
        return out

    def mhs(self, parts: Iterable[int], n: int | None = None) -> int:
        """H(parts; n) as a raw int: the numerator over scale**weight in
        exact mode, the residue in mod mode.  n defaults to the table's."""
        parts = Composition(parts)
        return self.mhs_many((parts,), n)[parts]

    def weighted_sum2(self, s1: int, s2: int, s3: int, n: int | None = None) -> int:
        """sum_{j<=n} H_j^(s1) H_j^(s3) / j^(s2) as a raw int."""
        return self._reduce(sum(self._wsum_terms(s2, (s1, s3), self._upto(n))))

    def weighted_sum3(self, s1: int, s2: int, s3: int, s4: int, n: int | None = None) -> int:
        """As weighted_sum2 with a third harmonic factor H_j^(s4)."""
        return self._reduce(sum(self._wsum_terms(s2, (s1, s3, s4), self._upto(n))))


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
    return t.to_fraction(t.mhs(parts, n), parts.weight)


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
        return t.to_fraction(t.weighted_sum2(s1, s2, s3, n), s1 + s2 + s3)
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
        return t.to_fraction(t.weighted_sum3(s1, s2, s3, s4, n), s1 + s2 + s3 + s4)
    t = _mod_table(p, e, table)
    return Residue(t.weighted_sum3(s1, s2, s3, s4), p, e)
