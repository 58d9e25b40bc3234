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

Rows are built by one of two kernels, picked once per table.  The Python
kernel streams products and running sums through itertools.accumulate and
map(operator.mul, ...), reduced mod p^e cell by cell as they are stored
(exact mode stores them as they are); its modular inverse row comes from
the recurrence 1/j = -(m // j) / (m mod j) mod m, one product per cell.
A mod-mode table with m = p^e < 2^40 and n >= _NUMPY_MIN_N uses
the numpy kernel instead when numpy can be imported: int64 arrays, every
product reduced before the next operation (with 20-bit split factors
above 2^31), so its cells are the same residues; see _kernel for the
bounds.  numpy is imported the
first time a table picks that kernel, never at package import.  A single
value, H(s_1..s_k; n) or a weighted sum at n, never builds its last row:
that level is one dot product and one reduction.  mhs_many() evaluates a
batch of compositions over their prefix trie, so a prefix shared by
several sums is built once.

Inside a table the rows stay in the kernel's form (int64 arrays on the
numpy kernel) from build to the last dot product.  A row becomes a list of
Python ints only when a public row method (inv_powers, harmonic_prefix,
mhs_all, weighted_sum2_all, weighted_sum3_all) hands it to a caller, and
that list is always the caller's own: a cached row is copied, never lent.

The table methods return raw ints and are what a caller shares to evaluate
many sums at one upper index or prime.  The functions mhs_exact, mhs_mod,
weighted_sum2 and weighted_sum3 build a table for one value and hand it
across the boundary as a Fraction (exact mode) or a Residue (mod mode),
the only Residue this module builds.  Which rings Z/p^e a table accepts
is exactnum's rule (check_ring, check_o_of_p).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, islice, repeat
from operator import methodcaller, mod, mul
from typing import Callable, Iterable, Iterator, Sequence

from .compositions import Composition
from .exactnum import Residue, check_o_of_p, check_ring

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

# Smallest upper index n = p-1 at which a mod-mode table takes the numpy
# kernel.  Importing numpy costs about 0.14 s and 13 MiB of RSS once per
# process, and only tables this large earn it back.  Measured per table
# (constructor, the seven H({s}^l) sums of homog-vanishing-modp, which build
# the inverse row, and weighted_sum2(2,2,2); medians of 15; 2 CPUs, Python
# 3.11, numpy 2.4, numpy already imported), Python -> numpy kernel, e = 1
# and 2:
#     n = 1000: 2.2-2.7 -> 0.5 ms     n = 8000:  17-20 -> 2.0-2.1 ms
#     n = 2000: 4.6-4.9 -> 0.7 ms     n = 16000: 39-43 -> 3.5-3.8 ms
#     n = 4000: 8.2-10 -> 1.0-1.2 ms
# From n = 4000 on a table saves at least 7 ms, so some 20 tables (one
# check over 20 primes, or a few checks at a handful of primes) repay the
# import; at n = 1000 it would take 80.  A run that builds a single table
# of this size pays more for the import than it saves.
_NUMPY_MIN_N = 4000


class _PythonKernel:
    """Rows as lists of Python ints, modulo m (exact mode: m is None).

    Products stream through map(operator.mul, ...) unreduced and running
    sums through itertools.accumulate; a cell is reduced mod m as it is
    stored.  This kernel serves every exact table, every small table and
    every machine without numpy, and it is the reference the numpy kernel
    is tested against.
    """

    __slots__ = ("m",)

    def __init__(self, m: int | None) -> None:
        self.m = m

    def _reduced(self, values: Iterator[int]) -> Iterator[int]:
        m = self.m
        return values if m is None else map(mod, values, repeat(m))

    def inverses(self, p: int, e: int) -> list[int]:
        """1/j mod m for j = 1..p-1 (index 0 holds a zero), m = p^e, by the
        recurrence 1/j = -(m // j) * 1/(m mod j).  It needs j < p: then j
        does not divide m, so m mod j is a smaller nonzero index."""
        m = self.m
        inv = [0, 1]
        push = inv.append
        for j in range(2, p):
            push((m - m // j) * inv[m % j] % m)
        return inv

    def power(self, row: list[int], s: int) -> list[int]:
        return list(map(pow, row, repeat(s), repeat(self.m)))

    def terms(self, row: list[int], prev: Sequence | None) -> Iterator[int]:
        """j -> row[j] * prev[j-1] for j = 1..n (prev None: all ones)."""
        head = islice(row, 1, None)
        return head if prev is None else map(mul, head, prev)

    def times(self, terms: Iterable[int], row: list[int]) -> Iterator[int]:
        """j -> terms[j] * row[j], cell by cell."""
        return map(mul, terms, row)

    def prefix(self, terms: Iterator[int]) -> list[int]:
        """The row of running sums over j = 0..n of terms over j = 1..n."""
        return [0, *self._reduced(accumulate(terms))]

    def running(self, terms: Iterator[int]) -> list[int]:
        """The row of running sums of terms over j = 0..n."""
        return list(self._reduced(accumulate(terms)))

    def total(self, terms: Iterable[int]) -> int:
        total = sum(terms)
        return total if self.m is None else total % self.m

    def tolist(self, row: list[int]) -> list[int]:
        """A fresh copy of the row, so that a caller who edits it cannot
        change a row the table caches."""
        return list(row)


class _NumpyKernel:
    """Rows as int64 arrays of residues mod m, for m < 2^40 and n * m < 2^63.

    Every cell is reduced before the next operation, so the arithmetic is
    exact: for m < 2^31 a product of two residues is below 2^62; above, the
    second factor is split into 20-bit halves (see _mul).  A running sum of
    n reduced cells stays below n * m.  The rows hold the same residues as
    the Python kernel's, which the tests check cell for cell.
    """

    __slots__ = ("np", "m")

    def __init__(self, np, m: int) -> None:
        self.np = np
        self.m = m

    def _mul(self, a, b):
        """a * b mod m, cell by cell, for residues a and b."""
        m = self.m
        if m < 1 << 31:
            return a * b % m  # a * b < 2^62
        # a * b_hi < 2^60, (a * b_hi mod m) << 20 < 2^60 and a * b_lo < 2^60,
        # so the sum stays below 2^61.
        high = a * (b >> 20) % m
        return ((high << 20) + a * (b & 0xFFFFF)) % m

    def inverses(self, p: int, e: int):
        """1/j mod p^e for j = 1..p-1 (index 0 holds a zero).

        The powers g^k of a primitive root g list every unit mod p once, and
        the inverse of g^k is g^(p-1-k).  They are laid out as a square
        grid of products g^(side*i) * g^c with side about sqrt(p), so only
        O(sqrt p) steps run in Python.  Newton's step x -> x(2 - jx)
        doubles the precision of the inverses, from mod p to mod p^2
        (e = 2) and once more to mod p^4 (e = 3).
        """
        np = self.np
        n = p - 1
        g = _primitive_root(p)
        side = math.isqrt(n) + 1
        rows = np.array([pow(g, side * i, p) for i in range(side)], dtype=np.int64)
        cols = np.array([pow(g, c, p) for c in range(side)], dtype=np.int64)
        powers = (rows[:, None] * cols % p).ravel()[:n]  # powers[k] = g^k
        inv = np.zeros(p, dtype=np.int64)
        inv[powers] = np.roll(powers[::-1], 1)  # g^k -> g^(-k mod p-1)
        for _ in range((e - 1).bit_length()):
            jx = self._mul(np.arange(p, dtype=np.int64), inv)
            inv = self._mul(inv, (2 - jx) % self.m)
        return inv

    def power(self, row, s: int):
        """The cells of row to the power s, by square and multiply."""
        result = None
        while True:
            if s & 1:
                result = row if result is None else self._mul(result, row)
            s >>= 1
            if not s:
                return result
            row = self._mul(row, row)

    def terms(self, row, prev):
        head = row[1:]
        return head if prev is None else self._mul(head, prev[:-1])

    def times(self, terms, row):
        return self._mul(terms, row)

    def prefix(self, terms):
        out = self.np.zeros(len(terms) + 1, dtype=self.np.int64)
        self.np.cumsum(terms, out=out[1:])
        out %= self.m
        return out

    def running(self, terms):
        out = self.np.cumsum(terms)
        out %= self.m
        return out

    def total(self, terms) -> int:
        return int(terms.sum()) % self.m

    def tolist(self, row) -> list[int]:
        """The row as a fresh list of Python ints, never numpy.int64."""
        return row.tolist()


def _primitive_root(p: int) -> int:
    """The least generator of the units mod the odd prime p."""
    n = rest = p - 1
    factors = []
    q = 2
    while q * q <= rest:
        if rest % q == 0:
            factors.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        factors.append(rest)
    return next(g for g in count(2) if all(pow(g, n // q, p) != 1 for q in factors))


@lru_cache(maxsize=None)
def _numpy():
    """The numpy module, imported on first use; None where it is missing."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def _kernel(n: int, m: int | None):
    """The row kernel of a table at upper index n, modulo m (None: exact).

    The numpy kernel is exact while a reduced product fits int64 and a
    running sum of n reduced cells does too: m < 2^40 (with the split
    multiply above 2^31) and n * m < 2^63.  With n = p - 1 and m = p^e,
    n * m < p^(e+1): below 10^14 for e = 1 (p <= MAX_PRIME), and below
    2^60 and 2^54 for e = 2 and 3 (m < 2^40), so the second bound follows;
    both are checked here all the same.  Tables with n < _NUMPY_MIN_N keep
    the Python kernel, so a run that builds no larger one never imports
    numpy.
    """
    if m is not None and n >= _NUMPY_MIN_N and m < 1 << 40 and n * m < 1 << 63:
        np = _numpy()
        if np is not None:
            return _NumpyKernel(np, m)
    return _PythonKernel(m)


class PrefixTable:
    """Inverse-power and harmonic-prefix caches for upper indices 0..n.

    Every row holds raw ints indexed by j = 0..n.  Mod mode stores
    residues in [0, p^e) with n fixed to p-1, where every j <= n is a unit.
    Exact mode (modulus None) stores numerators over scale**w, where
    scale = lcm(1..n) and w is the row's weight: s for inv_powers(s) and
    harmonic_prefix(s), the composition's weight for mhs_all, and the sum
    of the exponents for the weighted sums.  Values of one weight share a
    denominator, so they add and compare as ints, and a product of rows has
    the sum of their weights.  to_fraction() turns one cell into its value.
    Mod mode sets scale to 1.

    The table picks its row kernel once, in the constructor (see _kernel).
    The cached rows are that kernel's own and never leave the table: the
    recurrences and dot products read them as they are, and the public row
    methods return a fresh list of Python ints to a caller.

    Exact mode refuses n above EXACT_N_CAP, and mod mode what check_ring
    or check_o_of_p refuses, before any kernel is chosen or row built.
    """

    __slots__ = ("n", "prime", "exponent", "modulus", "scale", "_k", "_ipow", "_hpref")

    def __init__(self, n: int, *, prime: int | None = None, exponent: int = 1) -> None:
        if prime is None:
            if n < 0:
                raise ValueError(f"upper index must be >= 0, got {n}")
            if n > EXACT_N_CAP:
                raise ValueError(f"exact upper index {n} exceeds cap {EXACT_N_CAP}")
            self.modulus = None
            self.scale = math.lcm(*range(1, n + 1))
        else:
            check_ring(prime, exponent)
            check_o_of_p(prime)
            if n != prime - 1:
                raise ValueError("mod-mode tables are built at upper index p-1")
            self.modulus = prime**exponent
            self.scale = 1
        self.n = n
        self.prime = prime
        self.exponent = exponent
        self._k = _kernel(n, self.modulus)
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

    # -- cached rows in the kernel's own form --------------------------------

    def _row(self, cache: dict, build: Callable[..., Sequence], s: int):
        """The cached row for s, in the kernel's own form.  On first use
        build(s, _raw=True), that is inv_powers or harmonic_prefix, makes
        it, so every row is built inside those two methods, where a wrapper
        around them (such as bench/tracing.py) sees and times it; _raw makes
        them return the kernel's row, which is never converted to a list."""
        row = cache.get(s)
        return build(s, _raw=True) if row is None else row

    def _terms(self, prev, s: int):
        """j -> j^(-s) H(P; j-1) for j = 1..n, where prev is the row of the
        prefix P over 0..n (None for the empty prefix, whose row is all 1)."""
        return self._k.terms(self._row(self._ipow, self.inv_powers, s), prev)

    def _extend(self, prev, s: int):
        """The row m -> H(P, s; m), m = 0..n, from the row of P."""
        return self._k.prefix(self._terms(prev, s))

    def _dot(self, prev, s: int) -> int:
        """H(P, s; n) alone: the last level as one sum, no row built."""
        return self._k.total(self._terms(prev, s))

    def _wsum_terms(self, s2: int, factors: tuple[int, ...]):
        """j -> j^(-s2) prod_s H_j^(s) over the factors, j = 0..n."""
        terms = self._row(self._ipow, self.inv_powers, s2)
        for s in factors:
            terms = self._k.times(terms, self._row(self._hpref, self.harmonic_prefix, s))
        return terms

    # -- rows ----------------------------------------------------------------

    def inv_powers(self, s: int, *, _raw: bool = False) -> list[int]:
        """The row j -> j^(-s), j = 1..n (index 0 holds a zero), as a fresh
        list (_raw, for the table's own use: the cached kernel row)."""
        if s < 1:
            raise ValueError(f"exponent must be >= 1, got {s}")
        row = self._ipow.get(s)
        if row is None:
            if self.modulus is None:
                scale = self.scale
                row = [0] + [(scale // j) ** s for j in range(1, self.n + 1)]
            elif s == 1:
                row = self._k.inverses(self.prime, self.exponent)
            else:
                row = self._k.power(self._row(self._ipow, self.inv_powers, 1), s)
            self._ipow[s] = row
        return row if _raw else self._k.tolist(row)

    def harmonic_prefix(self, s: int, *, _raw: bool = False) -> list[int]:
        """The row j -> H_j^(s), j = 0..n, as a fresh list (_raw: as for
        inv_powers)."""
        row = self._hpref.get(s)
        if row is None:
            row = self._hpref[s] = self._extend(None, s)
        return row if _raw else self._k.tolist(row)

    def mhs_all(self, parts: Iterable[int]) -> list[int]:
        """H(parts; m) for every m = 0..n, by the recurrence."""
        row = None
        for s in Composition(parts):
            row = self._extend(row, s)
        return [1] * (self.n + 1) if row is None else self._k.tolist(row)

    def weighted_sum2_all(self, s1: int, s2: int, s3: int) -> list[int]:
        """sum_{j<=m} H_j^(s1) H_j^(s3) / j^(s2) for every m = 0..n."""
        return self._k.tolist(self._k.running(self._wsum_terms(s2, (s1, s3))))

    def weighted_sum3_all(self, s1: int, s2: int, s3: int, s4: int) -> list[int]:
        """As weighted_sum2_all with a third harmonic factor H_j^(s4)."""
        return self._k.tolist(self._k.running(self._wsum_terms(s2, (s1, s3, s4))))

    # -- single values -------------------------------------------------------

    def mhs_many(self, compositions: Iterable[Iterable[int]]) -> dict[Composition, int]:
        """H(c; n) as a raw int for every composition c, keyed by c as a
        tuple; the empty composition gives 1.

        The compositions are walked depth first as a trie of prefixes.  The
        row of a prefix is built once and feeds every extension of it, and
        it is dropped as soon as its last child has been built; a leaf is
        one dot product and builds no row.  A chain of prefixes thus never
        holds more than two rows at once.
        """
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
                out[comp] = self._dot(row, s)
                continue
            child = self._extend(row, s)
            if comp in wanted:
                out[comp] = int(child[-1])
            stack.append((comp, child, list(grandchildren.items())))
        return out

    def mhs(self, parts: Iterable[int]) -> int:
        """H(parts; n) as a raw int: the numerator over scale**weight in
        exact mode, the residue in mod mode."""
        parts = Composition(parts)
        return self.mhs_many((parts,))[parts]

    def weighted_sum2(self, s1: int, s2: int, s3: int) -> int:
        """sum_{j<=n} H_j^(s1) H_j^(s3) / j^(s2) as a raw int."""
        return self._k.total(self._wsum_terms(s2, (s1, s3)))

    def weighted_sum3(self, s1: int, s2: int, s3: int, s4: int) -> int:
        """As weighted_sum2 with a third harmonic factor H_j^(s4)."""
        return self._k.total(self._wsum_terms(s2, (s1, s3, s4)))


def _value(
    evaluate: Callable[[PrefixTable], int], weight: int, n: int | None, p: int | None, e: int
):
    """evaluate(table) as a boundary value: over a fresh exact table for
    upper index n as a Fraction (its raw int is a numerator over
    scale**weight), or over a fresh table mod p^e, at n = p-1, as a Residue.
    Exactly one of n and p must be given."""
    if (n is None) == (p is None):
        raise ValueError("give exactly one of n (exact mode) or p (mod mode)")
    if p is None:
        t = PrefixTable.for_exact(n)
        return t.to_fraction(evaluate(t), weight)
    return Residue(evaluate(PrefixTable.for_prime(p, e)), p, e)


def mhs_exact(parts: Iterable[int], n: int) -> Fraction:
    """H(parts; n) as an exact Fraction.

    Conventions: H(parts; r) = 0 for r < len(parts), and the empty
    composition evaluates to 1 for every n.
    """
    parts = Composition(parts)
    return _value(methodcaller("mhs", parts), parts.weight, n, None, 1)


def mhs_mod(parts: Iterable[int], p: int, e: int = 1) -> Residue:
    """H(parts; p-1) as a Residue mod p^e."""
    parts = Composition(parts)
    return _value(methodcaller("mhs", parts), parts.weight, None, p, e)


def weighted_sum2(
    s1: int, s2: int, s3: int, n: int | None = None, *, p: int | None = None, e: int = 1
):
    """sum_{j=1}^{n} H_j^(s1) H_j^(s3) / j^(s2).

    Exact mode (give n): returns a Fraction.  Mod mode (give p and e):
    the sum runs to p-1 and a Residue comes back.
    """
    return _value(methodcaller("weighted_sum2", s1, s2, s3), s1 + s2 + s3, n, p, e)


def weighted_sum3(
    s1: int, s2: int, s3: int, s4: int, n: int | None = None, *, p: int | None = None, e: int = 1
):
    """sum_{j=1}^{n} H_j^(s1) H_j^(s3) H_j^(s4) / j^(s2), as weighted_sum2."""
    return _value(
        methodcaller("weighted_sum3", s1, s2, s3, s4), s1 + s2 + s3 + s4, n, p, e
    )
