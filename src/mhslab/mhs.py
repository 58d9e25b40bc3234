"""Multiple harmonic sums H(s_1,...,s_k; n) and the weighted sums
sum_j H_j^(s1) H_j^(s3) / j^(s2) (optionally with a third harmonic factor),
exactly over the rationals and modulo p^e.

Everything is driven by one recurrence,

    H(s_1,...,s_k; m) = H(s_1,...,s_k; m-1) + m^(-s_k) H(s_1,...,s_{k-1}; m-1),

so a length-k sum over upper index n costs O(k n) ring operations rather
than a k-fold nested enumeration.  Values are raw ints in both modes:
residues mod p^e, or in exact mode numerators over scale**w with
scale = lcm(1..n) and w the weight of the value.  Fraction and Residue
objects appear only at the public boundary.

A PrefixTable has one evaluation engine, single_values: one pass over j
in blocks of _BLOCK indices that gives every spec's value at the table's
upper index n or, with rows=True, its row over 0..n.  The prefixes of
the compositions and the harmonic factors (s,) of the weighted sums form
one sorted list of tuples, the prefix trie in depth-first order, and
each keeps only a carry: its value at the start of the block.  A block
computes each inverse power j^(-s) and each H_j^(s) once, for every
value that uses it, and drops its rows before the next block starts.
The value methods (mhs, mhs_many, weighted_sum2, weighted_sum3) and the
row methods (harmonic_prefix, mhs_all, weighted_sum2_all,
weighted_sum3_all) are one call of it each, and inv_powers(s) is the
block powers j^(-s) over 1..n.  The one whole row a table keeps is, in
mod mode, the inverses 1/j mod p^e; exact mode computes (scale // j)^s
block by block.

Rows and blocks are built by one of two kernels, picked once per table.
The Python kernel streams products and running sums through
itertools.accumulate and map(operator.mul, ...), reduced mod p^e cell by
cell as they are stored (exact mode stores them as they are); its
modular inverse row comes from the recurrence
1/j = -(m // j) / (m mod j) mod m, one product per cell.  A mod-mode
table with m = p^e < 2^40 and n >= _NUMPY_MIN_N uses the numpy kernel
instead when numpy can be imported: int64 arrays, every product reduced
before the next operation (with 20-bit split factors above 2^31), so its
cells are the same residues; see _kernel for the bounds.  It reduces in
place by floor division (_reduce), and a block's powers j^(-s) share
their squares j^(-2^i) across every exponent s (powers).  numpy is
imported the first time a table picks that kernel, never at package
import.

Inside a pass the rows stay in the kernel's form (int64 arrays on the
numpy kernel).  A row becomes a list of Python ints only when a public
row method hands it to a caller, and that list is always the caller's
own: the kept inverse row is never lent.

The table methods return raw ints and are what a caller shares to evaluate
many sums at one upper index or prime.  The functions mhs_exact, mhs_mod,
weighted_sum2, weighted_sum3 and eval_formal_sum (every term of a
FormalSum in one mhs_many pass) build a table for one value and hand it
across the boundary as a Fraction (exact mode) or a Residue (mod mode),
the only Residue this module builds.  Which rings Z/p^e a table accepts
is exactnum's rule (check_ring, check_o_of_p).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, repeat
from operator import methodcaller, mod, mul
from typing import Callable, Iterable, Iterator, Sequence

from .compositions import Composition, FormalSum
from .exactnum import Residue, check_o_of_p, check_ring

__all__ = [
    "EXACT_BITS_CAP",
    "EXACT_N_CAP",
    "PrefixTable",
    "eval_formal_sum",
    "mhs_exact",
    "mhs_mod",
    "weighted_sum2",
    "weighted_sum3",
]

# Exact-mode upper-index cap: rational bit-length grows superlinearly in n.
EXACT_N_CAP = 10_000

# Exact-mode cap on the bits of the denominator scale**w of a weight-w
# row or value, counted as w times the bit length of scale = lcm(1..n):
# without it nothing bounds the weight, and H((1000000,); 3), at
# 3,000,000 bits, took 37 s.  The largest values in use stay below it:
# weight 6 at n = EXACT_N_CAP (a 14,447-bit scale) needs 86,682 bits, and
# H((10000,); 3) 30,000.
EXACT_BITS_CAP = 100_000

# Smallest upper index n = p-1 at which a mod-mode table takes the numpy
# kernel.  Importing numpy costs about 0.1 s and 11 MiB of RSS once per
# process, and only tables this large earn it back.  Measured per table
# (constructor, the seven H({s}^l) sums of homog-vanishing-modp, which build
# the inverse row, and weighted_sum2(2,2,2); medians of 15, ranges over five
# runs on a host whose speed drifts; 2 CPUs, Python 3.11, numpy 2.4, numpy
# already imported), Python -> numpy kernel, e = 1 and 2:
#     n = 1000: 1.4-2.5 -> 0.3-0.5 ms    n = 8000:  12-19 -> 0.8-1.3 ms
#     n = 2000: 2.7-4.6 -> 0.4-0.6 ms    n = 16000: 22-39 -> 1.4-2.3 ms
#     n = 4000: 5.5-9.6 -> 0.5-0.8 ms
# From n = 4000 on a table saves about 5 ms or more, so some 20 tables (one
# check over 20 primes, or a few checks at a handful of primes) repay the
# import; at n = 1000 it would take 50 to 90.  A run that builds a single
# table of this size pays more for the import than it saves.  The default
# battery stops at p = 1000, where the import's 11 MiB alone would raise
# its peak RSS (about 26 MiB) by some 40 %.
_NUMPY_MIN_N = 4000

# Indices per block of a pass of PrefixTable.single_values, and
# per chunk of the numpy inverse row's build.  One int64 block is 64 KiB.
# The benchmark's bigprime workload (four checks at six primes up to 99991)
# peaked at 34.0, 34.2, 35.0 and 37.0 MiB of RSS with blocks of 2^12, 2^13,
# 2^14 and 2^15 indices (2 CPUs, Python 3.11, numpy 2.4), against 40.2 MiB
# with whole rows; below 2^13 the saving is small and every block adds
# Python work per prefix.
_BLOCK = 1 << 13


class _PythonKernel:
    """Rows as lists of Python ints, modulo m (exact mode: m is None).

    Products stream through map(operator.mul, ...) unreduced and running
    sums through itertools.accumulate; a cell is reduced mod m as it is
    stored.  This kernel serves every exact table, every small table and
    every machine without numpy, and it is the reference the numpy kernel
    is tested against.

    A block of indices j = lo..hi-1 is worked on as the cells of its
    terms, one per index, and the carried rows of its prefixes: the
    carried row of P holds H(P; lo-1), the carry, and then H(P; j) for
    every j of the block.
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

    def powers(self, row: list[int], exponents: Iterable[int]) -> dict[int, list[int]]:
        """s -> the cells of row to the power s, for each exponent s, each
        cell by its own pow (row itself for s = 1)."""
        m = self.m
        return {s: row if s == 1 else list(map(pow, row, repeat(s), repeat(m))) for s in exponents}

    def terms(self, ip: list[int], prev: Sequence | None) -> Iterable[int]:
        """j -> j^(-s) H(P; j-1) over a run, from the run's cells ip of
        j^(-s) and the carried row prev of P (None: the empty prefix)."""
        return ip if prev is None else map(mul, ip, prev)

    def times(self, terms: Iterable[int], cells: list[int]) -> Iterator[int]:
        """j -> terms[j] * cells[j], cell by cell."""
        return map(mul, terms, cells)

    def prefix(self, terms: Iterable[int], carry: int = 0) -> list[int]:
        """The carried row of running sums of terms, starting from carry."""
        return list(self._reduced(accumulate(terms, initial=carry)))

    def total(self, terms: Iterable[int], carry: int = 0) -> int:
        """carry plus the sum of terms, reduced."""
        total = carry + sum(terms)
        return total if self.m is None else total % self.m

    def tolist(self, row: list[int]) -> list[int]:
        """The row itself: every row this kernel hands on is a list built
        for the call (the kept inverse row leaves the table only as a
        slice), so the caller may edit it."""
        return row


class _NumpyKernel:
    """Rows as int64 arrays of residues mod m, for m < 2^40 and n * m < 2^63.

    Every cell is reduced before the next operation, so the arithmetic is
    exact: for m < 2^31 a product of two residues is below 2^62; above, the
    second factor is split into 20-bit halves (see _mul).  A running sum of
    n reduced cells, after a reduced carry, stays below p * m.  Cells are
    reduced in place as x - (x // m) * m (_reduce), never with %, which
    numpy runs several times slower on int64.  The rows hold the same
    residues as the Python kernel's, which the tests check cell for cell.
    Blocks, terms and carried rows are as for the Python kernel.
    """

    __slots__ = ("np", "m")

    def __init__(self, np, m: int) -> None:
        self.np = np
        self.m = m

    def _mul(self, a, b):
        """a * b mod m, cell by cell, for residues a and b, as a new array."""
        m = self.m
        if m < 1 << 31:
            return _reduce(a * b, m)  # a * b < 2^62
        # a * b_hi < 2^60, (a * b_hi mod m) << 20 < 2^60 and a * b_lo < 2^60,
        # so the sum stays below 2^61.
        high = _reduce(a * (b >> 20), m)
        high <<= 20
        high += a * (b & 0xFFFFF)
        return _reduce(high, m)

    def inverses(self, p: int, e: int):
        """1/j mod p^e for j = 1..p-1 (index 0 holds a zero), built with
        about one block of memory besides the row itself.

        The powers g^k of a primitive root g list every unit mod p once,
        and the inverse of g^k is h^k for h = 1/g.  Both are laid out as a
        grid k = side*i + c, side about sqrt(p), and filled a few grid
        rows (about _BLOCK cells) at a time as products g^(side*i) * g^c,
        so only O(sqrt p) steps run in Python: the heads g^(side*i) and the
        columns g^c are running products, with one pow per chunk.  The grid
        runs past k = p-2, where the powers repeat with their inverses.
        Newton's step x -> x(2 - jx) then doubles the precision of the
        inverses in place, block by block, from mod p to mod p^2 (e = 2)
        and once more to mod p^4 (e = 3).
        """
        np = self.np
        g = _primitive_root(p)
        h = pow(g, -1, p)
        side = math.isqrt(p - 1) + 1

        def geometric(first: int, ratio: int, length: int):
            """first * ratio^i mod p for i < length, as running products."""
            cells = [first] * length
            for i in range(1, length):
                cells[i] = cells[i - 1] * ratio % p
            return np.array(cells, dtype=np.int64)

        def grid(r: int, cols, rows: range):
            """r^(side*i + c) mod p for i in rows and every c < side, flat,
            from cols[c] = r^c."""
            heads = geometric(pow(r, side * rows.start, p), pow(r, side, p), len(rows))
            return _reduce(heads[:, None] * cols, p).ravel()

        g_cols, h_cols = geometric(1, g, side), geometric(1, h, side)
        inv = np.zeros(p, dtype=np.int64)
        step = max(1, _BLOCK // side)
        for i0 in range(0, side, step):
            rows = range(i0, min(i0 + step, side))
            inv[grid(g, g_cols, rows)] = grid(h, h_cols, rows)
        lifts = (e - 1).bit_length()
        for lo in range(0, p if lifts else 0, _BLOCK):
            x = inv[lo : lo + _BLOCK]
            j = np.arange(lo, lo + len(x), dtype=np.int64)
            for _ in range(lifts):
                x[:] = self._mul(x, _reduce(2 - self._mul(j, x), self.m))
        return inv

    def powers(self, row, exponents: Iterable[int]) -> dict:
        """s -> the cells of row to the power s, for each exponent s, by
        square and multiply with shared squares: row^(2^i) is built once,
        multiplied into every power whose bit i is set, and dropped.  With
        t + 1 bits in the largest s that is t squarings in all, plus one
        product for each set bit of each s but its lowest."""
        results = dict.fromkeys(set(exponents))
        square, bit = row, 1
        while True:
            for s, power in results.items():
                if s & bit:
                    results[s] = square if power is None else self._mul(power, square)
            bit <<= 1
            if not any(s >= bit for s in results):
                return results
            square = self._mul(square, square)

    def terms(self, ip, prev):
        return ip if prev is None else self._mul(ip, prev[:-1])

    def times(self, terms, cells):
        return self._mul(terms, cells)

    def prefix(self, terms, carry: int = 0):
        np = self.np
        out = np.empty(len(terms) + 1, dtype=np.int64)
        out[0] = carry
        out[1:] = terms
        np.cumsum(out, out=out)
        return _reduce(out, self.m)

    def total(self, terms, carry: int = 0) -> int:
        return (carry + int(terms.sum())) % self.m

    def tolist(self, row) -> list[int]:
        """The row as a fresh list of Python ints, never numpy.int64."""
        return row.tolist()


def _reduce(x, m: int):
    """x mod m in [0, m), in place, for an int64 array x and 0 < m < 2^63;
    returns x.  Floor division by a scalar is several times faster in numpy
    than %, and floors, so x - (x // m) * m is the residue % gives for
    every int64 x, negative ones included (any wrap of the product is
    undone by the subtraction).  It holds one temporary array, q."""
    q = x // m
    q *= m
    x -= q
    return x


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


# The weighted sums a single-value spec may name, with their arities.
_WSUM_ARITY = {"weighted_sum2": 3, "weighted_sum3": 4}


class PrefixTable:
    """Single values and whole rows for upper indices 0..n.

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
    Every value and every row comes from single_values, the one engine;
    the row methods return a fresh list of Python ints to a caller.  A
    table keeps one row, the inverse row of mod mode, in the kernel's own
    form; it never leaves the table.

    Exact mode refuses n above EXACT_N_CAP, and mod mode what check_ring
    or check_o_of_p refuses, before any kernel is chosen or row built.
    Exact mode also refuses any row or value of a weight whose denominator
    would pass EXACT_BITS_CAP bits, before it takes a power (_check_weight).
    """

    __slots__ = ("n", "prime", "exponent", "modulus", "scale", "_k", "_inv")

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
        self._inv = None  # mod mode: the inverse row, built on first use

    @classmethod
    def for_exact(cls, n: int) -> "PrefixTable":
        return cls(n)

    @classmethod
    def for_prime(cls, p: int, e: int = 1) -> "PrefixTable":
        return cls(p - 1, prime=p, exponent=e)

    def to_fraction(self, num: int, w: int) -> Fraction:
        """The exact value of one weight-w cell: num / scale**w."""
        self._check_weight(w)
        return Fraction(num, self.scale**w)

    def _check_weight(self, w: int) -> None:
        """Refuse weight w if scale**w could pass EXACT_BITS_CAP bits.  A
        scale of 1 (mod mode, or exact n <= 1) never does."""
        if self.scale > 1 and w * self.scale.bit_length() > EXACT_BITS_CAP:
            raise ValueError(
                f"exact weight {w} at upper index {self.n} needs a denominator of up to"
                f" {w * self.scale.bit_length()} bits, which exceeds cap {EXACT_BITS_CAP}"
            )

    # -- rows ----------------------------------------------------------------

    def inv_powers(self, s: int, *, _raw: bool = False) -> list[int]:
        """The row j -> j^(-s), j = 1..n (index 0 holds a zero), as a fresh
        list.  _raw (mod mode, s = 1, for _block_powers): build the kept
        inverse row, in the kernel's form, here, so that a wrapper around
        this method (such as bench/tracing.py) sees and times its build."""
        if _raw:
            self._inv = self._k.inverses(self.prime, self.exponent)
            return self._inv
        if s < 1:
            raise ValueError(f"exponent must be >= 1, got {s}")
        self._check_weight(s)
        return [0] + self._k.tolist(self._block_powers(1, self.n + 1, (s,))[s])

    def harmonic_prefix(self, s: int) -> list[int]:
        """The row j -> H_j^(s), j = 0..n, as a fresh list."""
        return self.mhs_all((s,))

    def mhs_all(self, parts: Iterable[int]) -> list[int]:
        """H(parts; m) for every m = 0..n, from one single_values pass."""
        spec = ("mhs", (Composition(parts),))
        return self.single_values((spec,), rows=True)[spec]

    def weighted_sum2_all(self, s1: int, s2: int, s3: int) -> list[int]:
        """sum_{j<=m} H_j^(s1) H_j^(s3) / j^(s2) for every m = 0..n."""
        spec = ("weighted_sum2", (s1, s2, s3))
        return self.single_values((spec,), rows=True)[spec]

    def weighted_sum3_all(self, s1: int, s2: int, s3: int, s4: int) -> list[int]:
        """As weighted_sum2_all with a third harmonic factor H_j^(s4)."""
        spec = ("weighted_sum3", (s1, s2, s3, s4))
        return self.single_values((spec,), rows=True)[spec]

    # -- single values -------------------------------------------------------

    def _block_powers(self, lo: int, hi: int, exponents: Iterable[int]) -> dict:
        """s -> the cells j^(-s), j = lo..hi-1, for each exponent s: powers
        of the kept inverse row (mod mode) or (scale // j)^s (exact mode)."""
        if self.modulus is None:
            base = [self.scale // j for j in range(lo, hi)]
        else:
            inv = self.inv_powers(1, _raw=True) if self._inv is None else self._inv
            base = inv[lo:hi]
        return self._k.powers(base, exponents)

    def single_values(self, specs: Iterable[tuple[str, tuple]], *, rows: bool = False) -> dict:
        """The value at n of every spec, as a raw int keyed by the spec; with
        rows, its row over every upper index 0..n instead, as a fresh list.

        A spec names a single-value method and its arguments, as a
        CheckMember's left side does: ("mhs", (parts,)),
        ("weighted_sum2", (s1, s2, s3)) or ("weighted_sum3", (s1, s2, s3, s4)).
        The empty composition gives 1.

        All of them are evaluated in one pass over j = 1..n in blocks of
        _BLOCK indices.  The nonempty prefixes of the compositions and the
        harmonic factors (s,) of the weighted sums form one sorted list:
        the prefix trie in depth-first order.  Each keeps only its carry.
        In a block each inverse power j^(-s) is computed once.  A prefix
        with children, or one that a weighted sum reads as H_j^(s), builds
        the block's carried row; a leaf adds one dot product to its carry.
        A parent's row waits on a stack until its last child takes it off,
        so a chain of prefixes holds two rows at once.  With rows, a leaf
        and a weighted sum build the block's carried row too, in place of
        the dot product, and append it to the row they return.
        """
        specs = list(dict.fromkeys(specs))
        leaves: dict[tuple[str, tuple], tuple[int, ...]] = {}
        # spec -> (s2, the exponents of its harmonic factors)
        wsums: dict[tuple[str, tuple], tuple[int, tuple[int, ...]]] = {}
        prefixes: set[tuple[int, ...]] = set()
        for spec in specs:
            method, args = spec
            if method == "mhs":
                (parts,) = args
                parts = Composition(parts)
                self._check_weight(parts.weight)
                prefixes.update(parts[:i] for i in range(1, len(parts) + 1))
                leaves[spec] = tuple(parts)
            elif len(args) == _WSUM_ARITY.get(method):
                if min(args) < 1:
                    raise ValueError(f"exponent must be >= 1, got {min(args)}")
                self._check_weight(sum(args))
                s1, s2, *rest = args
                wsums[spec] = (s2, (s1, *rest))
            else:
                raise ValueError(f"unknown single value {spec!r}")
        factors = {(s,) for _, harmonic in wsums.values() for s in harmonic}
        order = sorted(prefixes | factors)
        exponents = {c[-1] for c in order} | {s2 for s2, _ in wsums.values()}
        last_child = {c[:-1]: c for c in order}
        wanted = set(leaves.values()) if rows else set()
        # Per prefix: its last part, whether it is its parent's last child,
        # whether it has children, whether it is a harmonic factor, and
        # whether its row is asked for.
        walk = [
            (c, c[-1], last_child[c[:-1]] is c, c in last_child, c in factors, c in wanted)
            for c in order
        ]
        k = self._k
        # The carry of every prefix and weighted sum, and with rows each
        # asked-for row so far, from its cell at 0.  A weighted sum is keyed
        # by its spec, a composition by its tuple.
        carries = dict.fromkeys([*order, *wsums], 0)
        carries[()] = 1  # H(; j) = 1: the empty composition's value
        grown = {key: [0] for key in (*wanted, *wsums)} if rows else {}
        for lo in range(1, self.n + 1, _BLOCK):
            ip = self._block_powers(lo, min(lo + _BLOCK, self.n + 1), exponents)
            hrows = {}  # s -> H_j^(s) for the block's j
            stack = [None]  # the empty prefix's row
            for prefix, s, last, parent, factor, want in walk:
                prev = stack.pop() if last else stack[-1]
                terms = k.terms(ip[s], prev)
                if not (parent or factor or want):
                    carries[prefix] = k.total(terms, carries[prefix])
                    continue
                row = k.prefix(terms, carries[prefix])
                carries[prefix] = int(row[-1])
                if want:
                    grown[prefix] += k.tolist(row[1:])
                if factor:
                    hrows[s] = row[1:]
                if parent:
                    stack.append(row)
            for spec, (s2, harmonic) in wsums.items():
                terms = ip[s2]
                for s in harmonic:
                    terms = k.times(terms, hrows[s])
                if rows:
                    row = k.prefix(terms, carries[spec])
                    carries[spec] = int(row[-1])
                    grown[spec] += k.tolist(row[1:])
                else:
                    carries[spec] = k.total(terms, carries[spec])
        if rows:
            grown[()] = [1] * (self.n + 1)
        values = grown if rows else carries
        return {spec: values[leaves.get(spec, spec)] for spec in specs}

    def mhs_many(self, compositions: Iterable[Iterable[int]]) -> dict[Composition, int]:
        """H(c; n) as a raw int for every composition c, keyed by c as a
        tuple, from one single_values pass."""
        comps = dict.fromkeys(map(Composition, compositions))
        values = self.single_values(("mhs", (c,)) for c in comps)
        return {c: values["mhs", (c,)] for c in comps}

    def mhs(self, parts: Iterable[int]) -> int:
        """H(parts; n) as a raw int: the numerator over scale**weight in
        exact mode, the residue in mod mode."""
        spec = ("mhs", (Composition(parts),))
        return self.single_values((spec,))[spec]

    def weighted_sum2(self, s1: int, s2: int, s3: int) -> int:
        """sum_{j<=n} H_j^(s1) H_j^(s3) / j^(s2) as a raw int."""
        spec = ("weighted_sum2", (s1, s2, s3))
        return self.single_values((spec,))[spec]

    def weighted_sum3(self, s1: int, s2: int, s3: int, s4: int) -> int:
        """As weighted_sum2 with a third harmonic factor H_j^(s4)."""
        spec = ("weighted_sum3", (s1, s2, s3, s4))
        return self.single_values((spec,))[spec]


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


def eval_formal_sum(F: FormalSum, n: int | None = None, *, p: int | None = None, e: int = 1):
    """Evaluate sum coeff * H(c; n) over the terms of F.

    Exact mode (give n) returns a Fraction; mod mode (give p, e) evaluates
    at n = p-1 and returns a Residue.  All terms share one mhs_many pass.
    """
    # Bring every term to the largest weight's denominator (mod mode has
    # scale 1, so there the factor is 1).
    top = max((comp.weight for comp, _ in F), default=0)

    def evaluate(t: PrefixTable) -> int:
        sums = t.mhs_many(comp for comp, _ in F)
        return sum(c * sums[comp] * t.scale ** (top - comp.weight) for comp, c in F)

    return _value(evaluate, top, n, p, e)


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
