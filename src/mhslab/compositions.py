"""Compositions (finite tuples of positive integer exponents) and the
quasi-shuffle product, whose result is a sorted tuple of (composition,
coefficient) pairs: an integer linear combination of compositions.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = [
    "Composition",
    "parse_composition",
    "STUFFLE_MAX_PARTS",
    "STUFFLE_MAX_TERMS",
    "stuffle",
]

# Most parts, len(a) + len(b), that stuffle accepts.  It bounds lopsided
# products: m + n parts with n small have few terms, but the table builds
# about m D(m, n) / (n + 1) terms of up to m parts.  2 + 198 parts took
# 19 s and 210 MiB, 3 + 60 parts 7 s, and 3 + 47 parts 1.9 s (2 CPUs).
STUFFLE_MAX_PARTS = 50

# Most terms, counted with multiplicity, that stuffle accepts: m + n parts
# give the Delannoy number D(m, n) = sum_k C(m,k) C(n,k) 2^k.  8 + 8 parts
# (265,729) took 0.6-0.9 s and 81 MiB, and 4 + 25 parts (283,401) 2.3 s.
STUFFLE_MAX_TERMS = 300_000


class Composition(tuple):
    """An ordered tuple of positive integers, e.g. (2, 3, 1).

    Subclasses tuple, so indexing, slicing, iteration and comparison all
    behave as for plain tuples; comparison order is lexicographic.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Composition":
        if type(parts) is cls:
            return parts  # already checked, and immutable
        parts = tuple(parts)
        for x in parts:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise ValueError(f"composition parts must be positive integers, got {x!r}")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        """Sum of the parts."""
        return sum(self)

    def __repr__(self) -> str:
        return f"Composition({tuple(self)!r})"

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self) + ")"


def parse_composition(text: str) -> Composition:
    """Parse "2,3,1" or "(2,3,1)" into a Composition; "()" is the empty one."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    if not s:
        return Composition()
    parts = []
    for tok in s.split(","):
        tok = tok.strip()
        if not tok.isdigit() or int(tok) < 1:
            raise ValueError(f"bad composition {text!r}: part {tok!r} is not a positive integer")
        parts.append(int(tok))
    return Composition(parts)


def stuffle(a: Iterable[int], b: Iterable[int]) -> tuple[tuple[Composition, int], ...]:
    """Quasi-shuffle product of two compositions, as its (composition,
    coefficient) pairs sorted by composition: each composition once, each
    coefficient a positive count.

    The product is the multiplication rule for nested harmonic sums taken
    at a common upper limit.  A table over the prefix pairs a[:i], b[:j],
    with x = a[i-1] and y = b[j-1], builds it two rows at a time:

        a[:i] * b[:j] = (a[:i] * b[:j-1])y + (a[:i-1] * b[:j])x + (a[:i-1] * b[:j-1])(x+y).

    Refuses more than STUFFLE_MAX_PARTS parts or STUFFLE_MAX_TERMS terms.
    """
    a, b = tuple(Composition(a)), tuple(Composition(b))
    m, n = len(a), len(b)
    if m + n > STUFFLE_MAX_PARTS:
        raise ValueError(
            f"stuffle of {m} + {n} parts exceeds the limit of {STUFFLE_MAX_PARTS} parts"
        )
    if sum(math.comb(m, k) * math.comb(n, k) << k for k in range(n + 1)) > STUFFLE_MAX_TERMS:
        raise ValueError(
            f"stuffle of {m} + {n} parts exceeds the limit of {STUFFLE_MAX_TERMS} terms"
        )
    if m < n:  # the product commutes; rows run over the shorter one
        a, b, m, n = b, a, n, m
    row = [{b[:j]: 1} for j in range(n + 1)]  # () * b[:j] = b[:j]
    for i, x in enumerate(a, 1):
        cur = [{a[:i]: 1}]
        for j, y in enumerate(b, 1):
            cell: dict[tuple[int, ...], int] = {}
            for prev, tail in ((cur[j - 1], (y,)), (row[j], (x,)), (row[j - 1], (x + y,))):
                for comp, c in prev.items():
                    key = comp + tail
                    cell[key] = cell.get(key, 0) + c
            cur.append(cell)
        row = cur
    return tuple(sorted((Composition(c), k) for c, k in row[n].items()))
