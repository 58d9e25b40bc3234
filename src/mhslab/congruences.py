"""Named congruence checks over ranges of primes, plus a cross-prime
rational-coefficient fitter.

A check pairs a directly computed left side (multiple harmonic sums or
weighted sums, evaluated mod p^e through a PrefixTable) with an
independently evaluated right side built only from Bernoulli numbers,
binomial coefficients and exact rationals.  The two sides never share
code, so a passing scan is genuine cross-validation.  Primes that violate
a check's hypothesis are reported as skipped rows, never dropped.

Checks are plain data.  A member's left side is a single-value spec, a
kind and its exponents; its right side is a sum of monomials
c * p^t * prod B_{kp-w}, which one evaluator reduces mod p^e.  The closed
forms with real logic are builders that return such a sum together with
the smallest prime it holds for; only the registry calls them.  As in
the paper, a weighted sum's right side is read off Theorem 2.1's first
form or Theorem 3.1, as identities states them: _derive turns each
product into the product of its factors' closed forms, truncated at p^e.
A check of one weighted sum is a row of one table, from which the
registry derives its label and its left side.

Scans run prime-major.  The work unit is one prime with the ids of every
check to evaluate there; a battery (and a scan, a battery of one check)
deals all its units out round-robin to the calling process and one forked
child per further worker, or runs them in process with one worker, and
run_check is the one-unit case.  No process pool and no multiprocessing
are involved: the children pickle their reports back over pipes, and
pickle loads with the first parallel scan.  At a prime the
checks share one PrefixTable, mod p^e for their largest e, and every
member goes through one single-value pass, so a prefix chain, an inverse
power or a harmonic factor common to several checks is computed once; a
check at a smaller e reduces its values mod its own p^e.  Each
prime is checked once, by exactnum's is_odd_prime in run_scan and
run_check, or by the sieve in run_battery.

A fit family is a registry member tagged with the family's name.  When
that member fails at three primes or more, a scan refits it from its
left sides at exactly the primes where the units evaluated it, building
no table, and notes the constant on the rows where it failed.

The fitter inverts the ansatz  lhs(p) = c * p^t * B_{p-w} (mod p^e)  per
prime, combines the per-prime values of c by CRT, and applies rational
reconstruction.  A returned coefficient reproduces every per-prime value
by construction: reconstruction returns a/b only when gcd(b, M) = 1 and
a == x*b (mod M), and x is every per-prime value mod its prime power.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import random
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

from .bernoulli import PDividesDenominator, bernoulli_mod, bernoulli_mod_int
from .exactnum import (
    EXPONENTS,
    check_ring,
    crt_list,
    is_odd_prime,
    mod_inverse_int,
    rational_reconstruct,
)
from .identities import thm21, thm31
from .mhs import PrefixTable

__all__ = [
    "UnknownCheckId",
    "InsufficientPrimes",
    "CheckMember",
    "CongruenceCheck",
    "CheckReport",
    "FitFamily",
    "FitResult",
    "STATUS_PASS",
    "STATUS_FAIL",
    "STATUS_SKIP_HYPOTHESIS",
    "STATUS_SKIP_POLE",
    "registry",
    "get_check",
    "fit_families",
    "run_check",
    "run_scan",
    "run_battery",
    "fit_coefficient",
    "reports_to_csv",
    "reports_to_json",
    "DEFAULT_BATTERY",
]


class UnknownCheckId(ValueError):
    """No check with the requested id is registered."""


class InsufficientPrimes(ValueError):
    """Fewer than three usable primes remain after skipping."""


STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SKIP_HYPOTHESIS = "skipped(hypothesis)"
STATUS_SKIP_POLE = "skipped(bernoulli-pole)"


# ---------------------------------------------------------------------------
# Right-hand sides: sums of Bernoulli monomials.
# ---------------------------------------------------------------------------

# A monomial (coef, t, ((k, w), ...)) stands for coef * p^t * prod B_{kp-w};
# a right side is a tuple of monomials, and the empty tuple is 0.
Monomial = tuple[Fraction, int, tuple[tuple[int, int], ...]]
Terms = tuple[Monomial, ...]

# H(1,4; p-1) mod p^2, p >= 11: 2 B_{p-5} - (5/6) B_{2p-6}
# - (1/9) p B_{p-3}^2 + (1/15) p B_{p-5}.  The widely quoted one-term
# value B_{p-5} holds mod p only.  The coefficients were found offline;
# nothing in this package derives them.  The tests confirm the form at
# every prime 11 <= p < 400; at p = 7 even this form fails.
# H(4,1) = -H(1,4).
_H14_MODP2: Terms = (
    (Fraction(2), 0, ((1, 5),)),
    (Fraction(-5, 6), 0, ((2, 6),)),
    (Fraction(-1, 9), 1, ((1, 3), (1, 3))),
    (Fraction(1, 15), 1, ((1, 5),)),
)


def _one(coef: Fraction | int, w: int, t: int = 0) -> Terms:
    """The fitter's ansatz coef * p^t * B_{p-w} as a one-monomial sum."""
    return ((Fraction(coef), t, ((1, w),)),)


def _evaluate(terms: Terms, p: int, e: int) -> int:
    """A sum of monomials mod p^e, on raw ints.

    Each factor of a monomial lives mod p^(e-t), the precision its p^t
    leaves.  A zero coefficient is skipped before its Bernoulli factors are
    touched: for the symmetric Tauraso member a = b = 0, middle = 1 that
    factor would be the undefined B_{p-1}.  The ring Z/p^e is checked
    once here, so each factor is read as a raw int (bernoulli_mod_int).
    """
    check_ring(p, e)
    total = 0
    for coef, t, factors in terms:
        if coef == 0 or t >= e:
            continue
        m = p ** (e - t)
        v = coef.numerator * mod_inverse_int(coef.denominator, m) % m
        for k, w in factors:
            v = v * bernoulli_mod_int(k * p - w, p, e - t) % m
        total += v * p**t
    return total % p**e


def _homogeneous(s: int, k: int, e: int) -> tuple[int, Terms]:
    """H({s}^k; p-1) mod p^e, for p >= sk+3: 0 mod p, and mod p^2 at odd
    weight w = sk; (-1)^(k-1) s/(w+1) p B_{p-w-1} mod p^2 at even w; and
    (-1)^k s(w+1)/(2(w+2)) p^2 B_{p-w-2} mod p^3."""
    if s < 1 or k < 1:
        raise ValueError("s and k must be >= 1")
    w = s * k
    if e == 1 or (e == 2 and w % 2):
        terms: Terms = ()
    elif e == 2:
        terms = _one(Fraction((-1) ** (k - 1) * s, w + 1), w + 1, t=1)
    elif e == 3:
        terms = _one(Fraction((-1) ** k * s * (w + 1), 2 * (w + 2)), w + 2, t=2)
    else:
        raise ValueError(f"exponent must be 1, 2 or 3, got {e}")
    return w + 3, terms


def _depth2(s1: int, s2: int, e: int) -> tuple[int, Terms]:
    """H(s1, s2; p-1) mod p^e, e = 1 or 2, at weight w = s1 + s2.
    Mod p, for p > w: (-1)^s2 C(w,s1) B_{p-w} / w.  Mod p^2 at even w,
    for p > w+1: p [(-1)^s1 (s2 C(w+1,s1) - s1 C(w+1,s2)) - w] B_{p-w-1}
    / (2(w+1)); at odd w only (1,4) and (4,1) are known, for p >= 11."""
    if min(s1, s2) < 1:
        raise ValueError("exponents must be >= 1")
    w = s1 + s2
    if e == 1:
        return w + 1, _one(Fraction((-1) ** s2 * math.comb(w, s1), w), w)
    if e != 2:
        raise ValueError(f"exponent must be 1 or 2, got {e}")
    if w % 2 == 0:
        bracket = (-1) ** s1 * (
            s2 * math.comb(w + 1, s1) - s1 * math.comb(w + 1, s2)
        ) - w
        return w + 2, _one(Fraction(bracket, 2 * (w + 1)), w + 1, t=1)
    if (s1, s2) == (1, 4):
        return 11, _H14_MODP2
    if (s1, s2) == (4, 1):
        return 11, tuple((-c, t, f) for c, t, f in _H14_MODP2)
    raise ValueError(f"no mod-p^2 closed form registered for odd weight ({s1},{s2})")


def _depth3_oddweight(s1: int, s2: int, s3: int) -> tuple[int, Terms]:
    """H(s1, s2, s3; p-1) mod p at odd weight w, for p > w:
    ((-1)^s1 C(w,s1) - (-1)^s3 C(w,s3)) B_{p-w} / (2w)."""
    if min(s1, s2, s3) < 1:
        raise ValueError("exponents must be >= 1")
    w = s1 + s2 + s3
    if w % 2 == 0:
        raise ValueError(f"weight {w} must be odd")
    num = (-1) ** s1 * math.comb(w, s1) - (-1) ** s3 * math.comb(w, s3)
    return w + 1, _one(Fraction(num, 2 * w), w)


def _tauraso_232(a: int, b: int, middle: int) -> tuple[int, Terms]:
    """H({2}^a, middle, {2}^b; p-1) mod p, middle in {1, 3}.  Both forms
    carry an (a-b) factor, so a = b gives the zero coefficient."""
    if a < 0 or b < 0:
        raise ValueError("a and b must be >= 0")
    if middle == 3:
        w = 2 * a + 2 * b + 3
        coef = Fraction((-1) ** (a + b) * (a - b), (a + 1) * (b + 1)) * math.comb(
            2 * a + 2 * b + 2, 2 * a + 1
        )
    elif middle == 1:
        w = 2 * a + 2 * b + 1
        coef = (
            4
            * Fraction((-1) ** (a + b) * (a - b), (2 * a + 1) * (2 * b + 1))
            * (1 - Fraction(1, 4 ** (a + b)))
            * math.comb(2 * a + 2 * b, 2 * a)
        )
    else:
        raise ValueError(f"middle part must be 1 or 3, got {middle}")
    return w + 1, _one(coef, w)


# Weight-5 depth-3 sums mod p^2, composition -> (smallest prime, right side).
# (1,2,1) is pinned at -9/10: the displayed +9/10 fails every prime, as do
# cor-sun-modp2 and h3-over-j-modp2 read off it.  H(1,3,1) is stated for p >= 7,
# but H(1,3,1;6) = 7*821/34560 == 2p (mod 7^2): the vanishing starts at 11.
_WEIGHT5_MODP2: dict[tuple[int, ...], tuple[int, Terms]] = {
    (1, 2, 1): (7, _one(Fraction(-9, 10), 5, t=1)),
    (2, 1, 1): (7, _one(Fraction(3, 5), 5, t=1)),
    (1, 1, 2): (7, _one(Fraction(11, 10), 5, t=1)),
    (1, 3, 1): (11, ()),
}


def _closed(c: tuple[int, ...], e: int) -> tuple[int, Terms]:
    """H(c; p-1) mod p^e and its smallest prime, by the first closed form of c."""
    if len(set(c)) == 1:
        return _homogeneous(c[0], len(c), e)
    if len(c) == 2:
        return _depth2(*c, e)
    if len(c) == 3 and e == 1 and sum(c) % 2:
        return _depth3_oddweight(*c)
    if e == 2 and c in _WEIGHT5_MODP2:
        return _WEIGHT5_MODP2[c]
    raise ValueError(f"no closed form of H{c}")


def _derive(exps: tuple[int, ...], e: int) -> Terms:
    """The weighted sum W(exps) mod p^e read off Theorem 2.1's first form or
    Theorem 3.1.  A product is its factors' closed forms multiplied, cut at
    p^e and ended by its first vanishing factor, H read before W; like
    monomials merge.  A composition with no closed form raises ValueError."""
    ((_, sign),), side = thm21(*exps)["thm21-form1"] if len(exps) == 3 else thm31(*exps)["thm31"]
    total: dict[tuple[int, tuple], Fraction] = {}
    for factors, coef in side:
        product: Terms = ((Fraction(coef, sign), 0, ()),)
        for kind, args in sorted(factors, key=lambda f: f[0] == "weighted_sum"):
            terms = _derive(args, e) if kind == "weighted_sum" else _closed(args, e)[1]
            product = tuple((c * d, t + u, tuple(sorted(f + g)))
                            for c, t, f in product for d, u, g in terms if t + u < e)
            if not product:
                break
        for c, t, f in product:
            total[t, f] = total.get((t, f), 0) + c
    return tuple((c, t, f) for (t, f), c in total.items() if c)


# ---------------------------------------------------------------------------
# Check registry.
# ---------------------------------------------------------------------------


class CheckMember(NamedTuple):
    """One congruence inside a check, as plain data: a label, the smallest
    admissible prime, the left side as a PrefixTable.single_values spec
    (a kind and its exponents), and the right side as a sum of Bernoulli
    monomials.  A member whose right side is one monomial c * p^t * B_{p-w}
    may carry the name of the fit family it defines."""

    label: str
    min_prime: int
    lhs_spec: tuple[str, tuple]
    rhs_terms: Terms
    family: str | None = None

    def lhs(self, table: PrefixTable) -> int:
        return table.single_values((self.lhs_spec,))[self.lhs_spec]

    def rhs(self, p: int, e: int) -> int:
        return _evaluate(self.rhs_terms, p, e)


class CongruenceCheck(NamedTuple):
    check_id: str
    e: int
    description: str
    members: tuple[CheckMember, ...]

    @property
    def min_prime(self) -> int:
        return min(m.min_prime for m in self.members)

    @property
    def fit_family(self) -> str | None:
        """The family its tagged member carries, if any; a scan refits it."""
        return next((m.family for m in self.members if m.family), None)


class CheckReport(NamedTuple):
    """Per-prime verdict; lhs/rhs hold rendered residue values (for checks
    with several members, 'label=value' pairs joined by ';')."""

    check_id: str
    p: int
    e: int
    status: str
    lhs: str
    rhs: str
    note: str = ""

    def to_dict(self) -> dict:
        return self._asdict()


# The report layout, stated once: a report is its own CSV row, the CSV
# header and the JSON objects' keys are CheckReport._fields, and every
# report list is sorted by (check_id, p).
_report_order = operator.attrgetter("check_id", "p")


class FitFamily(NamedTuple):
    """A left-side family p -> value mod p^e with its ansatz parameters:
    the Bernoulli offset w, the power t of p split off, and the ring
    exponent e.  The left side is that of a registry member."""

    w: int
    t: int
    e: int
    member: CheckMember

    def lhs(self, p: int) -> int:
        return self.member.lhs(PrefixTable.for_prime(p, self.e))


class FitResult(NamedTuple):
    primes_used: tuple[int, ...]
    skipped: tuple[tuple[int, str], ...]
    coefficient: Fraction | None


def thm23_random_triples() -> tuple[tuple[int, int, int], ...]:
    """The thm23-general exponent triples: 50 distinct odd-weight triples
    with parts in 1..5 (so weight <= 15), drawn with seed 97."""
    rng = random.Random(97)
    out: dict[tuple[int, int, int], None] = {}  # keeps the first draw's place
    while len(out) < 50:
        t = (rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5))
        if sum(t) % 2:
            out[t] = None
    return tuple(out)


def _built(
    label: str, lhs_spec: tuple[str, tuple], built: tuple[int, Terms], family: str | None = None
) -> CheckMember:
    """A member whose right side and smallest prime come from a closed form."""
    min_prime, terms = built
    return CheckMember(label, min_prime, lhs_spec, terms, family)


def _weighted(
    label: str, min_prime: int, exps: tuple, e: int, family: str | None = None,
    terms: Terms | None = None,
) -> CheckMember:
    """A member of the weighted sum at exps, its right side typed or _derive's."""
    terms = _derive(exps, e) if terms is None else terms
    return CheckMember(label, min_prime, ("weighted_sum", exps), terms, family)


def _homogeneous_check(
    check_id: str, e: int, description: str, pairs: tuple[tuple[int, int], ...]
) -> CongruenceCheck:
    return CongruenceCheck(
        check_id,
        e,
        description,
        tuple(
            _built(f"s={s},l={l}", ("mhs", (s,) * l), _homogeneous(s, l, e))
            for s, l in pairs
        ),
    )


@lru_cache(maxsize=1)
def registry() -> Mapping[str, CongruenceCheck]:
    """The immutable id -> check mapping (built once per process)."""
    checks = [
        # Sun's sum_j (H_j^(s))^2 / j^s: mod p, H(s,2s) is all that survives.
        CongruenceCheck(
            "cor-sun-modp",
            1,
            "squared harmonic factor over j^s against C(3s,s)B_{p-3s}/(3s), mod p",
            tuple(
                _weighted(f"s={s}", 3 * s + 3, (s, s, s), 1, "sun-s1" if s == 1 else None)
                for s in range(1, 6)
            ),
        ),
        # Even s makes the Bernoulli index odd, so the same sum vanishes mod p.
        CongruenceCheck(
            "cor-sun-modp-even-zero",
            1,
            "squared harmonic factor over j^s vanishes mod p for even s",
            tuple(_weighted(f"s={s}", 3 * s + 3, (s, s, s), 1, terms=()) for s in (2, 4)),
        ),
        # sum_j (H_j^(s))^2 / j^r for odd r.
        CongruenceCheck(
            "cor-first-display",
            1,
            "squared harmonic factor over j^r (odd r) against"
            " (-1)^(s+r) C(2s+r,s) B_{p-2s-r}/(2s+r), mod p",
            tuple(
                _weighted(f"s={s},r={r}", 2 * s + r + 1, (s, r, s), 1)
                for s, r in ((1, 1), (1, 3), (2, 1), (2, 3), (3, 1), (3, 3))
            ),
        ),
        # Theorem 2.3 at randomized odd-weight triples.
        CongruenceCheck(
            "thm23-general",
            1,
            "two-factor weighted sums at random odd-weight exponent triples, mod p",
            tuple(
                _weighted(f"({s1},{s2},{s3})", s1 + s2 + s3 + 1, (s1, s2, s3), 1)
                for s1, s2, s3 in thm23_random_triples()
            ),
        ),
        # The chain of weight-6 sums proportional to B_{p-3}^2.
        CongruenceCheck(
            "hoffman-chain-B3sq",
            1,
            "five weight-6 weighted sums, each a rational multiple of B_{p-3}^2, mod p",
            tuple(
                _weighted(f"({s1},{s2},{s3})", 11, (s1, s2, s3), 1,
                          terms=((coef, 0, ((1, 3), (1, 3))),))
                for (s1, s2, s3), coef in (
                    ((2, 3, 1), Fraction(1, 2)),
                    ((3, 2, 1), Fraction(-1, 3)),
                    ((3, 1, 2), Fraction(-1, 6)),
                    ((1, 4, 1), Fraction(-1, 3)),
                    ((4, 1, 1), Fraction(1, 6)),
                )
            ),
        ),
        # H({2}^a, 3, {2}^b) and H({2}^a, 1, {2}^b) closed forms mod p.
        CongruenceCheck(
            "tauraso-lemma",
            1,
            "twos with a single 1 or 3 inserted, against the binomial-Bernoulli"
            " closed forms, mod p",
            tuple(
                _built(
                    f"a={a},mid={mid},b={b}",
                    ("mhs", (2,) * a + (mid,) + (2,) * b),
                    _tauraso_232(a, b, mid),
                    "zero" if (a, mid, b) == (1, 1, 1) else None,  # coefficient 0
                )
                for mid in (3, 1)
                for a in range(4)
                for b in range(4)
            ),
        ),
        CongruenceCheck(
            "lemma-modp2-triples",
            2,
            "pinned weight-5 depth-3 values and H(4,1), mod p^2",
            tuple(
                _built(f"H({','.join(map(str, c))})", ("mhs", c), _closed(c, 2))
                for c in (*_WEIGHT5_MODP2, (4, 1))
            ),
        ),
        CongruenceCheck(
            "cor-conjecture2",
            2,
            "squared harmonic factor over j^s, even s, against"
            " [C(3s+1,s-1)+s/2] p B_{p-3s-1}/(3s+1), mod p^2",
            tuple(_weighted(f"s={s}", 3 * s + 2, (s, s, s), 2) for s in (2, 4)),
        ),
        CongruenceCheck(
            "h-ones-modp3",
            3,
            "all-ones sums H({1}^k) against the p^2 B_{p-k-2} closed form, mod p^3",
            tuple(
                _built(f"k={k}", ("mhs", (1,) * k), _homogeneous(1, k, 3))
                for k in (1, 3)
            ),
        ),
        _homogeneous_check(
            "homog-vanishing-modp",
            1,
            "homogeneous sums with even weight vanish mod p",
            ((1, 2), (1, 4), (2, 1), (2, 2), (2, 3), (3, 2), (4, 1)),
        ),
        _homogeneous_check(
            "homog-vanishing-modp2",
            2,
            "homogeneous sums with odd weight vanish mod p^2",
            ((1, 1), (1, 3), (3, 1), (1, 5), (5, 1), (3, 3)),
        ),
        _homogeneous_check(
            "homog-bernoulli-modp2",
            2,
            "homogeneous sums with even weight against the p B_{p-sk-1} form,"
            " mod p^2",
            ((1, 2), (2, 1), (2, 2), (1, 4), (4, 1)),
        ),
        CongruenceCheck(
            "depth2-modp",
            1,
            "H(s1,s2) against (-1)^s2 C(w,s1) B_{p-w}/w, mod p",
            tuple(
                _built(f"H({s1},{s2})", ("mhs", (s1, s2)), _depth2(s1, s2, 1))
                for s1, s2 in itertools.product(range(1, 5), repeat=2)
            ),
        ),
        CongruenceCheck(
            "depth2-modp2",
            2,
            "H(s1,s2) at even weight against the p B_{p-w-1} form, and the"
            " refined H(1,4) and H(4,1), mod p^2",
            tuple(
                _built(f"H({s1},{s2})", ("mhs", (s1, s2)), _depth2(s1, s2, 2))
                for s1, s2 in (
                    (1, 3), (3, 1), (2, 2), (2, 4), (1, 5), (3, 3), (1, 4), (4, 1)
                )
            ),
        ),
        CongruenceCheck(
            "depth3-oddweight-modp",
            1,
            "odd-weight H(s1,s2,s3) against"
            " ((-1)^s1 C(w,s1) - (-1)^s3 C(w,s3)) B_{p-w}/(2w), mod p",
            tuple(
                _built(f"H({s1},{s2},{s3})", ("mhs", (s1, s2, s3)), _depth3_oddweight(s1, s2, s3))
                for s1, s2, s3 in (
                    (1, 1, 1), (1, 2, 2), (2, 1, 2), (1, 3, 1), (3, 1, 1), (2, 2, 3)
                )
            ),
        ),
    ]

    # Checks of one weighted sum, as rows (id, e, description, exponents,
    # smallest prime, right side or None for _derive's, fit family).  The
    # label is the exponents written (s1,s2,...), and the left side is the
    # weighted sum of those three or four exponents.
    one_sum = [
        ("hjh2-over-j2", 1, "sum_j H_j H_j^(2) / j^2 against -B_{p-5}/2, mod p",
         (1, 2, 2), 11, None, None),
        ("h5h4-over-j3", 1, "sum_j H_j^(5) H_j^(4) / j^3 vanishes mod p for p >= 17",
         (5, 3, 4), 17, (), None),
        ("cor-sun-modp2", 2, "sum_j H_j^2 / j^2 against (4/5) p B_{p-5}, mod p^2",
         (1, 2, 1), 7, None, None),
        ("h2h-over-j", 2, "sum_j H_j^(2) H_j / j against -(7/10) p B_{p-5}, mod p^2",
         (2, 1, 1), 7, None, None),
        ("h2-over-j3-modp2", 2,
         "sum_j H_j^2 / j^3 against the refined B_{p-5}/B_{2p-6} form, mod p^2",
         (1, 3, 1), 11, None, None),
        ("h3-over-j-modp2", 2, "sum_j H_j^3 / j against (3/2) p B_{p-5}, mod p^2",
         (1, 1, 1, 1), 7, None, "h3-over-j"),
    ]
    # The four weight-9/weight-7 triple-factor sums.  Right sides use the
    # published constants on purpose; scans attach the refitted value to
    # any fail rows rather than silently replacing the constant.
    one_sum += [
        (check_id, 1,
         f"triple-factor weighted sum at exponents {exps} against {coef} B_{{p-{w}}}, mod p",
         exps, 11, _one(coef, w), family)
        for check_id, exps, coef, w, family in (
            ("cor34-first", (2, 2, 2, 3), Fraction(-13), 9, "cor34-1"),
            ("cor34-second", (2, 3, 2, 2), Fraction(83, 3), 9, "cor34-2"),
            ("cor34-third", (2, 2, 2, 1), Fraction(-21, 8), 7, "cor34-3"),
            ("cor34-fourth", (2, 1, 2, 2), Fraction(3), 7, "cor34-4"),
        )
    ]
    for check_id, e, description, exps, min_prime, terms, family in one_sum:
        label = f"({','.join(map(str, exps))})"
        member = _weighted(label, min_prime, exps, e, family, terms)
        checks.append(CongruenceCheck(check_id, e, description, (member,)))

    return MappingProxyType({c.check_id: c for c in checks})


def get_check(check_id: str) -> CongruenceCheck:
    reg = registry()
    chk = reg.get(check_id)
    if chk is None:
        known = ", ".join(sorted(reg))
        raise UnknownCheckId(f"unknown check id {check_id!r}; known ids: {known}")
    return chk


@lru_cache(maxsize=1)
def fit_families() -> Mapping[str, FitFamily]:
    """Named left-side families accepted by the coefficient fitter, one per
    tagged registry member: its single monomial c * p^t * B_{p-w} fixes
    the family's w and t, and its check fixes e."""
    fams = {}
    for chk in registry().values():
        for mem in chk.members:
            if mem.family:
                ((_, t, ((_, w),)),) = mem.rhs_terms
                fams[mem.family] = FitFamily(w, t, chk.e, mem)
    return MappingProxyType(fams)


# ---------------------------------------------------------------------------
# Running checks and scans.
# ---------------------------------------------------------------------------


def _render(values: dict[str, int], multi: bool) -> str:
    if not multi:
        return str(next(iter(values.values())))
    return ";".join(f"{label}={v}" for label, v in values.items())


def _skip(chk: CongruenceCheck, p: int, status: str, note: str) -> CheckReport:
    return CheckReport(chk.check_id, p, chk.e, status, "", "", note=note)


# A work unit: one prime and the ids of the checks to evaluate there.  Plain
# data, like the reports a unit gives back, so that both pickle between
# processes.
Unit = tuple[int, tuple[str, ...]]


def _run_unit(unit: Unit) -> tuple[list[CheckReport], dict[str, tuple[int, bool]]]:
    """Evaluate the unit's checks at its prime, an odd prime its caller has
    checked.  Returns their reports, in the unit's order, and, by check id,
    the raw left side of each tagged fit-family member that was evaluated
    and whether that member failed, for a refit.

    The checks share one PrefixTable mod p^top, top the largest e among
    the checks still to evaluate, and every member goes through one
    single_values pass, so a prefix chain, an inverse power or a harmonic
    factor common to several members is computed once per block.  A check
    at e reduces its values mod p^e, which is exact because every j < p is
    a unit.  The table's kernel serves the whole unit: one that mixes an
    e = 3 check with others runs them all on the Python kernel above p of
    about 10,321 (p^3 >= 2^40); no scan forms such a unit yet.  Members
    whose smallest admissible prime exceeds p are left out; a check with
    none left and a Bernoulli pole come back as skipped reports, never
    exceptions.
    """
    p, check_ids = unit
    checks = [get_check(cid) for cid in check_ids]
    reports: list = [None] * len(checks)
    family_lhs: dict[str, tuple[int, bool]] = {}
    # (position, check, active members, right sides) of the checks whose
    # left sides are still to be evaluated.
    pending = []
    for i, chk in enumerate(checks):
        active = [m for m in chk.members if p >= m.min_prime]
        if not active:
            note = f"requires p >= {chk.min_prime}"
            reports[i] = _skip(chk, p, STATUS_SKIP_HYPOTHESIS, note)
            continue
        rhs_vals: dict[str, int] = {}
        for mem in active:
            try:
                rhs_vals[mem.label] = mem.rhs(p, chk.e)
            except PDividesDenominator:
                note = f"p divides a Bernoulli denominator at {mem.label}"
                reports[i] = _skip(chk, p, STATUS_SKIP_POLE, note)
                break
        else:
            pending.append((i, chk, active, rhs_vals))
    if not pending:
        return reports, family_lhs
    top = max(chk.e for _, chk, _, _ in pending)
    values = PrefixTable.for_prime(p, top).single_values(
        m.lhs_spec for _, _, active, _ in pending for m in active
    )
    for i, chk, active, rhs_vals in pending:
        ring = p**chk.e
        lhs_vals = {m.label: values[m.lhs_spec] % ring for m in active}
        bad = [lab for lab in lhs_vals if lhs_vals[lab] != rhs_vals[lab]]
        multi = len(chk.members) > 1
        reports[i] = CheckReport(
            chk.check_id,
            p,
            chk.e,
            STATUS_FAIL if bad else STATUS_PASS,
            _render(lhs_vals, multi),
            _render(rhs_vals, multi),
            note=("fail: " + "; ".join(bad)) if bad else "",
        )
        family_lhs.update(
            (chk.check_id, (lhs_vals[m.label], m.label in bad)) for m in active if m.family
        )
    return reports, family_lhs


def run_check(check_id: str, p: int) -> CheckReport:
    """Evaluate one check at one prime: the one-unit case of a scan.
    Members whose smallest admissible prime exceeds p are left out, a check
    with none left and a Bernoulli pole come back as skipped reports, never
    exceptions.  A p that is not an odd prime, or one above MAX_PRIME,
    raises ValueError."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    (report,), _ = _run_unit((p, (check_id,)))
    return report


def _with_refit(
    chk: CongruenceCheck, reports: list[CheckReport], known: Mapping[int, tuple[int, bool]]
) -> list[CheckReport]:
    """The check's reports, with the refitted coefficient of its fit-family
    member appended to the note of each row where that member failed, when
    it failed at three primes or more.  `known` maps each prime where the
    scan evaluated the member to its raw left side and whether it failed
    there, and the fit reads those primes alone."""
    failed = {p for p, (_, bad) in known.items() if bad}
    if len(failed) < 3:
        return reports
    fam = fit_families()[chk.fit_family]
    try:
        fit = fit_coefficient(lambda p: known[p][0], fam.w, known, t=fam.t, e=fam.e)
        suffix = (
            f"fitted={fit.coefficient}" if fit.coefficient is not None else "fitted=unstable"
        )
    except InsufficientPrimes:
        suffix = "fitted=insufficient-primes"
    return [r._replace(note=f"{r.note}; {suffix}") if r.p in failed else r for r in reports]


class ProcessPoolExecutor:
    """max_workers processes sharing the items of one map(fn, items): one
    fork per worker after the first, with the calling process as worker 0.
    Worker w runs items[w::max_workers]; each child pickles back its
    results, or the exception that stopped it, over a pipe and leaves by
    os._exit, so it never returns into its caller's stack.  map gives the
    results in item order and reaps every child before it returns or
    raises: a child's exception is raised again in the caller, a child that
    exits without a complete message raises RuntimeError naming its exit
    status, and an exception in the caller kills the children first.

    The name and call shape are concurrent.futures' (a context manager
    whose map(fn, items) gives the results in order), so that a real
    process pool still fits here: _run_scans starts every parallel run
    through this name, which is the one place to replace or count them."""

    def __init__(self, max_workers: int):
        self.max_workers = max_workers

    def __enter__(self) -> ProcessPoolExecutor:
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def map(self, fn: Callable, items: Iterable) -> list:
        import pickle
        import signal

        items = list(items)
        n = self.max_workers
        results: list = [None] * len(items)
        children: list = []  # (pid, read end of its pipe) of each unreaped child
        try:
            for w in range(1, n):
                read_fd, write_fd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        os.close(read_fd)
                        for _, pipe in children:
                            pipe.close()
                        try:
                            message = (True, [fn(x) for x in items[w::n]])
                        except BaseException as exc:
                            message = (False, exc)
                        with open(write_fd, "wb") as pipe:
                            pickle.dump(message, pipe)
                        code = 0
                    finally:
                        os._exit(code)
                os.close(write_fd)
                children.append((pid, open(read_fd, "rb")))
            results[0::n] = [fn(x) for x in items[0::n]]
            for w in range(1, n):
                pid, pipe = children[0]
                with pipe:
                    data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                del children[0]
                code = os.waitstatus_to_exitcode(status)
                if code != 0:
                    raise RuntimeError(
                        f"worker process {pid} exited with status {code} before sending its results"
                    )
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                results[w::n] = value
        finally:
            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        return results


def _run_scans(
    scans: Iterable[tuple[str, Iterable[int]]], jobs: int | None
) -> list[CheckReport]:
    """Run (check id, primes) scans prime-major: one unit per prime, holding
    every check scanned at it.  With jobs workers, the caller and jobs - 1
    forked children share the units round-robin; with one worker, or where
    os has no fork, every unit runs in process.  Reports are sorted by
    (check_id, p), with refit notes appended per check.  jobs=None means
    one worker per CPU."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    at_prime: dict[int, list[str]] = {}
    for check_id, primes in scans:
        for p in primes:
            at_prime.setdefault(p, []).append(check_id)
    # Largest primes first: their units cost the most, so dealing them out
    # in turn gives every worker a like share of the large ones.
    units = [(p, tuple(ids)) for p, ids in sorted(at_prime.items(), reverse=True)]
    # Every worker starts at once: never more than the units or the CPUs.
    cpus = os.cpu_count() or 1
    workers = min(jobs or cpus, len(units), cpus)
    if workers > 1 and hasattr(os, "fork"):
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_unit, units))
    else:
        done = map(_run_unit, units)
    reports: list[CheckReport] = []
    known: dict[str, dict[int, tuple[int, bool]]] = {}
    for (p, _), (unit_reports, family_lhs) in zip(units, done):
        reports.extend(unit_reports)
        for check_id, lhs in family_lhs.items():
            known.setdefault(check_id, {})[p] = lhs
    reports.sort(key=_report_order)
    out: list[CheckReport] = []
    for check_id, group in itertools.groupby(reports, key=operator.attrgetter("check_id")):
        out.extend(_with_refit(get_check(check_id), list(group), known.get(check_id, {})))
    return out


def run_scan(
    check_id: str, primes: Iterable[int], *, jobs: int | None = None
) -> list[CheckReport]:
    """Evaluate a check over a set of primes, one report per prime, sorted
    by prime: a battery of one check.  Output is byte-identical for every
    parallelism degree.

    When the check's fit-family member fails at three primes or more, the
    refitted coefficient is appended to the note of each row where it
    failed.
    """
    get_check(check_id)  # an unknown id fails before the primes are read
    plist = sorted(set(primes))
    for p in plist:
        if not is_odd_prime(p):
            raise ValueError(f"prime list contains {p}, which is not an odd prime")
    if not plist:
        return []
    return _run_scans(((check_id, plist),), jobs)


# Default scan battery: the full mod-p, mod-p^2 and mod-p^3 verification
# ranges.
DEFAULT_BATTERY: tuple[tuple[str, int, int], ...] = (
    ("cor-sun-modp", 3, 1000),
    ("thm23-general", 3, 300),
    ("hoffman-chain-B3sq", 11, 300),
    ("hjh2-over-j2", 11, 300),
    ("h5h4-over-j3", 17, 300),
    ("tauraso-lemma", 3, 300),
    ("cor-sun-modp2", 7, 500),
    ("h2h-over-j", 7, 500),
    ("h2-over-j3-modp2", 7, 500),
    ("h3-over-j-modp2", 7, 500),
    ("lemma-modp2-triples", 7, 500),
    ("cor-conjecture2", 7, 500),
    ("h-ones-modp3", 5, 200),
)


def run_battery(*, jobs: int | None = None) -> list[CheckReport]:
    """Run the default battery; reports sorted by (check_id, p).  The
    checks share one set of forked workers, and at each prime one table.
    The primes come from the sieve, so none is checked again."""
    from .exactnum import primes_in_range

    return _run_scans(
        ((check_id, primes_in_range(lo, hi)) for check_id, lo, hi in DEFAULT_BATTERY), jobs
    )


# ---------------------------------------------------------------------------
# Coefficient fitting.
# ---------------------------------------------------------------------------


def fit_coefficient(
    family: Callable[[int], int],
    w: int,
    primes: Iterable[int],
    *,
    t: int = 0,
    e: int = 1,
) -> FitResult:
    """Fit c in  family(p) = c * p^t * B_{p-w}  (mod p^e) across primes.

    Primes with p <= w are skipped (hypothesis), primes where p divides
    the denominator of B_{p-w} (bernoulli-pole) or its numerator
    (bernoulli-zero) are skipped, and primes where p^t does not divide the
    left side are skipped (p-power: the ansatz cannot hold there).  The
    surviving per-prime coefficients live mod p^(e-t); they are CRT-combined
    and rationally reconstructed.  The coefficient is None when the combined
    residue has no representative within the reconstruction bound; a
    returned one reproduces every per-prime value by construction.
    """
    if e not in EXPONENTS or not 0 <= t < e:
        raise ValueError(f"need e in {{1,2,3}} and 0 <= t < e, got t={t}, e={e}")
    ring = e - t
    usable: list[int] = []
    skipped: list[tuple[int, str]] = []
    coefficients: list[int] = []
    for p in sorted(set(primes)):
        if p <= w:
            skipped.append((p, "hypothesis"))
            continue
        try:
            b = int(bernoulli_mod(p - w, p, ring))
        except PDividesDenominator:
            skipped.append((p, "bernoulli-pole"))
            continue
        if b % p == 0:
            skipped.append((p, "bernoulli-zero"))
            continue
        value = int(family(p)) % p**e
        if t and value % p**t:
            skipped.append((p, "p-power"))
            continue
        m = p**ring
        coefficients.append((value // p**t) % m * mod_inverse_int(b, m) % m)
        usable.append(p)
    if len(usable) < 3:
        raise InsufficientPrimes(
            f"only {len(usable)} usable primes (need >= 3); skipped: {skipped}"
        )
    x, modulus = crt_list(coefficients, [p**ring for p in usable])
    return FitResult(
        primes_used=tuple(usable),
        skipped=tuple(skipped),
        coefficient=rational_reconstruct(x, modulus),
    )


# ---------------------------------------------------------------------------
# Report serialization.
# ---------------------------------------------------------------------------


def reports_to_csv(reports: Iterable[CheckReport]) -> str:
    """CSV with header check_id,p,e,status,lhs,rhs,note, sorted by
    (check_id, p), "\\n" line endings."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CheckReport._fields)
    writer.writerows(sorted(reports, key=_report_order))
    return buf.getvalue()


def reports_to_json(reports: Iterable[CheckReport]) -> str:
    """Versioned JSON document: {"schema": 1, "reports": [...]}."""
    import json

    doc = {
        "schema": 1,
        "reports": [r.to_dict() for r in sorted(reports, key=_report_order)],
    }
    return json.dumps(doc, indent=2) + "\n"
