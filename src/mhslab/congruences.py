"""Named congruence checks over ranges of primes, plus a cross-prime
rational-coefficient fitter.

A check pairs a directly computed left side (multiple harmonic sums or
weighted sums, evaluated mod p^e through a PrefixTable) with an
independently evaluated right side built only from Bernoulli numbers,
binomial coefficients and exact rationals.  The two sides never share
code, so a passing scan is genuine cross-validation.  Primes that violate
a check's hypothesis are reported as skipped rows, never dropped.

Checks are plain data.  A member's left side names a PrefixTable method
and its arguments; its right side is a sum of monomials
c * p^t * prod B_{kp-w}, which one evaluator reduces mod p^e.  The closed
forms with real logic are builders that return such a sum together with
the smallest prime it holds for; only the registry calls them.

Scans run prime-major.  The work unit is one prime with the ids of every
check to evaluate there; a battery (and a scan, a battery of one check)
sends all its units through one process pool, or runs them in process
with one worker, and run_check is the one-unit case.  multiprocessing and
concurrent.futures load with the first pool, so importing the package, a
serial scan and every other command never pay for them.  At a prime the
checks share one PrefixTable per exponent e, and every H(...) member at
that e goes through one trie walk, so a prefix chain common to several
checks is built once.

A fit family is a registry member tagged with the family's name.  A
refit fits that member's left sides at exactly the primes where the
scan's units evaluated it, and builds no table of its own.

The fitter inverts the ansatz  lhs(p) = c * p^t * B_{p-w} (mod p^e)  per
prime, combines the per-prime values of c by CRT, and applies rational
reconstruction.  A returned coefficient reproduces every per-prime value
by construction: reconstruction returns a/b only when gcd(b, M) = 1 and
a == x*b (mod M), and x is every per-prime value mod its prime power.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import os
import random
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .bernoulli import PDividesDenominator, bernoulli_mod
from .exactnum import crt_list, is_prime, mod_inverse_int, rational_reconstruct
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
    "thm23_random_triples",
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
# value B_{p-5} holds mod p only.  The coefficients were recovered by
# CRT/lattice reduction across 25 primes and confirmed at every prime
# 11 <= p < 400; at p = 7 even this form fails.  H(4,1) = -H(1,4).
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
    factor would be the undefined B_{p-1}.
    """
    total = 0
    for coef, t, factors in terms:
        if coef == 0 or t >= e:
            continue
        m = p ** (e - t)
        v = coef.numerator * mod_inverse_int(coef.denominator, m) % m
        for k, w in factors:
            v = v * int(bernoulli_mod(k * p - w, p, e - t)) % m
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


def _depth2_modp2(s1: int, s2: int) -> tuple[int, Terms]:
    """H(s1, s2; p-1) mod p^2.  At even weight w, for p > w+1:
    p [(-1)^s1 (s2 C(w+1,s1) - s1 C(w+1,s2)) - w] B_{p-w-1} / (2(w+1)).
    At odd weight only (1,4) and (4,1) are known, for p >= 11."""
    if min(s1, s2) < 1:
        raise ValueError("exponents must be >= 1")
    w = s1 + s2
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


def _odd_weight(s1: int, s2: int, s3: int) -> int:
    if min(s1, s2, s3) < 1:
        raise ValueError("exponents must be >= 1")
    w = s1 + s2 + s3
    if w % 2 == 0:
        raise ValueError(f"weight {w} must be odd")
    return w


def _depth3_oddweight(s1: int, s2: int, s3: int) -> tuple[int, Terms]:
    """H(s1, s2, s3; p-1) mod p at odd weight w, for p > w:
    ((-1)^s1 C(w,s1) - (-1)^s3 C(w,s3)) B_{p-w} / (2w)."""
    w = _odd_weight(s1, s2, s3)
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


def _thm23(s1: int, s2: int, s3: int) -> tuple[int, Terms]:
    """sum_j H_j^(s1) H_j^(s3) / j^(s2) mod p at odd weight w, for p > w:
    [(-1)^(s1+1) C(w,s1) + ((-1)^s3 + 2(-1)^(s1+s2)) C(w,s3)] B_{p-w} / (2w)."""
    w = _odd_weight(s1, s2, s3)
    num = (-1) ** (s1 + 1) * math.comb(w, s1) + (
        (-1) ** s3 + 2 * (-1) ** (s1 + s2)
    ) * math.comb(w, s3)
    return w + 1, _one(Fraction(num, 2 * w), w)


# ---------------------------------------------------------------------------
# Check registry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckMember:
    """One congruence inside a check, as plain data: a label, the smallest
    admissible prime, the left side as a PrefixTable method name with its
    arguments, and the right side as a sum of Bernoulli monomials.  A
    member whose right side is one monomial c * p^t * B_{p-w} may carry
    the name of the fit family it defines."""

    label: str
    min_prime: int
    lhs_spec: tuple[str, tuple]
    rhs_terms: Terms
    family: str | None = None

    def lhs(self, table: PrefixTable) -> int:
        method, args = self.lhs_spec
        return getattr(table, method)(*args)

    @property
    def composition(self) -> tuple[int, ...] | None:
        """The composition of an H(s_1..s_k; p-1) left side, else None."""
        method, args = self.lhs_spec
        return tuple(args[0]) if method == "mhs" else None

    def rhs(self, p: int, e: int) -> int:
        return _evaluate(self.rhs_terms, p, e)


@dataclass(frozen=True)
class CongruenceCheck:
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


@dataclass(frozen=True)
class CheckReport:
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
        return dict(zip(_REPORT_FIELDS, _report_row(self)))


# The report layout, stated once: the CSV header and rows and the JSON
# objects take their columns from the dataclass, and every report list is
# sorted by (check_id, p).
_REPORT_FIELDS = tuple(f.name for f in fields(CheckReport))
_report_row = operator.attrgetter(*_REPORT_FIELDS)
_report_order = operator.attrgetter("check_id", "p")


@dataclass(frozen=True)
class FitFamily:
    """A left-side family p -> value mod p^e with its ansatz parameters:
    the Bernoulli offset w, the power t of p split off, and the ring
    exponent e.  The left side is that of a registry member."""

    name: str
    w: int
    t: int
    e: int
    member: CheckMember

    def lhs(self, p: int) -> int:
        return self.member.lhs(PrefixTable.for_prime(p, self.e))


@dataclass(frozen=True, eq=False)
class FitResult:
    family: str
    w: int
    t: int
    e: int
    primes_used: tuple[int, ...]
    skipped: tuple[tuple[int, str], ...]
    coefficient: Fraction | None
    residuals: Mapping[int, int]


THM23_TRIPLES_SEED = 97


def thm23_random_triples(
    count: int = 50, *, smax: int = 5, wmax: int = 15, seed: int = THM23_TRIPLES_SEED
) -> tuple[tuple[int, int, int], ...]:
    """Deterministic sample of distinct odd-weight exponent triples."""
    available = sum(
        1
        for t in itertools.product(range(1, smax + 1), repeat=3)
        if sum(t) % 2 and sum(t) <= wmax
    )
    if count > available:
        raise ValueError(
            f"only {available} distinct odd-weight triples have parts <= {smax}"
            f" and weight <= {wmax}, asked for {count}"
        )
    rng = random.Random(seed)
    seen: set[tuple[int, int, int]] = set()
    out: list[tuple[int, int, int]] = []
    while len(out) < count:
        t = (rng.randint(1, smax), rng.randint(1, smax), rng.randint(1, smax))
        if sum(t) % 2 == 0 or sum(t) > wmax or t in seen:
            continue
        seen.add(t)
        out.append(t)
    return tuple(out)


def _built(
    label: str, lhs_spec: tuple[str, tuple], built: tuple[int, Terms], family: str | None = None
) -> CheckMember:
    """A member whose right side and smallest prime come from a closed form."""
    min_prime, terms = built
    return CheckMember(label, min_prime, lhs_spec, terms, family)


def _homogeneous_check(
    check_id: str, e: int, description: str, pairs: tuple[tuple[int, int], ...]
) -> CongruenceCheck:
    return CongruenceCheck(
        check_id,
        e,
        description,
        tuple(
            _built(f"s={s},l={l}", ("mhs", ((s,) * l,)), _homogeneous(s, l, e))
            for s, l in pairs
        ),
    )


@lru_cache(maxsize=1)
def _registry() -> Mapping[str, CongruenceCheck]:
    checks = [
        # sum_j (H_j^(s))^2 / j^s == C(3s,s) B_{p-3s} / (3s)  (mod p)
        CongruenceCheck(
            "cor-sun-modp",
            1,
            "squared harmonic factor over j^s against C(3s,s)B_{p-3s}/(3s), mod p",
            tuple(
                CheckMember(
                    f"s={s}",
                    3 * s + 3,
                    ("weighted_sum2", (s, s, s)),
                    _one(Fraction(math.comb(3 * s, s), 3 * s), 3 * s),
                    "sun-s1" if s == 1 else None,
                )
                for s in range(1, 6)
            ),
        ),
        # Even s makes the Bernoulli index odd, so the same sum vanishes mod p.
        CongruenceCheck(
            "cor-sun-modp-even-zero",
            1,
            "squared harmonic factor over j^s vanishes mod p for even s",
            tuple(
                CheckMember(f"s={s}", 3 * s + 3, ("weighted_sum2", (s, s, s)), ())
                for s in (2, 4)
            ),
        ),
        # sum_j (H_j^(s))^2 / j^r for odd r, general closed form mod p.
        CongruenceCheck(
            "cor-first-display",
            1,
            "squared harmonic factor over j^r (odd r) against"
            " (-1)^(s+r) C(2s+r,s) B_{p-2s-r}/(2s+r), mod p",
            tuple(
                CheckMember(
                    f"s={s},r={r}",
                    2 * s + r + 1,
                    ("weighted_sum2", (s, r, s)),
                    _one(
                        Fraction((-1) ** (s + r) * math.comb(2 * s + r, s), 2 * s + r),
                        2 * s + r,
                    ),
                )
                for s, r in ((1, 1), (1, 3), (2, 1), (2, 3), (3, 1), (3, 3))
            ),
        ),
        # Randomized odd-weight triples against the bracketed closed form.
        CongruenceCheck(
            "thm23-general",
            1,
            "two-factor weighted sums at random odd-weight exponent triples, mod p",
            tuple(
                _built(
                    f"({s1},{s2},{s3})",
                    ("weighted_sum2", (s1, s2, s3)),
                    _thm23(s1, s2, s3),
                )
                for s1, s2, s3 in thm23_random_triples()
            ),
        ),
        # The chain of weight-6 sums proportional to B_{p-3}^2.
        CongruenceCheck(
            "hoffman-chain-B3sq",
            1,
            "five weight-6 weighted sums, each a rational multiple of B_{p-3}^2, mod p",
            tuple(
                CheckMember(
                    f"({s1},{s2},{s3})",
                    11,
                    ("weighted_sum2", (s1, s2, s3)),
                    ((coef, 0, ((1, 3), (1, 3))),),
                )
                for (s1, s2, s3), coef in (
                    ((2, 3, 1), Fraction(1, 2)),
                    ((3, 2, 1), Fraction(-1, 3)),
                    ((3, 1, 2), Fraction(-1, 6)),
                    ((1, 4, 1), Fraction(-1, 3)),
                    ((4, 1, 1), Fraction(1, 6)),
                )
            ),
        ),
        CongruenceCheck(
            "hjh2-over-j2",
            1,
            "sum_j H_j H_j^(2) / j^2 against -B_{p-5}/2, mod p",
            (
                CheckMember(
                    "(1,2,2)",
                    11,
                    ("weighted_sum2", (1, 2, 2)),
                    _one(Fraction(-1, 2), 5),
                ),
            ),
        ),
        CongruenceCheck(
            "h5h4-over-j3",
            1,
            "sum_j H_j^(5) H_j^(4) / j^3 vanishes mod p for p >= 17",
            (CheckMember("(5,3,4)", 17, ("weighted_sum2", (5, 3, 4)), ()),),
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
                    ("mhs", ((2,) * a + (mid,) + (2,) * b,)),
                    _tauraso_232(a, b, mid),
                    "zero" if (a, mid, b) == (1, 1, 1) else None,  # coefficient 0
                )
                for mid in (3, 1)
                for a in range(4)
                for b in range(4)
            ),
        ),
        # Weight-5 length-3 sums and H(4,1) mod p^2.  The (1,2,1) coefficient
        # is pinned at -9/10: the displayed +9/10 fails every prime (checked
        # directly at p = 7, 11, ...), while -9/10 matches and also agrees
        # with the way the value is consumed downstream.
        CongruenceCheck(
            "lemma-modp2-triples",
            2,
            "pinned weight-5 depth-3 values and H(4,1), mod p^2",
            (
                CheckMember(
                    "H(1,2,1)", 7, ("mhs", ((1, 2, 1),)), _one(Fraction(-9, 10), 5, t=1)
                ),
                CheckMember(
                    "H(2,1,1)", 7, ("mhs", ((2, 1, 1),)), _one(Fraction(3, 5), 5, t=1)
                ),
                CheckMember(
                    "H(1,1,2)", 7, ("mhs", ((1, 1, 2),)), _one(Fraction(11, 10), 5, t=1)
                ),
                # Stated for p >= 7 in the source result, but the value at
                # p = 7 is 2p, not 0 (H(1,3,1;6) = 5747/34560 = 7*821/34560
                # and 821/34560 == 2 mod 7).  The vanishing starts at 11.
                CheckMember("H(1,3,1)", 11, ("mhs", ((1, 3, 1),)), ()),
                _built("H(4,1)", ("mhs", ((4, 1),)), _depth2_modp2(4, 1)),
            ),
        ),
        CongruenceCheck(
            "cor-sun-modp2",
            2,
            "sum_j H_j^2 / j^2 against (4/5) p B_{p-5}, mod p^2",
            (
                CheckMember(
                    "(1,2,1)",
                    7,
                    ("weighted_sum2", (1, 2, 1)),
                    _one(Fraction(4, 5), 5, t=1),
                ),
            ),
        ),
        CongruenceCheck(
            "h2h-over-j",
            2,
            "sum_j H_j^(2) H_j / j against -(7/10) p B_{p-5}, mod p^2",
            (
                CheckMember(
                    "(2,1,1)",
                    7,
                    ("weighted_sum2", (2, 1, 1)),
                    _one(Fraction(-7, 10), 5, t=1),
                ),
            ),
        ),
        # The quotable statement is "== B_{p-5}", but that only holds mod p.
        # Mod p^2 the sum equals H(1,4) (the depth-3 and product terms in the
        # expansion vanish for p >= 11), so the member reuses that closed form.
        CongruenceCheck(
            "h2-over-j3-modp2",
            2,
            "sum_j H_j^2 / j^3 against the refined B_{p-5}/B_{2p-6} form, mod p^2",
            (_built("(1,3,1)", ("weighted_sum2", (1, 3, 1)), _depth2_modp2(1, 4)),),
        ),
        CongruenceCheck(
            "h3-over-j-modp2",
            2,
            "sum_j H_j^3 / j against (3/2) p B_{p-5}, mod p^2",
            (
                CheckMember(
                    "(1,1,1,1)",
                    7,
                    ("weighted_sum3", (1, 1, 1, 1)),
                    _one(Fraction(3, 2), 5, t=1),
                    "h3-over-j",
                ),
            ),
        ),
        CongruenceCheck(
            "cor-conjecture2",
            2,
            "squared harmonic factor over j^s, even s, against"
            " [C(3s+1,s-1)+s/2] p B_{p-3s-1}/(3s+1), mod p^2",
            tuple(
                CheckMember(
                    f"s={s}",
                    3 * s + 2,
                    ("weighted_sum2", (s, s, s)),
                    _one(
                        Fraction(2 * math.comb(3 * s + 1, s - 1) + s, 2 * (3 * s + 1)),
                        3 * s + 1,
                        t=1,
                    ),
                )
                for s in (2, 4)
            ),
        ),
        CongruenceCheck(
            "h-ones-modp3",
            3,
            "all-ones sums H({1}^k) against the p^2 B_{p-k-2} closed form, mod p^3",
            tuple(
                _built(f"k={k}", ("mhs", ((1,) * k,)), _homogeneous(1, k, 3))
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
                CheckMember(
                    f"H({s1},{s2})",
                    s1 + s2 + 1,
                    ("mhs", ((s1, s2),)),
                    _one(
                        Fraction((-1) ** s2 * math.comb(s1 + s2, s1), s1 + s2), s1 + s2
                    ),
                )
                for s1, s2 in itertools.product(range(1, 5), repeat=2)
            ),
        ),
        CongruenceCheck(
            "depth2-modp2",
            2,
            "H(s1,s2) at even weight against the p B_{p-w-1} form, and the"
            " refined H(1,4) and H(4,1), mod p^2",
            tuple(
                _built(f"H({s1},{s2})", ("mhs", ((s1, s2),)), _depth2_modp2(s1, s2))
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
                _built(
                    f"H({s1},{s2},{s3})",
                    ("mhs", ((s1, s2, s3),)),
                    _depth3_oddweight(s1, s2, s3),
                )
                for s1, s2, s3 in (
                    (1, 1, 1), (1, 2, 2), (2, 1, 2), (1, 3, 1), (3, 1, 1), (2, 2, 3)
                )
            ),
        ),
    ]

    # The four weight-9/weight-7 triple-factor sums.  Right sides use the
    # published constants on purpose; scans attach the refitted value to
    # any fail rows rather than silently replacing the constant.
    for check_id, exps, coef, offset, fam in (
        ("cor34-first", (2, 2, 2, 3), Fraction(-13), 9, "cor34-1"),
        ("cor34-second", (2, 3, 2, 2), Fraction(83, 3), 9, "cor34-2"),
        ("cor34-third", (2, 2, 2, 1), Fraction(-21, 8), 7, "cor34-3"),
        ("cor34-fourth", (2, 1, 2, 2), Fraction(3), 7, "cor34-4"),
    ):
        checks.append(
            CongruenceCheck(
                check_id,
                1,
                f"triple-factor weighted sum at exponents {exps} against"
                f" {coef} B_{{p-{offset}}}, mod p",
                (
                    CheckMember(
                        f"({','.join(map(str, exps))})",
                        11,
                        ("weighted_sum3", exps),
                        _one(coef, offset),
                        fam,
                    ),
                ),
            )
        )

    return MappingProxyType({c.check_id: c for c in checks})


def registry() -> Mapping[str, CongruenceCheck]:
    """The immutable id -> check mapping (built once per process)."""
    return _registry()


def get_check(check_id: str) -> CongruenceCheck:
    reg = _registry()
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
    for chk in _registry().values():
        for mem in chk.members:
            if mem.family:
                ((_, t, ((_, w),)),) = mem.rhs_terms
                fams[mem.family] = FitFamily(mem.family, w, t, chk.e, mem)
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
# data, so that any multiprocessing start method can send it to a worker.
Unit = tuple[int, tuple[str, ...]]


def _run_unit(unit: Unit) -> tuple[list[CheckReport], dict[str, int]]:
    """Evaluate the unit's checks at its prime.  Returns their reports, in
    the unit's order, and, by check id, the raw left side of each tagged
    fit-family member that was evaluated, for a refit.

    The checks share one PrefixTable per exponent e, and every H(...)
    member of every check at that e goes through one trie walk, so a prefix
    chain common to several checks is built once.  Members whose smallest
    admissible prime exceeds p are left out; a check with none left and a
    Bernoulli pole come back as skipped reports, never exceptions.
    """
    p, check_ids = unit
    checks = [get_check(cid) for cid in check_ids]
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    reports: list = [None] * len(checks)
    family_lhs: dict[str, int] = {}
    # e -> (position, check, active members, right sides) of the checks
    # whose left sides are still to be evaluated.
    pending: dict[int, list] = {}
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
            pending.setdefault(chk.e, []).append((i, chk, active, rhs_vals))
    for e, group in pending.items():
        t = PrefixTable.for_prime(p, e)
        sums = t.mhs_many(
            c for _, _, active, _ in group for m in active if (c := m.composition) is not None
        )
        for i, chk, active, rhs_vals in group:
            lhs_vals = {
                m.label: m.lhs(t) if m.composition is None else sums[m.composition]
                for m in active
            }
            bad = [lab for lab in lhs_vals if lhs_vals[lab] != rhs_vals[lab]]
            multi = len(chk.members) > 1
            reports[i] = CheckReport(
                chk.check_id,
                p,
                e,
                STATUS_FAIL if bad else STATUS_PASS,
                _render(lhs_vals, multi),
                _render(rhs_vals, multi),
                note=("fail: " + "; ".join(bad)) if bad else "",
            )
            family_lhs.update((chk.check_id, lhs_vals[m.label]) for m in active if m.family)
    return reports, family_lhs


def run_check(check_id: str, p: int) -> CheckReport:
    """Evaluate one check at one prime: the one-unit case of a scan.
    Members whose smallest admissible prime exceeds p are left out, a check
    with none left and a Bernoulli pole come back as skipped reports, never
    exceptions.  A prime above MAX_PRIME raises ValueError."""
    (report,), _ = _run_unit((p, (check_id,)))
    return report


def _resolve_jobs(jobs: int | None) -> int:
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        return jobs
    env = os.environ.get("MHSLAB_THREADS")
    if env:
        try:
            val = int(env)
        except ValueError:
            raise ValueError(f"MHSLAB_THREADS must be an integer, got {env!r}")
        if val < 1:
            raise ValueError(f"MHSLAB_THREADS must be >= 1, got {val}")
        return val
    return os.cpu_count() or 1


def _with_refit(
    chk: CongruenceCheck, reports: list[CheckReport], known: Mapping[int, int]
) -> list[CheckReport]:
    """The check's reports, with the refitted coefficient appended to each
    fail row's note when the check carries a fit family and at least three
    primes fail.  `known` maps each prime where the scan evaluated the
    family's member to its raw left side, and the fit reads those primes
    alone."""
    if chk.fit_family is None or sum(r.status == STATUS_FAIL for r in reports) < 3:
        return reports
    fam = fit_families()[chk.fit_family]
    try:
        fit = fit_coefficient(known.__getitem__, fam.w, known, t=fam.t, e=fam.e, name=fam.name)
        suffix = (
            f"fitted={fit.coefficient}" if fit.coefficient is not None else "fitted=unstable"
        )
    except InsufficientPrimes:
        suffix = "fitted=insufficient-primes"
    return [
        replace(r, note=f"{r.note}; {suffix}" if r.note else suffix)
        if r.status == STATUS_FAIL
        else r
        for r in reports
    ]


def ProcessPoolExecutor(*args, **kwargs):
    """concurrent.futures.ProcessPoolExecutor(*args, **kwargs), imported
    on the first call.  _run_scans starts every pool through this name, so
    it is the one place to replace the pool."""
    from concurrent.futures import ProcessPoolExecutor as executor

    return executor(*args, **kwargs)


def _run_scans(
    scans: Iterable[tuple[str, Iterable[int]]], jobs: int | None
) -> list[CheckReport]:
    """Run (check id, primes) scans prime-major: one unit per prime, holding
    every check scanned at it, and every unit through one pool, or in
    process when one worker suffices.  Reports are sorted by
    (check_id, p), with refit notes appended per check."""
    at_prime: dict[int, list[str]] = {}
    for check_id, primes in scans:
        for p in primes:
            at_prime.setdefault(p, []).append(check_id)
    # Largest primes first: their units cost the most, so the pool's last
    # chunks are short ones, and their rows come and go before the
    # reports pile up.
    units = [(p, tuple(ids)) for p, ids in sorted(at_prime.items(), reverse=True)]
    # The pool starts every worker at once: never more than the units or
    # the CPUs.
    workers = min(_resolve_jobs(jobs), len(units), os.cpu_count() or 1)
    reports: list[CheckReport] = []
    known: dict[str, dict[int, int]] = {}
    with contextlib.ExitStack() as stack:
        if workers > 1:
            import multiprocessing

            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                ctx = None
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers, mp_context=ctx))
            done = pool.map(_run_unit, units, chunksize=max(1, len(units) // (8 * workers)))
        else:
            done = map(_run_unit, units)
        for (p, _), (unit_reports, family_lhs) in zip(units, done):
            reports.extend(unit_reports)
            for check_id, value in family_lhs.items():
                known.setdefault(check_id, {})[p] = value
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

    When the check carries a fit family and at least three primes fail,
    the refitted coefficient is appended to each fail row's note.
    """
    get_check(check_id)  # an unknown id fails before the primes are read
    plist = sorted(set(primes))
    for p in plist:
        if p < 3 or not is_prime(p):
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
    checks share one pool, and at each prime one table per exponent."""
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
    name: str = "custom",
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
    if e not in (1, 2, 3) or not 0 <= t < e:
        raise ValueError(f"need e in {{1,2,3}} and 0 <= t < e, got t={t}, e={e}")
    ring = e - t
    usable: list[int] = []
    skipped: list[tuple[int, str]] = []
    residuals: dict[int, int] = {}
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
        residuals[p] = (value // p**t) % m * mod_inverse_int(b, m) % m
        usable.append(p)
    if len(usable) < 3:
        raise InsufficientPrimes(
            f"only {len(usable)} usable primes (need >= 3); skipped: {skipped}"
        )
    x, modulus = crt_list([residuals[p] for p in usable], [p**ring for p in usable])
    return FitResult(
        family=name,
        w=w,
        t=t,
        e=e,
        primes_used=tuple(usable),
        skipped=tuple(skipped),
        coefficient=rational_reconstruct(x, modulus),
        residuals=residuals,
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
    writer.writerow(_REPORT_FIELDS)
    writer.writerows(map(_report_row, sorted(reports, key=_report_order)))
    return buf.getvalue()


def reports_to_json(reports: Iterable[CheckReport]) -> str:
    """Versioned JSON document: {"schema": 1, "reports": [...]}."""
    import json

    doc = {
        "schema": 1,
        "reports": [r.to_dict() for r in sorted(reports, key=_report_order)],
    }
    return json.dumps(doc, indent=2) + "\n"
