"""Bernoulli numbers against independent oracles.

Two cross-checks that share no code with the recurrence under test:

* the Akiyama-Tanigawa triangle, which produces B_n (with B_1 = +1/2;
  even indices are unaffected by the sign convention);
* prime power sums: sum_{a=1}^{p-1} a^m = p*B_m + O(p^2) termwise from
  Faulhaber's formula, giving B_m mod p for even m with (p-1) not
  dividing m.
"""

from fractions import Fraction

import pytest

from mhslab.bernoulli import (
    BernoulliCache,
    IndexAboveCap,
    PDividesDenominator,
    bernoulli_exact,
    bernoulli_mod,
    von_staudt_clausen_check,
)
from mhslab.exactnum import primes_in_range, rational_to_residue


def akiyama_tanigawa(nmax: int) -> list[Fraction]:
    """B_0..B_nmax by the Akiyama-Tanigawa transform."""
    out = []
    row: list[Fraction] = []
    for n in range(nmax + 1):
        row.append(Fraction(1, n + 1))
        for j in range(n, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def test_matches_akiyama_tanigawa_through_60():
    oracle = akiyama_tanigawa(60)
    for n in range(61):
        if n == 1:
            continue  # conventions differ in sign at n = 1
        assert bernoulli_exact(n) == oracle[n], f"mismatch at B_{n}"


def test_convention_and_known_values():
    assert bernoulli_exact(0) == 1
    assert bernoulli_exact(1) == Fraction(-1, 2)
    assert bernoulli_exact(2) == Fraction(1, 6)
    assert bernoulli_exact(4) == Fraction(-1, 30)
    assert bernoulli_exact(10) == Fraction(5, 66)
    assert bernoulli_exact(12) == Fraction(-691, 2730)
    assert bernoulli_exact(20) == Fraction(-174611, 330)


def test_odd_indices_vanish():
    for n in range(3, 99, 2):
        assert bernoulli_exact(n) == 0


def test_even_values_alternate_in_sign():
    for k in range(1, 31):
        expected = 1 if k % 2 else -1
        assert (1 if bernoulli_exact(2 * k) > 0 else -1) == expected


def test_von_staudt_clausen_denominators_through_200():
    for n in range(2, 201, 2):
        assert von_staudt_clausen_check(n), f"denominator wrong at B_{n}"


@pytest.mark.parametrize("n", [0, 1, 3])
def test_von_staudt_clausen_rejects_bad_index(n):
    with pytest.raises(ValueError):
        von_staudt_clausen_check(n)


def test_power_sum_oracle_mod_p_squared():
    # Faulhaber term by term: every lower-order contribution carries at
    # least p^2 once (p-1) does not divide m, so sum a^m == p*B_m (mod p^2)
    # pins B_m mod p.  (Mod p^3 the relation can break, e.g. p = 5, m = 14,
    # where p divides both C(15, 12) and the denominator of B_12.)
    for p in (5, 7, 11, 13, 17):
        for m in range(2, 21, 2):
            s = sum(pow(a, m, p**2) for a in range(1, p)) % p**2
            if m % (p - 1) == 0:
                with pytest.raises(PDividesDenominator):
                    bernoulli_mod(m, p, 1)
                continue
            assert s == p * int(bernoulli_mod(m, p, 1)) % p**2, (p, m)


def test_bernoulli_mod_values_and_poles():
    assert int(bernoulli_mod(4, 7, 1)) == 3  # -1/30 mod 7
    assert int(bernoulli_mod(0, 7, 3)) == 1
    assert int(bernoulli_mod(3, 11, 2)) == 0
    with pytest.raises(PDividesDenominator):
        bernoulli_mod(4, 5, 1)  # (5-1) | 4
    with pytest.raises(PDividesDenominator):
        bernoulli_mod(12, 7, 2)  # (7-1) | 12
    with pytest.raises(ValueError):
        bernoulli_mod(-2, 7, 1)
    with pytest.raises(ValueError):
        bernoulli_mod(4, 9, 1)  # 9 is not prime
    with pytest.raises(ValueError, match="exceeds the limit 10000000"):
        bernoulli_mod(4, 10000019, 1)  # the smallest prime above MAX_PRIME


def test_bernoulli_mod_matches_exact_reduction_below_200():
    # The power-sum path against the exact recurrence, poles included.
    for p in primes_in_range(3, 199):
        for n in range(2 * p + 1):
            exact = bernoulli_exact(n)
            for e in (1, 2, 3):
                if exact.denominator % p == 0:
                    with pytest.raises(PDividesDenominator):
                        bernoulli_mod(n, p, e)
                else:
                    assert bernoulli_mod(n, p, e) == rational_to_residue(exact, p, e), (n, p, e)


def test_kummer_congruence_past_the_exact_cap():
    # B_{2p-6}/(2p-6) == B_{p-5}/(p-5) (mod p); index 40016 is far beyond
    # the exact cache's cap, which bernoulli_mod never consults.
    p = 20011
    b2, b1 = int(bernoulli_mod(2 * p - 6, p, 1)), int(bernoulli_mod(p - 5, p, 1))
    assert b2 * pow(2 * p - 6, -1, p) % p == b1 * pow(p - 5, -1, p) % p
    assert b1 != 0


def test_pole_indices_match_von_staudt_clausen():
    # bernoulli_mod must raise exactly when p divides the denominator.
    for p in primes_in_range(3, 30):
        for n in range(2, 40, 2):
            has_pole = bernoulli_exact(n).denominator % p == 0
            if has_pole:
                with pytest.raises(PDividesDenominator):
                    bernoulli_mod(n, p, 1)
            else:
                r = bernoulli_mod(n, p, 1)
                num, den = bernoulli_exact(n).numerator, bernoulli_exact(n).denominator
                assert int(r) * den % p == num % p


def test_irregular_pair_gives_zero_residue():
    # (37, 32) is the smallest irregular pair; the residue exists but is 0.
    assert int(bernoulli_mod(32, 37, 1)) == 0


def test_cache_cap_and_index_validation():
    small = BernoulliCache(cap=10)
    assert small.get(10) == Fraction(5, 66)
    with pytest.raises(IndexAboveCap):
        small.get(12)
    assert small.get(11) == 0  # odd indices never touch the cap
    with pytest.raises(ValueError):
        small.get(-1)
    with pytest.raises(IndexAboveCap):
        bernoulli_exact(2002)


def test_private_cache_is_independent():
    mine = BernoulliCache(cap=40)
    assert bernoulli_exact(12, cache=mine) == Fraction(-691, 2730)
    assert von_staudt_clausen_check(40, cache=mine)
