"""Bernoulli numbers against independent oracles.

Two cross-checks that share no code with the tangent-number triangle
under test:

* the Akiyama-Tanigawa triangle, which produces B_n (with B_1 = +1/2;
  even indices are unaffected by the sign convention);
* prime power sums: sum_{a=1}^{p-1} a^m = p*B_m + O(p^2) termwise from
  Faulhaber's formula, giving B_m mod p for even m with (p-1) not
  dividing m.
"""

from fractions import Fraction

import pytest

from mhslab.bernoulli import (
    _CACHE,
    DEFAULT_CAP,
    BernoulliCache,
    IndexAboveCap,
    PDividesDenominator,
    _p_times_bernoulli,
    _power_sum,
    bernoulli_exact,
    bernoulli_mod,
    bernoulli_mod_int,
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


def test_power_sum_pairs_match_the_naive_sum():
    # _power_sum sums a <= (p-1)/2 only, pairing a with p - a; the plain
    # sum over every a < p is the oracle, for odd and even n, for n below
    # and above k, and around multiples of p - 1.
    for p in primes_in_range(3, 200):
        for k in (1, 2, 3, 4):
            m = p**k
            indices = range(3 * p) if p < 14 else (*range(8), p - 1, p, 2 * p - 2, 3 * p + 1)
            for n in indices:
                naive = sum(pow(a, n, m) for a in range(1, p)) % m
                assert _power_sum(n, p, m) == naive, (p, k, n)


def test_p_times_bernoulli_mod_p_is_von_staudt_clausen():
    # The mod-p shortcut against the power sum it replaces.
    for p in primes_in_range(3, 200):
        for n in range(2, 3 * p + 1, 2):
            assert _p_times_bernoulli(n, p, 1) == _power_sum(n, p, p), (p, n)


def test_bernoulli_mod_values_and_poles(monkeypatch):
    assert int(bernoulli_mod(4, 7, 1)) == 3  # -1/30 mod 7
    assert int(bernoulli_mod(0, 7, 3)) == 1
    assert int(bernoulli_mod(3, 11, 2)) == 0
    with pytest.raises(PDividesDenominator):
        bernoulli_mod(4, 5, 1)  # (5-1) | 4
    with pytest.raises(PDividesDenominator):
        bernoulli_mod(12, 7, 2)  # (7-1) | 12
    with pytest.raises(ValueError):
        bernoulli_mod(-2, 7, 1)
    # Refusals come before any power sum.
    def refuse(*args):
        raise AssertionError("power sum started before the input was refused")

    monkeypatch.setattr("mhslab.bernoulli._power_sum", refuse)
    with pytest.raises(ValueError, match="modulus base must be an odd prime, got 9"):
        bernoulli_mod(4, 9, 1)  # 9 is not prime
    with pytest.raises(ValueError, match="exponent must be 1, 2 or 3, got 4"):
        bernoulli_mod(4, 7, 4)
    with pytest.raises(ValueError, match="exceeds the limit 10000000 for O"):
        bernoulli_mod(4, 10000019, 1)  # the smallest prime above MAX_PRIME


def test_bernoulli_mod_matches_exact_reduction_below_200():
    # The power-sum path against the exact values, poles included.
    for p in primes_in_range(3, 199):
        for n in range(2 * p + 1):
            exact = bernoulli_exact(n)
            for e in (1, 2, 3):
                if exact.denominator % p == 0:
                    with pytest.raises(PDividesDenominator):
                        bernoulli_mod(n, p, e)
                else:
                    assert bernoulli_mod(n, p, e) == rational_to_residue(exact, p, e), (n, p, e)


def test_bernoulli_mod_int_is_the_residue_value_with_the_same_refusals():
    for p in (3, 5, 7, 31, 101):
        for n in range(2 * p + 1):
            for e in (1, 2, 3):
                try:
                    want = int(bernoulli_mod(n, p, e))
                except PDividesDenominator:
                    with pytest.raises(PDividesDenominator):
                        bernoulli_mod_int(n, p, e)
                    continue
                assert bernoulli_mod_int(n, p, e) == want, (n, p, e)
    with pytest.raises(ValueError, match="index must be >= 0"):
        bernoulli_mod_int(-2, 7, 1)
    with pytest.raises(ValueError, match="exceeds the limit 10000000 for O"):
        bernoulli_mod_int(4, 10000019, 1)


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


@pytest.mark.parametrize("n", [1000, 1500, 2000])
def test_bernoulli_mod_matches_exact_reduction_up_to_the_cap(n):
    # Faulhaber's power sums share no code with the triangle; no pole here.
    for p in (1009, 1013, 2003):
        assert rational_to_residue(bernoulli_exact(n), p, 2) == bernoulli_mod(n, p, 2), (n, p)


def test_von_staudt_clausen_denominator_at_the_cap():
    assert von_staudt_clausen_check(DEFAULT_CAP)


def test_cache_extends_from_where_it_stopped():
    grown, straight = BernoulliCache(), BernoulliCache()
    for n in (40, 41, 200):
        grown.warm(n)
    straight.warm(200)
    values = [grown.get(n) for n in range(201)]
    assert values == [straight.get(n) for n in range(201)]
    oracle = akiyama_tanigawa(60)
    assert all(values[n] == oracle[n] for n in range(61) if n != 1)


def test_cache_cap_and_index_validation():
    cache = BernoulliCache()
    with pytest.raises(IndexAboveCap):
        cache.get(DEFAULT_CAP + 2)
    assert cache.get(DEFAULT_CAP + 1) == 0  # odd indices never touch the cap
    with pytest.raises(ValueError):
        cache.get(-1)
    with pytest.raises(IndexAboveCap):
        bernoulli_exact(DEFAULT_CAP + 2)
    assert len(cache._even) == 1  # nothing was computed


def test_private_cache_is_independent():
    published, row = len(_CACHE._even), _CACHE._row
    mine = BernoulliCache()
    assert mine.get(12) == Fraction(-691, 2730)
    assert len(mine._even) == 7
    assert len(_CACHE._even) == published and _CACHE._row is row
