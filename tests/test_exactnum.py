"""Unit tests for the exact-arithmetic layer: modular inverses, primality,
residue values, rational reconstruction, CRT."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhslab.exactnum import (
    DenominatorDivisibleByP,
    NotAUnit,
    Residue,
    crt_list,
    is_prime,
    mod_inverse_int,
    primes_in_range,
    rational_reconstruct,
    rational_to_residue,
)


@given(st.integers(2, 10**6), st.integers(-10**6, 10**6))
def test_mod_inverse_int_roundtrip(m, a):
    if math.gcd(a, m) == 1:
        inv = mod_inverse_int(a, m)
        assert 0 <= inv < m
        assert a * inv % m == 1
    else:
        with pytest.raises(NotAUnit, match=rf"\(gcd {math.gcd(a, m)}\)"):
            mod_inverse_int(a, m)


def test_is_prime_matches_sieve_below_2000():
    sieve = set(primes_in_range(0, 2000))
    for n in range(2000):
        assert is_prime(n) == (n in sieve)


@pytest.mark.parametrize(
    "n", [561, 1105, 1729, 2465, 6601, 3215031751, 318665857834031151167461]
)
def test_is_prime_rejects_pseudoprimes(n):
    # Carmichael numbers, the smallest strong pseudoprime to bases 2,3,5,7,
    # and psi_12 = 399165290221 * 798330580441, the smallest one to every
    # prime base up to 37.
    assert not is_prime(n)


def test_is_prime_large_known_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_is_prime_refuses_what_it_cannot_certify():
    # psi_13 = 1287836182261 * 2575672364521 is a strong pseudoprime to
    # every prime base up to 41: from there on, no answer is certain.
    psi13 = 3317044064679887385961981
    assert not is_prime(psi13 - 1)
    for n in (psi13, psi13 + 2, 2**89 - 1):
        with pytest.raises(ValueError, match="cannot certify"):
            is_prime(n)


def test_primes_in_range_boundaries():
    assert primes_in_range(0, 1) == []
    assert primes_in_range(2, 2) == [2]
    assert primes_in_range(10, 10) == []
    assert primes_in_range(20, 10) == []
    assert primes_in_range(90, 100) == [97]
    assert primes_in_range(-5, 10) == [2, 3, 5, 7]


def test_residue_construction_normalizes():
    r = Residue(30, 7, 2)
    assert r.value == 30 and r.modulus == 49
    assert Residue(-1, 7, 1).value == 6
    assert Residue(49, 7, 2).value == 0


@pytest.mark.parametrize("p,e", [(4, 1), (2, 1), (9, 1), (-7, 1), (7, 0), (7, 4)])
def test_residue_rejects_bad_ring(p, e):
    with pytest.raises(ValueError):
        Residue(1, p, e)


def test_residue_dunder_views():
    r = Residue(5, 7, 2)
    assert int(r) == 5
    assert str(r) == "5 (mod 49)"
    assert hash(Residue(5, 7, 2)) == hash(r)


def test_rational_to_residue_values():
    assert rational_to_residue(Fraction(1, 3), 7, 1).value == 5
    assert rational_to_residue(Fraction(-1, 2), 7, 2).value == 24
    assert rational_to_residue(10, 7, 1).value == 3
    with pytest.raises(DenominatorDivisibleByP):
        rational_to_residue(Fraction(1, 14), 7, 2)


@pytest.mark.parametrize("m", [101, 997, 10007])
def test_rational_reconstruct_exhaustive_box(m):
    """Every reduced fraction inside the symmetric descent box must
    round-trip exactly (for odd m any two box fractions sharing a residue
    coincide, so the answer is forced)."""
    bound = math.isqrt(m // 2)
    for b in range(1, bound + 1):
        if math.gcd(b, m) != 1:
            continue
        inv_b = mod_inverse_int(b, m)
        for a in range(-bound, bound + 1):
            if math.gcd(a, b) != 1:
                continue
            r = a % m * inv_b % m
            assert rational_reconstruct(r, m) == Fraction(a, b)


def test_rational_reconstruct_edges():
    assert rational_reconstruct(0, 101) == Fraction(0)
    assert rational_reconstruct(1, 101) == Fraction(1)
    # residue with no bounded preimage
    assert rational_reconstruct(71, 10007) is None
    with pytest.raises(ValueError):
        rational_reconstruct(5, 1)


@given(st.integers(0, 10**12))
def test_rational_reconstruct_output_is_certified(r):
    m = 10**12 + 39  # prime
    q = rational_reconstruct(r, m)
    if q is not None:
        assert (q.numerator - r * q.denominator) % m == 0
        assert math.gcd(q.denominator, m) == 1


def test_crt_list_roundtrip():
    moduli = [7**2, 11, 13**3, 9]
    x = 123456
    residues = [x % n for n in moduli]
    got, prod = crt_list(residues, moduli)
    assert prod == math.prod(moduli)
    assert got == x % prod
    for r, n in zip(residues, moduli):
        assert got % n == r


def test_crt_list_errors():
    with pytest.raises(NotAUnit):
        crt_list([1, 2], [6, 9])  # moduli share a factor
    with pytest.raises(ValueError):
        crt_list([1, 2, 3], [5, 7])  # length mismatch
    assert crt_list([], []) == (0, 1)


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from([5, 7, 11, 13, 17, 19]), min_size=1, max_size=4, unique=True),
    st.integers(0, 10**8),
)
def test_crt_list_random_agreement(moduli, x):
    got, prod = crt_list([x % n for n in moduli], moduli)
    assert got == x % prod
