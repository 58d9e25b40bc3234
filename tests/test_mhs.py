"""Nested harmonic sums against a brute-force enumeration oracle, plus the
table plumbing (inverse row, single-value and trie paths, caching, mode
validation)."""

import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhslab.compositions import Composition, stuffle
from mhslab.exactnum import mod_inverse_int, primes_in_range, rational_to_residue
from mhslab.identities import eval_formal_sum
from mhslab.mhs import (
    EXACT_N_CAP,
    PrefixTable,
    mhs_exact,
    mhs_mod,
    weighted_sum2,
    weighted_sum3,
)


def brute_mhs(parts, n):
    """Direct sum over strictly increasing index tuples."""
    parts = tuple(parts)
    if not parts:
        return Fraction(1)
    total = Fraction(0)
    for js in itertools.combinations(range(1, n + 1), len(parts)):
        term = Fraction(1)
        for j, s in zip(js, parts):
            term /= Fraction(j**s)
        total += term
    return total


def brute_weighted2(s1, s2, s3, n):
    h = lambda s, m: sum((Fraction(1, j**s) for j in range(1, m + 1)), Fraction(0))
    return sum(
        (h(s1, j) * h(s3, j) / j**s2 for j in range(1, n + 1)), Fraction(0)
    )


SMALL_COMPS = [
    (),
    (1,),
    (3,),
    (1, 1),
    (2, 1),
    (1, 2),
    (2, 3),
    (1, 1, 1),
    (2, 1, 3),
    (1, 2, 1),
]


@pytest.mark.parametrize("parts", SMALL_COMPS)
def test_exact_matches_brute_force(parts):
    for n in range(0, 13):
        assert mhs_exact(parts, n) == brute_mhs(parts, n), (parts, n)


def test_conventions():
    assert mhs_exact((), 0) == 1
    assert mhs_exact((), 25) == 1
    assert mhs_exact((1, 2, 1), 2) == 0  # upper index below the depth
    assert mhs_exact((5,), 0) == 0
    assert mhs_exact((1, 2), 6) == Fraction(2929, 4320)
    assert mhs_exact((2, 1), 4) == Fraction(181, 144)


def test_weighted_sums_match_brute_force():
    for s1, s2, s3 in [(1, 1, 1), (2, 1, 2), (1, 3, 2)]:
        for n in (0, 1, 5, 9):
            assert weighted_sum2(s1, s2, s3, n) == brute_weighted2(s1, s2, s3, n)
    # the three-factor version against its own direct sum
    h = lambda s, m: brute_mhs((s,), m)
    for n in (0, 3, 7):
        direct = sum(
            (h(2, j) * h(1, j) * h(3, j) / j for j in range(1, n + 1)), Fraction(0)
        )
        assert weighted_sum3(2, 1, 1, 3, n) == direct


def test_longer_table_matches_brute_force():
    # A table built for N > n scales its rows by lcm(1..N), not lcm(1..n).
    table = PrefixTable.for_exact(30)
    h = lambda s, m: brute_mhs((s,), m)
    for n in (0, 1, 7):
        for parts in SMALL_COMPS:
            assert mhs_exact(parts, n, table=table) == brute_mhs(parts, n), (parts, n)
            f = stuffle(parts, (2,))
            assert eval_formal_sum(f, n, table=table) == brute_mhs(parts, n) * h(2, n)
        assert weighted_sum2(2, 1, 2, n, table=table) == brute_weighted2(2, 1, 2, n)
        direct = sum(
            (h(2, j) * h(1, j) * h(3, j) / j for j in range(1, n + 1)), Fraction(0)
        )
        assert weighted_sum3(2, 1, 1, 3, n, table=table) == direct


@pytest.mark.parametrize("p", [7, 11, 13])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_mod_agrees_with_exact_reduction(p, e):
    # denominators at upper index p-1 divide lcm(1..p-1)^w, so reduction
    # mod p^e is always defined; both routes must land on the same residue.
    table = PrefixTable.for_prime(p, e)
    for parts in [(1,), (1, 1), (2, 1), (1, 3, 1), (2, 2, 2)]:
        exact = mhs_exact(parts, p - 1)
        assert mhs_mod(parts, p, e, table=table) == rational_to_residue(exact, p, e)
    w2 = weighted_sum2(1, 2, 1, p=p, e=e, table=table)
    assert w2 == rational_to_residue(weighted_sum2(1, 2, 1, p - 1), p, e)
    w3 = weighted_sum3(1, 1, 2, 1, p=p, e=e, table=table)
    assert w3 == rational_to_residue(weighted_sum3(1, 1, 2, 1, p - 1), p, e)


def test_pinned_residue_value():
    # depth-3 sum whose leading p cancels only partially: the residue mod
    # 49 is 14, not 0 (it vanishes mod 49 only from p = 11 on).
    assert int(mhs_mod((1, 3, 1), 7, 2)) == 14
    for p in (11, 13, 17):
        assert int(mhs_mod((1, 3, 1), p, 2)) == 0


def test_recurrence_peels_last_part():
    for parts in [(2,), (1, 2), (2, 1, 1)]:
        head, last = parts[:-1], parts[-1]
        for m in range(1, 12):
            expected = mhs_exact(parts, m - 1) + Fraction(1, m**last) * mhs_exact(
                head, m - 1
            )
            assert mhs_exact(parts, m) == expected


comps = st.lists(st.integers(1, 3), min_size=0, max_size=3).map(Composition)


@settings(max_examples=60)
@given(comps, comps, st.integers(0, 20))
def test_stuffle_evaluates_to_the_product(a, b, n):
    assert mhs_exact(a, n) * mhs_exact(b, n) == eval_formal_sum(stuffle(a, b), n)


def test_stuffle_evaluates_to_the_product_mod_p():
    p = 13
    table = PrefixTable.for_prime(p, 2)
    for a, b in [((1,), (2,)), ((1, 1), (2,)), ((2, 1), (1, 2))]:
        lhs = int(mhs_mod(a, p, 2, table=table)) * int(mhs_mod(b, p, 2, table=table))
        assert lhs % p**2 == int(eval_formal_sum(stuffle(a, b), p=p, e=2, table=table))


def test_inverse_row_and_powers():
    t = PrefixTable.for_prime(101, 2)
    m = 101**2
    inv1 = t.inv_powers(1)
    assert inv1[0] == 0
    for j in range(1, 101):
        assert inv1[j] == mod_inverse_int(j, m)
    inv3 = t.inv_powers(3)
    for j in (1, 2, 57, 100):
        assert inv3[j] == pow(mod_inverse_int(j, m), 3, m)


def test_harmonic_prefix_row():
    t = PrefixTable.for_exact(8)
    assert t.scale == 840
    row = t.harmonic_prefix(2)
    assert row[0] == 0
    # exact rows hold numerators over scale**weight
    assert row[4] == (Fraction(1) + Fraction(1, 4) + Fraction(1, 9) + Fraction(1, 16)) * 840**2


def test_table_validation():
    with pytest.raises(ValueError):
        PrefixTable(-1)
    with pytest.raises(ValueError):
        PrefixTable(5, prime=6)
    with pytest.raises(ValueError):
        PrefixTable(5, prime=7)  # mod tables live at n = p-1
    with pytest.raises(ValueError):
        PrefixTable(6, prime=7, exponent=5)
    with pytest.raises(ValueError):
        PrefixTable.for_exact(3).inv_powers(0)


def test_wrapper_table_validation():
    exact = PrefixTable.for_exact(10)
    modtab = PrefixTable.for_prime(7, 1)
    with pytest.raises(ValueError):
        mhs_exact((1,), 20, table=exact)  # table too short
    with pytest.raises(ValueError):
        mhs_exact((1,), 5, table=modtab)  # wrong mode
    with pytest.raises(ValueError):
        mhs_mod((1,), 11, table=modtab)  # wrong prime
    with pytest.raises(ValueError):
        mhs_mod((1,), 7, 2, table=modtab)  # wrong exponent
    with pytest.raises(ValueError):
        weighted_sum2(1, 1, 1)  # neither n nor p
    with pytest.raises(ValueError):
        weighted_sum2(1, 1, 1, 5, p=7)  # both
    with pytest.raises(ValueError):
        weighted_sum3(1, 1, 1, 1)


def test_exact_cap_enforced():
    with pytest.raises(ValueError):
        mhs_exact((1,), 51, cap=50)
    assert EXACT_N_CAP >= 10_000


def test_mhs_all_prefix_is_consistent():
    t = PrefixTable.for_exact(15)
    row = t.mhs_all((1, 2))
    for m in (0, 1, 7, 15):
        assert row[m] == mhs_exact((1, 2), m) * t.scale**3


# --- single-value and trie paths against the rows and the exact oracle -------

PRIMES_BELOW_200 = primes_in_range(3, 199)


def compositions_upto(weight):
    """Every composition of weight 1..weight."""
    return [
        Composition(c)
        for w in range(1, weight + 1)
        for k in range(1, w + 1)
        for c in itertools.product(range(1, w + 1), repeat=k)
        if sum(c) == w
    ]


WEIGHT6 = compositions_upto(6)


@pytest.mark.parametrize("p", PRIMES_BELOW_200)
def test_inverse_row_is_the_modular_inverse(p):
    for e in (1, 2, 3):
        m = p**e
        row = PrefixTable.for_prime(p, e).inv_powers(1)
        assert row == [0] + [pow(j, -1, m) for j in range(1, p)]


@pytest.mark.parametrize("p", PRIMES_BELOW_200)
def test_single_value_trie_and_rows_agree_with_exact_reduction(p):
    exact_table = PrefixTable.for_exact(p - 1)
    exact = exact_table.mhs_many(WEIGHT6)
    assert exact == {c: exact_table.mhs_all(c)[p - 1] for c in WEIGHT6}
    for e in (1, 2, 3):
        t = PrefixTable.for_prime(p, e)
        many = t.mhs_many(WEIGHT6)
        assert set(many) == set(WEIGHT6)
        for c in WEIGHT6:
            want = int(rational_to_residue(exact_table.to_fraction(exact[c], c.weight), p, e))
            assert t.mhs(c) == many[c] == t.mhs_all(c)[p - 1] == want, (p, e, c)


def test_trie_takes_duplicates_the_empty_composition_and_mixed_chains():
    comps = [
        (1, 1, 1, 1),
        (1, 1),
        (),
        (2,),
        (2, 2, 2),
        (1, 1),
        (2, 1),
        (1, 2, 3),
        (),
        (3,),
        (1,),
        (2, 2),
    ]
    for t, n in ((PrefixTable.for_prime(97, 2), None), (PrefixTable.for_exact(40), 25)):
        got = t.mhs_many(iter(comps), n)
        assert set(got) == set(comps)
        assert got == {c: t.mhs(c, n) for c in comps}
        assert got[()] == 1
    assert PrefixTable.for_prime(7).mhs_many([]) == {}
    assert PrefixTable.for_prime(7).mhs_many([()]) == {(): 1}


def test_trie_chain_holds_at_most_two_rows():
    # A chain of eight wanted prefixes must peak like a single depth-3 sum
    # (two rows), not hold one row per prefix.
    t = PrefixTable.for_prime(10007, 2)
    t.inv_powers(1)
    row_bytes = 40 * t.n  # a list slot plus a small int per cell

    def peak(comps):
        tracemalloc.start()
        try:
            t.mhs_many(comps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    chain = [(1,) * k for k in range(1, 9)]
    assert peak(chain) < peak([(1, 1, 1)]) + row_bytes // 2


@pytest.mark.parametrize("p", PRIMES_BELOW_200)
def test_weighted_sum_single_values_equal_the_rows(p):
    triples = list(itertools.product((1, 2, 3), repeat=3))
    quads = list(itertools.product((1, 2), repeat=4))
    tables = [PrefixTable.for_prime(p, e) for e in (1, 2, 3)] + [PrefixTable.for_exact(p - 1)]
    for t in tables:
        for tr in triples:
            assert t.weighted_sum2(*tr) == t.weighted_sum2_all(*tr)[p - 1], (p, t.modulus, tr)
        for q in quads:
            assert t.weighted_sum3(*q) == t.weighted_sum3_all(*q)[p - 1], (p, t.modulus, q)
    exact = tables[-1]
    for n in range(0, p, max(1, p // 7)):
        assert exact.weighted_sum2(2, 1, 3, n) == exact.weighted_sum2_all(2, 1, 3)[n]
        assert exact.weighted_sum3(1, 2, 1, 2, n) == exact.weighted_sum3_all(1, 2, 1, 2)[n]
        assert exact.mhs((2, 1, 1), n) == exact.mhs_all((2, 1, 1))[n]


def test_single_value_upper_index_validation():
    t = PrefixTable.for_exact(10)
    for bad in (-1, 11):
        with pytest.raises(ValueError):
            t.mhs((1,), bad)
        with pytest.raises(ValueError):
            t.mhs_many([(1,)], bad)
        with pytest.raises(ValueError):
            t.weighted_sum2(1, 1, 1, bad)
        with pytest.raises(ValueError):
            t.weighted_sum3(1, 1, 1, 1, bad)
