"""Nested harmonic sums against a brute-force enumeration oracle, rows and
single values against a plain-recurrence oracle, plus the table plumbing
(inverse row, single-value and trie paths, the kept row, mode
validation)."""

import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mhslab.mhs as mhs
from mhslab.compositions import Composition, stuffle
from mhslab.congruences import run_check
from mhslab.exactnum import Residue, mod_inverse_int, primes_in_range, rational_to_residue
from mhslab.identities import (
    eval_formal_sum,
    probe_thm31_random,
    run_thm21_suite,
    run_thm31_suite,
)
from mhslab.mhs import (
    EXACT_BITS_CAP,
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


def reference_row(t, spec):
    """The row of spec over 0..t.n by the plain recurrences over Python
    ints, H(P, s; j) = H(P, s; j-1) + j^(-s) H(P; j-1) and the weighted
    sum's running sum, with none of the table's blocks, carries, prefix
    walk or kernels: residues mod p^e, or exact numerators over
    t.scale**weight with j^(-s) = (scale // j)^s."""
    kind, args = spec
    m, n = t.modulus, t.n
    if m is None:
        inv = lambda j, s: (t.scale // j) ** s
        red = lambda v: v
    else:
        inv = lambda j, s: pow(j, -s, m)
        red = lambda v: v % m

    def h(parts):
        row = [1] * (n + 1)
        for s in parts:
            prev, row = row, [0]
            for j in range(1, n + 1):
                row.append(red(row[-1] + inv(j, s) * prev[j - 1]))
        return row

    if kind == "mhs":
        return h(args)
    s1, s2, *rest = args
    factors = [h((s,)) for s in (s1, *rest)]
    row = [0]
    for j in range(1, n + 1):
        term = inv(j, s2)
        for f in factors:
            term *= f[j]
        row.append(red(row[-1] + term))
    return row


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


def test_more_parts_than_the_upper_index_build_no_prefixes():
    # H(parts; n) = 0 for n < len(parts); no prefix of the parts is built.
    ones = ("mhs", (1,) * 4000)
    t = PrefixTable.for_exact(3)
    tracemalloc.start()
    try:
        assert mhs_exact(ones[1], 3) == 0
        assert t.single_values([ones], rows=True) == {ones: [0, 0, 0, 0]}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert int(mhs_mod((1,) * 7, 7)) == 0
    assert PrefixTable.for_prime(7).single_values([("mhs", (1,) * 7)]) == {("mhs", (1,) * 7): 0}
    for t in (PrefixTable.for_exact(6), PrefixTable.for_prime(7, 2)):
        for parts in ((1,) * 6, (2, 1, 3, 1, 1, 2)):
            spec = ("mhs", parts)
            assert t.single_values([spec], rows=True)[spec] == reference_row(t, spec)
            assert t.single_values([spec])[spec] == reference_row(t, spec)[-1]
    # the weight is still checked first
    with pytest.raises(ValueError, match="exceeds cap"):
        PrefixTable.for_exact(3).single_values([("mhs", (40000,) * 4)])


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

    def at(row, w, n):
        return table.to_fraction(row[n], w)

    for n in (0, 1, 7):
        for parts in SMALL_COMPS:
            w = sum(parts)
            assert at(table.mhs_all(parts), w, n) == brute_mhs(parts, n), (parts, n)
            f = stuffle(parts, (2,))
            got = sum(c * at(table.mhs_all(comp), comp.weight, n) for comp, c in f)
            assert got == brute_mhs(parts, n) * h(2, n)
        assert at(table.weighted_sum2_all(2, 1, 2), 5, n) == brute_weighted2(2, 1, 2, n)
        direct = sum(
            (h(2, j) * h(1, j) * h(3, j) / j for j in range(1, n + 1)), Fraction(0)
        )
        assert at(table.weighted_sum3_all(2, 1, 1, 3), 7, n) == direct


@pytest.mark.parametrize("p", [7, 11, 13])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_mod_agrees_with_exact_reduction(p, e):
    # denominators at upper index p-1 divide lcm(1..p-1)^w, so reduction
    # mod p^e is always defined; both routes must land on the same residue.
    table = PrefixTable.for_prime(p, e)
    for parts in [(1,), (1, 1), (2, 1), (1, 3, 1), (2, 2, 2)]:
        exact = mhs_exact(parts, p - 1)
        value = table.single_values([("mhs", parts)])["mhs", parts]
        assert Residue(value, p, e) == rational_to_residue(exact, p, e)
        assert mhs_mod(parts, p, e) == rational_to_residue(exact, p, e)
    w2 = Residue(table.weighted_sum2(1, 2, 1), p, e)
    assert w2 == weighted_sum2(1, 2, 1, p=p, e=e)
    assert w2 == rational_to_residue(weighted_sum2(1, 2, 1, p - 1), p, e)
    w3 = Residue(table.weighted_sum3(1, 1, 2, 1), p, e)
    assert w3 == weighted_sum3(1, 1, 2, 1, p=p, e=e)
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
        values = table.single_values([("mhs", a), ("mhs", b)])
        lhs = values["mhs", a] * values["mhs", b]
        assert lhs % p**2 == int(eval_formal_sum(stuffle(a, b), p=p, e=2))


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


def test_cached_rows_are_handed_out_as_copies():
    # Editing a returned row must not change the table.  At p = 101, with
    # the cached rows lent out, these edits turned weighted_sum2(1,1,1)
    # from 76 into 94 and H(1,2) from 76 into 4.
    for make in (lambda: PrefixTable.for_prime(101), lambda: PrefixTable.for_exact(30)):
        t, fresh = make(), make()
        t.inv_powers(1)[5] = 0
        t.harmonic_prefix(1)[7] = 3
        assert t.inv_powers(1) == fresh.inv_powers(1)
        assert t.harmonic_prefix(1) == fresh.harmonic_prefix(1)
        assert t.weighted_sum2(1, 1, 1) == fresh.weighted_sum2(1, 1, 1)
        h12 = [("mhs", (1, 2))]
        assert t.single_values(h12) == fresh.single_values(h12)
    assert PrefixTable.for_prime(101).weighted_sum2(1, 1, 1) == 76


def _refuse(*args):
    raise AssertionError("work started before the input was refused")


def test_table_validation(monkeypatch):
    with pytest.raises(ValueError):
        PrefixTable(-1)
    with pytest.raises(ValueError):
        PrefixTable(5, prime=6)
    with pytest.raises(ValueError):
        PrefixTable(5, prime=7)  # mod tables live at n = p-1
    with pytest.raises(ValueError):
        PrefixTable(6, prime=7, exponent=5)
    with pytest.raises(ValueError, match="exceeds the limit 10000000"):
        PrefixTable.for_prime(10000019)  # the smallest prime above MAX_PRIME
    assert PrefixTable.for_prime(9999991).n == 9999990  # the largest below; no rows yet
    with pytest.raises(ValueError):
        PrefixTable.for_exact(3).inv_powers(0)
    # exactnum's ring and O(p) rules refuse bad input at every mod-p^e entry
    # point, with one message each, before a kernel or a power sum runs.
    monkeypatch.setattr(mhs, "_kernel", _refuse)
    monkeypatch.setattr("mhslab.bernoulli._power_sum", _refuse)
    ring = "modulus base must be an odd prime, got 9"
    exponent = "exponent must be 1, 2 or 3, got 4"
    limit = "prime 10000019 exceeds the limit 10000000 for O(p) work"
    for refused, message in (
        (lambda: Residue(0, 9, 1), ring),
        (lambda: Residue(0, 7, 4), exponent),
        (lambda: PrefixTable.for_prime(9), ring),
        (lambda: PrefixTable.for_prime(7, 4), exponent),
        (lambda: PrefixTable.for_prime(10000019), limit),
        (lambda: run_check("cor-sun-modp", 9), "p must be an odd prime, got 9"),
        (lambda: run_check("cor-sun-modp", 10000019), limit),  # at bernoulli_mod
        (lambda: run_check("h5h4-over-j3", 10000019), limit),  # at its table
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            refused()


def test_wrapper_table_validation():
    with pytest.raises(ValueError):
        weighted_sum2(1, 1, 1)  # neither n nor p
    with pytest.raises(ValueError):
        weighted_sum2(1, 1, 1, 5, p=7)  # both
    with pytest.raises(ValueError):
        weighted_sum3(1, 1, 1, 1)


def test_exact_cap_enforced(monkeypatch):
    # Every exact entry point refuses n = EXACT_N_CAP + 1 before it builds
    # a row, or even the lcm that scales the rows.
    def bomb(*args):
        raise AssertionError("built before the cap was checked")

    monkeypatch.setattr(math, "lcm", bomb)
    monkeypatch.setattr(PrefixTable, "inv_powers", bomb)
    big = EXACT_N_CAP + 1
    calls = [
        lambda: PrefixTable.for_exact(big),
        lambda: mhs_exact((1,), big),
        lambda: weighted_sum2(1, 1, 1, big),
        lambda: weighted_sum3(1, 1, 1, 1, big),
        lambda: eval_formal_sum(stuffle((1,), (2,)), big),
        lambda: run_thm21_suite(1, big),
        lambda: run_thm31_suite(1, (4, big)),
        lambda: probe_thm31_random(1, smax=1, nmax=big),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="exceeds cap 10000"):
            call()
    assert EXACT_N_CAP >= 10_000


def test_exact_bits_cap_enforced(monkeypatch):
    # At n = 3 (scale 6, a 3-bit scale) weight 33334 passes the cap by two
    # bits.  Every exact entry point refuses it before it takes a power or
    # builds a row; the weights at or below the cap are still served.
    def bomb(*args):
        raise AssertionError("a power was taken before the cap was checked")

    t = PrefixTable.for_exact(3)
    w = EXACT_BITS_CAP // 3 + 1
    monkeypatch.setattr(PrefixTable, "_block_powers", bomb)
    calls = [
        lambda: mhs_exact((w,), 3),
        lambda: mhs_exact((1,) * w, 3),
        lambda: weighted_sum2(1, w - 2, 1, 3),
        lambda: weighted_sum3(1, w - 3, 1, 1, 3),
        lambda: eval_formal_sum(stuffle((1,), (w - 1,)), 3),
        lambda: t.inv_powers(w),
        lambda: t.harmonic_prefix(w),
        lambda: t.mhs_all((2, w - 2)),
        lambda: t.weighted_sum2_all(1, 1, w - 2),
        lambda: t.weighted_sum3_all(1, 1, 1, w - 3),
        lambda: t.to_fraction(1, w),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"up to {3 * w} bits, which exceeds cap 100000"):
            call()
    monkeypatch.undo()
    assert mhs_exact((w - 1,), 3) == 1 + Fraction(1, 2 ** (w - 1)) + Fraction(1, 3 ** (w - 1))
    # Mod mode has scale 1, and so has exact mode at n <= 1.
    assert mhs_mod((w,), 5) == Residue(sum(pow(j, -w, 5) for j in range(1, 5)), 5, 1)
    assert mhs_exact((w,), 1) == 1
    # The largest exact values in use: weight 6 at the upper-index cap.
    assert 6 * math.lcm(*range(1, EXACT_N_CAP + 1)).bit_length() <= EXACT_BITS_CAP


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
    specs = [("mhs", c) for c in WEIGHT6]
    exact = exact_table.single_values(specs)
    assert exact == {("mhs", c): exact_table.mhs_all(c)[p - 1] for c in WEIGHT6}
    for e in (1, 2, 3):
        t = PrefixTable.for_prime(p, e)
        many = t.single_values(specs)
        assert set(many) == set(specs)
        for spec in specs:
            c = spec[1]
            want = int(rational_to_residue(exact_table.to_fraction(exact[spec], c.weight), p, e))
            one = t.single_values([spec])[spec]
            assert one == many[spec] == t.mhs_all(c)[p - 1] == want, (p, e, c)


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
    specs = [("mhs", c) for c in comps]
    for t in (PrefixTable.for_prime(97, 2), PrefixTable.for_exact(25)):
        got = t.single_values(iter(specs))
        assert set(got) == set(specs)
        assert got == {spec: t.single_values([spec])[spec] for spec in specs}
        assert got["mhs", ()] == 1
    assert PrefixTable.for_prime(7).single_values([]) == {}
    assert PrefixTable.for_prime(7).single_values([("mhs", ())]) == {("mhs", ()): 1}


def test_trie_chain_holds_at_most_two_rows():
    # A chain of eight wanted prefixes must peak like a single depth-3 sum
    # (two rows), not hold one row per prefix.
    t = PrefixTable.for_prime(10007, 2)
    t.inv_powers(1)
    row_bytes = 40 * t.n  # a list slot plus a small int per cell

    def peak(comps):
        tracemalloc.start()
        try:
            t.single_values(("mhs", c) for c in comps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    chain = [(1,) * k for k in range(1, 9)]
    assert peak(chain) < peak([(1, 1, 1)]) + row_bytes // 2


def test_wilson_theorem_gives_the_longest_composition():
    # H({1}^(p-1); p-1) = 1/(p-1)!, so its residue is the inverse of
    # (p-1)! mod p^e, which is -1 mod p by Wilson's theorem.  The walk
    # holds no prefix of the p-1 parts as its own tuple, so a pass at
    # p = 4001 stays far below the 123 MiB that one tuple per prefix took.
    # The peak is traced on the numpy kernel only: tracing each of the 16
    # million big-int products of the Python kernel takes about 15 s.
    for p, values in ((211, (210, 8017, 7977276)), (4001, (4000, 9590396))):
        spec = ("mhs", (1,) * (p - 1))
        for e, want in enumerate(values, 1):
            assert want == pow(math.factorial(p - 1), -1, p**e)
            t = PrefixTable.for_prime(p, e)
            if isinstance(t._k, mhs._NumpyKernel):
                tracemalloc.start()
            try:
                got = t.single_values([spec])
                peak = tracemalloc.get_traced_memory()[1]  # 0 when not traced
            finally:
                tracemalloc.stop()
            assert got == {spec: want}, (p, e)
            assert peak < 8 << 20, (p, e, peak)


def test_shared_prefixes_are_one_node_each(monkeypatch):
    # Every composition of weight <= 5, shuffled and partly repeated, in
    # one block: each distinct prefix of two or more parts (each of the 26
    # compositions of weight <= 5 with two or more parts) costs one product.
    comps = compositions_upto(5)
    specs = [("mhs", c) for c in comps + comps[::3]]
    random.Random(5).shuffle(specs)
    t = PrefixTable.for_prime(97)
    assert t.n < mhs._BLOCK
    want = {spec: t.single_values([spec])[spec] for spec in specs}
    products = []
    times = mhs._PythonKernel.times

    def counted(self, terms, cells):
        products.append(1)
        return times(self, terms, cells)

    monkeypatch.setattr(mhs._PythonKernel, "times", counted)
    assert t.single_values(specs) == want
    assert len(products) == 26 == sum(len(c) >= 2 for c in comps)


@pytest.mark.parametrize("p", PRIMES_BELOW_200)
def test_weighted_sum_single_values_equal_the_rows(p):
    triples = list(itertools.product((1, 2, 3), repeat=3))
    quads = list(itertools.product((1, 2), repeat=4))
    tables = [PrefixTable.for_prime(p, e) for e in (1, 2, 3)] + [PrefixTable.for_exact(p - 1)]
    for t in tables:
        for tr in triples:
            want = reference_row(t, ("weighted_sum", tr))
            assert t.weighted_sum2_all(*tr) == want, (p, t.modulus, tr)
            assert t.weighted_sum2(*tr) == want[p - 1], (p, t.modulus, tr)
        for q in quads:
            want = reference_row(t, ("weighted_sum", q))
            assert t.weighted_sum3_all(*q) == want, (p, t.modulus, q)
            assert t.weighted_sum3(*q) == want[p - 1], (p, t.modulus, q)
    # The single values of a table for n equal the cells at n of the rows
    # of the table for p-1 (as values: the two scales differ).
    exact = tables[-1]
    for n in range(0, p, max(1, p // 7)):
        small = PrefixTable.for_exact(n)
        cell = lambda row, w: exact.to_fraction(row[n], w)
        wsum2 = small.to_fraction(small.weighted_sum2(2, 1, 3), 6)
        assert wsum2 == cell(exact.weighted_sum2_all(2, 1, 3), 6)
        wsum3 = small.to_fraction(small.weighted_sum3(1, 2, 1, 2), 6)
        assert wsum3 == cell(exact.weighted_sum3_all(1, 2, 1, 2), 6)
        h = small.to_fraction(small.single_values([("mhs", (2, 1, 1))])["mhs", (2, 1, 1)], 4)
        assert h == cell(exact.mhs_all((2, 1, 1)), 4)


# --- block boundaries of the single-value pass ------------------------------

BLOCK_SPECS = (
    [("mhs", c) for c in compositions_upto(4)]
    + [("weighted_sum", tr) for tr in itertools.product((1, 2), repeat=3)]
    + [("weighted_sum", q) for q in ((1, 1, 1, 1), (2, 1, 2, 1), (1, 3, 1, 2))]
)

# (1,) is at once a weighted-sum factor, an mhs leaf and a parent, beside
# the empty composition and a repeated spec.
SHARED_SPECS = [
    ("weighted_sum", (1, 2, 1)),
    ("mhs", (1,)),
    ("mhs", ()),
    ("mhs", (1, 2)),
    ("weighted_sum", (1, 2, 1)),
]


def all_row(t, spec):
    """The row of spec from the table's own *_all method for it."""
    kind, args = spec
    if kind == "mhs":
        return t.mhs_all(args)
    return (t.weighted_sum2_all if len(args) == 3 else t.weighted_sum3_all)(*args)


def assert_single_values_are_the_last_cells(t, specs=BLOCK_SPECS, *, each_all=True):
    """Every single value of one pass and every row of one pass equal the
    reference recurrence, the single values at n; with each_all, so does
    each spec's *_all row.  Each *_all call is a pass of its own, and
    tests/test_one_engine.py pins each to one single_values call, so tests
    that walk many tables in tiny blocks ask for them on a sample only."""
    got = t.single_values(specs)
    rows = t.single_values(specs, rows=True)
    assert list(got) == list(rows) == list(dict.fromkeys(specs))
    for spec in specs:
        want = reference_row(t, spec)
        assert rows[spec] == want, (t.n, t.modulus, spec)
        assert got[spec] == want[t.n], (t.n, t.modulus, spec)
        if each_all:
            assert all_row(t, spec) == want, (t.n, t.modulus, spec)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_single_values_across_block_boundaries(monkeypatch, block):
    # With blocks this small every prime below 200 and every n up to 40
    # splits into several blocks (or one cell each), so each carry crosses
    # many boundaries, several of them inside a composition's chain.  Where
    # numpy imports, the mod tables are then built again on the numpy
    # kernel, at primes below 60 to keep its many tiny blocks cheap.  The
    # per-spec *_all rows are checked at the largest prime and n of each
    # leg, where the most blocks meet.
    monkeypatch.setattr(mhs, "_BLOCK", block)
    for specs in (BLOCK_SPECS, SHARED_SPECS):
        for p in PRIMES_BELOW_200:
            for e in (1, 2, 3):
                assert_single_values_are_the_last_cells(
                    PrefixTable.for_prime(p, e), specs, each_all=p == 199
                )
        for n in range(41):
            assert_single_values_are_the_last_cells(
                PrefixTable.for_exact(n), specs, each_all=n == 40
            )
    if mhs._numpy() is None:
        return
    monkeypatch.setattr(mhs, "_NUMPY_MIN_N", 0)
    for specs in (BLOCK_SPECS, SHARED_SPECS):
        for p in primes_in_range(3, 59):
            for e in (1, 2, 3):
                t = PrefixTable.for_prime(p, e)
                assert isinstance(t._k, mhs._NumpyKernel)
                assert_single_values_are_the_last_cells(t, specs, each_all=p == 59)


def test_single_values_take_duplicates_and_refuse_unknown_specs():
    t = PrefixTable.for_prime(31, 2)
    specs = [("weighted_sum", (1, 1, 1)), ("mhs", ()), ("weighted_sum", (1, 1, 1))]
    assert t.single_values(specs) == {specs[0]: t.weighted_sum2(1, 1, 1), specs[1]: 1}
    assert t.single_values([]) == {}
    unknown = [("mhs_all", (1,)), ("weighted_sum", (1, 1)), ("weighted_sum", (1, 1, 1, 1, 1))]
    # the kinds and shapes of the old method-call specs
    unknown += [("weighted_sum2", (1, 1, 1)), ("weighted_sum3", (1, 1, 1, 1))]
    for bad in unknown:
        with pytest.raises(ValueError, match="unknown single value"):
            t.single_values([bad])
    with pytest.raises(ValueError, match="composition parts must be positive integers"):
        t.single_values([("mhs", ((1, 2),))])
    with pytest.raises(ValueError, match="exponent must be >= 1, got 0"):
        t.weighted_sum2(1, 0, 1)
    with pytest.raises(ValueError):
        t.single_values([("mhs", (1, 0))])
