"""Compositions and the quasi-shuffle product, whose result is its sorted
(composition, coefficient) terms."""

import gc
import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhslab.compositions import Composition, parse_composition, stuffle

compositions = st.lists(st.integers(1, 4), min_size=0, max_size=3).map(Composition)


def test_composition_is_a_tuple():
    c = Composition((2, 3, 1))
    assert c == (2, 3, 1)
    assert c[0] == 2 and c[-1] == 1
    assert c.weight == 6
    assert len(c) == 3
    assert str(c) == "(2,3,1)"
    assert repr(c) == "Composition((2, 3, 1))"


def test_composition_empty():
    c = Composition()
    assert c.weight == 0 and len(c) == 0
    assert str(c) == "()"


@pytest.mark.parametrize("parts", [(0,), (-1,), (1, 0), (True,), (1.5,), ("2",)])
def test_composition_rejects_bad_parts(parts):
    with pytest.raises((ValueError, TypeError)):
        Composition(parts)


def test_composition_of_a_composition_is_itself():
    # Its parts were checked when c was built; test_composition_rejects_bad_parts
    # keeps checking everything else.
    c = Composition((2, 3, 1))
    assert Composition(c) is c


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2,3,1", (2, 3, 1)),
        ("(2,3,1)", (2, 3, 1)),
        (" ( 2 , 3 , 1 ) ", (2, 3, 1)),
        ("5", (5,)),
        ("()", ()),
        ("", ()),
    ],
)
def test_parse_composition(text, expected):
    assert parse_composition(text) == expected


@pytest.mark.parametrize("text", ["a", "0", "-1", "1,,2", "1,0", "(1", "1.5"])
def test_parse_composition_rejects(text):
    with pytest.raises(ValueError):
        parse_composition(text)


def test_formal_sum_terms_sorted_and_hashable():
    # stuffle's result is its terms, sorted by composition, as a tuple.
    f = stuffle((3,), (1, 2))
    assert [c for c, _ in f] == [(1, 2, 3), (1, 3, 2), (1, 5), (3, 1, 2), (4, 2)]
    assert all(type(c) is Composition for c, _ in f)
    assert hash(f) == hash(stuffle((1, 2), (3,)))


def test_stuffle_known_expansions():
    assert stuffle((1,), (1,)) == (((1, 1), 2), ((2,), 1))
    assert stuffle((1,), (2,)) == (((1, 2), 1), ((2, 1), 1), ((3,), 1))
    # depth 2 by depth 1: three interleavings plus two merges
    f = stuffle((1, 2), (3,))
    coefficients = dict(f)
    assert coefficients[1, 2, 3] == coefficients[1, 5] == coefficients[4, 2] == 1
    assert sum(c for _, c in f) == 5


def test_stuffle_identity_element():
    c = Composition((2, 1))
    assert stuffle(c, ()) == ((c, 1),)
    assert stuffle((), ()) == (((), 1),)


@given(compositions, compositions)
def test_stuffle_commutes(a, b):
    assert stuffle(a, b) == stuffle(b, a)


@settings(max_examples=40)
@given(compositions, compositions, compositions)
def test_stuffle_associates(a, b, c):
    # Each side merges the pairs of its expansion.
    left, right = Counter(), Counter()
    for comp, k in stuffle(a, b):
        for term, j in stuffle(comp, c):
            left[term] += k * j
    for comp, k in stuffle(b, c):
        for term, j in stuffle(a, comp):
            right[term] += k * j
    assert left == right


@given(compositions, compositions)
def test_stuffle_terms_preserve_weight(a, b):
    w = a.weight + b.weight
    f = stuffle(a, b)
    for comp, k in f:
        assert comp.weight == w
        assert max(len(a), len(b)) <= len(comp) <= len(a) + len(b)
        assert k > 0
    # Counted with multiplicity, the terms are the Delannoy number that
    # STUFFLE_MAX_TERMS bounds.
    m, n = len(a), len(b)
    delannoy = sum(math.comb(m, i) * math.comb(n, i) * 2**i for i in range(n + 1))
    assert sum(k for _, k in f) == delannoy


def test_stuffle_keeps_nothing_after_a_call():
    stuffle((1,), (2,))  # anything loaded on first use loads outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stuffle((1, 2, 3) * 2, (2, 3) * 3)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 4096
