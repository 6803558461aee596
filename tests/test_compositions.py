import random
from itertools import accumulate, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treedegree import (
    as_composition,
    enumerate_compositions,
    f_statistic,
    format_composition,
    fundamental_decomposition,
    is_unit,
    parse_composition,
)
from treedegree.compositions import _block_end, _tail_start

compositions = st.lists(st.integers(0, 6), max_size=24).map(tuple)


def test_f_statistic_values():
    assert f_statistic((2, 0, 0)) == -1
    assert f_statistic(()) == 0
    assert f_statistic((3, 2, 0)) == 2


def test_is_unit_values():
    assert is_unit((0,))
    assert is_unit((3, 0, 0, 2, 0, 0))
    assert not is_unit((0, 2, 0))
    assert not is_unit(())
    assert not is_unit((2, 0))


def is_positive(c):
    # Reference: f >= 0 on every prefix, the whole word included; true when empty.
    return min(accumulate(part - 1 for part in c), default=0) >= 0


def test_is_unit_matches_its_definition():
    # f >= 0 on every proper prefix and f = -1 on the whole word, also for
    # negative parts, which no composition has.
    assert not is_unit(())
    for length in range(1, 8):
        for c in product(range(-1, 4), repeat=length):
            f = list(accumulate(part - 1 for part in c))
            assert is_unit(c) == (min(f[:-1], default=0) >= 0 and f[-1] == -1), c


def test_decomposition_worked_examples():
    units, tail = fundamental_decomposition((0, 2, 0, 0, 0, 3, 0, 0, 2, 0, 0, 3, 2, 0))
    assert units == ((0,), (2, 0, 0), (0,), (3, 0, 0, 2, 0, 0))
    assert tail == (3, 2, 0)

    units, tail = fundamental_decomposition((0, 0))
    assert units == ((0,), (0,))
    assert tail == ()

    units, tail = fundamental_decomposition(
        (3, 0, 0, 0, 0, 3, 0, 0, 0, 0, 3, 0, 0, 3, 3, 0, 0, 0, 3, 0, 0, 0, 0, 3, 3, 0, 0)
    )
    assert units == (
        (3, 0, 0, 0),
        (0,),
        (3, 0, 0, 0),
        (0,),
        (3, 0, 0, 3, 3, 0, 0, 0, 3, 0, 0, 0, 0),
    )
    assert tail == (3, 3, 0, 0)


def test_empty_composition_decomposes_trivially():
    assert fundamental_decomposition(()) == ((), ())


@given(compositions)
def test_decomposition_concat_roundtrip(c):
    units, tail = fundamental_decomposition(c)
    assert sum(units, ()) + tail == c


@given(compositions)
def test_decomposition_parts_have_right_shape(c):
    units, tail = fundamental_decomposition(c)
    assert all(is_unit(u) for u in units)
    assert is_positive(tail)


@given(compositions)
def test_f_telescopes_over_decomposition(c):
    units, tail = fundamental_decomposition(c)
    assert f_statistic(c) == -len(units) + f_statistic(tail)


@given(compositions)
def test_each_unit_block_decomposes_to_itself(c):
    units, _ = fundamental_decomposition(c)
    for u in units:
        assert f_statistic(u) == -1
        assert fundamental_decomposition(u) == ((u,), ())


def test_walks_match_the_decomposition():
    # The two walks against the reference: the tail starts where the unit
    # blocks end, and a block walk from each block's start ends where the
    # block does. Every n-part composition of n - i for n <= 8 (the encoded
    # words of marked plane trees), and seeded 10^4-part words whose parts
    # average 1, so that the running f wanders and has many record lows.
    words = [
        c for n in range(1, 9) for i in range(n + 1) for c in enumerate_compositions(n - i, n)
    ]
    rng = random.Random(19900)
    words += [tuple(rng.choice((0, 0, 1, 3)) for _ in range(10_000)) for _ in range(5)]
    for c in words:
        units, _ = fundamental_decomposition(c)
        start = 0
        for unit in units:
            assert _block_end(c, start) == start + len(unit)
            start += len(unit)
        assert _tail_start(c) == start


def count_factorizations(c):
    # Brute force: number of ways to write c as unit blocks then a
    # positive tail, trying every prefix as the first block.
    total = 1 if is_positive(c) else 0
    for cut in range(1, len(c) + 1):
        if is_unit(c[:cut]):
            total += count_factorizations(c[cut:])
    return total


def test_decomposition_unique_exhaustively():
    for length in range(0, 9):
        for total in range(0, 9):
            for c in enumerate_compositions(total, length):
                assert count_factorizations(c) == 1


@given(st.lists(st.integers(0, 4), max_size=12).map(tuple))
def test_decomposition_unique_random(c):
    assert count_factorizations(c) == 1


def test_text_format():
    assert format_composition((3, 2, 0)) == "(3,2,0)"
    assert format_composition(()) == "()"
    assert parse_composition("(3,2,0)") == (3, 2, 0)
    assert parse_composition("( 3 , 2 , 0 )") == (3, 2, 0)
    assert parse_composition("()") == ()


@given(compositions)
def test_text_roundtrip(c):
    assert parse_composition(format_composition(c)) == c


@pytest.mark.parametrize("bad", ["3,2,0", "(3,2", "(a,b)", "(3,-2)", "(3 2)"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_composition(bad)


def test_enumerate_compositions_counts():
    from treedegree import binomial

    for total in range(0, 8):
        for length in range(0, 7):
            words = list(enumerate_compositions(total, length))
            if length:
                assert len(words) == binomial(total + length - 1, length - 1)
            else:
                assert len(words) == (1 if total == 0 else 0)
            assert len(set(words)) == len(words)
            assert all(len(w) == length and sum(w) == total for w in words)
            assert words == sorted(words)


def test_enumerate_compositions_rejects_a_negative_total():
    with pytest.raises(ValueError) as excinfo:
        list(enumerate_compositions(-1, 2))
    assert str(excinfo.value) == "total and length must be nonnegative"


def test_as_composition_rejects_non_integers():
    # int() would silently truncate [1.7, 0.2] to (1, 0).
    assert as_composition([2, 0, 0]) == (2, 0, 0)
    with pytest.raises(TypeError):
        as_composition([1.7, 0.2])
    with pytest.raises(TypeError):
        as_composition(["1", "0"])
