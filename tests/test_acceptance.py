"""Acceptance suite: one test per exit criterion, exact integer equality
throughout, with a printed pass/fail line per criterion.

The oracles here are independent of the closed forms they check:
exhaustive tree enumeration on one side, binomial formulas and truncated
series on the other.
"""

import functools
from collections import Counter
from itertools import combinations

import pytest

from treedegree import (
    MarkedKaryTree,
    MarkedPlaneTree,
    SubsetPair,
    bar_delta_decode,
    bar_delta_encode,
    binomial,
    catalan,
    catalan_power_coeff,
    catalan_series,
    complete,
    composition_to_kary_pair,
    count_kary_outdegree,
    count_plane_outdegree,
    delta_decode,
    enumerate_compositions,
    enumerate_kary_trees,
    enumerate_plane_trees,
    exact_div,
    fine_number,
    format_composition,
    fundamental_decomposition,
    is_unit,
    kary_pair_to_composition,
    kary_preorder_outdegrees,
    kary_series,
    kary_derivative_series,
    parse_composition,
    phi,
    phi_inverse,
    plane_derivative_series,
    preorder_outdegrees,
    uncomplete,
    verify_kary_power_coeff,
)
from golden import (
    BINARY_TABLE,
    SAMPLE_CYCLIC_TAIL,
    SAMPLE_CYCLIC_UNITS,
    SAMPLE_CYCLIC_WORD,
    SAMPLE_MARK,
    SAMPLE_TERNARY_8,
    SAMPLE_TERNARY_ALPHA,
    SAMPLE_TERNARY_MARK,
    SAMPLE_TERNARY_TAIL,
    SAMPLE_TERNARY_UNITS,
    SAMPLE_TERNARY_X,
    SAMPLE_TERNARY_Y,
    SAMPLE_TREE_14,
    SAMPLE_WORD_14,
)

KARY_GRID = [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)] + [
    (4, n) for n in range(1, 4)
]


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {description}")
                raise
            print(f"criterion {number}: PASS - {description}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def plane_data():
    # One enumeration pass per edge count: (tree count, outdegree totals).
    data = {}
    for n in range(1, 13):
        totals = Counter()
        count = 0
        for tree in enumerate_plane_trees(n):
            count += 1
            totals.update(preorder_outdegrees(tree))
        data[n] = (count, totals)
    return data


@pytest.fixture(scope="module")
def kary_data():
    data = {}
    for k, n in KARY_GRID:
        totals = Counter()
        count = 0
        for tree in enumerate_kary_trees(k, n):
            count += 1
            totals.update(kary_preorder_outdegrees(tree))
        data[k, n] = (count, totals)
    return data


@criterion(1, "plane outdegree counts match enumeration for n <= 10")
def test_criterion_1_plane_outdegree_sweep(plane_data):
    for n in range(1, 11):
        _, totals = plane_data[n]
        for i in range(0, n + 1):
            assert totals.get(i, 0) == binomial(2 * n - i - 1, n - 1), (n, i)
        assert all(d <= n for d in totals)


@criterion(2, "k-ary outdegree counts match enumeration on the (k, n) grid")
def test_criterion_2_kary_outdegree_sweep(kary_data):
    for k, n in KARY_GRID:
        _, totals = kary_data[k, n]
        for i in range(0, min(k, n) + 1):
            assert totals.get(i, 0) == binomial(k, i) * binomial(k * n, n - i), (k, n, i)
        for i in range(min(k, n) + 1, k + 1):
            assert totals.get(i, 0) == 0 == count_kary_outdegree(n, k, i)


@criterion(3, "golden fixtures reproduce bit-exactly through encode/decode")
def test_criterion_3_golden_fixtures():
    # 14-edge sample tree: its outdegree word and marked cyclic word.
    assert preorder_outdegrees(SAMPLE_TREE_14) == SAMPLE_WORD_14
    assert delta_decode(SAMPLE_WORD_14) == SAMPLE_TREE_14
    marked = MarkedPlaneTree(SAMPLE_TREE_14, SAMPLE_MARK)
    assert bar_delta_encode(marked) == SAMPLE_CYCLIC_WORD
    assert fundamental_decomposition(SAMPLE_CYCLIC_WORD) == (
        SAMPLE_CYCLIC_UNITS,
        SAMPLE_CYCLIC_TAIL,
    )
    assert bar_delta_decode(SAMPLE_CYCLIC_WORD, 2) == marked

    # 8-edge ternary sample: word, decomposition and subset pair.
    ternary_marked = MarkedKaryTree(SAMPLE_TERNARY_8, SAMPLE_TERNARY_MARK)
    assert kary_pair_to_composition(ternary_marked) == SAMPLE_TERNARY_ALPHA
    assert fundamental_decomposition(SAMPLE_TERNARY_ALPHA) == (
        SAMPLE_TERNARY_UNITS,
        SAMPLE_TERNARY_TAIL,
    )
    pair = phi(SAMPLE_TERNARY_ALPHA)
    assert pair == SubsetPair(3, 8, SAMPLE_TERNARY_X, SAMPLE_TERNARY_Y)
    assert phi_inverse(pair) == SAMPLE_TERNARY_ALPHA
    assert composition_to_kary_pair(SAMPLE_TERNARY_ALPHA, 3, 8, 2) == ternary_marked

    # All eight binary rows: subsets <-> word <-> marked tree.
    for x, y, word, tree, mark in BINARY_TABLE:
        pair = SubsetPair(2, 2, frozenset(x), frozenset(y))
        assert phi_inverse(pair) == word
        assert phi(word) == pair
        marked = MarkedKaryTree(tree, mark)
        assert kary_pair_to_composition(marked) == word
        assert composition_to_kary_pair(word, 2, 2, 1) == marked

    # Text forms survive a parse/format cycle bit-exactly.
    word_text = format_composition(SAMPLE_TERNARY_ALPHA)
    assert format_composition(parse_composition(word_text)) == word_text


@criterion(4, "bijection round trips and cyclic-word image for n <= 8")
def test_criterion_4_bijection_roundtrips():
    for n in range(0, 9):
        for tree in enumerate_plane_trees(n):
            word = preorder_outdegrees(tree)
            assert is_unit(word)
            assert delta_decode(word) == tree

    for n in range(1, 9):
        by_outdegree = {i: [] for i in range(n + 1)}
        for tree in enumerate_plane_trees(n):
            word = preorder_outdegrees(tree)
            for mark in range(1, n + 2):
                marked = MarkedPlaneTree(tree, mark)
                encoded = bar_delta_encode(marked)
                assert bar_delta_decode(encoded, word[mark - 1]) == marked
                by_outdegree[word[mark - 1]].append(encoded)
        for i in range(0, n + 1):
            encodings = by_outdegree[i]
            assert len(encodings) == len(set(encodings)), (n, i)
            assert set(encodings) == set(enumerate_compositions(n - i, n)), (n, i)

    for k, n in KARY_GRID:
        for tree in enumerate_kary_trees(k, n):
            completed, index_map = complete(tree)
            assert uncomplete(completed, k) == tree
            outdegrees = kary_preorder_outdegrees(tree)
            for mark in range(1, tree.vertex_count + 1):
                marked = MarkedKaryTree(tree, mark)
                word = kary_pair_to_composition(marked)
                assert composition_to_kary_pair(word, k, n, outdegrees[mark - 1]) == marked
                pair = phi(word, k, n)
                assert phi_inverse(pair) == word


@criterion(5, "outdegree-type identity holds exactly for n <= 8")
def test_criterion_5_sequence_identity():
    from treedegree import verify_outdegree_sequence_identity

    for n in range(1, 9):
        for i in range(0, n + 1):
            lhs, rhs = verify_outdegree_sequence_identity(n, i)
            assert lhs == rhs, (n, i)


@criterion(6, "fine-number formula and odd-outdegree relation agree with enumeration for n <= 12")
def test_criterion_6_fine_and_odd_outdegree(plane_data):
    assert fine_number(1) == 0
    assert fine_number(2) == 1
    assert fine_number(3) == 2
    from treedegree import count_odd_outdegree

    for n in range(1, 13):
        _, totals = plane_data[n]
        brute = sum(c for d, c in totals.items() if d % 2 == 1)
        formula = count_odd_outdegree(n)
        assert brute == formula, n
        # The closed form and the recurrence route agree exactly in integers.
        assert 3 * formula == 2 * binomial(2 * n - 1, n) + fine_number(n - 1), n


@criterion(7, "series identities: residuals, power laws, derivative series")
def test_criterion_7_series():
    from treedegree import TruncatedSeries

    zero30 = TruncatedSeries.constant(0, 30)
    c = catalan_series(30)
    assert c - (1 + (c * c).shift(1)) == zero30
    assert (1 - c.shift(1)) * c == TruncatedSeries.constant(1, 30)
    for k in range(1, 6):
        b = kary_series(k, 30)
        assert b - (b.shift(1) + 1) ** k == zero30

    for n in range(0, 21):
        for l in range(1, 11):
            assert (catalan_series(n) ** l)[n] == catalan_power_coeff(n, l), (n, l)

    for k in range(1, 6):
        for n in range(0, 13):
            for l in range(1, 7):
                lhs, rhs = verify_kary_power_coeff(k, n, l)
                assert lhs == rhs, (k, n, l)

    # The uncorrected power law fails at k=2, n=2, l=1 (cross-multiplied).
    assert 2 * kary_series(2, 2)[2] != 1 * binomial(4, 2)

    for i in range(0, 11):
        series = plane_derivative_series(i, 20)
        for n in range(1, 21):
            assert series[n] == count_plane_outdegree(n, i), (i, n)
    for k in range(1, 6):
        for i in range(0, k + 1):
            series = kary_derivative_series(k, i, 12)
            for n in range(1, 13):
                assert series[n] == count_kary_outdegree(n, k, i), (k, i, n)


@criterion(8, "cross-module consistency: enumeration counts, series coefficients, row/edge sums")
def test_criterion_8_cross_module(plane_data, kary_data):
    for n in range(1, 13):
        count, totals = plane_data[n]
        assert count == catalan(n), n
        row = sum(count_plane_outdegree(n, i) for i in range(n + 1))
        assert row == binomial(2 * n, n) == (n + 1) * catalan(n), n
        assert sum(totals.values()) == row, n
        edge = sum(i * count_plane_outdegree(n, i) for i in range(n + 1))
        assert edge == n * catalan(n), n
        assert sum(d * c for d, c in totals.items()) == edge, n

    for k, n in KARY_GRID:
        count, totals = kary_data[k, n]
        series = kary_series(k, n)
        assert count == series[n] == exact_div(
            binomial(k * (n + 1), n), n + 1, "k-ary count"
        ), (k, n)
        row = sum(count_kary_outdegree(n, k, i) for i in range(k + 1))
        assert row == binomial(k * n + k, n) == (n + 1) * series[n], (k, n)
        assert sum(totals.values()) == row, (k, n)
        edge = sum(i * count_kary_outdegree(n, k, i) for i in range(k + 1))
        assert edge == n * series[n], (k, n)
        assert sum(d * c for d, c in totals.items()) == edge, (k, n)


def test_subset_side_bijection_on_grid():
    # Companion to criterion 4: starting from the subset side, every
    # (X, Y) pair decodes to a distinct valid word on a reduced grid.
    for k, n in [(2, 4), (3, 3), (4, 2)]:
        total = 0
        for i in range(0, min(k, n) + 1):
            words = set()
            for x in combinations(range(1, k + 1), i):
                for y in combinations(range(1, k * n + 1), n - i):
                    pair = SubsetPair(k, n, frozenset(x), frozenset(y))
                    word = phi_inverse(pair)
                    assert phi(word) == pair
                    words.add(word)
            assert len(words) == binomial(k, i) * binomial(k * n, n - i)
            total += len(words)
        marked_pairs = sum(
            tree.vertex_count for tree in enumerate_kary_trees(k, n)
        )
        assert total == marked_pairs
