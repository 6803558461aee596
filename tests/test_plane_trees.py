import random
from collections import Counter
from itertools import accumulate, chain, islice, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treedegree import (
    MarkedPlaneTree,
    PlaneTree,
    bar_delta_decode,
    bar_delta_encode,
    catalan,
    count_plane_degree,
    count_plane_outdegree,
    degree_histogram,
    delta_decode,
    enumerate_compositions,
    enumerate_plane_trees,
    format_marked_plane_tree,
    format_plane_tree,
    is_unit,
    outdegree_histogram,
    parse_marked_plane_tree,
    parse_plane_tree,
    preorder_outdegrees,
)
import treedegree.plane_trees as plane_module
from treedegree._limits import GuardError
from treedegree.cli import main
from golden import SAMPLE_CYCLIC_WORD, SAMPLE_MARK, SAMPLE_TREE_14, SAMPLE_WORD_14, pt

LEAF = PlaneTree()
EDGE = pt(pt())
CHERRY = pt(pt(), pt())
PATH2 = pt(pt(pt()))


plane_trees = st.recursive(
    st.just(LEAF), lambda kids: st.lists(kids, max_size=4).map(lambda c: pt(*c)), max_leaves=20
)


class TestOutdegreeWords:
    def test_sample_tree_word(self):
        assert preorder_outdegrees(SAMPLE_TREE_14) == SAMPLE_WORD_14

    def test_tiny_words(self):
        assert preorder_outdegrees(LEAF) == (0,)
        assert preorder_outdegrees(PATH2) == (1, 1, 0)

    def test_decode_examples(self):
        assert delta_decode((0,)) == LEAF
        assert delta_decode((2, 0, 0)) == CHERRY
        assert delta_decode(SAMPLE_WORD_14) == SAMPLE_TREE_14

    def test_decode_rejects_non_unit(self):
        with pytest.raises(ValueError):
            delta_decode((2, 0))
        with pytest.raises(ValueError):
            delta_decode(())

    @given(plane_trees)
    def test_word_roundtrip(self, tree):
        word = preorder_outdegrees(tree)
        assert is_unit(word)
        assert delta_decode(word) == tree


class TestHistograms:
    def test_outdegree_histograms(self):
        assert outdegree_histogram(CHERRY) == {0: 2, 2: 1}
        assert outdegree_histogram(pt(pt(pt(pt())))) == {1: 3, 0: 1}
        # 15 vertices: 9 leaves, four outdegree-2, two outdegree-3.
        assert outdegree_histogram(SAMPLE_TREE_14) == {0: 9, 2: 4, 3: 2}

    def test_degree_histograms(self):
        assert degree_histogram(EDGE) == {1: 2}
        assert degree_histogram(CHERRY) == {2: 1, 1: 2}
        assert degree_histogram(PATH2) == {1: 2, 2: 1}

    @given(plane_trees)
    def test_histogram_totals(self, tree):
        out = outdegree_histogram(tree)
        deg = degree_histogram(tree)
        assert sum(out.values()) == sum(deg.values()) == tree.vertex_count
        assert sum(d * c for d, c in out.items()) == tree.edge_count


class TestEnumeration:
    def test_counts_match_catalan(self):
        for n in range(0, 11):
            assert sum(1 for _ in enumerate_plane_trees(n)) == catalan(n)

    def test_lexicographic_word_order(self):
        words = [preorder_outdegrees(t) for t in enumerate_plane_trees(3)]
        assert words == [
            (1, 1, 1, 0),
            (1, 2, 0, 0),
            (2, 0, 1, 0),
            (2, 1, 0, 0),
            (3, 0, 0, 0),
        ]

    def test_no_duplicates(self):
        for n in range(0, 9):
            words = [preorder_outdegrees(t) for t in enumerate_plane_trees(n)]
            assert len(set(words)) == len(words)

    def test_guard(self, monkeypatch):
        with pytest.raises(ValueError, match="guard"):
            next(enumerate_plane_trees(15))
        monkeypatch.setenv("TREEDEGREE_GUARD", "3")
        with pytest.raises(ValueError, match="guard"):
            next(enumerate_plane_trees(4))
        assert sum(1 for _ in enumerate_plane_trees(3)) == 5
        monkeypatch.setenv("TREEDEGREE_GUARD", "15")
        next(enumerate_plane_trees(15))

    def test_guard_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("TREEDEGREE_GUARD", "lots")
        with pytest.raises(ValueError, match="TREEDEGREE_GUARD"):
            next(enumerate_plane_trees(2))


def _odometer_words(n):
    # Reference enumerator: one odometer over positions 0..n-1, the final
    # part forced to 0.
    word = [0] * (n + 1)
    totals = [0] * (n + 1)
    pos = 0
    while True:
        for p in range(pos, n):
            word[p] = max(0, p + 1 - totals[p])
            totals[p + 1] = totals[p] + word[p]
        yield tuple(word)
        pos = n - 1
        while pos >= 0 and totals[pos + 1] == n:
            pos -= 1
        if pos < 0:
            return
        word[pos] += 1
        totals[pos + 1] += 1
        pos += 1


class TestBlockEnumeration:
    def test_same_words_as_the_odometer(self):
        # n <= _BLOCK - 1 comes straight from a table; n = _BLOCK is the first
        # size with a walked head, of one part.
        assert plane_module._BLOCK - 1 < 12
        for n in range(0, 13):
            assert list(plane_module._plane_words(n)) == list(_odometer_words(n)), n

    def test_prefixes_are_the_distinct_heads(self):
        # Each head the walk stops at, with its f-height, once and in order,
        # for every suffix length down to 1 and up to the empty head.
        for n in range(0, 13):
            heads = list(_odometer_words(n))
            for parts in range(1, n + 2):
                # The distinct heads one part shorter than the last ones.
                heads = list(dict.fromkeys(head[: n + 1 - parts] for head in heads))
                expected = [(head, sum(head) - len(head)) for head in heads]
                walked = plane_module._prefixes(n, parts, (), plane_module._extend)
                assert list(walked) == expected, (n, parts)

    def test_suffix_tables_by_brute_force(self):
        # A p-tuple finishes a unit word from f-height h when h + its f is -1
        # and h + the f of each proper prefix is nonnegative; so its sum,
        # p - 1 - h, is below p. product() is in lexicographic order, so each
        # table is also sorted and without repeats, for p up to past _BLOCK.
        assert plane_module._BLOCK < 7
        for parts in range(1, 8):
            tables = {}
            for suffix in product(range(parts), repeat=parts):
                height = parts - 1 - sum(suffix)
                heights = accumulate((part - 1 for part in suffix[:-1]), initial=height)
                if height >= 0 and min(heights) >= 0:
                    tables.setdefault(height, []).append(suffix)
            for height in range(parts + 1):
                assert list(plane_module._suffixes(height, parts)) == tables.get(height, [])

    def test_walk_runs_deep_without_recursion(self, monkeypatch):
        # The walk keeps one lazy level per head part on a list, so a head of
        # about 2000 parts raises no RecursionError.
        monkeypatch.setenv("TREEDEGREE_GUARD", "2000")
        words = list(islice(plane_module._plane_words(2000), 3))
        assert words == list(islice(_odometer_words(2000), 3))
        text = next(plane_module._plane_texts(2000))
        assert text == format_plane_tree(delta_decode(words[0]))

    def test_texts_match_the_formatter(self):
        # Table-only sizes, n = _BLOCK - 1 and _BLOCK, and walked heads above.
        assert plane_module._BLOCK < 11
        for n in range(0, 12):
            texts = list(plane_module._plane_texts(n))
            assert texts == list(map(format_plane_tree, enumerate_plane_trees(n))), n

    def test_texts_guarded_like_the_words(self, monkeypatch):
        # Both generators, and the histogram, refuse at the call, before any
        # item is asked for.
        generators = (
            plane_module._plane_words, plane_module._plane_texts, plane_module._plane_histogram
        )
        for generate in generators:
            with pytest.raises(GuardError, match=r"plane-tree enumeration .*\(15 > 14\)"):
                generate(15)
            with pytest.raises(ValueError, match="edge count must be nonnegative"):
                generate(-1)
        monkeypatch.setenv("TREEDEGREE_GUARD", "3")
        for generate in generators:
            with pytest.raises(GuardError, match=r"\(4 > 3\)"):
                generate(4)

    def test_histogram_counts_the_words(self):
        # Table-only sizes, n = _HISTOGRAM_BLOCK - 1 and _HISTOGRAM_BLOCK, and
        # walked heads above; from n = 1 the totals are the closed form.
        assert plane_module._HISTOGRAM_BLOCK < 12
        for n in range(0, 13):
            words = list(plane_module._plane_words(n))
            histogram = plane_module._plane_histogram(n)
            assert histogram == (len(words), Counter(chain(*words))), n
            if n:
                closed = {i: comb(2 * n - i - 1, n - 1) for i in range(n + 1)}
                assert dict(histogram[1]) == closed, n

    def test_histogram_past_the_word_sweeps(self):
        # The sizes the sweeps reach only through the histogram, up to the guard.
        for n in (13, 14):
            words, totals = plane_module._plane_histogram(n)
            assert words == catalan(n)
            assert dict(totals) == {i: comb(2 * n - i - 1, n - 1) for i in range(n + 1)}


class TestMarkedWords:
    def test_sample_encoding(self):
        marked = MarkedPlaneTree(SAMPLE_TREE_14, SAMPLE_MARK)
        assert bar_delta_encode(marked) == SAMPLE_CYCLIC_WORD
        assert bar_delta_decode(SAMPLE_CYCLIC_WORD, 2) == marked

    def test_single_edge_marks(self):
        assert bar_delta_encode(MarkedPlaneTree(EDGE, 1)) == (0,)
        assert bar_delta_encode(MarkedPlaneTree(EDGE, 2)) == (1,)
        assert bar_delta_decode((0,), 1) == MarkedPlaneTree(EDGE, 1)
        assert bar_delta_decode((1,), 0) == MarkedPlaneTree(EDGE, 2)

    def test_single_vertex_round_trips(self, capsys):
        # n = 0: the one mark encodes to the empty word, which decodes back.
        single = MarkedPlaneTree(PlaneTree(), 1)
        assert bar_delta_encode(single) == ()
        assert bar_delta_decode((), 0) == single
        assert main(["encode", "plane-pair", "--tree", "", "--mark", "1"]) == 0
        assert capsys.readouterr().out == "()\n"
        for argv in (["plane-pair", "--word", "()"], ["plane", "--word", "()", "-i", "0"]):
            assert main(["decode", *argv]) == 0
            assert capsys.readouterr().out == "@1\n"

    def test_decode_validates_word(self):
        with pytest.raises(ValueError):
            bar_delta_decode((), 1)  # sum 0 != 0 - 1
        with pytest.raises(ValueError):
            bar_delta_decode((1, 1), 1)  # sum 2 != 2 - 1
        with pytest.raises(ValueError):
            bar_delta_decode((0, 0), -1)
        with pytest.raises(ValueError, match="nonnegative"):
            bar_delta_decode((3, -1), 0)  # sum 2 = 2 - 0, but a negative part
        with pytest.raises(TypeError):
            bar_delta_decode((1.5, 0.5), 0)  # sum 2 = 2 - 0, but not integers
        with pytest.raises(TypeError):
            bar_delta_decode((0,), 1.0)

    def test_encode_validates_mark(self):
        with pytest.raises(ValueError):
            bar_delta_encode(MarkedPlaneTree(EDGE, 3))
        with pytest.raises(ValueError):
            bar_delta_encode(MarkedPlaneTree(EDGE, 0))

    def test_roundtrip_all_marks(self):
        for n in range(1, 7):
            for tree in enumerate_plane_trees(n):
                word = preorder_outdegrees(tree)
                for mark in range(1, len(word) + 1):
                    marked = MarkedPlaneTree(tree, mark)
                    back = bar_delta_decode(bar_delta_encode(marked), word[mark - 1])
                    assert back == marked

    def test_image_is_all_compositions(self):
        # Marked pairs with outdegree i map onto the n-part compositions
        # of n - i, bijectively.
        for n in range(1, 7):
            by_outdegree = {}
            for tree in enumerate_plane_trees(n):
                word = preorder_outdegrees(tree)
                for mark in range(1, len(word) + 1):
                    encoded = bar_delta_encode(MarkedPlaneTree(tree, mark))
                    by_outdegree.setdefault(word[mark - 1], []).append(encoded)
            for i in range(0, n + 1):
                encodings = by_outdegree.get(i, [])
                assert len(encodings) == len(set(encodings))
                assert set(encodings) == set(enumerate_compositions(n - i, n))


class TestBruteForceOracle:
    def test_small_cells(self):
        assert plane_module._plane_histogram(2)[1][0] == 3
        assert plane_module._plane_histogram(3)[1][1] == 6
        assert plane_module._plane_histogram(3)[1][3] == 1

    def test_matches_closed_form(self):
        for n in range(1, 8):
            totals = plane_module._plane_histogram(n)[1]
            for i in range(0, n + 1):
                assert totals[i] == count_plane_outdegree(n, i)

    def test_degree_doubling_observed(self):
        for n in range(1, 8):
            out_totals: Counter = Counter()
            deg_totals: Counter = Counter()
            for tree in enumerate_plane_trees(n):
                out_totals.update(outdegree_histogram(tree))
                deg_totals.update(degree_histogram(tree))
            for i in range(1, n + 2):
                assert deg_totals.get(i, 0) == 2 * out_totals.get(i, 0)
                assert deg_totals.get(i, 0) == count_plane_degree(n, i)


class TestTextFormat:
    def test_examples(self):
        assert format_plane_tree(LEAF) == ""
        assert format_plane_tree(CHERRY) == "()()"
        assert format_plane_tree(PATH2) == "(())"
        sample = format_plane_tree(SAMPLE_TREE_14)
        assert sample.count("(") == 14
        assert parse_plane_tree(sample) == SAMPLE_TREE_14

    def test_parse_rejects_malformed(self):
        for bad in ["(", ")", "(()", "a", "()x"]:
            with pytest.raises(ValueError):
                parse_plane_tree(bad)

    def test_marked_roundtrip(self):
        text = format_marked_plane_tree(MarkedPlaneTree(SAMPLE_TREE_14, 4))
        assert text.endswith("@4")
        assert parse_marked_plane_tree(text) == MarkedPlaneTree(SAMPLE_TREE_14, 4)
        assert parse_marked_plane_tree("@1") == MarkedPlaneTree(LEAF, 1)

    def test_marked_parse_validates(self):
        with pytest.raises(ValueError):
            parse_marked_plane_tree("()()")
        with pytest.raises(ValueError):
            parse_marked_plane_tree("()()@9")
        with pytest.raises(ValueError):
            parse_marked_plane_tree("()()@x")

    @given(plane_trees)
    def test_format_roundtrip(self, tree):
        assert parse_plane_tree(format_plane_tree(tree)) == tree


class TestDeepTrees:
    # A tree is its word, so nothing here recurses on depth; these run
    # under the default recursion limit.
    DEPTH = 100_000

    def test_path_roundtrips(self):
        text = "(" * self.DEPTH + ")" * self.DEPTH
        path = parse_plane_tree(text)
        word = preorder_outdegrees(path)
        assert word == (1,) * self.DEPTH + (0,)
        assert format_plane_tree(path) == text
        decoded = delta_decode(word)
        assert decoded == path and hash(decoded) == hash(path)
        assert repr(path) == f"PlaneTree(word={word!r})"
        for mark in (1, self.DEPTH // 2, self.DEPTH + 1):
            marked = MarkedPlaneTree(path, mark)
            encoded = bar_delta_encode(marked)
            assert bar_delta_decode(encoded, word[mark - 1]) == marked
            assert parse_marked_plane_tree(format_marked_plane_tree(marked)) == marked

    def test_star_decode(self):
        # Every entry of the word is its own unit block.
        n = 100_000
        star = bar_delta_decode((0,) * n, n)
        assert star == MarkedPlaneTree(PlaneTree([LEAF] * n), 1)
        assert preorder_outdegrees(star.tree) == (n,) + (0,) * n


def test_word_is_the_representation():
    assert SAMPLE_TREE_14.word == SAMPLE_WORD_14
    assert LEAF.word == (0,) and LEAF.vertex_count == 1 and LEAF.edge_count == 0
    assert repr(CHERRY) == "PlaneTree(word=(2, 0, 0))"
    assert {delta_decode((2, 0, 0)), CHERRY} == {CHERRY}
    with pytest.raises(ValueError):
        delta_decode((2, -1))  # f-statistic is unit-shaped, but a part is negative


def _uniform_composition(rng, total, parts):
    # Stars and bars: parts - 1 bars among total + parts - 1 places.
    places = total + parts - 1
    bars = sorted(rng.sample(range(places), parts - 1))
    return tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, places)))


def test_word_cores_round_trip_past_enumeration():
    # Seeded compositions far past the enumeration guard: the decode core
    # gives a unit word marked at outdegree i, and the encode core gives the
    # composition back. At n <= 20 and every tenth n up to 200, every mark
    # of the decoded word round-trips as well; the last word has 10^5 edges.
    rng = random.Random(20150129)
    for n in (*range(1, 201), 100_000):
        i = rng.randint(0, n)
        composition = _uniform_composition(rng, n - i, n)
        word, mark = plane_module._bar_delta_decode(composition, i)
        assert is_unit(word) and len(word) == n + 1 and word[mark - 1] == i
        assert plane_module._bar_delta_encode(word, mark) == composition
        for other in range(1, n + 2) if n <= 20 or (n % 10 == 0 and n <= 200) else ():
            encoded = plane_module._bar_delta_encode(word, other)
            assert plane_module._bar_delta_decode(encoded, word[other - 1]) == (word, other)
