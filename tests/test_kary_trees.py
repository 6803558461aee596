import importlib
import json
import random
import time
from collections import Counter
from itertools import chain, combinations, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treedegree import (
    KaryTree,
    MarkedKaryTree,
    MarkedPlaneTree,
    PlaneTree,
    SubsetPair,
    bar_delta_decode,
    complete,
    composition_to_kary_pair,
    count_kary_outdegree,
    delta_decode,
    enumerate_compositions,
    enumerate_kary_trees,
    f_statistic,
    format_composition,
    format_kary_tree,
    format_marked_kary_tree,
    fundamental_decomposition,
    kary_leaf,
    kary_pair_to_composition,
    kary_preorder_outdegrees,
    kary_trees,
    parse_kary_tree,
    parse_marked_kary_tree,
    phi,
    phi_inverse,
    preorder_outdegrees,
    uncomplete,
)
from treedegree._limits import GuardError
from treedegree.kary_trees import _kary_histogram, _kary_texts, _kary_word_structure
from golden import (
    BINARY_TABLE,
    SAMPLE_CYCLIC_WORD,
    SAMPLE_TERNARY_8,
    SAMPLE_TERNARY_ALPHA,
    SAMPLE_TERNARY_COMPLETED_WORD,
    SAMPLE_TERNARY_INDEX_MAP,
    SAMPLE_TERNARY_MARK,
    SAMPLE_TERNARY_X,
    SAMPLE_TERNARY_Y,
    pt,
)

L2 = kary_leaf(2)
L3 = kary_leaf(3)
# Every (k, n) with k <= 4 and kn <= 12.
SMALL_CELLS = [(k, n) for k in range(1, 5) for n in range(12 // k + 1)]


def binary_trees(max_leaves=12):
    return st.recursive(
        st.just(L2),
        lambda sub: st.tuples(
            st.one_of(st.none(), sub), st.one_of(st.none(), sub)
        ).map(lambda slots: KaryTree(2, slots)),
        max_leaves=max_leaves,
    )


class TestStructure:
    def test_slot_validation(self):
        with pytest.raises(ValueError):
            KaryTree(2, (None,))
        with pytest.raises(ValueError):
            KaryTree(0, ())
        with pytest.raises(ValueError):
            KaryTree(2, (L3, None))

    def test_counts(self):
        assert L2.vertex_count == 1
        assert L2.edge_count == 0
        assert SAMPLE_TERNARY_8.edge_count == 8
        assert SAMPLE_TERNARY_8.vertex_count == 9

    def test_preorder_outdegrees(self):
        assert kary_preorder_outdegrees(SAMPLE_TERNARY_8) == (2, 1, 2, 0, 0, 1, 2, 0, 0)
        for k, n in SMALL_CELLS:
            for tree in enumerate_kary_trees(k, n):
                slots, end = _nested(tree.word, 0)
                assert end == len(tree.word)
                assert kary_preorder_outdegrees(tree) == _filled_slots(slots), tree


def _nested(word, pos):
    # The vertex at word[pos] as its list of slots, each None or a nested
    # vertex, and the position after its subtree.
    slots, end = [], pos + 1
    for _ in range(word[pos]):
        sub, end = _nested(word, end) if word[end] else (None, end + 1)
        slots.append(sub)
    return slots, end


def _filled_slots(slots):
    # Each vertex's non-empty slots, in preorder, by recursion.
    children = [sub for sub in slots if sub is not None]
    return (len(children), *chain.from_iterable(map(_filled_slots, children)))


class TestCompletion:
    def test_ternary_sample(self):
        completed, index_map = complete(SAMPLE_TERNARY_8)
        assert preorder_outdegrees(completed) == SAMPLE_TERNARY_COMPLETED_WORD
        assert index_map == SAMPLE_TERNARY_INDEX_MAP
        assert index_map[SAMPLE_TERNARY_MARK - 1] == 5
        assert completed.vertex_count == 28
        assert uncomplete(completed, 3) == SAMPLE_TERNARY_8

    def test_single_vertex_completes_to_star(self):
        completed, index_map = complete(L2)
        assert preorder_outdegrees(completed) == (2, 0, 0)
        assert index_map == (1,)
        assert uncomplete(completed, 2) == L2

    def test_uncomplete_star(self):
        assert uncomplete(pt(pt(), pt(), pt()), 3) == L3

    def test_uncomplete_rejects_non_completions(self):
        with pytest.raises(ValueError):
            uncomplete(PlaneTree(), 2)  # single vertex
        with pytest.raises(ValueError):
            uncomplete(pt(pt()), 2)  # internal outdegree 1 != 2
        with pytest.raises(ValueError):
            uncomplete(pt(pt(), pt(), pt()), 2)

    @given(binary_trees())
    def test_roundtrip(self, tree):
        completed, index_map = complete(tree)
        assert uncomplete(completed, 2) == tree
        word = preorder_outdegrees(completed)
        # original vertices are exactly the internal ones
        assert [word[j - 1] for j in index_map] == [2] * tree.vertex_count
        assert completed.edge_count == 2 * (tree.edge_count + 1)


class TestWordCodec:
    def test_ternary_sample_word(self):
        marked = MarkedKaryTree(SAMPLE_TERNARY_8, SAMPLE_TERNARY_MARK)
        assert kary_pair_to_composition(marked) == SAMPLE_TERNARY_ALPHA
        assert composition_to_kary_pair(SAMPLE_TERNARY_ALPHA, 3, 8, 2) == marked

    def test_word_parameters(self):
        # (k, n) from the shape check, and i as |X|.
        cases = [(SAMPLE_TERNARY_ALPHA, None, 3, 8, 2), ((0, 0), None, 2, 0, 0), ((0,), 1, 1, 0, 0)]
        for word, arity, k, n, i in cases:
            assert _kary_word_structure(word, arity) == (k, n)
            assert len(phi(word, arity).X) == i

    def test_word_parameter_errors_are_distinct(self):
        with pytest.raises(ValueError, match="entry shape"):
            phi((3, 2, 0, 0))
        with pytest.raises(ValueError, match="entry shape"):
            phi((2, 0, 0))  # length 3 not a multiple of 2
        with pytest.raises(ValueError, match="entry shape"):
            phi((2, 2, 0, 0))  # two 2s, expected one
        with pytest.raises(ValueError, match="entry shape"):
            phi(SAMPLE_TERNARY_ALPHA, 2)

    def test_shape_implies_the_block_structure(self):
        # Cycle lemma: f of a shape-valid word is -k, each unit block adds
        # -1 and the positive tail f(tail) >= 0, so there are exactly
        # k + f(tail) >= k unit blocks and the codec needs no block check
        # after the shape checks pass. phi's core walks the first k of them
        # once, reads X from those blocks' first entries and Y from the rest
        # of each block, at its position in the word without those entries.
        import treedegree.kary_trees as kary_trees

        words = 0
        for k in range(1, 5):
            for n in range(12 // k + 1):
                length = k * (n + 1)
                for places in combinations(range(length), n):
                    word = [0] * length
                    for place in places:
                        word[place] = k
                    assert kary_trees._kary_word_structure(tuple(word), k) == (k, n)
                    units, tail = fundamental_decomposition(tuple(word))
                    assert len(units) == k + f_statistic(tail)
                    x = tuple(j for j, unit in enumerate(units[:k], 1) if unit[0])
                    beta = chain(*(unit[1:] for unit in units[:k]), *units[k:], tail)
                    y = tuple(j for j, part in enumerate(beta, 1) if part)
                    assert kary_trees._phi(tuple(word), k) == (x, y)
                    words += 1
        assert words == 6435

    def test_single_edge_binary_pair(self):
        tree = KaryTree(2, (L2, None))
        word = kary_pair_to_composition(MarkedKaryTree(tree, 1))
        assert word == (2, 0, 0, 0)
        assert composition_to_kary_pair(word) == MarkedKaryTree(tree, 1)

    def test_degenerate_unary_pair(self):
        marked = MarkedKaryTree(kary_leaf(1), 1)
        assert kary_pair_to_composition(marked) == (0,)
        assert composition_to_kary_pair((0,), 1, 0) == marked

    def test_decode_cross_validation(self):
        with pytest.raises(ValueError, match="n="):
            composition_to_kary_pair(SAMPLE_TERNARY_ALPHA, 3, 7)
        with pytest.raises(ValueError, match="i="):
            composition_to_kary_pair(SAMPLE_TERNARY_ALPHA, 3, 8, 1)


class TestSubsetCodec:
    def test_ternary_sample_subsets(self):
        pair = phi(SAMPLE_TERNARY_ALPHA, 3, 8)
        assert pair == SubsetPair(3, 8, SAMPLE_TERNARY_X, SAMPLE_TERNARY_Y)
        assert phi_inverse(pair) == SAMPLE_TERNARY_ALPHA

    def test_table_words(self):
        for x, y, word, tree, mark in BINARY_TABLE:
            pair = SubsetPair(2, 2, frozenset(x), frozenset(y))
            assert phi_inverse(pair) == word
            assert phi(word) == pair
            assert composition_to_kary_pair(word, 2, 2, 1) == MarkedKaryTree(tree, mark)
            assert kary_pair_to_composition(MarkedKaryTree(tree, mark)) == word

    def test_no_leading_k_blocks(self):
        # All first-k blocks start with 0: X is empty and every k sits in Y.
        word = phi_inverse(SubsetPair(2, 2, frozenset(), frozenset({1, 3})))
        assert _kary_word_structure(word, None) == (2, 2)
        assert phi(word).X == frozenset()  # i = |X| = 0

    def test_empty_pair(self):
        for k in (1, 2, 3, 5):
            word = phi_inverse(SubsetPair(k, 0, frozenset(), frozenset()))
            assert word == (0,) * k

    def test_phi_inverse_validation(self):
        with pytest.raises(ValueError):
            phi_inverse(SubsetPair(2, 2, frozenset({3}), frozenset({1})))
        with pytest.raises(ValueError):
            phi_inverse(SubsetPair(2, 2, frozenset({1}), frozenset({5})))
        with pytest.raises(ValueError):
            phi_inverse(SubsetPair(2, 2, frozenset({1, 2}), frozenset({1})))

    def test_json_roundtrip(self):
        pair = SubsetPair(3, 8, SAMPLE_TERNARY_X, SAMPLE_TERNARY_Y)
        text = pair.to_json()
        assert text == '{"k":3,"n":8,"X":[1,3],"Y":[8,11,12,16,21,22]}'
        doc = json.loads(text)
        assert SubsetPair(doc["k"], doc["n"], frozenset(doc["X"]), frozenset(doc["Y"])) == pair

    def test_full_bijection_small_grid(self):
        from itertools import combinations

        for k, n in [(2, 3), (3, 2)]:
            for i in range(0, min(k, n) + 1):
                words = set()
                for x in combinations(range(1, k + 1), i):
                    for y in combinations(range(1, k * n + 1), n - i):
                        pair = SubsetPair(k, n, frozenset(x), frozenset(y))
                        word = phi_inverse(pair)
                        assert phi(word) == pair
                        words.add(word)
                assert len(words) == count_kary_outdegree(n, k, i)


def _mask_loop_words(k, n):
    # Reference order: every one of the 2^k - 1 filled-slot masks per edge
    # budget in ascending order, skipping masks with more slots than edges.
    words = [[(k,) + (0,) * k]]
    for budget in range(1, n + 1):
        result = []
        for mask in range(1, 1 << k):
            filled = [j for j in range(k) if mask >> j & 1]
            if len(filled) > budget:
                continue
            for parts in enumerate_compositions(budget - len(filled), len(filled)):
                for combo in product(*(words[b] for b in parts)):
                    slots = [(0,)] * k
                    for slot_index, sub in zip(filled, combo):
                        slots[slot_index] = sub
                    result.append((k, *chain.from_iterable(slots)))
        words.append(result)
    return words[n]


class TestEnumeration:
    def test_same_order_as_the_mask_loop(self):
        for k in range(1, 7):
            for n in range(12 // k + 1):
                assert [t.word for t in enumerate_kary_trees(k, n)] == _mask_loop_words(k, n)

    def test_high_arity_walks_only_fillable_slot_sets(self):
        # 2^24 - 1 masks per budget would take tens of seconds.
        start = time.perf_counter()
        assert sum(1 for _ in enumerate_kary_trees(24, 1)) == 24
        assert time.perf_counter() - start < 0.5

    def test_counts(self):
        assert sum(1 for _ in enumerate_kary_trees(2, 2)) == 5
        assert sum(1 for _ in enumerate_kary_trees(2, 3)) == 14
        assert sum(1 for _ in enumerate_kary_trees(5, 0)) == 1
        assert sum(1 for _ in enumerate_kary_trees(3, 3)) == 55

    def test_no_duplicates(self):
        trees = list(enumerate_kary_trees(2, 4))
        assert len(set(trees)) == len(trees) == 42

    def test_guard(self, monkeypatch):
        # The enumerator refuses on first use, the texts and the histogram
        # when called.
        trees = enumerate_kary_trees(5, 5)
        with pytest.raises(ValueError, match="guard"):
            next(trees)
        for build in (_kary_texts, _kary_histogram):
            with pytest.raises(GuardError, match=r"k-ary tree enumeration .*\(25 > 24\)"):
                build(25, 1)
            with pytest.raises(ValueError, match="arity must be at least 1"):
                build(0, 1)
            with pytest.raises(ValueError, match="edge count must be nonnegative"):
                build(2, -1)
        monkeypatch.setenv("TREEDEGREE_GUARD", "4")
        with pytest.raises(ValueError, match="guard"):
            next(enumerate_kary_trees(5, 1))
        for build in (_kary_texts, _kary_histogram):
            with pytest.raises(GuardError, match=r"\(5 > 4\)"):
                build(5, 1)
        assert sum(1 for _ in enumerate_kary_trees(2, 2)) == 5

    def test_the_table_views_agree_tree_by_tree(self, monkeypatch):
        # Each caller's table, recorded under its empty slot, against the
        # per-tree functions over the enumerated trees.
        tables = {}
        build = kary_trees._kary_table

        def recording(k, n, empty, join):
            tables[empty] = build(k, n, empty, join)
            return tables[empty]

        monkeypatch.setattr(kary_trees, "_kary_table", recording)
        for k, n in [*SMALL_CELLS, (1, 6), (24, 1), (5, 0)]:
            trees = list(enumerate_kary_trees(k, n))
            _kary_texts(k, n)
            _kary_histogram(k, n)
            assert tables[(0,)] == [t.word for t in trees], (k, n)
            assert tables["."] == [format_kary_tree(t) for t in trees], (k, n)
            assert tables[()] == [kary_preorder_outdegrees(t) for t in trees], (k, n)
            assert [parse_kary_tree(text).word for text in tables["."]] == tables[(0,)]

    def test_the_guard_charges_no_edges_as_one(self):
        # The one 0-edge tree is still a word of k + 1 entries, so it costs k.
        with pytest.raises(GuardError, match=r"\(25 > 24\)"):
            next(enumerate_kary_trees(25, 0))
        with pytest.raises(GuardError, match=r"\(25 > 24\)"):
            _kary_histogram(25, 0)
        for k in (5, 24):
            assert [t.word for t in enumerate_kary_trees(k, 0)] == [(k,) + (0,) * k]
            assert _kary_histogram(k, 0) == (1, Counter({0: 1}))

    def test_bruteforce_counts(self):
        assert _kary_histogram(2, 2)[1][1] == 8
        assert _kary_histogram(2, 3)[1][2] == 6
        assert _kary_histogram(3, 1)[1][0] == 3

    def test_bruteforce_matches_closed_form(self):
        # The histogram against a per-tree reference, and its totals against
        # C(k, i) * C(kn, n - i).
        for k, n in SMALL_CELLS:
            trees = list(enumerate_kary_trees(k, n))
            reference = sum((Counter(kary_preorder_outdegrees(t)) for t in trees), Counter())
            assert _kary_histogram(k, n) == (len(trees), reference), (k, n)
            assert len(trees) == comb(k * (n + 1), n) // (n + 1)
            closed = {i: comb(k, i) * comb(k * n, n - i) for i in range(min(k, n) + 1)}
            assert dict(reference) == closed, (k, n)


class TestTextFormat:
    def test_examples(self):
        assert format_kary_tree(L2) == "( . . )"
        path_ll = KaryTree(2, (KaryTree(2, (L2, None)), None))
        assert format_kary_tree(path_ll) == "( ( ( . . ) . ) . )"
        assert parse_kary_tree("((( . . ) . ) . )") == path_ll
        assert parse_kary_tree("( ( ( . . ) . ) . )") == path_ll

    def test_parse_infers_and_checks_arity(self):
        assert parse_kary_tree("( . . . )").arity == 3
        with pytest.raises(ValueError):
            parse_kary_tree("( . . )", 3)
        with pytest.raises(ValueError):
            parse_kary_tree("( ( . ) . )")  # inner group arity 1, outer 2

    def test_parse_rejects_malformed(self):
        for bad in ["", ".", "( . .", "( . . ) junk", "( . . ) ( . . )"]:
            with pytest.raises(ValueError):
                parse_kary_tree(bad)

    def test_marked_roundtrip(self):
        marked = MarkedKaryTree(SAMPLE_TERNARY_8, 3)
        text = format_marked_kary_tree(marked)
        assert text.endswith("@3")
        assert parse_marked_kary_tree(text) == marked
        with pytest.raises(ValueError):
            parse_marked_kary_tree("( . . )@2")

    @given(binary_trees())
    def test_format_roundtrip(self, tree):
        assert parse_kary_tree(format_kary_tree(tree)) == tree


class TestDeepTrees:
    # 10^5-vertex trees through every codec, under the default recursion limit.
    VERTICES = 100_000

    def _roundtrip(self, tree, k, marks):
        n = self.VERTICES - 1
        assert tree.vertex_count == self.VERTICES and tree.arity == k
        text = format_kary_tree(tree)
        parsed = parse_kary_tree(text, k)
        assert parsed == tree and hash(parsed) == hash(tree)
        assert repr(parsed) == f"KaryTree(arity={k}, word={tree.word!r})"
        completed, index_map = complete(tree)
        assert uncomplete(completed, k) == tree
        assert len(index_map) == self.VERTICES
        outdegrees = kary_preorder_outdegrees(tree)
        for mark in marks:
            marked = MarkedKaryTree(tree, mark)
            assert parse_marked_kary_tree(format_marked_kary_tree(marked), k) == marked
            word = kary_pair_to_composition(marked)
            assert composition_to_kary_pair(word, k, n, outdegrees[mark - 1]) == marked
            pair = phi(word, k, n)
            assert phi_inverse(pair) == word

    def test_unary_path(self):
        text = "(" * self.VERTICES + "." + ")" * self.VERTICES
        path = parse_kary_tree(text)
        assert path.word == (1,) * self.VERTICES + (0,)
        assert kary_preorder_outdegrees(path) == (1,) * (self.VERTICES - 1) + (0,)
        self._roundtrip(path, 1, (1, self.VERTICES))

    def test_ternary_caterpillar(self):
        # Spine vertices with slots (leaf, empty, next spine vertex).
        spine = self.VERTICES // 2
        word = (3, 3, 0, 0, 0, 0) * spine + (0,)
        caterpillar = uncomplete(delta_decode(word), 3)
        # The last spine vertex has only its leaf.
        assert kary_preorder_outdegrees(caterpillar) == (2, 0) * (spine - 1) + (1, 0)
        self._roundtrip(caterpillar, 3, (2, self.VERTICES - 1))


def test_word_is_the_representation():
    assert L2.word == (2, 0, 0) and L2.arity == 2
    assert KaryTree(2, (L2, None)).word == (2, 2, 0, 0, 0)
    assert repr(L3) == "KaryTree(arity=3, word=(3, 0, 0, 0))"
    assert SAMPLE_TERNARY_8.word == SAMPLE_TERNARY_COMPLETED_WORD
    assert KaryTree(2, [None, None]) == L2


def test_phi_makes_k_minus_1_block_walks(monkeypatch):
    # The first leader starts the word; each of the other k - 1 is the end
    # of one block walk in the core, and the shape check walks no block.
    # The word decode runs the core only to check a given i against |X|.
    import treedegree.kary_trees as kary_trees

    calls = []
    honest = kary_trees._block_end

    def counting(word, start, height=0):
        calls.append(start)
        return honest(word, start, height)

    monkeypatch.setattr(kary_trees, "_block_end", counting)
    pair = phi(SAMPLE_TERNARY_ALPHA)
    assert (pair.X, pair.Y) == (SAMPLE_TERNARY_X, SAMPLE_TERNARY_Y)
    assert len(calls) == 3 - 1
    calls.clear()
    composition_to_kary_pair(SAMPLE_TERNARY_ALPHA, 3, 8)
    assert calls == []
    composition_to_kary_pair(SAMPLE_TERNARY_ALPHA, 3, 8, 2)
    assert len(calls) == 3 - 1


def test_word_decode_moves_the_mark_without_completing(monkeypatch):
    import treedegree.kary_trees as kary_trees

    marked = [MarkedKaryTree(SAMPLE_TERNARY_8, mark) for mark in range(1, 10)]
    words = [kary_pair_to_composition(m) for m in marked]
    assert words[SAMPLE_TERNARY_MARK - 1] == SAMPLE_TERNARY_ALPHA

    def refuse(tree):
        raise AssertionError("complete called")

    monkeypatch.setattr(kary_trees, "complete", refuse)
    assert [composition_to_kary_pair(word) for word in words] == marked


OTHER_PAIR = SubsetPair(3, 8, SAMPLE_TERNARY_X, frozenset(25 - y for y in SAMPLE_TERNARY_Y))
OTHER_WORD = phi_inverse(OTHER_PAIR)  # a different word with the same (k, n, i)
OTHER_MARKED = MarkedKaryTree(SAMPLE_TERNARY_8, 1)


@pytest.mark.parametrize(
    "module, core, returned, call",
    [
        (
            "kary_trees",
            "_bar_delta_encode",
            (OTHER_WORD, OTHER_WORD),
            lambda: kary_pair_to_composition(
                MarkedKaryTree(SAMPLE_TERNARY_8, SAMPLE_TERNARY_MARK)
            ),
        ),
        (
            "kary_trees",
            "_composition_to_kary_pair",
            ((OTHER_MARKED.tree.word, OTHER_MARKED.mark), OTHER_MARKED),
            lambda: composition_to_kary_pair(SAMPLE_TERNARY_ALPHA),
        ),
        (
            "kary_trees",
            "_phi",
            ((tuple(sorted(OTHER_PAIR.X)), tuple(sorted(OTHER_PAIR.Y))), OTHER_PAIR),
            lambda: phi(SAMPLE_TERNARY_ALPHA),
        ),
        (
            "kary_trees",
            "_phi_inverse",
            (OTHER_WORD, OTHER_WORD),
            lambda: phi_inverse(SubsetPair(3, 8, SAMPLE_TERNARY_X, SAMPLE_TERNARY_Y)),
        ),
        (
            "plane_trees",
            "_bar_delta_decode",
            (((0,), 1), MarkedPlaneTree(pt(), 1)),
            lambda: bar_delta_decode(SAMPLE_CYCLIC_WORD, 2),
        ),
    ],
)
def test_public_codec_returns_what_its_core_returns(monkeypatch, module, core, returned, call):
    # Each wrapper validates and then runs its core: one path, no fork. A
    # core returns words and ints, and the wrapper builds its object from
    # them; the k-ary encoder's core is the plane rotation.
    from_core, expected = returned
    assert call() != expected
    monkeypatch.setattr(importlib.import_module(f"treedegree.{module}"), core, lambda *a: from_core)
    assert call() == expected


def test_word_cores_round_trip_past_enumeration():
    # Seeded subset pairs far past the enumeration guard, through the word
    # cores: phi inverse, decode, the tree's i at the decoded mark, the
    # plane encode at the mark's image in the completion, phi. Two words
    # have kn near 10^5, and the last three have k from 50 to 10^4.
    import treedegree.kary_trees as kary_trees

    rng = random.Random(20150129)
    large = ((2, 50_000), (3, 33_333), (50, 40), (400, 5), (10**4, 1))
    for k, n in (*product(range(1, 5), range(61)), *large):
        i = rng.randint(0, min(k, n))
        x = tuple(sorted(rng.sample(range(1, k + 1), i)))
        y = tuple(sorted(rng.sample(range(1, k * n + 1), n - i)))
        word = kary_trees._phi_inverse(k, x, y)
        assert kary_trees._kary_word_structure(word, k) == (k, n)
        assert len(phi(word).X) == i
        tree_word, mark = kary_trees._composition_to_kary_pair(word, k)
        tree = kary_trees._kary_tree(k, tree_word)
        assert kary_preorder_outdegrees(tree)[mark - 1] == i
        encoded = kary_trees._bar_delta_encode(tree_word, complete(tree)[1][mark - 1])
        assert encoded == word
        assert kary_trees._phi(encoded, k) == (x, y)
    # Every leader at the front of the word, at k = 10^5: the subset core
    # walks the blocks once, linear in the word.
    k = 10**5
    assert phi((0,) * (2 * k - 1) + (k,)) == SubsetPair(k, 1, frozenset(), frozenset({k}))


def _word_entries(*args):
    # Both marked-word entries, which run the one structure check.
    return [lambda: phi(*args), lambda: composition_to_kary_pair(*args)]


@pytest.mark.parametrize(
    "calls, message",
    [
        (_word_entries(()), "entry shape: word is empty"),
        (_word_entries((0, -1)), "entry shape: entries must be nonnegative"),
        (_word_entries((0, 0), 0), "entry shape: arity must be at least 1"),
        ([lambda: uncomplete(delta_decode((2, 0, 0)), 0)], "arity must be at least 1"),
        (
            [lambda: phi_inverse(SubsetPair(0, 0, frozenset(), frozenset()))],
            "subset pair needs k >= 1 and n >= 0",
        ),
        ([lambda: parse_kary_tree(")")], "unbalanced ')' in ')'"),
        ([lambda: parse_kary_tree("()")], "arity must be at least 1"),
        (
            [lambda: parse_kary_tree("(.)", 0), lambda: parse_kary_tree("(.)", -1)],
            "arity must be at least 1",
        ),
    ],
    ids=["empty-word", "negative-entry", "arity-0", "uncomplete-arity-0", "subset-pair-k-0",
         "unbalanced-close", "empty-group", "parse-arity-below-1"],
)
def test_entry_point_messages(calls, message):
    for call in calls:
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "call",
    [
        lambda: parse_kary_tree("(..)", 2.0),
        lambda: parse_marked_kary_tree("(..)@1", 2.0),
        lambda: KaryTree(2.0, [None, None]),
        lambda: uncomplete(PlaneTree([PlaneTree(), PlaneTree()]), 2.0),
        lambda: composition_to_kary_pair((2.0, 0, 0, 0)),
        lambda: composition_to_kary_pair((0, 0), 2.0),
        lambda: next(enumerate_kary_trees(2.0, 2)),
        lambda: phi_inverse(SubsetPair(2.0, 1, frozenset({1}), frozenset())),
        lambda: phi_inverse(SubsetPair(1, 1.0, frozenset({1}), frozenset())),
    ],
    ids=["parse", "parse-marked", "constructor", "uncomplete", "word-arity", "given-arity",
         "enumerate", "subset-pair-k", "subset-pair-n"],
)
def test_arity_must_be_an_integer(call):
    # A float arity (or subset-pair size) equal to an int would build a tree
    # or word holding floats; each entry normalizes it with operator.index.
    with pytest.raises(TypeError):
        call()


def test_a_bool_arity_becomes_an_int():
    arity = composition_to_kary_pair((True, 0)).tree.arity
    assert arity == 1 and type(arity) is int


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: repr(next(enumerate_kary_trees(True, 2))), "KaryTree(arity=1, word=(1, 1, 1, 0))"),
        (
            lambda: format_composition(phi_inverse(SubsetPair(True, 1, frozenset({1}), frozenset()))),
            "(1,0)",
        ),
    ],
    ids=["enumerate", "subset-pair"],
)
def test_a_bool_arity_enters_no_word(call, expected):
    assert call() == expected


@pytest.mark.parametrize(
    "x, y, message",
    [
        ({0}, {1}, "X must be a subset of 1..3"),
        ({4}, {25}, "X must be a subset of 1..3"),
        ({1}, {0}, "Y must be a subset of 1..6"),
        ({1}, {7}, "Y must be a subset of 1..6"),
        ({1, 2, 3}, {1, 2, 3}, "|X| + |Y| must equal n=2, got 3 + 3"),
    ],
    ids=["x-low", "x-high-before-y", "y-low", "y-high", "sizes-after-ranges"],
)
def test_subset_range_messages(x, y, message):
    # X is checked before Y, and both ranges before the sizes.
    with pytest.raises(ValueError) as excinfo:
        phi_inverse(SubsetPair(3, 2, x, y))
    assert str(excinfo.value) == message


class TestSubsetPairNormalizes:
    # The constructor normalizes k, n and the entries of X and Y with
    # operator.index, and X and Y to frozensets, so to_json and hashing see
    # the same pair phi would build.
    def test_bool_entries_serialise_as_ints(self):
        pair = SubsetPair(2, 1, frozenset({True}), [False, 2])
        assert pair.to_json() == '{"k":2,"n":1,"X":[1],"Y":[0,2]}'
        assert {type(j) for j in pair.X | pair.Y} == {int}

    def test_a_frozenset_of_ints_is_kept(self):
        # Not copied: a caller that keeps its own sets holds each table once.
        x, y = frozenset({1}), frozenset({2, 5})
        pair = SubsetPair(3, 3, x, y)
        assert pair.X is x and pair.Y is y

    @pytest.mark.parametrize("x, y", [({1.0}, ()), ((), {1.0})], ids=["X", "Y"])
    def test_a_float_entry_raises_at_construction(self, x, y):
        with pytest.raises(TypeError):
            SubsetPair(2, 1, x, y)

    def test_a_bool_k_serialises_as_an_int(self):
        pair = SubsetPair(True, 1, frozenset({1}), frozenset())
        assert pair.to_json() == '{"k":1,"n":1,"X":[1],"Y":[]}'
        assert type(pair.k) is int

    @pytest.mark.parametrize("k, n", [(2.0, 1), (1, 1.0)], ids=["k", "n"])
    def test_a_float_size_raises_at_construction(self, k, n):
        with pytest.raises(TypeError):
            SubsetPair(k, n, frozenset({1}), frozenset())

    def test_plain_sets_give_a_hashable_pair(self):
        pair = SubsetPair(3, 8, set(SAMPLE_TERNARY_X), set(SAMPLE_TERNARY_Y))
        reference = SubsetPair(3, 8, SAMPLE_TERNARY_X, SAMPLE_TERNARY_Y)
        assert type(pair.X) is frozenset and type(pair.Y) is frozenset
        assert pair == reference and hash(pair) == hash(reference)
