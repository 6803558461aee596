"""The tree text codecs against per-vertex-counter reference loops.

The formatters keep one running f-height (the sum of outdegree - 1 over
the entries read) and the stack of heights at which the open vertices
close; the k-ary parser keeps one slot counter and its value at each open
group. The references below keep one counter per open vertex instead,
and each must give the same text, tree, error message and state.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treedegree import (
    MarkedKaryTree,
    PlaneTree,
    bar_delta_decode,
    complete,
    composition_to_kary_pair,
    format_kary_tree,
    format_plane_tree,
    kary_pair_to_composition,
    parse_kary_tree,
    parse_plane_tree,
)
import treedegree.kary_trees as kary_module
import treedegree.plane_trees as plane_module


def _reference_format_entries(word, pending):
    # The plane text of ``word`` after a prefix that left ``pending``
    # (children still to come, per open vertex, innermost last); updates
    # ``pending`` to the stack after them.
    out = []
    for degree in word:
        if pending:
            pending[-1] -= 1
            out.append("(")
        pending.append(degree)
        while pending and not pending[-1]:
            pending.pop()
            if pending:
                out.append(")")
    return "".join(out)


def _reference_format_kary_tree(t):
    tokens = []
    pending = []  # slots still to come, per open vertex
    for part in t.word:
        if pending:
            pending[-1] -= 1
        if part:
            tokens.append("(")
            pending.append(part)
        else:
            tokens.append(".")
            while pending and not pending[-1]:
                pending.pop()
                tokens.append(")")
    return " ".join(tokens)


def _reference_parse_kary_tree(text, arity=None):
    # The arity and word of the tree, or the same ValueError.
    if arity is not None and arity < 1:
        raise ValueError("arity must be at least 1")
    tokens = "".join(text.split())
    entries = []  # slots read so far, per open group
    roots = 0
    k = arity
    for ch in tokens:
        if ch == "(":
            if entries:
                entries[-1] += 1
            entries.append(0)
        elif ch == ".":
            if not entries:
                raise ValueError("'.' outside any group")
            entries[-1] += 1
        elif ch == ")":
            if not entries:
                raise ValueError(f"unbalanced ')' in {text!r}")
            size = entries.pop()
            if k is None:
                k = size
                if k < 1:
                    raise ValueError("arity must be at least 1")
            elif size != k:
                raise ValueError(f"group with {size} slots in arity-{k} tree")
            if not entries:
                roots += 1
                if roots > 1:
                    raise ValueError("more than one root group")
        else:
            raise ValueError(f"unexpected character {ch!r} in k-ary tree text")
    if entries:
        raise ValueError(f"unbalanced '(' in {text!r}")
    if not roots:
        raise ValueError("empty k-ary tree text")
    return k, tuple(k if ch == "(" else 0 for ch in tokens.replace(")", ""))


def _closing_heights(pending, height):
    # The closing-height stack that matches a pending stack at f-height
    # ``height``: a vertex with r children to come closes after those r
    # subtrees and every one open inside it, each of which lowers f by one.
    return [height - sum(pending[j:]) for j in range(len(pending))]


def _outcome(call):
    # What a parse gives: a result, or a ValueError's message.
    try:
        return call()
    except ValueError as error:
        return str(error)


plane_trees = st.recursive(
    st.just(PlaneTree()), lambda sub: st.lists(sub, max_size=4).map(PlaneTree), max_leaves=30
)


@st.composite
def kary_trees(draw):
    # A k-ary tree from any arrangement of a marked-pair word's entries.
    k = draw(st.integers(1, 4))
    n = draw(st.integers(0, 16 // k))
    word = draw(st.permutations([k] * n + [0] * (k * n + k - n)))
    return composition_to_kary_pair(word).tree


TEXT_ALPHABET = "(.) \t\n"


@st.composite
def kary_texts(draw):
    # Arbitrary strings over the text's alphabet, and one or two
    # well-formed texts with up to three characters inserted, deleted or
    # replaced.
    if draw(st.booleans()):
        return draw(st.text(TEXT_ALPHABET, max_size=40))
    text = list(" ".join(map(format_kary_tree, draw(st.lists(kary_trees(), min_size=1, max_size=2)))))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            text.insert(at, draw(st.sampled_from("(.)x")))
        elif at < len(text):
            if edit == "delete":
                del text[at]
            else:
                text[at] = draw(st.sampled_from("(.)"))
    return "".join(text)


class TestAgainstReference:
    @given(kary_texts(), st.sampled_from([None, 1, 2, 3]))
    def test_kary_parse(self, text, arity):
        def parse():
            tree = parse_kary_tree(text, arity)
            return tree.arity, tree.word

        assert _outcome(parse) == _outcome(lambda: _reference_parse_kary_tree(text, arity))

    @given(kary_trees())
    def test_kary_format(self, tree):
        assert format_kary_tree(tree) == _reference_format_kary_tree(tree)

    @given(plane_trees)
    def test_plane_format(self, tree):
        assert format_plane_tree(tree) == _reference_format_entries(tree.word, [])

    @given(plane_trees, st.data())
    def test_plane_format_from_a_mid_word_state(self, tree, data):
        # The word read in three pieces, each from the state the one before
        # left, as the text walk reads a head and a suffix table its suffix:
        # the same text and the matching stack after each piece.
        word = tree.word
        cuts = sorted(data.draw(st.lists(st.integers(0, len(word)), min_size=2, max_size=2)))
        pending, closes, height = [], [], 0
        for start, end in zip((0, *cuts), (*cuts, len(word))):
            piece = word[start:end]
            text = _reference_format_entries(piece, pending)
            assert plane_module._format_entries(piece, height, closes) == text
            height += sum(piece) - len(piece)
            assert closes == _closing_heights(pending, height)
        assert closes == pending == [] and height == -1

    def test_text_walk_states(self):
        # Each head state of the n = 10 text walk is the reference's pending
        # stack, and its suffix table reads on from it as the reference does.
        n = 10
        parts = plane_module._guarded_parts(n, plane_module._BLOCK)
        heads = plane_module._prefixes(n, parts, ((), ("", 0, ())), _walk_both)
        for (head, (text, height, stack)), walked in heads:
            pending = []
            assert text == _reference_format_entries(head, pending)
            assert height == walked == sum(head) - len(head)
            assert list(stack) == _closing_heights(pending, height)
            assert list(plane_module._text_suffixes(stack, height, parts)) == [
                _reference_format_entries(suffix, list(pending))
                for suffix in plane_module._suffixes(height, parts)
            ]


def _walk_both(state, part):
    # The word walk's and the text walk's folds side by side.
    head, text_state = state
    return head + (part,), plane_module._format_step(text_state, part)


def _seeded_plane_tree(rng, n):
    # An n-edge tree: the decode of a composition of n - 2 into n parts,
    # each unit put in a part drawn by random(), marked at outdegree 2.
    parts = [0] * n
    for _ in range(n - 2):
        parts[int(rng.random() * n)] += 1
    return bar_delta_decode(tuple(parts), 2).tree


def _seeded_kary_tree(rng, k, n):
    # An n-edge k-ary tree: the decode of a marked-pair word's entries in an
    # order shuffled by random() alone, which is the same on every Python.
    word = [k] * n + [0] * (k * n + k - n)
    for j in range(len(word) - 1, 0, -1):
        swap = int(rng.random() * (j + 1))
        word[j], word[swap] = word[swap], word[j]
    return composition_to_kary_pair(word).tree


EDGES = 10**4


@pytest.fixture(scope="module")
def seeded_trees():
    # The trees that the CI round trip formats, parses and pins.
    rng = random.Random(2015)
    plane = _seeded_plane_tree(rng, EDGES)
    return plane, _seeded_kary_tree(rng, 2, EDGES), _seeded_kary_tree(rng, 3, EDGES)


def test_large_plane_round_trip(seeded_trees):
    tree = seeded_trees[0]
    assert tree.edge_count == EDGES
    text = format_plane_tree(tree)
    assert text == _reference_format_entries(tree.word, [])
    assert parse_plane_tree(text) == tree


@pytest.mark.parametrize("k", [2, 3])
def test_large_kary_round_trip(seeded_trees, k):
    tree = seeded_trees[k - 1]
    assert (tree.arity, tree.edge_count) == (k, EDGES)
    text = format_kary_tree(tree)
    assert text == _reference_format_kary_tree(tree)
    assert parse_kary_tree(text, k) == tree
    # The encoder finds the mark's image without the completion's index map.
    index_map = complete(tree)[1]
    for mark in (1, EDGES // 2, EDGES + 1):
        encoded = kary_pair_to_composition(MarkedKaryTree(tree, mark))
        assert encoded == kary_module._bar_delta_encode(tree.word, index_map[mark - 1])
