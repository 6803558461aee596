"""Plane trees as their outdegree words, and the marked-tree cyclic bijection.

A plane tree is a rooted tree whose subtrees are linearly ordered; vertices
are identified by their 1-based preorder (depth-first) index. Reading off
outdegrees in preorder gives a unit composition, and that map is a
bijection, so a :class:`PlaneTree` *is* that word: it holds nothing else,
and every operation here is a flat scan of it (:func:`preorder_outdegrees`
/ :func:`delta_decode` only unwrap and wrap). Marking a vertex of
outdegree i and deleting its entry from the cyclic outdegree word gives a
bijection between marked trees and arbitrary n-part compositions of n - i
(:func:`bar_delta_encode` / :func:`bar_delta_decode`). By the cycle lemma
the inverse is a rotation: the tree's word is the encoded word rotated to
start at its positive tail, with i put back just before the unit blocks.
Their private cores take and return plain words and marks, and the public
functions wrap those in :class:`MarkedPlaneTree`.

Exhaustive enumeration (:func:`enumerate_plane_trees`) doubles as the
brute-force oracle for the closed-form counts. One lexicographic walk,
with no recursion, folds a state over each word's head and builds the
cached tables of the suffixes that finish a head. The words join each head
to its suffix table, and the text of every tree (``enumerate plane``)
joins each head's text to a cached tuple of formatted suffixes, keyed by
its f-height and closing-height stack: the f-height at which each vertex
still open closes. The one counting oracle, a private histogram
of tree count and outdegree totals, joins no words: it groups the heads by
f-height and counts each group's parts once per suffix in its table, and
each table's parts once per head in the group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain
from operator import index
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from ._limits import PLANE_GUARD, check_guard
from .compositions import Composition, _tail_start, as_composition, is_unit

__all__ = [
    "PlaneTree",
    "MarkedPlaneTree",
    "preorder_outdegrees",
    "delta_decode",
    "outdegree_histogram",
    "degree_histogram",
    "enumerate_plane_trees",
    "bar_delta_encode",
    "bar_delta_decode",
    "format_plane_tree",
    "parse_plane_tree",
    "format_marked_plane_tree",
    "parse_marked_plane_tree",
]


@dataclass(frozen=True, init=False)
class PlaneTree:
    """Immutable plane tree, held as its preorder outdegree word.

    ``PlaneTree(children)`` builds the tree with the given subtrees;
    equality, hashing and repr work on ``word``.
    """

    __slots__ = ("word",)  # by hand: slots=True breaks frozen setattr
    word: Composition

    def __init__(self, children: Iterable["PlaneTree"] = ()):
        children = tuple(children)
        word = (len(children), *chain.from_iterable(c.word for c in children))
        object.__setattr__(self, "word", word)

    def __reduce__(self):
        return _plane_tree, (self.word,)

    @property
    def vertex_count(self) -> int:
        return len(self.word)

    @property
    def edge_count(self) -> int:
        return len(self.word) - 1


def _plane_tree(word: Composition) -> PlaneTree:
    # The tree of a word already known to be a unit composition.
    tree = object.__new__(PlaneTree)
    object.__setattr__(tree, "word", word)
    return tree


class MarkedPlaneTree(NamedTuple):
    tree: PlaneTree
    mark: int  # 1-based preorder index of the marked vertex


def preorder_outdegrees(t: PlaneTree) -> Composition:
    """Outdegree word (d_1, ..., d_{n+1}) of the tree in preorder."""
    return t.word


def delta_decode(word: Composition) -> PlaneTree:
    """The unique plane tree whose preorder outdegree word is ``word``.

    Rejects words that are not unit compositions.
    """
    word = as_composition(word)
    if not is_unit(word):
        raise ValueError(f"not a unit composition: {word!r}")
    return _plane_tree(word)


def outdegree_histogram(t: PlaneTree) -> dict[int, int]:
    """Map outdegree -> number of vertices with that outdegree."""
    return dict(Counter(t.word))


def degree_histogram(t: PlaneTree) -> dict[int, int]:
    """Map degree -> vertex count; the root's degree is its outdegree,
    every other vertex has degree outdegree + 1."""
    counts = Counter({t.word[0]: 1})
    counts.update(d + 1 for d in t.word[1:])
    return dict(counts)


# Trailing parts of each word taken from a suffix table, not the walk.
# The formatted tables, one per closing-height stack, grow fast with it.
_BLOCK = 6
# The same for the histogram, which caches only each table's size and
# totals, so longer tables cost it little memory.
_HISTOGRAM_BLOCK = 8


def _parts(height: int, left: int) -> range:
    # The parts that can come next at f-height ``height`` (sum minus length)
    # with ``left`` parts to come: all but the last keep it nonnegative and
    # within reach of -1 for the parts left, and the last brings it to -1.
    return range(0 if left == 1 else max(0, 1 - height), left - height)


_State = TypeVar("_State")


def _walk(
    start: _State, height: int, left: int, parts: int, step: Callable[[_State, int], _State]
) -> Iterator[tuple[_State, int]]:
    # Each way on from f-height ``height`` with ``left`` parts to come, up to
    # where ``parts`` are left, in lexicographic order: the state ``step``
    # folds from ``start`` over the parts taken, and the f-height they reach.
    # The levels are lazy generators on a list; the last, which yields the
    # most, is a plain loop.
    levels: list[Iterator[tuple[_State, int]]] = [iter(((start, height),))]
    while levels:
        to_go = left + 1 - len(levels)  # parts to come at each node of levels[-1]
        for state, height in levels[-1]:
            if to_go > parts + 1:
                levels.append(_children(state, height, to_go, step))
                break
            if to_go == parts:
                yield state, height
            else:
                for part in _parts(height, to_go):
                    yield step(state, part), height + part - 1
        else:
            levels.pop()


def _children(
    state: _State, height: int, left: int, step: Callable[[_State, int], _State]
) -> Iterator[tuple[_State, int]]:
    # One level of _walk: the state and f-height one part on, per part.
    for part in _parts(height, left):
        yield step(state, part), height + part - 1


@cache
def _suffixes(height: int, parts: int) -> tuple[Composition, ...]:
    # Every way to finish a unit word from f-height ``height`` with
    # ``parts`` parts left, in lexicographic order.
    return tuple(suffix for suffix, _ in _walk((), height, parts, 0, _extend))


def _prefixes(
    n: int, parts: int, start: _State, step: Callable[[_State, int], _State]
) -> Iterator[tuple[_State, int]]:
    # _walk over the heads of the unit (n+1)-part compositions of n, all but
    # their last ``parts`` parts; with parts = n + 1 there is one, empty, head.
    return _walk(start, 0, n + 1, parts, step)


def enumerate_plane_trees(n: int) -> Iterator[PlaneTree]:
    """Yield every plane tree with n edges exactly once.

    Order is lexicographic in the preorder outdegree word. Guarded: see
    :mod:`treedegree._limits`.
    """
    yield from map(_plane_tree, _plane_words(n))


def _plane_words(n: int) -> Iterator[Composition]:
    # The words of enumerate_plane_trees, guarded the same way but at the
    # call: the unit (n+1)-part compositions of n in lexicographic order,
    # each head joined, in C, to every suffix in the table for its f-height.
    parts = _guarded_parts(n, _BLOCK)
    return chain.from_iterable(
        map(prefix.__add__, _suffixes(height, parts))
        for prefix, height in _prefixes(n, parts, (), _extend)
    )


def _extend(prefix: Composition, part: int) -> Composition:
    # The word walk's fold: the prefix one part longer.
    return prefix + (part,)


def _plane_histogram(n: int) -> tuple[int, Counter[int]]:
    # The word count and outdegree totals of _plane_words(n), guarded the
    # same way, without joining a word: the prefixes grouped by f-height,
    # each group's parts counted once per suffix in its table, and each
    # table's cached totals once per prefix in the group.
    parts = _guarded_parts(n, _HISTOGRAM_BLOCK)
    groups: dict[int, list[Composition]] = {}
    for prefix, height in _prefixes(n, parts, (), _extend):
        groups.setdefault(height, []).append(prefix)
    words, totals = 0, Counter()
    for height, prefixes in groups.items():
        size, suffix_totals = _suffix_totals(height, parts)
        words += size * len(prefixes)
        for degree, total in Counter(chain.from_iterable(prefixes)).items():
            totals[degree] += total * size
        for degree, total in suffix_totals.items():
            totals[degree] += total * len(prefixes)
    return words, totals


@cache
def _suffix_totals(height: int, parts: int) -> tuple[int, Counter[int]]:
    # The size of the suffix table _suffixes(height, parts) and its outdegree
    # totals. The table is walked afresh and dropped, and caches nothing.
    table = [suffix for suffix, _ in _walk((), height, parts, 0, _extend)]
    return len(table), Counter(chain.from_iterable(table))


def _plane_texts(n: int) -> Iterator[str]:
    # format_plane_tree of every tree of enumerate_plane_trees, in its order,
    # guarded like _plane_words: each head prefix's text joined, in C, to the
    # formatted suffixes that finish it from its f-height and closing-height
    # stack.
    parts = _guarded_parts(n, _BLOCK)
    return chain.from_iterable(
        map(text.__add__, _text_suffixes(stack, height, parts))
        for (text, _, stack), height in _prefixes(n, parts, ("", 0, ()), _format_step)
    )


def _guarded_parts(n: int, block: int) -> int:
    # The suffix length of the n-edge words, at most ``block``, once the
    # plane guard accepts n.
    if n < 0:
        raise ValueError("edge count must be nonnegative")
    check_guard(PLANE_GUARD, n)
    return min(n + 1, block)


def bar_delta_encode(m: MarkedPlaneTree) -> Composition:
    """Cyclic outdegree word of a marked tree, with the mark's entry removed.

    With the mark at preorder index j, the result is
    (d_{j+1}, ..., d_{n+1}, d_1, ..., d_{j-1}): length n, sum n - i where
    i is the marked vertex's outdegree.
    """
    word = m.tree.word
    if not 1 <= m.mark <= len(word):
        raise ValueError(f"mark {m.mark} out of range 1..{len(word)}")
    return _bar_delta_encode(word, m.mark)


def _bar_delta_encode(word: Composition, mark: int) -> Composition:
    # The rotation of bar_delta_encode, on a unit word and a mark in range.
    return word[mark:] + word[: mark - 1]


def bar_delta_decode(word: Composition, i: int) -> MarkedPlaneTree:
    """Invert :func:`bar_delta_encode` for a marked vertex of outdegree i.

    ``word`` must have length n and sum n - i. Writing its fundamental
    decomposition as unit blocks u_1 ... u_s and positive tail p, the word
    p + (i) + u_1 + ... + u_s is always a unit composition; it is the
    tree, and the mark sits at preorder index len(p) + 1. The empty word
    (n = 0, so i = 0) is the single vertex, marked at 1.
    """
    word, i = as_composition(word), index(i)
    n = len(word)
    if i < 0 or sum(word) != n - i:
        raise ValueError(
            f"word of length {n} with sum {sum(word)} does not match outdegree {i}"
        )
    alpha, mark = _bar_delta_decode(word, i)
    return MarkedPlaneTree(_plane_tree(alpha), mark)


def _bar_delta_decode(word: Composition, i: int) -> tuple[Composition, int]:
    # bar_delta_decode past its length and sum checks: the tree's word and
    # the mark. The sum check makes f(word) = -i, so the word has s >= i
    # unit blocks, and the positive tail from ``start`` has f = s - i.
    start = _tail_start(word)
    alpha = (*word[start:], i, *word[:start])
    if not is_unit(alpha):
        raise AssertionError(f"rebuilt word is not a unit composition: {alpha!r}")
    return alpha, len(word) - start + 1


def format_plane_tree(t: PlaneTree) -> str:
    """Balanced-parentheses form: one () pair per non-root vertex, in preorder.

    The single vertex renders as the empty string; a root with two leaf
    children renders as ``()()``.
    """
    return _format_entries(t.word, 0, [])


def _format_entries(word: Composition, height: int, closes: list[int]) -> str:
    # The text of the entries ``word`` read from f-height ``height`` after a
    # prefix that left ``closes``, the f-height at which each open vertex
    # closes (innermost last, the root first once read); updates ``closes``
    # to the stack after them. A vertex read at f-height h closes when the
    # f-height falls to h - 1. Each vertex but the root writes '(' when read
    # and ')' when it closes, so a leaf writes "()" and is never pushed. A
    # leaf read at f-height 0 ends the word: every open vertex closes.
    out: list[str] = []
    for degree in word:
        if degree:
            if closes:
                out.append("(")
            closes.append(height - 1)
            height += degree - 1
        elif height:
            out.append("()")
            height -= 1
            while closes[-1] == height:
                closes.pop()
                out.append(")")
        elif closes:
            out.append("(" + ")" * len(closes))
            closes.clear()
    return "".join(out)


def _format_step(
    state: tuple[str, int, tuple[int, ...]], part: int
) -> tuple[str, int, tuple[int, ...]]:
    # A prefix's (text, f-height, closing-height stack), one part longer.
    text, height, stack = state
    closes = list(stack)
    text += _format_entries((part,), height, closes)
    return text, height + part - 1, tuple(closes)


@cache
def _text_suffixes(stack: tuple[int, ...], height: int, parts: int) -> tuple[str, ...]:
    # The text of every suffix in _suffixes(height, parts), read at f-height
    # ``height`` after a prefix that left the closing-height stack ``stack``.
    return tuple(
        _format_entries(suffix, height, list(stack)) for suffix in _suffixes(height, parts)
    )


def parse_plane_tree(text: str) -> PlaneTree:
    """Inverse of :func:`format_plane_tree`; whitespace is ignored."""
    word = [0]
    open_vertices = [0]  # word index of each vertex whose ')' is still to come
    for ch in text:
        if ch == "(":
            word[open_vertices[-1]] += 1
            open_vertices.append(len(word))
            word.append(0)
        elif ch == ")":
            if len(open_vertices) == 1:
                raise ValueError(f"unbalanced ')' in {text!r}")
            open_vertices.pop()
        elif not ch.isspace():
            raise ValueError(f"unexpected character {ch!r} in plane tree text")
    if len(open_vertices) != 1:
        raise ValueError(f"unbalanced '(' in {text!r}")
    return _plane_tree(tuple(word))


def format_marked_plane_tree(m: MarkedPlaneTree) -> str:
    return f"{format_plane_tree(m.tree)}@{m.mark}"


def parse_marked_plane_tree(text: str) -> MarkedPlaneTree:
    return MarkedPlaneTree(*_parse_marked(text, parse_plane_tree))


_Tree = TypeVar("_Tree")


def _parse_marked(text: str, parse_tree: Callable[[str], _Tree]) -> tuple[_Tree, int]:
    # Split "<tree>@<mark>", parse the tree, and check the mark's range.
    tree_part, sep, mark_part = text.rpartition("@")
    if not sep:
        raise ValueError(f"marked tree must end with '@<mark>': {text!r}")
    try:
        mark = int(mark_part)
    except ValueError:
        raise ValueError(f"mark must be an integer: {mark_part!r}") from None
    tree = parse_tree(tree_part)
    if not 1 <= mark <= tree.vertex_count:
        raise ValueError(f"mark {mark} out of range 1..{tree.vertex_count}")
    return tree, mark
