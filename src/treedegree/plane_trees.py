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
brute-force oracle for the closed-form counts. One prefix walker runs an
odometer over each word's leading parts only, folding a state over each
prefix; the words join every prefix to a cached table of the suffixes
that finish it, and the text format of every tree (``enumerate plane``)
joins each prefix's text to a cached tuple of formatted suffixes, keyed by
the prefix's pending-children stack. The family's one counting oracle, a
private histogram of tree count and outdegree totals, joins no words: it
groups the prefixes by f-height and counts each group's parts once per
suffix in its table, and each table's parts once per prefix in the group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain
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


# Trailing parts of each word taken from a suffix table, not the odometer.
# The formatted tables, one per pending stack, grow fast with it.
_BLOCK = 6
# The same for the histogram, which caches only each table's size and
# totals, so longer tables cost it little memory.
_HISTOGRAM_BLOCK = 8


@cache
def _suffixes(height: int, parts: int) -> tuple[Composition, ...]:
    # Every way to finish a unit word from prefix f-height ``height`` (its
    # sum minus its length) with ``parts`` parts left, in lexicographic
    # order: each part but the last keeps the f-height nonnegative, and the
    # last brings it to -1. Brute recursion on the first part.
    if parts == 1:
        return ((0,),) if height == 0 else ()
    return tuple(
        (first, *rest)
        for first in range(max(0, 1 - height), parts - height)
        for rest in _suffixes(height + first - 1, parts - 1)
    )


_State = TypeVar("_State")


def _prefixes(
    n: int, parts: int, start: _State, step: Callable[[_State, int], _State]
) -> Iterator[tuple[_State, int]]:
    # The odometer under every plane enumeration: for each head prefix of
    # the unit (n+1)-part compositions of n, in lexicographic order, the
    # state ``step`` folds from ``start`` over its parts, and its f-height
    # (sum minus length). The head is the first n + 1 - ``parts``
    # positions; with parts = n + 1 there is one, empty, prefix. Position p
    # with running sum totals[p] takes parts from max(0, p + 1 - totals[p]),
    # which keeps the prefix f-value nonnegative, while the sum stays
    # within n, so the prefix ends at f-height 0..parts - 1. The odometer
    # turns the positions before the last, refolding only the states after
    # a changed one; the last position is a plain loop over its range.
    head = n + 1 - parts
    if head <= 0:
        yield start, 0
        return
    last = head - 1
    word = [0] * last
    totals = [0] * head  # totals[p] = sum(word[:p])
    states = [start] * head  # states[p] = step folded over word[:p]
    pos = 0
    while True:
        for p in range(pos, last):
            word[p] = max(0, p + 1 - totals[p])
            totals[p + 1] = totals[p] + word[p]
            states[p + 1] = step(states[p], word[p])
        total, state = totals[last], states[last]
        for part in range(max(0, head - total), n + 1 - total):
            yield step(state, part), total + part - head
        pos = last - 1
        while pos >= 0 and totals[pos + 1] == n:
            pos -= 1
        if pos < 0:
            return
        word[pos] += 1
        totals[pos + 1] += 1
        states[pos + 1] = step(states[pos], word[pos])
        pos += 1


def enumerate_plane_trees(n: int) -> Iterator[PlaneTree]:
    """Yield every plane tree with n edges exactly once.

    Order is lexicographic in the preorder outdegree word. Guarded: see
    :mod:`treedegree._limits`.
    """
    yield from map(_plane_tree, _plane_words(n))


def _plane_words(n: int) -> Iterator[Composition]:
    # The words of enumerate_plane_trees, guarded the same way but at the
    # call: the unit (n+1)-part compositions of n in lexicographic order,
    # each head prefix joined, in C, to every suffix in the table for its
    # f-height.
    parts = _guarded_parts(n, _BLOCK)
    return chain.from_iterable(
        map(prefix.__add__, _suffixes(height, parts))
        for prefix, height in _prefixes(n, parts, (), _extend)
    )


def _extend(prefix: Composition, part: int) -> Composition:
    # The word walker's fold: the prefix one part longer.
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
    # totals. The table is enumerated afresh and dropped: only its parts - 1
    # subtables stay cached.
    table = _suffixes.__wrapped__(height, parts)
    return len(table), Counter(chain.from_iterable(table))


def _plane_texts(n: int) -> Iterator[str]:
    # format_plane_tree of every tree of enumerate_plane_trees, in its order,
    # guarded like _plane_words: each head prefix's text joined, in C, to the
    # formatted suffixes that finish it from its pending-children stack.
    parts = _guarded_parts(n, _BLOCK)
    return chain.from_iterable(
        map(text.__add__, _text_suffixes(stack, height, parts))
        for (text, stack), height in _prefixes(n, parts, ("", ()), _format_step)
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
    word = tuple(word)
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
    return _format_entries(t.word, [])


def _format_entries(word: Composition, pending: list[int]) -> str:
    # The text of the entries ``word`` after a prefix that left ``pending``
    # (children still to come, per open vertex, innermost last); updates
    # ``pending`` to the stack after them.
    out: list[str] = []
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


def _format_step(state: tuple[str, tuple[int, ...]], part: int) -> tuple[str, tuple[int, ...]]:
    # A prefix's (text, pending stack), one part longer.
    text, stack = state
    pending = list(stack)
    text += _format_entries((part,), pending)
    return text, tuple(pending)


@cache
def _text_suffixes(stack: tuple[int, ...], height: int, parts: int) -> tuple[str, ...]:
    # The text of every suffix in _suffixes(height, parts), read after a
    # prefix that left the pending stack ``stack``.
    return tuple(_format_entries(suffix, list(stack)) for suffix in _suffixes(height, parts))


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
