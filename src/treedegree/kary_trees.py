"""k-ary trees, their completions, and the subset encoding of marked trees.

A k-ary tree gives every vertex exactly k ordered child slots, each empty
or holding a subtree; edges count the filled slots. Filling every empty
slot with a leaf produces the *completion*: a plane tree whose internal
vertices all have outdegree exactly k (:func:`complete` /
:func:`uncomplete`). A :class:`KaryTree` *is* the preorder outdegree word
of its completion, a unit composition of 0s and ks, and every operation
here is a flat scan of that word. A marked k-ary tree encodes, through the
completion and the cyclic word of :mod:`treedegree.plane_trees`, as a
composition made of n copies of k and kn + k - n zeros
(:func:`kary_pair_to_composition` / :func:`composition_to_kary_pair`).
That shape alone gives the word's fundamental decomposition exactly
k + f(tail) >= k unit blocks (the cycle lemma: f of the word is -k, each
unit block contributes -1 and the positive tail f(tail) >= 0), so the
codec needs no check on the blocks.

Such a word compresses further to a pair of subsets: X records which of
the first k unit blocks begin with k, and Y records where the remaining
k entries sit after those block leaders are deleted (:func:`phi` /
:func:`phi_inverse`). The subset pair is the counting-friendly form: for
a marked vertex of outdegree i there are C(k, i) choices of X and
C(kn, n - i) choices of Y.

Each of the four codec functions validates its input, then runs a private
core on plain words and ints: a completion word and its mark, a marked-pair
word and k, and (X, Y) as ascending tuples. The subset core reads X and Y
in one block walk (:mod:`treedegree.compositions`) over the word's first
k unit blocks, and the outdegree i a word encodes is |X|.
The encoder is the plane rotation of the completion at the mark's image,
and the decoder is the plane decode at outdegree k, which keeps its one
self-check: the rebuilt word is a unit composition. The verification
sweeps call the cores and compare words; the encoded word's i against the
marked vertex's filled slots, counted on the tree, is one of those checks.

Exhaustive enumeration is the oracle for the closed-form counts: one table
builder joins each tree's slots into its word (:func:`enumerate_kary_trees`),
its slot text or its filled-slot counts, which the family's histogram totals.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, compress, count, islice, product
from operator import index
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Optional

from ._limits import KARY_GUARD, check_guard
from .compositions import Composition, _block_end, enumerate_compositions
from .plane_trees import (
    PlaneTree,
    _bar_delta_decode,
    _bar_delta_encode,
    _parse_marked,
    _plane_tree,
)

__all__ = [
    "KaryTree",
    "MarkedKaryTree",
    "SubsetPair",
    "kary_leaf",
    "kary_preorder_outdegrees",
    "complete",
    "uncomplete",
    "kary_pair_to_composition",
    "composition_to_kary_pair",
    "phi",
    "phi_inverse",
    "enumerate_kary_trees",
    "format_kary_tree",
    "parse_kary_tree",
    "format_marked_kary_tree",
    "parse_marked_kary_tree",
]


@dataclass(frozen=True, init=False)
class KaryTree:
    """k-ary tree, held as its arity and the outdegree word of its completion.

    ``KaryTree(arity, slots)`` builds the vertex whose ``arity`` ordered
    slots are each empty (None) or a subtree of the same arity. ``word``
    has one entry per vertex of the completion in preorder: ``arity`` for
    a vertex of the tree, 0 for an empty slot. Equality, hashing and repr
    work on (arity, word).
    """

    __slots__ = ("arity", "word")  # by hand: slots=True breaks frozen setattr
    arity: int
    word: Composition

    def __init__(self, arity: int, slots: Iterable[Optional["KaryTree"]]):
        slots = tuple(slots)
        if (arity := index(arity)) < 1:
            raise ValueError("arity must be at least 1")
        if len(slots) != arity:
            raise ValueError(f"expected {arity} slots, got {len(slots)}")
        for sub in slots:
            if sub is not None and sub.arity != arity:
                raise ValueError("subtree arity differs from parent arity")
        word = (arity, *chain.from_iterable((0,) if sub is None else sub.word for sub in slots))
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "word", word)

    def __reduce__(self):
        return _kary_tree, (self.arity, self.word)

    @property
    def vertex_count(self) -> int:
        return len(self.word) - self.word.count(0)

    @property
    def edge_count(self) -> int:
        return self.vertex_count - 1


def _kary_tree(arity: int, word: Composition) -> KaryTree:
    # The tree whose completion has the 0/arity unit word ``word``.
    tree = object.__new__(KaryTree)
    object.__setattr__(tree, "arity", arity)
    object.__setattr__(tree, "word", word)
    return tree


class MarkedKaryTree(NamedTuple):
    tree: KaryTree
    mark: int  # 1-based preorder index over present vertices


def kary_leaf(arity: int) -> KaryTree:
    """Single vertex with all slots empty."""
    return KaryTree(arity, (None,) * arity)


def kary_preorder_outdegrees(t: KaryTree) -> tuple[int, ...]:
    """Number of filled slots per vertex, in preorder over present vertices."""
    word = t.word
    out = [0]
    owners = [0] * word[0]  # the index in out of each unread slot's vertex
    for part in word[1:]:
        owner = owners.pop()
        if part:
            out[owner] += 1
            owners += [len(out)] * part
            out.append(0)
    return tuple(out)


def complete(t: KaryTree) -> tuple[PlaneTree, tuple[int, ...]]:
    """Materialize every empty slot as a leaf.

    Returns the resulting plane tree together with the preorder index map:
    entry j-1 is the completed tree's preorder index of the j-th vertex of
    ``t``. Every original vertex becomes internal with outdegree exactly
    k, so a tree with n edges completes to k(n+1) edges. The completion's
    word is ``t.word`` itself, and the map lists the positions of k in it.
    """
    index_map = tuple(compress(count(1), t.word))
    return _plane_tree(t.word), index_map


def uncomplete(p: PlaneTree, k: int) -> KaryTree:
    """Inverse of :func:`complete`: leaves of ``p`` become empty slots.

    Rejects trees that are not completions, i.e. the single vertex or any
    tree with an internal vertex of outdegree other than k.
    """
    if (k := index(k)) < 1:
        raise ValueError("arity must be at least 1")
    word = p.word
    if not word[0]:
        raise ValueError("a single vertex is not the completion of any tree")
    for part in word:
        if part and part != k:
            raise ValueError(f"internal vertex has outdegree {part}, expected {k}")
    return _kary_tree(k, word)


def _kary_word_structure(
    word: Composition, arity: int | None, edges: int | None = None
) -> tuple[int, int]:
    # The one structure check of every marked-word entry. Shape (reported
    # as "entry shape"): entries are 0 or a single value k (matching
    # ``arity`` when given), the length is k(n+1) and exactly n entries
    # equal k; then n must match ``edges`` when given. Returns (k, n).
    if not word:
        raise ValueError("entry shape: word is empty")
    values = set(word)
    if min(values) < 0:
        raise ValueError("entry shape: entries must be nonnegative")
    values.discard(0)
    if len(values) > 1:
        raise ValueError(
            f"entry shape: entries must be 0 or the arity, found {sorted(values)}"
        )
    if values:
        (k,) = map(index, values)
        if arity is not None and arity != k:
            raise ValueError(f"entry shape: word uses {k}, expected arity {arity}")
    else:
        k = index(arity) if arity is not None else len(word)
    if k < 1:
        raise ValueError("entry shape: arity must be at least 1")
    if len(word) % k:
        raise ValueError(
            f"entry shape: length {len(word)} is not a multiple of arity {k}"
        )
    n = len(word) // k - 1
    k_count = len(word) - word.count(0)
    if k_count != n:
        raise ValueError(
            f"entry shape: expected {n} copies of {k} in a word of length {len(word)}, "
            f"found {k_count}"
        )
    if edges is not None and edges != n:
        raise ValueError(f"word encodes n={n}, expected {edges}")
    return k, n


def kary_pair_to_composition(m: MarkedKaryTree) -> Composition:
    """Encode a marked k-ary tree as a 0/k word of length k(n+1).

    Checks the mark, then takes the plane encoding of the completion at
    the mark's image. The marked vertex's slots are the word's first k unit
    blocks, and ``verify bijections`` compares the i they give with the tree.
    """
    t = m.tree
    if not 1 <= m.mark <= t.vertex_count:
        raise ValueError(f"mark {m.mark} out of range 1..{t.vertex_count}")
    # The mark's image in the completion: the position of its k in the word.
    position = next(islice(compress(count(1), t.word), m.mark - 1, None))
    return _bar_delta_encode(t.word, position)


def composition_to_kary_pair(
    word: Composition,
    k: int | None = None,
    n: int | None = None,
    i: int | None = None,
) -> MarkedKaryTree:
    """Decode a 0/k word back to its marked k-ary tree.

    Validates the word and any of k, n, i supplied for cross-validation
    (all derivable from the word). The core then runs the cyclic-word
    inverse at outdegree k (the marked vertex is internal in the
    completion) and strips the completion leaves, transporting the mark
    through the preorder index map.
    """
    word = tuple(word)
    k, _ = _kary_word_structure(word, k, n)
    if i is not None and i != (encoded := len(_phi(word, k)[0])):
        raise ValueError(f"word encodes outdegree i={encoded}, expected {i}")
    word, mark = _composition_to_kary_pair(word, k)
    return MarkedKaryTree(_kary_tree(k, word), mark)


def _composition_to_kary_pair(word: Composition, k: int) -> tuple[Composition, int]:
    # The decoded tree's word and mark: the plane decode at outdegree k,
    # whose rebuilt unit word is the validated 0/k word, rotated, with k
    # inserted at the mark. It is the completion of the tree with that
    # word, and the mark is the count of internal vertices up to the position.
    tree_word, position = _bar_delta_decode(word, k)
    return tree_word, position - tree_word[:position].count(0)


def phi(
    word: Composition, arity: int | None = None, edges: int | None = None
) -> "SubsetPair":
    """Compress a marked-pair word to its subset pair (X, Y).

    X collects the positions among the first k unit blocks that begin
    with k. Deleting the first entry of each of those k blocks leaves a
    word beta of length kn; Y collects the 1-based positions of the k
    entries remaining in beta. Validates the word, then runs the core.
    """
    word = tuple(word)
    k, n = _kary_word_structure(word, arity, edges)
    return SubsetPair(k, n, *_phi(word, k))


def _phi(word: Composition, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # (X, Y) as ascending tuples, from one walk over the word's first k unit
    # blocks (the cycle lemma gives at least k), the k-th taken to the end.
    # X takes j when block j's leader is k. Beta, the word without leaders,
    # has the rest of block j at 1-based start + 2 - j .. end - j: Y reads it.
    x, y, start = [], [], 0
    for j in range(1, k + 1):
        end = _block_end(word, start) if j < k else len(word)
        if word[start]:
            x.append(j)
        y += compress(range(start + 2 - j, end + 1 - j), word[start + 1 : end])
        start = end
    return tuple(x), tuple(y)


def phi_inverse(pair: "SubsetPair") -> Composition:
    """Rebuild the marked-pair word from its subset pair.

    Lays out beta (k at the positions in Y, 0 elsewhere), then inserts one
    leader per unit block, left to right: an inserted 0 is a block by
    itself, while an inserted k absorbs entries of beta until the block's
    running f-statistic first reaches -1. The remainder of beta is
    appended unchanged. Validates the pair, then runs the core: the zeros'
    count makes each absorption complete, and the result is a valid
    marked-pair word with parameters (k, n, |X|) by construction.
    """
    k, n = pair.k, pair.n
    if k < 1 or n < 0:
        raise ValueError("subset pair needs k >= 1 and n >= 0")
    if pair.X and (min(pair.X) < 1 or max(pair.X) > k):
        raise ValueError(f"X must be a subset of 1..{k}")
    if pair.Y and (min(pair.Y) < 1 or max(pair.Y) > k * n):
        raise ValueError(f"Y must be a subset of 1..{k * n}")
    if len(pair.X) + len(pair.Y) != n:
        raise ValueError(
            f"|X| + |Y| must equal n={n}, got {len(pair.X)} + {len(pair.Y)}"
        )
    return _phi_inverse(k, pair.X, pair.Y)


def _phi_inverse(k: int, x: Collection[int], y: Collection[int]) -> Composition:
    # The word of a valid (X, Y), with n = |X| + |Y|, in any order.
    beta = [0] * (k * (len(x) + len(y)))
    for j in y:
        beta[j - 1] = k
    leaders = [0] * k
    for j in x:
        leaders[j - 1] = k
    out: list[int] = []
    pos = 0
    for leader in leaders:
        out.append(leader)
        if leader:
            end = _block_end(beta, pos, k - 1)
            out.extend(beta[pos:end])
            pos = end
    out.extend(beta[pos:])
    return tuple(out)


def enumerate_kary_trees(k: int, n: int) -> Iterator[KaryTree]:
    """Yield every k-ary tree with n edges exactly once, deterministically.

    Order: by the bitmask of filled slots (slot 1 = low bit, ascending),
    then lexicographically by the split of the remaining edge budget, then
    recursively within each filled slot. Guarded on k*max(n, 1): even the
    one tree with no edges is a word of k + 1 entries.
    """
    k = index(k)
    words = _kary_table(k, n, (0,), lambda slots: (k, *chain.from_iterable(slots)))
    yield from map(partial(_kary_tree, k), words)


def _kary_table(k: int, n: int, empty: object, join: Callable[[tuple], object]) -> list:
    # enumerate_kary_trees(k, n), guarded at the call, each tree as ``join`` of its
    # k slots: ``empty`` or the entry of its subtree, from tables[b] at b edges.
    if k < 1:
        raise ValueError("arity must be at least 1")
    if n < 0:
        raise ValueError("edge count must be nonnegative")
    check_guard(KARY_GUARD, k * max(n, 1))
    tables = [[join((empty,) * k)]]
    for budget in range(1, n + 1):
        result: list = []
        # At most ``budget`` slots can be filled: only those slot sets, in
        # ascending bitmask order.
        slot_sets = (
            filled for size in range(1, min(k, budget) + 1) for filled in combinations(range(k), size)
        )
        for filled in sorted(slot_sets, key=lambda filled: sum(1 << j for j in filled)):
            for parts in enumerate_compositions(budget - len(filled), len(filled)):
                sizes = dict(zip(filled, parts))  # an empty slot's one choice is ``empty``
                columns = (tables[sizes[j]] if j in sizes else (empty,) for j in range(k))
                result += map(join, product(*columns))
        tables.append(result)
    return tables[n]


def _kary_texts(k: int, n: int) -> list[str]:
    # format_kary_tree of every tree of enumerate_kary_trees(k, n), in order.
    return _kary_table(k, n, ".", lambda slots: "( " + " ".join(slots) + " )")


def _kary_histogram(k: int, n: int) -> tuple[int, Counter[int]]:
    # The tree count and outdegree totals of enumerate_kary_trees(k, n), tree by tree.
    counts = _kary_table(k, n, (), lambda slots: (k - slots.count(()), *chain.from_iterable(slots)))
    return len(counts), Counter(chain.from_iterable(counts))


@dataclass(frozen=True)
class SubsetPair:
    """Subsets (X, Y) encoding a marked k-ary tree: X within 1..k, Y within 1..kn."""

    k: int
    n: int
    X: frozenset[int]
    Y: frozenset[int]

    def __post_init__(self) -> None:
        for name in "kn":
            object.__setattr__(self, name, index(getattr(self, name)))
        for name in "XY":
            # A frozenset of ints is kept, not copied: its caller may hold it.
            entries = getattr(self, name)
            if not (type(entries) is frozenset and set(map(type, entries)) <= {int}):
                entries = frozenset(map(index, entries))
            object.__setattr__(self, name, entries)

    def to_json(self) -> str:
        return json.dumps(
            {"k": self.k, "n": self.n, "X": sorted(self.X), "Y": sorted(self.Y)},
            separators=(",", ":"),
        )


def format_kary_tree(t: KaryTree) -> str:
    """Slot form: ``( s_1 ... s_k )`` per vertex, with ``.`` for an empty slot."""
    # A vertex read at f-height h closes when an empty slot brings the
    # f-height down to h - 1; the last slot brings it to -1 and closes
    # every vertex still open.
    tokens: list[str] = []
    closes: list[int] = []  # the f-height at which each open vertex closes
    height = 0
    for part in t.word:
        if part:
            tokens.append("(")
            closes.append(height - 1)
            height += part - 1
        elif height:
            tokens.append(".")
            height -= 1
            while closes[-1] == height:
                closes.pop()
                tokens.append(")")
        else:
            tokens.append(".")
            tokens += [")"] * len(closes)
    return " ".join(tokens)


def parse_kary_tree(text: str, arity: int | None = None) -> KaryTree:
    """Inverse of :func:`format_kary_tree`; whitespace is ignored.

    The arity is inferred from the groups and must be consistent
    throughout (and match ``arity`` when given).
    """
    if arity is not None and (arity := index(arity)) < 1:
        raise ValueError("arity must be at least 1")
    tokens = "".join(text.split())
    # Slots read so far, a closed group counting as one; at the top level,
    # the root groups read. A group's slots are those read since its '('.
    slots = 0
    opens: list[int] = []  # the count just after each open group's '('
    k = arity
    for ch in tokens:
        if ch == "(":
            slots += 1
            opens.append(slots)
        elif ch == ".":
            if not opens:
                raise ValueError("'.' outside any group")
            slots += 1
        elif ch == ")":
            if not opens:
                raise ValueError(f"unbalanced ')' in {text!r}")
            size = slots - opens.pop()
            if size != k:
                if k is not None:
                    raise ValueError(f"group with {size} slots in arity-{k} tree")
                if size < 1:
                    raise ValueError("arity must be at least 1")
                k = size
            slots -= size
            if slots > 1 and not opens:
                raise ValueError("more than one root group")
        else:
            raise ValueError(f"unexpected character {ch!r} in k-ary tree text")
    if opens:
        raise ValueError(f"unbalanced '(' in {text!r}")
    if not slots:
        raise ValueError("empty k-ary tree text")
    # Without its ')'s, the text is the completion in preorder: '(' for a
    # vertex of the tree, '.' for an empty slot.
    return _kary_tree(k, tuple(map({"(": k, ".": 0}.__getitem__, tokens.replace(")", ""))))


def format_marked_kary_tree(m: MarkedKaryTree) -> str:
    return f"{format_kary_tree(m.tree)}@{m.mark}"


def parse_marked_kary_tree(text: str, arity: int | None = None) -> MarkedKaryTree:
    return MarkedKaryTree(*_parse_marked(text, partial(parse_kary_tree, arity=arity)))
