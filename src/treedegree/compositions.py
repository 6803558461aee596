"""Compositions of nonnegative integers and their block structure.

A composition is a finite tuple of nonnegative integers. The statistic
f(a_1, ..., a_m) = sum(a_j - 1) drives everything here: a *unit*
composition keeps f >= 0 on every proper prefix and ends at exactly -1
(these are the preorder outdegree words of plane trees), while a
*positive* composition keeps f >= 0 on every prefix, the whole word
included. Every composition factors uniquely as a run of unit blocks
followed by a positive tail; :func:`fundamental_decomposition` computes
that factorization greedily. Two private walks of the running f give the
codecs where the tail starts and where a block ends, without building it.
"""

from __future__ import annotations

from itertools import combinations
from operator import index
from typing import Iterable, Iterator, NamedTuple, Sequence

Composition = tuple[int, ...]

__all__ = [
    "Composition",
    "FundamentalDecomposition",
    "as_composition",
    "f_statistic",
    "is_unit",
    "fundamental_decomposition",
    "format_composition",
    "parse_composition",
    "enumerate_compositions",
]


def as_composition(parts: Iterable[int]) -> Composition:
    """Normalize to a tuple, rejecting negative and non-integer parts."""
    c = tuple(map(index, parts))
    if c and min(c) < 0:
        raise ValueError("composition parts must be nonnegative")
    return c


def f_statistic(c: Composition) -> int:
    """sum of (part - 1) over the composition: sum(c) - len(c)."""
    return sum(c) - len(c)


def is_unit(c: Composition) -> bool:
    """True iff f stays >= 0 on proper prefixes and reaches -1 at the end."""
    pending = 1  # f + 1 on the prefix read so far: the open slots of a tree
    for part in c:
        if pending <= 0:
            return False
        pending += part - 1
    return pending == 0


class FundamentalDecomposition(NamedTuple):
    units: tuple[Composition, ...]
    tail: Composition


def fundamental_decomposition(c: Composition) -> FundamentalDecomposition:
    """Split a composition into unit blocks followed by a positive tail.

    Greedy single pass: each block ends at the first position where the
    running f hits -1 (f steps down by at most 1, so -1 is the first
    negative value it can take). What remains after the last cut never
    reaches -1, i.e. it is a positive tail, possibly empty. Concatenating
    the parts reproduces the input exactly.
    """
    units: list[Composition] = []
    start = 0
    f = 0
    for pos, part in enumerate(c):
        f += part - 1
        if f == -1:
            units.append(tuple(c[start : pos + 1]))
            start = pos + 1
            f = 0
    return FundamentalDecomposition(tuple(units), tuple(c[start:]))


def _tail_start(word: Sequence[int]) -> int:
    # Where the positive tail of the fundamental decomposition starts: just
    # after the running f first reaches its minimum (each unit block ends
    # at a new record low, and the tail never goes below the last one).
    f = low = start = 0
    for pos, part in enumerate(word, 1):
        f += part - 1
        if f < low:
            low, start = f, pos
    return start


def _block_end(word: Sequence[int], start: int, height: int = 0) -> int:
    # The end of the shortest run word[start:end] whose f-statistic, added
    # to ``height`` >= 0, reaches -1: the unit block from ``start`` when
    # height is 0.
    end = start
    while height >= 0:
        height += word[end] - 1
        end += 1
    return end


def format_composition(c: Composition) -> str:
    """Render as comma-separated parts in parentheses, e.g. ``(3,2,0)``."""
    return "(" + ",".join(str(part) for part in c) + ")"


def parse_composition(text: str) -> Composition:
    """Inverse of :func:`format_composition`; tolerates spaces around parts."""
    stripped = text.strip()
    if not stripped.startswith("(") or not stripped.endswith(")"):
        raise ValueError(f"composition must be parenthesized: {text!r}")
    inner = stripped[1:-1].strip()
    if not inner:
        return ()
    try:
        parts = tuple(int(piece.strip()) for piece in inner.split(","))
    except ValueError:
        raise ValueError(f"composition parts must be integers: {text!r}") from None
    if any(p < 0 for p in parts):
        raise ValueError(f"composition parts must be nonnegative: {text!r}")
    return parts


def enumerate_compositions(total: int, length: int) -> Iterator[Composition]:
    """All compositions of ``total`` into exactly ``length`` parts, lexicographically.

    Stars and bars: the ``length - 1`` bars sit among ``total + length - 1``
    places, and bar positions in lexicographic order give the parts in
    lexicographic order.
    """
    if total < 0 or length < 0:
        raise ValueError("total and length must be nonnegative")
    if length == 0:
        if total == 0:
            yield ()
        return
    places = total + length - 1
    for bars in combinations(range(places), length - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, places)))
