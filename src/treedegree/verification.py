"""Verification sweeps: every closed form against its independent oracle.

Each sweep compares values that library functions only compute and yields
one failure detail per mismatched cell; one runner turns it into a
:class:`CheckResult` instead of raising, and the first failing cell
(smallest in the sweep order) is the counterexample. An ``AssertionError``
or a ``ValueError`` inside a sweep (an inexact division, a codec self-check)
is a failure too; only a ``GuardError``, such as an enumeration guard, propagates.
The enumeration oracles of the count checks are one histogram per tree
family, each in its family module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import exact_math
from ._limits import (
    CHECK_NAMES, DEFAULT_MAX_ARITY, DEFAULT_MAX_EDGES, KARY_GUARD, PLANE_GUARD, SEQUENCE_GUARD,
    SERIES_GUARD, GuardError, check_guard, guard_limit,
)
from .compositions import Composition
from .exact_math import binomial, catalan, count_kary_outdegree, count_plane_outdegree
from .kary_trees import (
    _composition_to_kary_pair,
    _kary_histogram,
    _phi,
    _phi_inverse,
    complete,
    enumerate_kary_trees,
    kary_preorder_outdegrees,
    uncomplete,
)
from .plane_trees import (
    _bar_delta_decode,
    _bar_delta_encode,
    _plane_histogram,
    _plane_words,
    delta_decode,
    preorder_outdegrees,
)
from .series import (
    TruncatedSeries,
    catalan_series,
    kary_derivative_series,
    kary_series,
    plane_derivative_series,
)

__all__ = ["CheckResult", "run_checks"]

# Caps for exhaustive sweeps: k*n for k-ary cells, edges for plane bijections.
KARY_CELL_LIMIT = 12
BIJECTION_MAX_EDGES = 8
# Fixed orders of the series checks: ``verify lagrange`` takes only the arity.
RESIDUAL_ORDER = 30
CATALAN_POWER_RANGE = (20, 10)  # (largest n, largest power l)
KARY_POWER_RANGE = (12, 6)
DERIVATIVE_ORDER = 12
PLANE_DERIVATIVE_MAX_OUTDEGREE = 10  # the plane derivative series run for i = 0..this


@dataclass
class CheckResult:
    name: str
    scope: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f": {self.detail}" if self.detail else ""
        return f"{status} {self.name} [{self.scope}]{suffix}"


def _run(checks: Sequence[tuple[str, str]], sweep: Iterable[tuple[str, str]]) -> list[CheckResult]:
    """One result per (name, scope) in ``checks`` from the (name, detail)
    failures ``sweep`` yields: a check's first detail is its counterexample,
    and the sweep stops once every check has failed. An AssertionError or
    a non-guard ValueError inside it fails each check not failed yet.
    """
    failures: dict[str, str] = {}
    try:
        for name, detail in sweep:
            failures.setdefault(name, detail)
            if len(failures) == len(checks):
                break
    except GuardError:
        raise
    except (AssertionError, ValueError) as exc:
        for name, _ in checks:
            failures.setdefault(name, str(exc))
    return [
        CheckResult(name, scope, name not in failures, failures.get(name, ""))
        for name, scope in checks
    ]


def _check(name: str, scope: str, details: Iterator[str]) -> CheckResult:
    # A check whose sweep yields only its own failure details.
    return _run([(name, scope)], ((name, detail) for detail in details))[0]


def _default_kary_cells(max_edges: int, max_arity: int) -> list[tuple[int, int]]:
    # (k, n) sweep cells: each arity up to max_arity, edges capped so that
    # k*n stays small enough for exhaustive enumeration. The list stops at the
    # first arity the k-ary guard refuses at n = 1, as it refuses all later ones.
    last = min(max_arity, guard_limit(KARY_GUARD[1]) + 1)
    cells = []
    for k in range(1, last + 1):
        top = min(max_edges, max(1, KARY_CELL_LIMIT // k))
        cells.extend((k, n) for n in range(1, top + 1))
    return cells


def check_plane_counts(max_edges: int) -> CheckResult:
    def failures() -> Iterator[str]:
        for n in range(1, max_edges + 1):
            tree_count, totals = _plane_histogram(n)
            if tree_count != catalan(n):
                yield f"n={n}: enumerated {tree_count} trees, expected {catalan(n)}"
            for i in range(0, n + 1):
                brute = totals.get(i, 0)
                formula = count_plane_outdegree(n, i)
                if brute != formula:
                    yield f"n={n} i={i}: enumeration {brute} != formula {formula}"

    name = "plane outdegree counts vs exhaustive enumeration"
    return _check(name, f"n=1..{max_edges}, i=0..n", failures())


def check_plane_sums(max_edges: int) -> CheckResult:
    def failures() -> Iterator[str]:
        for n in range(1, max_edges + 1):
            column = [count_plane_outdegree(n, i) for i in range(n + 1)]
            row, edge = sum(column), sum(map(mul, range(n + 1), column))
            cat = catalan(n)
            if row != binomial(2 * n, n):
                yield f"n={n}: row sum {row} != C(2n,n)={binomial(2 * n, n)}"
            if row != (n + 1) * cat:
                yield f"n={n}: row sum {row} != (n+1)*c_n={(n + 1) * cat}"
            if edge != n * cat:
                yield f"n={n}: edge sum {edge} != n*c_n={n * cat}"

    return _check("plane row and edge sums", f"n=1..{max_edges}", failures())


def check_kary_counts(cells: Sequence[tuple[int, int]]) -> CheckResult:
    def failures() -> Iterator[str]:
        for k, n in cells:
            tree_count, totals = _kary_histogram(k, n)
            expected = exact_math.exact_div(binomial(k * (n + 1), n), n + 1, "k-ary tree count")
            if tree_count != expected:
                yield f"k={k} n={n}: enumerated {tree_count} trees, expected {expected}"
            for i in range(0, k + 1):
                brute = totals.get(i, 0)
                formula = count_kary_outdegree(n, k, i)
                if brute != formula:
                    yield f"k={k} n={n} i={i}: enumeration {brute} != formula {formula}"

    name = "k-ary outdegree counts vs exhaustive enumeration"
    return _check(name, _cells_scope(cells), failures())


def check_kary_sums(cells: Sequence[tuple[int, int]]) -> CheckResult:
    def failures() -> Iterator[str]:
        tops = dict(sorted(cells))  # the largest n of each arity
        series: dict[int, TruncatedSeries] = {}  # one B_k per arity, to its top n
        for k, n in cells:
            if k not in series:
                series[k] = kary_series(k, tops[k])
            b = series[k][n]
            column = [count_kary_outdegree(n, k, i) for i in range(k + 1)]
            row, edge = sum(column), sum(map(mul, range(k + 1), column))
            if row != binomial(k * n + k, n):
                yield f"k={k} n={n}: row sum {row} != C(kn+k,n)={binomial(k * n + k, n)}"
            if row != (n + 1) * b:
                yield f"k={k} n={n}: row sum {row} != (n+1)*b_k(n)={(n + 1) * b}"
            if edge != n * b:
                yield f"k={k} n={n}: edge sum {edge} != n*b_k(n)={n * b}"

    return _check("k-ary row and edge sums", _cells_scope(cells), failures())


def check_sequence_identity(max_edges: int) -> CheckResult:
    def failures() -> Iterator[str]:
        for n in range(1, max_edges + 1):
            for i in range(0, n + 1):
                total = exact_math.outdegree_type_sum(n, i)
                formula = count_plane_outdegree(n, i)
                if total != formula:
                    yield f"n={n} i={i}: type-vector sum {total} != formula {formula}"

    name = "outdegree-type identity vs closed form"
    return _check(name, f"n=1..{max_edges}, i=0..n", failures())


def check_fine_numbers(max_edges: int) -> CheckResult:
    def failures() -> Iterator[str]:
        for n in range(1, max_edges + 1):
            formula = exact_math.count_odd_outdegree(n)
            # 3*odd(n) = 2*C(2n-1, n) + F_{n-1}, compared cross-multiplied.
            fine = 2 * binomial(2 * n - 1, n) + exact_math.fine_number(n - 1)
            if 3 * formula != fine:
                yield f"n={n}: 3*{formula} != 2*C(2n-1,n) + F(n-1) = {fine}"
            _, totals = _plane_histogram(n)
            brute = sum(c for d, c in totals.items() if d % 2 == 1)
            if brute != formula:
                yield f"n={n}: enumeration {brute} != formula {formula}"

    name = "odd-outdegree counts vs fine-number relation and enumeration"
    return _check(name, f"n=1..{max_edges}", failures())


def check_series_identities(max_arity: int) -> list[CheckResult]:
    return [
        _check_residuals(RESIDUAL_ORDER, max_arity),
        _check_catalan_powers(*CATALAN_POWER_RANGE),
        _check_kary_powers(max_arity, *KARY_POWER_RANGE),
        _check_naive_power_law_counterexample(),
        _check_plane_derivative(DERIVATIVE_ORDER),
        _check_kary_derivative(max_arity, DERIVATIVE_ORDER),
    ]


def _check_residuals(order: int, max_arity: int) -> CheckResult:
    def failures() -> Iterator[str]:
        zero = TruncatedSeries.constant(0, order)
        c = catalan_series(order)
        if c - (1 + (c * c).shift(1)) != zero:
            yield "C - 1 - z*C^2 does not vanish"
        for k in range(1, max_arity + 1):
            b = kary_series(k, order)
            if b - (b.shift(1) + 1) ** k != zero:
                yield f"B_{k} - (1 + z*B_{k})^{k} does not vanish"

    return _check("defining-equation residuals", f"order {order}, k=1..{max_arity}", failures())


def _check_catalan_powers(max_n: int, max_l: int) -> CheckResult:
    def failures() -> Iterator[str]:
        c = catalan_series(max_n)
        power = c
        for l in range(1, max_l + 1):
            for n in range(0, max_n + 1):
                closed = exact_math.catalan_power_coeff(n, l)
                if power[n] != closed:
                    yield f"n={n} l={l}: series {power[n]} != closed form {closed}"
            if l < max_l:
                power = power * c

    return _check("catalan power-coefficient law", f"n=0..{max_n}, l=1..{max_l}", failures())


def _check_kary_powers(max_arity: int, max_n: int, max_l: int) -> CheckResult:
    def failures() -> Iterator[str]:
        for k in range(1, max_arity + 1):
            b = kary_series(k, max_n)
            power = b
            for l in range(1, max_l + 1):
                for n in range(0, max_n + 1):
                    closed = exact_math.kary_power_coeff(k, n, l)
                    if power[n] != closed:
                        yield f"k={k} n={n} l={l}: series {power[n]} != closed form {closed}"
                if l < max_l:
                    power = power * b

    name = "k-ary power-coefficient law (corrected)"
    return _check(name, f"k=1..{max_arity}, n=0..{max_n}, l=1..{max_l}", failures())


def _check_naive_power_law_counterexample() -> CheckResult:
    # The naive law [z^n] B_k^l = l/n * C(kn, n) must FAIL at (2, 2, 1):
    # compare cross-multiplied to avoid inexact division. A pass shows both.
    def failures() -> Iterator[str]:
        if 2 * (kary_series(2, 2) ** 1)[2] == 1 * binomial(4, 2):
            yield "naive law unexpectedly matches the series coefficient"

    result = _check("naive k-ary power law rejected", "k=2, n=2, l=1", failures())
    if result.passed:
        result.detail = f"series {(kary_series(2, 2) ** 1)[2]} != naive {binomial(4, 2)}/2"
    return result


def _check_plane_derivative(order: int) -> CheckResult:
    def failures() -> Iterator[str]:
        for i in range(0, PLANE_DERIVATIVE_MAX_OUTDEGREE + 1):
            series = plane_derivative_series(i, order)
            for n in range(1, order + 1):
                formula = count_plane_outdegree(n, i)
                if series[n] != formula:
                    yield f"i={i} n={n}: series {series[n]} != formula {formula}"

    name = "plane vertex-marking derivative series vs closed form"
    scope = f"i=0..{PLANE_DERIVATIVE_MAX_OUTDEGREE}, coefficients 1..{order}"
    return _check(name, scope, failures())


def _check_kary_derivative(max_arity: int, order: int) -> CheckResult:
    def failures() -> Iterator[str]:
        for k in range(1, max_arity + 1):
            for i in range(0, k + 1):
                series = kary_derivative_series(k, i, order)
                for n in range(1, order + 1):
                    formula = count_kary_outdegree(n, k, i)
                    if series[n] != formula:
                        yield f"k={k} i={i} n={n}: series {series[n]} != formula {formula}"

    name = "k-ary vertex-marking derivative series vs closed form"
    return _check(name, f"k=1..{max_arity}, i=0..k, coefficients 1..{order}", failures())


WORD_TRIP = "plane tree <-> outdegree word round trip"
MARKED_TRIP = "marked plane tree <-> cyclic word round trip"
COVER = "cyclic words cover all compositions exactly once"
COMPLETION = "k-ary completion round trip"
SUBSETS = "marked k-ary tree <-> word <-> subsets round trip"
CARDINALITY = "marked pairs per outdegree match subset counts"


def check_bijections(max_edges: int, cells: Iterable[tuple[int, int]]) -> list[CheckResult]:
    """Run the paper's bijections as round trips over every tree in range.

    One enumeration pass per plane size and per k-ary cell feeds all the
    checks of that family. The passes run the codec cores and compare
    words and marks, not tree objects.
    """
    cells = list(cells)
    plane = [
        (WORD_TRIP, f"n=0..{max_edges}"),
        (MARKED_TRIP, f"n=1..{max_edges}, all marks"),
        (COVER, f"n=1..{max_edges}, i=0..n"),
    ]
    kary = [(name, _cells_scope(cells)) for name in (COMPLETION, SUBSETS, CARDINALITY)]
    return _run(plane, _plane_bijections(max_edges)) + _run(kary, _kary_bijections(cells))


def _plane_bijections(max_edges: int) -> Iterator[tuple[str, str]]:
    for n in range(0, max_edges + 1):
        seen: dict[int, list[Composition]] = {i: [] for i in range(n + 1)}
        for word in _plane_words(n):
            try:
                if preorder_outdegrees(delta_decode(word)) != word:
                    yield WORD_TRIP, f"decode(encode) changed a tree at n={n}"
            except ValueError:
                yield WORD_TRIP, f"word {word!r} is not a unit composition"
            # Marks from n = 1, the line's scope. The single vertex's one mark
            # encodes to the empty word; the codec tests round-trip it.
            for mark, i in enumerate(word, 1) if n else ():
                try:
                    encoded = _bar_delta_encode(word, mark)
                    seen[i].append(encoded)
                    decoded = _bar_delta_decode(encoded, i)
                except (AssertionError, ValueError) as exc:
                    yield MARKED_TRIP, str(exc)
                    continue
                if decoded != (word, mark):
                    yield MARKED_TRIP, f"round trip failed at n={n}, mark={mark}"
        # The encodings of n-edge marked trees, by marked outdegree i, cover
        # the n-part compositions of n - i exactly once. By stars and bars
        # there are C(2n-i-1, n-1) = count_plane_outdegree(n, i) of those,
        # so that many distinct encodings, each of length n with entries
        # >= 0 summing to n - i, are all of them.
        for i in range(0, n + 1) if n else ():
            encodings = seen[i]
            expected = count_plane_outdegree(n, i)
            shapes = set(zip(map(len, encodings), map(sum, encodings)))  # (length, sum)
            if len(encodings) != expected:
                yield COVER, f"n={n} i={i}: {len(encodings)} marked pairs, formula {expected}"
            elif shapes != {(n, n - i)} or min(map(min, encodings)) < 0:
                yield COVER, f"n={n} i={i}: an encoding is not an {n}-part composition of {n - i}"
            elif len(set(encodings)) != len(encodings):
                yield COVER, f"n={n} i={i}: duplicate encodings"


def _kary_bijections(cells: list[tuple[int, int]]) -> Iterator[tuple[str, str]]:
    for k, n in cells:
        # Each phi image as the core's ascending (X, Y) tuples: a SubsetPair
        # with its two frozensets takes about 1 kB, and a cell can have thousands.
        images: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        for tree in enumerate_kary_trees(k, n):
            completed, index_map = complete(tree)
            if uncomplete(completed, k) != tree:
                yield COMPLETION, f"k={k} n={n}: uncomplete(complete) changed a tree"
            # The codec cores on each pair's word; its |X| is the encoded i,
            # compared with the marked vertex's filled slots on the tree.
            tree_word = tree.word
            outdegrees = kary_preorder_outdegrees(tree)
            for mark, (position, i) in enumerate(zip(index_map, outdegrees), 1):
                try:
                    word = _bar_delta_encode(tree_word, position)
                    decoded = _composition_to_kary_pair(word, k)
                    x, y = _phi(word, k)
                    images.add((x, y))
                    rebuilt = _phi_inverse(k, x, y)
                except (AssertionError, ValueError) as exc:
                    yield SUBSETS, str(exc)
                    continue
                if len(x) != i:
                    yield SUBSETS, f"k={k} n={n} mark={mark}: encoded i={len(x)}, tree i={i}"
                if decoded != (tree_word, mark):
                    yield SUBSETS, f"k={k} n={n} mark={mark}: word decode mismatch"
                elif rebuilt != word:
                    yield SUBSETS, f"k={k} n={n} mark={mark}: subset round trip mismatch"
        # Distinct images with |X| = i against all subset pairs with |X| = i:
        # equal counts make phi onto them.
        per_size = Counter(len(x) for x, _ in images)
        for i in range(0, k + 1):
            expected = binomial(k, i) * binomial(k * n, n - i)
            if per_size[i] != expected:
                detail = f"{per_size[i]} pairs, subset count {expected}"
                yield CARDINALITY, f"k={k} n={n} i={i}: {detail}"


def _cells_scope(cells: Sequence[tuple[int, int]]) -> str:
    # dict(sorted(cells)) keeps the largest n of each arity, by ascending k.
    return ", ".join(f"k={k}: n<={top}" for k, top in dict(sorted(cells)).items())


class _Sizes(NamedTuple):
    # What a ``verify`` subcommand's sweeps run at: plane trees of 1..plane
    # edges, the k-ary cells in sweep order, outdegree-type vectors of
    # 1..types edges, and the series checks up to ``arity``.
    plane: int = 0
    cells: Sequence[tuple[int, int]] = ()
    types: int = 0
    arity: int = 0


# The one place that decides sweep bounds: each ``verify`` subcommand's
# sizes as a function of the bounds (max_edges, max_arity), in the order of
# ``CHECK_NAMES``.
SIZES: dict[str, Callable[[int, int], _Sizes]] = {
    "theorem1": lambda edges, arity: _Sizes(plane=edges),
    "theorem2": lambda edges, arity: _Sizes(cells=_default_kary_cells(edges, arity)),
    "identity1": lambda edges, arity: _Sizes(types=edges),
    "fine": lambda edges, arity: _Sizes(plane=edges),
    "lagrange": lambda edges, arity: _Sizes(arity=arity),
    "bijections": lambda edges, arity: _Sizes(
        min(edges, BIJECTION_MAX_EDGES),
        _default_kary_cells(edges, min(arity, KARY_CELL_LIMIT)),
    ),
}
# The checks each subcommand runs at its sizes, in report order; ``all``
# runs every entry in this order. The entries look the checks up when called.
CHECKS: dict[str, Callable[[_Sizes], list[CheckResult]]] = {
    "theorem1": lambda s: [check_plane_counts(s.plane), check_plane_sums(s.plane)],
    "theorem2": lambda s: [check_kary_counts(s.cells), check_kary_sums(s.cells)],
    "identity1": lambda s: [check_sequence_identity(s.types)],
    "fine": lambda s: [check_fine_numbers(s.plane)],
    "lagrange": lambda s: check_series_identities(s.arity),
    "bijections": lambda s: check_bijections(s.plane, s.cells),
}
assert list(SIZES) == list(CHECKS) == list(CHECK_NAMES)


def run_checks(
    what: str, max_edges: int = DEFAULT_MAX_EDGES, max_arity: int = DEFAULT_MAX_ARITY
) -> list[CheckResult]:
    """Run the checks of one ``verify`` subcommand (``all``: every one).

    Every guard the sweeps will meet is checked first, in sweep order, so
    a refused run stops before any work; an enumeration guard refuses with
    the message its sweep would give.
    """
    if what != "all" and what not in CHECKS:
        raise ValueError(f"unknown verification {what!r}")
    if max_edges < 1 or max_arity < 1:
        raise GuardError("--max-edges and --max-arity must be at least 1")
    names = list(CHECKS) if what == "all" else [what]
    runs = [(name, SIZES[name](max_edges, max_arity)) for name in names]
    for _, sizes in runs:
        for n in range(1, sizes.plane + 1):
            check_guard(PLANE_GUARD, n)
        for k, n in sizes.cells:
            check_guard(KARY_GUARD, k * n)
        for n in range(1, sizes.types + 1):
            check_guard(SEQUENCE_GUARD, n)
        check_guard(SERIES_GUARD, sizes.arity)
    return [result for name, sizes in runs for result in CHECKS[name](sizes)]
