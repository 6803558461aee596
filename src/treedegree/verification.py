"""Verification sweeps: every closed form against its independent oracle.

Each check returns a :class:`CheckResult` instead of raising, so a full
report can be assembled even when something breaks; the first failing cell
(smallest in the sweep order) is reported as the counterexample.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import exact_math
from .compositions import Composition, enumerate_compositions
from .exact_math import binomial, catalan, count_kary_outdegree, count_plane_outdegree
from .kary_trees import (
    MarkedKaryTree,
    complete,
    composition_to_kary_pair,
    enumerate_kary_trees,
    kary_pair_to_composition,
    kary_preorder_outdegrees,
    phi,
    phi_inverse,
    uncomplete,
)
from .plane_trees import (
    MarkedPlaneTree,
    bar_delta_decode,
    bar_delta_encode,
    delta_decode,
    enumerate_plane_trees,
    preorder_outdegrees,
)
from .series import (
    TruncatedSeries,
    catalan_series,
    kary_derivative_series,
    kary_series,
    plane_derivative_series,
)

__all__ = ["CheckResult", "default_kary_cells", "run_checks", "verify_all"]


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


def default_kary_cells(max_edges: int, max_arity: int) -> list[tuple[int, int]]:
    """(k, n) sweep cells: each arity up to max_arity, edges capped so that
    k*n stays small enough for exhaustive enumeration."""
    cells = []
    for k in range(1, max_arity + 1):
        top = min(max_edges, max(1, 12 // k))
        cells.extend((k, n) for n in range(1, top + 1))
    return cells


def _plane_histogram(n: int) -> tuple[int, Counter[int]]:
    totals: Counter[int] = Counter()
    count = 0
    for tree in enumerate_plane_trees(n):
        count += 1
        totals.update(preorder_outdegrees(tree))
    return count, totals


def _kary_histogram(k: int, n: int) -> tuple[int, Counter[int]]:
    totals: Counter[int] = Counter()
    count = 0
    for tree in enumerate_kary_trees(k, n):
        count += 1
        totals.update(kary_preorder_outdegrees(tree))
    return count, totals


def check_plane_counts(max_edges: int = 8) -> CheckResult:
    name = "plane outdegree counts vs exhaustive enumeration"
    scope = f"n=1..{max_edges}, i=0..n"
    for n in range(1, max_edges + 1):
        tree_count, totals = _plane_histogram(n)
        expected_trees = catalan(n)
        if tree_count != expected_trees:
            return CheckResult(
                name, scope, False,
                f"n={n}: enumerated {tree_count} trees, expected {expected_trees}",
            )
        for i in range(0, n + 1):
            brute = totals.get(i, 0)
            formula = count_plane_outdegree(n, i)
            if brute != formula:
                return CheckResult(
                    name, scope, False,
                    f"n={n} i={i}: enumeration {brute} != formula {formula}",
                )
    return CheckResult(name, scope, True)


def check_plane_sums(max_edges: int = 8) -> CheckResult:
    name = "plane row and edge sums"
    scope = f"n=1..{max_edges}"
    for n in range(1, max_edges + 1):
        row = sum(count_plane_outdegree(n, i) for i in range(n + 1))
        edge = sum(i * count_plane_outdegree(n, i) for i in range(n + 1))
        cat = catalan(n)
        if row != binomial(2 * n, n) or row != (n + 1) * cat:
            return CheckResult(
                name, scope, False,
                f"n={n}: row sum {row} != C(2n,n)={binomial(2 * n, n)}",
            )
        if edge != n * cat:
            return CheckResult(
                name, scope, False, f"n={n}: edge sum {edge} != n*c_n={n * cat}"
            )
    return CheckResult(name, scope, True)


def check_kary_counts(cells: Sequence[tuple[int, int]]) -> CheckResult:
    name = "k-ary outdegree counts vs exhaustive enumeration"
    scope = _cells_scope(cells)
    for k, n in cells:
        tree_count, totals = _kary_histogram(k, n)
        expected_trees = exact_math.exact_div(
            binomial(k * (n + 1), n), n + 1, "k-ary tree count"
        )
        if tree_count != expected_trees:
            return CheckResult(
                name, scope, False,
                f"k={k} n={n}: enumerated {tree_count} trees, expected {expected_trees}",
            )
        for i in range(0, k + 1):
            brute = totals.get(i, 0)
            formula = count_kary_outdegree(n, k, i)
            if brute != formula:
                return CheckResult(
                    name, scope, False,
                    f"k={k} n={n} i={i}: enumeration {brute} != formula {formula}",
                )
    return CheckResult(name, scope, True)


def check_kary_sums(cells: Sequence[tuple[int, int]]) -> CheckResult:
    name = "k-ary row and edge sums"
    scope = _cells_scope(cells)
    for k, n in cells:
        series = kary_series(k, n)
        row = sum(count_kary_outdegree(n, k, i) for i in range(k + 1))
        edge = sum(i * count_kary_outdegree(n, k, i) for i in range(k + 1))
        if row != binomial(k * n + k, n) or row != (n + 1) * series[n]:
            return CheckResult(
                name, scope, False,
                f"k={k} n={n}: row sum {row} != C(kn+k,n)={binomial(k * n + k, n)}",
            )
        if edge != n * series[n]:
            return CheckResult(
                name, scope, False,
                f"k={k} n={n}: edge sum {edge} != n*b_k(n)={n * series[n]}",
            )
    return CheckResult(name, scope, True)


def check_sequence_identity(max_edges: int = 8) -> CheckResult:
    name = "outdegree-type identity vs closed form"
    scope = f"n=1..{max_edges}, i=0..n"
    for n in range(1, max_edges + 1):
        for i in range(0, n + 1):
            try:
                lhs, rhs = exact_math.verify_outdegree_sequence_identity(n, i)
            except AssertionError as exc:
                return CheckResult(name, scope, False, str(exc))
            if lhs != rhs:
                return CheckResult(
                    name, scope, False, f"n={n} i={i}: {lhs} != {rhs}"
                )
    return CheckResult(name, scope, True)


def check_fine_numbers(max_edges: int = 8) -> CheckResult:
    name = "odd-outdegree counts vs fine-number relation and enumeration"
    scope = f"n=1..{max_edges}"
    for n in range(1, max_edges + 1):
        try:
            formula = exact_math.count_odd_outdegree(n)
        except AssertionError as exc:
            return CheckResult(name, scope, False, str(exc))
        _, totals = _plane_histogram(n)
        brute = sum(c for d, c in totals.items() if d % 2 == 1)
        if brute != formula:
            return CheckResult(
                name, scope, False,
                f"n={n}: enumeration {brute} != formula {formula}",
            )
    return CheckResult(name, scope, True)


def check_series_identities(
    residual_order: int = 30,
    max_arity: int = 5,
    catalan_power_range: tuple[int, int] = (20, 10),
    kary_power_range: tuple[int, int] = (12, 6),
    derivative_order: int = 12,
) -> list[CheckResult]:
    results = []
    results.append(_check_residuals(residual_order, max_arity))
    results.append(_check_catalan_powers(*catalan_power_range))
    results.append(_check_kary_powers(max_arity, *kary_power_range))
    results.append(_check_naive_power_law_counterexample())
    results.append(_check_plane_derivative(derivative_order))
    results.append(_check_kary_derivative(max_arity, derivative_order))
    return results


def _check_residuals(order: int, max_arity: int) -> CheckResult:
    name = "defining-equation residuals"
    scope = f"order {order}, k=1..{max_arity}"
    zero = TruncatedSeries.constant(0, order)
    one = TruncatedSeries.constant(1, order)
    c = catalan_series(order)
    if c - (1 + (c * c).shift(1)) != zero:
        return CheckResult(name, scope, False, "C - 1 - z*C^2 does not vanish")
    if (1 - c.shift(1)) * c != one:
        return CheckResult(name, scope, False, "(1 - z*C) * C != 1")
    for k in range(1, max_arity + 1):
        b = kary_series(k, order)
        if b - (b.shift(1) + 1) ** k != zero:
            return CheckResult(
                name, scope, False, f"B_{k} - (1 + z*B_{k})^{k} does not vanish"
            )
    return CheckResult(name, scope, True)


def _check_catalan_powers(max_n: int, max_l: int) -> CheckResult:
    name = "catalan power-coefficient law"
    scope = f"n=0..{max_n}, l=1..{max_l}"
    c = catalan_series(max_n)
    power = c
    for l in range(1, max_l + 1):
        for n in range(0, max_n + 1):
            closed = exact_math.exact_div(
                l * binomial(2 * n + l, n), 2 * n + l, "catalan power coefficient"
            )
            if power[n] != closed:
                return CheckResult(
                    name, scope, False,
                    f"n={n} l={l}: series {power[n]} != closed form {closed}",
                )
        if l < max_l:
            power = power * c
    return CheckResult(name, scope, True)


def _check_kary_powers(max_arity: int, max_n: int, max_l: int) -> CheckResult:
    name = "k-ary power-coefficient law (corrected)"
    scope = f"k=1..{max_arity}, n=0..{max_n}, l=1..{max_l}"
    for k in range(1, max_arity + 1):
        b = kary_series(k, max_n)
        power = b
        for l in range(1, max_l + 1):
            for n in range(0, max_n + 1):
                closed = exact_math.exact_div(
                    l * binomial(k * (n + l), n), n + l, "k-ary power coefficient"
                )
                if power[n] != closed:
                    return CheckResult(
                        name, scope, False,
                        f"k={k} n={n} l={l}: series {power[n]} != closed form {closed}",
                    )
            if l < max_l:
                power = power * b
    return CheckResult(name, scope, True)


def _check_naive_power_law_counterexample() -> CheckResult:
    # The naive law [z^n] B_k^l = l/n * C(kn, n) must FAIL at (2, 2, 1):
    # compare cross-multiplied to avoid inexact division.
    name = "naive k-ary power law rejected"
    scope = "k=2, n=2, l=1"
    series_value = (kary_series(2, 2) ** 1)[2]
    if 2 * series_value == 1 * binomial(4, 2):
        return CheckResult(
            name, scope, False,
            "naive law unexpectedly matches the series coefficient",
        )
    return CheckResult(
        name, scope, True,
        f"series {series_value} != naive {binomial(4, 2)}/2",
    )


def _check_plane_derivative(order: int) -> CheckResult:
    name = "plane vertex-marking derivative series vs closed form"
    scope = f"i=0..10, coefficients 1..{order}"
    for i in range(0, 11):
        try:
            plane_derivative_series(i, order)
        except AssertionError as exc:
            return CheckResult(name, scope, False, str(exc))
    return CheckResult(name, scope, True)


def _check_kary_derivative(max_arity: int, order: int) -> CheckResult:
    name = "k-ary vertex-marking derivative series vs closed form"
    scope = f"k=1..{max_arity}, i=0..k, coefficients 1..{order}"
    for k in range(1, max_arity + 1):
        for i in range(0, k + 1):
            try:
                kary_derivative_series(k, i, order)
            except AssertionError as exc:
                return CheckResult(name, scope, False, str(exc))
    return CheckResult(name, scope, True)


def check_bijections(
    max_edges: int = 8, cells: Iterable[tuple[int, int]] = ((2, 4), (3, 3), (4, 2))
) -> list[CheckResult]:
    """Run the paper's bijections as round trips over every tree in range.

    One enumeration pass per plane size and per k-ary cell feeds all the
    checks of that family; each check reports its first failure in sweep
    order.
    """
    return _plane_bijections(max_edges) + _kary_bijections(list(cells))


def _results(checks: list[tuple[str, str]], failures: dict[str, str]) -> list[CheckResult]:
    return [
        CheckResult(name, scope, name not in failures, failures.get(name, ""))
        for name, scope in checks
    ]


def _plane_bijections(max_edges: int) -> list[CheckResult]:
    word_trip = "plane tree <-> outdegree word round trip"
    marked_trip = "marked plane tree <-> cyclic word round trip"
    cover = "cyclic words cover all compositions exactly once"
    failures: dict[str, str] = {}
    for n in range(0, max_edges + 1):
        seen: dict[int, list[Composition]] = {i: [] for i in range(n + 1)}
        for tree in enumerate_plane_trees(n):
            word = preorder_outdegrees(tree)
            try:
                if delta_decode(word) != tree:
                    failures.setdefault(word_trip, f"decode(encode) changed a tree at n={n}")
            except ValueError:
                failures.setdefault(word_trip, f"word {word!r} is not a unit composition")
            # The single vertex (n = 0) has an empty cyclic word: no marks.
            for mark in range(1, len(word) + 1) if n else ():
                marked = MarkedPlaneTree(tree, mark)
                try:
                    encoded = bar_delta_encode(marked)
                    seen[word[mark - 1]].append(encoded)
                    decoded = bar_delta_decode(encoded, word[mark - 1])
                except (AssertionError, ValueError) as exc:
                    failures.setdefault(marked_trip, str(exc))
                    continue
                if decoded != marked:
                    failures.setdefault(marked_trip, f"round trip failed at n={n}, mark={mark}")
        if n and cover not in failures:
            detail = _cover_failure(n, seen)
            if detail:
                failures[cover] = detail
    return _results(
        [
            (word_trip, f"n=0..{max_edges}"),
            (marked_trip, f"n=1..{max_edges}, all marks"),
            (cover, f"n=1..{max_edges}, i=0..n"),
        ],
        failures,
    )


def _cover_failure(n: int, seen: dict[int, list[Composition]]) -> str:
    # The encodings of n-edge marked trees, by marked outdegree i, against
    # the n-part compositions of n - i: same count, no repeats, same set.
    for i in range(0, n + 1):
        encodings = seen[i]
        expected = count_plane_outdegree(n, i)
        if len(encodings) != expected:
            return f"n={n} i={i}: {len(encodings)} marked pairs, formula {expected}"
        unique = set(encodings)
        if len(unique) != len(encodings):
            return f"n={n} i={i}: duplicate encodings"
        full = set(enumerate_compositions(n - i, n))
        if unique != full:
            return f"n={n} i={i}: image misses {len(full - unique)} compositions"
    return ""


def _kary_bijections(cells: list[tuple[int, int]]) -> list[CheckResult]:
    completion = "k-ary completion round trip"
    subsets = "marked k-ary tree <-> word <-> subsets round trip"
    cardinality = "marked pairs per outdegree match subset counts"
    failures: dict[str, str] = {}
    for k, n in cells:
        # Each phi image as sorted (X, Y): a SubsetPair with its two
        # frozensets takes about 1 kB, and a cell can have thousands.
        images: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        for tree in enumerate_kary_trees(k, n):
            completed, index_map = complete(tree)
            completed_word = preorder_outdegrees(completed)
            if uncomplete(completed, k) != tree:
                failures.setdefault(
                    completion, f"k={k} n={n}: uncomplete(complete) changed a tree"
                )
            elif list(index_map) != sorted(index_map) or len(index_map) != tree.vertex_count:
                failures.setdefault(completion, f"k={k} n={n}: preorder index map malformed")
            elif any(completed_word[j - 1] != k for j in index_map):
                failures.setdefault(
                    completion,
                    f"k={k} n={n}: an original vertex is not internal in the completion",
                )
            outdegrees = kary_preorder_outdegrees(tree)
            for mark in range(1, tree.vertex_count + 1):
                marked = MarkedKaryTree(tree, mark)
                try:
                    word = kary_pair_to_composition(marked)
                    decoded = composition_to_kary_pair(word, k, n, outdegrees[mark - 1])
                    pair = phi(word, k, n)
                    images.add((tuple(sorted(pair.X)), tuple(sorted(pair.Y))))
                    rebuilt = phi_inverse(pair)
                except (AssertionError, ValueError) as exc:
                    failures.setdefault(subsets, str(exc))
                    continue
                if decoded != marked:
                    failures.setdefault(
                        subsets, f"k={k} n={n} mark={mark}: word decode mismatch"
                    )
                elif rebuilt != word:
                    failures.setdefault(
                        subsets, f"k={k} n={n} mark={mark}: subset round trip mismatch"
                    )
        # Distinct images with |X| = i against all subset pairs with |X| = i:
        # equal counts make phi onto them.
        per_size = Counter(len(x) for x, _ in images)
        for i in range(0, k + 1):
            expected = binomial(k, i) * binomial(k * n, n - i)
            if per_size[i] != expected:
                failures.setdefault(
                    cardinality,
                    f"k={k} n={n} i={i}: {per_size[i]} pairs, subset count {expected}",
                )
                break
    scope = _cells_scope(cells)
    return _results(
        [(completion, scope), (subsets, scope), (cardinality, scope)], failures
    )


def _cells_scope(cells: Sequence[tuple[int, int]]) -> str:
    by_arity: dict[int, int] = {}
    for k, n in cells:
        by_arity[k] = max(n, by_arity.get(k, 0))
    return ", ".join(f"k={k}: n<={top}" for k, top in sorted(by_arity.items()))


# Each ``verify`` subcommand and the checks it runs, in report order, as a
# function of the bounds (max_edges, max_arity); ``all`` runs every entry
# in this order. The entries look the checks up when called.
CHECKS: dict[str, Callable[[int, int], list[CheckResult]]] = {
    "theorem1": lambda edges, arity: [check_plane_counts(edges), check_plane_sums(edges)],
    "theorem2": lambda edges, arity: [
        check_kary_counts(default_kary_cells(edges, arity)),
        check_kary_sums(default_kary_cells(edges, arity)),
    ],
    "identity1": lambda edges, arity: [check_sequence_identity(edges)],
    "fine": lambda edges, arity: [check_fine_numbers(edges)],
    "lagrange": lambda edges, arity: check_series_identities(max_arity=arity),
    "bijections": lambda edges, arity: check_bijections(
        min(edges, 8), [(k, n) for k, n in default_kary_cells(edges, arity) if k * n <= 12]
    ),
}


def run_checks(what: str, max_edges: int = 8, max_arity: int = 3) -> list[CheckResult]:
    """Run the checks of one ``verify`` subcommand (``all``: every one)."""
    if what != "all" and what not in CHECKS:
        raise ValueError(f"unknown verification {what!r}")
    if max_edges < 1 or max_arity < 1:
        raise ValueError("--max-edges and --max-arity must be at least 1")
    names = list(CHECKS) if what == "all" else [what]
    return [result for name in names for result in CHECKS[name](max_edges, max_arity)]


def verify_all(max_edges: int = 8, max_arity: int = 3) -> list[CheckResult]:
    """Run every verification sweep at the given bounds."""
    return run_checks("all", max_edges, max_arity)
