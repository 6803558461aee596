"""The benchmark's workloads: operation types, seeded inputs and output checks.

Every operation type prepares a fixed number of attempts (``inputs``)
from the workload's random stream before anything is timed. A run
executes the operation types round robin, cycling through each type's
attempts, and checks every result (untimed). Each round is one batch.

The program is always called through its module attributes
(``series.kary_series``, not an imported name), so the traced run's
wrappers, which replace those attributes, see every call.

Expected values come from the standard library alone (``math.comb`` and
the Fine recurrence), never from the closed forms under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from treedegree import cli, exact_math, kary_trees, plane_trees, series


class WrongOutput(Exception):
    """The program returned a result that disagrees with the expected one."""

    def __init__(self, message: str, checks_failed: int = 0):
        super().__init__(message)
        self.checks_failed = checks_failed


@dataclass
class Attempt:
    run: Callable[[], object]
    check: Callable[[object], None]  # raises WrongOutput
    vertices: int = 0  # tree vertices carried by a successful round trip
    kind: str = ""  # round-trip family for per-family latency ("plane", "k2", ...)


@dataclass
class OpType:
    name: str
    prepare: Callable[[random.Random], Attempt]
    inputs: int = 1  # distinct attempts prepared per run


def comb(n: int, m: int) -> int:
    """C(n, m) with the vanishing convention for out-of-range arguments."""
    return math.comb(n, m) if 0 <= m <= n else 0


def kary_tree_count(k: int, n: int) -> int:
    return comb(k * (n + 1), n) // (n + 1)


def _fixed(run: Callable[[], object], check: Callable[[object], None]) -> Callable:
    return lambda rng: Attempt(run, check)


# ---------------------------------------------------------------- oracle-sweep

VERIFY_CHECKS = {
    "theorem1": 2,
    "theorem2": 2,
    "identity1": 1,
    "fine": 1,
    "lagrange": 6,
    "bijections": 6,
}


def _cli(argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    def run() -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return run


def _check_verify(what: str) -> Callable[[object], None]:
    def check(result: object) -> None:
        code, text, err = result
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            raise WrongOutput(f"verify {what}: no JSON (exit {code}): {err.strip()}") from None
        statuses = [c["status"] for c in doc.get("checks", [])]
        failed = sum(s != "pass" for s in statuses)
        if code != 0 or doc.get("ok") is not True or failed:
            raise WrongOutput(
                f"verify {what}: exit {code}, ok={doc.get('ok')}, {failed} checks failed",
                checks_failed=max(failed, 1),
            )
        if doc.get("what") != what or len(statuses) != VERIFY_CHECKS[what]:
            raise WrongOutput(
                f"verify {what}: {len(statuses)} checks, expected {VERIFY_CHECKS[what]}"
            )

    return check


def _check_enumeration(expected: int, text_length: int | None) -> Callable[[object], None]:
    def check(result: object) -> None:
        code, text, err = result
        if code != 0:
            raise WrongOutput(f"enumerate: exit {code}: {err.strip()}")
        doc = json.loads(text)
        trees = doc["trees"]
        if doc["count"] != str(expected) or len(trees) != expected:
            raise WrongOutput(f"enumerate: {doc['count']} trees, expected {expected}")
        if len(set(trees)) != expected:
            raise WrongOutput("enumerate: repeated trees")
        if text_length is not None and any(len(t) != text_length for t in trees):
            raise WrongOutput(f"enumerate: a tree text is not {text_length} characters")

    return check


def oracle_sweep(tiny: bool = False) -> list[OpType]:
    """The six ``verify`` subcommands plus both enumerations, in process.

    ``--max-edges 10 --max-arity 4`` sits inside the default guards
    (plane n <= 14, k*n <= 24); ``verify bijections`` caps itself at 8.
    """
    max_edges, max_arity, plane_n, (kary_k, kary_n) = (
        (3, 2, 3, (2, 2)) if tiny else (10, 4, 10, (4, 4))
    )
    bounds = ["--max-edges", str(max_edges), "--max-arity", str(max_arity)]
    ops = [
        OpType(
            f"verify-{what}",
            _fixed(_cli(["verify", what, *bounds, "--format", "json"]), _check_verify(what)),
        )
        for what in VERIFY_CHECKS
    ]
    ops.append(
        OpType(
            "enumerate-plane",
            _fixed(
                _cli(["enumerate", "plane", "-n", str(plane_n), "--format", "json"]),
                _check_enumeration(comb(2 * plane_n, plane_n) // (plane_n + 1), 2 * plane_n),
            ),
        )
    )
    ops.append(
        OpType(
            "enumerate-kary",
            _fixed(
                _cli(["enumerate", "kary", "-k", str(kary_k), "-n", str(kary_n), "--format", "json"]),
                _check_enumeration(kary_tree_count(kary_k, kary_n), None),
            ),
        )
    )
    return ops


# ----------------------------------------------------------------- series-deep


def _check_equal(label: str, expected: object, view: Callable[[object], object]) -> Callable:
    def check(result: object) -> None:
        got = view(result)
        if got != expected:
            raise WrongOutput(f"{label}: result differs from the expected value")

    return check


def _coefficients(result: object) -> list[int]:
    return list(result.coefficients)


def _fine_numbers(top: int) -> list[int]:
    # 2 F_n + F_{n-1} = C_n with F_0 = 1 (Deutsch & Shapiro), in this
    # repository's indexing; independent of exact_math.fine_number.
    fine = [1]
    for n in range(1, top + 1):
        fine.append((comb(2 * n, n) // (n + 1) - fine[-1]) // 2)
    return fine


def series_deep(tiny: bool = False) -> list[OpType]:
    """Series and closed-form layers far past enumeration; no trees are built."""
    order, plane_order, deriv_order, pw_n, odd_top, seq_n = (
        (12, 10, 10, 8, 20, 6) if tiny else (120, 100, 60, 60, 300, 18)
    )
    plane_i, (kd_k, kd_i), (pw_k, pw_l) = 3, (3, 1), (3, 5)
    ops = []
    for k in range(2, 6):
        expected = [kary_tree_count(k, n) for n in range(order + 1)]
        ops.append(
            OpType(
                f"kary_series-k{k}",
                _fixed(
                    lambda k=k: series.kary_series(k, order),
                    _check_equal(f"kary_series({k}, {order})", expected, _coefficients),
                ),
            )
        )
    expected = [0] + [comb(2 * n - plane_i - 1, n - 1) for n in range(1, plane_order + 1)]
    ops.append(
        OpType(
            "plane_derivative_series",
            _fixed(
                lambda: series.plane_derivative_series(plane_i, plane_order),
                _check_equal("plane_derivative_series", expected, _coefficients),
            ),
        )
    )
    expected = [0] + [
        comb(kd_k, kd_i) * comb(kd_k * n, n - kd_i) for n in range(1, deriv_order + 1)
    ]
    ops.append(
        OpType(
            "kary_derivative_series",
            _fixed(
                lambda: series.kary_derivative_series(kd_k, kd_i, deriv_order),
                _check_equal("kary_derivative_series", expected, _coefficients),
            ),
        )
    )
    power = pw_l * comb(pw_k * (pw_n + pw_l), pw_n) // (pw_n + pw_l)
    ops.append(
        OpType(
            "verify_kary_power_coeff",
            _fixed(
                lambda: series.verify_kary_power_coeff(pw_k, pw_n, pw_l),
                _check_equal("verify_kary_power_coeff", (power, power), tuple),
            ),
        )
    )
    fine = _fine_numbers(odd_top)
    expected = [(2 * comb(2 * n - 1, n) + fine[n - 1]) // 3 for n in range(1, odd_top + 1)]
    ops.append(
        OpType(
            "count_odd_outdegree",
            _fixed(
                lambda: [exact_math.count_odd_outdegree(n) for n in range(1, odd_top + 1)],
                _check_equal("count_odd_outdegree", expected, list),
            ),
        )
    )
    expected = [(c, c) for c in (comb(2 * seq_n - i - 1, seq_n - 1) for i in range(seq_n + 1))]
    ops.append(
        OpType(
            "verify_outdegree_sequence_identity",
            _fixed(
                lambda: [
                    exact_math.verify_outdegree_sequence_identity(seq_n, i)
                    for i in range(seq_n + 1)
                ],
                _check_equal("verify_outdegree_sequence_identity", expected, list),
            ),
        )
    )
    return ops


# ----------------------------------------------------------------- codec-large

CODEC_INPUTS = 9


def _stars_and_bars(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    """Uniform composition of ``total`` into ``parts`` nonnegative parts."""
    bars = sorted(rng.sample(range(total + parts - 1), parts - 1))
    edges = [-1, *bars, total + parts - 1]
    return tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _pick(rng: random.Random, total: int, weights) -> int:
    """Index drawn with probability weight / total, in exact integers."""
    r = rng.randrange(total)
    for index, weight in enumerate(weights):
        if r < weight:
            return index
        r -= weight
    raise ValueError("weights sum to less than their total")


def _plane_mark_weights(n: int):
    # Weight of mark outdegree i in a uniform marked n-edge plane tree:
    # C(2n-i-1, n-1). Each step divides exactly; the weights sum to C(2n, n).
    weight = comb(2 * n - 1, n - 1)
    for i in range(n + 1):
        yield weight
        weight = weight * (n - i) // (2 * n - i - 1) if i < n else 0


def _plane_roundtrip(n: int) -> Callable[[random.Random], Attempt]:
    def prepare(rng: random.Random) -> Attempt:
        i = _pick(rng, comb(2 * n, n), _plane_mark_weights(n))
        word = _stars_and_bars(rng, n - i, n)

        def run() -> tuple[int, ...]:
            marked = plane_trees.bar_delta_decode(word, i)
            text = plane_trees.format_marked_plane_tree(marked)
            return plane_trees.bar_delta_encode(plane_trees.parse_marked_plane_tree(text))

        return Attempt(
            run, _check_equal("plane round trip", word, tuple), vertices=n + 1, kind="plane"
        )

    return prepare


def _kary_roundtrip(k: int, n: int) -> Callable[[random.Random], Attempt]:
    weights = [comb(k, i) * comb(k * n, n - i) for i in range(k + 1)]

    def prepare(rng: random.Random) -> Attempt:
        i = _pick(rng, sum(weights), weights)
        x = frozenset(rng.sample(range(1, k + 1), i))
        y = frozenset(rng.sample(range(1, k * n + 1), n - i))
        pair = kary_trees.SubsetPair(k, n, x, y)

        def run() -> tuple[frozenset, frozenset]:
            word = kary_trees.phi_inverse(pair)
            marked = kary_trees.composition_to_kary_pair(word, k, n)
            text = kary_trees.format_marked_kary_tree(marked)
            parsed = kary_trees.parse_marked_kary_tree(text, k)
            back = kary_trees.phi(kary_trees.kary_pair_to_composition(parsed), k, n)
            return back.X, back.Y

        return Attempt(
            run, _check_equal(f"k={k} round trip", (x, y), tuple), vertices=n + 1, kind=f"k{k}"
        )

    return prepare


def codec_large(tiny: bool = False) -> list[OpType]:
    """Seeded uniform marked trees through the paper's bijections and text formats.

    Each family gets CODEC_INPUTS trees per run, so a seed fixes which
    trees run and therefore which of them fail.
    """
    n, inputs = (40, 2) if tiny else (10**4, CODEC_INPUTS)
    return [
        OpType("roundtrip-plane", _plane_roundtrip(n), inputs),
        OpType("roundtrip-k2", _kary_roundtrip(2, n), inputs),
        OpType("roundtrip-k3", _kary_roundtrip(3, n), inputs),
    ]


WORKLOADS = {
    "oracle-sweep": oracle_sweep,
    "series-deep": series_deep,
    "codec-large": codec_large,
}
