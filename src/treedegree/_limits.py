"""Enumeration, series and codec guards, and the default bounds of ``verify``.

Exhaustive sweeps grow like Catalan numbers, so every enumerating entry
point checks a small size limit first; so do the series checks, whose
cost grows with the largest arity they run to, and the command line's
subset decoder, whose word of k(n+1) entries grows from two small
numbers. The ``TREEDEGREE_GUARD`` environment variable (a single
nonnegative integer) replaces all default limits at call time; it is a
safety valve for deliberate large runs, not a tuning knob. A refusal or
a malformed value raises :class:`GuardError`.
"""

import os

GUARD_ENV = "TREEDEGREE_GUARD"

# The ``verify`` subcommands in report order (``all`` runs them in this
# order), and the bounds they run at when none are given: largest edge count
# and arity. They sit here, beside the guards, so that the command line
# builds its parser without importing the sweeps.
CHECK_NAMES = ("theorem1", "theorem2", "identity1", "fine", "lagrange", "bijections")
DEFAULT_MAX_EDGES = 8
DEFAULT_MAX_ARITY = 3

# Each guard: the opening words of its refusal, which name what it refuses
# and the guard, and its default ceiling. Plane trees by edge count, k-ary
# trees by k*max(n, 1), outdegree-type vectors by edge count, and the
# series checks of ``verify lagrange`` by their largest arity: their cost
# grows about quadratically in it, 0.03 s at k = 24 and 0.2 s at k = 100
# (in process, 2-vCPU VM). ``decode subsets`` by the length k(n+1) of the
# word it prints: 2*10^6 entries take 0.7-0.9 s as a subprocess and
# 3*10^6 up to 1.4 s (same VM).
PLANE_GUARD = ("plane-tree enumeration exceeds the enumeration guard", 14)
KARY_GUARD = ("k-ary tree enumeration exceeds the enumeration guard", 24)
SEQUENCE_GUARD = ("outdegree-type enumeration exceeds the enumeration guard", 30)
SERIES_GUARD = ("series arity exceeds the series guard", 100)
CODEC_GUARD = ("subset-decoder word length exceeds the codec guard", 2_000_000)


class GuardError(ValueError):
    """A guard refused a size, or a guard value or sweep bound is malformed."""


def guard_limit(default: int) -> int:
    raw = os.environ.get(GUARD_ENV)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise GuardError(f"{GUARD_ENV} must be an integer, got {raw!r}") from None
    if value < 0:
        raise GuardError(f"{GUARD_ENV} must be nonnegative, got {value}")
    return value


def check_guard(guard: tuple[str, int], cost: int) -> None:
    label, default = guard
    limit = guard_limit(default)
    if cost > limit:
        raise GuardError(f"{label} ({cost} > {limit}); set {GUARD_ENV} to raise the limit")
