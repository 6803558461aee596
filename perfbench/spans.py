"""Spans around calls into the program's public functions, for the traced run.

:meth:`Tracer.install` replaces each target function with a wrapper
wherever a ``treedegree`` module binds it, which is where its callers
look it up (``verification`` imports ``enumerate_plane_trees`` directly,
for example). A generator's span covers each resume, so enumeration is
charged to the code that drives it. A span's self time is its duration
minus the durations of its child spans. Nothing is patched until
``install`` runs, and ``uninstall`` restores every binding.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from typing import Callable

# (module, attribute): span name is "<module>.<attribute>". Counts listed
# per span are reported besides its self time; "calls" counts entries and
# "trees"/"items" count the values a generator yields.
TARGETS: dict[tuple[str, str], str | None] = {
    ("cli", "main"): "calls",
    ("verification", "check_plane_counts"): None,
    ("verification", "check_plane_sums"): None,
    ("verification", "check_kary_counts"): None,
    ("verification", "check_kary_sums"): None,
    ("verification", "check_sequence_identity"): None,
    ("verification", "check_fine_numbers"): None,
    ("verification", "check_series_identities"): None,
    ("verification", "check_bijections"): None,
    ("plane_trees", "enumerate_plane_trees"): "trees",
    ("plane_trees", "delta_decode"): "calls",
    ("plane_trees", "preorder_outdegrees"): "calls",
    ("plane_trees", "bar_delta_decode"): None,
    ("plane_trees", "bar_delta_encode"): None,
    ("plane_trees", "format_plane_tree"): None,
    ("plane_trees", "parse_plane_tree"): None,
    ("kary_trees", "enumerate_kary_trees"): "trees",
    ("kary_trees", "complete"): None,
    ("kary_trees", "uncomplete"): None,
    ("kary_trees", "phi"): None,
    ("kary_trees", "phi_inverse"): None,
    ("kary_trees", "kary_pair_to_composition"): None,
    ("kary_trees", "composition_to_kary_pair"): None,
    ("kary_trees", "format_kary_tree"): None,
    ("kary_trees", "parse_kary_tree"): None,
    ("compositions", "fundamental_decomposition"): "calls",
    ("compositions", "is_unit"): "calls",
    ("compositions", "enumerate_compositions"): "items",
    ("series", "catalan_series"): None,
    ("series", "kary_series"): None,
    ("series", "plane_derivative_series"): None,
    ("series", "kary_derivative_series"): None,
    ("series", "verify_kary_power_coeff"): None,
    ("series", "TruncatedSeries.__mul__"): "calls",
    ("exact_math", "count_odd_outdegree"): None,
    ("exact_math", "fine_number"): None,
    ("exact_math", "verify_outdegree_sequence_identity"): None,
    ("exact_math", "binomial"): "calls",
}

# format_kary_tree recurses through its module-level name. Its wrapper
# puts the original back for the duration of a call, so the recursion
# gains no extra frames (and no RecursionError sooner) and no per-vertex spans.
SELF_RECURSIVE = {"kary_trees.format_kary_tree"}

# Spans kept for the spans file. An oracle-sweep batch makes about
# 400,000, and keeping them all costs memory and time in the traced run.
MAX_RECORDS = 50_000

SPAN_NAMES = {
    (module, attr): f"{module}.{attr.replace('.__mul__', '.mul')}" for module, attr in TARGETS
}


def time_metric(span: str) -> str:
    return "cli.main.self_s" if span == "cli.main" else f"{span}.s"


def binding_sites(fn: Callable) -> list[tuple[object, str]]:
    """Every (treedegree module, name) pair that binds ``fn``."""
    return [
        (module, key)
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("treedegree")
        for key, value in vars(module).items()
        if value is fn
    ]


class Tracer:
    """Records spans in memory: per-name self time and counts, plus raw records."""

    def __init__(self):
        self.records: list[tuple[int, int, str, int, int]] = []
        self.dropped = 0
        self.self_ns: Counter[str] = Counter()  # raw, since the last take_self_ns
        self.calls: Counter[str] = Counter()
        self.items: Counter[str] = Counter()
        self._stack: list[list] = []  # [id, name, start_ns, child_ns]
        self._next_id = 1
        self._bindings: list[tuple[object, str, object]] = []

    # --------------------------------------------------------------- spans

    def _open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])
        self._next_id += 1

    def _close(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child_ns
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.records) < MAX_RECORDS:
            parent = self._stack[-1][0] if self._stack else 0
            self.records.append((span_id, parent, name, start, end))
        else:
            self.dropped += 1

    def op(self, name: str, run: Callable[[], object]) -> object:
        """Run one benchmark operation under a root span named ``name``."""
        self._open(name)
        try:
            return run()
        finally:
            self._close()

    def take_self_ns(self) -> Counter[str]:
        """Self times recorded since the previous call, in raw nanoseconds."""
        taken, self.self_ns = self.self_ns, Counter()
        return taken

    # ------------------------------------------------------------ wrappers

    def _wrap_function(self, name: str, fn: Callable, sites: list[tuple[object, str]]):
        tracer = self
        recursive = name in SELF_RECURSIVE

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            tracer._open(name)
            if recursive:
                for owner, key in sites:
                    setattr(owner, key, fn)
            try:
                return fn(*args, **kwargs)
            finally:
                if recursive:
                    for owner, key in sites:
                        setattr(owner, key, wrapper)
                tracer._close()

        return wrapper

    def _wrap_generator(self, name: str, fn: Callable):
        tracer = self

        def drive(inner):
            while True:
                tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close()
                tracer.items[name] += 1
                yield item

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return drive(fn(*args, **kwargs))

        return wrapper

    def install(self) -> None:
        for (module_name, attr), name in SPAN_NAMES.items():
            module = sys.modules[f"treedegree.{module_name}"]
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                fn = vars(owner)[method]
                sites = [(owner, key) for key, v in vars(owner).items() if v is fn]
            else:
                fn = getattr(module, attr)
                sites = binding_sites(fn)
            if inspect.isgeneratorfunction(fn):
                wrapper = self._wrap_generator(name, fn)
            else:
                wrapper = self._wrap_function(name, fn, sites)
            for owner, key in sites:
                setattr(owner, key, wrapper)
                self._bindings.append((owner, key, fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._bindings):
            setattr(owner, key, fn)
        self._bindings.clear()
