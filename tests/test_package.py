import copy
import importlib
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import treedegree


def test_exports_are_the_union_of_the_library_modules():
    # Every public submodule except the command line re-exports its __all__.
    library = [
        importlib.import_module(f"treedegree.{info.name}")
        for info in pkgutil.iter_modules(treedegree.__path__)
        if not info.name.startswith("_") and info.name != "cli"
    ]
    assert {module.__name__ for module in library} >= {
        "treedegree.compositions",
        "treedegree.plane_trees",
        "treedegree.kary_trees",
    }
    union = [name for module in library for name in module.__all__]
    assert len(union) == len(set(union))
    assert set(treedegree.__all__) == set(union)
    assert len(treedegree.__all__) == len(union)
    for module in library:
        for name in module.__all__:
            assert getattr(treedegree, name) is getattr(module, name)


def _loaded_after(code: str) -> set[str]:
    # The treedegree modules, and json, that a fresh interpreter holds after
    # running ``code``.
    src = os.path.dirname(os.path.dirname(treedegree.__file__))
    script = (
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {code}\n"
        "print(*(m for m in sys.modules if m == 'json' or m.startswith('treedegree')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


LIBRARY = {
    f"treedegree.{name}"
    for name in ("compositions", "exact_math", "kary_trees", "plane_trees", "series", "verification")
}


def test_a_bare_import_loads_no_library_module():
    assert _loaded_after("import treedegree") == {"treedegree"}


@pytest.mark.parametrize(
    "argv", [["count", "plane", "-n", "5", "-i", "2"], ["table", "--max-edges", "5"]]
)
def test_count_and_table_import_only_the_closed_forms(argv):
    # Text output leaves json out too; a JSON document loads it.
    closed_forms = {"treedegree", "treedegree._limits", "treedegree.cli", "treedegree.exact_math"}
    for run, loaded in ((argv, closed_forms), ([*argv, "--format", "json"], closed_forms | {"json"})):
        assert _loaded_after(f"from treedegree.cli import main; assert main({run!r}) == 0") == loaded


def test_a_library_module_imports_alone():
    loaded = _loaded_after("import treedegree; treedegree.exact_math.binomial(4, 2)")
    assert loaded == {"treedegree", "treedegree._limits", "treedegree.exact_math"}


def test_the_import_log_names_a_lazily_loaded_module():
    # ``python -X importtime`` logs only what the import statement's machinery
    # loads, so the package's lazy attributes must load through it.
    src = os.path.dirname(os.path.dirname(treedegree.__file__))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import treedegree; treedegree.series"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"\| +treedegree\.series$", proc.stderr, re.MULTILINE), proc.stderr


@pytest.mark.parametrize("code",["from treedegree import binomial", "from treedegree import cli"])
def test_a_public_name_binds_the_whole_library(code):
    # As the eager import did. Tools that look the library modules up in
    # sys.modules after ``from treedegree import cli`` still find them all.
    assert _loaded_after(code) >= LIBRARY


def test_the_lazy_namespace_behaves_like_the_eager_one():
    namespace: dict = {}
    exec("from treedegree import *", namespace)
    assert set(treedegree.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(treedegree, name) for name in treedegree.__all__)
    assert set(treedegree.__all__) | {m.split(".")[1] for m in LIBRARY} <= set(dir(treedegree))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        treedegree.nope
    assert not hasattr(treedegree, "nope")
    assert not hasattr(treedegree, "_plane_histogram")
    assert treedegree.__version__ == "0.1.0"


# Exports that nothing outside the tests calls, and why they stay public.
UNCALLED_EXPORTS = {
    # Return types: callers get them from a function and never name them.
    "FundamentalDecomposition",
    "CheckResult",
    # The only oracle for the degree half of Theorem 1, until ROADMAP item 2
    # gives it a verify line.
    "degree_histogram",
}


def test_every_export_has_a_caller_outside_the_tests():
    # A name counts as called when it appears, as a whole word, in a Python
    # file of src/, demos/ or perfbench/ other than its defining module.
    repo = Path(treedegree.__file__).resolve().parents[2]
    texts = {
        path.resolve(): path.read_text()
        for top in ("src", "demos", "perfbench")
        for path in (repo / top).rglob("*.py")
    }
    uncalled = []
    for module in map(importlib.import_module, sorted(LIBRARY)):
        home = Path(module.__file__).resolve()
        others = [text for path, text in texts.items() if path != home]
        uncalled += [
            name
            for name in module.__all__
            if name not in UNCALLED_EXPORTS
            and not any(re.search(rf"\b{name}\b", text) for text in others)
        ]
    assert not uncalled, f"exports with no caller outside the tests: {uncalled}"


FROZEN = {
    "PlaneTree": lambda: treedegree.PlaneTree([treedegree.PlaneTree()]),
    "KaryTree": lambda: treedegree.KaryTree(2, [None, treedegree.kary_leaf(2)]),
    "TruncatedSeries": lambda: treedegree.TruncatedSeries([1, 2, 5]),
}


@pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN)
def test_the_value_classes_are_frozen_and_round_trip(make):
    value = make()
    # A field and a name that is no field both refuse, as do their deletions.
    for name in (*value.__slots__, "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copied = pickle.loads(pickle.dumps(value, protocol))
        assert copied == value and type(copied) is type(value) and hash(copied) == hash(value)
    for copied in (copy.copy(value), copy.deepcopy(value)):
        assert copied == value and type(copied) is type(value)
