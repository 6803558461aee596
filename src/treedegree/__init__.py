"""Exact counting of vertices by outdegree in plane trees and k-ary trees.

The package has three layers:

* closed-form counts in exact big integers (:mod:`treedegree.exact_math`),
* the combinatorial structures behind them: compositions and their unit
  block structure, plane trees and their outdegree words, k-ary trees and
  their completions, and the bijections tying marked trees to compositions
  and subset pairs (:mod:`treedegree.compositions`,
  :mod:`treedegree.plane_trees`, :mod:`treedegree.kary_trees`),
* truncated integer power series that re-derive every count from the
  defining functional equations (:mod:`treedegree.series`).

:mod:`treedegree.verification` sweeps formulas against exhaustive
enumeration; the ``treedegree`` command line exposes everything.

Importing the package loads none of these modules. The exports resolve on
first use: a library module named as an attribute imports on its own, and
the first exported name, ``__all__`` or ``dir()`` imports the library and
binds every export here. The command line imports only the layer that each
command runs.
"""

import sys as _sys

__version__ = "0.1.0"

# The library modules, in the order of the package's exports.
_LIBRARY = ("compositions", "exact_math", "kary_trees", "plane_trees", "series", "verification")


def _load(name: str):
    # ``python -X importtime`` logs what __import__ loads, which it does not
    # for importlib.import_module.
    __import__(f"{__name__}.{name}")
    return _sys.modules[f"{__name__}.{name}"]


def _bind() -> dict:
    # Once: import the library and bind its exports here. The package exports
    # exactly what each library module exports, so the library's own __all__
    # lists are the table; naming one export means importing them all.
    namespace = globals()
    if "__all__" not in namespace:
        modules = [_load(name) for name in _LIBRARY]
        for module in modules:
            namespace.update((name, getattr(module, name)) for name in module.__all__)
        namespace["__all__"] = [name for module in modules for name in module.__all__]
    return namespace


def __getattr__(name: str):
    if name in _LIBRARY:
        # A sibling's ``from . import exact_math`` comes here too, so a
        # module name imports that module alone.
        return _load(name)
    if name == "__all__" or not name.startswith("_"):
        namespace = _bind()
        if name in namespace:
            return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(_bind())
