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
"""

from . import compositions, exact_math, kary_trees, plane_trees, series, verification
from .compositions import *  # noqa: F401,F403
from .exact_math import *  # noqa: F401,F403
from .kary_trees import *  # noqa: F401,F403
from .plane_trees import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .verification import *  # noqa: F401,F403

__version__ = "0.1.0"

# The package exports exactly what each library module exports.
__all__ = [
    name
    for module in (compositions, exact_math, kary_trees, plane_trees, series, verification)
    for name in module.__all__
]
