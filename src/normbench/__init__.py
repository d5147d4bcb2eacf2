"""Normalization workbench: weak lambda-calculus, orthogonal constructor
rewriting and term-graph reduction, instrumented with exact step counts."""

import sys as _sys

__version__ = "0.1.0"

# engines, encodings, readback, printing, substitution and crs parsing
# are iterative, but lam.parse, cbv_redexes and cbn_step/replace_at still
# recurse over term depth, which benchmark-sized inputs can push past the
# default
if _sys.getrecursionlimit() < 10_000:
    _sys.setrecursionlimit(10_000)

from . import crs, encode, graphs, lam, scott, workbench  # noqa: F401
