"""Normalization workbench: weak lambda-calculus, orthogonal constructor
rewriting and term-graph reduction, instrumented with exact step counts."""

__version__ = "0.1.0"

from . import crs, encode, graphs, lam, scott, workbench  # noqa: F401
