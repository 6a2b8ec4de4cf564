"""Exact computation with Steinberg modules, buildings, and quadratic rings.

Subpackages by topic: linalg (exact sparse linear algebra and integer
lattices), fields (small finite fields), quadratic (quadratic orders,
units, class groups), complexes (semisimplicial sets and buildings),
stmodule (Steinberg modules, apartments, coinvariants), flags (truncated
basis complexes and their certificates), formulas (dimension
formulas and verdicts), verify (worked-example pipeline and surveys),
cli (command line front end).
"""

__version__ = "0.1.0"
