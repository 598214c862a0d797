"""Exact tree-number growth in ell-adic towers of graph covers.

Build towers of abelian covers from voltage data, count spanning trees at
every layer by two independent exact routes (matrix-tree determinants on
the explicit layer, and Galois-orbit products of twisted L-values on the
base), and fit the polynomial that the ell-adic valuations follow.

The package namespace holds only what the table script needs; everything
else is imported from its submodule (elltowers.voltage, .lfunctions, ...).
"""

from .fit import ValuationSequence, fit_window, format_fit, monomial_basis, sequence_entry, verify_fit
from .lfunctions import TowerCalculator
from .voltage import load_tower_spec

__version__ = "0.1.0"
