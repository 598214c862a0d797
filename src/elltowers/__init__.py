"""Exact tree-number growth in ell-adic towers of graph covers.

Build towers of abelian covers from voltage data, count spanning trees at
every layer by two independent exact routes (matrix-tree determinants on
the explicit layer, and Galois-orbit products of twisted L-values on the
base), and fit the polynomial that the ell-adic valuations follow.
"""

from .cyclotomic import (
    CycInt,
    norm_by_conjugates,
    norm_to_int,
    phi_ell_power,
    pi_adic_ord,
)
from .fit import (
    GreenbergFit,
    RouteMismatchError,
    SequenceEntry,
    ValuationSequence,
    fit_window,
    format_fit,
    leading_coefficients_integral,
    monomial_basis,
    valuation_sequence,
    verify_fit,
)
from .graphs import (
    GraphInputError,
    GraphMatrices,
    IharaPolynomial,
    MultiGraph,
    ValidationReport,
    build_graph,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    ihara_h,
    matrices,
    validate_base,
)
from .lfunctions import (
    CharacterIndex,
    CharacterOrbit,
    LValueRecord,
    TowerCalculator,
    enumerate_orbits,
    l_value_at_one,
    orbit_records,
    twisted_adjacency,
)
from .series import (
    ClassicalPoint,
    evaluate_at_classical_point,
    iwasawa_invariants_d1,
    q_series,
)
from .treecount import (
    DisconnectedGraphError,
    TreeCount,
    kappa_by_enumeration,
    kappa_matrix_tree,
    ord_prime,
)
from .voltage import (
    BudgetExceededError,
    ConnectivityReport,
    DerivedGraph,
    DisconnectedCoverError,
    GraphMorphism,
    Section,
    SpecFormatError,
    VoltageSpec,
    check_tower_connectivity,
    default_section,
    derived_graph,
    derived_to_dot,
    intermediate_projection,
    load_tower_spec,
    load_tower_spec_file,
    reduce_voltage,
    tower_spec_to_json,
)

__version__ = "0.1.0"
