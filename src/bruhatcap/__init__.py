"""Exact combinatorial bounds for the Hofer-Zehnder capacity of coadjoint
orbits of compact simple Lie groups.

The package builds root systems in integer simple-root coordinates and
Weyl groups keyed by the images of the simple roots, constructs Bruhat /
quantum Bruhat / weighted Cayley graphs, and evaluates the path-degree
upper bound and the coweight-optimization lower bound, together with the
per-type closed-form table.  Every result is an exact Fraction.
"""

from .capacity import (
    CapacityBounds,
    W0Decomposition,
    closed_form_table,
    coweight_oscillation_bound,
    dominance_violations,
    dominant_from_pairings,
    hz_bounds,
    is_regular,
    lower_bound,
    parabolic_positions,
    random_dominant,
    random_positive_coweight,
    unitary_capacity,
    upper_bound,
    w0_decomposition,
)
from .errors import BruhatCapError, ConsistencyError, SizeLimitError, ValidationError
from .graphs import (
    BruhatGraph,
    QuantumBruhatGraph,
    WeightedCayleyGraph,
    bruhat_graph,
    cayley_diameter,
    cayley_distances,
    cayley_graph,
    d_min,
    degree_leq,
    export,
    export_chunks,
    min_path_area,
    quantum_bruhat_graph,
    transposition_distance_formula,
)
from .rootsystem import RootSystem, build, positive_root_count, weyl_group_order
from .weyl import DEFAULT_GROUP_CAP, ParabolicData, WeylGroup, generate

__version__ = "0.1.0"

__all__ = [
    "BruhatCapError",
    "BruhatGraph",
    "CapacityBounds",
    "ConsistencyError",
    "DEFAULT_GROUP_CAP",
    "ParabolicData",
    "QuantumBruhatGraph",
    "RootSystem",
    "SizeLimitError",
    "ValidationError",
    "W0Decomposition",
    "WeightedCayleyGraph",
    "WeylGroup",
    "bruhat_graph",
    "build",
    "cayley_diameter",
    "cayley_distances",
    "cayley_graph",
    "closed_form_table",
    "coweight_oscillation_bound",
    "d_min",
    "degree_leq",
    "dominance_violations",
    "dominant_from_pairings",
    "export",
    "export_chunks",
    "generate",
    "hz_bounds",
    "is_regular",
    "lower_bound",
    "min_path_area",
    "parabolic_positions",
    "positive_root_count",
    "quantum_bruhat_graph",
    "random_dominant",
    "random_positive_coweight",
    "transposition_distance_formula",
    "unitary_capacity",
    "upper_bound",
    "w0_decomposition",
    "weyl_group_order",
]
