"""Exact combinatorial bounds for the Hofer-Zehnder capacity of coadjoint
orbits of compact simple Lie groups.

The package builds root systems in integer simple-root coordinates and
Weyl groups keyed by the images of the simple roots, constructs Bruhat /
quantum Bruhat / weighted Cayley graphs, and evaluates the path-degree
upper bound and the coweight-optimization lower bound, together with the
per-type closed-form table.  Every result is an exact Fraction.

The public names below are imported from their modules on first access
(PEP 562), so importing the package, or one module of it, loads no other.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = {
    "capacity": (
        "CapacityBounds", "W0Decomposition", "closed_form_table", "coweight_oscillation_bound",
        "dominant_from_pairings", "hz_bounds", "is_regular",
        "lower_bound", "random_dominant", "random_positive_coweight",
        "unitary_capacity", "upper_bound", "w0_decomposition",
    ),
    "errors": ("BruhatCapError", "ConsistencyError", "SizeLimitError", "ValidationError"),
    "graphs": (
        "BruhatGraph", "QuantumBruhatGraph", "WeightedCayleyGraph", "bruhat_graph",
        "cayley_diameter", "cayley_distances", "cayley_graph", "d_min", "degree_leq", "export",
        "export_chunks", "min_path_area", "quantum_bruhat_graph", "transposition_distance_formula",
    ),
    "limits": ("DEFAULT_GROUP_CAP",),
    "rootsystem": ("RootSystem", "build", "parabolic_positions", "positive_root_count",
                   "weyl_group_order"),
    "weyl": ("ParabolicData", "WeylGroup", "generate"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
