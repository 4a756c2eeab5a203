"""Random mappings, functional-graph exploration, tree bijections, and
Monte Carlo verification around Cayley's formula.

Importing the package loads none of its modules: each public name is
imported from its home module on first access (PEP 562), so code that
needs only the pure-Python layers (core, exploration, bijection) never
pays for numpy.
"""

import importlib

__version__ = "0.10.0"

_HOMES = {
    "core": (
        "NO_PARENT",
        "CycleStructure",
        "Mapping",
        "RngStream",
        "RootedTree",
        "cycle_structure",
        "mapping_to_dot",
        "sample_mapping",
        "tree_to_dot",
        "unique_cyclic_vertex",
    ),
    "exploration": (
        "Closure",
        "ExplorationTrace",
        "RoundRecord",
        "SeededRandomOrder",
        "SmallestLabel",
        "conditional_event_probabilities",
        "explore",
        "reconstruct_mapping",
        "telescoping_probability",
        "trace_to_dot",
    ),
    "bijection": (
        "DoublyRootedTree",
        "PruferSequence",
        "joyal_decode",
        "joyal_encode",
        "mapping_to_rooted_tree",
        "prufer_decode",
        "prufer_encode",
        "rooted_tree_to_mapping",
    ),
    "enumeration": (
        "ExactCounts",
        "exact_collision_pmf",
        "exact_counts",
        "exact_height_pmf",
    ),
    "montecarlo": (
        "Estimate",
        "Histogram",
        "check_round_conditionals",
        "chi_square_statistic",
        "estimate_unique_cyclic",
        "make_estimate",
        "two_sample_chi_square",
        "wilson_interval",
    ),
    "heights": (
        "LawEqualityReport",
        "law_equality_report",
        "sample_collision_count",
        "sample_rooted_tree_prufer",
        "sample_rooted_tree_rejection",
    ),
}

_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME_OF, "__version__"]


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
