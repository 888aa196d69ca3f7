"""Finite logics of two-box non-signalling scenarios, verified exactly.

The package builds the concrete logic generated by the elementary
questions of a two-box scenario, checks its structural properties
exhaustively, enumerates the extreme points of the table polytope in
exact rational arithmetic, and relates tables to additive states on the
logic.

The names below are re-exported lazily (PEP 562): a submodule is imported
the first time one of its names is read from the package, so that a
command imports only the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the names it re-exports
_EXPORTS = {
    "errors": """BoxLogicError CapExceeded ClosureBudgetExceeded ForeignElementError
        GammaCapExceeded IncompleteCover NotAboveError ObservableError OverlappingSupports
        ScenarioError StateError SubJoinNotInLogic TheoremViolation VariableCapExceeded
        WellDefinednessViolation""",
    "scenario": """AtomId BoxWorldSpec GammaIndex LocalizedSpec Side all_atom_ids build_gamma
        complement_bits deterministic_points make_atom make_localized""",
    "logic": """AxiomReport CheckResult ConcreteLogic EvenSetLogic Logic OrderClassification
        OrderKind classify_above_atom close_logic disjoint_atom_union_report even_set_logic
        is_boolean is_lattice verify_atomic_coverage verify_axioms verify_order_classification""",
    "compat": """BooleanSublogic CompatibilityWitness PastingReport are_compatible
        boolean_sublogic_containing enumerate_localized is_compatible_set
        localized_family_partition single_box_logic verify_generating_family
        verify_localized_propositions""",
    "states": """LogicState OrderDeterminingReport PRState Violation check_order_determining
        convex_combination point_state pr_from_state sample_pr_states state_from_pr
        validate_pr_state verify_state_additivity verify_state_monotonicity""",
    "polytope": "HRep VertexSet affine_dimension enumerate_vertices ns_polytope",
    "observables": """Observable heisenberg_infimum_witness input_pair_observables
        make_observable mean variance""",
    "report": "build_summary scenario_hash verify_scenario vertex_pr_states",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A re-exported name, or one of the submodules above, imported on first use."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS or name == "linalg":
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
