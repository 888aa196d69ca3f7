"""Finite logics of two-box non-signalling scenarios, verified exactly.

The package builds the concrete logic generated by the elementary
questions of a two-box scenario, checks its structural properties
exhaustively, enumerates the extreme points of the table polytope in
exact rational arithmetic, and relates tables to additive states on the
logic.
"""

__version__ = "0.1.0"

from .errors import (
    BoxLogicError,
    CapExceeded,
    ClosureBudgetExceeded,
    ForeignElementError,
    GammaCapExceeded,
    IncompleteCover,
    NotAboveError,
    ObservableError,
    OverlappingSupports,
    ScenarioError,
    StateError,
    SubJoinNotInLogic,
    TheoremViolation,
    VariableCapExceeded,
    WellDefinednessViolation,
)
from .scenario import (
    AtomId,
    BoxWorldSpec,
    GammaIndex,
    LocalizedSpec,
    Side,
    all_atom_ids,
    build_gamma,
    complement_bits,
    deterministic_points,
    make_atom,
    make_localized,
)
from .logic import (
    AxiomReport,
    CheckResult,
    ConcreteLogic,
    EvenSetLogic,
    Logic,
    OrderClassification,
    OrderKind,
    classify_above_atom,
    close_logic,
    disjoint_atom_union_report,
    even_set_logic,
    is_boolean,
    is_lattice,
    verify_atomic_coverage,
    verify_axioms,
    verify_order_classification,
)
from .compat import (
    BooleanSublogic,
    CompatibilityWitness,
    PastingReport,
    are_compatible,
    boolean_sublogic_containing,
    enumerate_localized,
    is_compatible_set,
    localized_family_partition,
    single_box_logic,
    verify_generating_family,
    verify_localized_propositions,
)
from .states import (
    LogicState,
    OrderDeterminingReport,
    PRState,
    Violation,
    check_order_determining,
    convex_combination,
    point_state,
    pr_from_state,
    sample_pr_states,
    state_from_pr,
    validate_pr_state,
    verify_state_additivity,
    verify_state_monotonicity,
)
from .polytope import (
    HRep,
    VertexSet,
    affine_dimension,
    enumerate_vertices,
    ns_polytope,
)
from .observables import (
    Observable,
    heisenberg_infimum_witness,
    input_pair_observables,
    make_observable,
    mean,
    variance,
)
from .report import build_summary, scenario_hash, verify_scenario, vertex_pr_states

__all__ = [name for name in dir() if not name.startswith("_")]
