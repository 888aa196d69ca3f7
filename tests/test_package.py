"""The package's public names: each is exported, resolves to the object of
its home module, and is imported only when it is first read."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxlogic as bl

ROOT = Path(__file__).resolve().parents[1]

HOMES = {
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
HOME = {name: module for module, names in HOMES.items() for name in names.split()}


def test_all_lists_the_public_names_sorted():
    assert len(HOME) == 81
    assert bl.__all__ == sorted(HOME)


@pytest.mark.parametrize("module", sorted(HOMES))
def test_each_name_is_its_home_modules_object(module):
    home = importlib.import_module(f"boxlogic.{module}")
    for name, where in HOME.items():
        if where == module:
            assert getattr(bl, name) is getattr(home, name), name
    assert getattr(bl, module) is home


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from boxlogic import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(HOME)
    assert all(namespace[name] is getattr(bl, name) for name in HOME)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'close'"):
        bl.close


def test_names_import_their_module_on_first_read():
    code = (
        "import sys, boxlogic\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('boxlogic.'))\n"
        "print(loaded())\n"
        "boxlogic.ConcreteLogic\n"
        "print(loaded())\n"
        "boxlogic.states.PRState\n"
        "print('boxlogic.states' in loaded(), 'boxlogic.report' in loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.splitlines()
    assert out == [
        "[]",
        # reading a logic name loads the logic layer and what it imports, nothing more
        "['boxlogic.errors', 'boxlogic.logic', 'boxlogic.scenario']",
        "True False",
    ]
