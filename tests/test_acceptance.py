"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance here is exact equality; the only numeric bound is
the per-scenario wall-clock limit in criterion 1.
"""

import itertools
import time

import boxlogic as bl
from boxlogic import Side
from boxlogic.io import canonical_json

import oracles
from conftest import CHSH, SINGLE_PAIR, THREE_INPUT, TWO_BY_THREE

AXIOM_TIME_LIMIT_SECONDS = 60.0

SCENARIOS = [
    ("chsh", CHSH),
    ("two-input-three-outcome", TWO_BY_THREE),
    ("three-input-binary", THREE_INPUT),
]


def announce(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def scenario_logic(name, chsh_logic, two_by_three_logic, three_input_logic):
    return {
        "chsh": chsh_logic,
        "two-input-three-outcome": two_by_three_logic,
        "three-input-binary": three_input_logic,
    }[name]


def scenario_polytope(name, chsh_polytope, two_by_three_polytope, three_input_polytope):
    return {
        "chsh": chsh_polytope,
        "two-input-three-outcome": two_by_three_polytope,
        "three-input-binary": three_input_polytope,
    }[name]


def test_criterion_01_axiom_suite():
    details = []
    ok = True
    for name, spec in SCENARIOS:
        start = time.perf_counter()
        logic = bl.close_logic(spec)
        report = bl.verify_axioms(logic)
        elapsed = time.perf_counter() - start
        ok = ok and report.all_passed and elapsed < AXIOM_TIME_LIMIT_SECONDS
        details.append(f"{name}: axioms={report.all_passed} in {elapsed:.1f}s")
    announce(1, ok, "; ".join(details))


def test_criterion_02_even_set_fixture():
    k1 = bl.even_set_logic(1)
    k2 = bl.even_set_logic(2)
    k3 = bl.even_set_logic(3)
    counts_ok = (len(k1.elements), len(k2.elements), len(k3.elements)) == (2, 8, 32)
    k1_ok = bl.is_boolean(k1) is True
    k2_ok = (
        bl.is_lattice(k2) is True
        and bl.verify_axioms(k2).all_passed
        and bl.is_boolean(k2) is False
    )
    no_join = k3.join(k3.index_of(0b011), k3.index_of(0b101)) is None
    k3_ok = bl.verify_axioms(k3).all_passed and no_join and bl.is_lattice(k3) is False
    announce(
        2,
        counts_ok and k1_ok and k2_ok and k3_ok,
        f"counts(2,8,32)={counts_ok}, k1 boolean={k1_ok}, "
        f"k2 orthomodular non-distributive lattice={k2_ok}, "
        f"k3 axioms hold with a joinless pair={k3_ok}",
    )


def test_criterion_03_atomic_coverage(
    chsh_logic, two_by_three_logic, three_input_logic, single_pair_logic
):
    details = []
    ok = True
    for label, logic in [
        ("chsh", chsh_logic),
        ("two-input-three-outcome", two_by_three_logic),
        ("three-input-binary", three_input_logic),
        ("single-input-pair", single_pair_logic),
    ]:
        result = bl.verify_atomic_coverage(logic)
        ok = ok and result.passed
        details.append(f"{label}: {result.checked} elements")
    announce(3, ok, "; ".join(details))


def test_criterion_04_order_classification(
    chsh_logic, two_by_three_logic, three_input_logic
):
    details = []
    ok = True
    for name, _ in SCENARIOS:
        logic = scenario_logic(name, chsh_logic, two_by_three_logic, three_input_logic)
        result, counts = bl.verify_order_classification(logic)
        ok = ok and result.passed
        details.append(f"{name}: {result.checked} pairs, cases {counts}")
    announce(4, ok, "; ".join(details))


def test_criterion_05_state_correspondence(
    chsh_logic,
    two_by_three_logic,
    three_input_logic,
    chsh_polytope,
    two_by_three_polytope,
    three_input_polytope,
):
    details = []
    ok = True
    for seed_offset, (name, spec) in enumerate(SCENARIOS):
        logic = scenario_logic(name, chsh_logic, two_by_three_logic, three_input_logic)
        hrep, vertex_set = scenario_polytope(
            name, chsh_polytope, two_by_three_polytope, three_input_polytope
        )
        vertex_states = bl.vertex_pr_states(hrep, vertex_set)
        mixtures = bl.sample_pr_states(vertex_states, 100, seed=1000 + seed_offset)
        failures = 0
        for pr in vertex_states + mixtures:
            # the construction checks that the values add on every atom step
            rho = bl.state_from_pr(logic, pr)
            back = bl.pr_from_state(rho)
            if back.table != pr.table or bl.state_from_pr(logic, back) != rho:
                failures += 1
        ok = ok and failures == 0
        details.append(
            f"{name}: {len(vertex_states)} vertices + {len(mixtures)} mixtures, "
            f"{failures} failures"
        )
    announce(5, ok, "; ".join(details))


def test_criterion_06_polytope_vertices(chsh_polytope):
    hrep, vertex_set = chsh_polytope
    dims_ok = vertex_set.affine_dim == 8
    counts_ok = (
        len(vertex_set) == 24
        and vertex_set.count("deterministic") == 16
        and vertex_set.count("nondeterministic") == 8
    )
    determined = {
        tuple(pr.atom_value(aid) for aid in hrep.variables)
        for pr in oracles.deterministic_tables(CHSH)
    }
    boxes = {
        tuple(pr.atom_value(aid) for aid in hrep.variables)
        for pr in oracles.chsh_pr_box_tables(CHSH)
    }
    oracle_ok = (
        len(determined) == 16
        and len(boxes) == 8
        and all(oracles.is_extreme_point(hrep, v) for v in determined | boxes)
        and set(vertex_set.vertices) == determined | boxes
    )
    simplex = bl.enumerate_vertices(bl.ns_polytope(SINGLE_PAIR))
    simplex_ok = (
        len(simplex) == 4
        and simplex.affine_dim == 3
        and simplex.count("deterministic") == 4
    )
    announce(
        6,
        dims_ok and counts_ok and oracle_ok and simplex_ok,
        f"chsh dim8={dims_ok}, 24=16+8 vertices={counts_ok}, "
        f"construction oracle match={oracle_ok}, single-pair simplex={simplex_ok}",
    )


def test_criterion_07_order_determining(
    chsh_logic, two_by_three_logic, chsh_polytope, two_by_three_polytope
):
    details = []
    ok = True
    for name, logic, (hrep, vertex_set) in [
        ("chsh", chsh_logic, chsh_polytope),
        ("two-input-three-outcome", two_by_three_logic, two_by_three_polytope),
    ]:
        states = [
            bl.state_from_pr(logic, pr)
            for pr in bl.vertex_pr_states(hrep, vertex_set)
        ]
        report = bl.check_order_determining(logic, states)
        ok = ok and report.ok
        details.append(
            f"{name}: {report.noncomparable_pairs} noncomparable pairs, "
            f"{len(report.failures)} failures"
        )
    announce(7, ok, "; ".join(details))


def test_criterion_08_localized_propositions(
    chsh_logic, two_by_three_logic, three_input_logic
):
    details = []
    ok = True
    for name, _ in SCENARIOS:
        logic = scenario_logic(name, chsh_logic, two_by_three_logic, three_input_logic)
        report = bl.verify_localized_propositions(logic)
        ok = ok and report.all_passed
        details.append(
            f"{name}: cross={report.cross_side.checked}, same={report.same_side.checked}, "
            f"families={report.families.checked}"
        )
    announce(8, ok, "; ".join(details))


def test_criterion_09_single_box_pasting(
    chsh_logic, two_by_three_logic, three_input_logic
):
    details = []
    ok = True
    for name, spec in SCENARIOS:
        logic = scenario_logic(name, chsh_logic, two_by_three_logic, three_input_logic)
        for side in (Side.LEFT, Side.RIGHT):
            _, report = bl.single_box_logic(logic.gamma, side, big_logic=logic)
            expected = sum((1 << s) - 2 for s in spec.sizes(side)) + 2
            ok = ok and report.ok and report.element_count == expected
        details.append(f"{name}: both sides ok")
    chsh_left, _ = bl.single_box_logic(chsh_logic.gamma, Side.LEFT)
    ok = ok and len(chsh_left.elements) == 6
    announce(9, ok, "; ".join(details) + "; chsh left box has 6 elements")


def test_criterion_10_uncertainty_failure(chsh_logic):
    observables = []
    for a in range(2):
        for b in range(2):
            observables.extend(bl.input_pair_observables(chsh_logic, a, b))
    assert len(observables) == 4 * 15
    witness_state = bl.point_state(chsh_logic, 0)
    products_checked = 0
    all_zero = True
    for x, y in itertools.product(observables, repeat=2):
        product = bl.variance(x, witness_state) * bl.variance(y, witness_state)
        products_checked += 1
        if product != 0:
            all_zero = False
            break
    uniform = bl.state_from_pr(chsh_logic, bl.PRState.uniform(CHSH))
    nonconstant = [obs for obs in observables if len(obs.items) > 1]
    contrast = (
        bl.variance(nonconstant[0], uniform) * bl.variance(nonconstant[1], uniform) > 0
    )
    announce(
        10,
        all_zero and contrast,
        f"{products_checked} observable pairs at product 0 on a point state; "
        f"uniform-state contrast positive={contrast}",
    )


def test_criterion_11_determinism():
    first = canonical_json(bl.verify_scenario(CHSH, seed=11, sample_count=25))
    second = canonical_json(bl.verify_scenario(CHSH, seed=11, sample_count=25))
    announce(11, first == second, f"{len(first)} report bytes, identical across runs")
