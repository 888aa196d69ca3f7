"""Every structural check against plain-loop oracles, on intact and damaged tables.

Each report entry of a check is (passed, checked, counterexample, note):
``checked`` counts the cases examined up to and including the first
counterexample, and ``counterexample`` is None when the check passes.  The
damaged tables drive every check to a failure at least once.
"""

import functools
import random

import pytest

import boxlogic as bl
from boxlogic import Side
from boxlogic.compat import _distributivity_certificate

import oracles
from conftest import CHSH, THREE_INPUT

# one left input with three outcomes: {alpha0, alpha1} x {beta0} is a
# rectangle that is neither an atom nor a one-box proposition
THREE_BY_TWO = bl.BoxWorldSpec.from_sizes([3], [2])


def _removed(spec, drop):
    logic = bl.close_logic(spec)
    return bl.Logic(logic.gamma, logic.atom_ids, [e for e in logic.elements if e not in drop])


def _added(spec, extra):
    logic = bl.close_logic(spec)
    return bl.Logic(logic.gamma, logic.atom_ids, [*logic.elements, *extra])


def _random_removal(spec, seed, count=3):
    """The closed logic without ``count`` seeded elements that are neither the
    bounds, nor atoms, nor one-box propositions."""
    logic = bl.close_logic(spec)
    keep = {0, logic.full_mask, *logic.atom_bits}
    for side in Side:
        keep.update(logic.elements[i] for _, _, i in bl.enumerate_localized(logic, side))
    removable = [e for e in logic.elements if e not in keep]
    return _removed(spec, set(random.Random(seed).sample(removable, count)))


def _one_box(spec, side, a, outcomes):
    gamma = bl.build_gamma(spec)
    bits = 0
    for o in outcomes:
        bits |= gamma.outcome_mask(side, a, o)
    return bits


def _rectangle_removed():
    rect = _one_box(THREE_BY_TWO, Side.LEFT, 0, [0, 1]) & _one_box(THREE_BY_TWO, Side.RIGHT, 0, [0])
    return _removed(THREE_BY_TWO, {rect})


def _point_added():
    # one sample point and its complement: no atomic partition, and the
    # point sits below complements of one-box propositions
    full = bl.build_gamma(CHSH).full_mask
    return _added(CHSH, [0b1, full ^ 0b1])


def _inputs_made_compatible(side):
    # the split of two propositions of one side on different inputs; on the
    # right side the scan meets it after the left side's incompatible pairs
    p = _one_box(CHSH, side, 0, [0])
    q = _one_box(CHSH, side, 1, [0])
    return _added(CHSH, [p & q, p & ~q, q & ~p])


def _mixed_input_partition():
    # closed, with minimal atoms {x0=0, y0=b} and {x0=1, y1=b}: the union of
    # the first three contains the right piece y1=0 of the third atom, but
    # neither that piece nor the rest of the union is an element
    ids = [bl.AtomId(0, 0, 0, 0), bl.AtomId(0, 0, 0, 1), bl.AtomId(0, 1, 1, 0), bl.AtomId(0, 1, 1, 1)]
    gamma = bl.build_gamma(CHSH)
    atoms = [bl.make_atom(gamma, aid) for aid in ids]
    return bl.Logic(gamma, ids, oracles.naive_closure(gamma.gamma_size, atoms))


def _single_box(side):
    return bl.single_box_logic(bl.build_gamma(CHSH), side)[0]


# scenario logics: every check runs on them
LOGIC_CASES = {
    "chsh": lambda: bl.close_logic(CHSH),
    "three_by_two": lambda: bl.close_logic(THREE_BY_TWO),
    "three_input": lambda: bl.close_logic(THREE_INPUT),
    **{f"chsh_removed_{seed}": functools.partial(_random_removal, CHSH, seed) for seed in range(5)},
    **{
        f"three_input_removed_{seed}": functools.partial(_random_removal, THREE_INPUT, seed)
        for seed in range(2)
    },
    "three_by_two_rectangle_removed": _rectangle_removed,
    "chsh_without_empty_set": lambda: _removed(CHSH, {0}),
    "chsh_without_full_set": lambda: _removed(CHSH, {bl.build_gamma(CHSH).full_mask}),
    "chsh_point_added": _point_added,
    "chsh_left_inputs_made_compatible": functools.partial(_inputs_made_compatible, Side.LEFT),
    "chsh_right_inputs_made_compatible": functools.partial(_inputs_made_compatible, Side.RIGHT),
}

# plain tables: the axioms and atomic coverage run on them
TABLE_CASES = {
    "even_set_3": lambda: bl.even_set_logic(3),
    "even_set_4": lambda: bl.even_set_logic(4),
    "power_set": lambda: bl.ConcreteLogic(4, range(16)),
    "chsh_left_box": functools.partial(_single_box, Side.LEFT),
    "chsh_right_box": functools.partial(_single_box, Side.RIGHT),
    "power_set_without_0111": lambda: bl.ConcreteLogic(4, [e for e in range(16) if e != 0b0111]),
    "power_set_without_0011": lambda: bl.ConcreteLogic(4, [e for e in range(16) if e != 0b0011]),
    "power_set_without_empty_set": lambda: bl.ConcreteLogic(4, range(1, 16)),
    "power_set_without_full_set": lambda: bl.ConcreteLogic(4, range(15)),
    "overlapping_atoms": lambda: bl.ConcreteLogic(3, range(8), atom_bits=[0b011, 0b110]),
    # the atom-step walk passes vacuously on a table with no elements
    "empty_table": lambda: bl.ConcreteLogic(2, []),
}


@functools.cache
def _table(name):
    return {**LOGIC_CASES, **TABLE_CASES}[name]()


def _entry(result):
    return result.passed, result.checked, result.counterexample, result.note


@functools.cache
def _expected(name):
    """Oracle verdicts of every check that runs on the named table."""
    logic = _table(name)
    out = {f"axiom {k}": v for k, v in oracles.naive_axiom_entries(logic).items()}
    out["atomic_coverage"] = oracles.naive_atomic_coverage(logic)
    if name in LOGIC_CASES:
        out["order_classification"] = oracles.naive_order_classification(logic)[0]
        localized = oracles.naive_localized_entries(logic)
        for key in ("cross_side", "same_side", "families", "meet_join_table"):
            out[f"localized {key}"] = localized[key]
    return out


@pytest.mark.parametrize("name", [*LOGIC_CASES, *TABLE_CASES])
def test_axioms_and_coverage_match_plain_loops(name):
    logic = _table(name)
    report = bl.verify_axioms(logic)
    assert {k: _entry(r) for k, r in report.results.items()} == oracles.naive_axiom_entries(logic)
    assert report.all_passed == all(r.passed for r in report.results.values())
    assert _entry(bl.verify_atomic_coverage(logic)) == oracles.naive_atomic_coverage(logic)


@pytest.mark.parametrize("name", LOGIC_CASES)
def test_order_classification_matches_plain_loops(name):
    logic = _table(name)
    result, counts = bl.verify_order_classification(logic)
    assert (_entry(result), counts) == oracles.naive_order_classification(logic)


@pytest.mark.parametrize("name", LOGIC_CASES)
def test_localized_checks_match_plain_loops(name):
    logic = _table(name)
    report = bl.verify_localized_propositions(logic)
    expected = oracles.naive_localized_entries(logic)
    for key in ("cross_side", "same_side", "families", "meet_join_table"):
        assert _entry(getattr(report, key)) == expected[key], key
    # the certificate comes from the first incompatible pair the scan passes
    # that yields one
    certificates = (_distributivity_certificate(logic, p, q) for p, q in expected["incompatible_pairs"])
    assert report.distributivity_certificate == next(
        (c for c in certificates if c is not None), None
    )


def test_every_check_fails_on_some_table():
    failing = {
        check
        for name in [*LOGIC_CASES, *TABLE_CASES]
        for check, entry in _expected(name).items()
        if not entry[0]
    }
    assert failing == set(_expected("chsh")), sorted(set(_expected("chsh")) - failing)


def test_intact_logics_pass_everything():
    intact = [
        "chsh", "three_by_two", "three_input", "even_set_3", "even_set_4", "power_set",
        "chsh_left_box", "chsh_right_box",
    ]
    for name in intact:
        assert _table(name)._certified(), name
        assert all(entry[0] for entry in _expected(name).values()), name


def test_certified_table_without_a_one_box_piece_fails_order_classification():
    # closed under complement and disjoint union, yet a remainder is missing:
    # order classification scans rather than counts
    logic = _mixed_input_partition()
    assert logic._certified()
    report = bl.verify_axioms(logic)
    assert report.all_passed
    assert {k: _entry(r) for k, r in report.results.items()} == oracles.naive_axiom_entries(logic)
    assert _entry(bl.verify_atomic_coverage(logic)) == oracles.naive_atomic_coverage(logic)
    result, counts = bl.verify_order_classification(logic)
    assert (_entry(result), counts) == oracles.naive_order_classification(logic)
    assert not result.passed and result.counterexample["element"] == 14


def test_rectangle_removal_fails_cross_side_first_at_the_rectangle():
    entry = _expected("three_by_two_rectangle_removed")["localized cross_side"]
    assert entry[0] is False
    assert entry[2] == {"left": [0, [0, 1]], "right": [0, [0]]}


@pytest.mark.parametrize("name", ["chsh_without_empty_set", "chsh_without_full_set"])
def test_missing_bound_fails_meet_join_table(name):
    # the wanted meet or join of two one-box propositions is the missing bound
    report = bl.verify_localized_propositions(_table(name))
    assert not report.meet_join_table.passed
    assert not report.all_passed
