"""Structural invariants over randomized scenarios and elements."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from hypothesis import assume, given, settings, strategies as st

import boxlogic as bl
from boxlogic import BoxWorldSpec, Side

import oracles

side_sizes = st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2)
small_scenarios = (
    st.tuples(side_sizes, side_sizes)
    .map(lambda lr: (tuple(lr[0]), tuple(lr[1])))
    .filter(
        lambda lr: _points(lr[0]) * _points(lr[1]) <= 40
    )
)


def _points(sizes):
    out = 1
    for s in sizes:
        out *= s
    return out


# the plain-loop oracles walk all element pairs
ORACLE_ELEMENTS = 1000


@lru_cache(maxsize=None)
def cached_logic(left, right):
    return bl.close_logic(BoxWorldSpec.from_sizes(list(left), list(right)))


def _entry(result):
    return result.passed, result.checked, result.counterexample, result.note


def structural_entries(logic):
    """(axiom entries, atomic coverage entry, (order classification entry, case counts))."""
    result, counts = bl.verify_order_classification(logic)
    return (
        {k: _entry(r) for k, r in bl.verify_axioms(logic).results.items()},
        _entry(bl.verify_atomic_coverage(logic)),
        (_entry(result), counts),
    )


def oracle_entries(logic):
    return (
        oracles.naive_axiom_entries(logic),
        oracles.naive_atomic_coverage(logic),
        oracles.naive_order_classification(logic),
    )


@lru_cache(maxsize=None)
def cached_oracle_entries(left, right):
    logic = cached_logic(left, right)
    return oracle_entries(logic) if len(logic.elements) <= ORACLE_ELEMENTS else None


@settings(max_examples=20, deadline=None)
@given(small_scenarios)
def test_axioms_hold_on_random_scenarios(shape):
    logic = cached_logic(*shape)
    report = bl.verify_axioms(logic)
    assert report.all_passed
    if (expected := cached_oracle_entries(*shape)) is not None:
        assert {k: _entry(r) for k, r in report.results.items()} == expected[0]


@settings(max_examples=20, deadline=None)
@given(small_scenarios)
def test_every_element_is_disjoint_union_of_atoms(shape):
    logic = cached_logic(*shape)
    result = bl.verify_atomic_coverage(logic)
    assert result.passed
    if (expected := cached_oracle_entries(*shape)) is not None:
        assert _entry(result) == expected[1]


@settings(max_examples=20, deadline=None)
@given(small_scenarios)
def test_order_classification_never_fails(shape):
    logic = cached_logic(*shape)
    result, counts = bl.verify_order_classification(logic)
    assert result.passed
    if (expected := cached_oracle_entries(*shape)) is not None:
        assert (_entry(result), counts) == expected[2]


@settings(max_examples=20, deadline=None)
@given(small_scenarios, st.randoms(use_true_random=False))
def test_structural_checks_match_oracles_with_one_element_removed(shape, rng):
    logic = cached_logic(*shape)
    assume(len(logic.elements) <= ORACLE_ELEMENTS)
    atoms = set(logic.atom_bits)
    drop = rng.choice([e for e in logic.elements if e not in atoms])
    damaged = bl.Logic(logic.gamma, logic.atom_ids, [e for e in logic.elements if e != drop])
    assert not damaged._certified()  # the complement of the dropped element has none
    assert structural_entries(damaged) == oracle_entries(damaged)


@settings(max_examples=15, deadline=None)
@given(small_scenarios, st.randoms(use_true_random=False))
def test_meet_join_duality(shape, rng):
    logic = cached_logic(*shape)
    n = len(logic.elements)
    comp = logic.complement_map
    for _ in range(30):
        i, j = rng.randrange(n), rng.randrange(n)
        join = logic.join(i, j)
        meet_of_comps = logic.meet(comp[i], comp[j])
        assert (join is None) == (meet_of_comps is None)
        if join is not None:
            assert meet_of_comps == comp[join]


@settings(max_examples=15, deadline=None)
@given(small_scenarios, st.randoms(use_true_random=False))
def test_compatibility_symmetry_sampled(shape, rng):
    logic = cached_logic(*shape)
    n = len(logic.elements)
    for _ in range(50):
        i, j = rng.randrange(n), rng.randrange(n)
        assert (bl.are_compatible(logic, i, j) is None) == (
            bl.are_compatible(logic, j, i) is None
        )


@settings(max_examples=15, deadline=None)
@given(small_scenarios, st.integers(min_value=0, max_value=10**6))
def test_point_states_respect_order_and_complement(shape, raw_point):
    logic = cached_logic(*shape)
    point = raw_point % logic.ground_size
    rho = bl.point_state(logic, point)
    for i, j in itertools.islice(logic.comparable_pairs(), 200):
        assert rho.value(i) <= rho.value(j)
    for i in range(len(logic.elements)):
        assert rho.value(i) + rho.value(logic.complement_map[i]) == 1


@settings(max_examples=10, deadline=None)
@given(small_scenarios, st.integers(min_value=0, max_value=2**31))
def test_uniform_mixture_round_trip(shape, seed):
    logic = cached_logic(*shape)
    spec = logic.spec
    points = list(bl.deterministic_points(spec))
    rng = random.Random(seed)
    support = rng.sample(points, min(3, len(points)))
    tables = [bl.PRState.deterministic(spec, xs, ys) for xs, ys in support]
    weights = [Fraction(1, len(tables))] * len(tables)
    pr = bl.convex_combination(tables, weights)
    assert bl.validate_pr_state(pr) == []
    rho = bl.state_from_pr(logic, pr)
    assert bl.pr_from_state(rho).table == pr.table


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**16 - 1))
def test_complement_involution_bits(bits):
    g = bl.build_gamma(BoxWorldSpec.from_sizes([2, 2], [2, 2]))
    assert bl.complement_bits(g, bl.complement_bits(g, bits)) == bits


@settings(max_examples=30, deadline=None)
@given(small_scenarios, st.data())
def test_localized_popcount_formula(shape, data):
    spec = BoxWorldSpec.from_sizes(list(shape[0]), list(shape[1]))
    g = bl.build_gamma(spec)
    side = data.draw(st.sampled_from([Side.LEFT, Side.RIGHT]))
    sizes = spec.sizes(side)
    input_index = data.draw(st.integers(min_value=0, max_value=len(sizes) - 1))
    outcome_count = data.draw(st.integers(min_value=1, max_value=sizes[input_index]))
    outcomes = tuple(range(outcome_count))
    bits = bl.make_localized(g, bl.LocalizedSpec(side, input_index, outcomes))
    assert bits.bit_count() == outcome_count * g.gamma_size // sizes[input_index]


def test_de_morgan_sampled_on_large_logic(two_by_three_logic):
    rng = random.Random(31)
    n = len(two_by_three_logic.elements)
    comp = two_by_three_logic.complement_map
    for _ in range(300):
        i, j = rng.randrange(n), rng.randrange(n)
        join = two_by_three_logic.join(i, j)
        meet_of_comps = two_by_three_logic.meet(comp[i], comp[j])
        if join is None:
            assert meet_of_comps is None
        else:
            assert meet_of_comps == comp[join]
