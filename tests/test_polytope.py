import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import boxlogic as bl
from boxlogic import BoxWorldSpec, polytope
from boxlogic.io import load_scenario

import oracles
from conftest import CHSH, NS_SHAPES, SINGLE_PAIR

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def coords_of(hrep, pr):
    return tuple(pr.atom_value(aid) for aid in hrep.variables)


def test_chsh_dimension_and_counts(chsh_polytope):
    hrep, vertex_set = chsh_polytope
    assert vertex_set.affine_dim == 8
    assert bl.affine_dimension(hrep) == 8
    assert len(vertex_set) == 24
    assert vertex_set.count("deterministic") == 16
    assert vertex_set.count("nondeterministic") == 8


def test_chsh_vertices_against_construction_oracle(chsh_polytope):
    hrep, vertex_set = chsh_polytope
    determined = {coords_of(hrep, pr) for pr in oracles.deterministic_tables(CHSH)}
    boxes = {coords_of(hrep, pr) for pr in oracles.chsh_pr_box_tables(CHSH)}
    assert len(determined) == 16
    assert len(boxes) == 8
    # both general constructions reduce to the eight PR boxes here
    for construction in (oracles.binary_nonlocal_tables, oracles.relabelled_pr_box_tables):
        assert {coords_of(hrep, pr) for pr in construction(CHSH)} == boxes
    for coords in determined | boxes:
        assert oracles.satisfies_hrep(hrep, coords)
        assert oracles.is_extreme_point(hrep, coords)
    assert set(vertex_set.vertices) == determined | boxes


def test_deterministic_class_matches_zero_one_entries(chsh_polytope):
    _, vertex_set = chsh_polytope
    for coords, cls in zip(vertex_set.vertices, vertex_set.classes):
        expected = "deterministic" if all(v in (0, 1) for v in coords) else "nondeterministic"
        assert cls == expected


def test_vertices_satisfy_constraints_exactly_and_differ(chsh_polytope):
    hrep, vertex_set = chsh_polytope
    assert len(set(vertex_set.vertices)) == len(vertex_set)
    for coords in vertex_set.vertices:
        assert oracles.satisfies_hrep(hrep, coords)


def test_single_input_pair_is_simplex():
    hrep = bl.ns_polytope(SINGLE_PAIR)
    vertex_set = bl.enumerate_vertices(hrep)
    assert vertex_set.affine_dim == 3
    determined = {coords_of(hrep, pr) for pr in oracles.deterministic_tables(SINGLE_PAIR)}
    assert len(determined) == 4
    assert set(vertex_set.vertices) == determined
    assert vertex_set.count("deterministic") == 4


def test_affine_dimension_cross_checked_by_vertices(chsh_polytope):
    _, vertex_set = chsh_polytope
    v0 = vertex_set.vertices[0]
    rows = [
        [x - y for x, y in zip(vert, v0)] for vert in vertex_set.vertices[1:]
    ]
    assert oracles.rank(rows) == vertex_set.affine_dim


def test_midpoint_is_not_extreme(chsh_polytope):
    hrep, vertex_set = chsh_polytope
    a, b = vertex_set.vertices[0], vertex_set.vertices[1]
    mid = tuple((x + y) / 2 for x, y in zip(a, b))
    assert oracles.satisfies_hrep(hrep, mid)
    assert not oracles.is_extreme_point(hrep, mid)


def test_infeasible_points_rejected(chsh_polytope):
    hrep, _ = chsh_polytope
    nv = hrep.nvars
    assert not oracles.satisfies_hrep(hrep, tuple(Fraction(0) for _ in range(nv)))
    assert not oracles.is_extreme_point(hrep, tuple(Fraction(0) for _ in range(nv)))
    assert not oracles.satisfies_hrep(hrep, tuple(Fraction(1, 16) for _ in range(nv)))


@pytest.mark.parametrize("left,right", NS_SHAPES, ids=str)
def test_ns_rows_match_the_naive_loops(left, right):
    hrep = bl.ns_polytope(BoxWorldSpec.from_sizes(left, right))
    variables, coeffs, rhs = oracles.naive_ns_rows(hrep.spec)
    assert [(v.a, v.alpha, v.b, v.beta) for v in hrep.variables] == variables
    assert list(hrep.eq_coeffs) == coeffs
    assert list(hrep.eq_rhs) == rhs


def test_variable_cap():
    spec = BoxWorldSpec.from_sizes([4] * 4, [4] * 4)
    with pytest.raises(bl.VariableCapExceeded):
        bl.ns_polytope(spec)


def test_vertices_canonically_sorted_and_reproducible(chsh_polytope):
    hrep, vertex_set = chsh_polytope
    assert list(vertex_set.vertices) == sorted(vertex_set.vertices)
    again = bl.enumerate_vertices(hrep)
    assert again.vertices == vertex_set.vertices
    assert again.classes == vertex_set.classes


@pytest.mark.parametrize(
    "polytope", ["chsh_polytope", "three_input_polytope", "two_by_three_polytope"]
)
def test_integer_keys_give_the_fraction_tuple_order(request, polytope):
    _, vertex_set = request.getfixturevalue(polytope)
    assert vertex_set.vertices == tuple(sorted(set(vertex_set.vertices)))
    scale = vertex_set.scale
    assert scale == math.lcm(*(x.denominator for v in vertex_set.vertices for x in v))
    assert vertex_set.vertices == tuple(
        tuple(Fraction(v, scale) for v in row) for row in vertex_set.scaled
    )


def assert_vertices_match_oracles(
    hrep, vertex_set, n_deterministic, nonlocal_tables, n_nonlocal
):
    determined = {coords_of(hrep, pr) for pr in oracles.deterministic_tables(hrep.spec)}
    nonlocal_ = {coords_of(hrep, pr) for pr in nonlocal_tables}
    assert len(determined) == n_deterministic
    assert len(nonlocal_) == n_nonlocal
    assert vertex_set.count("deterministic") == n_deterministic
    assert set(vertex_set.vertices) == determined | nonlocal_
    # the rank test on every vertex takes about a minute; a seeded sample suffices
    for coords in random.Random(0).sample(sorted(determined | nonlocal_), 50):
        assert oracles.is_extreme_point(hrep, coords)


def test_three_input_polytope_shape(three_input_polytope):
    hrep, vertex_set = three_input_polytope
    assert vertex_set.affine_dim == 15
    # deterministic vertices are the joint assignments, 8 * 8; nonlocal ones
    # are counted by Barrett et al. (2005), all with entries in {0, 1/2, 1}
    nonlocal_tables = oracles.binary_nonlocal_tables(hrep.spec)
    assert_vertices_match_oracles(hrep, vertex_set, 64, nonlocal_tables, 1344)
    assert {v for coords in vertex_set.vertices for v in coords} == {0, Fraction(1, 2), 1}


def test_two_by_three_polytope_shape(two_by_three_polytope):
    hrep, vertex_set = two_by_three_polytope
    assert vertex_set.affine_dim == 24
    # 3**4 joint assignments, and relabelled 2- and 3-outcome PR boxes
    nonlocal_tables = oracles.relabelled_pr_box_tables(hrep.spec)
    assert_vertices_match_oracles(hrep, vertex_set, 81, nonlocal_tables, 1080)


@pytest.mark.parametrize(
    "left, right, expected",
    [
        ([2, 2], [2, 2], 8),
        ([2, 2], [3, 3], 72),
        ([2, 3], [2, 3], 72),
        ([3, 2], [2, 3], 72),
        ([2, 3], [4, 2], 144),
        ([4, 3], [2, 2], 144),
        ([2, 3], [3, 3], 216),
        ([2, 4], [2, 4], 288),
        ([3, 3], [3, 3], 1080),
    ],
    ids=str,
)
def test_nonlocal_vertex_count_with_two_inputs_per_side(left, right, expected):
    assert oracles.two_input_nonlocal_count([*left, *right]) == expected
    hrep = bl.ns_polytope(BoxWorldSpec.from_sizes(left, right))
    assert bl.enumerate_vertices(hrep).count("nondeterministic") == expected


@pytest.mark.parametrize(
    "left, right, expected",
    [([2, 2], [2, 2, 2], 96), ([2, 2, 2, 2], [2, 2], 800), ([2, 2, 2], [2, 2, 2], 1344)],
    ids=str,
)
def test_nonlocal_vertex_count_with_binary_outcomes(left, right, expected):
    assert oracles.binary_nonlocal_count(len(left), len(right)) == expected
    hrep = bl.ns_polytope(BoxWorldSpec.from_sizes(left, right))
    assert bl.enumerate_vertices(hrep).count("nondeterministic") == expected


# Drawn shapes up to [2,2,2]x[2,2,2], whose sweep takes about 0.2 s
@settings(max_examples=16, deadline=5000)
@given(st.lists(st.sampled_from([2, 3]), min_size=4, max_size=4))
def test_nonlocal_vertex_count_matches_the_closed_form_with_two_inputs(sizes):
    hrep = bl.ns_polytope(BoxWorldSpec.from_sizes(sizes[:2], sizes[2:]))
    count = bl.enumerate_vertices(hrep).count("nondeterministic")
    assert count == oracles.two_input_nonlocal_count(sizes)


@settings(max_examples=9, deadline=5000)
@given(st.integers(1, 3), st.integers(1, 3))
def test_nonlocal_vertex_count_matches_the_closed_form_with_binary_outcomes(m_a, m_b):
    hrep = bl.ns_polytope(BoxWorldSpec.from_sizes([2] * m_a, [2] * m_b))
    count = bl.enumerate_vertices(hrep).count("nondeterministic")
    assert count == oracles.binary_nonlocal_count(m_a, m_b)


def sweep_against_the_adjacency_oracle(left, right) -> list:
    """Sweep a shape, comparing the pairs of every cutting step, in order, with
    the plain Prop. 7(c) scan; the adjacent pair count of each step."""
    adjacent_pairs, counts = polytope._adjacent_pairs, []

    def compared(acts, cols, small, large, need):
        pairs = list(adjacent_pairs(acts, cols, small, large, need))
        assert pairs == oracles.naive_adjacent_pairs(acts, small, large)
        counts.append(len(pairs))
        return iter(pairs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polytope, "_adjacent_pairs", compared)
        bl.enumerate_vertices(bl.ns_polytope(BoxWorldSpec.from_sizes(left, right)))
    return counts


# the oracle costs O(pairs x rays) per step, so three_input_binary stays out
@pytest.mark.parametrize(
    "left, right", [([2, 2], [2, 2]), ([2, 2], [2, 3]), ([2, 3], [3]), ([2, 2], [2, 2, 2])], ids=str
)
def test_sweep_steps_match_the_adjacency_oracle(left, right):
    assert sum(sweep_against_the_adjacency_oracle(left, right)) > 0


# drawn shapes with at most the 24 table variables of [2,2]x[2,2,2]
@settings(max_examples=12, deadline=5000)
@given(
    st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2),
    st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3),
)
def test_drawn_sweep_steps_match_the_adjacency_oracle(left, right):
    assume(sum(left) * sum(right) <= 24)
    sweep_against_the_adjacency_oracle(left, right)


def permuted(hrep, order):
    """``hrep`` with its variables, and so the sweep's sign constraints, in ``order``."""
    return polytope.HRep(
        hrep.spec,
        tuple(hrep.variables[i] for i in order),
        tuple(tuple(row[i] for i in order) for row in hrep.eq_coeffs),
        hrep.eq_rhs,
    )


@pytest.mark.parametrize(
    "left, right", [([2, 2], [2, 2]), ([2, 3], [3]), ([2, 2, 2], [2, 2, 2]), ([3, 3], [3, 3])], ids=str
)
def test_vertex_set_does_not_depend_on_the_constraint_order(left, right):
    # the sweep takes the sign constraints in variable order; reversed and under two
    # seeded shuffles, it gives the same vertices once they are mapped back
    hrep = bl.ns_polytope(BoxWorldSpec.from_sizes(left, right))
    natural = bl.enumerate_vertices(hrep)
    reverse = list(range(hrep.nvars))[::-1]
    for order in (reverse, *(random.Random(seed).sample(reverse, len(reverse)) for seed in (1, 2))):
        swept = bl.enumerate_vertices(permuted(hrep, order))
        inverse = [order.index(i) for i in range(hrep.nvars)]
        assert swept.scale == natural.scale
        assert sorted(tuple(row[j] for j in inverse) for row in swept.scaled) == list(natural.scaled)


def test_single_miss_witnesses_strike_before_the_holder_test():
    # one step by hand; D = act(p) - act(ray) for p = ray 0
    sets = [
        {0, 1, 2, 3, 10},  # 0 small: p
        {0, 1, 2, 6, 10},  # 1 small, D = {3}: a witness on p's own side
        {0, 1, 3, 7, 10},  # 2 zero set, D = {2}: a witness on neither side
        {1, 2, 3, 10},  # 3 large, D = {0}: the lone witness on column 0, adjacent to p
        {2, 3, 8, 10},  # 4 large, D = {0, 1}: struck by ray 3
        {0, 2, 3, 4, 10},  # 5 large, D = {1}: two witnesses on column 1,
        {0, 2, 3, 5, 10},  # 6 large, D = {1}: so both are struck
        {0, 1, 2, 8},  # 7 large, D = {3, 10}: struck by ray 1 only
        {0, 1, 3, 9},  # 8 large, D = {2, 10}: struck by ray 2 only
    ]
    acts = [sum(1 << c for c in s) for s in sets]
    cols = {c: sum(1 << k for k, s in enumerate(sets) if c in s) for c in range(11)}
    large = [3, 4, 5, 6, 7, 8]
    tested = []

    class Read(list):
        def __getitem__(self, k):
            tested.append(k)
            return super().__getitem__(k)

    assert list(polytope._adjacent_pairs(Read(acts), cols, [0], large, 2)) == [(0, 3)]
    # only ray 3 reaches the holder test, which reads its active set
    assert set(tested) == {0, 3}
    pairs = list(polytope._adjacent_pairs(acts, cols, [0, 1], large, 2))
    assert pairs == oracles.naive_adjacent_pairs(acts, [0, 1], large)


def test_unbounded_system_rejected():
    # x0 = x1 >= 0 has the recession direction (1, 1)
    variables = bl.all_atom_ids(SINGLE_PAIR)[:2]
    hrep = bl.HRep(SINGLE_PAIR, variables, ((1, -1),), (0,))
    with pytest.raises(bl.BoxLogicError, match="recession direction"):
        bl.enumerate_vertices(hrep)


def test_inconsistent_equalities_rejected():
    # x0 = 1 and x0 = 2
    variables = bl.all_atom_ids(SINGLE_PAIR)[:2]
    hrep = bl.HRep(SINGLE_PAIR, variables, ((1, 0), (1, 0)), (1, 2))
    for run in (bl.enumerate_vertices, bl.affine_dimension):
        with pytest.raises(bl.BoxLogicError, match="inconsistent equalities"):
            run(hrep)


def test_no_equalities_is_the_unbounded_orthant():
    variables = bl.all_atom_ids(SINGLE_PAIR)[:2]
    hrep = bl.HRep(SINGLE_PAIR, variables, (), ())
    assert bl.affine_dimension(hrep) == 2
    with pytest.raises(bl.BoxLogicError, match="recession direction"):
        bl.enumerate_vertices(hrep)


def test_deterministic_vertices_are_assignment_tables(three_input_polytope):
    hrep, vertex_set = three_input_polytope
    spec = hrep.spec
    expected = {
        coords_of(hrep, pr) for pr in oracles.deterministic_tables(spec)
    }
    actual = {
        coords
        for coords, cls in zip(vertex_set.vertices, vertex_set.classes)
        if cls == "deterministic"
    }
    assert actual == expected


def test_hrep_export_round_trip(chsh_polytope):
    from boxlogic.io import hrep_to_dict

    hrep, _ = chsh_polytope
    data = hrep_to_dict(hrep)
    assert len(data["variables"]) == 16
    assert len(data["equalities"]["coeffs"]) == len(hrep.eq_coeffs)
    assert data["equalities"]["rhs"].count(1) == 4  # one normalization per input pair


def test_vertex_csv_stable(chsh_polytope):
    import csv
    import io

    from boxlogic.io import format_fraction, vertices_to_csv

    _, vertex_set = chsh_polytope
    text = vertices_to_csv(vertex_set)
    lines = text.strip().split("\n")
    assert len(lines) == 25
    assert lines[0].startswith("class,p_0_0_0_0")
    assert text == vertices_to_csv(vertex_set)
    # the rows are joined by hand: the stdlib's writer gives the same bytes
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["class"] + [f"p_{v.a}_{v.b}_{v.alpha}_{v.beta}" for v in vertex_set.hrep.variables])
    for cls, vert in zip(vertex_set.classes, vertex_set.vertices):
        writer.writerow([cls, *map(format_fraction, vert)])
    assert text == buffer.getvalue()


# Hand-built systems whose sweep passes 2**63.  "crossing" has small
# coefficients: its rays pass 2**62 in the sweep and come back below it.
# "combinations" keeps its rays below 2**62, but the products d[p] * R[n]
# that combine them pass it.  "large" has ten-digit coefficients and is
# past 2**62 from the start.
PAST_INT64_SYSTEMS = {
    "crossing": (
        (
            (16, 16, 10, 14, 18, 17, 16, 14, 17, 15),
            (17, -7, 12, -12, -2, -12, -14, 19, -4, 14),
            (18, -11, -1, -14, -16, 1, 10, 15, -14, 2),
        ),
        (10, 0, 0),
    ),
    "combinations": (
        (
            (57, 57, 31, 32, 32, 41, 56, 35, 53, 55),
            (25, 49, -21, -28, 17, -33, 17, -56, 14, 27),
            (-40, -5, 21, -10, 42, 32, 50, 5, -13, 9),
        ),
        (30, 0, 0),
    ),
    "large": (
        (
            (10**9 + 7, 10**9 + 9, 998244353, 10**9 + 21, 10**9 + 33, 10**9 + 87),
            (104729, -104723, 104717, -104711, 104707, -104701),
        ),
        (10**9, 0),
    ),
}


@pytest.mark.parametrize("name", PAST_INT64_SYSTEMS)
def test_object_dtype_sweep_matches_basic_solutions(name):
    coeffs, rhs = PAST_INT64_SYSTEMS[name]
    hrep = bl.HRep(CHSH, bl.all_atom_ids(CHSH)[: len(coeffs[0])], coeffs, rhs)
    vertex_set = bl.enumerate_vertices(hrep)
    assert max(abs(v) for row in vertex_set.scaled for v in row) > 2**63
    expected = oracles.basic_solution_vertices(hrep)
    assert len(expected) > 5
    assert set(vertex_set.vertices) == expected
    assert len(vertex_set) == len(expected)


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_integer_classes_match_fraction_classes(path):
    vertex_set = bl.enumerate_vertices(bl.ns_polytope(load_scenario(path)))
    assert vertex_set.classes == tuple(
        "deterministic" if all(v in (0, 1) for v in coords) else "nondeterministic"
        for coords in vertex_set.vertices
    )
    assert 0 < vertex_set.count("deterministic") <= len(vertex_set)


def test_two_word_active_sets_match_basic_solutions():
    # 66 sign constraints and the homogenizing one: active sets wider than
    # one 64-bit word, and the sweep's two steps run on constraints past it
    rng = random.Random(3)
    n = 66
    coeffs = (
        tuple(rng.randrange(1, 4) for _ in range(n)),
        tuple(rng.randrange(-3, 4) for _ in range(n)),
    )
    spec = BoxWorldSpec.from_sizes([2, 2], [17])
    hrep = bl.HRep(spec, bl.all_atom_ids(spec)[:n], coeffs, (6, 0))
    vertex_set = bl.enumerate_vertices(hrep)
    expected = oracles.basic_solution_vertices(hrep)
    assert len(expected) == 877
    assert set(vertex_set.vertices) == expected
    assert len(vertex_set) == len(expected)
