import math
import random
from fractions import Fraction

import pytest

import boxlogic as bl
from boxlogic import BoxWorldSpec

import oracles
from conftest import CHSH, SINGLE_PAIR


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
        assert bl.satisfies_hrep(hrep, coords)
        assert bl.is_extreme_point(hrep, coords)
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
        assert bl.satisfies_hrep(hrep, coords)


def test_single_input_pair_is_simplex():
    hrep = bl.ns_polytope(SINGLE_PAIR)
    vertex_set = bl.enumerate_vertices(hrep)
    assert vertex_set.affine_dim == 3
    determined = {coords_of(hrep, pr) for pr in oracles.deterministic_tables(SINGLE_PAIR)}
    assert len(determined) == 4
    assert set(vertex_set.vertices) == determined
    assert vertex_set.count("deterministic") == 4


def test_affine_dimension_cross_checked_by_vertices(chsh_polytope):
    from boxlogic.linalg import rank

    _, vertex_set = chsh_polytope
    v0 = vertex_set.vertices[0]
    rows = [
        [x - y for x, y in zip(vert, v0)] for vert in vertex_set.vertices[1:]
    ]
    assert rank(rows) == vertex_set.affine_dim


def test_midpoint_is_not_extreme(chsh_polytope):
    hrep, vertex_set = chsh_polytope
    a, b = vertex_set.vertices[0], vertex_set.vertices[1]
    mid = tuple((x + y) / 2 for x, y in zip(a, b))
    assert bl.satisfies_hrep(hrep, mid)
    assert not bl.is_extreme_point(hrep, mid)


def test_infeasible_points_rejected(chsh_polytope):
    hrep, _ = chsh_polytope
    nv = hrep.nvars
    assert not bl.satisfies_hrep(hrep, tuple(Fraction(0) for _ in range(nv)))
    assert not bl.is_extreme_point(hrep, tuple(Fraction(0) for _ in range(nv)))
    assert not bl.satisfies_hrep(hrep, tuple(Fraction(1, 16) for _ in range(nv)))


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
        assert bl.is_extreme_point(hrep, coords)


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


def test_unbounded_system_rejected():
    # x0 = x1 >= 0 has the recession direction (1, 1)
    variables = bl.all_atom_ids(SINGLE_PAIR)[:2]
    hrep = bl.HRep(SINGLE_PAIR, variables, ((1, -1),), (0,))
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
    from boxlogic.io import vertices_to_csv

    _, vertex_set = chsh_polytope
    text = vertices_to_csv(vertex_set)
    lines = text.strip().split("\n")
    assert len(lines) == 25
    assert lines[0].startswith("class,p_0_0_0_0")
    assert text == vertices_to_csv(vertex_set)
