import dataclasses

import pytest

import boxlogic as bl

CHSH = bl.BoxWorldSpec.from_sizes([2, 2], [2, 2])
THREE_INPUT = bl.BoxWorldSpec.from_sizes([2, 2, 2], [2, 2, 2])
TWO_BY_THREE = bl.BoxWorldSpec.from_sizes([3, 3], [3, 3])
SINGLE_PAIR = bl.BoxWorldSpec.from_sizes([2], [2])
TRIVIAL = SINGLE_PAIR
# (left sizes, right sizes) of the shapes whose equalities and violations
# are compared with plain loops; the last two are asymmetric on both sides
NS_SHAPES = [([2], [2]), ([2, 2], [2, 2]), ([3], [2]), ([2, 2, 2], [2, 2]), ([3, 2], [2, 3, 2]), ([2, 3, 4], [3])]


@pytest.fixture(scope="session")
def chsh_logic():
    return bl.close_logic(CHSH)


@pytest.fixture(scope="session")
def three_input_logic():
    return bl.close_logic(THREE_INPUT)


@pytest.fixture(scope="session")
def two_by_three_logic():
    return bl.close_logic(TWO_BY_THREE)


@pytest.fixture(scope="session")
def single_pair_logic():
    return bl.close_logic(SINGLE_PAIR)


@pytest.fixture(scope="session")
def chsh_polytope():
    hrep = bl.ns_polytope(CHSH)
    return hrep, bl.enumerate_vertices(hrep)


@pytest.fixture(scope="session")
def three_input_polytope():
    hrep = bl.ns_polytope(THREE_INPUT)
    return hrep, bl.enumerate_vertices(hrep)


@pytest.fixture(scope="session")
def two_by_three_polytope():
    hrep = bl.ns_polytope(TWO_BY_THREE)
    return hrep, bl.enumerate_vertices(hrep)


@pytest.fixture(scope="session")
def chsh_vertex_states(chsh_polytope):
    hrep, vertex_set = chsh_polytope
    return bl.vertex_pr_states(hrep, vertex_set)


@pytest.fixture()
def invalid_vertex(monkeypatch):
    """Called with indices: verify_scenario then sees a vertex set whose tables at
    those indices are all zeros."""
    from boxlogic import report

    enumerate_vertices = report.enumerate_vertices

    def install(*ks):
        def patched(hrep):
            vertex_set = enumerate_vertices(hrep)
            scaled = list(vertex_set.scaled)
            for k in ks:
                scaled[k] = (0,) * hrep.nvars
            return dataclasses.replace(vertex_set, scaled=tuple(scaled))

        monkeypatch.setattr(report, "enumerate_vertices", patched)

    return install


@pytest.fixture()
def invalid_first_vertex(invalid_vertex):
    """verify_scenario sees a vertex set whose first table is all zeros."""
    invalid_vertex(0)
