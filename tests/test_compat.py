import pytest

import boxlogic as bl
from boxlogic import AtomId, BoxWorldSpec, LocalizedSpec, Side


def loc_index(logic, side, input_index, outcomes):
    bits = bl.make_localized(logic.gamma, LocalizedSpec(side, input_index, outcomes))
    return logic.index_of(bits)


def scan_first_witness(logic, i, j):
    """Defining search: smallest shared piece r with all parts in the table."""
    p, q = logic.elements[i], logic.elements[j]
    for r_idx in range(len(logic.elements)):
        r = logic.elements[r_idx]
        if r & p != r or r & q != r:
            continue
        p1, q1 = p & ~r, q & ~r
        if p1 & q1:
            continue
        if p1 in logic.index and q1 in logic.index:
            return bl.CompatibilityWitness(
                logic.index_of(p1), logic.index_of(q1), r_idx
            )
    return None


def test_identical_elements_compatible(chsh_logic):
    i = loc_index(chsh_logic, Side.LEFT, 0, (0,))
    w = bl.are_compatible(chsh_logic, i, i)
    empty = chsh_logic.index_of(0)
    assert w == bl.CompatibilityWitness(empty, empty, i)


def test_subset_pair_compatible(chsh_logic):
    small = chsh_logic.atom_element(AtomId(0, 0, 0, 0))
    big = loc_index(chsh_logic, Side.LEFT, 0, (0,))
    w = bl.are_compatible(chsh_logic, small, big)
    assert w is not None
    assert w.shared == small
    assert chsh_logic.elements[w.only_first] == 0


def test_cross_side_witness_matches_rectangles(chsh_logic):
    p = loc_index(chsh_logic, Side.LEFT, 0, (0,))
    q = loc_index(chsh_logic, Side.RIGHT, 0, (0,))
    w = bl.are_compatible(chsh_logic, p, q)
    assert w is not None
    g = chsh_logic.gamma
    assert chsh_logic.elements[w.shared] == bl.make_atom(g, AtomId(0, 0, 0, 0))
    assert chsh_logic.elements[w.only_first] == bl.make_atom(g, AtomId(0, 0, 0, 1))
    assert chsh_logic.elements[w.only_second] == bl.make_atom(g, AtomId(0, 1, 0, 0))


def test_same_side_different_input_incompatible(chsh_logic):
    p = loc_index(chsh_logic, Side.LEFT, 0, (0,))
    q = loc_index(chsh_logic, Side.LEFT, 1, (0,))
    assert bl.are_compatible(chsh_logic, p, q) is None


def test_witness_agrees_with_defining_scan(chsh_logic):
    n = len(chsh_logic.elements)
    import random

    rng = random.Random(5)
    for _ in range(120):
        i, j = rng.randrange(n), rng.randrange(n)
        assert bl.are_compatible(chsh_logic, i, j) == scan_first_witness(
            chsh_logic, i, j
        )


def test_compatibility_symmetric_reflexive_chsh(chsh_logic):
    n = len(chsh_logic.elements)
    for i in range(n):
        assert bl.are_compatible(chsh_logic, i, i) is not None
        for j in range(i + 1, n):
            first = bl.are_compatible(chsh_logic, i, j) is not None
            second = bl.are_compatible(chsh_logic, j, i) is not None
            assert first == second


def test_disjoint_elements_compatible(chsh_logic):
    empty = chsh_logic.index_of(0)
    for i, j in chsh_logic.disjoint_pairs():
        w = bl.are_compatible(chsh_logic, i, j)
        assert w == bl.CompatibilityWitness(i, j, empty)


def test_below_implies_compatible_when_difference_exists(chsh_logic):
    for i, j in chsh_logic.comparable_pairs():
        diff = chsh_logic.elements[j] & ~chsh_logic.elements[i]
        if diff in chsh_logic.index:
            assert bl.are_compatible(chsh_logic, i, j) is not None


# -- compatible sets -----------------------------------------------------------


def test_single_element_family_is_its_decomposition(chsh_logic):
    i = loc_index(chsh_logic, Side.LEFT, 0, (0,))
    family = bl.is_compatible_set(chsh_logic, [i])
    expected = tuple(
        sorted(
            chsh_logic.index_of(chsh_logic.atom_bits[pos])
            for pos in chsh_logic.decomposition(i)
        )
    )
    assert family == expected
    assert bl.verify_generating_family(chsh_logic, [i], family)


def test_localized_family_compatible(chsh_logic):
    members = [
        loc_index(chsh_logic, Side.LEFT, 0, (0,)),
        loc_index(chsh_logic, Side.LEFT, 0, (1,)),
        loc_index(chsh_logic, Side.RIGHT, 0, (0,)),
    ]
    family = bl.is_compatible_set(chsh_logic, members)
    assert family is not None
    assert bl.verify_generating_family(chsh_logic, members, family)


def test_incompatible_family_detected(chsh_logic):
    members = [
        loc_index(chsh_logic, Side.LEFT, 0, (0,)),
        loc_index(chsh_logic, Side.LEFT, 1, (0,)),
    ]
    assert bl.is_compatible_set(chsh_logic, members) is None


def test_compatible_set_bound(chsh_logic):
    with pytest.raises(bl.CapExceeded):
        bl.is_compatible_set(chsh_logic, list(range(1, 15)), bound=12)


def test_theorem_partition_for_localized_family(chsh_logic):
    built = bl.localized_family_partition(chsh_logic, 0, [[0], [1]], 0, [[0]])
    assert built is not None
    family, ok = built
    assert ok
    members = [
        loc_index(chsh_logic, Side.LEFT, 0, (0,)),
        loc_index(chsh_logic, Side.LEFT, 0, (1,)),
        loc_index(chsh_logic, Side.RIGHT, 0, (0,)),
    ]
    assert bl.verify_generating_family(chsh_logic, members, family)


# -- Boolean sublogics -----------------------------------------------------------


def test_boolean_sublogic_single_atom(chsh_logic):
    atom = chsh_logic.atom_element(AtomId(0, 0, 0, 0))
    sub = bl.boolean_sublogic_containing(chsh_logic, [atom])
    assert sub is not None
    expected = {
        chsh_logic.index_of(0),
        atom,
        chsh_logic.complement_map[atom],
        chsh_logic.index_of(chsh_logic.full_mask),
    }
    assert set(sub.element_indices) >= expected
    assert sub.checks["distributive_triples"]


def test_boolean_sublogic_contains_localized_family(chsh_logic):
    members = [
        loc_index(chsh_logic, Side.LEFT, 0, (0,)),
        loc_index(chsh_logic, Side.RIGHT, 0, (0,)),
    ]
    sub = bl.boolean_sublogic_containing(chsh_logic, members)
    assert sub is not None
    assert all(m in sub.element_indices for m in members)
    assert sub.size <= 2 ** len(sub.block_indices)
    assert all(sub.checks.values())


def test_boolean_sublogic_none_for_incompatible(chsh_logic):
    members = [
        loc_index(chsh_logic, Side.LEFT, 0, (0,)),
        loc_index(chsh_logic, Side.LEFT, 1, (0,)),
    ]
    assert bl.boolean_sublogic_containing(chsh_logic, members) is None


# -- one-box logics ----------------------------------------------------------------


def test_single_box_chsh_left(chsh_logic):
    box, report = bl.single_box_logic(chsh_logic.gamma, Side.LEFT, big_logic=chsh_logic)
    assert report.ok, report.to_dict()
    assert report.element_count == 2 * (2**2 - 2) + 2 == 6
    assert report.block_sizes == [4, 4]
    assert report.flags["inside_two_box_logic"]


def test_single_box_mixed_sizes():
    spec = BoxWorldSpec.from_sizes([3, 2], [2, 2])
    gamma = bl.build_gamma(spec)
    _, report = bl.single_box_logic(gamma, Side.LEFT)
    assert report.ok
    assert report.element_count == (2**3 - 2) + (2**2 - 2) + 2 == 10


def test_single_box_single_input_is_boolean():
    spec = BoxWorldSpec.from_sizes([2], [2, 2])
    gamma = bl.build_gamma(spec)
    box, report = bl.single_box_logic(gamma, Side.LEFT)
    assert report.ok
    assert report.element_count == 2**2
    assert bl.is_boolean(box) is True


def test_single_box_right_side(chsh_logic):
    _, report = bl.single_box_logic(chsh_logic.gamma, Side.RIGHT, big_logic=chsh_logic)
    assert report.ok
    assert report.side == "right"


def test_single_box_blocks_are_boolean_algebras(chsh_logic):
    box, report = bl.single_box_logic(chsh_logic.gamma, Side.LEFT)
    for table in report.block_tables:
        block = [box.elements[i] for i in table]
        sub = bl.ConcreteLogic(box.ground_size, block)
        assert bl.is_boolean(sub) is True


# -- one-box propositions inside the two-box logic -----------------------------------


def test_localized_propositions_chsh(chsh_logic):
    report = bl.verify_localized_propositions(chsh_logic)
    assert report.all_passed, report.to_dict()
    cert = report.distributivity_certificate
    assert cert is not None and not cert["distributive"]
    # p v (p' ^ q) collapses to p while (p v p') ^ (p v q) is everything
    assert cert["lhs_join_p_meet_pc_q"] == cert["p"]
    assert cert["rhs_meet_join_p_pc_join_p_q"] == chsh_logic.index_of(
        chsh_logic.full_mask
    )


def test_localized_propositions_three_input(three_input_logic):
    report = bl.verify_localized_propositions(three_input_logic)
    assert report.all_passed


def test_localized_meet_join_case_table(chsh_logic):
    report = bl.verify_localized_propositions(chsh_logic)
    assert report.meet_join_table.passed
    assert report.meet_join_table.checked > 0
