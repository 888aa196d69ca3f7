import collections
import itertools
import operator
import random

import pytest

import boxlogic as bl
from boxlogic import AtomId, LocalizedSpec, OrderKind, Side
from boxlogic import logic as logic_module
from boxlogic.logic import _close_family

import oracles
from conftest import CHSH, SINGLE_PAIR, THREE_INPUT, TWO_BY_THREE


def localized_index(logic, side, input_index, outcomes):
    bits = bl.make_localized(logic.gamma, LocalizedSpec(side, input_index, outcomes))
    return logic.index_of(bits)


# -- closure ------------------------------------------------------------------


def test_chsh_closure_matches_disjoint_union_family(chsh_logic):
    fam = oracles.family_closure(chsh_logic.ground_size, chsh_logic.atom_bits)
    assert set(chsh_logic.elements) == set(fam)
    assert len(chsh_logic.elements) == 82  # recorded from the family oracle


def test_chsh_closure_contains_expected_members(chsh_logic):
    g = chsh_logic.gamma
    for aid in bl.all_atom_ids(CHSH):
        assert bl.make_atom(g, aid) in chsh_logic.index
    for side in (Side.LEFT, Side.RIGHT):
        for inp in range(2):
            for outcome in range(2):
                bits = bl.make_localized(g, LocalizedSpec(side, inp, (outcome,)))
                assert bits in chsh_logic.index
    assert 0 in chsh_logic.index
    assert g.full_mask in chsh_logic.index


def test_trivial_scenario_closure_is_power_set(single_pair_logic):
    # one input pair: the four atoms are singletons of a four-point space
    assert len(single_pair_logic.elements) == 16
    assert bl.is_boolean(single_pair_logic) is True


def test_closure_of_nothing_is_bounds_only():
    assert _close_family(4, [], cap=100) == {0, 0b1111}


def test_closure_idempotent(chsh_logic):
    again = _close_family(chsh_logic.ground_size, chsh_logic.elements, cap=10**6)
    assert again == set(chsh_logic.elements)


def test_closure_independent_of_seed_order():
    g = bl.build_gamma(CHSH)
    atoms = [bl.make_atom(g, aid) for aid in bl.all_atom_ids(CHSH)]
    reference = _close_family(g.gamma_size, atoms, cap=10**6)
    for seed in (1, 2, 3):
        shuffled = atoms[:]
        random.Random(seed).shuffle(shuffled)
        assert _close_family(g.gamma_size, shuffled, cap=10**6) == reference


def test_closure_budget():
    with pytest.raises(bl.ClosureBudgetExceeded):
        bl.close_logic(CHSH, closure_cap=10)


def _seed_families(kind, ground):
    """Five seeded seed families of one kind over ``ground`` points."""
    rng = random.Random(f"{kind}-{ground}")
    for _ in range(5):
        masks = [rng.randrange(1, 1 << ground) for _ in range(rng.randint(1, 3))]
        if kind == "empty":
            yield []
        elif kind == "nested":  # a chain m1 <= m1|m2 <= m1|m2|m3
            yield list(itertools.accumulate(masks, operator.or_))
        elif kind == "overlapping":  # every seed holds one shared point
            point = 1 << rng.randrange(ground)
            yield [m | point for m in masks]
        else:
            yield masks


@pytest.mark.parametrize("kind", ["empty", "nested", "overlapping", "random"])
@pytest.mark.parametrize("ground", range(1, 8))
def test_closure_matches_naive_closure_on_seed_families(kind, ground):
    for seeds in _seed_families(kind, ground):
        assert _close_family(ground, seeds, cap=10**6) == oracles.naive_closure(ground, seeds)


def _record_certificates(monkeypatch) -> list:
    """Each minimal-member list the closure computes, in call order."""
    certificates = []
    minimal_nonzero = logic_module._minimal_nonzero

    def recorder(family):
        certificates.append(minimal_nonzero(family))
        return certificates[-1]

    monkeypatch.setattr(logic_module, "_minimal_nonzero", recorder)
    return certificates


@pytest.mark.parametrize(
    "seeds, grown",
    [([], [0b1111]), ([0b0011, 0b0110], [0b1001, 0b1100])],
    ids=["no_seeds", "overlapping_pair"],
)
def test_closure_grows_its_step_set(monkeypatch, seeds, grown):
    certificates = _record_certificates(monkeypatch)
    assert _close_family(4, seeds, cap=100) == oracles.naive_closure(4, seeds)
    # the first fixed point has a member with no step, so the minimal members
    # are looked up once; with them added, every member but the full set has one
    assert len(certificates) == 1
    assert sorted(set(certificates[0]) - set(seeds)) == grown


@pytest.mark.parametrize("spec", [CHSH, THREE_INPUT], ids=["chsh", "three_input"])
def test_closure_of_scenario_atoms_walks_once(monkeypatch, spec):
    g = bl.build_gamma(spec)
    atoms = [bl.make_atom(g, aid) for aid in bl.all_atom_ids(spec)]
    certificates = _record_certificates(monkeypatch)
    closed = _close_family(g.gamma_size, atoms, cap=10**6)
    # every member but the full set has an atom step: no minimal-member sweep
    assert certificates == []
    assert sorted(oracles.naive_minimal_nonzero(closed)) == sorted(atoms)


@pytest.mark.parametrize(
    "spec",
    [TWO_BY_THREE, bl.BoxWorldSpec.from_sizes([3, 3], [3, 3, 3])],
    ids=["3x3", "3x3_by_3x3x3"],
)
def test_larger_closures_match_the_disjoint_union_family(spec):
    logic = bl.close_logic(spec)
    elements = set(logic.elements)
    assert elements == oracles.family_closure(logic.ground_size, logic.atom_bits)
    assert {e ^ logic.full_mask for e in elements} == elements


def test_canonical_table_order(chsh_logic):
    elems = chsh_logic.elements
    assert elems[0] == 0
    assert elems[1] == chsh_logic.full_mask
    rest = list(elems[2:])
    assert rest == sorted(rest, key=lambda e: (e.bit_count(), e))


def test_index_of_rejects_foreign_bits(chsh_logic):
    with pytest.raises(bl.ForeignElementError):
        chsh_logic.index_of(0b1)  # single points are not elements here


# -- meets and joins ---------------------------------------------------------


def test_meet_join_cross_input_localized(chsh_logic):
    p = localized_index(chsh_logic, Side.LEFT, 0, (0,))
    q = localized_index(chsh_logic, Side.LEFT, 1, (0,))
    assert chsh_logic.meet(p, q) == chsh_logic.index_of(0)
    assert chsh_logic.join(p, q) == chsh_logic.index_of(chsh_logic.full_mask)


def test_meet_nested_localized(chsh_logic):
    big = localized_index(chsh_logic, Side.LEFT, 0, (0, 1))
    small = localized_index(chsh_logic, Side.LEFT, 0, (0,))
    assert chsh_logic.meet(big, small) == small


def test_join_can_be_missing(chsh_logic):
    p = chsh_logic.atom_element(AtomId(0, 0, 0, 0))
    q = chsh_logic.atom_element(AtomId(1, 0, 1, 0))
    assert chsh_logic.meet(p, q) == chsh_logic.index_of(0)
    assert chsh_logic.join(p, q) is None
    assert bl.is_lattice(chsh_logic) is False


def test_meet_join_match_brute_force(chsh_logic):
    rng = random.Random(11)
    n = len(chsh_logic.elements)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(150)]
    for i, j in pairs:
        assert chsh_logic.meet(i, j) == oracles.brute_meet(chsh_logic, i, j)
        assert chsh_logic.join(i, j) == oracles.brute_join(chsh_logic, i, j)


def test_even_set_missing_join_example():
    logic = bl.even_set_logic(3)
    p = logic.index_of(0b011)  # {0, 1}
    q = logic.index_of(0b101)  # {0, 2}
    assert logic.join(p, q) is None
    assert oracles.brute_join(logic, p, q) is None


def test_even_set_meet_join_match_brute_force_everywhere():
    logic = bl.even_set_logic(2)
    n = len(logic.elements)
    for i in range(n):
        for j in range(n):
            assert logic.meet(i, j) == oracles.brute_meet(logic, i, j)
            assert logic.join(i, j) == oracles.brute_join(logic, i, j)


MASK_TABLES = {
    "2x2": lambda: bl.close_logic(SINGLE_PAIR),
    "chsh": lambda: bl.close_logic(CHSH),
    "2x22": lambda: bl.close_logic(bl.BoxWorldSpec.from_sizes([2], [2, 2])),
    "3x2": lambda: bl.close_logic(bl.BoxWorldSpec.from_sizes([3], [2])),
    "even2": lambda: bl.even_set_logic(2),
    "even3": lambda: bl.even_set_logic(3),
    # complemented, with {0, 1} not the union of the atoms {0} and {2, 3} inside it
    "not_atomistic": lambda: bl.ConcreteLogic(4, [0, 0b1111, 0b0001, 0b1110, 0b0011, 0b1100]),
    # atomistic, with no complement of {0}
    "not_complemented": lambda: bl.ConcreteLogic(3, [0, 0b001, 0b010, 0b100, 0b011, 0b111]),
}


@pytest.mark.parametrize("name", sorted(MASK_TABLES))
def test_mask_table_meets_and_joins_match_brute_force(name):
    logic = MASK_TABLES[name]()
    n = len(logic.elements)
    assert logic.atomistic() is (name != "not_atomistic")
    assert logic.complemented is (name != "not_complemented")
    bounded = True
    for i in range(n):
        for j in range(n):
            meet, join = oracles.brute_meet(logic, i, j), oracles.brute_join(logic, i, j)
            assert (logic.meet(i, j), logic.join(i, j)) == (meet, join)
            bounded = bounded and None not in (meet, join)
    if logic.complemented:
        assert bl.is_lattice(logic) is bounded


@pytest.mark.parametrize("left, right", [([3, 3], [3]), ([3], [3, 3])])
def test_lattice_shapes_with_one_input_on_a_side(left, right):
    # every pair of the 2,744 elements has a meet: the full scan runs to the end
    logic = bl.close_logic(bl.BoxWorldSpec.from_sizes(left, right))
    assert len(logic.elements) == 2744
    assert bl.is_lattice(logic) is True


# -- decompositions ----------------------------------------------------------


def test_atom_has_single_decomposition(chsh_logic):
    idx = chsh_logic.atom_element(AtomId(0, 0, 0, 0))
    decs = chsh_logic.all_decompositions(idx)
    assert decs == ((chsh_logic.atom_indices.index(idx),),)


def test_localized_has_two_decompositions(chsh_logic):
    idx = localized_index(chsh_logic, Side.LEFT, 0, (0,))
    decs = chsh_logic.all_decompositions(idx)
    assert len(decs) == 2  # one per right-box input
    expected = oracles.count_partitions(
        chsh_logic.elements[idx], chsh_logic.atom_bits
    )
    assert len(decs) == expected


def test_full_set_decomposition_count(chsh_logic):
    idx = chsh_logic.index_of(chsh_logic.full_mask)
    decs = chsh_logic.all_decompositions(idx)
    assert len(decs) >= 2 * 2  # at least one partition per input pair
    assert len(decs) == oracles.count_partitions(
        chsh_logic.full_mask, chsh_logic.atom_bits
    )
    assert len(decs) == 12  # recorded from the partition-counting oracle


def test_decompositions_reproduce_elements(chsh_logic):
    for i in range(len(chsh_logic.elements)):
        for dec in chsh_logic.all_decompositions(i):
            union = 0
            for pos in dec:
                bits = chsh_logic.atom_bits[pos]
                assert union & bits == 0
                union |= bits
            assert union == chsh_logic.elements[i]


def test_empty_element_has_no_decompositions(chsh_logic):
    assert chsh_logic.all_decompositions(chsh_logic.index_of(0)) == ()
    assert chsh_logic.decomposition(chsh_logic.index_of(0)) == ()


def test_canonical_decomposition_is_least(chsh_logic):
    for i in range(len(chsh_logic.elements)):
        decs = chsh_logic.all_decompositions(i)
        if decs:
            assert chsh_logic.decomposition(i) == min(decs)


# -- classification above an atom ---------------------------------------------


def test_classify_atom_itself(chsh_logic):
    idx = chsh_logic.atom_element(AtomId(0, 0, 0, 0))
    cls = bl.classify_above_atom(chsh_logic, idx, idx)
    assert cls.kind is OrderKind.ATOM_PLUS_REST
    assert chsh_logic.elements[cls.remainder_index] == 0
    assert cls.reconstruct(chsh_logic) == chsh_logic.elements[idx]


def test_classify_top(chsh_logic):
    idx = chsh_logic.atom_element(AtomId(0, 0, 0, 0))
    top = chsh_logic.index_of(chsh_logic.full_mask)
    assert bl.classify_above_atom(chsh_logic, idx, top).kind is OrderKind.TOP


def test_classify_left_localized_with_empty_remainder(chsh_logic):
    atom = chsh_logic.atom_element(AtomId(0, 0, 0, 0))
    q = localized_index(chsh_logic, Side.LEFT, 0, (0,))
    cls = bl.classify_above_atom(chsh_logic, atom, q)
    assert cls.kind is OrderKind.LEFT_LOCALIZED
    assert chsh_logic.elements[cls.remainder_index] == 0
    assert cls.reconstruct(chsh_logic) == chsh_logic.elements[q]


def test_classify_right_localized(chsh_logic):
    atom = chsh_logic.atom_element(AtomId(0, 0, 0, 0))
    q = localized_index(chsh_logic, Side.RIGHT, 0, (0,))
    cls = bl.classify_above_atom(chsh_logic, atom, q)
    assert cls.kind is OrderKind.RIGHT_LOCALIZED


def test_classify_prefers_left_on_ties(chsh_logic):
    # above the complement of a disjoint atom both one-box pieces fit
    atom = chsh_logic.atom_element(AtomId(0, 0, 0, 0))
    other = chsh_logic.atom_element(AtomId(0, 1, 0, 1))
    q = chsh_logic.complement_map[other]
    cls = bl.classify_above_atom(chsh_logic, atom, q)
    assert cls.kind is OrderKind.LEFT_LOCALIZED
    assert cls.reconstruct(chsh_logic) == chsh_logic.elements[q]


def test_classify_not_above(chsh_logic):
    atom = chsh_logic.atom_element(AtomId(0, 0, 0, 0))
    disjoint = chsh_logic.atom_element(AtomId(0, 1, 0, 0))
    with pytest.raises(bl.NotAboveError):
        bl.classify_above_atom(chsh_logic, atom, disjoint)


def test_classify_requires_atom(chsh_logic):
    q = chsh_logic.index_of(chsh_logic.full_mask)
    with pytest.raises(bl.ForeignElementError):
        bl.classify_above_atom(chsh_logic, q, q)


def test_classification_exhaustive_chsh(chsh_logic):
    result, counts = bl.verify_order_classification(chsh_logic)
    assert result.passed
    assert sum(counts.values()) == result.checked
    assert counts[OrderKind.TOP.value] == len(chsh_logic.atom_indices)


# -- even-set family -----------------------------------------------------------


@pytest.mark.parametrize("k,expected", [(1, 2), (2, 8), (3, 32), (4, 128)])
def test_even_set_counts(k, expected):
    assert len(bl.even_set_logic(k).elements) == expected  # 2^(2k-1)


def test_even_set_k1_boolean():
    logic = bl.even_set_logic(1)
    assert bl.is_boolean(logic) is True
    assert bl.verify_axioms(logic).all_passed


def test_even_set_k2_orthomodular_lattice_not_boolean():
    logic = bl.even_set_logic(2)
    assert bl.verify_axioms(logic).all_passed
    assert bl.is_lattice(logic) is True
    assert bl.is_boolean(logic) is False


def test_even_set_k3_quantum_logic_not_lattice():
    logic = bl.even_set_logic(3)
    assert bl.verify_axioms(logic).all_passed
    assert bl.is_lattice(logic) is False


def test_even_set_cap():
    with pytest.raises(bl.ClosureBudgetExceeded):
        bl.even_set_logic(7)
    with pytest.raises(bl.ScenarioError):
        bl.even_set_logic(0)


def test_even_set_equals_closure_of_pairs():
    for k in (1, 2, 3):
        logic = bl.even_set_logic(k)
        pairs = [
            (1 << i) | (1 << j)
            for i in range(2 * k)
            for j in range(i + 1, 2 * k)
        ]
        assert set(logic.elements) == _close_family(2 * k, pairs, cap=10**6)


# -- axiom verification ---------------------------------------------------------


def test_axioms_pass_chsh(chsh_logic):
    report = bl.verify_axioms(chsh_logic)
    assert report.all_passed, report.to_dict()
    assert set(report.results) == {"L1", "L2", "L3", "L4", "L5", "C1", "C2", "C3"}


def test_orthomodular_law_brute_force(chsh_logic):
    assert oracles.orthomodular_law_holds(chsh_logic)


def test_missing_complement_detected():
    # drop one element from a power set: its complement is now unmatched
    elements = [e for e in range(16) if e != 0b0111]
    mutant = bl.ConcreteLogic(4, elements)
    report = bl.verify_axioms(mutant)
    assert not report.results["C2"].passed
    assert not report.all_passed


def test_missing_disjoint_union_detected():
    # drop a two-point set: its singletons no longer have a union
    elements = [e for e in range(16) if e != 0b0011]
    mutant = bl.ConcreteLogic(4, elements)
    report = bl.verify_axioms(mutant)
    assert not report.results["C3"].passed
    assert not report.results["L4"].passed


def test_orthomodularity_failure_detected():
    # {0, full, one atom}: the complement of the atom is missing
    mutant = bl.ConcreteLogic(4, [0, 0b1111, 0b0001])
    report = bl.verify_axioms(mutant)
    assert not report.all_passed


def test_de_morgan_exhaustive_chsh(chsh_logic):
    n = len(chsh_logic.elements)
    comp = chsh_logic.complement_map
    for i in range(n):
        for j in range(n):
            join = chsh_logic.join(i, j)
            meet_of_comps = chsh_logic.meet(comp[i], comp[j])
            if join is None:
                assert meet_of_comps is None
            else:
                assert meet_of_comps == comp[join]


def test_de_morgan_exhaustive_even_set():
    logic = bl.even_set_logic(3)
    comp = logic.complement_map
    n = len(logic.elements)
    for i in range(n):
        for j in range(n):
            meet = logic.meet(i, j)
            join_of_comps = logic.join(comp[i], comp[j])
            if meet is None:
                assert join_of_comps is None
            else:
                assert join_of_comps == comp[meet]


def test_atomic_coverage_chsh(chsh_logic):
    result = bl.verify_atomic_coverage(chsh_logic)
    assert result.passed
    assert result.checked == len(chsh_logic.elements) - 1


def test_disjoint_union_converse_reported(chsh_logic):
    info = bl.disjoint_atom_union_report(chsh_logic)
    assert info["holds"] is True
    assert info["distinct_unions"] == len(chsh_logic.elements)


# -- exports --------------------------------------------------------------------


def test_logic_json_round_trip_bits(chsh_logic):
    from boxlogic.io import logic_to_dict

    data = logic_to_dict(chsh_logic)
    decoded = [int(h, 16) for h in data["elements"]]
    assert decoded == list(chsh_logic.elements)
    for i, c in enumerate(data["complement"]):
        assert decoded[c] == decoded[i] ^ chsh_logic.full_mask
    assert data["atoms"] == list(chsh_logic.atom_indices)


def test_hypercube_covers(single_pair_logic):
    # the sixteen-element power set is a 4-cube: 4 * 2^3 cover edges
    edges = single_pair_logic.covers()
    assert len(edges) == 32
    for i, j in edges:
        assert single_pair_logic.leq(i, j)
        diff = single_pair_logic.elements[j] & ~single_pair_logic.elements[i]
        assert diff.bit_count() == 1


def test_dot_export_mentions_every_element(chsh_logic):
    from boxlogic.io import logic_to_dot

    dot = logic_to_dot(chsh_logic)
    assert dot.count("->") == len(chsh_logic.covers())
    assert f"n{len(chsh_logic.elements) - 1}" in dot


# -- order kernel against naive scans ----------------------------------------------


def test_closure_cap_boundary():
    # the closure raises on the insertion that passes the cap, never later
    for spec, size in ((CHSH, 82), (THREE_INPUT, 248)):
        g = bl.build_gamma(spec)
        atoms = [bl.make_atom(g, aid) for aid in bl.all_atom_ids(spec)]
        with pytest.raises(bl.ClosureBudgetExceeded):
            _close_family(g.gamma_size, atoms, cap=size - 1)
        assert len(_close_family(g.gamma_size, atoms, cap=size)) == size


def _kernel_case(name):
    """(ground size, closure seeds, table); the seeds are None for a table the
    step walk refuses."""
    if name == "even_set_3":
        pairs = [(1 << i) | (1 << j) for i in range(6) for j in range(i + 1, 6)]
        return 6, pairs, bl.even_set_logic(3)
    if name == "power_set_4":
        return 4, [1, 2, 4, 8], bl.ConcreteLogic(4, range(16))
    if name == "empty_ground":  # one element, both the empty and the full set
        return 0, [], bl.ConcreteLogic(0, [0])
    if name == "chsh_one_removed":
        # the complement of the dropped element has none
        logic = bl.close_logic(CHSH)
        kept = [e for e in logic.elements if e != logic.elements[-1]]
        return logic.ground_size, None, bl.Logic(logic.gamma, logic.atom_ids, kept)
    spec = {
        "single_pair": SINGLE_PAIR,
        "chsh": CHSH,
        "three_input": THREE_INPUT,
        # atoms of two sizes: one element's step uppers sit in different popcount layers
        "two_three_by_three": bl.BoxWorldSpec.from_sizes([2, 3], [3]),
        "three_two_by_two_two": bl.BoxWorldSpec.from_sizes([3, 2], [2, 2]),
    }[name]
    g = bl.build_gamma(spec)
    atoms = [bl.make_atom(g, aid) for aid in bl.all_atom_ids(spec)]
    return g.gamma_size, atoms, bl.close_logic(spec)


@pytest.mark.parametrize(
    "name",
    [
        "single_pair", "chsh", "three_input", "even_set_3", "two_three_by_three",
        "three_two_by_two_two", "power_set_4", "empty_ground", "chsh_one_removed",
    ],
)
def test_kernel_matches_naive_scans(name):
    ground, seeds, logic = _kernel_case(name)
    elements = list(logic.elements)
    if seeds is None:
        assert not logic._certified()
    else:
        closure = oracles.naive_closure(ground, seeds)
        assert _close_family(ground, seeds, cap=10**6) == closure == set(elements)
        assert logic.covers() == oracles.naive_covers(elements)
    comparable = oracles.naive_comparable_pairs(elements)
    assert logic.comparable_count() == len(comparable)
    assert list(logic.comparable_pairs()) == comparable
    above = [0] * len(elements)
    for i, j in comparable:
        above[i] |= 1 << j
    assert [logic.containing(e) for e in elements] == above
    holding = [sum(1 << i for i, e in enumerate(elements) if e >> x & 1) for x in range(ground)]
    assert [logic.containing(1 << x) for x in range(ground)] == holding
    assert list(logic.disjoint_pairs()) == oracles.naive_disjoint_pairs(elements)


# -- atoms and atom steps ---------------------------------------------------------


def _table_case(name):
    if name.startswith("even_set_"):
        return bl.even_set_logic(int(name[-1]))
    if name == "power_set_4":
        return bl.ConcreteLogic(4, range(16))
    side = {"chsh_left_box": Side.LEFT, "chsh_right_box": Side.RIGHT}[name]
    return bl.single_box_logic(bl.build_gamma(CHSH), side)[0]


TABLES = [
    "even_set_1", "even_set_2", "even_set_3", "power_set_4", "chsh_left_box", "chsh_right_box"
]


@pytest.mark.parametrize("name", TABLES)
def test_atoms_are_the_minimal_nonzero_elements(name):
    logic = _table_case(name)
    assert sorted(logic.atom_bits) == sorted(oracles.naive_minimal_nonzero(logic.elements))
    if len(logic.elements) > 2:
        full = logic.index_of(logic.full_mask)
        assert not logic.is_atom(full)
        assert len(logic.decomposition(full)) > 1


def test_atom_counts():
    assert [len(bl.even_set_logic(k).atom_bits) for k in (1, 2, 3)] == [1, 6, 15]
    assert bl.ConcreteLogic(4, range(16)).atom_bits == (1, 2, 4, 8)


@pytest.mark.parametrize("name", TABLES)
def test_covers_match_naive_covers(name):
    logic = _table_case(name)
    assert logic.covers() == oracles.naive_covers(logic.elements)


@pytest.mark.parametrize(
    "ground, elements, atom_bits, message",
    [
        # 0111 is dropped, so 1000 (index 5) has no complement
        (4, [e for e in range(16) if e != 0b0111], None, "element 5 has no complement"),
        # complement-closed, but 0001 (index 2) | 1100 (index 4) is missing
        (4, [0, 0b0001, 0b1110, 0b0011, 0b1100, 0b1111], None, "element 2 and atom 4 have no"),
        # the atom given, the full set (index 1), is not minimal
        (2, range(4), [0b11], "element 1 is either an atom or minimal nonzero"),
        # the empty set (index 0) given as an atom
        (3, range(8), [0, 0b001, 0b010, 0b100], "element 0 is either an atom or minimal nonzero"),
        # nested atoms: 011 (index 5) contains the atom 001
        (3, range(8), [0b001, 0b010, 0b100, 0b011], "element 5 is either an atom or minimal nonzero"),
        # 0011 is not minimal, and neither 0001 (index 2) nor 0010 is an atom
        (4, range(16), [0b0011, 0b0100, 0b1000], "element 2 is either an atom or minimal nonzero"),
        # the minimal 100 (index 4) is not an atom, so 011 has no step
        (3, range(8), [0b001, 0b010], "element 4 is either an atom or minimal nonzero"),
        # the walk meets the missing 0001 | 1010 first, but the minimal 0001
        # (index 2) is no atom, and the atoms are reported first
        (4, [0, 0b0001, 0b0101, 0b1010, 0b1110, 0b1111], [0b1010], "element 2 is either an atom"),
    ],
)
def test_covers_refuse_a_table_that_is_not_closed(ground, elements, atom_bits, message):
    logic = bl.ConcreteLogic(ground, elements, atom_bits=atom_bits)
    assert message in oracles.naive_step_refusal(logic)
    with pytest.raises(bl.TheoremViolation, match=message):
        logic.covers()
    assert not logic._certified()


def test_step_walk_refuses_as_the_naive_checks_do():
    """Seeded small tables, complement-closed or not, with the minimal
    nonzero elements or random members as atoms: ``covers()`` raises the
    message of the first failing check in the order complements, atoms,
    unions, or else gives the naive covers."""
    rng = random.Random(14)
    outcomes = collections.Counter()
    for _ in range(1500):
        ground = rng.choice([2, 3, 4])
        full = (1 << ground) - 1
        elements = set(rng.sample(range(full + 1), rng.randint(1, full + 1)))
        if rng.random() < 0.8:
            elements |= {e ^ full for e in elements}
        atom_bits = None
        if rng.random() < 0.6:
            atom_bits = rng.sample(sorted(elements), rng.randint(1, min(5, len(elements))))
        logic = bl.ConcreteLogic(ground, elements, atom_bits=atom_bits)
        expected = oracles.naive_step_refusal(logic)
        if expected is None:
            assert logic.covers() == oracles.naive_covers(logic.elements)
        else:
            # the walk's refusal is kept: a second call raises it again
            for _ in range(2):
                with pytest.raises(bl.TheoremViolation) as refused:
                    logic.covers()
                assert str(refused.value) == expected
        assert logic._certified() == (expected is None and 0 in logic.index)
        outcomes[(expected or "passes").split()[-1]] += 1
    # every kind of refusal, and passing tables, are drawn
    assert set(outcomes) == {"passes", "table", "both"} and min(outcomes.values()) > 100


@pytest.mark.parametrize("scenario", ["chsh", "three_input"])
def test_step_table_is_in_walk_order(request, scenario):
    """Every reader sees the steps in (lower, upper) order, the order the
    state kernel reads them in, with the atom upper - lower."""
    logic = request.getfixturevalue(f"{scenario}_logic")
    expect = [(i, logic.atom_indices[pos], u) for i, pos, u in oracles.atom_steps(logic)]
    assert expect == sorted(expect, key=lambda step: (step[0], step[2]))
    assert bl.states._steps(logic) == expect
    edges = logic.covers()
    assert edges == [(i, u) for i, _, u in expect]
    # the list is the caller's own
    edges.clear()
    assert logic.covers() == [(i, u) for i, _, u in expect]
