import functools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import boxlogic as bl
from boxlogic import AtomId, LocalizedSpec, Side
from boxlogic.io import pr_state_from_dict

import oracles
from conftest import CHSH, THREE_INPUT
from test_structural_checks import _point_added, _random_removal


def loc_index(logic, side, input_index, outcomes):
    bits = bl.make_localized(logic.gamma, LocalizedSpec(side, input_index, outcomes))
    return logic.index_of(bits)


def pr_box(spec):
    return bl.PRState.from_function(
        spec,
        lambda a, b, alpha, beta: Fraction(1, 2)
        if (alpha ^ beta) == a * b
        else Fraction(0),
    )


# -- table validation -----------------------------------------------------------


def test_uniform_table_valid():
    assert bl.validate_pr_state(bl.PRState.uniform(CHSH)) == []


def test_pr_box_valid():
    assert bl.validate_pr_state(pr_box(CHSH)) == []


def test_bumped_table_breaks_marginals_only():
    base = pr_box(CHSH)

    def fn(a, b, alpha, beta):
        v = base.value(a, b, alpha, beta)
        if (a, b) == (1, 1) and (alpha, beta) == (0, 0):
            return v + Fraction(1, 4)
        if (a, b) == (1, 1) and (alpha, beta) == (0, 1):
            return v - Fraction(1, 4)
        return v

    bumped = bl.PRState.from_function(CHSH, fn)
    violations = bl.validate_pr_state(bumped)
    kinds = {v.kind for v in violations}
    assert "normalization" not in kinds
    assert kinds <= {
        "right_marginal_depends_on_left_input",
        "left_marginal_depends_on_right_input",
    }
    assert violations


def test_negative_entry_detected():
    def fn(a, b, alpha, beta):
        if (a, b, alpha, beta) == (0, 0, 0, 0):
            return Fraction(-1, 4)
        if (a, b, alpha, beta) == (0, 0, 0, 1):
            return Fraction(3, 4)
        return Fraction(1, 4)

    violations = bl.validate_pr_state(bl.PRState.from_function(CHSH, fn))
    assert any(v.kind == "negative" for v in violations)


def test_missing_entries_rejected():
    with pytest.raises(bl.StateError):
        bl.PRState.from_nested(CHSH, [[[[1]]]])


def test_floats_rejected():
    with pytest.raises(bl.StateError):
        bl.PRState.from_function(CHSH, lambda a, b, alpha, beta: 0.25)


def test_booleans_rejected():
    # Fraction(True) == 1, so a JSON true would otherwise read as probability 1
    single = bl.BoxWorldSpec.from_sizes([2], [2])
    with pytest.raises(bl.StateError, match="bool True rejected"):
        pr_state_from_dict(single, {"0,0": [[True, False], [False, False]]})
    with pytest.raises(bl.StateError, match="bool"):
        bl.convex_combination([bl.PRState.uniform(CHSH)], [True])


# -- states from tables ------------------------------------------------------------


def test_bounds_for_every_valid_table(chsh_logic):
    for pr in (bl.PRState.uniform(CHSH), pr_box(CHSH)):
        rho = bl.state_from_pr(chsh_logic, pr)
        assert rho.value(chsh_logic.index_of(0)) == 0
        assert rho.value(chsh_logic.index_of(chsh_logic.full_mask)) == 1


def test_uniform_state_on_localized(chsh_logic):
    rho = bl.state_from_pr(chsh_logic, bl.PRState.uniform(CHSH))
    idx = loc_index(chsh_logic, Side.LEFT, 0, (0,))
    assert rho.value(idx) == Fraction(1, 2)
    # both partitions of the element give the value
    for dec in chsh_logic.all_decompositions(idx):
        total = sum(
            (rho.value(chsh_logic.index_of(chsh_logic.atom_bits[pos])) for pos in dec),
            Fraction(0),
        )
        assert total == Fraction(1, 2)


def test_pr_box_state_atom_values(chsh_logic):
    rho = bl.state_from_pr(chsh_logic, pr_box(CHSH))
    assert rho.value(chsh_logic.atom_element(AtomId(0, 0, 0, 0))) == Fraction(1, 2)
    assert rho.value(chsh_logic.atom_element(AtomId(0, 0, 1, 1))) == 0


def signalling_table(spec):
    # all weight on one outcome pair for input pair (0,0), uniform elsewhere
    def fn(a, b, alpha, beta):
        if (a, b) == (0, 0):
            return Fraction(1) if (alpha, beta) == (0, 0) else Fraction(0)
        return Fraction(1, 4)

    return bl.PRState.from_function(spec, fn)


def test_signalling_table_breaks_well_definedness(chsh_logic):
    signalling = signalling_table(CHSH)
    assert bl.validate_pr_state(signalling)
    with pytest.raises(bl.WellDefinednessViolation):
        bl.state_from_pr(chsh_logic, signalling, validate=False)


def test_invalid_table_rejected_up_front(chsh_logic):
    zero = bl.PRState.from_function(CHSH, lambda a, b, alpha, beta: Fraction(0))
    with pytest.raises(bl.StateError):
        bl.state_from_pr(chsh_logic, zero)


def test_one_box_values_are_partition_independent(chsh_logic, chsh_vertex_states):
    # marginal consistency is exactly partition independence for one-box
    # propositions; assert it explicitly on every vertex state
    for pr in chsh_vertex_states:
        rho = bl.state_from_pr(chsh_logic, pr)
        for side in (Side.LEFT, Side.RIGHT):
            for inp in range(2):
                for outcome in range(2):
                    idx = loc_index(chsh_logic, side, inp, (outcome,))
                    values = set()
                    for dec in chsh_logic.all_decompositions(idx):
                        values.add(
                            sum(
                                (
                                    rho.value(
                                        chsh_logic.index_of(chsh_logic.atom_bits[pos])
                                    )
                                    for pos in dec
                                ),
                                Fraction(0),
                            )
                        )
                    assert len(values) == 1


# -- round trips ----------------------------------------------------------------


def test_round_trip_uniform(chsh_logic):
    pr = bl.PRState.uniform(CHSH)
    rho = bl.state_from_pr(chsh_logic, pr)
    assert bl.pr_from_state(rho).table == pr.table
    assert bl.state_from_pr(chsh_logic, bl.pr_from_state(rho)) == rho


def test_round_trip_all_vertices(chsh_logic, chsh_vertex_states):
    for pr in chsh_vertex_states:
        rho = bl.state_from_pr(chsh_logic, pr)
        back = bl.pr_from_state(rho)
        assert back.table == pr.table
        assert bl.state_from_pr(chsh_logic, back) == rho


def test_round_trip_seeded_mixtures(chsh_logic, chsh_vertex_states):
    for pr in bl.sample_pr_states(chsh_vertex_states, 50, seed=2024):
        assert bl.validate_pr_state(pr) == []
        rho = bl.state_from_pr(chsh_logic, pr)
        assert bl.pr_from_state(rho).table == pr.table


def test_verify_scenario_reports_an_invalid_table(chsh_logic, invalid_first_vertex):
    # a table verify built itself that fails validation is a failed claim
    report = bl.verify_scenario(CHSH, sample_count=10, logic=chsh_logic)
    section = report["state_correspondence"]
    assert section["all_tables_valid"] is False
    assert report["all_passed"] is False
    assert section["vertex_states"] == 24
    assert section["round_trip_failures"] == 0
    # the invalid row is left out of the state checks
    pairs = len(list(chsh_logic.comparable_pairs()))
    assert section["monotonicity"] == {"ok": True, "checked": 23 * pairs}
    assert section["order_determining"]["states_used"] == 23


def test_sampling_is_deterministic(chsh_vertex_states):
    first = bl.sample_pr_states(chsh_vertex_states, 10, seed=99)
    second = bl.sample_pr_states(chsh_vertex_states, 10, seed=99)
    assert [s.table for s in first] == [s.table for s in second]
    third = bl.sample_pr_states(chsh_vertex_states, 10, seed=100)
    assert [s.table for s in third] != [s.table for s in first]


def test_non_additive_state_rejected(chsh_logic):
    rho = bl.state_from_pr(chsh_logic, bl.PRState.uniform(CHSH))
    nums = list(rho.numerators)
    atom = chsh_logic.atom_element(AtomId(0, 0, 0, 0))
    nums[atom] *= 2
    broken = bl.LogicState(chsh_logic, rho.denominator, nums)
    assert not bl.verify_state_additivity(broken)
    with pytest.raises(bl.StateError, match="not additive") as err:
        bl.pr_from_state(broken)
    # the triple the error names is disjoint, and its values really fail to add
    named = re.search(r"elements (\d+) and (\d+) are disjoint with union (\d+)", str(err.value))
    i, j, u = map(int, named.groups())
    elements = chsh_logic.elements
    assert elements[i] & elements[j] == 0 and elements[i] | elements[j] == elements[u]
    assert broken.value(i) + broken.value(j) != broken.value(u)


# -- object dtype, taken when denominators pass the int64 bound -------------------


def past_int64_mixture(spec):
    """A valid table whose entries share a denominator of 4 * 3**40 > 2**62."""
    w = Fraction(1, 3**40)
    return bl.convex_combination([pr_box(spec), bl.PRState.uniform(spec)], [w, 1 - w])


def test_state_from_pr_past_int64_matches_fraction_sums(chsh_logic):
    pr = past_int64_mixture(CHSH)
    rho = bl.state_from_pr(chsh_logic, pr)
    assert rho.denominator > 2**62
    assert rho.numerators.dtype == object
    for i in range(len(chsh_logic.elements)):
        for dec in chsh_logic.all_decompositions(i):
            atoms = (pr.atom_value(chsh_logic.atom_ids[pos]) for pos in dec)
            assert rho.value(i) == sum(atoms, Fraction(0))
    assert bl.pr_from_state(rho).table == pr.table


def signalling_past_int64(spec):
    base = past_int64_mixture(spec)
    shift = Fraction(1, 3**41)

    def fn(a, b, alpha, beta):
        # moves weight between left outcomes for input pair (0, 0) only
        v = base.value(a, b, alpha, beta)
        if (a, b, beta) == (0, 0, 0):
            return v + shift if alpha == 0 else v - shift
        return v

    return bl.PRState.from_function(spec, fn)


def test_signalling_table_past_int64_breaks_well_definedness(chsh_logic):
    signalling = signalling_past_int64(CHSH)
    assert bl.validate_pr_state(signalling)
    with pytest.raises(bl.WellDefinednessViolation):
        bl.state_from_pr(chsh_logic, signalling, validate=False)


def test_additivity_scan_past_int64(chsh_logic):
    rho = bl.state_from_pr(chsh_logic, past_int64_mixture(CHSH))
    unchecked = bl.LogicState(chsh_logic, rho.denominator, rho.numerators)
    assert unchecked.numerators.dtype == object
    assert bl.verify_state_additivity(unchecked)
    nums = list(rho.numerators)
    nums[chsh_logic.atom_element(AtomId(0, 0, 0, 0))] += 1
    broken = bl.LogicState(chsh_logic, rho.denominator, nums)
    assert broken.numerators.dtype == object
    assert not bl.verify_state_additivity(broken)


def test_monotonicity_scan_past_int64(chsh_logic):
    rho = bl.state_from_pr(chsh_logic, past_int64_mixture(CHSH))
    assert rho.numerators.dtype == object
    pairs = len(list(chsh_logic.comparable_pairs()))
    assert bl.verify_state_monotonicity(chsh_logic, [rho, rho]) == (True, 2 * pairs)
    nums = list(rho.numerators)
    nums[chsh_logic.index_of(chsh_logic.full_mask)] = 0
    broken = bl.LogicState(chsh_logic, rho.denominator, nums)
    assert broken.numerators.dtype == object
    assert bl.verify_state_monotonicity(chsh_logic, [rho, broken]) == (False, pairs)


# -- the batch kernel against the per-table oracle ----------------------------------


def table_row(logic, pr):
    """A table as integers over its lcm denominator, in atom order."""
    entries = [pr.atom_value(aid) for aid in logic.atom_ids]
    den = math.lcm(*(f.denominator for f in entries))
    return [f.numerator * (den // f.denominator) for f in entries], den


def invalid_tables(spec):
    """A zero table, a non-signalling one with negative entries, two signalling ones."""

    def negative(a, b, alpha, beta):
        # uniform, with a marginal-free shift that leaves two entries at -1/4
        if (a, b) == (0, 0):
            return Fraction(-1, 4) if alpha == beta else Fraction(3, 4)
        return Fraction(1, 4)

    return [
        bl.PRState.from_function(spec, lambda a, b, alpha, beta: Fraction(0)),
        bl.PRState.from_function(spec, negative),
        signalling_table(spec),
        signalling_past_int64(spec),
    ]


def assert_kernel_matches_oracle(logic, rows, dens, prs):
    partitions = oracles.element_partitions(logic)
    batch = bl.states.round_trip_rows(logic, rows, dens)
    assert batch.failures == 0
    for k, pr in enumerate(prs):
        expect = oracles.state_oracle(logic, partitions, pr)
        assert bool(batch.valid[k]) == expect["valid"]
        state = batch.states[k]
        if not expect["valid"]:
            assert state is None
            continue
        assert expect["mismatch"] is None
        assert math.gcd(state.denominator, *map(int, state.numerators)) == 1
        assert [int(v) * expect["den"] for v in state.numerators] == [
            v * state.denominator for v in expect["numerators"]
        ]
        assert bl.pr_from_state(state).table == pr.table
    return batch


@pytest.mark.parametrize("scenario", ["chsh", "three_input"])
def test_kernel_matches_oracle_on_vertices_and_mixtures(request, scenario):
    logic = request.getfixturevalue(f"{scenario}_logic")
    hrep, vertex_set = request.getfixturevalue(f"{scenario}_polytope")
    # the kernel's columns and the vertex rows share one atom order
    assert logic.atom_ids == hrep.variables == bl.all_atom_ids(logic.spec)
    vertices = bl.vertex_pr_states(hrep, vertex_set)
    mixtures = bl.sample_pr_states(vertices, 40, seed=11)
    mixed, dens = bl.states.sample_mixture_rows(
        vertex_set.scaled, vertex_set.scale, 40, seed=11
    )
    # the integer-built mixtures are the sample_pr_states tables of the same seed
    for row, den, pr in zip(mixed, dens, mixtures, strict=True):
        assert [Fraction(v, den) for v in row] == [
            pr.atom_value(aid) for aid in logic.atom_ids
        ]
    rows = [*vertex_set.scaled, *mixed]
    dens = [vertex_set.scale] * len(vertex_set) + dens
    batch = assert_kernel_matches_oracle(logic, rows, dens, vertices + mixtures)
    assert batch.valid.all()
    assert {s.numerators.dtype for s in batch.states} == {np.dtype(np.int64)}


def test_kernel_matches_oracle_past_int64(chsh_logic):
    prs = [past_int64_mixture(CHSH), pr_box(CHSH), signalling_past_int64(CHSH)]
    rows, dens = zip(*(table_row(chsh_logic, pr) for pr in prs))
    batch = assert_kernel_matches_oracle(chsh_logic, rows, dens, prs)
    assert batch.valid.tolist() == [True, True, False]
    assert batch.states[0].numerators.dtype == object


def test_batch_flags_exactly_the_invalid_rows(chsh_logic, chsh_vertex_states):
    bad = invalid_tables(CHSH)
    prs = [*chsh_vertex_states[:3], bad[0], chsh_vertex_states[3], *bad[1:]]
    rows, dens = zip(*(table_row(chsh_logic, pr) for pr in prs))
    batch = assert_kernel_matches_oracle(chsh_logic, rows, dens, prs)
    assert batch.valid.tolist() == [True] * 3 + [False, True] + [False] * 3
    for pr in bad:
        violations = bl.validate_pr_state(pr)
        text = f"table violates {len(violations)} constraint(s); first: {violations[0].to_dict()}"
        with pytest.raises(bl.StateError, match=f"^{re.escape(text)}$"):
            bl.state_from_pr(chsh_logic, pr)


def well_definedness_text(failure):
    u, part, got, want = failure
    return f"element {u}: partition {part} sums to {got} but the canonical partition gives {want}"


def test_first_well_definedness_failure_matches_oracle(chsh_logic, chsh_vertex_states):
    partitions = oracles.element_partitions(chsh_logic)
    for pr in invalid_tables(CHSH) + [pr_box(CHSH)]:
        expect = oracles.state_oracle(chsh_logic, partitions, pr)
        failure = oracles.first_step_failure(chsh_logic, pr)
        # the steps fail exactly when some partition disagrees
        assert (failure is None) == (expect["mismatch"] is None)
        if failure is None:
            rho = bl.state_from_pr(chsh_logic, pr, validate=False)
            assert [int(v) for v in rho.numerators] == [
                v * rho.denominator // expect["den"] for v in expect["numerators"]
            ]
            continue
        text = well_definedness_text(failure)
        with pytest.raises(bl.WellDefinednessViolation, match=f"^{re.escape(text)}$"):
            bl.state_from_pr(chsh_logic, pr, validate=False)
    # in a batch, the first failing table is the one reported
    tables = bl.states._state_tables(chsh_logic)
    prs = [*chsh_vertex_states * 3, signalling_table(CHSH), signalling_past_int64(CHSH)]
    x, den = tables.batch(*zip(*(table_row(chsh_logic, pr) for pr in prs)))
    text = well_definedness_text(oracles.first_step_failure(chsh_logic, prs[-2]))
    with pytest.raises(bl.WellDefinednessViolation, match=f"^{re.escape(text)}$"):
        tables.extend(x, den)


# -- the step certificate against every atomic partition ------------------------------

STEP_SCENARIOS = {
    "chsh": CHSH,
    "three_by_two": bl.BoxWorldSpec.from_sizes([3], [2]),
    "three_input": THREE_INPUT,
}


def random_tables(spec, vertices, seed, big):
    """Six seeded mixtures of vertices and six tables drawn per input pair.

    The second six are normalized for every input pair but their marginals
    are free, so they signal unless the scenario has a single input pair.
    With ``big`` every table's denominator passes 2**62.
    """
    rng = random.Random(seed)
    scale = 3**41 if big else 6
    out = []
    for _ in range(6):
        first, second = (Fraction(rng.randrange(1, scale), 2 * scale) for _ in range(2))
        support = rng.sample(vertices, 3)
        out.append(bl.convex_combination(support, [first, second, 1 - first - second]))
    for _ in range(6):
        weights = {
            (a, b): [[rng.randrange(1, scale) for _ in range(rb)] for _ in range(la)]
            for a, la in enumerate(spec.left_sizes)
            for b, rb in enumerate(spec.right_sizes)
        }
        out.append(
            bl.PRState.from_function(
                spec,
                lambda a, b, alpha, beta, w=weights: Fraction(
                    w[a, b][alpha][beta], sum(map(sum, w[a, b]))
                ),
            )
        )
    return out


@pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
@pytest.mark.parametrize("scenario", sorted(STEP_SCENARIOS))
def test_step_certificate_matches_every_partition(request, scenario, big):
    spec = STEP_SCENARIOS[scenario]
    if scenario == "three_by_two":
        logic = bl.close_logic(spec)
        hrep = bl.ns_polytope(spec)
        vertices = bl.vertex_pr_states(hrep, bl.enumerate_vertices(hrep))
    else:
        logic = request.getfixturevalue(f"{scenario}_logic")
        vertices = bl.vertex_pr_states(*request.getfixturevalue(f"{scenario}_polytope"))
    partitions = oracles.element_partitions(logic)
    mismatches = 0
    for pr in random_tables(spec, vertices, seed=len(scenario), big=big):
        expect = oracles.state_oracle(logic, partitions, pr)
        if expect["mismatch"] is not None:
            mismatches += 1
            with pytest.raises(bl.WellDefinednessViolation):
                bl.state_from_pr(logic, pr, validate=False)
            continue
        rho = bl.state_from_pr(logic, pr, validate=False)
        assert rho.numerators.dtype == (object if big else np.int64)
        assert [int(v) * expect["den"] for v in rho.numerators] == [
            v * rho.denominator for v in expect["numerators"]
        ]
    # one input pair leaves nothing to signal; elsewhere the drawn tables signal
    assert mismatches == (0 if scenario == "three_by_two" else 6)


@pytest.mark.parametrize("scenario", ["chsh", "three_input", "two_by_three"])
def test_canonical_partitions_are_the_lex_least(request, scenario):
    logic = request.getfixturevalue(f"{scenario}_logic")
    expect = np.zeros((len(logic.atom_bits), len(logic.elements)), dtype=np.int64)
    for i in range(len(logic.elements)):
        expect[list(logic.decomposition(i)), i] = 1
    assert np.array_equal(bl.states._StateTables(logic).canon, expect)


@pytest.mark.parametrize("scenario", ["chsh", "three_input"])
def test_constraint_rows_are_the_distinct_step_rows(request, scenario):
    logic = request.getfixturevalue(f"{scenario}_logic")
    least = oracles.lex_least_partitions(logic)
    expect = set()
    for i, pos, u in oracles.atom_steps(logic):
        row = [0] * len(logic.atom_bits)
        for p in (*least[i], pos):
            row[p] += 1
        for p in least[u]:
            row[p] -= 1
        expect.add(tuple(row))
    rows = bl.states._StateTables(logic).constraints.T.tolist()
    assert len(rows) == len(expect) and set(map(tuple, rows)) == expect


def test_state_kernel_walks_the_steps_once():
    logic = bl.close_logic(CHSH)
    walk, walks = logic._atom_steps, []

    def counted():
        walks.append(1)
        return walk()

    logic._atom_steps = counted
    point = bl.point_state(logic, 0)
    unchecked = bl.LogicState(logic, 1, point.numerators)
    assert bl.pr_from_state(unchecked) == bl.pr_from_state(point)
    rows, dens = zip(table_row(logic, bl.PRState.uniform(CHSH)), table_row(logic, pr_box(CHSH)))
    states = bl.states.round_trip_rows(logic, rows, dens).states
    assert bl.verify_state_monotonicity(logic, [unchecked, *states])[0]
    assert len(walks) == 1


@pytest.mark.parametrize("build", [_point_added, functools.partial(_random_removal, CHSH, 0)])
def test_state_kernel_refuses_an_unclosed_table(build):
    logic = build()
    uniform = bl.PRState.uniform(CHSH)
    with pytest.raises(bl.TheoremViolation):
        bl.state_from_pr(logic, uniform)
    with pytest.raises(bl.TheoremViolation):
        bl.states.round_trip_rows(logic, *zip(table_row(logic, uniform)))
    with pytest.raises(bl.TheoremViolation):
        bl.verify_state_monotonicity(logic, [bl.point_state(logic, 0)])


# -- point states ------------------------------------------------------------------


def test_state_does_not_share_a_writeable_array(chsh_logic):
    nums = np.array([1 if e & 1 else 0 for e in chsh_logic.elements], dtype=np.int64)
    state = bl.LogicState(chsh_logic, 1, nums, additive_checked=True)
    assert state == bl.point_state(chsh_logic, 0)
    nums[:] = 0
    assert state == bl.point_state(chsh_logic, 0)
    assert not state.numerators.flags.writeable


@pytest.mark.parametrize(
    "denominator, numerators",
    [
        (1, "half_list"),
        (1, "float_array"),
        (2, "fraction_list"),
        (1.5, "zero_list"),
    ],
)
def test_state_refuses_non_integer_input(chsh_logic, denominator, numerators):
    n = len(chsh_logic.elements)
    numerators = {
        "half_list": [0.5] * n,
        "float_array": np.full(n, 0.7),
        "fraction_list": [Fraction(1, 2)] * n,
        "zero_list": [0] * n,
    }[numerators]
    with pytest.raises(bl.StateError, match="must be an integer"):
        bl.LogicState(chsh_logic, denominator, numerators)


def test_state_accepts_integer_input(chsh_logic):
    point = bl.point_state(chsh_logic, 0)
    ints = [int(v) for v in point.numerators]
    for den, nums in [
        (1, np.array(ints, dtype=np.int64)),
        (np.int64(1), np.array(ints, dtype=bool)),
        (1, list(point.numerators)),
        (1, np.array(ints, dtype=object)),
    ]:
        assert bl.LogicState(chsh_logic, den, nums) == point
    big = 2**63
    for nums in ([v * big for v in ints], np.array([v * big for v in ints], dtype=object)):
        state = bl.LogicState(chsh_logic, big, nums)
        assert state.numerators.dtype == object
        assert state == point


def test_point_state_bounds(chsh_logic):
    rho = bl.point_state(chsh_logic, 0)
    assert rho.value(chsh_logic.index_of(chsh_logic.full_mask)) == 1
    assert rho.value(chsh_logic.index_of(0)) == 0


def test_point_state_complement_sums(chsh_logic):
    rho = bl.point_state(chsh_logic, 5)
    for i in range(len(chsh_logic.elements)):
        c = chsh_logic.complement_map[i]
        assert rho.value(i) + rho.value(c) == 1


def test_point_state_two_valued_and_additive(chsh_logic):
    rho = bl.point_state(chsh_logic, 3)
    assert rho.is_two_valued()
    assert bl.verify_state_additivity(rho)


def test_point_state_table_is_deterministic_vertex(chsh_logic, chsh_polytope):
    hrep, vertex_set = chsh_polytope
    for point in range(chsh_logic.ground_size):
        pr = bl.pr_from_state(bl.point_state(chsh_logic, point))
        assert all(
            pr.value(a, b, alpha, beta) in (0, 1)
            for a in range(2)
            for b in range(2)
            for alpha in range(2)
            for beta in range(2)
        )
        coords = tuple(pr.atom_value(aid) for aid in hrep.variables)
        assert oracles.is_extreme_point(hrep, coords)
        assert coords in vertex_set.vertices


def test_point_states_match_assignments(chsh_logic):
    g = chsh_logic.gamma
    for index in range(g.gamma_size):
        xs, ys = g.index_to_point(index)
        pr = bl.pr_from_state(bl.point_state(chsh_logic, index))
        assert pr.table == bl.PRState.deterministic(CHSH, xs, ys).table


# -- convexity and monotonicity -------------------------------------------------------


def test_convex_combination_stays_valid(chsh_vertex_states):
    mix = bl.convex_combination(
        chsh_vertex_states[:3], [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    )
    assert bl.validate_pr_state(mix) == []


def test_convex_combination_rejects_bad_weights(chsh_vertex_states):
    with pytest.raises(bl.StateError):
        bl.convex_combination(chsh_vertex_states[:2], [Fraction(1, 2), Fraction(1, 3)])


def test_vertex_states_monotone(chsh_logic, chsh_vertex_states):
    states = [bl.state_from_pr(chsh_logic, pr) for pr in chsh_vertex_states]
    ok, checked = bl.verify_state_monotonicity(chsh_logic, states)
    assert ok and checked > 0


# -- order determination ----------------------------------------------------------


def test_order_determining_chsh(chsh_logic, chsh_vertex_states):
    states = [bl.state_from_pr(chsh_logic, pr) for pr in chsh_vertex_states]
    report = bl.check_order_determining(chsh_logic, states)
    assert report.ok, report.failures
    n = len(chsh_logic.elements)
    assert report.noncomparable_pairs + report.comparable_pairs_skipped == n * n


def test_order_not_determined_by_uniform_state_alone(chsh_logic):
    rho = bl.state_from_pr(chsh_logic, bl.PRState.uniform(CHSH))
    report = bl.check_order_determining(chsh_logic, [rho])
    assert not report.ok
    assert report.failures


def test_vectorized_path_matches_scan(chsh_logic, chsh_vertex_states):
    states = [bl.state_from_pr(chsh_logic, pr) for pr in chsh_vertex_states]
    scan = bl.check_order_determining(chsh_logic, states, scan_limit=1000)
    fast = bl.check_order_determining(chsh_logic, states, scan_limit=10)
    assert scan.ok and fast.ok
    assert scan.noncomparable_pairs == fast.noncomparable_pairs


@pytest.fixture(scope="module")
def three_input_vertex_states(three_input_logic, three_input_polytope):
    hrep, vertex_set = three_input_polytope
    prs = bl.vertex_pr_states(hrep, vertex_set)
    states = [bl.state_from_pr(three_input_logic, pr) for pr in prs]
    return states, vertex_set.classes


def _altered_deterministic(logic, states, classes):
    # value 1 on the empty element: still two-valued, no longer any point's indicator
    det = next(s for s, cls in zip(states, classes) if cls == "deterministic")
    nums = list(det.numerators)
    nums[logic.index_of(0)] = det.denominator
    return bl.LogicState(logic, det.denominator, nums)


@pytest.mark.parametrize(
    "case", ["uniform", "nonlocal_vertices", "altered_deterministic", "half_deterministic"]
)
def test_certificate_fallback_matches_scan(three_input_logic, three_input_vertex_states, case):
    logic = three_input_logic
    states, classes = three_input_vertex_states
    assert len(logic.elements) == 248  # above the default scan limit of 128
    if case == "uniform":
        chosen = [bl.state_from_pr(logic, bl.PRState.uniform(THREE_INPUT))]
    elif case == "nonlocal_vertices":
        chosen = [s for s, cls in zip(states, classes) if cls != "deterministic"]
        assert len(chosen) == len(states) - 64
    elif case == "altered_deterministic":
        chosen = [_altered_deterministic(logic, states, classes)]
    else:
        # half of the points certified, the rest left to the scan
        chosen = [s for s, cls in zip(states, classes) if cls == "deterministic"][::2]
        chosen.append(_altered_deterministic(logic, states, classes))
        assert bl.states._certified_points(logic, chosen).bit_count() == 32
    fast = bl.check_order_determining(logic, chosen)
    scan = bl.check_order_determining(logic, chosen, scan_limit=1000)
    assert fast.strategy != scan.strategy
    for report in (fast, scan):
        assert report.failures == sorted(report.failures, key=lambda f: (f["p"], f["q"]))
    fast_dict, scan_dict = fast.to_dict(), scan.to_dict()
    del fast_dict["strategy"], scan_dict["strategy"]
    assert fast_dict == scan_dict
    assert fast.ok == (case == "nonlocal_vertices")


# -- monotonicity and additivity against all-pairs scans ------------------------------


def _states_and_nudged(logic, states, seed):
    """The states, each followed by a copy with one element's value moved by 1/den."""
    rng = random.Random(seed)
    out = []
    for s in states:
        nums = [int(v) for v in s.numerators]
        nums[rng.randrange(1, len(nums))] += rng.choice((-1, 1))
        out += [s, bl.LogicState(logic, s.denominator, nums)]
    return out


@pytest.mark.parametrize("case", ["chsh_vertices", "three_input_sample", "past_int64"])
def test_monotonicity_and_additivity_match_all_pairs(request, case):
    if case == "chsh_vertices":
        logic = request.getfixturevalue("chsh_logic")
        vertices = request.getfixturevalue("chsh_vertex_states")
        states = [bl.state_from_pr(logic, pr) for pr in vertices]
    elif case == "three_input_sample":
        logic = request.getfixturevalue("three_input_logic")
        states, _ = request.getfixturevalue("three_input_vertex_states")
        states = random.Random(5).sample(states, 12)
    else:
        logic = request.getfixturevalue("chsh_logic")
        rho = bl.state_from_pr(logic, past_int64_mixture(CHSH))
        nums = [int(v) for v in rho.numerators]
        nums[logic.index_of(logic.full_mask)] = 0
        states = [rho, bl.LogicState(logic, rho.denominator, nums)]
        assert {s.numerators.dtype for s in states} == {np.dtype(object)}
    monotone = []
    for s in _states_and_nudged(logic, states, seed=3):
        values = [int(v) for v in s.numerators]
        assert bl.verify_state_additivity(s) == oracles.naive_additive(logic.elements, values)
        ok, _ = bl.verify_state_monotonicity(logic, [s])
        assert ok == oracles.naive_monotone(logic.elements, values)
        monotone.append(ok)
    assert False in monotone


def _never_called(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize(
    "spec, polytope", [(CHSH, "chsh_polytope"), (THREE_INPUT, "three_input_polytope")]
)
def test_pair_counts_never_walk_the_pairs(request, monkeypatch, spec, polytope):
    hrep, vertex_set = request.getfixturevalue(polytope)
    logic = bl.close_logic(spec)
    states = [bl.state_from_pr(logic, pr) for pr in bl.vertex_pr_states(hrep, vertex_set)[::40]]
    pairs = len(oracles.naive_comparable_pairs(logic.elements))
    monkeypatch.setattr(bl.ConcreteLogic, "comparable_pairs", _never_called)
    assert bl.verify_state_monotonicity(logic, states) == (True, len(states) * pairs)
    assert bl.check_order_determining(logic, states).comparable_pairs_skipped == pairs
    monkeypatch.undo()
    # the walked pairs are as many as the count says
    assert len(list(logic.comparable_pairs())) == logic.comparable_count() == pairs


def test_verify_on_a_closed_logic_walks_no_pair_and_classifies_no_element(monkeypatch):
    for name in ("comparable_pairs", "disjoint_pairs"):
        monkeypatch.setattr(bl.ConcreteLogic, name, _never_called)
    monkeypatch.setattr(bl.logic, "classify_above_atom", _never_called)
    logic = bl.close_logic(CHSH)
    expected = (
        oracles.naive_axiom_entries(logic),
        oracles.naive_atomic_coverage(logic),
        oracles.naive_order_classification(logic),
    )
    entry = lambda r: (r.passed, r.checked, r.counterexample, r.note)
    with monkeypatch.context() as m:
        # the localized families check still asks for canonical partitions
        m.setattr(bl.ConcreteLogic, "decomposition", _never_called)
        result, counts = bl.verify_order_classification(logic)
        assert expected == (
            {k: entry(r) for k, r in bl.verify_axioms(logic).results.items()},
            entry(bl.verify_atomic_coverage(logic)),
            (entry(result), counts),
        )
    assert bl.verify_scenario(CHSH)["all_passed"]


def test_order_determination_skips_the_element_walk_when_every_point_is_certified(
    monkeypatch, three_input_logic, three_input_vertex_states
):
    logic, (states, _) = three_input_logic, three_input_vertex_states
    assert len(logic.elements) > 128  # past the full-scan limit
    logic.comparable_count()
    containing, masks = logic.containing, []
    monkeypatch.setattr(logic, "containing", lambda bits: masks.append(bits) or containing(bits))
    report = bl.check_order_determining(logic, states)
    assert report.ok and report.failures == []
    # one call per sample point while certifying them, none per element
    assert masks == [1 << x for x in range(logic.ground_size)]


def test_verify_counts_comparable_pairs_once():
    logic = bl.close_logic(CHSH)
    containing, masks = logic.containing, []
    logic.containing = lambda bits: masks.append(bits) or containing(bits)
    count, masks_per_call = logic.comparable_count, []

    def counted():
        before = len(masks)
        total = count()
        masks_per_call.append(len(masks) - before)
        return total

    logic.comparable_count = counted
    assert bl.verify_scenario(CHSH, logic=logic)["all_passed"]
    # asked by the axioms, by monotonicity and by order determination,
    # summed over the elements once
    assert masks_per_call == [len(logic.elements), 0, 0]
    assert count() == len(list(logic.comparable_pairs()))
