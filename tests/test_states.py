import functools
import math
import operator
import random
import re
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import boxlogic as bl
from boxlogic import AtomId, LocalizedSpec, Side
from boxlogic.io import canonical_json, pr_state_from_dict
from boxlogic.logic import _flag_mask

import oracles
from conftest import CHSH, NS_SHAPES, THREE_INPUT, TWO_BY_THREE
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


def _damaged_tables(spec, count, seed):
    """Seeded mixtures of deterministic tables, most of them damaged: one
    entry moved (unnormalized), mass shifted inside a block (signalling,
    sometimes negative), or every entry redrawn."""
    rng = random.Random(seed)
    points = list(bl.deterministic_points(spec))
    for t in range(count):
        support = [rng.choice(points) for _ in range(3)]
        base = bl.convex_combination(
            [bl.PRState.deterministic(spec, xs, ys) for xs, ys in support],
            [Fraction(w, 6) for w in (1, 2, 3)],
        )
        table = [[[list(row) for row in block] for block in blocks] for blocks in base.table]
        a, b = rng.randrange(len(table)), rng.randrange(len(table[0]))
        block = table[a][b]
        delta = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([2, 5, 7]))
        if t % 4 == 1:
            block[rng.randrange(len(block))][rng.randrange(len(block[0]))] += delta
        elif t % 4 == 2:
            block[0][0] += delta
            block[-1][-1] -= delta
        elif t % 4 == 3:
            for row in block:
                row[:] = [Fraction(rng.randint(-2, 4), rng.randint(1, 6)) for _ in row]
        yield bl.PRState.from_nested(spec, table)


@pytest.mark.parametrize("left,right", NS_SHAPES, ids=str)
def test_violations_match_the_naive_loops(left, right):
    spec = bl.BoxWorldSpec.from_sizes(left, right)
    kinds = set()
    for pr in _damaged_tables(spec, 60, seed=1501):
        violations = bl.validate_pr_state(pr)
        assert [str(v.to_dict()) for v in violations] == oracles.naive_violations(pr)
        assert all(type(v.residual) is Fraction for v in violations)
        kinds |= {v.kind for v in violations}
    signalling = {"right_marginal_depends_on_left_input", "left_marginal_depends_on_right_input"}
    assert kinds >= {"negative", "normalization"}
    assert bool(kinds & signalling) == (len(left) + len(right) > 2)


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
    # the invalid row is left out of the monotonicity count; order determination
    # reads the sample points' own tables, not the vertices
    pairs = len(list(chsh_logic.comparable_pairs()))
    assert section["monotonicity"] == {"ok": True, "checked": 23 * pairs}
    assert section["order_determining"]["ok"] is True


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


# -- denominators past 2**62 ----------------------------------------------------------


def past_int64_mixture(spec):
    """A valid table whose entries share a denominator of 4 * 3**40 > 2**62."""
    w = Fraction(1, 3**40)
    return bl.convex_combination([pr_box(spec), bl.PRState.uniform(spec)], [w, 1 - w])


def test_state_from_pr_past_int64_matches_fraction_sums(chsh_logic):
    pr = past_int64_mixture(CHSH)
    rho = bl.state_from_pr(chsh_logic, pr)
    assert rho.denominator > 2**62
    assert [rho.value(i) for i in range(len(chsh_logic.elements))] == fraction_sums(chsh_logic, pr)
    for i in range(len(chsh_logic.elements)):
        for dec in chsh_logic.all_decompositions(i):
            atoms = (pr.atom_value(chsh_logic.atom_ids[pos]) for pos in dec)
            assert rho.value(i) == sum(atoms, Fraction(0))
    assert bl.pr_from_state(rho).table == pr.table


def fraction_sums(logic, pr):
    """Each element's value as the Fraction sum of the table entries of its
    canonical partition."""
    return [
        sum((pr.atom_value(logic.atom_ids[pos]) for pos in logic.decomposition(i)), Fraction(0))
        for i in range(len(logic.elements))
    ]


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
    pr = past_int64_mixture(CHSH)
    rho = bl.state_from_pr(chsh_logic, pr)
    unchecked = bl.LogicState(chsh_logic, rho.denominator, rho.numerators)
    sums = fraction_sums(chsh_logic, pr)
    assert [unchecked.value(i) for i in range(len(sums))] == sums
    assert bl.verify_state_additivity(unchecked)
    nums = list(rho.numerators)
    atom = chsh_logic.atom_element(AtomId(0, 0, 0, 0))
    nums[atom] += 1
    broken = bl.LogicState(chsh_logic, rho.denominator, nums)
    assert broken.value(atom) == sums[atom] + Fraction(1, rho.denominator)
    assert not bl.verify_state_additivity(broken)


def test_monotonicity_scan_past_int64(chsh_logic):
    pr = past_int64_mixture(CHSH)
    rho = bl.state_from_pr(chsh_logic, pr)
    sums = fraction_sums(chsh_logic, pr)
    assert [rho.value(i) for i in range(len(sums))] == sums
    pairs = len(list(chsh_logic.comparable_pairs()))
    assert bl.verify_state_monotonicity(chsh_logic, [rho, rho]) == (True, 2 * pairs)
    nums = list(rho.numerators)
    nums[chsh_logic.index_of(chsh_logic.full_mask)] = 0
    broken = bl.LogicState(chsh_logic, rho.denominator, nums)
    assert broken.value(chsh_logic.index_of(chsh_logic.full_mask)) == 0
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


def extended(logic, row, den):
    """The table ``row / den`` in lowest terms and its element values C x."""
    x, den = bl.states._reduced(row, den)
    return x, den, bl.states._state_tables(logic).values(x)


def walk_rows(logic, rows, dens, validate=True):
    """The tables ``rows[k] / dens[k]`` through the kernel's ``check``, in lowest
    terms: the verdict on each row and the state of each accepted one (None for
    the others)."""
    tables = bl.states._state_tables(logic)
    valid, states = [], []
    for row, den in zip(rows, dens):
        x, den = bl.states._reduced(row, den)
        ok = tables.check(x, den, validate)
        valid.append(ok)
        states.append(bl.LogicState(logic, den, tables.values(x), additive_checked=True) if ok else None)
    return valid, states


def assert_kernel_matches_oracle(logic, rows, dens, prs):
    partitions = oracles.element_partitions(logic)
    valid, states = walk_rows(logic, rows, dens)
    for k, pr in enumerate(prs):
        expect = oracles.state_oracle(logic, partitions, pr)
        assert valid[k] == expect["valid"]
        state = states[k]
        if not expect["valid"]:
            assert state is None
            continue
        assert expect["mismatch"] is None
        assert math.gcd(state.denominator, *map(int, state.numerators)) == 1
        assert [int(v) * expect["den"] for v in state.numerators] == [
            v * state.denominator for v in expect["numerators"]
        ]
        assert bl.pr_from_state(state).table == pr.table
    return valid, states


@pytest.mark.parametrize("scenario", ["chsh", "three_input"])
def test_kernel_matches_oracle_on_vertices_and_mixtures(request, scenario):
    logic = request.getfixturevalue(f"{scenario}_logic")
    hrep, vertex_set = request.getfixturevalue(f"{scenario}_polytope")
    # the kernel's columns and the vertex rows share one atom order
    assert logic.atom_ids == hrep.variables == bl.all_atom_ids(logic.spec)
    vertices = bl.vertex_pr_states(hrep, vertex_set)
    mixtures = bl.sample_pr_states(vertices, 40, seed=11)
    mixed, dens = zip(*bl.states._mixture_rows(vertex_set.scaled, vertex_set.scale, 40, seed=11))
    # the integer-built mixtures are the sample_pr_states tables of the same seed
    for row, den, pr in zip(mixed, dens, mixtures, strict=True):
        assert [Fraction(v, den) for v in row] == [
            pr.atom_value(aid) for aid in logic.atom_ids
        ]
    rows = [*vertex_set.scaled, *mixed]
    dens = [vertex_set.scale] * len(vertex_set) + list(dens)
    valid, _ = assert_kernel_matches_oracle(logic, rows, dens, vertices + mixtures)
    assert all(valid)


def test_kernel_matches_oracle_past_int64(chsh_logic):
    prs = [past_int64_mixture(CHSH), pr_box(CHSH), signalling_past_int64(CHSH)]
    rows, dens = zip(*(table_row(chsh_logic, pr) for pr in prs))
    valid, states = assert_kernel_matches_oracle(chsh_logic, rows, dens, prs)
    assert valid == [True, True, False]
    assert states[0].denominator > 2**62


def test_batch_flags_exactly_the_invalid_rows(chsh_logic, chsh_vertex_states):
    bad = invalid_tables(CHSH)
    prs = [*chsh_vertex_states[:3], bad[0], chsh_vertex_states[3], *bad[1:]]
    rows, dens = zip(*(table_row(chsh_logic, pr) for pr in prs))
    valid, _ = assert_kernel_matches_oracle(chsh_logic, rows, dens, prs)
    assert valid == [True] * 3 + [False, True] + [False] * 3
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
    # of the tables walked in turn, the first failing one is the one reported
    tables = bl.states._state_tables(chsh_logic)
    prs = [*chsh_vertex_states * 3, signalling_table(CHSH), signalling_past_int64(CHSH)]
    text = well_definedness_text(oracles.first_step_failure(chsh_logic, prs[-2]))
    with pytest.raises(bl.WellDefinednessViolation, match=f"^{re.escape(text)}$"):
        for pr in prs:
            tables.check(*table_row(chsh_logic, pr), validate=False)


def test_lane_width_reads_a_large_negative_entry(chsh_logic):
    tables = bl.states._state_tables(chsh_logic)
    small = [1] * tables.natoms
    assert tables.pack(small, 1)[0].w == 8
    # the only entry past 2**62 is negative: the walk refuses the row, its lanes
    # are wide enough, and its element values are still exact
    big = [-(2**62) - 1, *small[1:]]
    assert tables.check(big, 1) is False
    assert tables.pack(big, 1)[0].w == 128
    decompositions = [chsh_logic.decomposition(i) for i in range(len(chsh_logic.elements))]
    assert tables.values(big) == [sum(big[pos] for pos in parts) for parts in decompositions]


# -- the walk: one table at a time ------------------------------------------------------


def walked_tables(monkeypatch):
    """Record every table the kernel's ``check`` takes, as (row, den), and return the list."""
    seen, check = [], bl.states._StateTables.check

    def counted(self, x, den, validate=True):
        seen.append((list(x), den))
        return check(self, x, den, validate)

    monkeypatch.setattr(bl.states._StateTables, "check", counted)
    return seen


@pytest.mark.parametrize("scenario", ["chsh", "three_input"])
def test_every_entry_checks_each_table_once(request, monkeypatch, scenario):
    # the state section, the order check and both directions of the correspondence
    # reach the kernel through check alone, once per table, in lowest terms
    logic = request.getfixturevalue(f"{scenario}_logic")
    hrep, vertex_set = request.getfixturevalue(f"{scenario}_polytope")
    rows, scale = vertex_set.scaled, vertex_set.scale
    seen = walked_tables(monkeypatch)
    assert bl.states.check_table_rows(logic, rows, scale, 7, 3)["all_tables_valid"]
    mixtures = bl.states._mixture_rows(rows, scale, 7, 3)
    walked = [*((row, scale) for row in rows), *mixtures]
    assert seen == [bl.states._reduced(row, den) for row, den in walked]
    seen.clear()
    assert bl.states._order_from_points(logic).ok
    assert seen == [([a >> w & 1 for a in logic.atom_bits], 1) for w in range(logic.ground_size)]
    prs = [*bl.vertex_pr_states(hrep, vertex_set)[:3], bl.PRState.uniform(logic.spec)]
    seen.clear()
    states = [bl.state_from_pr(logic, pr) for pr in prs]
    assert seen == [bl.states._reduced(*table_row(logic, pr)) for pr in prs]
    seen.clear()
    unchecked = [bl.LogicState(logic, s.denominator, s.numerators) for s in states]
    assert [bl.pr_from_state(s) for s in unchecked] == prs
    atoms = [[s.numerators[e] for e in logic.atom_indices] for s in states]
    assert seen == [(x, s.denominator) for x, s in zip(atoms, states)]


@pytest.mark.parametrize("scenario", ["chsh", "three_input"])
def test_one_row_chunks_give_the_same_report(request, monkeypatch, scenario):
    logic = request.getfixturevalue(f"{scenario}_logic")
    default = canonical_json(bl.verify_scenario(logic.spec, seed=5, logic=logic))
    seen = walked_tables(monkeypatch)
    assert canonical_json(bl.verify_scenario(logic.spec, seed=5, logic=logic)) == default
    # each vertex, then each mixture, then each sample point's table, once, reduced
    # to lowest terms
    vertices = {"chsh": 24, "three_input": 1408}[scenario]
    assert len(seen) == vertices + 100 + logic.ground_size
    assert all(math.gcd(den, *row) == 1 for row, den in seen)


@pytest.mark.parametrize("scenario, points", [("chsh", 16), ("three_input", 64)])
def test_element_values_are_summed_only_where_they_are_read(request, monkeypatch, scenario, points):
    # the vertex and mixture rows are checked on their packed lanes alone, and the
    # order check takes the kernel's verdict on the sample points' tables: nothing
    # in verify reads an element value
    logic = request.getfixturevalue(f"{scenario}_logic")
    _, vertex_set = request.getfixturevalue(f"{scenario}_polytope")
    summed, values = [], bl.states._StateTables.values

    def counted(self, x):
        summed.append(list(x))
        return values(self, x)

    monkeypatch.setattr(bl.states._StateTables, "values", counted)
    rows, scale = vertex_set.scaled, vertex_set.scale
    mixtures = bl.states._mixture_rows(rows, scale, 100, 0)
    tables = bl.states._state_tables(logic)
    walked = [*((row, scale) for row in rows), *mixtures]
    assert all(tables.check(*bl.states._reduced(row, den)) for row, den in walked)
    assert summed == []
    seen = walked_tables(monkeypatch)
    assert bl.verify_scenario(logic.spec, logic=logic)["all_passed"]
    assert summed == []
    # the sample points' tables come last, each walked once and none summed
    assert logic.ground_size == points
    assert seen[-points:] == [([a >> w & 1 for a in logic.atom_bits], 1) for w in range(points)]


@pytest.mark.parametrize("k", [0, 5, 23])
def test_an_invalid_vertex_keeps_its_place_past_the_first_chunk(
    chsh_logic, monkeypatch, invalid_vertex, k
):
    invalid_vertex(k)
    seen = walked_tables(monkeypatch)
    section = bl.verify_scenario(CHSH, sample_count=10, logic=chsh_logic)["state_correspondence"]
    assert seen[k] == ([0] * 16, 1)
    assert (section["all_tables_valid"], section["round_trip_failures"]) == (False, 0)
    assert section["monotonicity"] == {"ok": True, "checked": 23 * chsh_logic.comparable_count()}


def test_an_invalid_mixture_fails_the_section(chsh_logic, monkeypatch):
    mixture_rows = bl.states._mixture_rows

    def with_a_zero_table(rows, scale, count, seed):
        yield from mixture_rows(rows, scale, count, seed)
        yield [0] * len(rows[0]), 1

    monkeypatch.setattr(bl.states, "_mixture_rows", with_a_zero_table)
    report = bl.verify_scenario(CHSH, sample_count=10, logic=chsh_logic)
    section = report["state_correspondence"]
    assert (section["all_tables_valid"], section["round_trip_failures"]) == (False, 0)
    assert section["monotonicity"] == {"ok": True, "checked": 24 * chsh_logic.comparable_count()}
    assert report["all_passed"] is False


@pytest.mark.parametrize("scenario", ["chsh", "three_input"])
def test_monotonicity_count_equals_the_scan_of_the_vertex_states(request, scenario):
    # the state section counts the valid vertex rows; the scan compares every step
    logic = request.getfixturevalue(f"{scenario}_logic")
    hrep, vertex_set = request.getfixturevalue(f"{scenario}_polytope")
    section = bl.states.check_table_rows(logic, vertex_set.scaled, vertex_set.scale, 0, 0)
    states = [bl.state_from_pr(logic, pr) for pr in bl.vertex_pr_states(hrep, vertex_set)]
    ok, checked = bl.verify_state_monotonicity(logic, states)
    assert section["monotonicity"] == {"ok": ok, "checked": checked}
    assert checked == len(vertex_set) * logic.comparable_count()


def test_a_negative_row_never_reaches_the_monotonicity_count(chsh_logic, chsh_polytope):
    # 2 * uniform - deterministic is normalized and non-signalling, and its values
    # fall along the steps of its negative atoms: validation leaves it out
    logic, (_, vertex_set) = chsh_logic, chsh_polytope
    scale = vertex_set.scale
    det = vertex_set.scaled[vertex_set.classes.index("deterministic")]
    negative = [scale - 2 * v for v in det]
    rows = [[2 * v for v in row] for row in vertex_set.scaled]
    section = bl.states.check_table_rows(logic, [*rows, negative], 2 * scale, 0, 0)
    assert section["all_tables_valid"] is False
    assert section["monotonicity"] == {"ok": True, "checked": 24 * logic.comparable_count()}
    table = bl.states._state_tables(logic).table(negative, 2 * scale)
    rho = bl.state_from_pr(logic, table, validate=False)
    assert bl.verify_state_monotonicity(logic, [rho]) == (False, 0)


def test_a_well_definedness_break_keeps_its_message_past_the_first_chunk(
    chsh_logic, chsh_vertex_states, monkeypatch
):
    prs = [*chsh_vertex_states * 3, signalling_table(CHSH), signalling_past_int64(CHSH)]
    rows, dens = zip(*(table_row(chsh_logic, pr) for pr in prs))
    text = well_definedness_text(oracles.first_step_failure(chsh_logic, prs[-2]))
    # unvalidated, the signalling tables reach the step check
    seen = walked_tables(monkeypatch)
    with pytest.raises(bl.WellDefinednessViolation, match=f"^{re.escape(text)}$"):
        walk_rows(chsh_logic, rows, dens, validate=False)
    # the rows before it were walked, and the walk stopped at it
    assert len(seen) == len(prs) - 1


def test_read_back_refuses_values_that_are_no_table(chsh_logic, monkeypatch):
    logic = chsh_logic
    # additive, but 2 on the full set
    doubled = [2 * v for v in bl.point_state(logic, 0).numerators]
    with pytest.raises(bl.StateError, match=r"^state does not assign 1 to the full set$"):
        bl.pr_from_state(bl.LogicState(logic, 1, doubled, additive_checked=True))
    # additive and normalized, with negative values
    negative = invalid_tables(CHSH)[1]
    with pytest.raises(bl.StateError, match=r"^state values leave \[0, 1\]$"):
        bl.pr_from_state(bl.state_from_pr(logic, negative, validate=False))
    # verify's walk reads nothing back: a row that passes validation and the
    # steps reads back by construction (see check_table_rows)

    def refused(self, values, den):
        raise AssertionError("the walk read a row back")

    monkeypatch.setattr(bl.states._StateTables, "read_back", refused)
    assert bl.verify_scenario(CHSH, sample_count=10, logic=logic)["all_passed"]


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
        assert (rho.denominator > 2**62) == big
        assert [int(v) * expect["den"] for v in rho.numerators] == [
            v * rho.denominator for v in expect["numerators"]
        ]
    # one input pair leaves nothing to signal; elsewhere the drawn tables signal
    assert mismatches == (0 if scenario == "three_by_two" else 6)


@pytest.mark.parametrize("scenario", ["chsh", "three_input", "two_by_three"])
def test_canonical_partitions_are_the_lex_least(request, scenario):
    logic = request.getfixturevalue(f"{scenario}_logic")
    expect = [sum(1 << pos for pos in logic.decomposition(i)) for i in range(len(logic.elements))]
    assert bl.states._StateTables(logic).canon == expect


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
        assert set(row) <= {-1, 0, 1}
        expect.add(
            (sum(1 << p for p, v in enumerate(row) if v > 0), sum(1 << p for p, v in enumerate(row) if v < 0))
        )
    # the first steps give the zero row, which compares nothing
    assert (0, 0) in expect
    rows = bl.states._StateTables(logic).constraints
    assert len(rows) == len(expect) - 1 and set(rows) == expect - {(0, 0)}


@pytest.mark.parametrize(
    "scenario, compared", [("single_pair", 1), ("chsh", 34), ("three_input", 129), ("two_by_three", 103)]
)
def test_packed_rows_hold_only_the_compared_lanes(request, scenario, compared):
    # the E lanes and the nonzero W lanes, and no element values above them
    logic = request.getfixturevalue(f"{scenario}_logic")
    hrep = bl.ns_polytope(logic.spec, var_cap=len(logic.atom_bits))
    tables = bl.states._StateTables(logic)
    assert len(hrep.eq_coeffs) + len(tables.constraints) == compared
    point = [a & 1 for a in logic.atom_bits]
    lanes, p, q = tables.pack(point, 1)
    assert lanes.e_mask | lanes.w_mask == (1 << compared * lanes.w) - 1
    assert max(p, q, *lanes.plus, *lanes.minus, lanes.rhs) >> compared * lanes.w == 0
    assert tables.check(point, 1) and p == q


def assert_accepted_rows_read_back(logic, rows, dens, prs):
    """The facts the kernel's checks imply, on the tables ``rows[k] / dens[k]``
    (the tables ``prs``).  C takes each atom to its own position and the full
    set to a partition of it; every row the walk accepts has V(full) = den,
    V = x at the atoms and 0 <= V <= den, and V is the oracle's."""
    tables = bl.states._state_tables(logic)
    natoms = len(logic.atom_bits)
    assert [tables.canon[e] for e in logic.atom_indices] == [1 << k for k in range(natoms)]
    parts = [logic.atom_bits[k] for k in range(natoms) if tables.canon[tables.full] >> k & 1]
    assert sum(parts) == functools.reduce(operator.or_, parts) == logic.full_mask
    partitions = oracles.element_partitions(logic)
    walk = (tables.check(*bl.states._reduced(x, den)) for x, den in zip(rows, dens))
    accepted = 0
    for ok, x, den, pr in zip(walk, rows, dens, prs, strict=True):
        expect = oracles.state_oracle(logic, partitions, pr)
        assert ok == expect["valid"]
        if not ok:
            continue
        accepted += 1
        _, low, values = extended(logic, x, den)
        assert values[tables.full] == low
        assert [Fraction(values[e], low) for e in logic.atom_indices] == [Fraction(v, den) for v in x]
        assert 0 <= min(values) and max(values) <= low
        assert [v * expect["den"] for v in values] == [v * low for v in expect["numerators"]]
    return accepted


def vertices_and_mixtures(hrep, vertex_set, count, seed, every=1):
    """(rows, dens, tables) of every ``every``-th vertex and ``count`` seeded mixtures."""
    vertices = bl.vertex_pr_states(hrep, vertex_set)
    mixed, mixed_dens = zip(*bl.states._mixture_rows(vertex_set.scaled, vertex_set.scale, count, seed))
    rows = [*vertex_set.scaled[::every], *mixed]
    dens = [vertex_set.scale] * len(vertex_set.scaled[::every]) + list(mixed_dens)
    return rows, dens, [*vertices[::every], *bl.sample_pr_states(vertices, count, seed)]


@pytest.mark.parametrize("scenario,every", [("chsh", 1), ("three_input", 1), ("two_by_three", 29)])
def test_accepted_rows_read_back_their_tables(request, scenario, every):
    logic = request.getfixturevalue(f"{scenario}_logic")
    hrep, vertex_set = request.getfixturevalue(f"{scenario}_polytope")
    rows, dens, prs = vertices_and_mixtures(hrep, vertex_set, 20, seed=25, every=every)
    bad = invalid_tables(logic.spec)
    bad_rows, bad_dens = zip(*(table_row(logic, pr) for pr in bad))
    accepted = assert_accepted_rows_read_back(
        logic, [*rows, *bad_rows], [*dens, *bad_dens], [*prs, *bad]
    )
    assert accepted == len(rows)


@functools.lru_cache(maxsize=None)
def drawn_shape(left, right):
    spec = bl.BoxWorldSpec.from_sizes(list(left), list(right))
    hrep = bl.ns_polytope(spec)
    return bl.close_logic(spec), hrep, bl.enumerate_vertices(hrep)


side_sizes = st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2).map(tuple)
# at most 36 sample points
small_shapes = st.tuples(side_sizes, side_sizes).filter(
    lambda lr: math.prod(lr[0]) * math.prod(lr[1]) <= 36
)


@settings(max_examples=12, deadline=None)
@given(small_shapes, st.integers(0, 999))
def test_accepted_rows_read_back_on_drawn_shapes(shape, seed):
    logic, hrep, vertex_set = drawn_shape(*shape)
    rows, dens, prs = vertices_and_mixtures(hrep, vertex_set, 10, seed)
    assert assert_accepted_rows_read_back(logic, rows, dens, prs) == len(rows)


def test_state_kernel_walks_the_steps_once():
    """The structural checks, the state section, the exports and the state
    readers of one logic all read the table of its one step walk."""
    logic = bl.close_logic(CHSH)
    walk, walks = logic._atom_steps, []

    def counted():
        walks.append(1)
        return walk()

    logic._atom_steps = counted
    assert bl.verify_scenario(CHSH, sample_count=10, logic=logic)["all_passed"]
    assert logic.covers() == oracles.naive_covers(logic.elements)
    point = bl.point_state(logic, 0)
    unchecked = bl.LogicState(logic, 1, point.numerators)
    assert bl.pr_from_state(unchecked) == bl.pr_from_state(point)
    rows, dens = zip(table_row(logic, bl.PRState.uniform(CHSH)), table_row(logic, pr_box(CHSH)))
    _, states = walk_rows(logic, rows, dens)
    assert bl.verify_state_monotonicity(logic, [unchecked, *states])[0]
    assert len(walks) == 1


def test_a_second_read_back_builds_no_step_triples(monkeypatch):
    # the 47,232 (lower, atom, upper) triples of 3x3 are built once per logic,
    # and the state kernel holds that same list
    logic = bl.close_logic(TWO_BY_THREE)
    ends = bl.point_state(logic, 0).numerators, bl.point_state(logic, 80).numerators
    mixed = [a + b for a, b in zip(*ends)]
    first = bl.pr_from_state(bl.LogicState(logic, 2, mixed))
    assert len(bl.states._steps(logic)) == 47232
    assert bl.states._steps(logic) is bl.states._state_tables(logic).steps

    def refused():
        raise AssertionError("the step triples were built again")

    monkeypatch.setattr(logic, "_step_table", refused)
    again = bl.pr_from_state(bl.LogicState(logic, 2, mixed))
    assert again == first
    assert bl.state_from_pr(logic, again).numerators == tuple(mixed)


@pytest.mark.parametrize("build", [_point_added, functools.partial(_random_removal, CHSH, 0)])
def test_state_kernel_refuses_an_unclosed_table(build):
    logic = build()
    uniform = bl.PRState.uniform(CHSH)
    with pytest.raises(bl.TheoremViolation):
        bl.state_from_pr(logic, uniform)
    with pytest.raises(bl.TheoremViolation):
        walk_rows(logic, *zip(table_row(logic, uniform)))
    with pytest.raises(bl.TheoremViolation):
        bl.verify_state_monotonicity(logic, [bl.point_state(logic, 0)])


# -- point states ------------------------------------------------------------------


def test_state_does_not_share_a_writeable_array(chsh_logic):
    bits = [1 if e & 1 else 0 for e in chsh_logic.elements]
    for nums in (list(bits), array("q", bits)):
        state = bl.LogicState(chsh_logic, 1, nums, additive_checked=True)
        for k in range(len(nums)):
            nums[k] = 0
        assert state == bl.point_state(chsh_logic, 0)
        assert type(state.numerators) is tuple


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
        "float_array": array("d", [0.7] * n),
        "fraction_list": [Fraction(1, 2)] * n,
        "zero_list": [0] * n,
    }[numerators]
    with pytest.raises(bl.StateError, match="must be an integer"):
        bl.LogicState(chsh_logic, denominator, numerators)


class Index:
    """An integer type of another library: an int through ``__index__`` only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_state_accepts_integer_input(chsh_logic):
    point = bl.point_state(chsh_logic, 0)
    ints = list(point.numerators)
    for den, nums in [
        (1, array("q", ints)),
        (Index(1), [Index(v) for v in ints]),
        (True, [bool(v) for v in ints]),
        (1, tuple(ints)),
    ]:
        state = bl.LogicState(chsh_logic, den, nums)
        assert state == point
        assert state.numerators == point.numerators and state.denominator == 1
    big = 2**63
    for nums in ([v * big for v in ints], [Index(v * big) for v in ints]):
        state = bl.LogicState(chsh_logic, Index(big), nums)
        assert state.numerators == tuple(v * big for v in ints)
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


def unwitnessed(logic, rows):
    """The failures an order report lists for the value rows, found by the naive scan."""
    pairs = oracles.naive_unwitnessed(logic.elements, rows)
    return [{"p": p, "q": q} for p, q in pairs[: bl.states._FAILURE_LIMIT]]


def test_vectorized_path_matches_scan(chsh_logic, chsh_vertex_states):
    states = [bl.state_from_pr(chsh_logic, pr) for pr in chsh_vertex_states]
    report = bl.check_order_determining(chsh_logic, states)
    assert report.ok
    assert report.failures == unwitnessed(chsh_logic, [s.numerators for s in states]) == []


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
        columns = {logic.containing(1 << x) for x in range(logic.ground_size)}
        supports = [_flag_mask(map(bool, s.numerators)) for s in chosen if s.is_two_valued()]
        assert sum(support in columns for support in supports) == 32
    report = bl.check_order_determining(logic, chosen)
    assert report.failures == unwitnessed(logic, [s.numerators for s in chosen])
    assert report.ok == (case == "nonlocal_vertices")


@pytest.mark.parametrize("case", ["chsh_uniform", "chsh_vertices", "three_input_half"])
def test_order_failures_match_the_naive_pairs(request, case):
    if case == "three_input_half":
        # half of the points certified, the rest scanned
        logic = request.getfixturevalue("three_input_logic")
        states, classes = request.getfixturevalue("three_input_vertex_states")
        chosen = [s for s, cls in zip(states, classes) if cls == "deterministic"][::2]
        chosen.append(_altered_deterministic(logic, states, classes))
    else:
        logic = request.getfixturevalue("chsh_logic")
        if case == "chsh_uniform":
            chosen = [bl.state_from_pr(logic, bl.PRState.uniform(CHSH))]
        else:
            vertices = request.getfixturevalue("chsh_vertex_states")
            chosen = [bl.state_from_pr(logic, pr) for pr in vertices[:5]]
    report = bl.check_order_determining(logic, chosen)
    expect = oracles.naive_unwitnessed(logic.elements, [s.numerators for s in chosen])
    assert expect
    limit = bl.states._FAILURE_LIMIT
    assert [(f["p"], f["q"]) for f in report.failures] == expect[:limit]
    assert report.ok is False


def test_lane_width_keeps_a_guard_bit():
    width = bl.states._lane_width
    assert [width(v) for v in (0, 1, 127, 128, 2**15 - 1, 2**15, 2**63 - 1, 2**63)] == [
        8, 8, 8, 16, 16, 32, 64, 128
    ]


def test_candidate_pairs_in_small_blocks_give_the_same_failures(
    three_input_logic, three_input_vertex_states, monkeypatch
):
    logic = three_input_logic
    states, classes = three_input_vertex_states
    chosen = [s for s, cls in zip(states, classes) if cls == "deterministic"][::2]
    chosen.append(_altered_deterministic(logic, states, classes))
    expect = bl.check_order_determining(logic, chosen)
    assert expect.failures == unwitnessed(logic, [s.numerators for s in chosen])
    assert len(expect.failures) == bl.states._FAILURE_LIMIT
    monkeypatch.setattr(bl.states, "_PAIR_BLOCK", 7)
    assert bl.check_order_determining(logic, chosen) == expect


def assert_order_on_point_states(logic, report):
    """``report`` is the order check on the states of ``deterministic_points``'
    tables, and those tables extend to the sample points' indicators, in point
    order."""
    spec = logic.spec
    states = [
        bl.state_from_pr(logic, bl.PRState.deterministic(spec, xs, ys))
        for xs, ys in bl.deterministic_points(spec)
    ]
    assert report == bl.check_order_determining(logic, states).to_dict()
    assert report["states_used"] == logic.ground_size
    assert all(s.is_two_valued() for s in states)
    supports = [_flag_mask(map(bool, s.numerators)) for s in states]
    assert supports == [logic.containing(1 << x) for x in range(logic.ground_size)]


@pytest.mark.parametrize("scenario", ["single_pair", "chsh", "three_input", "two_by_three"])
def test_verify_determines_the_order_on_the_point_states(request, scenario):
    logic = request.getfixturevalue(f"{scenario}_logic")
    report = bl.verify_scenario(logic.spec, sample_count=0, logic=logic)
    assert_order_on_point_states(logic, report["state_correspondence"]["order_determining"])


@settings(max_examples=12, deadline=None)
@given(small_shapes)
def test_order_on_the_point_states_of_drawn_shapes(shape):
    logic, _, _ = drawn_shape(*shape)
    assert_order_on_point_states(logic, bl.states._order_from_points(logic).to_dict())


def refuse_point_table(monkeypatch, logic, w):
    """Make the kernel refuse sample point w's table; return the tables it walks."""
    table, check = [a >> w & 1 for a in logic.atom_bits], bl.states._StateTables.check
    seen = []

    def refusing(self, x, den, validate=True):
        seen.append((list(x), den))
        return list(x) != table and check(self, x, den, validate)

    monkeypatch.setattr(bl.states._StateTables, "check", refusing)
    return seen


def test_a_refused_point_table_leaves_its_pairs_unwitnessed(chsh_logic, monkeypatch):
    # a refused table has no state, so the pairs whose difference is point 1 alone
    # are failures: the other points' indicators cannot separate them, and each
    # point table is walked once
    logic = chsh_logic
    seen = refuse_point_table(monkeypatch, logic, 1)
    report = bl.states._order_from_points(logic)
    points = [[a >> w & 1 for a in logic.atom_bits] for w in range(logic.ground_size)]
    assert seen == [(x, 1) for x in points]
    others = [bl.point_state(logic, w).numerators for w in range(logic.ground_size) if w != 1]
    assert report.failures == unwitnessed(logic, others)
    assert report.failures
    assert (report.ok, report.states_used) == (False, 15)


@pytest.mark.parametrize("damaged", [False, True], ids=["intact", "damaged"])
def test_an_uncertified_point_walks_the_point_tables_again(chsh_logic, monkeypatch, damaged):
    # the CHSH sweep walks the 16 deterministic vertices, whose tables are the point
    # tables; the order check takes no verdict from it but walks the point tables
    # again, last and once each.  Damaged, the kernel refuses point 1's table in both
    # walks, so point 1 is uncertified and the pairs it alone separates are failures.
    logic = chsh_logic
    points = [[a >> w & 1 for a in logic.atom_bits] for w in range(logic.ground_size)]
    seen = refuse_point_table(monkeypatch, logic, 1) if damaged else walked_tables(monkeypatch)
    report = bl.verify_scenario(CHSH, sample_count=0, logic=logic)
    order = report["state_correspondence"]["order_determining"]
    assert seen[-len(points):] == [(x, 1) for x in points]
    assert all(seen.count((x, 1)) == 2 for x in points)
    certified = [w for w in range(logic.ground_size) if not (damaged and w == 1)]
    others = [bl.point_state(logic, w).numerators for w in certified]
    assert order["failures"] == unwitnessed(logic, others)
    assert (order["ok"], order["states_used"]) == (not damaged, len(certified))
    assert report["all_passed"] is not damaged


def test_a_capped_sweep_keeps_order_determination(chsh_logic):
    # order determination needs no vertex: past the variable cap only the round
    # trips are skipped
    full = bl.verify_scenario(CHSH, logic=chsh_logic)
    capped = bl.verify_scenario(CHSH, caps={"polytope_variables": 4})
    assert capped["state_correspondence"] == {
        "skipped": True,
        "reason": "16 table variables, above the cap of 4",
        "order_determining": full["state_correspondence"]["order_determining"],
    }
    assert "polytope" not in capped
    assert capped["all_passed"] is True


def test_a_refused_point_table_fails_a_capped_run(chsh_logic, monkeypatch):
    refuse_point_table(monkeypatch, chsh_logic, 1)
    report = bl.verify_scenario(CHSH, caps={"polytope_variables": 4}, logic=chsh_logic)
    section = report["state_correspondence"]
    assert section["skipped"] is True
    assert (section["order_determining"]["ok"], section["order_determining"]["states_used"]) == (False, 15)
    assert report["all_passed"] is False


# -- states and tables of another scenario ------------------------------------------


@pytest.fixture(scope="module")
def logic_pairs(chsh_logic):
    """CHSH against [2,2,2]x[2,2], each way round."""
    other = bl.close_logic(bl.BoxWorldSpec.from_sizes([2, 2, 2], [2, 2]))
    return [(chsh_logic, other), (other, chsh_logic)]


def test_order_check_refuses_a_state_of_another_logic(logic_pairs):
    for logic, other in logic_pairs:
        with pytest.raises(bl.StateError, match="^a state of another logic$"):
            bl.check_order_determining(logic, [bl.point_state(logic, 0), bl.point_state(other, 3)])


def test_monotonicity_refuses_a_state_of_another_logic(logic_pairs):
    # the CHSH logic would read the larger logic's point state as a falling one
    for logic, other in logic_pairs:
        with pytest.raises(bl.StateError, match="^a state of another logic$"):
            bl.verify_state_monotonicity(logic, [bl.point_state(other, 3)])


def test_state_from_pr_refuses_a_table_of_another_scenario(logic_pairs):
    # the larger logic's atoms would read past the CHSH table, and the CHSH logic
    # would read the first 16 entries of the larger table as its own
    for logic, other in logic_pairs:
        with pytest.raises(bl.StateError, match="^a table of another scenario$"):
            bl.state_from_pr(logic, bl.PRState.uniform(other.spec))


def test_verify_refuses_a_logic_of_another_scenario(logic_pairs):
    # the vertex rows of one scenario would be read against the other's atom
    # columns, and every table would be refuted
    for logic, other in logic_pairs:
        with pytest.raises(bl.ScenarioError, match="^a logic of another scenario$"):
            bl.verify_scenario(logic.spec, sample_count=0, logic=other)


def test_convex_combination_refuses_tables_of_different_scenarios(logic_pairs):
    for logic, other in logic_pairs:
        tables = [bl.PRState.uniform(logic.spec), bl.PRState.uniform(other.spec)]
        with pytest.raises(bl.StateError, match="^tables of different scenarios$"):
            bl.convex_combination(tables, [Fraction(1, 2)] * 2)


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
        pr = past_int64_mixture(CHSH)
        rho = bl.state_from_pr(logic, pr)
        nums = [int(v) for v in rho.numerators]
        nums[logic.index_of(logic.full_mask)] = 0
        states = [rho, bl.LogicState(logic, rho.denominator, nums)]
        assert [rho.value(i) for i in range(len(nums))] == fraction_sums(logic, pr)
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
    walks = []
    for name in ("_atom_steps", "_up_walk"):
        walk = getattr(logic, name)
        setattr(logic, name, lambda walk=walk, name=name: walks.append(name) or walk())
    count, masks_per_call = logic.comparable_count, []

    def counted():
        before = len(masks)
        total = count()
        masks_per_call.append(len(masks) - before)
        return total

    logic.comparable_count = counted
    assert bl.verify_scenario(CHSH, logic=logic)["all_passed"]
    # asked by the axioms, by monotonicity and by order determination, and
    # computed once, by the walk down the step table that builds the columns
    assert masks_per_call == [0, 0, 0]
    assert walks == ["_atom_steps", "_up_walk"]
    assert count() == len(list(logic.comparable_pairs()))
