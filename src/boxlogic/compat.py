"""Compatibility structure of a logic.

Two elements are compatible when they split into pairwise-disjoint pieces
``p = only_first + shared`` and ``q = only_second + shared`` inside the
logic; a finite set is compatible when one mutually-disjoint refinement
generates every member.  Compatible families embed into Boolean
sublogics, and the one-box part of a scenario logic is a bundle of
Boolean blocks glued at bottom and top.

One box's propositions are read from one table per input, indexed by
outcome-subset bits: entry r is the set of points where the input shows
an outcome in r, so entry 0 is the empty set, the last entry the full
set, and meets and joins within an input are ``r1 & r2`` and ``r1 | r2``.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import CapExceeded, TheoremViolation
from .logic import CheckResult, ConcreteLogic, Logic, _first_failure, is_lattice, verify_axioms
from .scenario import GammaIndex, LocalizedSpec, Side

# is_compatible_set takes at most this many nonempty elements, and
# boolean_sublogic_containing at most this many blocks
_SET_BOUND = 12
_BLOCK_LIMIT = 14
# verify_localized_propositions checks one-box families of up to this many
# propositions per box
_FAMILY_BOUND = 2


@dataclass(frozen=True)
class CompatibilityWitness:
    """Disjoint split certifying compatibility, as element indices."""

    only_first: int
    only_second: int
    shared: int


def are_compatible(logic: ConcreteLogic, i: int, j: int) -> Optional[CompatibilityWitness]:
    """Witness for a compatible pair, or None.

    In a family of sets, the shared piece of any witness is forced to be
    the set intersection: it must contain the intersection for the two
    private pieces to be disjoint, and must lie inside both elements.  So
    the smallest admissible shared piece, and the only one, is the
    intersection, and the pair is compatible exactly when intersection
    and both differences belong to the table.
    """
    logic._check(i)
    logic._check(j)
    p, q, index = logic.elements[i], logic.elements[j], logic.index
    if not _compatible_bits(index, p, q):
        return None
    return CompatibilityWitness(index[p & ~q], index[q & ~p], index[p & q])


def _compatible_bits(index: dict[int, int], p: int, q: int) -> bool:
    """Whether the intersection and both differences of the sets p and q are
    in the table ``index``: ``are_compatible``'s test, without a witness."""
    return p & q in index and p & ~q in index and q & ~p in index


def is_compatible_set(logic: ConcreteLogic, indices: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Mutually-disjoint generating family for the given elements, or None.

    Any generating family must refine the overlap pattern of the inputs,
    so each nonempty overlap region (points inside a fixed subfamily and
    outside the rest) has to be in the table; in a table closed under
    disjoint unions this is also sufficient.  The returned family is the
    canonical atomic refinement of those regions, falling back to the
    regions themselves where an atomic partition is unavailable.
    """
    elems = sorted({i for i in indices})
    for i in elems:
        logic._check(i)
    elems = [i for i in elems if logic.elements[i] != 0]
    if len(elems) > _SET_BOUND:
        raise CapExceeded(f"{len(elems)} elements, above the bound of {_SET_BOUND}")
    if not elems:
        return ()
    full = logic.full_mask
    members: list[int] = []
    for pattern in range(1, 1 << len(elems)):
        region = full
        for k, i in enumerate(elems):
            bits = logic.elements[i]
            region &= bits if pattern & (1 << k) else ~bits & full
        if region == 0:
            continue
        idx = logic.index.get(region)
        if idx is None:
            return None
        dec = logic.decomposition(idx)
        if dec:
            members.extend(logic.index_of(logic.atom_bits[pos]) for pos in dec)
        else:
            members.append(idx)
    return tuple(sorted(members))


def verify_generating_family(
    logic: ConcreteLogic, indices: Sequence[int], family: Sequence[int]
) -> bool:
    """The family is mutually disjoint and a subfamily unions to each input."""
    seen = 0
    for g in family:
        bits = logic.elements[g]
        if bits & seen:
            return False
        seen |= bits
    for i in indices:
        target = logic.elements[i]
        got = 0
        for g in family:
            bits = logic.elements[g]
            if bits & target == bits:
                got |= bits
        if got != target:
            return False
    return True


@dataclass(frozen=True)
class BooleanSublogic:
    """Sublogic generated by a disjoint family, verified Boolean."""

    element_indices: tuple[int, ...]
    block_indices: tuple[int, ...]
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.element_indices)


def boolean_sublogic_containing(
    logic: ConcreteLogic, indices: Sequence[int]
) -> Optional[BooleanSublogic]:
    """Smallest Boolean sublogic generated by a compatible set, or None.

    The blocks are the generating family plus the leftover of the ground
    set; all unions of block subfamilies form a field of sets inside the
    logic, which is verified rather than assumed.
    """
    family = is_compatible_set(logic, indices)
    if family is None:
        return None
    covered = 0
    for g in family:
        covered |= logic.elements[g]
    blocks = list(family)
    rest = logic.full_mask & ~covered
    if rest:
        blocks.append(logic.index_of(rest))
    if len(blocks) > _BLOCK_LIMIT:
        raise CapExceeded(f"{len(blocks)} blocks, above the limit of {_BLOCK_LIMIT}")

    unions = _subset_unions(logic.elements[g] for g in blocks)
    if any(bits not in logic.index for bits in unions):
        return None
    members = {logic.index[bits] for bits in unions}
    ordered = tuple(sorted(members))
    member_bits = {logic.elements[i] for i in ordered}

    checks = {
        "contains_inputs": all(i in members for i in indices),
        "complement_closed": all(
            (logic.full_mask ^ logic.elements[i]) in member_bits for i in ordered
        ),
        "intersection_closed": all(
            (logic.elements[i] & logic.elements[j]) in member_bits
            for i in ordered
            for j in ordered
        ),
    }
    if len(ordered) <= 64:
        bit_list = [logic.elements[i] for i in ordered]
        checks["distributive_triples"] = all(
            p | (q & r) == (p | q) & (p | r) for p, q, r in itertools.product(bit_list, repeat=3)
        )
    if not all(checks.values()):
        raise TheoremViolation(f"generated sublogic failed verification: {checks}")
    return BooleanSublogic(ordered, tuple(blocks), checks)


# -- one-box logics ----------------------------------------------------------


def _subset_unions(parts: Iterable[int]) -> list[int]:
    """Unions of the parts, indexed by subset bits: entry r is the union of
    the parts at the set bits of r, so entry 0 is empty."""
    table = [0]
    for bits in parts:
        table += [t | bits for t in table]
    return table


def _one_box_tables(gamma: GammaIndex, side: Side) -> list[list[int]]:
    """Per input of the side, its propositions indexed by outcome-subset bits."""
    return [
        _subset_unions(gamma.outcome_mask(side, a, o) for o in range(size))
        for a, size in enumerate(gamma.spec.sizes(side))
    ]


def _outcomes(r: int) -> list[int]:
    """The outcomes of the subset with bits r, ascending."""
    return [o for o in range(r.bit_length()) if r >> o & 1]


@dataclass
class PastingReport:
    """Shape of a one-box logic: Boolean blocks glued at bottom and top."""

    side: str
    element_count: int
    expected_count: int
    block_sizes: list[int]
    block_tables: list[list[int]]  # per input: outcome-subset mask -> element index
    flags: dict[str, bool]
    failures: list[dict]

    @property
    def ok(self) -> bool:
        return (
            self.element_count == self.expected_count
            and all(self.flags.values())
            and not self.failures
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def single_box_logic(
    gamma: GammaIndex, side: Side, *, big_logic: Optional[Logic] = None
) -> tuple[ConcreteLogic, PastingReport]:
    """One box's propositions, built directly from the scenario.

    The table holds every one-box proposition of the chosen side; the
    report verifies the block structure (one Boolean block per input,
    blocks meeting only at bottom and top) and, when the full two-box
    logic is supplied, that everything here lies inside it.
    """
    tables = _one_box_tables(gamma, side)
    box = ConcreteLogic(gamma.gamma_size, {bits for table in tables for bits in table})
    expected = sum(len(table) - 2 for table in tables) + 2

    failures: list[dict] = []
    block_tables = [[box.index_of(bits) for bits in table] for table in tables]
    for a, table in enumerate(block_tables):
        # block order and lattice ops must mirror the subset algebra of outcomes
        for r1, i1 in enumerate(table):
            for r2, i2 in enumerate(table):
                if box.leq(i1, i2) != (r1 & r2 == r1):
                    failures.append({"input": a, "kind": "order", "pair": [r1, r2]})
                if box.meet(i1, i2) != table[r1 & r2] or box.join(i1, i2) != table[r1 | r2]:
                    failures.append({"input": a, "kind": "lattice_ops", "pair": [r1, r2]})
    nontrivial_blocks = [set(table[1:-1]) for table in block_tables]
    top = block_tables[0][-1]

    cross_trivial = True
    for a1, a2 in itertools.combinations(range(len(tables)), 2):
        if nontrivial_blocks[a1] & nontrivial_blocks[a2]:
            cross_trivial = False
            failures.append({"kind": "blocks_share_elements", "inputs": [a1, a2]})
        for i1 in sorted(nontrivial_blocks[a1]):
            for i2 in sorted(nontrivial_blocks[a2]):
                if box.meet(i1, i2) != 0 or box.join(i1, i2) != top:
                    cross_trivial = False
                    failures.append({"kind": "cross_block_bounds", "pair": [i1, i2]})

    axioms = verify_axioms(box)
    lattice = is_lattice(box)
    flags = {
        "count_matches": len(box.elements) == expected,
        "blocks_pairwise_trivial": cross_trivial,
        "axioms_pass": axioms.all_passed,
        "orthomodular_lattice": axioms.all_passed and lattice is True,
    }
    if big_logic is not None:
        flags["inside_two_box_logic"] = all(e in big_logic.index for e in box.elements)
    blocks = [len(table) for table in tables]
    return box, PastingReport(
        side.value, len(box.elements), expected, blocks, block_tables, flags, failures
    )


# -- one-box propositions inside the two-box logic ---------------------------


def enumerate_localized(logic: Logic, side: Side) -> list[tuple[int, tuple[int, ...], int]]:
    """(input, outcome subset, element index) for the proper one-box propositions;
    one missing from the table raises ForeignElementError."""
    return [
        (a, tuple(_outcomes(r)), i)
        for a, r, i in _proper_propositions(_one_box_tables(logic.gamma, side), logic.index_of)
    ]


def _proper_propositions(tables: list[list[int]], lookup: Callable) -> list[tuple]:
    """(input, outcome-subset bits, lookup(proposition bits)) for all table
    entries but the first and last."""
    return [(a, r, lookup(t[r])) for a, t in enumerate(tables) for r in range(1, len(t) - 1)]


def localized_family_partition(
    logic: Logic,
    a: int,
    left_subsets: Sequence[Sequence[int]],
    b: int,
    right_subsets: Sequence[Sequence[int]],
) -> Optional[tuple[tuple[int, ...], bool]]:
    """Constructive generating family for one-box propositions on inputs a, b.

    Outcomes are grouped by their membership pattern across the given
    subsets, the outcomes in none of them forming one more group; the
    family consists of the rectangles (left group) x (right group), all
    but the one of the two outside groups.  Returns the family and whether
    it verifies, which it does not when a chosen proposition is missing
    from the table.  An empty, repeated or out-of-range outcome subset raises
    ScenarioError.
    """
    gamma = logic.gamma
    left_bits = [_subset_bits(gamma, Side.LEFT, a, sub) for sub in left_subsets]
    right_bits = [_subset_bits(gamma, Side.RIGHT, b, sub) for sub in right_subsets]
    left, right = _one_box_tables(gamma, Side.LEFT)[a], _one_box_tables(gamma, Side.RIGHT)[b]
    return _family_partition(logic, left, left_bits, right, right_bits)


def _subset_bits(gamma: GammaIndex, side: Side, k: int, outcomes: Sequence[int]) -> int:
    r = 0
    for o in LocalizedSpec(side, k, outcomes).outcomes:  # refuses an empty or repeated subset
        gamma.outcome_mask(side, k, o)  # refuses an input or outcome out of range
        r |= 1 << o
    return r


def _family_partition(
    logic: Logic, left: list[int], left_bits: list[int], right: list[int], right_bits: list[int]
) -> Optional[tuple[tuple[int, ...], bool]]:
    """localized_family_partition on the two inputs' tables, subsets as bits."""

    def groups(table: list[int], subsets: list[int]) -> dict[int, int]:
        # membership signature -> the outcomes that have it, both as bits
        out: dict[int, int] = {}
        for o in range(len(table).bit_length() - 1):  # the table has 2**size entries
            sig = sum(1 << k for k, r in enumerate(subsets) if r >> o & 1)
            out[sig] = out.get(sig, 0) | 1 << o
        return out

    right_groups = groups(right, right_bits).items()
    family = []
    for ls, lg in groups(left, left_bits).items():
        for rs, rg in right_groups:
            if ls or rs:
                idx = logic.index.get(left[lg] & right[rg])
                if idx is None:
                    return None
                family.append(idx)
    inputs = [logic.index.get(left[r]) for r in left_bits]
    inputs += [logic.index.get(right[s]) for s in right_bits]
    ok = None not in inputs and verify_generating_family(logic, inputs, family)
    return tuple(sorted(family)), ok


@dataclass
class LocalizedReport:
    cross_side: CheckResult
    same_side: CheckResult
    families: CheckResult
    meet_join_table: CheckResult
    distributivity_certificate: Optional[dict]

    @property
    def all_passed(self) -> bool:
        return (
            self.cross_side.passed
            and self.same_side.passed
            and self.families.passed
            and self.meet_join_table.passed
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "all_passed": self.all_passed}


def verify_localized_propositions(logic: Logic) -> LocalizedReport:
    """Exhaustive checks of one-box compatibility structure.

    Cross-side pairs must be compatible, with the rectangle split as
    witness; same-side pairs must be compatible exactly when they share
    the input; pairwise-compatible one-box families must admit the
    constructive generating family.  Each check stops at its first
    counterexample.  The distributivity certificate comes from the first
    incompatible same-side pair the scan passes that yields one.  A one-box
    proposition missing from the table is compatible with nothing and fails
    every check that takes it.
    """
    tables = {side: _one_box_tables(logic.gamma, side) for side in Side}
    props = {side: _proper_propositions(tables[side], logic.index.get) for side in Side}

    def compatible_pair(i: Optional[int], j: Optional[int]) -> bool:
        return None not in (i, j) and are_compatible(logic, i, j) is not None

    def cross_side() -> Iterator[Optional[dict]]:
        # a witness is the rectangle split (p & q, p - q, q - p) by construction
        for (a, r, ip), (b, s, iq) in itertools.product(props[Side.LEFT], props[Side.RIGHT]):
            compatible = compatible_pair(ip, iq)
            yield None if compatible else {"left": [a, _outcomes(r)], "right": [b, _outcomes(s)]}

    def same_side_pairs():
        for side in Side:
            for first, second in itertools.product(props[side], repeat=2):
                yield side, first, second

    def where(side: Side, first: tuple, second: tuple) -> dict:
        (a1, r1, _), (a2, r2, _) = first, second
        return {"side": side.value, "first": [a1, _outcomes(r1)], "second": [a2, _outcomes(r2)]}

    certificate = None

    def same_side() -> Iterator[Optional[dict]]:
        nonlocal certificate
        for side, first, second in same_side_pairs():
            (a1, _, i1), (a2, _, i2) = first, second
            compatible = compatible_pair(i1, i2)
            if compatible != (a1 == a2):
                yield {**where(side, first, second), "compatible": compatible}
                return
            if not compatible and certificate is None and None not in (i1, i2):
                certificate = _distributivity_certificate(logic, i1, i2)
            yield None

    def families() -> Iterator[Optional[dict]]:
        by_input = {
            side: [(a, list(items)) for a, items in itertools.groupby(props[side], key=itemgetter(0))]
            for side in Side
        }
        for (a, lefts), (b, rights) in itertools.product(*by_input.values()):
            left, right = tables[Side.LEFT][a], tables[Side.RIGHT][b]
            for k, l in itertools.product(range(_FAMILY_BOUND + 1), repeat=2):
                if k + l < 2:
                    continue
                for lchoice, rchoice in itertools.product(
                    itertools.combinations(lefts, k), itertools.combinations(rights, l)
                ):
                    left_bits = [r for _, r, _ in lchoice]
                    right_bits = [s for _, s, _ in rchoice]
                    indices = [i for _, _, i in lchoice + rchoice]
                    built = _family_partition(logic, left, left_bits, right, right_bits)
                    ok = (
                        built is not None
                        and built[1]
                        and (family := is_compatible_set(logic, indices)) is not None
                        and verify_generating_family(logic, indices, family)
                    )
                    yield None if ok else {
                        "a": a,
                        "b": b,
                        "left": list(map(_outcomes, left_bits)),
                        "right": list(map(_outcomes, right_bits)),
                    }

    def meet_join_table() -> Iterator[Optional[dict]]:
        # a wanted meet or join missing from the table fails the pair
        for side, first, second in same_side_pairs():
            (a1, r1, i1), (a2, r2, i2) = first, second
            table = tables[side][a1]
            bits = (table[r1 & r2], table[r1 | r2]) if a1 == a2 else (0, logic.full_mask)
            want = tuple(map(logic.index.get, bits))
            ok = None not in (i1, i2, *want) and (logic.meet(i1, i2), logic.join(i1, i2)) == want
            yield None if ok else where(side, first, second)

    same = _first_failure(same_side())  # fills in the certificate
    return LocalizedReport(
        _first_failure(cross_side()),
        same,
        _first_failure(families()),
        _first_failure(meet_join_table()),
        certificate,
    )


def _distributivity_certificate(logic: ConcreteLogic, i1: int, i2: int) -> Optional[dict]:
    """Concrete distributivity failure for p, its complement, and q."""
    c1 = logic.complement_map[i1]
    if c1 is None:
        return None
    inner = logic.meet(c1, i2)
    if inner is None:
        return None
    lhs = logic.join(i1, inner)
    j1 = logic.join(i1, c1)
    j2 = logic.join(i1, i2)
    if j1 is None or j2 is None:
        return None
    rhs = logic.meet(j1, j2)
    return {
        "p": i1,
        "q": i2,
        "lhs_join_p_meet_pc_q": lhs,
        "rhs_meet_join_p_pc_join_p_q": rhs,
        "distributive": lhs == rhs,
    }
