"""Compatibility structure of a logic.

Two elements are compatible when they split into pairwise-disjoint pieces
``p = only_first + shared`` and ``q = only_second + shared`` inside the
logic; a finite set is compatible when one mutually-disjoint refinement
generates every member.  Compatible families embed into Boolean
sublogics, and the one-box part of a scenario logic is a bundle of
Boolean blocks glued at bottom and top.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CapExceeded, TheoremViolation
from .logic import CheckResult, ConcreteLogic, Logic, _first_failure, is_lattice, verify_axioms
from .scenario import GammaIndex, Side

DEFAULT_SET_BOUND = 12
DEFAULT_BLOCK_LIMIT = 14


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
    p, q = logic.elements[i], logic.elements[j]
    shared = logic.index.get(p & q)
    only_p = logic.index.get(p & ~q)
    only_q = logic.index.get(q & ~p)
    if shared is None or only_p is None or only_q is None:
        return None
    return CompatibilityWitness(only_p, only_q, shared)


def is_compatible_set(
    logic: ConcreteLogic,
    indices: Sequence[int],
    *,
    bound: int = DEFAULT_SET_BOUND,
) -> Optional[tuple[int, ...]]:
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
    if len(elems) > bound:
        raise CapExceeded(f"{len(elems)} elements, above the bound of {bound}")
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
    logic: ConcreteLogic,
    indices: Sequence[int],
    *,
    bound: int = DEFAULT_SET_BOUND,
    block_limit: int = DEFAULT_BLOCK_LIMIT,
) -> Optional[BooleanSublogic]:
    """Smallest Boolean sublogic generated by a compatible set, or None.

    The blocks are the generating family plus the leftover of the ground
    set; all unions of block subfamilies form a field of sets inside the
    logic, which is verified rather than assumed.
    """
    family = is_compatible_set(logic, indices, bound=bound)
    if family is None:
        return None
    covered = 0
    for g in family:
        covered |= logic.elements[g]
    blocks = list(family)
    rest = logic.full_mask & ~covered
    if rest:
        blocks.append(logic.index_of(rest))
    if len(blocks) > block_limit:
        raise CapExceeded(f"{len(blocks)} blocks, above the limit of {block_limit}")

    members: set[int] = set()
    for r in range(1 << len(blocks)):
        bits = 0
        for k, g in enumerate(blocks):
            if r & (1 << k):
                bits |= logic.elements[g]
        idx = logic.index.get(bits)
        if idx is None:
            return None
        members.add(idx)
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
        ok = True
        bit_list = [logic.elements[i] for i in ordered]
        for p, q, r in itertools.product(bit_list, repeat=3):
            if (p | (q & r)) != ((p | q) & (p | r)):
                ok = False
                break
        checks["distributive_triples"] = ok
    if not all(checks.values()):
        raise TheoremViolation(
            f"generated sublogic failed verification: {checks}"
        )
    return BooleanSublogic(ordered, tuple(blocks), checks)


# -- one-box logics ----------------------------------------------------------


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


def localized_bits(gamma: GammaIndex, side: Side, input_index: int, outcomes: Iterable[int]) -> int:
    out = 0
    for o in outcomes:
        out |= gamma.outcome_mask(side, input_index, o)
    return out


def single_box_logic(
    gamma: GammaIndex,
    side: Side,
    *,
    big_logic: Optional[Logic] = None,
) -> tuple[ConcreteLogic, PastingReport]:
    """One box's propositions, built directly from the scenario.

    The table holds every one-box proposition of the chosen side; the
    report verifies the block structure (one Boolean block per input,
    blocks meeting only at bottom and top) and, when the full two-box
    logic is supplied, that everything here lies inside it.
    """
    sizes = gamma.spec.sizes(side)
    elements: set[int] = {0, gamma.full_mask}
    for a, size in enumerate(sizes):
        for r in range(1, (1 << size) - 1):
            outcomes = [o for o in range(size) if r & (1 << o)]
            elements.add(localized_bits(gamma, side, a, outcomes))
    box = ConcreteLogic(gamma.gamma_size, elements)
    expected = sum((1 << s) - 2 for s in sizes) + 2

    failures: list[dict] = []
    block_tables: list[list[int]] = []
    nontrivial_blocks: list[set[int]] = []
    for a, size in enumerate(sizes):
        table = []
        for r in range(1 << size):
            outcomes = [o for o in range(size) if r & (1 << o)]
            bits = localized_bits(gamma, side, a, outcomes) if outcomes else 0
            table.append(box.index_of(bits))
        block_tables.append(table)
        nontrivial_blocks.append(
            {idx for r, idx in enumerate(table) if 0 < r < (1 << size) - 1}
        )
        # block order and lattice ops must mirror the subset algebra of outcomes
        for r1 in range(1 << size):
            for r2 in range(1 << size):
                i1, i2 = table[r1], table[r2]
                if box.leq(i1, i2) != (r1 & r2 == r1):
                    failures.append({"input": a, "kind": "order", "pair": [r1, r2]})
                if box.meet(i1, i2) != table[r1 & r2] or box.join(i1, i2) != table[r1 | r2]:
                    failures.append({"input": a, "kind": "lattice_ops", "pair": [r1, r2]})

    cross_trivial = True
    for a1 in range(len(sizes)):
        for a2 in range(a1 + 1, len(sizes)):
            if nontrivial_blocks[a1] & nontrivial_blocks[a2]:
                cross_trivial = False
                failures.append({"kind": "blocks_share_elements", "inputs": [a1, a2]})
            for i1 in sorted(nontrivial_blocks[a1]):
                for i2 in sorted(nontrivial_blocks[a2]):
                    if box.meet(i1, i2) != 0 or box.join(i1, i2) != box.index_of(
                        box.full_mask
                    ):
                        cross_trivial = False
                        failures.append(
                            {"kind": "cross_block_bounds", "pair": [i1, i2]}
                        )

    axioms = verify_axioms(box)
    lattice = is_lattice(box)
    flags = {
        "count_matches": len(box.elements) == expected,
        "blocks_pairwise_trivial": cross_trivial,
        "axioms_pass": axioms.all_passed,
        "orthomodular_lattice": axioms.all_passed and lattice is True,
    }
    if big_logic is not None:
        flags["inside_two_box_logic"] = all(
            e in big_logic.index for e in box.elements
        )
    report = PastingReport(
        side=side.value,
        element_count=len(box.elements),
        expected_count=expected,
        block_sizes=[1 << s for s in sizes],
        block_tables=block_tables,
        flags=flags,
        failures=failures,
    )
    return box, report


# -- one-box propositions inside the two-box logic ---------------------------


def enumerate_localized(
    logic: Logic, side: Side, *, proper_only: bool = True
) -> list[tuple[int, tuple[int, ...], int]]:
    """(input, outcome subset, element index) for one-box propositions."""
    sizes = logic.spec.sizes(side)
    out = []
    for a, size in enumerate(sizes):
        top = (1 << size) - 1
        for r in range(1, top + 1):
            if proper_only and r == top:
                continue
            outcomes = tuple(o for o in range(size) if r & (1 << o))
            bits = localized_bits(logic.gamma, side, a, outcomes)
            out.append((a, outcomes, logic.index_of(bits)))
    return out


def localized_family_partition(
    logic: Logic,
    a: int,
    left_subsets: Sequence[Sequence[int]],
    b: int,
    right_subsets: Sequence[Sequence[int]],
) -> Optional[tuple[tuple[int, ...], bool]]:
    """Constructive generating family for one-box propositions on inputs a, b.

    Outcomes are grouped by their membership pattern across the given
    subsets; the family consists of the rectangles (left group) x (right
    group), (left group) x (outcomes outside all right subsets), and
    symmetrically.  Returns the family and whether it verifies.
    """
    gamma = logic.gamma
    la = logic.spec.left_sizes[a]
    rb = logic.spec.right_sizes[b]
    left_union = sorted({o for sub in left_subsets for o in sub})
    right_union = sorted({o for sub in right_subsets for o in sub})

    def groups(union: list[int], subsets: Sequence[Sequence[int]]) -> list[list[int]]:
        by_sig: dict[tuple[bool, ...], list[int]] = {}
        for o in union:
            sig = tuple(o in set(sub) for sub in subsets)
            by_sig.setdefault(sig, []).append(o)
        return [sorted(v) for _, v in sorted(by_sig.items(), key=lambda kv: kv[1])]

    left_groups = groups(left_union, left_subsets)
    right_groups = groups(right_union, right_subsets)
    left_rest = [o for o in range(la) if o not in set(left_union)]
    right_rest = [o for o in range(rb) if o not in set(right_union)]

    def rectangle(left_outcomes: Sequence[int], right_outcomes: Sequence[int]) -> int:
        lmask = localized_bits(gamma, Side.LEFT, a, left_outcomes)
        rmask = localized_bits(gamma, Side.RIGHT, b, right_outcomes)
        return lmask & rmask

    pieces: list[int] = []
    for lg in left_groups:
        if right_rest:
            pieces.append(rectangle(lg, right_rest))
        for rg in right_groups:
            pieces.append(rectangle(lg, rg))
    for rg in right_groups:
        if left_rest:
            pieces.append(rectangle(left_rest, rg))
    pieces = [p for p in pieces if p]

    family = []
    for p in pieces:
        idx = logic.index.get(p)
        if idx is None:
            return None
        family.append(idx)
    inputs = [
        logic.index_of(localized_bits(gamma, Side.LEFT, a, sub)) for sub in left_subsets
    ] + [
        logic.index_of(localized_bits(gamma, Side.RIGHT, b, sub))
        for sub in right_subsets
    ]
    ok = verify_generating_family(logic, inputs, family)
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


def verify_localized_propositions(
    logic: Logic, *, family_bound: int = 2
) -> LocalizedReport:
    """Exhaustive checks of one-box compatibility structure.

    Cross-side pairs must be compatible with the explicit rectangle
    witness; same-side pairs must be compatible exactly when they share
    the input; pairwise-compatible one-box families must admit the
    constructive generating family.  Each check stops at its first
    counterexample.  The distributivity certificate comes from the first
    incompatible same-side pair the scan passes that yields one.
    """
    gamma = logic.gamma
    props = {side: enumerate_localized(logic, side) for side in Side}

    def cross_side() -> Iterator[Optional[dict]]:
        for (a, P, ip), (b, Q, iq) in itertools.product(props[Side.LEFT], props[Side.RIGHT]):
            where = {"left": [a, list(P)], "right": [b, list(Q)]}
            w = are_compatible(logic, ip, iq)
            if w is None:
                yield where
                return
            # explicit rectangle split of the two propositions
            p, q = logic.elements[ip], logic.elements[iq]
            split = tuple(logic.elements[k] for k in (w.shared, w.only_first, w.only_second))
            yield None if split == (p & q, p & ~q, q & ~p) else {**where, "kind": "witness"}

    def same_side_pairs():
        for side in Side:
            for first, second in itertools.product(props[side], repeat=2):
                where = {
                    "side": side.value,
                    "first": [first[0], list(first[1])],
                    "second": [second[0], list(second[1])],
                }
                yield side, first, second, where

    certificate = None

    def same_side() -> Iterator[Optional[dict]]:
        nonlocal certificate
        for _, (a1, _, i1), (a2, _, i2), where in same_side_pairs():
            compatible = are_compatible(logic, i1, i2) is not None
            if compatible != (a1 == a2):
                yield {**where, "compatible": compatible}
                return
            if not compatible and certificate is None:
                certificate = _distributivity_certificate(logic, i1, i2)
            yield None

    def families() -> Iterator[Optional[dict]]:
        by_input = {
            side: [(a, list(items)) for a, items in itertools.groupby(props[side], key=itemgetter(0))]
            for side in Side
        }
        for (a, lefts), (b, rights) in itertools.product(*by_input.values()):
            for k, l in itertools.product(range(family_bound + 1), repeat=2):
                if k + l < 2:
                    continue
                for lchoice, rchoice in itertools.product(
                    itertools.combinations(lefts, k), itertools.combinations(rights, l)
                ):
                    left_sets = [list(P) for _, P, _ in lchoice]
                    right_sets = [list(Q) for _, Q, _ in rchoice]
                    indices = [i for _, _, i in lchoice + rchoice]
                    family = is_compatible_set(logic, indices)
                    built = localized_family_partition(logic, a, left_sets, b, right_sets)
                    ok = (
                        family is not None
                        and verify_generating_family(logic, indices, family)
                        and built is not None
                        and built[1]
                    )
                    yield None if ok else {"a": a, "b": b, "left": left_sets, "right": right_sets}

    def meet_join_table() -> Iterator[Optional[dict]]:
        for side, (a1, P, i1), (a2, Q, i2), where in same_side_pairs():
            if a1 != a2:
                want = (logic.index_of(0), logic.index_of(logic.full_mask))
            else:
                want = tuple(
                    logic.index_of(localized_bits(gamma, side, a1, outcomes))
                    for outcomes in (set(P) & set(Q), set(P) | set(Q))
                )
            yield None if (logic.meet(i1, i2), logic.join(i1, i2)) == want else where

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
