"""Probability tables on scenarios and additive states on their logics.

All arithmetic in this module is exact: tables hold ``fractions.Fraction``
entries and states store one shared denominator with integer numerators.
Floating-point input is rejected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Optional, Sequence, Union

import numpy as np

from .errors import StateError, TheoremViolation, WellDefinednessViolation
from .logic import ConcreteLogic, Logic, _bit_indices
from .scenario import AtomId, BoxWorldSpec

_INT64_SAFE = 2**62

RationalLike = Union[Fraction, int, str]


def _as_fraction(value: RationalLike, where: str = "") -> Fraction:
    if isinstance(value, float):
        raise StateError(f"float {value!r} rejected{where}; use exact rationals")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise StateError(f"bad rational {value!r}{where}: {exc}") from exc


@dataclass(frozen=True)
class PRState:
    """Conditional outcome table P(alpha beta | a b) with exact entries."""

    spec: BoxWorldSpec
    table: tuple[tuple[tuple[tuple[Fraction, ...], ...], ...], ...]

    @classmethod
    def from_function(cls, spec: BoxWorldSpec, fn) -> "PRState":
        table = tuple(
            tuple(
                tuple(
                    tuple(
                        _as_fraction(fn(a, b, alpha, beta), f" at {(a, b, alpha, beta)}")
                        for beta in range(rb)
                    )
                    for alpha in range(la)
                )
                for b, rb in enumerate(spec.right_sizes)
            )
            for a, la in enumerate(spec.left_sizes)
        )
        return cls(spec, table)

    @classmethod
    def from_nested(cls, spec: BoxWorldSpec, nested) -> "PRState":
        """Build from nested sequences indexed [a][b][alpha][beta]."""

        def fn(a, b, alpha, beta):
            try:
                return nested[a][b][alpha][beta]
            except (IndexError, KeyError, TypeError) as exc:
                raise StateError(
                    f"missing table entry for {(a, b, alpha, beta)}"
                ) from exc

        return cls.from_function(spec, fn)

    @classmethod
    def uniform(cls, spec: BoxWorldSpec) -> "PRState":
        sizes_l, sizes_r = spec.left_sizes, spec.right_sizes
        return cls.from_function(
            spec, lambda a, b, alpha, beta: Fraction(1, sizes_l[a] * sizes_r[b])
        )

    @classmethod
    def deterministic(
        cls, spec: BoxWorldSpec, xs: Sequence[int], ys: Sequence[int]
    ) -> "PRState":
        """The table of a joint deterministic assignment of outcomes."""
        return cls.from_function(
            spec,
            lambda a, b, alpha, beta: Fraction(int(xs[a] == alpha and ys[b] == beta)),
        )

    def value(self, a: int, b: int, alpha: int, beta: int) -> Fraction:
        return self.table[a][b][alpha][beta]

    def atom_value(self, atom: AtomId) -> Fraction:
        return self.table[atom.a][atom.b][atom.alpha][atom.beta]


@dataclass(frozen=True)
class Violation:
    kind: str
    where: dict
    residual: Fraction

    def to_dict(self) -> dict:
        return {"kind": self.kind, "where": self.where, "residual": str(self.residual)}


def validate_pr_state(pr: PRState) -> list[Violation]:
    """All constraint violations of a table: sign, normalization, marginals."""
    spec = pr.spec
    out: list[Violation] = []
    for a, la in enumerate(spec.left_sizes):
        for b, rb in enumerate(spec.right_sizes):
            total = Fraction(0)
            for alpha in range(la):
                for beta in range(rb):
                    v = pr.value(a, b, alpha, beta)
                    total += v
                    if v < 0:
                        out.append(
                            Violation(
                                "negative",
                                {"a": a, "b": b, "alpha": alpha, "beta": beta},
                                v,
                            )
                        )
            if total != 1:
                out.append(Violation("normalization", {"a": a, "b": b}, total - 1))
    # the outcome distribution of one box may not depend on the other box's input
    for b, rb in enumerate(spec.right_sizes):
        for beta in range(rb):
            ref = sum(pr.value(0, b, alpha, beta) for alpha in range(spec.left_sizes[0]))
            for a in range(1, len(spec.left_sizes)):
                got = sum(
                    pr.value(a, b, alpha, beta) for alpha in range(spec.left_sizes[a])
                )
                if got != ref:
                    out.append(
                        Violation(
                            "right_marginal_depends_on_left_input",
                            {"b": b, "beta": beta, "a": a, "reference_a": 0},
                            got - ref,
                        )
                    )
    for a, la in enumerate(spec.left_sizes):
        for alpha in range(la):
            ref = sum(pr.value(a, 0, alpha, beta) for beta in range(spec.right_sizes[0]))
            for b in range(1, len(spec.right_sizes)):
                got = sum(
                    pr.value(a, b, alpha, beta) for beta in range(spec.right_sizes[b])
                )
                if got != ref:
                    out.append(
                        Violation(
                            "left_marginal_depends_on_right_input",
                            {"a": a, "alpha": alpha, "b": b, "reference_b": 0},
                            got - ref,
                        )
                    )
    return out


class LogicState:
    """Normalized additive map on a logic's elements, held exactly.

    ``additive_checked`` records that additivity over disjoint unions has
    been established, either by the construction (point states; tables
    passing the all-partitions check) or by an explicit scan.
    """

    __slots__ = ("logic", "denominator", "numerators", "additive_checked")

    def __init__(
        self,
        logic: ConcreteLogic,
        denominator: int,
        numerators: Sequence[int],
        *,
        additive_checked: bool = False,
    ):
        if denominator <= 0:
            raise StateError("denominator must be positive")
        nums = [int(v) for v in numerators]
        if len(nums) != len(logic.elements):
            raise StateError("one value per logic element is required")
        g = denominator
        for v in nums:
            g = gcd(g, v)
        if g > 1:
            denominator //= g
            nums = [v // g for v in nums]
        self.logic = logic
        self.denominator = denominator
        self.numerators = tuple(int(v) for v in nums)
        self.additive_checked = additive_checked

    def value(self, i: int) -> Fraction:
        self.logic._check(i)
        return Fraction(self.numerators[i], self.denominator)

    def value_of_bits(self, bits: int) -> Fraction:
        return self.value(self.logic.index_of(bits))

    def is_two_valued(self) -> bool:
        return all(v in (0, self.denominator) for v in self.numerators)

    def scaled_int64(self) -> Optional[np.ndarray]:
        """Numerators as an int64 array, or None when they do not fit."""
        if self.denominator >= _INT64_SAFE:
            return None
        return np.array(self.numerators, dtype=np.int64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogicState):
            return NotImplemented
        return (
            self.logic is other.logic
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self) -> int:
        return hash((id(self.logic), self.denominator, self.numerators))


class _StateTables:
    """Per-logic index arrays shared by every state computation."""

    def __init__(self, logic: ConcreteLogic):
        n = len(logic.elements)
        natoms = len(logic.atom_bits)
        canon: list[tuple[int, ...]] = []
        for i in range(n):
            dec = logic.decomposition(i)
            if dec is None:
                raise TheoremViolation(
                    f"element {i} admits no atomic partition; states are undefined"
                )
            canon.append(dec)
        width = max((len(d) for d in canon), default=0)
        # sentinel atom position natoms carries value 0 in padded sums
        self.canon = np.full((n, max(width, 1)), natoms, dtype=np.int64)
        for i, dec in enumerate(canon):
            for k, pos in enumerate(dec):
                self.canon[i, k] = pos
        rows_elem: list[int] = []
        rows: list[tuple[int, ...]] = []
        for i in range(n):
            for dec in logic.all_decompositions(i):
                rows_elem.append(i)
                rows.append(dec)
        rwidth = max((len(d) for d in rows), default=0)
        self.rows_elem = np.array(rows_elem, dtype=np.int64)
        self.rows = np.full((len(rows), max(rwidth, 1)), natoms, dtype=np.int64)
        for r, dec in enumerate(rows):
            for k, pos in enumerate(dec):
                self.rows[r, k] = pos
        self.natoms = natoms
        self.canon_lists = canon
        self.row_lists = list(zip(rows_elem, rows))


def _state_tables(logic: ConcreteLogic) -> _StateTables:
    tables = getattr(logic, "_state_tables_cache", None)
    if tables is None:
        tables = _StateTables(logic)
        logic._state_tables_cache = tables  # type: ignore[attr-defined]
    return tables


def state_from_pr(logic: Logic, pr: PRState, *, validate: bool = True) -> LogicState:
    """Extend a table to the whole logic through atomic partitions.

    The value of an element is the sum of its atoms' table entries; every
    atomic partition of every element is checked to give the same sum, and
    a mismatch raises WellDefinednessViolation.  Passing that check makes
    the state additive: for disjoint p, q the concatenation of their
    partitions is a partition of the union.
    """
    if validate:
        violations = validate_pr_state(pr)
        if violations:
            raise StateError(
                f"table violates {len(violations)} constraint(s); "
                f"first: {violations[0].to_dict()}"
            )
    tables = _state_tables(logic)
    atom_fracs = [pr.atom_value(aid) for aid in logic.atom_ids]
    den = 1
    for f in atom_fracs:
        den = lcm(den, f.denominator)
    atom_nums = [int(f * den) for f in atom_fracs]

    width = tables.rows.shape[1] if tables.rows.size else 1
    if 0 < den * max(width, 1) < _INT64_SAFE:
        vals = np.array(atom_nums + [0], dtype=np.int64)
        elem_nums = vals[tables.canon].sum(axis=1)
        row_sums = vals[tables.rows].sum(axis=1)
        bad = np.nonzero(row_sums != elem_nums[tables.rows_elem])[0]
        if bad.size:
            r = int(bad[0])
            raise WellDefinednessViolation(
                f"element {int(tables.rows_elem[r])}: partition "
                f"{tuple(int(x) for x in tables.rows[r] if x < tables.natoms)} sums to "
                f"{Fraction(int(row_sums[r]), den)} but the canonical partition gives "
                f"{Fraction(int(elem_nums[tables.rows_elem[r]]), den)}"
            )
        nums = [int(v) for v in elem_nums]
    else:
        nums = [sum(atom_nums[pos] for pos in dec) for dec in tables.canon_lists]
        for i, dec in tables.row_lists:
            s = sum(atom_nums[pos] for pos in dec)
            if s != nums[i]:
                raise WellDefinednessViolation(
                    f"element {i}: partition {dec} sums to {Fraction(s, den)} "
                    f"but the canonical partition gives {Fraction(nums[i], den)}"
                )
    return LogicState(logic, den, nums, additive_checked=True)


def pr_from_state(state: LogicState) -> PRState:
    """Read the table back off a state; the result always validates."""
    logic = state.logic
    if not isinstance(logic, Logic):
        raise StateError("a scenario logic is required to extract a table")
    if not state.additive_checked:
        failure = _first_additivity_failure(state)
        if failure is not None:
            i, j, u = failure
            raise StateError(
                f"state is not additive: elements {i} and {j} are disjoint with "
                f"union {u}, but values do not add"
            )
        state.additive_checked = True
    if state.numerators[logic.index_of(logic.full_mask)] != state.denominator:
        raise StateError("state does not assign 1 to the full set")
    if any(not 0 <= v <= state.denominator for v in state.numerators):
        raise StateError("state values leave [0, 1]")

    by_atom = {
        aid: state.value(logic.atom_indices[pos])
        for pos, aid in enumerate(logic.atom_ids)
    }
    pr = PRState.from_function(
        logic.spec, lambda a, b, alpha, beta: by_atom[AtomId(a, alpha, b, beta)]
    )
    violations = validate_pr_state(pr)
    if violations:
        raise TheoremViolation(
            "an additive state produced an invalid table: "
            + "; ".join(str(v.to_dict()) for v in violations[:3])
        )
    return pr


def _disjoint_union_targets(logic: ConcreteLogic) -> np.ndarray:
    targets = getattr(logic, "_disjoint_union_cache", None)
    if targets is None:
        lefts, rights = logic.disjoint_pairs()
        elements = logic.elements
        index = logic.index
        out = np.empty(len(lefts), dtype=np.int64)
        for k, (i, j) in enumerate(zip(lefts.tolist(), rights.tolist())):
            out[k] = index.get(elements[i] | elements[j], -1)
        logic._disjoint_union_cache = out  # type: ignore[attr-defined]
        targets = out
    return targets


def _first_additivity_failure(state: LogicState) -> Optional[tuple[int, int, int]]:
    logic = state.logic
    lefts, rights = logic.disjoint_pairs()
    targets = _disjoint_union_targets(logic)
    missing = np.nonzero(targets < 0)[0]
    if missing.size:
        k = int(missing[0])
        raise TheoremViolation(
            f"disjoint elements {int(lefts[k])}, {int(rights[k])} have no union in the table"
        )
    scaled = state.scaled_int64()
    if scaled is not None:
        bad = np.nonzero(scaled[lefts] + scaled[rights] != scaled[targets])[0]
        if not bad.size:
            return None
        k = int(bad[0])
    else:
        nums = state.numerators
        for k in range(len(lefts)):
            if nums[int(lefts[k])] + nums[int(rights[k])] != nums[int(targets[k])]:
                break
        else:
            return None
    return int(lefts[k]), int(rights[k]), int(targets[k])


def verify_state_additivity(state: LogicState) -> bool:
    """Explicit additivity scan over every disjoint pair of elements."""
    ok = _first_additivity_failure(state) is None
    if ok:
        state.additive_checked = True
    return ok


def point_state(logic: ConcreteLogic, point_index: int) -> LogicState:
    """The two-valued state of one sample point: membership as probability.

    Indicators are additive over disjoint unions by construction.
    """
    if not 0 <= point_index < logic.ground_size:
        raise StateError(f"point index {point_index} out of range")
    bit = 1 << point_index
    nums = [1 if e & bit else 0 for e in logic.elements]
    return LogicState(logic, 1, nums, additive_checked=True)


def convex_combination(
    states: Sequence[PRState], weights: Sequence[RationalLike]
) -> PRState:
    if len(states) != len(weights) or not states:
        raise StateError("need equally many tables and weights")
    ws = [_as_fraction(w, " in weights") for w in weights]
    if any(w < 0 for w in ws) or sum(ws) != 1:
        raise StateError("weights must be non-negative and sum to one")
    spec = states[0].spec
    return PRState.from_function(
        spec,
        lambda a, b, alpha, beta: sum(
            (w * s.value(a, b, alpha, beta) for w, s in zip(ws, states)),
            Fraction(0),
        ),
    )


def sample_pr_states(
    vertices: Sequence[PRState],
    count: int,
    seed: int,
    *,
    max_support: int = 6,
    max_weight: int = 9,
) -> list[PRState]:
    """Seeded rational mixtures of the given extreme tables."""
    if not vertices:
        raise StateError("no vertices to mix")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randint(1, min(max_support, len(vertices)))
        support = rng.sample(range(len(vertices)), size)
        raw = [rng.randint(1, max_weight) for _ in support]
        total = sum(raw)
        weights = [Fraction(w, total) for w in raw]
        out.append(convex_combination([vertices[i] for i in support], weights))
    return out


# -- states determine the order ------------------------------------------


@dataclass
class OrderDeterminingReport:
    ok: bool
    states_used: int
    comparable_pairs_skipped: int
    noncomparable_pairs: int
    failures: list[dict]
    strategy: str

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "states_used": self.states_used,
            "comparable_pairs_skipped": self.comparable_pairs_skipped,
            "noncomparable_pairs": self.noncomparable_pairs,
            "failures": self.failures,
            "strategy": self.strategy,
        }


def check_order_determining(
    logic: ConcreteLogic,
    states: Sequence[LogicState],
    *,
    failure_limit: int = 20,
    scan_limit: int = 128,
) -> OrderDeterminingReport:
    """For every pair p not below q, find a state with value(p) > value(q).

    Pairs with p below q are skipped.  On tables up to ``scan_limit``
    elements every other pair is scanned against all states.  Larger
    tables first certify sample points: a point is certified when some
    state equals that point's indicator exactly on every element (1 on
    the elements containing it, 0 elsewhere).  That state witnesses every
    pair whose difference p minus q holds the point, so only the pairs
    whose difference lies inside the uncertified points go to the
    all-states scan.  Both paths report the first ``failure_limit``
    unwitnessed pairs in ascending (p, q) order.
    """
    n = len(logic.elements)
    comparable = len(logic.comparable_pairs()[0])
    if n <= scan_limit:
        certified, strategy = 0, "full scan"
    else:
        certified = _certified_points(logic, states)
        strategy = "point-state witnesses, verified against stored values"

    def unwitnessed():
        for p, bits in enumerate(logic.elements):
            # q containing every certified point of p: no certificate applies
            open_qs = logic.containing(bits & certified) & ~logic.containing(bits)
            for q in _bit_indices(open_qs):
                if not any(s.numerators[p] > s.numerators[q] for s in states):
                    yield {"p": p, "q": q}

    failures = list(islice(unwitnessed(), failure_limit))
    return OrderDeterminingReport(
        not failures, len(states), comparable, n * n - comparable, failures, strategy
    )


def _certified_points(logic: ConcreteLogic, states: Sequence[LogicState]) -> int:
    """Mask of the sample points whose indicator is one of the states."""
    points_by_column: dict[int, int] = {}
    for x in range(logic.ground_size):
        col = logic.containing(1 << x)
        points_by_column[col] = points_by_column.get(col, 0) | 1 << x
    certified = 0
    for s in states:
        if s.is_two_valued():
            ones = "".join("1" if v else "0" for v in reversed(s.numerators))
            certified |= points_by_column.get(int("0" + ones, 2), 0)
    return certified


def verify_state_monotonicity(
    logic: ConcreteLogic, states: Sequence[LogicState]
) -> tuple[bool, int]:
    """Every state respects the order: value(p) <= value(q) whenever p <= q."""
    lows, highs = logic.comparable_pairs()
    checked = 0
    for s in states:
        arr = s.scaled_int64()
        if arr is not None:
            if np.any(arr[lows] > arr[highs]):
                return False, checked
        else:
            for i, j in zip(lows.tolist(), highs.tolist()):
                if s.numerators[i] > s.numerators[j]:
                    return False, checked
        checked += len(lows)
    return True, checked
