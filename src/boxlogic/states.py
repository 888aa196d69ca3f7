"""Probability tables on scenarios and additive states on their logics.

All arithmetic in this module is exact: tables hold ``fractions.Fraction``
entries and states store one shared denominator with integer numerators.
Floating-point input is rejected.

Tables and states meet in one kernel, which takes one table at a time: a
row x of integers (one per atom in ``all_atom_ids(spec)`` order, which is
both ``logic.atom_ids`` and ``ns_polytope``'s variables) over a positive
denominator, reduced to lowest terms.  The kernel's linear maps are fixed
per logic:

- E, the ``ns_polytope`` equality rows (normalization and both marginal
  families), from the list ``polytope._ns_conditions`` that
  ``validate_pr_state`` also walks: x is a table when x >= 0 and
  E x == den * rhs;
- C, the incidence of the lexicographically least atomic partitions: the
  element values are V = C x.  Into each nonzero element u, the step
  p -> u whose atom a comes first gives C(u) = C(p) + e_a, and ``values``
  sums V along these first steps;
- W, the distinct nonzero rows C(p) + e_a - C(p | a) over the atom steps
  p -> p | a: V is well defined when W x == 0.

Every entry is 0, 1 or -1, so E and W split into positive and negative
parts, and each table is packed into two Python ints, one lane of w bits
per row of E and of W: P = sum(x_a * plus_a), with plus_a atom a's column
of the positive parts, and Q = sum(x_a * minus_a) + den * rhs, with
minus_a its column of the negative parts and rhs the right-hand sides.  A
row with a negative entry is not a table and is refused before packing
(``pack`` moves a negative entry's weight to the other side, for the
tables ``check`` takes unvalidated).  Every lane of P or Q adds at most
A + 1 terms of magnitude at most M = max(|x|, den), so with w the first
power of two from 8 that holds (A + 1) * M and one guard bit, no lane
carries into the next.  ``check``, the kernel's one entry, packs a table
once and compares packed ints: the table is valid when the E lanes of P
and Q agree, and well defined when the W lanes agree.  V is not packed:
it is summed only for the tables whose values are read (``state_from_pr``)
and to name the first failing step.  Nothing else is compared: a table
that passes both reads back as x, with V(full) = den and 0 <= V <= den
(see ``check_table_rows``).

``check_table_rows``, the state section of a verification, passes its vertex
and mixture rows through ``check`` one at a time for validity and step
additivity alone.  Order determination needs no vertex: it takes the
kernel's verdict on each sample point's deterministic table
(``_order_from_points``).  An accepted table's state is that point's
indicator, since every canonical partition of u is a partition of u, and
the indicator witnesses every pair p not below q with the point in
p - q.  Monotonicity needs no pass: validation gives x >= 0 and the
well-definedness check gives V(p | a) = V(p) + x(a) on every step (see
``check_table_rows``).
"""

from __future__ import annotations

import operator
import random
import re
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Iterator, Optional, Sequence, Union

from .errors import StateError, TheoremViolation, WellDefinednessViolation
from .logic import ConcreteLogic, Logic, _bit_indices, _flag_mask
from .polytope import _ns_conditions, ns_polytope
from .scenario import AtomId, BoxWorldSpec

RationalLike = Union[Fraction, int, str]

# the seeded mixtures: at most this many vertices, each of integer weight 1.._MAX_WEIGHT
_MAX_SUPPORT = 6
_MAX_WEIGHT = 9
# unwitnessed pairs that the order check reports
_FAILURE_LIMIT = 20
# candidate pairs that the order check tests per walk over its states
_PAIR_BLOCK = 1 << 18
# a decimal exponent, refused past json's digit limit (4300) before Fraction expands it
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")


def _as_fraction(value: RationalLike, where: str = "") -> Fraction:
    if isinstance(value, (float, bool)):
        raise StateError(f"{type(value).__name__} {value!r} rejected{where}; use exact rationals")
    try:
        if isinstance(value, str) and (m := _EXPONENT.search(value)) and abs(int(m[1])) > 4300:
            raise ValueError("exponent past 4300 in magnitude")
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise StateError(f"bad rational {value!r}{where}: {exc}") from exc


def _integer(value, what: str) -> int:
    """An int, a bool or any integer type with ``__index__`` (numpy's among them)
    as an int; anything else is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise StateError(f"{what} must be an integer, not {value!r}") from None


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
        try:
            return {"kind": self.kind, "where": self.where, "residual": str(self.residual)}
        except ValueError:  # past the interpreter's digit limit
            raise StateError(
                f"the residual of {self.kind} at {self.where} has too many digits to print"
            ) from None


def validate_pr_state(pr: PRState) -> list[Violation]:
    """All constraint violations of a table, in ``ns_polytope``'s row order.

    The negative entries of an input pair's block come just before that
    block's normalization; each equality that fails gives its residual,
    the left side minus the right side.
    """
    out: list[Violation] = []
    for kind, where, terms, rhs in _ns_conditions(pr.spec):
        values = [(aid, coeff, pr.atom_value(aid)) for aid, coeff in terms]
        if kind == "normalization":
            out += [
                Violation("negative", {"a": aid.a, "b": aid.b, "alpha": aid.alpha, "beta": aid.beta}, v)
                for aid, _, v in values
                if v < 0
            ]
        residual = sum((coeff * v for _, coeff, v in values), Fraction(-rhs))
        if residual:
            out.append(Violation(kind, where, residual))
    return out


class LogicState:
    """Normalized additive map on a logic's elements, held exactly.

    ``numerators`` is a tuple of ints over ``denominator``, one per
    element.  Equality compares values, so states over different
    denominators can be equal.

    ``additive_checked`` records that additivity over disjoint unions has
    been established, either by the construction (point states; tables
    passing the atom-step check) or by an explicit scan.
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
        denominator = _integer(denominator, "the denominator")
        if denominator <= 0:
            raise StateError("denominator must be positive")
        nums = tuple(_integer(v, "a numerator") for v in numerators)
        if len(nums) != len(logic.elements):
            raise StateError("one value per logic element is required")
        self.logic = logic
        self.denominator = denominator
        self.numerators = nums
        self.additive_checked = additive_checked

    def value(self, i: int) -> Fraction:
        self.logic._check(i)
        return Fraction(self.numerators[i], self.denominator)

    def is_two_valued(self) -> bool:
        return {0, self.denominator}.issuperset(self.numerators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogicState):
            return NotImplemented
        if self.logic is not other.logic:
            return False
        if self.denominator == other.denominator:
            return self.numerators == other.numerators
        return [v * other.denominator for v in self.numerators] == [
            v * self.denominator for v in other.numerators
        ]

    def __hash__(self) -> int:
        values = tuple(Fraction(v, self.denominator) for v in self.numerators)
        return hash((id(self.logic), values))


@dataclass(frozen=True)
class _Lanes:
    """The kernel's maps packed at one lane width ``w`` (see the module docstring).

    Lanes run, from bit 0 up: the E rows, then the W rows; both are compared
    between P and Q, and nothing else is packed.
    """

    w: int
    plus: tuple[int, ...]
    minus: tuple[int, ...]
    rhs: int
    e_mask: int  # the E lanes
    w_mask: int  # the W lanes


class _StateTables:
    """The packed kernel of one scenario logic (see the module docstring)."""

    def __init__(self, logic: Logic):
        hrep = ns_polytope(logic.spec, var_cap=sys.maxsize)
        n, natoms = len(logic.elements), len(logic.atom_bits)
        self.spec = logic.spec
        self.atom_ids = logic.atom_ids
        self.natoms = natoms
        self.atom_elems = logic.atom_indices
        self.full = logic.index_of(logic.full_mask)
        self.steps = _steps(logic)
        pos = {e: k for k, e in enumerate(self.atom_elems)}
        # into each nonzero element u, the step p -> u whose atom a comes first, as
        # (u, a's position, p); a lower element has fewer points than its upper, so
        # popcount order reaches it first
        first: dict[int, tuple[int, int, int]] = {}
        for low, atom, up in self.steps:
            if pos[atom] < first.get(up, (up, natoms))[1]:
                first[up] = up, pos[atom], low
        self.first = sorted(first.values(), key=lambda step: logic.elements[step[0]].bit_count())
        # each element's canonical partition, as a mask of atom positions
        self.canon = canon = [0] * n
        for up, k, low in self.first:
            canon[up] = canon[low] | 1 << k
        # the distinct nonzero rows C(p) + e_a - C(p | a) of W, as (positive, negative)
        # atom masks; the first steps give the zero row, which compares nothing
        self.constraints = list(
            dict.fromkeys(
                (plus & ~canon[up], canon[up] & ~plus)
                for low, atom, up in self.steps
                for plus in [canon[low] | 1 << pos[atom]]
                if plus != canon[up]
            )
        )
        # each atom's column of P's maps and of Q's, and the right-hand sides, one
        # byte per lane: every entry's magnitude is 0 or 1
        neq, nw = len(hrep.eq_coeffs), len(self.constraints)
        compared = neq + nw
        plus = [bytearray(compared) for _ in range(natoms)]
        minus = [bytearray(compared) for _ in range(natoms)]
        rhs = bytearray(compared)
        for lane, (row, b) in enumerate(zip(hrep.eq_coeffs, hrep.eq_rhs)):
            for k, c in enumerate(row):
                (plus if c > 0 else minus)[k][lane] = abs(c)
            rhs[lane] = b
        for lane, (up, down) in enumerate(self.constraints, neq):
            for side, mask in ((plus, up), (minus, down)):
                for k in _bit_indices(mask):
                    side[k][lane] = 1
        self._plus, self._minus = list(map(bytes, plus)), list(map(bytes, minus))
        self._rhs = bytes(rhs)
        self._nequal, self._nconstraints = neq, nw
        self._lanes: dict[int, _Lanes] = {}

    def lanes(self, w: int) -> _Lanes:
        """The maps packed at lane width ``w``, built on first use."""
        if w not in self._lanes:
            step = w // 8

            def spread(column: bytes) -> int:
                lanes = bytearray(len(column) * step)
                lanes[::step] = column
                return int.from_bytes(lanes, "little")

            self._lanes[w] = _Lanes(
                w,
                tuple(map(spread, self._plus)),
                tuple(map(spread, self._minus)),
                spread(self._rhs),
                (1 << self._nequal * w) - 1,
                ((1 << self._nconstraints * w) - 1) << self._nequal * w,
            )
        return self._lanes[w]

    def pack(self, x: Sequence[int], den: int) -> tuple[_Lanes, int, int]:
        """(lanes, P, Q) of the table ``x / den``; a negative x_a adds |x_a| times
        its column to the other side, which leaves P - Q as it was."""
        lanes = self.lanes(_lane_width((self.natoms + 1) * max(den, *map(abs, x))))
        p, q = 0, den * lanes.rhs
        for v, up, down in zip(x, lanes.plus, lanes.minus):
            if v > 0:
                p += v * up
                q += v * down
            elif v < 0:
                p -= v * down
                q -= v * up
        return lanes, p, q

    def values(self, x: Sequence[int]) -> list[int]:
        """Element values C x, summed along the first steps: V(u) = V(p) + x(a)."""
        values = [0] * len(self.canon)
        for up, k, low in self.first:
            values[up] = values[low] + x[k]
        return values

    def check(self, x: Sequence[int], den: int, validate: bool = True) -> bool:
        """Whether the table ``x / den`` passes validation (with ``validate``: no
        entry negative, and its E lanes agree); its values are then checked to add
        on every atom step, and the first failing step raises.

        If a is in a partition P of u, P - {a} partitions u - a, which the closed table
        holds, so by induction every P sums to V(u); C(p) + e_a itself partitions p | a.
        """
        if validate and min(x) < 0:
            return False
        lanes, p, q = self.pack(x, den)
        if validate and (p ^ q) & lanes.e_mask:
            return False
        if (p ^ q) & lanes.w_mask:
            values = self.values(x)
            low, atom, u = _first_step_failure(values, self.steps)
            part = tuple(_bit_indices(self.canon[low] | self.canon[atom]))
            raise WellDefinednessViolation(
                f"element {u}: partition {part} sums to {Fraction(values[low] + values[atom], den)} "
                f"but the canonical partition gives {Fraction(values[u], den)}"
            )
        return True

    def read_back(self, values: Sequence[int], den: int) -> list[int]:
        """The atom values of element values, checked to form a table again.  On an
        additive state V = C x, so W x = 0 and ``check`` tests validity alone."""
        if values[self.full] != den:
            raise StateError("state does not assign 1 to the full set")
        if min(values) < 0 or max(values) > den:
            raise StateError("state values leave [0, 1]")
        atoms = [values[e] for e in self.atom_elems]
        if not self.check(atoms, den):
            violations = validate_pr_state(self.table(atoms, den))
            raise TheoremViolation(
                "an additive state produced an invalid table: "
                + "; ".join(str(v.to_dict()) for v in violations[:3])
            )
        return atoms

    def table(self, atoms: Sequence[int], den: int) -> PRState:
        by_atom = {aid: Fraction(v, den) for aid, v in zip(self.atom_ids, atoms)}
        return PRState.from_function(
            self.spec, lambda a, b, alpha, beta: by_atom[AtomId(a, alpha, b, beta)]
        )


def _lane_width(bound: int) -> int:
    """The first power of two from 8 that holds ``bound`` and a guard bit above it."""
    return max(8, 1 << bound.bit_length().bit_length())


def _state_tables(logic: Logic) -> _StateTables:
    tables = getattr(logic, "_state_tables_cache", None)
    if tables is None:
        tables = _StateTables(logic)
        logic._state_tables_cache = tables  # type: ignore[attr-defined]
    return tables


def _reduced(row: Sequence[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *row)
    return [v // g for v in row], den // g


def state_from_pr(logic: Logic, pr: PRState, *, validate: bool = True) -> LogicState:
    """Extend a table to the whole logic through atomic partitions.

    The value of an element is the sum of its atoms' table entries; the
    kernel's ``check`` tests that they add on every atom step, which makes
    every atomic partition of every element give the same sum, and a
    mismatch raises WellDefinednessViolation.  Passing that check makes
    the state additive, as in ``verify_state_additivity``.
    """
    if pr.spec != logic.spec:
        raise StateError("a table of another scenario")
    tables = _state_tables(logic)
    fracs = [pr.atom_value(aid) for aid in logic.atom_ids]
    den = lcm(*(f.denominator for f in fracs))
    x, den = _reduced([f.numerator * (den // f.denominator) for f in fracs], den)
    if not tables.check(x, den, validate):
        violations = validate_pr_state(pr)
        raise StateError(
            f"table violates {len(violations)} constraint(s); "
            f"first: {violations[0].to_dict()}"
        )
    return LogicState(logic, den, tables.values(x), additive_checked=True)


def pr_from_state(state: LogicState) -> PRState:
    """Read the table back off a state; the result always validates."""
    logic = state.logic
    if not isinstance(logic, Logic):
        raise StateError("a scenario logic is required to extract a table")
    if not state.additive_checked and not verify_state_additivity(state):
        i, j, u = _first_step_failure(state.numerators, _steps(logic))
        raise StateError(
            f"state is not additive: elements {i} and {j} are disjoint with "
            f"union {u}, but values do not add"
        )
    tables = _state_tables(logic)
    return tables.table(tables.read_back(state.numerators, state.denominator), state.denominator)


def _steps(logic: ConcreteLogic) -> list[tuple[int, int, int]]:
    """The logic's step table as (lower, atom, upper) triples: the atom is upper - lower.

    Built once per logic and kept on it, as ``_state_tables`` keeps its
    kernel; every caller shares the one list and only reads it.
    """
    steps = getattr(logic, "_steps_cache", None)
    if steps is None:
        offsets, uppers = logic._step_table()
        elements, index = logic.elements, logic.index
        steps = [
            (i, index[elements[u] ^ elements[i]], u)
            for i in range(len(elements))
            for u in uppers[offsets[i] : offsets[i + 1]]
        ]
        logic._steps_cache = steps  # type: ignore[attr-defined]
    return steps


def _first_step_failure(
    nums: Sequence[int], steps: list[tuple[int, int, int]]
) -> Optional[tuple[int, int, int]]:
    """The first atom step (lower, atom, upper) whose values do not add."""
    return next((s for s in steps if nums[s[0]] + nums[s[1]] != nums[s[2]]), None)


def verify_state_additivity(state: LogicState) -> bool:
    """Additivity over disjoint unions, checked on the atom steps.

    Needs a closed table (see ``ConcreteLogic.covers``).  Every element is
    a disjoint union of atoms, so value(p | a) = value(p) + value(a) on the
    steps chains to every disjoint pair.
    """
    ok = _first_step_failure(state.numerators, _steps(state.logic)) is None
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
    if any(s.spec != spec for s in states):
        raise StateError("tables of different scenarios")
    return PRState.from_function(
        spec,
        lambda a, b, alpha, beta: sum(
            (w * s.value(a, b, alpha, beta) for w, s in zip(ws, states)),
            Fraction(0),
        ),
    )


def _mixture_draws(n: int, count: int, seed: int):
    """(support, integer weights) of each seeded mixture of n tables."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(1, min(_MAX_SUPPORT, n))
        support = rng.sample(range(n), size)
        yield support, [rng.randint(1, _MAX_WEIGHT) for _ in support]


def sample_pr_states(vertices: Sequence[PRState], count: int, seed: int) -> list[PRState]:
    """Seeded rational mixtures of the given extreme tables."""
    if not vertices:
        raise StateError("no vertices to mix")
    out = []
    for support, raw in _mixture_draws(len(vertices), count, seed):
        total = sum(raw)
        weights = [Fraction(w, total) for w in raw]
        out.append(convex_combination([vertices[i] for i in support], weights))
    return out


def _mixture_rows(
    rows: Sequence[Sequence[int]], scale: int, count: int, seed: int
) -> Iterator[tuple[list[int], int]]:
    """The mixtures of ``sample_pr_states``, built in integers as they are drawn.

    ``rows`` are tables as integers over the one denominator ``scale``
    (as in ``VertexSet.scaled``).  The same seed draws the same supports
    and weights as ``sample_pr_states``; each mixture comes as
    ``(row, den)``, the table ``row / den``.
    """
    if not rows:
        raise StateError("no vertices to mix")
    return (
        (
            [sum(w * v for w, v in zip(raw, col)) for col in zip(*(rows[i] for i in support))],
            sum(raw) * scale,
        )
        for support, raw in _mixture_draws(len(rows), count, seed)
    )


# -- states determine the order ------------------------------------------


@dataclass
class OrderDeterminingReport:
    ok: bool
    states_used: int
    comparable_pairs_skipped: int
    noncomparable_pairs: int
    failures: list[dict]

    def to_dict(self) -> dict:
        return asdict(self)


def _below(values: Sequence[int]) -> dict[int, int]:
    """For each value v of a row, the mask of the elements whose value is below v."""
    return {v: _flag_mask(map(v.__gt__, values)) for v in set(values)}


def _order_report(
    logic: ConcreteLogic, states: Sequence[LogicState], used: int, certified: int
) -> OrderDeterminingReport:
    """For every pair p not below q, a state with value(p) > value(q).

    ``certified`` is the mask of the sample points whose indicators are
    among the ``used`` states; each witnesses every pair whose difference
    p minus q holds the point.  Only the pairs whose difference lies inside
    the uncertified points are left; they are tested ``_PAIR_BLOCK`` at a
    time, each block against one walk over ``states``, until the first
    ``_FAILURE_LIMIT`` unwitnessed pairs are found, in ascending (p, q)
    order.
    """
    candidates = (
        (p, q)
        for p, bits in enumerate(logic.elements)
        # q containing every certified point of p: no certificate applies
        for q in _bit_indices(logic.containing(bits & certified) & ~logic.containing(bits))
    )
    failures: list[dict] = []
    # with every point certified, each q containing p's points contains p
    while (
        certified != logic.full_mask
        and len(failures) < _FAILURE_LIMIT
        and (block := list(islice(candidates, _PAIR_BLOCK)))
    ):
        witnessed = dict.fromkeys((p for p, _ in block), 0)
        for state in states:
            values = state.numerators
            below = _below(values)
            for p in witnessed:
                witnessed[p] |= below[values[p]]
        missed = [(p, q) for p, q in block if not witnessed[p] >> q & 1]
        failures += [{"p": p, "q": q} for p, q in missed[: _FAILURE_LIMIT - len(failures)]]
    n, comparable = len(logic.elements), logic.comparable_count()
    return OrderDeterminingReport(not failures, used, comparable, n * n - comparable, failures)


def _same_logic(logic: ConcreteLogic, states: Sequence[LogicState]) -> None:
    if any(s.logic is not logic for s in states):
        raise StateError("a state of another logic")


def check_order_determining(
    logic: ConcreteLogic, states: Sequence[LogicState]
) -> OrderDeterminingReport:
    """For every pair p not below q, find a state with value(p) > value(q).

    Pairs with p below q are skipped.  A state that is a sample point's
    indicator (two-valued, with the point's column of elements as its
    support) witnesses at once every pair whose difference holds the
    point; the other pairs are scanned against all states (see
    ``_order_report``).
    """
    _same_logic(logic, states)
    points_by_column: dict[int, int] = {}
    for x in range(logic.ground_size):
        col = logic.containing(1 << x)
        points_by_column[col] = points_by_column.get(col, 0) | 1 << x
    certified = 0
    for s in states:
        if s.is_two_valued():
            certified |= points_by_column.get(_flag_mask(map(bool, s.numerators)), 0)
    return _order_report(logic, states, len(states), certified)


def _order_from_points(logic: Logic) -> OrderDeterminingReport:
    """``check_order_determining`` on the states of the sample points' own tables.

    Point w's deterministic table is 1 on the atoms holding w and 0
    elsewhere, over denominator 1.  Once the kernel accepts it, its state
    V = C x is w's indicator: V(u) sums [w in a] over the atoms a of u's
    canonical partition, which partitions u, so V(u) = [w in u].  The
    kernel's verdict alone certifies w, and no value is summed.  A refused
    table has no state, and no other point's indicator separates a pair
    whose difference holds only refused points: those pairs are the
    failures.
    """
    tables = _state_tables(logic)
    certified = _flag_mask(
        tables.check([a >> w & 1 for a in logic.atom_bits], 1)
        for w in range(logic.ground_size)
    )
    return _order_report(logic, (), certified.bit_count(), certified)


def verify_state_monotonicity(
    logic: ConcreteLogic, states: Sequence[LogicState]
) -> tuple[bool, int]:
    """Every state respects the order: value(p) <= value(q) whenever p <= q.

    For arbitrary states, which need not be additive or non-negative.
    Needs a closed table (see ``ConcreteLogic.covers``).  A finite order is
    the transitive closure of its covers, and on a closed table the covers
    are the atom steps, so only those are compared; ``checked`` is states
    passed, up to the first that falls, times comparable pairs.
    """
    _same_logic(logic, states)
    steps = _steps(logic)
    falls = (
        k
        for k, s in enumerate(states)
        if any(s.numerators[low] > s.numerators[up] for low, _, up in steps)
    )
    passed = next(falls, len(states))
    return passed == len(states), passed * logic.comparable_count()


# -- the state section of a verification ----------------------------------


def check_table_rows(
    logic: Logic, rows: Sequence[Sequence[int]], scale: int, sample_count: int, seed: int
) -> dict:
    """The state section of a verification.

    ``rows`` are the polytope's vertices as integers over ``scale``; the
    ``sample_count`` seeded mixtures of ``sample_pr_states`` follow them
    through the kernel's ``check``, one table at a time in lowest terms,
    which tests validity and step additivity and sums no element values.  Order determination needs none of these rows;
    ``verify_scenario`` reports it from the sample points' own tables
    (``_order_from_points``).

    Monotonicity is counted, not scanned: ``checked`` is the valid vertex
    rows times the comparable pairs.  Each such row passed two checks:
    validation, so x(a) >= 0, and well-definedness, so W x = 0 and
    V(p | a) = V(p) + x(a) >= V(p) on every atom step.  The kernel runs
    only on tables whose atom steps certify them (``_step_table`` refuses
    the rest), where every comparable p <= q is a chain of steps, q - p
    being a disjoint union of atoms.  V is C x as the oracle tests
    ``test_step_certificate_matches_every_partition`` and
    ``test_canonical_partitions_are_the_lex_least`` pin for ``values``.
    ``verify_state_monotonicity`` is the scan, for arbitrary states.

    Nor are round trips, and ``round_trip_failures`` is 0: a valid row
    reads back its table.  The only step into an atom a is 0 -> a, so
    C(a) = e_a and V(a) = x(a); the atoms of input pair (0, 0) partition the
    full set, so V(full) = den by normalization; V = C x >= 0 and V(u) =
    den - V(u') <= den (``test_accepted_rows_read_back_their_tables``).
    ``read_back`` checks these, for arbitrary states.
    """
    tables = _state_tables(logic)
    valid = sum(tables.check(*_reduced(row, scale)) for row in rows)
    mixtures = _mixture_rows(rows, scale, sample_count, seed)
    invalid = len(rows) - valid + sum(not tables.check(*_reduced(row, den)) for row, den in mixtures)
    return {
        "vertex_states": len(rows),
        "random_states": sample_count,
        "all_tables_valid": not invalid,
        "round_trip_failures": 0,
        "monotonicity": {"ok": True, "checked": valid * logic.comparable_count()},
    }
