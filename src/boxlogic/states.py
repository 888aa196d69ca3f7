"""Probability tables on scenarios and additive states on their logics.

All arithmetic in this module is exact: tables hold ``fractions.Fraction``
entries and states store one shared denominator with integer numerators.
Floating-point input is rejected.

Tables and states meet in one batch kernel.  A batch of T tables is an
integer matrix X (T x A, one column per atom in ``all_atom_ids(spec)``
order, which is both ``logic.atom_ids`` and ``ns_polytope``'s variables)
with one positive denominator per row, every row reduced to lowest
terms.  With three fixed matrices of the logic, the kernel

- validates: X >= 0 and X @ E^T == den * rhs, where E holds the
  ``ns_polytope`` equality rows (normalization and both marginal
  families), the same constraints ``validate_pr_state`` checks;
- extends: the element values are V = X @ C, where C is the A x N
  incidence matrix of the lexicographically least atomic partitions;
- checks well-definedness: X @ W^T == 0, where W holds the distinct rows
  C(p) + e_a - C(p | a) over the atom steps p -> p | a;
- reads back: the full-set column of V equals den, 0 <= V <= den, and
  the atom columns of V validate as a table again.

C and W hold only 0, 1 and -1, so every sum the kernel forms adds at
most A entries of magnitude at most M = max(|X|, den), and one dtype
rule covers every product: int64 when M * max(A, 2) < 2**62, ``object``
(Python integers) otherwise.  Both dtypes run the same numpy
expressions.  V is the storage that the batch's states view.
"""

from __future__ import annotations

import random
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Optional, Sequence, Union

from .errors import StateError, TheoremViolation, WellDefinednessViolation
from .linalg import _exact_dtype, np
from .logic import ConcreteLogic, Logic, _bit_indices
from .polytope import ns_polytope
from .scenario import AtomId, BoxWorldSpec

RationalLike = Union[Fraction, int, str]

# the seeded mixtures: at most this many vertices, each of integer weight 1.._MAX_WEIGHT
_MAX_SUPPORT = 6
_MAX_WEIGHT = 9


def _as_fraction(value: RationalLike, where: str = "") -> Fraction:
    if isinstance(value, (float, bool)):
        raise StateError(f"{type(value).__name__} {value!r} rejected{where}; use exact rationals")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise StateError(f"bad rational {value!r}{where}: {exc}") from exc


def _integer(value, what: str) -> int:
    """A Python int, numpy integer or bool as an int; anything else is refused."""
    if not isinstance(value, (int, np.integer, np.bool_)):
        raise StateError(f"{what} must be an integer, not {value!r}")
    return int(value)


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

    ``numerators`` is a read-only integer array over ``denominator``, one
    entry per element, in the kernel's dtype.  The states of a batch are
    views into its read-only value matrix, in lowest terms; a writeable
    array passed in is copied, so later writes to it do not reach the
    state.  Equality compares
    values, so states over different denominators can be equal.

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
        if not isinstance(numerators, np.ndarray):
            numerators = np.array([_integer(v, "a numerator") for v in numerators], dtype=object)
        elif numerators.dtype.kind not in "biu":
            for v in numerators.flat:
                _integer(v, "a numerator")
        if numerators.shape != (len(logic.elements),):
            raise StateError("one value per logic element is required")
        magnitude = max(denominator, int(np.abs(numerators).max()))
        # a read-only row (a batch's value matrix) is shared; anything else is copied
        dtype = _exact_dtype(magnitude, len(logic.atom_bits))
        nums = numerators.astype(dtype, copy=bool(numerators.flags.writeable))
        nums.flags.writeable = False
        self.logic = logic
        self.denominator = denominator
        self.numerators = nums
        self.additive_checked = additive_checked

    def value(self, i: int) -> Fraction:
        self.logic._check(i)
        return Fraction(int(self.numerators[i]), self.denominator)

    def is_two_valued(self) -> bool:
        nums = self.numerators
        return bool(np.all((nums == 0) | (nums == self.denominator)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogicState):
            return NotImplemented
        if self.logic is not other.logic:
            return False
        if self.denominator == other.denominator:
            return bool(np.array_equal(self.numerators, other.numerators))
        return bool(
            np.array_equal(
                self.numerators.astype(object) * other.denominator,
                other.numerators.astype(object) * self.denominator,
            )
        )

    def __hash__(self) -> int:
        values = tuple(Fraction(int(v), self.denominator) for v in self.numerators)
        return hash((id(self.logic), values))


class _StateTables:
    """The batch kernel of one scenario logic (see the module docstring)."""

    def __init__(self, logic: Logic):
        hrep = ns_polytope(logic.spec, var_cap=sys.maxsize)
        n, natoms = len(logic.elements), len(logic.atom_bits)
        self.spec = logic.spec
        self.atom_ids = logic.atom_ids
        self.natoms = natoms
        self.eq = np.array(hrep.eq_coeffs, dtype=np.int64).reshape(-1, hrep.nvars).T
        self.eq_rhs = np.array(hrep.eq_rhs, dtype=np.int64)
        self.atom_elems = np.array(logic.atom_indices, dtype=np.intp)
        self.full = logic.index_of(logic.full_mask)
        lower, atom, upper = self.steps = logic._step_arrays()
        pos = np.zeros(n, dtype=np.intp)
        pos[self.atom_elems] = np.arange(natoms)
        pos = pos[atom]  # the atom position of each step
        # into each nonzero element, the step whose atom comes first
        order = np.lexsort((pos, upper))
        first = order[np.diff(upper[order], prepend=-1) != 0]
        canon = np.zeros((n, natoms), dtype=np.int8)
        for k in sorted(first.tolist(), key=lambda k: logic.elements[upper[k]].bit_count()):
            canon[upper[k]] = canon[lower[k]]
            canon[upper[k], pos[k]] = 1
        self.canon = canon.T.astype(np.int64)
        steps = canon[lower] + canon[atom] - canon[upper]
        distinct = b"".join(dict.fromkeys(row.tobytes() for row in steps))
        self.constraints = np.frombuffer(distinct, np.int8).reshape(-1, natoms).T.astype(np.int64)

    def batch(self, rows: Sequence[Sequence[int]], dens: Sequence[int]):
        """Integer tables over positive denominators as (X, den), reduced."""
        magnitude = max(max(dens, default=1), max((abs(v) for row in rows for v in row), default=0))
        both = np.array(
            [[*row, den] for row, den in zip(rows, dens)],
            dtype=_exact_dtype(magnitude, self.natoms),
        ).reshape(len(rows), self.natoms + 1)
        both //= np.gcd.reduce(both, axis=1)[:, None]
        return both[:, :-1], both[:, -1]

    def valid(self, x: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Which rows are tables: non-negative, normalized, non-signalling."""
        return (x >= 0).all(axis=1) & (x @ self.eq == den[:, None] * self.eq_rhs).all(axis=1)

    def extend(self, x: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Element values X @ C, once the values add on every atom step.

        If a is in a partition P of u, P - {a} partitions u - a, which the closed table
        holds, so by induction every P sums to V(u); C(p) + e_a itself partitions p | a.
        """
        values = x @ self.canon
        bad = np.flatnonzero((x @ self.constraints).any(axis=1))
        if bad.size:
            v, d = values[bad[0]], int(den[bad[0]])
            low, atom, u = _first_step_failure(v, self.steps)
            part = tuple(np.flatnonzero(self.canon[:, low] + self.canon[:, atom]).tolist())
            raise WellDefinednessViolation(
                f"element {u}: partition {part} sums to {Fraction(int(v[low] + v[atom]), d)} "
                f"but the canonical partition gives {Fraction(int(v[u]), d)}"
            )
        values.flags.writeable = False
        return values

    def read_back(self, values: np.ndarray, den: np.ndarray) -> np.ndarray:
        """The atom columns of element values, checked to form tables again."""
        if (values[:, self.full] != den).any():
            raise StateError("state does not assign 1 to the full set")
        if (values.min(axis=1) < 0).any() or (values.max(axis=1) > den).any():
            raise StateError("state values leave [0, 1]")
        atoms = values[:, self.atom_elems]
        bad = np.flatnonzero(~self.valid(atoms, den))
        if bad.size:
            violations = validate_pr_state(self.table(atoms[bad[0]], int(den[bad[0]])))
            raise TheoremViolation(
                "an additive state produced an invalid table: "
                + "; ".join(str(v.to_dict()) for v in violations[:3])
            )
        return atoms

    def table(self, atoms: np.ndarray, den: int) -> PRState:
        by_atom = {aid: Fraction(int(v), den) for aid, v in zip(self.atom_ids, atoms)}
        return PRState.from_function(
            self.spec, lambda a, b, alpha, beta: by_atom[AtomId(a, alpha, b, beta)]
        )


def _state_tables(logic: Logic) -> _StateTables:
    tables = getattr(logic, "_state_tables_cache", None)
    if tables is None:
        tables = _StateTables(logic)
        logic._state_tables_cache = tables  # type: ignore[attr-defined]
    return tables


def state_from_pr(logic: Logic, pr: PRState, *, validate: bool = True) -> LogicState:
    """Extend a table to the whole logic through atomic partitions.

    The value of an element is the sum of its atoms' table entries; the
    values are checked to add on every atom step, which makes every atomic
    partition of every element give the same sum, and a mismatch raises
    WellDefinednessViolation.  Passing that check makes the state
    additive, as in ``verify_state_additivity``.
    """
    tables = _state_tables(logic)
    fracs = [pr.atom_value(aid) for aid in logic.atom_ids]
    den = lcm(*(f.denominator for f in fracs))
    x, dens = tables.batch([[f.numerator * (den // f.denominator) for f in fracs]], [den])
    if validate and not tables.valid(x, dens)[0]:
        violations = validate_pr_state(pr)
        raise StateError(
            f"table violates {len(violations)} constraint(s); "
            f"first: {violations[0].to_dict()}"
        )
    return LogicState(logic, int(dens[0]), tables.extend(x, dens)[0], additive_checked=True)


def pr_from_state(state: LogicState) -> PRState:
    """Read the table back off a state; the result always validates."""
    logic = state.logic
    if not isinstance(logic, Logic):
        raise StateError("a scenario logic is required to extract a table")
    if not state.additive_checked and not verify_state_additivity(state):
        i, j, u = _first_step_failure(state.numerators, logic._step_arrays())
        raise StateError(
            f"state is not additive: elements {i} and {j} are disjoint with "
            f"union {u}, but values do not add"
        )
    tables = _state_tables(logic)
    den = np.array([state.denominator], dtype=state.numerators.dtype)
    return tables.table(tables.read_back(state.numerators[None, :], den)[0], state.denominator)


@dataclass
class RoundTrip:
    """A batch of tables taken to states and back.

    ``valid`` flags the input rows that are tables; ``states`` holds the
    state of each valid row and None for the others; ``failures`` counts
    valid rows whose read-back table differs from the row.
    """

    valid: np.ndarray
    states: list[Optional[LogicState]]
    failures: int


def round_trip_rows(
    logic: Logic, rows: Sequence[Sequence[int]], dens: Sequence[int]
) -> RoundTrip:
    """Validate, extend and read back a batch of tables in one kernel pass.

    Row k is the table ``rows[k] / dens[k]``, one column per atom in
    ``logic.atom_ids`` order.  Rows that are not tables are flagged and
    left out; on the others a well-definedness or read-back failure raises
    as in ``state_from_pr`` and ``pr_from_state``.
    """
    tables = _state_tables(logic)
    x, den = tables.batch(rows, dens)
    valid = tables.valid(x, den)
    kept = np.flatnonzero(valid)
    x, den = x[kept], den[kept]
    values = tables.extend(x, den)
    failures = int((tables.read_back(values, den) != x).any(axis=1).sum())
    states: list[Optional[LogicState]] = [None] * len(valid)
    for k, row in enumerate(kept.tolist()):
        states[row] = LogicState(logic, int(den[k]), values[k], additive_checked=True)
    return RoundTrip(valid, states, failures)


def _first_step_failure(nums: np.ndarray, steps: np.ndarray) -> Optional[tuple[int, int, int]]:
    """The first atom step (lower, atom, upper) whose values do not add."""
    lower, atom, upper = steps
    bad = np.flatnonzero(nums[lower] + nums[atom] != nums[upper])
    return tuple(int(v) for v in steps[:, bad[0]]) if bad.size else None


def verify_state_additivity(state: LogicState) -> bool:
    """Additivity over disjoint unions, checked on the atom steps.

    Needs a closed table (see ``ConcreteLogic.covers``).  Every element is
    a disjoint union of atoms, so value(p | a) = value(p) + value(a) on the
    steps chains to every disjoint pair.
    """
    ok = _first_step_failure(state.numerators, state.logic._step_arrays()) is None
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


def _mixture_draws(n: int, count: int, seed: int, max_support: int, max_weight: int):
    """(support, integer weights) of each seeded mixture of n tables."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(1, min(max_support, n))
        support = rng.sample(range(n), size)
        yield support, [rng.randint(1, max_weight) for _ in support]


def sample_pr_states(
    vertices: Sequence[PRState],
    count: int,
    seed: int,
    *,
    max_support: int = _MAX_SUPPORT,
    max_weight: int = _MAX_WEIGHT,
) -> list[PRState]:
    """Seeded rational mixtures of the given extreme tables."""
    if not vertices:
        raise StateError("no vertices to mix")
    out = []
    for support, raw in _mixture_draws(len(vertices), count, seed, max_support, max_weight):
        total = sum(raw)
        weights = [Fraction(w, total) for w in raw]
        out.append(convex_combination([vertices[i] for i in support], weights))
    return out


def sample_mixture_rows(
    rows: Sequence[Sequence[int]],
    scale: int,
    count: int,
    seed: int,
) -> tuple[list[list[int]], list[int]]:
    """The mixtures of ``sample_pr_states``, built in integers.

    ``rows`` are tables as integers over the one denominator ``scale``
    (as in ``VertexSet.scaled``).  The same seed draws the same supports
    and weights as the defaults of ``sample_pr_states``; mixture k is
    ``mixed[k] / dens[k]``.
    """
    if not rows:
        raise StateError("no vertices to mix")
    mixed, dens = [], []
    for support, raw in _mixture_draws(len(rows), count, seed, _MAX_SUPPORT, _MAX_WEIGHT):
        columns = zip(*(rows[i] for i in support))
        mixed.append([sum(w * v for w, v in zip(raw, col)) for col in columns])
        dens.append(sum(raw) * scale)
    return mixed, dens


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
        return asdict(self)


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
    comparable = logic.comparable_count()
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

    # with every point certified, each q containing p's points contains p
    failures = [] if certified == logic.full_mask else list(islice(unwitnessed(), failure_limit))
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
            # the element-membership mask as binary digits, highest element first
            digits = (s.numerators[::-1] != 0).astype(np.uint8) + ord("0")
            certified |= points_by_column.get(int(digits.tobytes(), 2), 0)
    return certified


def verify_state_monotonicity(
    logic: ConcreteLogic, states: Sequence[LogicState]
) -> tuple[bool, int]:
    """Every state respects the order: value(p) <= value(q) whenever p <= q.

    Needs a closed table (see ``ConcreteLogic.covers``).  A finite order is
    the transitive closure of its covers, so only cover edges are compared;
    ``checked`` is states passed times comparable pairs.
    """
    lower, _, upper = logic._step_arrays()
    pairs = logic.comparable_count()
    for k, s in enumerate(states):
        if np.any(s.numerators[lower] > s.numerators[upper]):
            return False, k * pairs
    return True, len(states) * pairs
