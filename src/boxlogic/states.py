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
  families), from the list ``polytope._ns_conditions`` that
  ``validate_pr_state`` also walks;
- extends: the element values are V = X @ C, where C is the A x N
  incidence matrix of the lexicographically least atomic partitions.
  V is filled one layer of first steps at a time: into each nonzero
  element u, the step p -> u whose atom a comes first gives
  V(u) = V(p) + X(a), and a step joins a layer once p is filled.  C is
  the same fill of the identity;
- checks well-definedness: X @ W^T == 0, where W holds the distinct rows
  C(p) + e_a - C(p | a) over the atom steps p -> p | a;
- reads back: the full-set column of V equals den, 0 <= V <= den, and
  the atom columns of V validate as a table again.

C and W hold only 0, 1 and -1, so every sum the kernel forms adds at
most A entries of magnitude at most M = max(|X|, den), and one dtype
rule covers every product: int64 when M * max(A, 2) < 2**62, ``object``
(Python integers) otherwise.  Both dtypes run the same numpy
expressions.  V is the storage that the batch's states view.

Rows go through the kernel in chunks of about ``_CHUNK_ENTRIES`` value
entries (at least one row), counted on the wider of the element and the
atom-step tables.  Each chunk is validated, extended and read back, then
handed to the accumulator of the order-determination check, before the
next one is built.  So memory stays bounded however many rows pass:
``check_table_rows``, the state section of a verification, holds no
value matrix and no state beyond one chunk.  Monotonicity needs no pass
there: validation gives X >= 0 and the well-definedness check gives
V(p | a) = V(p) + X(a) on every step (see ``check_table_rows``).
"""

from __future__ import annotations

import random
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import StateError, TheoremViolation, WellDefinednessViolation
from .linalg import _exact_dtype, np
from .logic import ConcreteLogic, Logic, _bit_indices
from .polytope import _ns_conditions, ns_polytope
from .scenario import AtomId, BoxWorldSpec

RationalLike = Union[Fraction, int, str]

# the seeded mixtures: at most this many vertices, each of integer weight 1.._MAX_WEIGHT
_MAX_SUPPORT = 6
_MAX_WEIGHT = 9
# unwitnessed pairs that check_order_determining reports
_FAILURE_LIMIT = 20
# logics up to this many elements get check_order_determining's all-pairs scan
_SCAN_LIMIT = 128
# entries of each chunk of rows in the kernel walk (at least one row)
_CHUNK_ENTRIES = 1 << 18
# candidate pairs that check_order_determining tests per walk over uncertified rows
_PAIR_BLOCK = 1 << 18


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
        lower, atom, upper = self.steps = _step_arrays(logic)
        pos = np.zeros(n, dtype=np.intp)
        pos[self.atom_elems] = np.arange(natoms)
        pos = pos[atom]  # the atom position of each step
        # into each nonzero element, the step whose atom comes first, in layers: a
        # step joins a layer once its lower element was filled by an earlier one
        order = np.lexsort((pos, upper))
        rest = order[np.diff(upper[order], prepend=-1) != 0]
        filled = np.zeros(n, dtype=bool)
        filled[logic.index_of(0)] = True
        self.nelements, self.layers = n, []
        while rest.size:
            ready = filled[lower[rest]]
            first, rest = rest[ready], rest[~ready]
            self.layers.append((upper[first], lower[first], pos[first]))
            filled[upper[first]] = True
        self.canon = self.values(np.eye(natoms, dtype=np.int8))
        canon = self.canon.T
        steps = canon[lower] + canon[atom] - canon[upper]
        distinct = b"".join(dict.fromkeys(row.tobytes() for row in steps))
        self.constraints = np.frombuffer(distinct, np.int8).reshape(-1, natoms).T.astype(np.int64)

    def batch(self, rows: Sequence[Sequence[int]], dens: Sequence[int]):
        """Integer tables over positive denominators as (X, den), reduced."""
        magnitude = max(map(abs, [*dens, *map(max, rows), *map(min, rows)]), default=1)
        both = np.array(
            [[*row, den] for row, den in zip(rows, dens)],
            dtype=_exact_dtype(magnitude, self.natoms),
        ).reshape(len(rows), self.natoms + 1)
        both //= np.gcd.reduce(both, axis=1)[:, None]
        return both[:, :-1], both[:, -1]

    def valid(self, x: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Which rows are tables: non-negative, normalized, non-signalling."""
        return (x >= 0).all(axis=1) & (x @ self.eq == den[:, None] * self.eq_rhs).all(axis=1)

    def values(self, x: np.ndarray) -> np.ndarray:
        """X @ C, one layer of first steps at a time: V(p | a) = V(p) + X(a)."""
        values = np.zeros((len(x), self.nelements), dtype=x.dtype)
        for upper, lower, pos in self.layers:
            layer = values[:, lower]
            layer += x[:, pos]
            values[:, upper] = layer
        return values

    def extend(self, x: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Element values X @ C, once the values add on every atom step.

        If a is in a partition P of u, P - {a} partitions u - a, which the closed table
        holds, so by induction every P sums to V(u); C(p) + e_a itself partitions p | a.
        """
        values = self.values(x)
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
        i, j, u = _first_step_failure(state.numerators, _step_arrays(logic))
        raise StateError(
            f"state is not additive: elements {i} and {j} are disjoint with "
            f"union {u}, but values do not add"
        )
    tables = _state_tables(logic)
    den = np.array([state.denominator], dtype=state.numerators.dtype)
    return tables.table(tables.read_back(state.numerators[None, :], den)[0], state.denominator)


def _walk_tables(
    logic: Logic, rows: Iterable[tuple[Sequence[int], int]]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Validate, extend and read back (row, den) tables one chunk at a time.

    Yields per chunk the valid flags of its rows, the value rows and
    denominators of the valid ones, reduced, and how many of those read
    back a different table.  A chunk is built only when the one before
    it has been consumed.
    """
    tables = _state_tables(logic)
    # rows per chunk from the wider of a row's values and the step table: the steps
    # outnumber the elements (864 to 248 on three_input_binary), and sizing on the
    # elements alone put more rows in a chunk and raised verify's peak RSS there
    # from 33.7 to 37.4 MiB
    size = max(1, _CHUNK_ENTRIES // max(len(logic.elements), tables.steps[0].size))
    rows = iter(rows)
    while chunk := list(islice(rows, size)):
        x, den = tables.batch(*zip(*chunk))
        ok = tables.valid(x, den)
        kept = np.flatnonzero(ok)
        x, den = x[kept], den[kept]
        values = tables.extend(x, den)
        yield ok, values, den, int((tables.read_back(values, den) != x).any(axis=1).sum())


def _step_arrays(logic: ConcreteLogic) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The logic's step table as index arrays (lower, atom, upper): the atom is upper - lower."""
    offsets, uppers = logic._step_table()
    lower = np.repeat(np.arange(len(logic.elements)), np.diff(offsets))
    elements, index = logic.elements, logic.index
    atom = [index[elements[u] ^ elements[i]] for i, u in zip(lower.tolist(), uppers)]
    return lower, np.array(atom, dtype=np.intp), np.array(uppers, dtype=np.intp)


def _first_step_failure(
    nums: np.ndarray, steps: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> Optional[tuple[int, int, int]]:
    """The first atom step (lower, atom, upper) whose values do not add."""
    lower, atom, upper = steps
    bad = np.flatnonzero(nums[lower] + nums[atom] != nums[upper])
    return tuple(int(v[bad[0]]) for v in steps) if bad.size else None


def verify_state_additivity(state: LogicState) -> bool:
    """Additivity over disjoint unions, checked on the atom steps.

    Needs a closed table (see ``ConcreteLogic.covers``).  Every element is
    a disjoint union of atoms, so value(p | a) = value(p) + value(a) on the
    steps chains to every disjoint pair.
    """
    ok = _first_step_failure(state.numerators, _step_arrays(state.logic)) is None
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
    strategy: str

    def to_dict(self) -> dict:
        return asdict(self)


class _OrderWitnesses:
    """What ``check_order_determining`` gathers in one pass over value rows.

    Up to ``_SCAN_LIMIT`` elements, the mask of the pairs (p, q) with
    value(p) > value(q) in some state, at most 16K entries; past it, the
    mask of certified sample points.
    """

    def __init__(self, logic: ConcreteLogic):
        n = len(logic.elements)
        self.logic, self.states, self.certified = logic, 0, 0
        self.witnessed = np.zeros((n, n), dtype=bool) if n <= _SCAN_LIMIT else None
        self.points_by_column: dict[int, int] = {}
        if self.witnessed is None:
            for x in range(logic.ground_size):
                col = logic.containing(1 << x)
                self.points_by_column[col] = self.points_by_column.get(col, 0) | 1 << x

    def add(self, values: Sequence[np.ndarray], dens: Sequence[int]) -> None:
        self.states += len(values)
        for row, den in zip(values, dens):
            if self.witnessed is not None:
                self.witnessed |= row[:, None] > row[None, :]
            elif ((row == 0) | (row == den)).all():
                # the element-membership mask as binary digits, highest element first
                digits = (row[::-1] != 0).astype(np.uint8) + ord("0")
                self.certified |= self.points_by_column.get(int(digits.tobytes(), 2), 0)

    def report(
        self, rows_again: Callable[[], Iterable[tuple[Sequence[np.ndarray], Sequence[int]]]]
    ) -> OrderDeterminingReport:
        """The report; ``rows_again`` walks the same rows once more, in blocks of
        unwitnessed candidate pairs, where some sample point is not certified."""
        logic = self.logic
        n, comparable = len(logic.elements), logic.comparable_count()
        full_scan = self.witnessed is not None
        candidates = (
            (p, q)
            for p, bits in enumerate(logic.elements)
            # q containing every certified point of p: no certificate applies
            for q in _bit_indices(logic.containing(bits & self.certified) & ~logic.containing(bits))
        )
        failures: list[dict] = []
        # with every point certified, each q containing p's points contains p
        while (
            self.certified != logic.full_mask
            and len(failures) < _FAILURE_LIMIT
            and (block := list(islice(candidates, _PAIR_BLOCK)))
        ):
            p, q = np.array(block, dtype=np.intp).T
            if full_scan:
                seen = self.witnessed[p, q]
            else:
                seen = np.zeros(len(block), dtype=bool)
                for values, _ in rows_again():
                    for row in values:
                        seen |= row[p] > row[q]
            missed = np.flatnonzero(~seen)[: _FAILURE_LIMIT - len(failures)]
            failures += [{"p": int(p[k]), "q": int(q[k])} for k in missed]
        strategy = (
            "full scan" if full_scan else "point-state witnesses, verified against stored values"
        )
        return OrderDeterminingReport(
            not failures, self.states, comparable, n * n - comparable, failures, strategy
        )


def check_order_determining(
    logic: ConcreteLogic, states: Sequence[LogicState]
) -> OrderDeterminingReport:
    """For every pair p not below q, find a state with value(p) > value(q).

    Pairs with p below q are skipped.  On tables up to ``_SCAN_LIMIT``
    elements every other pair is scanned against all states.  Larger
    tables first certify sample points: a point is certified when some
    state equals that point's indicator exactly on every element (1 on
    the elements containing it, 0 elsewhere).  That state witnesses every
    pair whose difference p minus q holds the point, so only the pairs
    whose difference lies inside the uncertified points go to the
    all-states scan.  Both paths report the first ``_FAILURE_LIMIT``
    unwitnessed pairs in ascending (p, q) order.
    """
    witnesses = _OrderWitnesses(logic)
    rows = [s.numerators for s in states], [s.denominator for s in states]
    witnesses.add(*rows)
    return witnesses.report(lambda: [rows])


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
    lower, _, upper = _step_arrays(logic)
    falls = (k for k, s in enumerate(states) if (s.numerators[lower] > s.numerators[upper]).any())
    passed = next(falls, len(states))
    return passed == len(states), passed * logic.comparable_count()


# -- the state section of a verification ----------------------------------


def check_table_rows(
    logic: Logic, rows: Sequence[Sequence[int]], scale: int, sample_count: int, seed: int
) -> dict:
    """The state section of a verification, in one pass over chunks of rows.

    ``rows`` are the polytope's vertices as integers over ``scale``; the
    ``sample_count`` seeded mixtures of ``sample_pr_states`` follow them
    through the same kernel walk.  While a chunk of valid vertex rows is
    alive it is offered to the witnesses of ``check_order_determining``;
    only that check walks the vertices a second time, and only when some
    sample point stays uncertified.

    Monotonicity is counted, not scanned: ``checked`` is the valid vertex
    rows times the comparable pairs.  Each such row passed two checks:
    ``_StateTables.valid``, so X(a) >= 0, and ``_StateTables.extend``, so
    X @ W = 0 and V(p | a) = V(p) + X(a) >= V(p) on every atom step.  The
    kernel runs only on tables whose atom steps certify them
    (``_step_table`` refuses the rest), where every comparable p <= q is a
    chain of steps, q - p being a disjoint union of atoms.  V is X @ C as
    the oracle tests ``test_step_certificate_matches_every_partition`` and
    ``test_canonical_partitions_are_the_lex_least`` pin for ``values()``.
    ``verify_state_monotonicity`` is the scan, for arbitrary states.
    """
    witnesses = _OrderWitnesses(logic)

    def vertices():
        return _walk_tables(logic, ((row, scale) for row in rows))

    all_valid, failures = True, 0
    for ok, values, den, bad in vertices():
        all_valid, failures = all_valid and bool(ok.all()), failures + bad
        witnesses.add(values, den)
    for ok, _, _, bad in _walk_tables(logic, _mixture_rows(rows, scale, sample_count, seed)):
        all_valid, failures = all_valid and bool(ok.all()), failures + bad
    return {
        "vertex_states": len(rows),
        "random_states": sample_count,
        "all_tables_valid": all_valid,
        "round_trip_failures": failures,
        "monotonicity": {"ok": True, "checked": witnesses.states * logic.comparable_count()},
        "order_determining": witnesses.report(lambda: (c[1:3] for c in vertices())).to_dict(),
    }
