"""Concrete logics over a finite ground set.

A concrete logic is held as a deduplicated table of bit vectors with the
subset order, bitwise complement inside the ground set, and a fixed atom
list used for decompositions.  The table order is canonical: the empty
set first, the full set second, everything else sorted by (popcount,
numeric value).  Absent meets and joins are values (``None``), not
errors.

Relations between elements come from one step table: each logic walks
the atom steps p -> p | a of its table, one per atom a disjoint from p,
once.  The closure grows the family along the same steps.  The
certificate of the structural checks, the Hasse covers, the state
kernel, the comparable-pair count and the point columns all read the
table; the columns are Python ints whose bit i is set when element i
holds the point (the vertical tid-lists of Zaki, IEEE TKDE 2000), walked
exactly with ``m & -m`` and ``bit_length``.  Tables the step walk
refuses, which only library callers and damaged test tables build, are
answered by plain scans.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import Iterable, Iterator, NoReturn, Optional, Sequence

from .errors import (
    ClosureBudgetExceeded,
    ForeignElementError,
    NotAboveError,
    ScenarioError,
    TheoremViolation,
)
from .scenario import (
    AtomId,
    BoxWorldSpec,
    GammaIndex,
    Side,
    all_atom_ids,
    build_gamma,
    make_atom,
    DEFAULT_CLOSURE_CAP,
    DEFAULT_GAMMA_CAP,
)


def _bit_indices(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# bytes 0 and 1 as the binary digits "0" and "1"
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _flag_mask(flags: Iterable[int]) -> int:
    """The mask with bit k set where the k-th flag is 1 (each flag 0 or 1)."""
    return int(bytes(flags)[::-1].translate(_DIGITS) or b"0", 2)


def _union_below(family: Iterable[int], s: int) -> int:
    """Union of the members of ``family`` contained in ``s``."""
    u = 0
    for e in family:
        if e & s == e:
            u |= e
    return u


def _minimal_nonzero(family: Iterable[int]) -> list[int]:
    """Nonzero members with no other nonzero member inside, by (popcount, value)."""
    minimal: list[int] = []
    for e in sorted(family, key=lambda e: (e.bit_count(), e)):
        if e and not any(m & e == m for m in minimal):
            minimal.append(e)
    return minimal


class ConcreteLogic:
    """Finite family of subsets of ``{0..ground_size-1}`` as a bit-vector table."""

    def __init__(
        self,
        ground_size: int,
        elements: Iterable[int],
        *,
        atom_bits: Optional[Sequence[int]] = None,
    ):
        self.ground_size = ground_size
        self.full_mask = (1 << ground_size) - 1
        uniq = set(elements)
        for e in uniq:
            if e & ~self.full_mask:
                raise ScenarioError("element has bits outside the ground set")
        ordered = sorted(sorted(uniq), key=int.bit_count)  # stable: by (popcount, value)
        if self.full_mask in uniq and len(ordered) > 1:
            ordered.remove(self.full_mask)
            ordered.insert(1 if ordered[0] == 0 else 0, self.full_mask)
        self.elements: tuple[int, ...] = tuple(ordered)
        self.index: dict[int, int] = {e: i for i, e in enumerate(self.elements)}
        self.complement_map: tuple[Optional[int], ...] = tuple(
            self.index.get(e ^ self.full_mask) for e in self.elements
        )
        self.complemented = None not in self.complement_map  # every element has its complement
        if atom_bits is None:
            atom_bits = _minimal_nonzero(self.elements)
        else:
            atom_bits = list(atom_bits)
            for a in atom_bits:
                if a not in self.index:
                    raise ForeignElementError(f"atom {a:#x} not in the table")
        self.atom_bits: tuple[int, ...] = tuple(atom_bits)
        self.atom_indices: tuple[int, ...] = tuple(
            self.index[a] for a in self.atom_bits
        )
        self._decomp_cache: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._columns: Optional[list[int]] = None
        self._atomistic: Optional[bool] = None
        self._comparable_total: Optional[int] = None
        self._steps: tuple[array, array] | str | None = None  # see _step_table

    # -- basic queries ---------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    def index_of(self, bits: int) -> int:
        try:
            return self.index[bits]
        except KeyError:
            raise ForeignElementError(f"bit vector {bits:#x} not in the logic") from None

    def _check(self, i: int) -> None:
        if not 0 <= i < len(self.elements):
            raise ForeignElementError(f"element index {i} out of range")

    def leq(self, i: int, j: int) -> bool:
        """Subset order on table indices."""
        self._check(i)
        self._check(j)
        p, q = self.elements[i], self.elements[j]
        return p & q == p

    def complement(self, i: int) -> Optional[int]:
        self._check(i)
        return self.complement_map[i]

    def is_atom(self, i: int) -> bool:
        self._check(i)
        return i in set(self.atom_indices)

    # -- atoms and decompositions ----------------------------------------

    def atomistic(self) -> bool:
        """Every nonzero element is the union of the atoms below it."""
        if self._atomistic is None:
            self._atomistic = all(_union_below(self.atom_bits, e) == e for e in self.elements)
        return self._atomistic

    def all_decompositions(self, i: int) -> tuple[tuple[int, ...], ...]:
        """Every partition of element ``i`` into pairwise-disjoint atoms.

        Each partition is a tuple of atom positions (indices into
        ``atom_bits``), sorted; the partitions themselves are sorted
        lexicographically.  The empty element has no partitions.
        """
        self._check(i)
        bits = self.elements[i]
        if bits not in self._decomp_cache:
            self._decomp_cache[bits] = self._enumerate_decompositions(bits)
        return self._decomp_cache[bits]

    def _enumerate_decompositions(self, bits: int) -> tuple[tuple[int, ...], ...]:
        if bits == 0:
            return ()
        atoms = self.atom_bits
        found: list[tuple[int, ...]] = []
        chosen: list[int] = []

        def rec(rem: int) -> None:
            if rem == 0:
                found.append(tuple(sorted(chosen)))
                return
            low = rem & -rem
            for pos, a in enumerate(atoms):
                if a & low and a & rem == a:
                    chosen.append(pos)
                    rec(rem & ~a)
                    chosen.pop()

        rec(bits)
        return tuple(sorted(set(found)))

    def decomposition(self, i: int) -> Optional[tuple[int, ...]]:
        """Canonical (lexicographically least) atomic partition, or None."""
        decs = self.all_decompositions(i)
        if self.elements[i] == 0:
            return ()
        return decs[0] if decs else None

    # -- order operations --------------------------------------------------

    def meet(self, i: int, j: int) -> Optional[int]:
        """Greatest lower bound in the table, or None when there is none.

        The union U of all table elements contained in the set
        intersection is itself contained in it, so the meet exists iff U
        is in the table, and then equals U.  When the table is atomistic
        U is the union of the atoms below the intersection.
        """
        self._check(i)
        self._check(j)
        s = self.elements[i] & self.elements[j]
        return self.index.get(self._downset_union(s))

    def join(self, i: int, j: int) -> Optional[int]:
        """Least upper bound in the table, or None when there is none."""
        self._check(i)
        self._check(j)
        s = self.elements[i] | self.elements[j]
        if self.complemented:
            m = self.index.get(self._downset_union(s ^ self.full_mask))
            return None if m is None else self.complement_map[m]
        # tables that are not complement-closed: the least upper bound is the
        # intersection of the upper bounds, when that is an element
        meet_of_upper, found = self.full_mask, False
        for e in self.elements:
            if e & s == s:
                meet_of_upper, found = meet_of_upper & e, True
        return self.index.get(meet_of_upper) if found else None

    def _downset_union(self, s: int) -> int:
        return _union_below(self.atom_bits if self.atomistic() else self.elements, s)

    # -- order queries and pair enumeration -----------------------------------

    def _up_walk(self) -> tuple[list[int], int]:
        """(point columns, comparable pairs) of a table that ``_certified``
        accepts, from one walk down its step table.

        The up-set of p, the mask of the elements containing it, is p plus the
        up-sets of its step uppers: for q strictly above p, q - p = (p | q')'
        is a nonzero element, so it holds an atom a disjoint from p, and q is
        in the up-set of the step p -> p | a.  Uppers come first: the full
        set, then the rest by falling index, the empty set last; each up-set
        is dropped after its last reader.  Every element is a disjoint union
        of atoms, so an element holding a point holds an atom that holds it:
        the point's column is the union of those atoms' up-sets.
        """
        offsets, uppers = self._step_table()
        n, readers = len(self.elements), Counter(uppers)
        atoms = dict(zip(self.atom_indices, self.atom_bits))
        up: list[Optional[int]] = [None] * n
        cols, total = [0] * self.ground_size, 0
        for i in (1, *range(n - 1, 1, -1), 0) if n > 1 else (0,):
            mask = 1 << i
            for u in uppers[offsets[i] : offsets[i + 1]]:
                mask |= up[u]
                readers[u] -= 1
                if not readers[u]:
                    up[u] = None
            total += mask.bit_count()
            for x in _bit_indices(atoms.get(i, 0)):
                cols[x] |= mask
            if readers[i]:
                up[i] = mask
        return cols, total

    def _point_columns(self) -> Optional[list[int]]:
        """The columns of ``_up_walk``, walked once; None on a table the step
        walk refuses."""
        if self._columns is None and self._certified():
            self._columns, self._comparable_total = self._up_walk()
        return self._columns

    def containing(self, bits: int) -> int:
        """Mask of the element indices whose elements contain ``bits``."""
        cols = self._point_columns()
        if cols is None:
            return sum(1 << i for i, e in enumerate(self.elements) if e & bits == bits)
        mask = (1 << len(self.elements)) - 1
        for x in _bit_indices(bits):
            mask &= cols[x]
        return mask

    def comparable_pairs(self) -> Iterator[tuple[int, int]]:
        """All ordered pairs (i, j) with element i a subset of element j, in order."""
        for i, e in enumerate(self.elements):
            for j in _bit_indices(self.containing(e)):
                yield i, j

    def comparable_count(self) -> int:
        """Number of pairs in ``comparable_pairs()``, without walking them."""
        if self._comparable_total is None and self._point_columns() is None:
            self._comparable_total = sum(self.containing(e).bit_count() for e in self.elements)
        return self._comparable_total

    def disjoint_pairs(self) -> Iterator[tuple[int, int]]:
        """All unordered pairs (i, j), i < j, of disjoint elements, in order."""
        elements = self.elements
        for i, e in enumerate(elements):
            for j in range(i + 1, len(elements)):
                if not e & elements[j]:
                    yield i, j

    # -- atom steps and exports ---------------------------------------------

    def _atom_steps(self) -> tuple[array, array]:
        """The atom steps i -> i | a, for each element i and atom a disjoint
        from it, as (offsets, uppers): the steps of i go to the elements
        ``uppers[offsets[i]:offsets[i + 1]]``, in index order.

        Raises TheoremViolation, when the walk reaches the first element that
        breaks it, unless every element has its complement, the atoms are the
        minimal nonzero elements and every step lands in the table.  These
        certify closure under disjoint union: e - a = (e' | a)' strips the
        atoms of e one at a time, and steps add them to any p.  With the
        complements present, the atoms are the minimal nonzero elements
        exactly when they are nonzero, none strictly contains another, and
        every element but the full set has a step: a nonzero m has an atom
        inside it, the one of a step of m', and so is an atom if minimal, and
        not minimal if it strictly contains an atom.
        """
        if not self.complemented:
            missing = self.complement_map.index(None)
            raise TheoremViolation(f"element {missing} has no complement in the table")
        atoms = self.atom_bits
        if 0 in atoms or any(b & a == b != a for a in atoms for b in atoms):
            self._refuse_steps()
        index, full = self.index, self.full_mask
        offsets, uppers = array("i", [0]), array("i")
        for i, e in enumerate(self.elements):
            # distinct atoms disjoint from e have distinct unions with it
            steps = sorted([index.get(e | a, -1) for a in atoms if not e & a])
            # a missing union sorts first, as -1; only the full set has no step
            if steps[0] < 0 if steps else e != full:
                self._refuse_steps(i)
            uppers.extend(steps)
            offsets.append(len(uppers))
        return offsets, uppers

    def _refuse_steps(self, i: Optional[int] = None) -> NoReturn:
        """Raise the step walk's TheoremViolation, once it has found that the
        atoms, or else element i, break the certificate; the atoms are then
        checked first, as before any step."""
        stray = set(self.atom_bits) ^ set(_minimal_nonzero(self.elements))
        if stray:
            i = min(map(self.index.get, stray))
            raise TheoremViolation(f"element {i} is either an atom or minimal nonzero, not both")
        e = self.elements[i]
        k = next(
            k for a, k in zip(self.atom_bits, self.atom_indices) if not e & a and e | a not in self.index
        )
        raise TheoremViolation(f"disjoint element {i} and atom {k} have no union in the table")

    def _step_table(self) -> tuple[array, array]:
        """The table of ``_atom_steps()``, walked once; a refusal keeps its message
        and is raised again on every call."""
        if self._steps is None:
            try:
                self._steps = self._atom_steps()
            except TheoremViolation as exc:
                self._steps = str(exc)
        if isinstance(self._steps, str):
            raise TheoremViolation(self._steps)
        return self._steps

    def _certified(self) -> bool:
        """Closed under complement and disjoint union, with the minimal nonzero
        elements as atoms: the table holds the empty set, without which the
        walk can pass vacuously, and the step walk passes."""
        try:
            self._step_table()
        except TheoremViolation:
            return False
        return 0 in self.index

    def covers(self) -> list[tuple[int, int]]:
        """Edges (i, j) of the Hasse diagram, sorted: j covers i.

        On a table closed under complement and disjoint union (else
        TheoremViolation), q - p = (p | q')' is an element for p below q, so
        q covers p exactly when q - p is an atom: the covers are the steps.
        """
        offsets, uppers = self._step_table()
        ids = list(self.index.values())  # the index's int objects: the edges allocate none
        return [(i, ids[u]) for i in ids for u in uppers[offsets[i] : offsets[i + 1]]]


class Logic(ConcreteLogic):
    """The closed logic of a two-box scenario."""

    def __init__(self, gamma: GammaIndex, atom_ids: Sequence[AtomId], elements: Iterable[int]):
        bits = [make_atom(gamma, aid) for aid in atom_ids]
        super().__init__(gamma.gamma_size, elements, atom_bits=bits)
        self.gamma = gamma
        self.spec = gamma.spec
        self.atom_ids: tuple[AtomId, ...] = tuple(atom_ids)

    def atom_position(self, atom: AtomId) -> int:
        try:
            return self.atom_ids.index(atom)
        except ValueError:
            raise ForeignElementError(f"{atom} is not an atom of this logic") from None

    def atom_element(self, atom: AtomId) -> int:
        return self.atom_indices[self.atom_position(atom)]


class EvenSetLogic(ConcreteLogic):
    """All even-cardinality subsets of ``{0..2k-1}``."""

    def __init__(self, k: int):
        ground = 2 * k
        elements = [e for e in range(1 << ground) if e.bit_count() % 2 == 0]
        super().__init__(ground, elements)
        self.k = k


def _close_family(ground_size: int, seeds: Iterable[int], *, cap: int) -> set[int]:
    """Smallest family containing the seeds and the empty set that is closed
    under complement and under unions of disjoint members.

    A step set S, at first the nonzero seeds, drives a work-queue walk in
    which each member e adds e' and e | s for every s in S disjoint from
    e.  At the fixed point, if S holds every minimal nonzero member, the
    family is closed: a nonzero q contains some s in S, q - s = (q' | s)'
    is a member, and for p disjoint from q, p | q = (p | s) | (q - s)
    with p | s a member, so induction on |q| gives every disjoint union.
    The fixed point is closed under complement, so S holds every minimal
    nonzero member exactly when every member but the full set has a step
    disjoint from it: a minimal m then holds the step of m', and a member
    without one has a complement whose minimal members are missing from S.
    Those missing members join S and the walk runs again.  Every step is a
    complement or a disjoint union of members, so the family never outgrows
    the closure, and ClosureBudgetExceeded is raised exactly when the
    closure has more than ``cap`` elements.
    """
    full = (1 << ground_size) - 1
    members: list[int] = []
    known: set[int] = set()

    def add(e: int) -> None:
        if len(members) >= cap:
            raise ClosureBudgetExceeded(
                f"closure exceeded {cap} elements; raise the cap to continue"
            )
        members.append(e)
        known.add(e)

    for e in sorted({0, *seeds}):
        add(e)
    steps = [e for e in members if e]
    while True:
        stepless = False
        for e in members:  # the list grows while it is walked: a work queue
            unions = [e | s for s in steps if not e & s]
            if not unions and e != full:
                stepless = True
            for u in (e ^ full, *unions):
                if u not in known:
                    add(u)
        if not stepless:
            return known
        steps += sorted(set(_minimal_nonzero(members)).difference(steps))


def close_logic(
    spec: BoxWorldSpec,
    *,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
    gamma_cap: int = DEFAULT_GAMMA_CAP,
) -> Logic:
    """Close the atom family of a scenario under complement and disjoint union."""
    gamma = build_gamma(spec, gamma_cap=gamma_cap)
    atom_ids = all_atom_ids(spec)
    atoms = [make_atom(gamma, aid) for aid in atom_ids]
    elements = _close_family(gamma.gamma_size, atoms, cap=closure_cap)
    return Logic(gamma, atom_ids, elements)


DEFAULT_EVEN_SET_CAP = 6


def even_set_logic(k: int) -> EvenSetLogic:
    if k < 1:
        raise ScenarioError("k must be at least 1")
    if k > DEFAULT_EVEN_SET_CAP:
        raise ClosureBudgetExceeded(f"k={k} above the cap of {DEFAULT_EVEN_SET_CAP}")
    return EvenSetLogic(k)


# -- order classification above an atom ------------------------------------


class OrderKind(Enum):
    ATOM_PLUS_REST = "atom_plus_rest"
    LEFT_LOCALIZED = "left_localized"
    RIGHT_LOCALIZED = "right_localized"
    TOP = "top"


@dataclass(frozen=True)
class OrderClassification:
    """How an element sits above one of its atoms.

    ``base_bits`` is the extracted piece (the atom itself, a one-box
    single-outcome element, or the full set); ``remainder_index`` points
    at the rest, which is disjoint from the base.
    """

    kind: OrderKind
    base_bits: int
    remainder_index: int

    def reconstruct(self, logic: ConcreteLogic) -> int:
        return self.base_bits | logic.elements[self.remainder_index]


def _one_box_pieces(logic: Logic, aid: AtomId) -> tuple[int, int]:
    """The left piece "input a gave alpha" and the right piece "input b gave beta"."""
    return (
        logic.gamma.outcome_mask(Side.LEFT, aid.a, aid.alpha),
        logic.gamma.outcome_mask(Side.RIGHT, aid.b, aid.beta),
    )


def classify_above_atom(logic: Logic, atom_index: int, elem_index: int) -> OrderClassification:
    """Classify an element above an atom, preferring the most informative case.

    Preference: full set, then a left one-box piece, then a right one,
    then the atom itself.
    """
    logic._check(elem_index)
    if atom_index not in logic.atom_indices:
        raise ForeignElementError(f"element {atom_index} is not an atom")
    p = logic.elements[atom_index]
    q = logic.elements[elem_index]
    if p & q != p:
        raise NotAboveError("the atom is not below the element")

    aid = logic.atom_ids[logic.atom_indices.index(atom_index)]
    left_piece, right_piece = _one_box_pieces(logic, aid)
    # only the full set contains the full set; the atom is below q, so the loop breaks
    for kind, base in (
        (OrderKind.TOP, logic.full_mask),
        (OrderKind.LEFT_LOCALIZED, left_piece),
        (OrderKind.RIGHT_LOCALIZED, right_piece),
        (OrderKind.ATOM_PLUS_REST, p),
    ):
        if base & q == base:
            break
    rest = logic.index.get(q & ~base)
    if rest is None:
        raise TheoremViolation("remainder of an order classification is missing from the logic")
    return OrderClassification(kind, base, rest)


# -- verification -----------------------------------------------------------


@dataclass
class CheckResult:
    """One report entry: ``checked`` counts the cases examined up to and
    including the first counterexample; ``counterexample`` is None when the
    check passes."""

    passed: bool
    checked: int
    counterexample: Optional[dict] = None
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _first_failure(cases: Iterable[Optional[dict]], note: str = "") -> CheckResult:
    """Walk the cases, each None when it holds or else its counterexample,
    and stop at the first counterexample; ``checked`` counts the cases
    looked at, the failing one included."""
    checked = 0
    for checked, counterexample in enumerate(cases, 1):
        if counterexample is not None:
            return CheckResult(False, checked, counterexample, note)
    return CheckResult(True, checked, None, note)


@dataclass
class AxiomReport:
    results: dict[str, CheckResult] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def to_dict(self) -> dict:
        return {name: r.to_dict() for name, r in sorted(self.results.items())}


def verify_axioms(logic: ConcreteLogic) -> AxiomReport:
    """Exhaustively check the order, complement and closure axioms.

    Failures are report entries, never exceptions, so damaged tables can
    be inspected.  L1, C2 and L3 read the whole table and report its
    size.  The pair checks hold on a table that ``_certified`` accepts and
    count their cases there; elsewhere each scans its cases up to the
    first counterexample, which ``checked`` includes.  For disjoint
    families only pairs are checked: in a finite table closed under
    pairwise disjoint unions, chaining unions two at a time realizes
    every finite disjoint family, and the report records this reduction.
    """
    elements = logic.elements
    index = logic.index
    comp = logic.complement_map
    n = len(elements)

    def whole_table(bad: list[int]) -> CheckResult:
        return CheckResult(not bad, n, {"element": bad[0]} if bad else None)

    results = {
        # C1: the empty set belongs to the family.
        "C1": CheckResult(0 in index, 1),
        # L1: least and greatest elements exist; the constructor keeps every
        # element inside the ground set, so they bound everything.
        "L1": CheckResult(0 in index and logic.full_mask in index, n),
        # C2: complements stay in the family.
        "C2": whole_table([i for i, c in enumerate(comp) if c is None]),
        # L3: the complement map is an involution.
        "L3": whole_table([i for i, c in enumerate(comp) if c is None or comp[c] != i]),
    }
    chain_note = "pairwise unions; chaining covers larger disjoint families"
    if logic._certified():
        # bitwise complements reverse the order; q - p = (p | q')' for p below
        # q; p is below q exactly when p and q' are disjoint, and only the
        # empty set is disjoint from itself
        pairs = logic.comparable_count()
        results["L2"], results["L5"] = CheckResult(True, pairs), CheckResult(True, pairs)
        c3 = CheckResult(True, (pairs - 1) // 2, None, chain_note)
    else:
        # L2: complement reverses the order; where both complements exist,
        # q' is a subset of p' whenever p is one of q.
        results["L2"] = _first_failure(
            {"pair": [i, j], "reason": "no complement"} if None in (comp[i], comp[j]) else None
            for i, j in logic.comparable_pairs()
        )
        # L5: below any superset, the set difference is available, which
        # makes q = p v (q ^ p') an identity of set algebra: the difference
        # d is in the table, every lower bound of {q, p'} is a subset of d,
        # and every upper bound of {p, d} contains p|d = q.
        results["L5"] = _first_failure(
            None if (elements[j] & ~elements[i]) in index else {"pair": [i, j]}
            for i, j in logic.comparable_pairs()
        )
        # C3 on pairs: disjoint unions exist, hence (L4) disjoint joins do.
        c3 = _first_failure(
            (
                None if (elements[i] | elements[j]) in index else {"pair": [i, j]}
                for i, j in logic.disjoint_pairs()
            ),
            chain_note,
        )
    results["C3"] = c3
    results["L4"] = replace(
        c3, note="disjoint unions found in the table are the least upper bounds; " + chain_note
    )
    return AxiomReport(results)


def verify_atomic_coverage(logic: ConcreteLogic) -> CheckResult:
    """Every nonzero element is a disjoint union of atoms, reproduced exactly."""
    if logic._certified():
        # every nonzero u has the step (u - a, a, u) for each atom a inside it
        return CheckResult(True, len(logic.elements) - 1)
    # the enumerator only yields disjoint atoms whose union is the element
    return _first_failure(
        None if logic.decomposition(i) is not None else {"element": i, "reason": "no partition"}
        for i, e in enumerate(logic.elements)
        if e
    )


def verify_order_classification(logic: Logic) -> tuple[CheckResult, dict[str, int]]:
    """Classify every (atom, superset) pair; a missing remainder fails the check.

    A found remainder is the set difference q - base, so the witness
    always reassembles q.  A certified table that holds the one-box
    pieces of every atom holds each remainder (base | q')', so the cases
    are counted per atom.
    """
    counts = {kind.value: 0 for kind in OrderKind}
    pieces = [_one_box_pieces(logic, aid) for aid in logic.atom_ids]
    if logic._certified() and all(p in logic.index for pair in pieces for p in pair):
        for k, (left, right) in zip(logic.atom_indices, pieces):
            above = logic.containing(logic.elements[k]).bit_count()
            with_left = logic.containing(left)  # the full set among them
            with_right = (logic.containing(right) & ~with_left).bit_count()
            counts[OrderKind.TOP.value] += 1
            counts[OrderKind.LEFT_LOCALIZED.value] += with_left.bit_count() - 1
            counts[OrderKind.RIGHT_LOCALIZED.value] += with_right
            counts[OrderKind.ATOM_PLUS_REST.value] += above - with_left.bit_count() - with_right
        return CheckResult(True, sum(counts.values())), counts

    def cases() -> Iterator[Optional[dict]]:
        for atom_index in logic.atom_indices:
            for j in _bit_indices(logic.containing(logic.elements[atom_index])):
                try:
                    cls = classify_above_atom(logic, atom_index, j)
                except TheoremViolation as exc:
                    yield {"atom": atom_index, "element": j, "reason": str(exc)}
                    return
                counts[cls.kind.value] += 1
                yield None

    return _first_failure(cases()), counts


def disjoint_atom_union_report(logic: ConcreteLogic) -> dict:
    """Whether every union of pairwise-disjoint atoms lies in the table.

    This converse of atomic coverage is reported, not assumed.
    """
    atoms = logic.atom_bits
    unions: set[int] = set()

    def rec(start: int, acc: int) -> None:
        unions.add(acc)
        for i in range(start, len(atoms)):
            if acc & atoms[i] == 0:
                rec(i + 1, acc | atoms[i])

    rec(0, 0)
    missing = sum(u not in logic.index for u in unions)
    return {
        "holds": missing == 0,
        "distinct_unions": len(unions),
        "missing_from_table": missing,
    }


# the largest tables whose lattice and Boolean questions are decided by a full scan
_LATTICE_SCAN_LIMIT = 4000
_BOOLEAN_SCAN_LIMIT = 128


def is_lattice(logic: ConcreteLogic) -> Optional[bool]:
    """Whether every pair has a meet and a join.

    A counterexample is first sought among atoms and their complements.
    If none is found the full pair scan runs only for tables up to
    ``_LATTICE_SCAN_LIMIT`` elements; beyond that the answer is None (undecided).
    Because complementation is an order anti-isomorphism, scanning meets
    over all pairs also decides all joins.
    """
    candidates = sorted(
        {i for i in logic.atom_indices}
        | {c for i in logic.atom_indices if (c := logic.complement_map[i]) is not None}
    )
    for pos, i in enumerate(candidates):
        for j in candidates[pos:]:
            if logic.meet(i, j) is None or logic.join(i, j) is None:
                return False
    n = len(logic.elements)
    if n > _LATTICE_SCAN_LIMIT:
        return None
    if not logic.complemented:
        return None
    for i in range(n):
        for j in range(i, n):
            if logic.meet(i, j) is None:
                return False
    return True


def is_boolean(logic: ConcreteLogic) -> Optional[bool]:
    """Lattice plus distributivity over all triples; None when too large to scan."""
    return _boolean_given_lattice(logic, is_lattice(logic))


def _boolean_given_lattice(logic: ConcreteLogic, lat: Optional[bool]) -> Optional[bool]:
    """``is_boolean`` of a table whose ``is_lattice`` is ``lat``: a caller that
    reports both runs the lattice scan once."""
    if lat is not True:
        return lat
    n = len(logic.elements)
    if n > _BOOLEAN_SCAN_LIMIT:
        return None
    meets = [[logic.meet(i, j) for j in range(n)] for i in range(n)]
    joins = [[logic.join(i, j) for j in range(n)] for i in range(n)]
    for p in range(n):
        for q in range(n):
            for r in range(n):
                if joins[p][meets[q][r]] != meets[joins[p][q]][joins[p][r]]:
                    return False
    return True
