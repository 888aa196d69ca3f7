"""Two-box scenarios and their sample space.

A scenario consists of a left and a right box; each box has an ordered
list of inputs and every input has an ordered list of outcome labels.
The sample space pairs one outcome column per box (one outcome chosen
for every input), and subsets of it are represented as plain Python
integers used as bit vectors: bit ``i`` is set iff sample point ``i``
belongs to the subset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .errors import GammaCapExceeded, ScenarioError

# Resource caps of one run, each enforced where its object is built: sample
# points by build_gamma, logic elements by logic.close_logic, and table
# variables by polytope.ns_polytope.
DEFAULT_GAMMA_CAP = 2**20
DEFAULT_CLOSURE_CAP = 10**6
DEFAULT_VARIABLE_CAP = 200


def default_caps() -> dict:
    return {
        "gamma": DEFAULT_GAMMA_CAP,
        "closure": DEFAULT_CLOSURE_CAP,
        "polytope_variables": DEFAULT_VARIABLE_CAP,
    }


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class BoxWorldSpec:
    """Outcome labels per input for the left and the right box.

    Input indices are 0-based.  Every input needs at least two distinct
    outcome labels; single-outcome inputs are rejected because the
    proposition "this input gave its only outcome" would be trivially
    true and would collapse the atom structure.
    """

    left: tuple[tuple[str, ...], ...]
    right: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        for side_name, inputs in (("left", self.left), ("right", self.right)):
            if not inputs:
                raise ScenarioError(f"{side_name} box has no inputs")
            for k, outcomes in enumerate(inputs):
                if len(outcomes) < 2:
                    raise ScenarioError(
                        f"{side_name} input {k} has {len(outcomes)} outcome(s); "
                        "at least two are required"
                    )
                if len(set(outcomes)) != len(outcomes):
                    raise ScenarioError(
                        f"{side_name} input {k} has duplicate outcome labels"
                    )

    @classmethod
    def from_sizes(
        cls, left_sizes: Sequence[int], right_sizes: Sequence[int]
    ) -> "BoxWorldSpec":
        """Build a spec with numeric labels "0", "1", ... per input."""
        mk = lambda sizes: tuple(
            tuple(str(i) for i in range(s)) for s in sizes
        )
        return cls(mk(left_sizes), mk(right_sizes))

    @classmethod
    def from_dict(cls, data: dict) -> "BoxWorldSpec":
        """A spec from ``{"left": [...], "right": [...]}``, each side a list of
        outcome-label lists; another key or a label that is not a string is refused."""
        try:
            sides = (data["left"], data["right"])
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"malformed scenario object: {exc}") from exc
        for key in data:
            if key not in ("left", "right"):
                raise ScenarioError(f"unknown scenario key {key!r}")
        for side_name, inputs in zip(("left", "right"), sides):
            if not isinstance(inputs, list) or not all(
                isinstance(inp, list) for inp in inputs
            ):
                raise ScenarioError(
                    f"{side_name} box must be a list of outcome-label lists"
                )
            for k, outcomes in enumerate(inputs):
                for label in outcomes:
                    if not isinstance(label, str):
                        raise ScenarioError(f"{side_name} input {k} has label {label!r}, not a string")
        left, right = (tuple(map(tuple, inputs)) for inputs in sides)
        return cls(left, right)

    def to_dict(self) -> dict:
        return {
            "left": [list(inp) for inp in self.left],
            "right": [list(inp) for inp in self.right],
        }

    @property
    def left_sizes(self) -> tuple[int, ...]:
        return tuple(len(inp) for inp in self.left)

    @property
    def right_sizes(self) -> tuple[int, ...]:
        return tuple(len(inp) for inp in self.right)

    def sizes(self, side: Side) -> tuple[int, ...]:
        return self.left_sizes if side is Side.LEFT else self.right_sizes


@dataclass(frozen=True, order=True)
class AtomId:
    """One elementary question: input/outcome indices on both boxes, 0-based."""

    a: int
    alpha: int
    b: int
    beta: int


@dataclass(frozen=True)
class LocalizedSpec:
    """A proposition about one box only: an input plus a set of its outcomes."""

    side: Side
    input_index: int
    outcomes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ScenarioError("localized element needs a non-empty outcome set")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ScenarioError("localized outcome set has duplicates")
        object.__setattr__(self, "outcomes", tuple(sorted(self.outcomes)))


class GammaIndex:
    """Mixed-radix bijection between sample points and bit positions.

    A sample point is a pair of outcome columns ``(xs, ys)``; the right
    box digits vary fastest and, within each side, later inputs vary
    faster than earlier ones.
    """

    def __init__(self, spec: BoxWorldSpec):
        self.spec = spec
        self.left_sizes = spec.left_sizes
        self.right_sizes = spec.right_sizes
        self.gamma1_size = _product(self.left_sizes)
        self.gamma2_size = _product(self.right_sizes)
        self.gamma_size = self.gamma1_size * self.gamma2_size
        self.full_mask = (1 << self.gamma_size) - 1
        self._left_strides = _strides(self.left_sizes)
        self._right_strides = _strides(self.right_sizes)
        # outcome_mask's bit vectors, per input and outcome of each side
        self._left_masks, self._right_masks = (
            tuple(
                tuple(_digit_mask(self.gamma_size, stride, size, o) for o in range(size))
                for size, stride in zip(sizes, strides)
            )
            for sizes, strides in (
                (self.left_sizes, [s * self.gamma2_size for s in self._left_strides]),
                (self.right_sizes, self._right_strides),
            )
        )

    def point_to_index(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        if len(xs) != len(self.left_sizes) or len(ys) != len(self.right_sizes):
            raise ScenarioError("point has wrong number of digits")
        i1 = 0
        for x, size, stride in zip(xs, self.left_sizes, self._left_strides):
            if not 0 <= x < size:
                raise ScenarioError(f"left digit {x} out of range")
            i1 += x * stride
        i2 = 0
        for y, size, stride in zip(ys, self.right_sizes, self._right_strides):
            if not 0 <= y < size:
                raise ScenarioError(f"right digit {y} out of range")
            i2 += y * stride
        return i1 * self.gamma2_size + i2

    def index_to_point(self, index: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if not 0 <= index < self.gamma_size:
            raise ScenarioError(f"point index {index} out of range")
        i1, i2 = divmod(index, self.gamma2_size)
        xs = tuple(
            (i1 // stride) % size
            for size, stride in zip(self.left_sizes, self._left_strides)
        )
        ys = tuple(
            (i2 // stride) % size
            for size, stride in zip(self.right_sizes, self._right_strides)
        )
        return xs, ys

    def outcome_mask(self, side: Side, input_index: int, outcome: int) -> int:
        """Bit vector of all points whose given input shows the given outcome."""
        masks = self._left_masks if side is Side.LEFT else self._right_masks
        if not 0 <= input_index < len(masks):
            raise ScenarioError(f"{side.value} input index {input_index} out of range")
        if not 0 <= outcome < len(masks[input_index]):
            raise ScenarioError(
                f"outcome {outcome} out of range for {side.value} input {input_index}"
            )
        return masks[input_index][outcome]


def _product(values: Sequence[int]) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def _strides(sizes: Sequence[int]) -> tuple[int, ...]:
    # last input varies fastest
    strides = []
    acc = 1
    for size in reversed(sizes):
        strides.append(acc)
        acc *= size
    return tuple(reversed(strides))


def _digit_mask(width: int, stride: int, size: int, value: int) -> int:
    """Bits at positions j with (j // stride) % size == value, one period per
    start below ``width``; the copies double each round, O(width log width)."""
    period = stride * size
    periods = -(-width // period)
    out = ((1 << stride) - 1) << (value * stride)
    copies = 1
    while copies < periods:
        out |= out << (copies * period)
        copies *= 2
    return out & ((1 << (periods * period)) - 1)


def build_gamma(spec: BoxWorldSpec, *, gamma_cap: int = DEFAULT_GAMMA_CAP) -> GammaIndex:
    """Index the sample space of a scenario, guarding against blow-up."""
    size = _product(spec.left_sizes) * _product(spec.right_sizes)
    if size > gamma_cap:
        raise GammaCapExceeded(
            f"sample space has {size} points, above the cap of {gamma_cap}"
        )
    return GammaIndex(spec)


def all_atom_ids(spec: BoxWorldSpec) -> tuple[AtomId, ...]:
    """Every elementary question, ordered by (a, alpha, b, beta)."""
    return tuple(
        AtomId(a, alpha, b, beta)
        for a, la in enumerate(spec.left_sizes)
        for alpha in range(la)
        for b, rb in enumerate(spec.right_sizes)
        for beta in range(rb)
    )


def make_atom(gamma: GammaIndex, atom: AtomId) -> int:
    """Bit vector of points where input ``a`` shows ``alpha`` and ``b`` shows ``beta``."""
    left = gamma.outcome_mask(Side.LEFT, atom.a, atom.alpha)
    right = gamma.outcome_mask(Side.RIGHT, atom.b, atom.beta)
    return left & right


def make_localized(gamma: GammaIndex, loc: LocalizedSpec) -> int:
    """Bit vector of the one-box proposition ``input shows an outcome in the set``."""
    out = 0
    for outcome in loc.outcomes:
        out |= gamma.outcome_mask(loc.side, loc.input_index, outcome)
    return out


def complement_bits(gamma: GammaIndex, bits: int) -> int:
    if bits & ~gamma.full_mask:
        raise ScenarioError("bit vector has bits outside the sample space")
    return bits ^ gamma.full_mask


def deterministic_points(spec: BoxWorldSpec) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All joint outcome-column assignments (one outcome per input per box)."""
    lefts = itertools.product(*(range(s) for s in spec.left_sizes))
    rights = list(itertools.product(*(range(s) for s in spec.right_sizes)))
    for xs in lefts:
        for ys in rights:
            yield xs, ys
