"""Exact vertex enumeration for the non-signalling polytope.

The polytope lives in table space: one variable per elementary question,
with normalization and marginal-consistency equalities plus sign
constraints.  Vertices are enumerated with an incremental double
description sweep over the homogenization cone (Fukuda & Prodon, "Double
Description Method Revisited", 1996).  Exact rational algebra sets the
sweep up: the affine hull and the first cone basis.  The sweep and the
read-back of vertices then run entirely in integer arithmetic: rays are
gcd-reduced integer vectors, and each vertex coordinate becomes one
``Fraction`` only at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

from .errors import BoxLogicError, VariableCapExceeded
from .linalg import IndependentRows, gcd_reduce, integerize, rank, rref, solve_affine
from .logic import _bit_indices
from .scenario import AtomId, BoxWorldSpec, all_atom_ids

DEFAULT_VARIABLE_CAP = 200


@dataclass(frozen=True)
class HRep:
    """Equality system over non-negative table variables."""

    spec: BoxWorldSpec
    variables: tuple[AtomId, ...]
    eq_coeffs: tuple[tuple[int, ...], ...]
    eq_rhs: tuple[int, ...]

    @property
    def nvars(self) -> int:
        return len(self.variables)


def ns_polytope(spec: BoxWorldSpec, *, var_cap: int = DEFAULT_VARIABLE_CAP) -> HRep:
    """H-description of all valid tables of a scenario.

    Equalities come in canonical order: one normalization row per input
    pair, then right-marginal consistency rows, then left-marginal ones.
    """
    variables = all_atom_ids(spec)
    if len(variables) > var_cap:
        raise VariableCapExceeded(
            f"{len(variables)} table variables, above the cap of {var_cap}"
        )
    pos = {aid: k for k, aid in enumerate(variables)}
    nv = len(variables)
    coeffs: list[tuple[int, ...]] = []
    rhs: list[int] = []

    for a, la in enumerate(spec.left_sizes):
        for b, rb in enumerate(spec.right_sizes):
            row = [0] * nv
            for alpha in range(la):
                for beta in range(rb):
                    row[pos[AtomId(a, alpha, b, beta)]] = 1
            coeffs.append(tuple(row))
            rhs.append(1)
    for b, rb in enumerate(spec.right_sizes):
        for beta in range(rb):
            for a in range(1, len(spec.left_sizes)):
                row = [0] * nv
                for alpha in range(spec.left_sizes[a]):
                    row[pos[AtomId(a, alpha, b, beta)]] += 1
                for alpha in range(spec.left_sizes[0]):
                    row[pos[AtomId(0, alpha, b, beta)]] -= 1
                coeffs.append(tuple(row))
                rhs.append(0)
    for a, la in enumerate(spec.left_sizes):
        for alpha in range(la):
            for b in range(1, len(spec.right_sizes)):
                row = [0] * nv
                for beta in range(spec.right_sizes[b]):
                    row[pos[AtomId(a, alpha, b, beta)]] += 1
                for beta in range(spec.right_sizes[0]):
                    row[pos[AtomId(a, alpha, 0, beta)]] -= 1
                coeffs.append(tuple(row))
                rhs.append(0)
    return HRep(spec, variables, tuple(coeffs), tuple(rhs))


def satisfies_hrep(hrep: HRep, x: Sequence[Fraction]) -> bool:
    if len(x) != hrep.nvars:
        return False
    if any(v < 0 for v in x):
        return False
    for row, b in zip(hrep.eq_coeffs, hrep.eq_rhs):
        if sum(c * v for c, v in zip(row, x)) != b:
            return False
    return True


def affine_dimension(hrep: HRep) -> int:
    _, basis = solve_affine(hrep.eq_coeffs, hrep.eq_rhs)
    return len(basis)


def is_extreme_point(hrep: HRep, x: Sequence[Fraction]) -> bool:
    """Exact extremality: the active constraints pin the point uniquely."""
    if not satisfies_hrep(hrep, x):
        return False
    rows: list[list[Fraction]] = [list(map(Fraction, r)) for r in hrep.eq_coeffs]
    for i, v in enumerate(x):
        if v == 0:
            unit = [Fraction(0)] * hrep.nvars
            unit[i] = Fraction(1)
            rows.append(unit)
    return rank(rows) == hrep.nvars


@dataclass
class VertexSet:
    """Canonically sorted exact vertices of a table polytope.

    The vertices are held as integer rows ``scaled`` over the one
    denominator ``scale``, the lcm of all vertex denominators;
    ``vertices`` reads them as ``Fraction`` tuples:
    ``vertices[k][i] == Fraction(scaled[k][i], scale)``.
    """

    hrep: HRep
    affine_dim: int
    scaled: tuple[tuple[int, ...], ...]
    scale: int

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(v, self.scale) for v in row) for row in self.scaled)

    @cached_property
    def classes(self) -> tuple[str, ...]:
        return tuple(classify_vertex(v) for v in self.vertices)

    def __len__(self) -> int:
        return len(self.scaled)

    def count(self, cls: str) -> int:
        return sum(1 for c in self.classes if c == cls)


def classify_vertex(coords: Sequence[Fraction]) -> str:
    return "deterministic" if all(v in (0, 1) for v in coords) else "nondeterministic"


def enumerate_vertices(hrep: HRep) -> VertexSet:
    """All extreme points of the polytope, exactly.

    Two rays of the double description sweep are adjacent when no third
    ray's active set contains their common active set, a test that is
    exact for pointed cones.  It reads a column bitmap built at each
    constraint step: per constraint, one integer mask over the positions
    of the current rays it is active on.  The AND of the columns of a
    pair's common active set marks every ray whose active set contains
    it; the pair is adjacent when only its own two bits remain.

    Vertices are read back over one denominator: with x0 scaled to
    integers over d0, ray (s, r) gives x = (s*x0 + d0*basis^T r) / (s*d0).
    Each vertex is reduced and scaled to the lcm of all vertex
    denominators; sorting and deduplicating those integer rows gives the
    order and the set of the ``Fraction`` tuples.
    """
    x0, basis_frac = solve_affine(hrep.eq_coeffs, hrep.eq_rhs)
    basis: list[list[int]] = [integerize(vec)[0] for vec in basis_frac]
    dim = len(basis)
    cone_dim = dim + 1

    # one homogeneous row per sign constraint: value of x_i as c*s + a.t >= 0
    cons: list[tuple[int, ...]] = []
    for i in range(hrep.nvars):
        row = [x0[i]] + [Fraction(basis[j][i]) for j in range(dim)]
        introw, _ = integerize(row)
        cons.append(tuple(introw))
    cons.append((1,) + (0,) * dim)

    chooser = IndependentRows()
    chosen: list[int] = []
    for ci, row in enumerate(cons):
        if chooser.add(row):
            chosen.append(ci)
        if len(chosen) == cone_dim:
            break
    if len(chosen) < cone_dim:
        raise BoxLogicError("constraint system is rank deficient; cone not pointed")

    rays: list[tuple[int, ...]] = []
    active: dict[tuple[int, ...], int] = {}
    inverse_cols = _invert_columns([cons[ci] for ci in chosen])
    for col in inverse_cols:
        ray = gcd_reduce(col)
        rays.append(ray)
        mask = 0
        for ci in chosen:
            if _dot(cons[ci], ray) == 0:
                mask |= 1 << ci
        active[ray] = mask

    for ci in range(len(cons)):
        if ci in chosen:
            continue
        c = cons[ci]
        dots = {r: _dot(c, r) for r in rays}
        pos = [r for r in rays if dots[r] > 0]
        zero = [r for r in rays if dots[r] == 0]
        neg = [r for r in rays if dots[r] < 0]
        for r in zero:
            active[r] |= 1 << ci
        if neg:
            # column bitmap: for each constraint, the rays it is active on
            columns = [0] * len(cons)
            for k, r in enumerate(rays):
                for j in _bit_indices(active[r]):
                    columns[j] |= 1 << k
            ray_bit = {r: 1 << k for k, r in enumerate(rays)}
            fresh: list[tuple[int, ...]] = []
            for rp in pos:
                for rn in neg:
                    common = active[rp] & active[rn]
                    if common.bit_count() < cone_dim - 2:
                        continue
                    pair = ray_bit[rp] | ray_bit[rn]
                    holders = -1
                    for j in _bit_indices(common):
                        holders &= columns[j]
                        if holders == pair:
                            break
                    if holders != pair:
                        continue
                    new = gcd_reduce(
                        tuple(
                            dots[rp] * bn - dots[rn] * bp for bp, bn in zip(rp, rn)
                        )
                    )
                    if new not in active:
                        active[new] = common | (1 << ci)
                        fresh.append(new)
            for r in neg:
                del active[r]
            rays = pos + zero + fresh

    x0n, d0 = integerize(x0)
    coord_rows = list(zip(*basis)) if dim else [()] * hrep.nvars
    rows: list[tuple[tuple[int, ...], int]] = []
    for ray in rays:
        s = ray[0]
        if s == 0:
            raise BoxLogicError("recession direction found; polytope is unbounded")
        if s < 0:
            raise BoxLogicError("ray with negative homogeneous coordinate")
        r = ray[1:]
        nums = [s * x0n[i] + d0 * _dot(coord_rows[i], r) for i in range(hrep.nvars)]
        g = gcd(s * d0, *nums)
        rows.append((tuple(v // g for v in nums), s * d0 // g))
    # integer keys over one denominator sort and compare as the Fraction tuples do
    scale = lcm(*(den for _, den in rows))
    scaled = sorted({tuple(v * (scale // den) for v in nums) for nums, den in rows})
    return VertexSet(hrep, dim, tuple(scaled), scale)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _invert_columns(rows: list[tuple[int, ...]]) -> list[list[int]]:
    """Columns of the inverse of a nonsingular integer matrix, integer-scaled."""
    d = len(rows)
    out = []
    for k in range(d):
        aug = [
            [Fraction(v) for v in row] + [Fraction(1 if i == k else 0)]
            for i, row in enumerate(rows)
        ]
        reduced, pivots = rref(aug)
        if pivots != list(range(d)):
            raise BoxLogicError("initial constraint matrix is singular")
        col = [reduced[i][d] for i in range(d)]
        out.append(integerize(col)[0])
    return out
