"""Exact vertex enumeration for the non-signalling polytope.

The polytope lives in table space: one variable per elementary question,
with normalization and marginal-consistency equalities plus sign
constraints.  Vertices are enumerated with an incremental double
description sweep over the homogenization cone (Fukuda & Prodon, "Double
Description Method Revisited", 1996).  One fraction-free integer
elimination (``linalg.eliminate``) sets the sweep up: the affine hull,
the first ``cone_dim`` independent sign rows M, and the first cone basis
as the columns of M's inverse, read from the reduction of ``[M | I]``.
The sweep then runs on Python ints, which never overflow:

- each ray is a tuple of its values on every sign constraint, reduced by
  their gcd, so a step reads its constraint's value with no product;
- each ray's active set is an int with one bit per swept constraint, and
  each swept constraint's column is an int with one bit per ray;
- a pair (p, n) is adjacent when the AND of the columns of its common
  active set holds the pair alone.  A ray r with act(p) - act(r) inside
  act(p) - act(n) holds that set too, so a ray missing one of p's
  constraints strikes every other ray missing it, and saturating miss
  counters drop the pairs that share too few (``_adjacent_pairs``);
- the vertices are read back from the ray values, one gcd per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import not_

from .errors import BoxLogicError, VariableCapExceeded
from .linalg import eliminate, gcd_reduce, solve_affine
from .logic import _flag_mask
from .scenario import DEFAULT_VARIABLE_CAP, AtomId, BoxWorldSpec, all_atom_ids

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


def _ns_conditions(spec: BoxWorldSpec):
    """The equalities of a valid table, each as (kind, where, terms, rhs).

    ``terms`` lists (atom, coefficient) and the equality reads
    ``sum(coefficient * P(atom)) == rhs``.  In canonical order: a
    normalization per input pair (a, b), then right marginals per
    (b, beta, a >= 1) against a = 0, then left marginals per
    (a, alpha, b >= 1) against b = 0.  ``ns_polytope``'s rows and
    ``states.validate_pr_state``'s violations both come from here.
    """
    left, right = spec.left_sizes, spec.right_sizes
    for a, la in enumerate(left):
        for b, rb in enumerate(right):
            terms = [(AtomId(a, alpha, b, beta), 1) for alpha in range(la) for beta in range(rb)]
            yield "normalization", {"a": a, "b": b}, terms, 1
    # the outcome distribution of one box may not depend on the other box's input
    for b, rb in enumerate(right):
        for beta in range(rb):
            for a in range(1, len(left)):
                terms = [(AtomId(a, alpha, b, beta), 1) for alpha in range(left[a])]
                terms += [(AtomId(0, alpha, b, beta), -1) for alpha in range(left[0])]
                where = {"b": b, "beta": beta, "a": a, "reference_a": 0}
                yield "right_marginal_depends_on_left_input", where, terms, 0
    for a, la in enumerate(left):
        for alpha in range(la):
            for b in range(1, len(right)):
                terms = [(AtomId(a, alpha, b, beta), 1) for beta in range(right[b])]
                terms += [(AtomId(a, alpha, 0, beta), -1) for beta in range(right[0])]
                where = {"a": a, "alpha": alpha, "b": b, "reference_b": 0}
                yield "left_marginal_depends_on_right_input", where, terms, 0


def ns_polytope(spec: BoxWorldSpec, *, var_cap: int = DEFAULT_VARIABLE_CAP) -> HRep:
    """H-description of all valid tables of a scenario.

    One equality row per ``_ns_conditions`` entry, in its order:
    normalization, then right-marginal and left-marginal consistency.
    """
    variables = all_atom_ids(spec)
    if len(variables) > var_cap:
        raise VariableCapExceeded(
            f"{len(variables)} table variables, above the cap of {var_cap}"
        )
    pos = {aid: k for k, aid in enumerate(variables)}
    coeffs: list[tuple[int, ...]] = []
    rhs: list[int] = []
    for _, _, terms, value in _ns_conditions(spec):
        row = [0] * len(variables)
        for aid, coeff in terms:
            row[pos[aid]] = coeff
        coeffs.append(tuple(row))
        rhs.append(value)
    return HRep(spec, variables, tuple(coeffs), tuple(rhs))


def affine_dimension(hrep: HRep) -> int:
    _, _, basis = solve_affine(hrep.eq_coeffs, hrep.eq_rhs, hrep.nvars)
    return len(basis)


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
        """Deterministic when every entry is 0 or 1, that is 0 or ``scale``."""
        bounds = {0, self.scale}
        return tuple(
            "deterministic" if bounds.issuperset(row) else "nondeterministic"
            for row in self.scaled
        )

    def __len__(self) -> int:
        return len(self.scaled)

    def count(self, cls: str) -> int:
        return sum(1 for c in self.classes if c == cls)


def enumerate_vertices(hrep: HRep) -> VertexSet:
    """All extreme points of the polytope, exactly.

    Each ray of the double description sweep is held as its values on every
    sign constraint, gcd-reduced; its active set holds the swept constraints
    where it is 0.  Two rays are adjacent when no third ray's active set
    contains their common active set, a test that is exact for pointed
    cones.  The rays holding a common set are the AND of the column masks
    of its constraints (one bit per ray active there), so a pair is
    adjacent when that AND is the pair itself.  A third ray r with
    act(p) - act(r) inside act(p) - act(n) holds the common set of (p, n),
    so no pair it refutes reaches the test; nor does a pair whose common
    set has fewer than ``cone_dim - 2`` constraints (``_adjacent_pairs``).

    The vertex of ray v is x_i = v_i * g_i / (v_s * d0), with v_s its
    value on s >= 0 and g_i the factor sign row i was divided by.  Each
    vertex is reduced to its own denominator and scaled to the lcm of all
    of them; sorting and deduplicating those integer rows gives the order
    and the set of the ``Fraction`` tuples.
    """
    x0, d0, basis = solve_affine(hrep.eq_coeffs, hrep.eq_rhs, hrep.nvars)
    dim = len(basis)
    cone_dim = dim + 1

    # one homogeneous row per sign constraint: value of x_i as c*s + a.t >= 0,
    # divided by g_i = gcd(x0_i, d0) to keep the values small
    cons: list[tuple[int, ...]] = []
    divisors: list[int] = []
    for i in range(hrep.nvars):
        g = gcd(x0[i], d0)
        cons.append((x0[i] // g, *(d0 // g * vec[i] for vec in basis)))
        divisors.append(g)
    cons.append((1,) + (0,) * dim)

    # the pivot columns of the transpose are the first independent rows: always
    # cone_dim of them, since e0 and the basis vectors' columns are independent
    _, chosen, _ = eliminate(list(zip(*cons)))
    initial = [cons[ci] for ci in chosen]
    # the chosen rows M are independent, so [M | I] reduces to [den*I | den*M^-1]
    # and the columns of its right block are the first rays
    identity = [[int(i == k) for k in range(cone_dim)] for i in range(cone_dim)]
    reduced, _, _ = eliminate([[*row, *unit] for row, unit in zip(initial, identity)])
    rays = [
        gcd_reduce([sum(c * t for c, t in zip(row, col)) for row in cons])
        for col in list(zip(*reduced))[cone_dim:]
    ]
    swept = set(chosen)
    acts = [sum(1 << ci for ci in chosen if not ray[ci]) for ray in rays]

    for ci in range(len(cons)):
        if ci in swept:
            continue
        swept.add(ci)
        pos, neg, zero = [], [], []
        for k, ray in enumerate(rays):
            (pos if ray[ci] > 0 else neg if ray[ci] < 0 else zero).append(k)
        for k in zero:
            acts[k] |= 1 << ci
        if not neg:
            continue
        small, large = (pos, neg) if len(pos) <= len(neg) else (neg, pos)
        cols = _columns(rays, swept)
        fresh, fresh_acts = [], []
        for p, n in _adjacent_pairs(acts, cols, small, large, cone_dim - 2):
            rp, rn = rays[p], rays[n]
            dp, dn = abs(rp[ci]), abs(rn[ci])
            fresh.append(gcd_reduce([dp * b + dn * a for a, b in zip(rp, rn)]))
            fresh_acts.append(acts[p] & acts[n] | 1 << ci)
        keep = pos + zero
        rays = [rays[k] for k in keep] + fresh
        acts = [acts[k] for k in keep] + fresh_acts

    # s >= 0 is one of the swept constraints, so s == 0 is the only way to fail
    if any(not ray[-1] for ray in rays):
        raise BoxLogicError("recession direction found; polytope is unbounded")
    vertices = []
    for ray in rays:
        nums, den = [v * g for v, g in zip(ray, divisors)], ray[-1] * d0
        g = gcd(den, *nums)
        vertices.append(([v // g for v in nums], den // g))
    scale = lcm(*(den for _, den in vertices))
    # integer keys over one denominator sort and compare as the Fraction tuples do
    scaled = {tuple(v * (scale // den) for v in nums) for nums, den in vertices}
    return VertexSet(hrep, dim, tuple(sorted(scaled)), scale)


def _columns(rays: list[tuple[int, ...]], swept: set[int]) -> dict[int, int]:
    """The column mask of each swept constraint: the rays active there."""
    return {c: _flag_mask(map(not_, col)) for c, col in enumerate(zip(*rays)) if c in swept}


def _adjacent_pairs(
    acts: list[int], cols: dict[int, int], small: list[int], large: list[int], need: int
):
    """Adjacent (small, large) ray index pairs, in order over small x large.

    For each ray p of the smaller side, let D_x = act(p) - act(x).  A third
    ray r with D_r a subset of D_n holds act(p) & act(n), so (p, n) is not
    adjacent: a ray that misses exactly one of p's columns, c, strikes
    every other ray missing c.  Of the rays left, saturating miss counters
    over the columns without such a witness keep those that miss at most
    ``spare = |act(p)| - need``: ``misses[t]`` holds the rays that miss
    more than t.  A survivor n is adjacent when the AND of the columns of
    act(p) & act(n), started from every ray, leaves only p and n; the
    columns go sparsest first, so that most ANDs reach the pair early.
    """
    order = sorted(((1 << c, col) for c, col in cols.items()), key=lambda e: e[1].bit_count())
    other = sum(1 << k for k in large)
    everyone = (1 << len(acts)) - 1
    for p in small:
        spare = acts[p].bit_count() - need
        if spare < 0:
            continue
        held = [e for e in order if acts[p] & e[0]]
        one = two = 0  # the rays that miss one of p's columns, and two
        for _, col in held:
            miss = everyone ^ col
            two |= one & miss
            one |= miss
        exact1, alive, free = one & ~two, other, []
        for _, col in held:
            witnesses = exact1 & ~col
            if witnesses:  # a lone witness does not strike itself
                alive &= col if witnesses & (witnesses - 1) else col | witnesses
            else:
                free.append(col)
        if len(free) > spare:
            misses = [0] * (spare + 1)
            for col in free:
                miss = alive & ~col
                for t in range(spare, 0, -1):
                    misses[t] |= misses[t - 1] & miss
                misses[0] |= miss
            alive &= ~misses[spare]
        while alive:
            low = alive & -alive
            alive ^= low
            n = low.bit_length() - 1
            act, pair, holders = acts[n], 1 << p | low, everyone
            for bit, col in held:
                if act & bit:
                    holders &= col
                    if holders == pair:
                        break
            if holders == pair:
                yield p, n
