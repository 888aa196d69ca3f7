"""Exact vertex enumeration for the non-signalling polytope.

The polytope lives in table space: one variable per elementary question,
with normalization and marginal-consistency equalities plus sign
constraints.  Vertices are enumerated with an incremental double
description sweep over the homogenization cone (Fukuda & Prodon, "Double
Description Method Revisited", 1996).  One fraction-free integer
elimination (``linalg.eliminate``) sets the sweep up: the affine hull,
the first ``cone_dim`` independent sign rows M, and the first cone basis
as the columns of M's inverse, read from the reduction of ``[M | I]``.
The sweep and the read-back of vertices then run as integer numpy array
work:

- the rays are the rows of one integer matrix, int64 while every product
  of a step stays below 2**62 and ``object`` (Python ints) past that, by
  the rule ``linalg._exact_dtype`` also sets for the state kernel; both
  dtypes run the same expressions;
- each ray's active set is packed into ``uint64`` words, one bit per sign
  constraint;
- the pairs of a step are filtered and tested for adjacency in blocks
  whose temporaries hold about ``_BLOCK_ENTRIES`` entries (at least one
  row), so memory stays bounded however many rays a step holds;
- the vertices are read back with one matrix product and one row gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import BoxLogicError, VariableCapExceeded
from .linalg import _exact_dtype, eliminate, gcd_reduce, np, solve_affine
from .scenario import DEFAULT_VARIABLE_CAP, AtomId, BoxWorldSpec, all_atom_ids

# entries of each temporary in a block of the sweep's pair tests (at least one row)
_BLOCK_ENTRIES = 1 << 14


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

    Two rays of the double description sweep are adjacent when no third
    ray's active set contains their common active set, a test that is
    exact for pointed cones.  A pair is only a candidate when its common
    set has at least ``cone_dim - 2`` constraints, a popcount of the
    AND of its words.  The exact test then counts, per candidate, the rays
    whose words contain the common set: the pair is adjacent when the
    count is two, the pair itself.

    Vertices are read back over one denominator: with x0 scaled to
    integers over d0, ray (s, r) gives x = (s*x0 + d0*basis^T r) / (s*d0),
    one product of the ray matrix with ``[x0 | d0; d0*basis | 0]``.  Each
    row is reduced by its gcd and scaled to the lcm of all vertex
    denominators; sorting and deduplicating those integer rows gives the
    order and the set of the ``Fraction`` tuples.
    """
    x0, d0, basis = solve_affine(hrep.eq_coeffs, hrep.eq_rhs, hrep.nvars)
    dim = len(basis)
    cone_dim = dim + 1

    # one homogeneous row per sign constraint: value of x_i as c*s + a.t >= 0,
    # scaled by the denominator of x0_i alone, not d0, to keep the products small
    cons: list[tuple[int, ...]] = []
    for i in range(hrep.nvars):
        g = gcd(x0[i], d0)
        cons.append((x0[i] // g, *(d0 // g * vec[i] for vec in basis)))
    cons.append((1,) + (0,) * dim)

    # the pivot columns of the transpose are the first independent rows: always
    # cone_dim of them, since e0 and the basis vectors' columns are independent
    _, chosen, _ = eliminate(list(zip(*cons)))
    initial = [cons[ci] for ci in chosen]
    # the chosen rows M are independent, so [M | I] reduces to [den*I | den*M^-1]
    # and the columns of its right block are the first rays
    identity = [[int(i == k) for k in range(cone_dim)] for i in range(cone_dim)]
    reduced, _, _ = eliminate([[*row, *unit] for row, unit in zip(initial, identity)])
    rays = np.array([gcd_reduce(col) for col in list(zip(*reduced))[cone_dim:]], dtype=object)
    act = np.zeros((cone_dim, -(-len(cons) // 64)), dtype=np.uint64)
    rays, dots = _exact_products(rays, initial)
    for k, ci in enumerate(chosen):
        _mark(act, dots[:, k] == 0, ci)

    for ci in range(len(cons)):
        if ci in chosen:
            continue
        rays, dots = _exact_products(rays, [cons[ci]], combine=True)
        d = dots[:, 0]
        _mark(act, d == 0, ci)
        neg = np.flatnonzero(d < 0)
        if not len(neg):
            continue
        pos = np.flatnonzero(d > 0)
        keep = np.concatenate([pos, np.flatnonzero(d == 0)])
        new_rays, new_act = [rays[keep]], [act[keep]]
        for p, n in _adjacent_pairs(act, pos, neg, cone_dim - 2):
            fresh = d[p, None] * rays[n] - d[n, None] * rays[p]
            new_rays.append(fresh // np.gcd.reduce(fresh, axis=1)[:, None])
            common = act[p] & act[n]
            _mark(common, slice(None), ci)
            new_act.append(common)
        rays, act = np.concatenate(new_rays), np.concatenate(new_act)

    # s >= 0 is one of the swept constraints, so s == 0 is the only way to fail
    if (rays[:, 0] == 0).any():
        raise BoxLogicError("recession direction found; polytope is unbounded")
    readback = [[*x0, d0]] + [[d0 * v for v in row] + [0] for row in basis]
    _, both = _exact_products(rays, list(zip(*readback)))
    both //= np.gcd.reduce(both, axis=1)[:, None]
    scale = lcm(*both[:, -1].tolist())
    magnitude = max(int(np.abs(both).max(initial=0)), 1) * scale
    both = both.astype(_exact_dtype(magnitude, 1))
    scaled = both[:, :-1] * (scale // both[:, -1:])
    # integer keys over one denominator sort and compare as the Fraction tuples do
    return VertexSet(hrep, dim, tuple(sorted(set(map(tuple, scaled.tolist())))), scale)


def _exact_products(
    rays: np.ndarray, rows: list[tuple[int, ...]], *, combine: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The rays and their dot products with ``rows``, both in the exact dtype.

    With ``combine`` the dtype also keeps ``d[p]*R[n] - d[n]*R[p]`` exact,
    the new rays of a sweep step.
    """
    rmax = max(int(np.abs(rays).max(initial=0)), 1)
    magnitude = rmax * max(abs(v) for row in rows for v in row)
    if combine:
        magnitude *= 2 * rmax
    rays = rays.astype(_exact_dtype(magnitude, rays.shape[1]), copy=False)
    return rays, rays @ np.array(rows, dtype=rays.dtype).T


def _mark(act: np.ndarray, rows, ci: int) -> None:
    """Add constraint ``ci`` to the active sets of ``rows``."""
    act[rows, ci >> 6] |= np.uint64(1 << (ci & 63))


def _adjacent_pairs(act: np.ndarray, pos: np.ndarray, neg: np.ndarray, need: int):
    """Adjacent (positive, negative) ray index arrays, one block of positive
    rays at a time, in row-major order over pos x neg.

    A ray that holds the common set of a pair (p, n) shares at least that
    many constraints with p, so the holder count of a block only reads the
    rays that share ``need`` constraints with one of its positive rays.
    """
    words = act.shape[1]
    is_neg = np.zeros(len(act), dtype=bool)
    is_neg[neg] = True
    rows = max(1, _BLOCK_ENTRIES // (len(act) * words))
    for start in range(0, len(pos), rows):
        block = pos[start : start + rows]
        shared = np.bitwise_count(act[block][:, None, :] & act[None, :, :]).sum(axis=2) >= need
        near = act[shared.any(axis=0)][None, :, :]
        i, n = np.nonzero(shared & is_neg)
        p = block[i]
        pairs = max(1, _BLOCK_ENTRIES // (near.shape[1] * words))
        adjacent = np.zeros(len(p), dtype=bool)
        for k in range(0, len(p), pairs):
            common = (act[p[k : k + pairs]] & act[n[k : k + pairs]])[:, None, :]
            holders = ((near & common) == common).all(axis=2).sum(axis=1)
            adjacent[k : k + pairs] = holders == 2
        yield p[adjacent], n[adjacent]

