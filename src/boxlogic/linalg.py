"""Exact linear algebra over Python ints: one fraction-free elimination and
the affine solve built on it.  Ints never overflow, so the polytope and
state kernels that build on these need no overflow rule either."""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .errors import BoxLogicError


def eliminate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968).

    Returns ``(reduced, pivots, den)``: the reduced row echelon form of
    ``rows`` as integer rows over one positive denominator, so that
    ``reduced[i][pivots[j]] == den`` when ``i == j`` and 0 otherwise, and
    ``reduced[i][c] / den`` is the rational form's entry.  Zero rows are
    dropped.  The pivot columns are the first independent columns, in order.

    Each step replaces every other row by ``(p*row - f*top) // prev``, with
    ``p`` the new pivot and ``prev`` the one before.  Every entry is then a
    minor of the input up to sign, so the division is exact (Sylvester's
    identity) and the entries stay as small as the determinants.  A row
    with ``f == 0`` is unchanged when ``p == prev``, so it is skipped.
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    den = 1
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        top, p = mat[r], mat[r][c]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and (f or p != den):
                mat[i] = [(p * x - f * y) // den for x, y in zip(row, top)]
        den = p
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    if den < 0:
        mat, den = [[-x for x in row] for row in mat], -den
    return mat[: len(pivots)], pivots, den


def solve_affine(
    coeffs: Sequence[Sequence[int]], rhs: Sequence[int], nvars: int
) -> tuple[list[int], int, list[tuple[int, ...]]]:
    """Solve ``A x = b`` exactly for ``nvars`` unknowns.

    Returns ``(x0, d0, basis)``: the particular solution ``x0 / d0`` (free
    variables set to zero) over its least common denominator ``d0``, and a
    basis of the null space of ``A``, one primitive integer vector per free
    variable, positive there.  Raises BoxLogicError if the system is
    inconsistent.
    """
    reduced, pivots, den = eliminate([[*row, b] for row, b in zip(coeffs, rhs)])
    if nvars in pivots:
        raise BoxLogicError("inconsistent equalities: a combination of them reads 0 = 1")
    x0 = [0] * nvars
    for row, c in zip(reduced, pivots):
        x0[c] = row[nvars]
    basis = []
    for fc in (c for c in range(nvars) if c not in pivots):
        v = [0] * nvars
        v[fc] = den
        for row, c in zip(reduced, pivots):
            v[c] = -row[fc]
        basis.append(gcd_reduce(v))
    g = gcd(den, *x0)
    return [x // g for x in x0], den // g, basis


def gcd_reduce(vec: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*vec)
    if g > 1:
        return tuple(x // g for x in vec)
    return tuple(vec)
