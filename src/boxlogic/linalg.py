"""Exact linear algebra: rational row reduction, rank, affine solve, and the
dtype rule of the integer numpy kernels."""

from __future__ import annotations

import importlib.util
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

# Importing numpy is the largest fixed cost of a command, and only the polytope
# and state kernels compute with it: the package binds a lazy module, which
# executes numpy on first attribute access, so `build` and `export json` never do.
if "numpy" in sys.modules:
    np = sys.modules["numpy"]
else:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns the nonzero rows and pivot columns."""
    mat = [list(map(Fraction, row)) for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def solve_affine(
    coeffs: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Solve ``A x = b`` exactly.

    Returns a particular solution (free variables set to zero) and a basis
    of the null space of ``A``.  Raises ValueError if the system is
    inconsistent.
    """
    augmented = [
        [Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(coeffs, rhs)
    ]
    reduced, pivots = rref(augmented)
    ncols = len(coeffs[0])
    if ncols in pivots:
        raise ValueError("inconsistent linear system")
    x0 = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x0[c] = reduced[i][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -reduced[i][fc]
        basis.append(v)
    return x0, basis


def integerize(vec: Sequence[Fraction]) -> tuple[list[int], int]:
    """Scale a rational vector to integers; returns (scaled, denominator)."""
    den = 1
    for x in vec:
        den = lcm(den, Fraction(x).denominator)
    return [int(x * den) for x in vec], den


def _exact_dtype(magnitude: int, terms: int):
    """int64 when sums of ``terms`` products up to ``magnitude`` stay below 2**62.

    The one overflow rule of the integer kernels: past the bound the same
    expressions run on ``object`` arrays of Python ints.
    """
    return np.int64 if magnitude * max(terms, 2) < 2**62 else object


def gcd_reduce(vec: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g > 1:
        return tuple(x // g for x in vec)
    return tuple(vec)


class IndependentRows:
    """Incrementally collects rows that are linearly independent."""

    def __init__(self) -> None:
        self._reduced: list[list[Fraction]] = []  # rows kept in echelon form
        self._pivots: list[int] = []
        self.count = 0

    def add(self, row: Sequence[int | Fraction]) -> bool:
        """Keep ``row`` if independent of the rows so far; report whether kept."""
        work = [Fraction(x) for x in row]
        for red, piv in zip(self._reduced, self._pivots):
            if work[piv] != 0:
                f = work[piv]
                work = [x - f * y for x, y in zip(work, red)]
        pivot = next((c for c, x in enumerate(work) if x != 0), None)
        if pivot is None:
            return False
        pv = work[pivot]
        work = [x / pv for x in work]
        self._reduced.append(work)
        self._pivots.append(pivot)
        self.count += 1
        return True
