"""Independent reference computations used to pin expected test values.

Everything here recomputes results from first principles with naive
algorithms, deliberately avoiding the code paths under test.
"""

from fractions import Fraction

import boxlogic as bl


def family_closure(gamma_size: int, atom_bits) -> frozenset:
    """All unions of pairwise-disjoint atom subsets plus the empty set."""
    atoms = sorted(atom_bits)
    seen = set()

    def grow(start, union):
        seen.add(union)
        for i in range(start, len(atoms)):
            if union & atoms[i] == 0:
                grow(i + 1, union | atoms[i])

    grow(0, 0)
    return frozenset(seen)


def count_partitions(bits: int, atom_bits) -> int:
    """Number of ways to split a set into pairwise-disjoint atoms."""
    if bits == 0:
        return 0
    atoms = list(atom_bits)

    def rec(rem: int) -> int:
        if rem == 0:
            return 1
        low = rem & -rem
        total = 0
        for a in atoms:
            if a & low and a & rem == a:
                total += rec(rem & ~a)
        return total

    return rec(bits)


def brute_meet(logic, i: int, j: int):
    """Greatest lower bound by scanning the whole table."""
    p, q = logic.elements[i], logic.elements[j]
    lower = [k for k, e in enumerate(logic.elements) if e & p == e and e & q == e]
    maximal = [
        k
        for k in lower
        if not any(
            k != m and logic.elements[k] & logic.elements[m] == logic.elements[k]
            for m in lower
        )
    ]
    return maximal[0] if len(maximal) == 1 else None


def brute_join(logic, i: int, j: int):
    p, q = logic.elements[i], logic.elements[j]
    upper = [k for k, e in enumerate(logic.elements) if e & p == p and e & q == q]
    minimal = [
        k
        for k in upper
        if not any(
            k != m and logic.elements[m] & logic.elements[k] == logic.elements[m]
            for m in upper
        )
    ]
    return minimal[0] if len(minimal) == 1 else None


def orthomodular_law_holds(logic) -> bool:
    """q == p v (q ^ p') for all comparable pairs, with brute-force bounds."""
    n = len(logic.elements)
    for i in range(n):
        for j in range(n):
            p, q = logic.elements[i], logic.elements[j]
            if p & q != p:
                continue
            ci = logic.complement_map[i]
            if ci is None:
                return False
            inner = brute_meet(logic, j, ci)
            if inner is None:
                return False
            outer = brute_join(logic, i, inner)
            if outer != j:
                return False
    return True


def chsh_pr_box_tables(spec) -> list:
    """The eight half-half tables with perfectly correlated parities."""
    out = []
    for g in range(2):
        for d in range(2):
            for e in range(2):
                def fn(a, b, alpha, beta, g=g, d=d, e=e):
                    target = (a * b) ^ (g * a) ^ (d * b) ^ e
                    return Fraction(1, 2) if (alpha ^ beta) == target else Fraction(0)

                out.append(bl.PRState.from_function(spec, fn))
    return out


def deterministic_tables(spec) -> list:
    return [
        bl.PRState.deterministic(spec, xs, ys)
        for xs, ys in bl.deterministic_points(spec)
    ]


# -- naive relation scans, checked against the column kernel -------------------
# These take plain element lists and never call ConcreteLogic's relation
# methods or the closure under test.


def naive_closure(ground_size: int, seeds) -> set:
    """Complement and disjoint-union closure by whole passes to a fixed point."""
    full = (1 << ground_size) - 1
    family = {0, *seeds}
    while True:
        grown = set(family)
        for p in family:
            grown.add(p ^ full)
            for q in family:
                if p & q == 0:
                    grown.add(p | q)
        if grown == family:
            return family
        family = grown


def naive_comparable_pairs(elements) -> list:
    return [
        (i, j)
        for i, p in enumerate(elements)
        for j, q in enumerate(elements)
        if p & q == p
    ]


def naive_disjoint_pairs(elements) -> list:
    return [
        (i, j)
        for i, p in enumerate(elements)
        for j, q in enumerate(elements)
        if i < j and p & q == 0
    ]


def naive_covers(elements) -> list:
    """Pairs p < q of the subset order with no element strictly between."""
    above = [
        {j for j, q in enumerate(elements) if p & q == p and p != q}
        for p in elements
    ]
    return [
        (i, j)
        for i in range(len(elements))
        for j in sorted(above[i])
        if not any(j in above[k] for k in above[i])
    ]
