"""Independent reference computations used to pin expected test values.

Everything here recomputes results from first principles with naive
algorithms, deliberately avoiding the code paths under test.
"""

import itertools
import math
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


# -- nonlocal vertices by construction ------------------------------------------
# Barrett, Linden, Massar, Pironio, Popescu, Roberts, PRA 71, 022101 (2005)
# classify the nonlocal vertices of the two-party non-signalling polytope for
# two outcomes per input and for two inputs per side.  The tables below are
# built from that classification alone, without the polytope code.


def _subsets(n: int, min_size: int) -> list:
    return [
        combo
        for size in range(min_size, n + 1)
        for combo in itertools.combinations(range(n), size)
    ]


def _is_local_parity(parity: dict, lefts, rights) -> bool:
    """Whether c(x, y) = u(x) xor v(y) for some bit labels u, v."""
    v = {y: parity[lefts[0], y] for y in rights}
    u = {x: parity[x, rights[0]] ^ v[rights[0]] for x in lefts}
    return all(parity[x, y] == u[x] ^ v[y] for x in lefts for y in rights)


def binary_nonlocal_tables(spec) -> list:
    """Nonlocal vertices of a scenario with two outcomes on every input.

    Every input's marginal is deterministic or uniform.  On the pairs of
    uniform inputs the outcomes are perfectly correlated with parity
    c(x, y); pairs with a deterministic input are products.  Such a table
    is extreme exactly when c is not of the local form u(x) xor v(y), which
    needs at least two uniform inputs on each side.  With three inputs per
    side this gives the 1,344 nonlocal vertices that Barrett et al. count.
    """
    nl, nr = len(spec.left_sizes), len(spec.right_sizes)
    if set(spec.left_sizes) | set(spec.right_sizes) != {2}:
        raise ValueError("the construction covers two outcomes per input")
    half = Fraction(1, 2)
    out = []
    for lefts in _subsets(nl, 2):
        for rights in _subsets(nr, 2):
            edges = [(x, y) for x in lefts for y in rights]
            fixed_l = [a for a in range(nl) if a not in lefts]
            fixed_r = [b for b in range(nr) if b not in rights]
            for bits in itertools.product(range(2), repeat=len(edges)):
                parity = dict(zip(edges, bits))
                if _is_local_parity(parity, lefts, rights):
                    continue
                for det_l in itertools.product(range(2), repeat=len(fixed_l)):
                    for det_r in itertools.product(range(2), repeat=len(fixed_r)):
                        xs, ys = dict(zip(fixed_l, det_l)), dict(zip(fixed_r, det_r))

                        def fn(a, b, alpha, beta, parity=parity, xs=xs, ys=ys):
                            if a in xs and alpha != xs[a] or b in ys and beta != ys[b]:
                                return Fraction(0)
                            if a in xs and b in ys:
                                return Fraction(1)
                            if a in xs or b in ys:
                                return half
                            return half if alpha ^ beta == parity[a, b] else Fraction(0)

                        out.append(bl.PRState.from_function(spec, fn))
    return out


def relabelled_pr_box_tables(spec) -> list:
    """Nonlocal vertices of a scenario with two inputs per side.

    Each is a k-outcome PR box, 2 <= k <= the fewest outcomes of any input,
    under injective outcome relabellings f_a, g_b:
    P(f_a(i), g_b(j) | a, b) = 1/k whenever j - i = a*b (mod k).
    Relabellings that give the same table count once.
    """
    if len(spec.left_sizes) != 2 or len(spec.right_sizes) != 2:
        raise ValueError("the construction covers two inputs per side")
    sizes = (*spec.left_sizes, *spec.right_sizes)
    boxes = set()
    for k in range(2, min(sizes) + 1):
        maps = [list(itertools.permutations(range(n), k)) for n in sizes]
        for f0, f1, g0, g1 in itertools.product(*maps):
            f, g = (f0, f1), (g0, g1)
            cells = frozenset(
                (a, b, f[a][i], g[b][(i + a * b) % k])
                for a in range(2)
                for b in range(2)
                for i in range(k)
            )
            boxes.add((k, cells))
    return [
        bl.PRState.from_function(
            spec,
            lambda a, b, alpha, beta, k=k, cells=cells: Fraction(1, k)
            if (a, b, alpha, beta) in cells
            else Fraction(0),
        )
        for k, cells in boxes
    ]


# -- nonlocal vertex counts in closed form ---------------------------------------
# Plain arithmetic from the literature, with no table built and nothing taken
# from boxlogic.


def two_input_nonlocal_count(outcome_counts) -> int:
    """Nonlocal vertices with two inputs per side, whose four inputs have the
    given outcome counts d_i (Barrett et al., PRA 71, 022101, 2005):
    sum over k >= 2 of prod_i C(d_i, k) * (k!)**3 * (k - 1)!.
    """
    return sum(
        math.prod(math.comb(d, k) for d in outcome_counts)
        * math.factorial(k) ** 3
        * math.factorial(k - 1)
        for k in range(2, min(outcome_counts) + 1)
    )


def binary_nonlocal_count(m_a: int, m_b: int) -> int:
    """Nonlocal vertices with two outcomes on every input and m_a, m_b inputs
    (Barrett & Pironio, PRL 95, 140401, 2005): sum over s, t >= 2 of
    C(m_a, s) C(m_b, t) 2**((m_a - s) + (m_b - t)) (2**(s t) - 2**(s + t - 1)).
    """
    return sum(
        math.comb(m_a, s)
        * math.comb(m_b, t)
        * 2 ** ((m_a - s) + (m_b - t))
        * (2 ** (s * t) - 2 ** (s + t - 1))
        for s in range(2, m_a + 1)
        for t in range(2, m_b + 1)
    )


# -- polytope points by plain Gaussian elimination ------------------------------
# Exact Fraction elimination written out here, so that neither the
# double-description sweep nor the library's row reduction is on the path.


def _reduced(rows) -> tuple:
    """Reduced row echelon form over Fractions: (nonzero rows, pivot columns)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        mat[r] = [v / mat[r][c] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat[: len(pivots)], pivots


def rank(rows) -> int:
    return len(_reduced(rows)[1])


def satisfies_hrep(hrep, x) -> bool:
    """x is non-negative and meets every equality of the H-representation."""
    return (
        len(x) == hrep.nvars
        and all(v >= 0 for v in x)
        and all(
            sum(c * v for c, v in zip(row, x)) == b
            for row, b in zip(hrep.eq_coeffs, hrep.eq_rhs)
        )
    )


def is_extreme_point(hrep, x) -> bool:
    """Exact extremality: the equalities and the active signs pin x uniquely."""
    if not satisfies_hrep(hrep, x):
        return False
    units = [[int(j == i) for j in range(hrep.nvars)] for i, v in enumerate(x) if v == 0]
    return rank([*hrep.eq_coeffs, *units]) == hrep.nvars


def basic_solution_vertices(hrep) -> set:
    """Vertices of {x >= 0 : A x = b} as its feasible basic solutions: for
    every set of rank(A) columns that are independent and have b in their
    span, the solution that is zero off those columns, when non-negative."""
    n = hrep.nvars
    r = rank(hrep.eq_coeffs)
    found = set()
    for support in itertools.combinations(range(n), r):
        augmented = [
            [row[j] for j in support] + [b] for row, b in zip(hrep.eq_coeffs, hrep.eq_rhs)
        ]
        reduced, pivots = _reduced(augmented)
        if pivots != list(range(r)):
            continue
        x = [Fraction(0)] * n
        for i, j in enumerate(support):
            x[j] = reduced[i][r]
        if all(v >= 0 for v in x):
            found.add(tuple(x))
    return found


def naive_adjacent_pairs(acts, small, large) -> list:
    """Adjacent (small, large) pairs of one sweep step, in order over small x large.

    ``acts[k]`` is ray k's active set as a bit mask.  Fukuda & Prodon
    (1996), Prop. 7(c): two extreme rays of a pointed cone are adjacent
    when no third ray's active set contains their common active set.  No
    cardinality filter: every pair is tested against every ray.
    """
    return [
        (p, n)
        for p in small
        for n in large
        if not any(
            k != p and k != n and acts[p] & acts[n] & ~act == 0 for k, act in enumerate(acts)
        )
    ]


# -- naive relation scans, checked against the step-table kernel ---------------
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


def naive_minimal_nonzero(elements) -> list:
    """Nonzero elements with no nonzero element strictly inside them."""
    return [
        p for p in elements if p and not any(q and q != p and q & p == q for q in elements)
    ]


def naive_step_refusal(logic):
    """The message of the atom-step walk's TheoremViolation, or None when it
    passes: every complement, then the atoms against the minimal nonzero
    elements, then the union of each element with each atom disjoint from it."""
    index, full = logic.index, logic.full_mask
    for i, e in enumerate(logic.elements):
        if e ^ full not in index:
            return f"element {i} has no complement in the table"
    stray = set(logic.atom_bits) ^ set(naive_minimal_nonzero(logic.elements))
    if stray:
        return f"element {min(index[e] for e in stray)} is either an atom or minimal nonzero, not both"
    for i, e in enumerate(logic.elements):
        for a, k in zip(logic.atom_bits, logic.atom_indices):
            if not e & a and e | a not in index:
                return f"disjoint element {i} and atom {k} have no union in the table"
    return None


def naive_monotone(elements, values) -> bool:
    """value(p) <= value(q) on every comparable pair p <= q."""
    return all(values[i] <= values[j] for i, j in naive_comparable_pairs(elements))


def naive_additive(elements, values) -> bool:
    """value(p | q) == value(p) + value(q) on every disjoint pair p, q."""
    index = {e: i for i, e in enumerate(elements)}
    return all(
        values[i] + values[j] == values[index[elements[i] | elements[j]]]
        for i, j in naive_disjoint_pairs(elements)
    )


def naive_unwitnessed(elements, rows) -> list:
    """Pairs (p, q), p not contained in q, such that no value row gives p a
    larger value than q, in ascending order."""
    return [
        (p, q)
        for p, a in enumerate(elements)
        for q, b in enumerate(elements)
        if a & ~b and not any(values[p] > values[q] for values in rows)
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


# -- per-table state oracle, checked against the batch kernel -------------------
# Plain loops over one table at a time: no numpy, no kernel matrices and no
# logic decomposition methods.


def atom_partitions(bits: int, atom_bits) -> list:
    """Every split of a set into pairwise-disjoint atoms, as sorted positions."""
    found = []

    def rec(rem: int, chosen: tuple) -> None:
        if rem == 0:
            found.append(tuple(sorted(chosen)))
            return
        low = rem & -rem
        for pos, a in enumerate(atom_bits):
            if a & low and a & rem == a:
                rec(rem & ~a, chosen + (pos,))

    if bits:
        rec(bits, ())
    return sorted(set(found))


def table_is_valid(pr) -> bool:
    """Non-negative, normalized per input pair, and both marginals input-free."""
    la, rb = pr.spec.left_sizes, pr.spec.right_sizes
    den = math.lcm(*(v.denominator for ab in pr.table for row in ab for rr in row for v in rr))
    t = [
        [[[v.numerator * (den // v.denominator) for v in rr] for rr in row] for row in ab]
        for ab in pr.table
    ]
    if any(v < 0 for ab in t for row in ab for rr in row for v in rr):
        return False
    for a in range(len(la)):
        for b in range(len(rb)):
            if sum(t[a][b][x][y] for x in range(la[a]) for y in range(rb[b])) != den:
                return False
            for y in range(rb[b]):
                if sum(t[a][b][x][y] for x in range(la[a])) != sum(
                    t[0][b][x][y] for x in range(la[0])
                ):
                    return False
            for x in range(la[a]):
                if sum(t[a][b][x][y] for y in range(rb[b])) != sum(
                    t[a][0][x][y] for y in range(rb[0])
                ):
                    return False
    return True


def naive_ns_rows(spec) -> tuple:
    """``ns_polytope``'s (variables, coefficient rows, rhs) from plain loops.

    Variables are (a, alpha, b, beta) in lexicographic order.  The rows are
    one normalization per input pair, then per (b, beta, a >= 1) the right
    marginal at a minus the one at a = 0, then per (a, alpha, b >= 1) the
    left marginal at b minus the one at b = 0.
    """
    la, rb = spec.left_sizes, spec.right_sizes
    variables = [
        (a, alpha, b, beta)
        for a in range(len(la))
        for alpha in range(la[a])
        for b in range(len(rb))
        for beta in range(rb[b])
    ]
    pos = {v: k for k, v in enumerate(variables)}
    coeffs, rhs = [], []
    for a in range(len(la)):
        for b in range(len(rb)):
            row = [0] * len(variables)
            for alpha in range(la[a]):
                for beta in range(rb[b]):
                    row[pos[a, alpha, b, beta]] = 1
            coeffs.append(tuple(row))
            rhs.append(1)
    for b in range(len(rb)):
        for beta in range(rb[b]):
            for a in range(1, len(la)):
                row = [0] * len(variables)
                for alpha in range(la[a]):
                    row[pos[a, alpha, b, beta]] += 1
                for alpha in range(la[0]):
                    row[pos[0, alpha, b, beta]] -= 1
                coeffs.append(tuple(row))
                rhs.append(0)
    for a in range(len(la)):
        for alpha in range(la[a]):
            for b in range(1, len(rb)):
                row = [0] * len(variables)
                for beta in range(rb[b]):
                    row[pos[a, alpha, b, beta]] += 1
                for beta in range(rb[0]):
                    row[pos[a, alpha, 0, beta]] -= 1
                coeffs.append(tuple(row))
                rhs.append(0)
    return variables, coeffs, rhs


def naive_violations(pr) -> list:
    """``validate_pr_state``'s violations as ``str(to_dict())``, from plain loops.

    Per input pair in order: its negative entries, then its normalization
    (residual: the sum minus 1).  Then per (b, beta, a >= 1) the right
    marginal at a minus the one at a = 0, then per (a, alpha, b >= 1) the
    left marginal at b minus the one at b = 0, each where nonzero.
    """
    la, rb, t = pr.spec.left_sizes, pr.spec.right_sizes, pr.table
    out = []

    def emit(kind, where, residual):
        out.append(str({"kind": kind, "where": where, "residual": str(Fraction(residual))}))

    for a in range(len(la)):
        for b in range(len(rb)):
            total = Fraction(0)
            for alpha in range(la[a]):
                for beta in range(rb[b]):
                    v = t[a][b][alpha][beta]
                    total += v
                    if v < 0:
                        emit("negative", {"a": a, "b": b, "alpha": alpha, "beta": beta}, v)
            if total != 1:
                emit("normalization", {"a": a, "b": b}, total - 1)
    for b in range(len(rb)):
        for beta in range(rb[b]):
            ref = sum(t[0][b][alpha][beta] for alpha in range(la[0]))
            for a in range(1, len(la)):
                got = sum(t[a][b][alpha][beta] for alpha in range(la[a]))
                if got != ref:
                    where = {"b": b, "beta": beta, "a": a, "reference_a": 0}
                    emit("right_marginal_depends_on_left_input", where, got - ref)
    for a in range(len(la)):
        for alpha in range(la[a]):
            ref = sum(t[a][0][alpha][beta] for beta in range(rb[0]))
            for b in range(1, len(rb)):
                got = sum(t[a][b][alpha][beta] for beta in range(rb[b]))
                if got != ref:
                    where = {"a": a, "alpha": alpha, "b": b, "reference_b": 0}
                    emit("left_marginal_depends_on_right_input", where, got - ref)
    return out


def naive_digit_mask(width: int, stride: int, size: int, value: int) -> int:
    """``scenario._digit_mask`` as one block per period, in a plain loop."""
    block = ((1 << stride) - 1) << (value * stride)
    out = 0
    for start in range(0, width, stride * size):
        out |= block << start
    return out


def naive_outcome_mask(gamma, side, input_index: int, outcome: int) -> int:
    """The points whose outcome column on ``side`` shows ``outcome`` at
    ``input_index``, one point at a time through ``index_to_point``."""
    mask = 0
    for i in range(gamma.gamma_size):
        xs, ys = gamma.index_to_point(i)
        if (xs if side is bl.Side.LEFT else ys)[input_index] == outcome:
            mask |= 1 << i
    return mask


def element_partitions(logic) -> list:
    """``atom_partitions`` of every element, in element index order."""
    return [atom_partitions(bits, logic.atom_bits) for bits in logic.elements]


def state_oracle(logic, partitions, pr) -> dict:
    """Element values of a table through every atomic partition, exactly.

    ``partitions`` is ``element_partitions(logic)``.  The entries are put
    over their lcm denominator ``den`` and summed as Python integers.
    ``numerators[i] / den`` is the sum over element i's lexicographically
    least partition (0 for the empty element); ``mismatch`` is the first
    (element, partition, sum, canonical sum) that disagrees, scanning
    elements in index order and partitions in sorted order, or None.
    """
    entries = [pr.atom_value(aid) for aid in logic.atom_ids]
    den = math.lcm(*(f.denominator for f in entries))
    atoms = [f.numerator * (den // f.denominator) for f in entries]
    numerators, mismatch = [], None
    for i, parts in enumerate(partitions):
        sums = [sum(atoms[pos] for pos in part) for part in parts] or [0]
        numerators.append(sums[0])
        if mismatch is None:
            for part, s in zip(parts, sums):
                if s != sums[0]:
                    mismatch = (i, part, Fraction(s, den), Fraction(sums[0], den))
                    break
    return {
        "valid": table_is_valid(pr),
        "den": den,
        "numerators": numerators,
        "mismatch": mismatch,
    }


def lex_least_partitions(logic) -> list:
    """The lexicographically least ``atom_partitions`` of every element; () for the empty one."""
    return [(atom_partitions(e, logic.atom_bits) or [()])[0] for e in logic.elements]


def atom_steps(logic) -> list:
    """(element, atom position, index of the union) for every element and
    every atom disjoint from it: elements in index order, each one's steps
    by the index of the union."""
    index = {e: i for i, e in enumerate(logic.elements)}
    return [
        (i, pos, u)
        for i, e in enumerate(logic.elements)
        for u, pos in sorted(
            (index[e | a], pos) for pos, a in enumerate(logic.atom_bits) if not e & a
        )
    ]


def first_step_failure(logic, pr):
    """The first of the ``atom_steps`` on which a table's values fail to add.

    Values are sums over ``lex_least_partitions``.  The result is (union
    index, partition of the element plus the atom, its sum, the union's
    value) with the values as Fractions, or None when every step adds.
    """
    entries = [pr.atom_value(aid) for aid in logic.atom_ids]
    den = math.lcm(*(f.denominator for f in entries))
    atoms = [f.numerator * (den // f.denominator) for f in entries]
    least = lex_least_partitions(logic)
    value = [sum(atoms[pos] for pos in part) for part in least]
    for i, pos, u in atom_steps(logic):
        total = value[i] + atoms[pos]
        if total != value[u]:
            return u, tuple(sorted(least[i] + (pos,))), Fraction(total, den), Fraction(value[u], den)
    return None


# -- structural checks, first counterexample --------------------------------------
# Plain loops that judge every case of a check up front; the entry reports the
# first failing case.  ``checked`` counts the cases up to and including it, or
# all of them when none fails.  L1, C2 and L3 read the whole table and report
# its size.


def first_counterexample(verdicts, note="") -> tuple:
    """(passed, checked, counterexample, note) of per-case verdicts, None where a case holds."""
    bad = [k for k, v in enumerate(verdicts) if v is not None]
    if not bad:
        return True, len(verdicts), None, note
    return False, bad[0] + 1, verdicts[bad[0]], note


def naive_axiom_entries(logic) -> dict:
    """Every entry of ``verify_axioms`` as (passed, checked, counterexample, note)."""
    elements = list(logic.elements)
    n = len(elements)
    full = (1 << logic.ground_size) - 1
    index = {e: i for i, e in enumerate(elements)}
    comp = [index.get(e ^ full) for e in elements]

    def whole_table(bad):
        return (not bad, n, {"element": bad[0]} if bad else None, "")

    def reverses(i, j):
        if comp[i] is None or comp[j] is None:
            return {"pair": [i, j], "reason": "no complement"}
        return None if elements[comp[j]] & elements[comp[i]] == elements[comp[j]] else {"pair": [i, j]}

    comparable = naive_comparable_pairs(elements)
    unions = [
        None if (elements[i] | elements[j]) in index else {"pair": [i, j]}
        for i, j in naive_disjoint_pairs(elements)
    ]
    chain = "pairwise unions; chaining covers larger disjoint families"
    return {
        "C1": (0 in index, 1, None, ""),
        "L1": (0 in index and full in index, n, None, ""),
        "C2": whole_table([i for i, c in enumerate(comp) if c is None]),
        "L3": whole_table([i for i, c in enumerate(comp) if c is None or comp[c] != i]),
        "L2": first_counterexample([reverses(i, j) for i, j in comparable]),
        "L5": first_counterexample(
            [None if (elements[j] & ~elements[i]) in index else {"pair": [i, j]} for i, j in comparable]
        ),
        "C3": first_counterexample(unions, chain),
        "L4": first_counterexample(
            unions, "disjoint unions found in the table are the least upper bounds; " + chain
        ),
    }


def naive_atomic_coverage(logic) -> tuple:
    """``verify_atomic_coverage``: every nonzero element splits into atoms."""
    return first_counterexample(
        [
            None if atom_partitions(e, logic.atom_bits) else {"element": i, "reason": "no partition"}
            for i, e in enumerate(logic.elements)
            if e
        ]
    )


def naive_order_classification(logic) -> tuple:
    """``verify_order_classification``: the entry and the case counts before any failure.

    An element q above atom (a, alpha, b, beta) is the full set, else contains
    the left piece "input a gave alpha", else the right piece, else only the
    atom; the rest of q outside that piece has to be in the table.
    """
    elements = logic.elements
    index = {e: i for i, e in enumerate(elements)}
    full = (1 << logic.ground_size) - 1
    verdicts, kinds = [], []
    for aid, k in zip(logic.atom_ids, logic.atom_indices):
        atom = elements[k]
        left = logic.gamma.outcome_mask(bl.Side.LEFT, aid.a, aid.alpha)
        right = logic.gamma.outcome_mask(bl.Side.RIGHT, aid.b, aid.beta)
        for j, q in enumerate(elements):
            if atom & q != atom:
                continue
            if q == full:
                kind, base = "top", full
            elif left & q == left:
                kind, base = "left_localized", left
            elif right & q == right:
                kind, base = "right_localized", right
            else:
                kind, base = "atom_plus_rest", atom
            kinds.append(kind)
            verdicts.append(
                None
                if (q & ~base) in index
                else {
                    "atom": k,
                    "element": j,
                    "reason": "remainder of an order classification is missing from the logic",
                }
            )
    entry = first_counterexample(verdicts)
    counts = {kind: 0 for kind in ("atom_plus_rest", "left_localized", "right_localized", "top")}
    for kind, verdict in zip(kinds, verdicts):
        if verdict is not None:
            break
        counts[kind] += 1
    return entry, counts


def naive_localized_entries(logic, family_bound: int = 2) -> dict:
    """The four checks of ``verify_localized_propositions``, plus under
    "incompatible_pairs" the same-side incompatible pairs that the same-side
    scan passes before its first failure, in scan order.

    A family of one-box propositions on left input a and right input b passes
    when the propositions and every nonempty overlap region are in the table:
    group the outcome pairs (alpha, beta) by which chosen propositions contain
    them.  A proposition missing from the table is compatible with nothing.
    """
    gamma, spec = logic.gamma, logic.spec
    elements = logic.elements
    index = {e: i for i, e in enumerate(elements)}
    full = (1 << logic.ground_size) - 1
    sides = (bl.Side.LEFT, bl.Side.RIGHT)

    def one_box_bits(side, a, outcomes):
        bits = 0
        for o in outcomes:
            bits |= gamma.outcome_mask(side, a, o)
        return bits

    props = {side: [] for side in sides}
    for side in sides:
        for a, size in enumerate(spec.sizes(side)):
            for r in range(1, (1 << size) - 1):
                outcomes = [o for o in range(size) if r >> o & 1]
                props[side].append((a, outcomes, index.get(one_box_bits(side, a, outcomes))))

    def compatible(i, j):
        if i is None or j is None:
            return False
        p, q = elements[i], elements[j]
        return all(bits in index for bits in (p & q, p & ~q, q & ~p))

    cross = [
        None if compatible(ip, iq) else {"left": [a, P], "right": [b, Q]}
        for a, P, ip in props[bl.Side.LEFT]
        for b, Q, iq in props[bl.Side.RIGHT]
    ]

    same, meet_join, incompatible = [], [], []
    for side in sides:
        for a1, P, i1 in props[side]:
            for a2, Q, i2 in props[side]:
                where = {"side": side.value, "first": [a1, P], "second": [a2, Q]}
                c = compatible(i1, i2)
                same.append(None if c == (a1 == a2) else {**where, "compatible": c})
                incompatible.append(None if c or None in (i1, i2) else (i1, i2))
                # the meet and join wanted here have to be in the table
                if a1 != a2:
                    want = (index.get(0), index.get(full))
                else:
                    want = (
                        index.get(one_box_bits(side, a1, set(P) & set(Q))),
                        index.get(one_box_bits(side, a1, set(P) | set(Q))),
                    )
                ok = None not in (i1, i2, *want) and want == (
                    brute_meet(logic, i1, i2),
                    brute_join(logic, i1, i2),
                )
                meet_join.append(None if ok else where)
    same_entry = first_counterexample(same)
    passed_cases = same_entry[1] - (0 if same_entry[0] else 1)

    families = []
    left_inputs = sorted({a for a, _, _ in props[bl.Side.LEFT]})
    right_inputs = sorted({b for b, _, _ in props[bl.Side.RIGHT]})
    for a in left_inputs:
        for b in right_inputs:
            lefts = [P for x, P, _ in props[bl.Side.LEFT] if x == a]
            rights = [Q for y, Q, _ in props[bl.Side.RIGHT] if y == b]
            for k in range(family_bound + 1):
                for l in range(family_bound + 1):
                    if k + l < 2:
                        continue
                    for lchoice in itertools.combinations(lefts, k):
                        for rchoice in itertools.combinations(rights, l):
                            regions = {}
                            for alpha in range(spec.left_sizes[a]):
                                for beta in range(spec.right_sizes[b]):
                                    sig = (
                                        tuple(alpha in P for P in lchoice),
                                        tuple(beta in Q for Q in rchoice),
                                    )
                                    if any(sig[0]) or any(sig[1]):
                                        cell = gamma.outcome_mask(
                                            bl.Side.LEFT, a, alpha
                                        ) & gamma.outcome_mask(bl.Side.RIGHT, b, beta)
                                        regions[sig] = regions.get(sig, 0) | cell
                            present = [one_box_bits(bl.Side.LEFT, a, P) for P in lchoice]
                            present += [one_box_bits(bl.Side.RIGHT, b, Q) for Q in rchoice]
                            ok = all(bits in index for bits in [*present, *regions.values()])
                            families.append(
                                None
                                if ok
                                else {"a": a, "b": b, "left": list(lchoice), "right": list(rchoice)}
                            )
    return {
        "cross_side": first_counterexample(cross),
        "same_side": same_entry,
        "families": first_counterexample(families),
        "meet_join_table": first_counterexample(meet_join),
        "incompatible_pairs": [pq for pq in incompatible[:passed_cases] if pq],
    }
