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


def naive_minimal_nonzero(elements) -> list:
    """Nonzero elements with no nonzero element strictly inside them."""
    return [
        p for p in elements if p and not any(q and q != p and q & p == q for q in elements)
    ]


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
    when every nonempty overlap region is in the table: group the outcome
    pairs (alpha, beta) by which chosen propositions contain them.
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
                props[side].append((a, outcomes, index[one_box_bits(side, a, outcomes)]))

    def compatible(i, j):
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
                incompatible.append(None if c else (i1, i2))
                if a1 != a2:
                    want = (index[0], index[full])
                else:
                    want = (
                        index[one_box_bits(side, a1, set(P) & set(Q))],
                        index[one_box_bits(side, a1, set(P) | set(Q))],
                    )
                got = (brute_meet(logic, i1, i2), brute_join(logic, i1, i2))
                meet_join.append(None if got == want else where)
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
                            ok = all(bits in index for bits in regions.values())
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
