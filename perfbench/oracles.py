"""Expected results computed without importing boxlogic.

Everything here is derived from the scenario file alone, with its own
sample-space indexing, so that a fault in the program cannot also move
the figure it is checked against.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import prod
from pathlib import Path

# Barrett, Linden, Massar, Pironio, Popescu, Roberts, PRA 71, 022101 (2005):
# the two-party polytope with three binary inputs per side has 1,344
# nonlocal vertices besides its 64 deterministic ones.
BARRETT_3IN_BINARY_NONLOCAL = 1344


def load_sizes(path: Path) -> tuple[tuple[int, ...], tuple[int, ...]]:
    raw = json.loads(path.read_text(encoding="utf-8"))
    return tuple(len(o) for o in raw["left"]), tuple(len(o) for o in raw["right"])


def sample_points(left, right) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """One outcome column per box: every pair (xs, ys)."""
    xs = list(itertools.product(*(range(n) for n in left)))
    ys = list(itertools.product(*(range(n) for n in right)))
    return [(x, y) for x in xs for y in ys]


def atom_bits(left, right) -> dict[tuple[int, int, int, int], int]:
    """Bit set of the question [a alpha, b beta], keyed (a, alpha, b, beta)."""
    points = sample_points(left, right)
    out = {}
    for a, la in enumerate(left):
        for alpha in range(la):
            for b, rb in enumerate(right):
                for beta in range(rb):
                    bits = 0
                    for k, (x, y) in enumerate(points):
                        if x[a] == alpha and y[b] == beta:
                            bits |= 1 << k
                    out[(a, alpha, b, beta)] = bits
    return out


def disjoint_unions(atoms) -> set[int]:
    """Every union of pairwise-disjoint atoms, the empty union included."""
    found = {0}
    frontier = [0]
    while frontier:
        grown = []
        for e in frontier:
            for a in atoms:
                if not a & e and (e | a) not in found:
                    found.add(e | a)
                    grown.append(e | a)
        frontier = grown
    return found


def popcount_histogram(elements) -> dict[int, int]:
    return dict(sorted(Counter(e.bit_count() for e in elements).items()))


def deterministic_vertices(left, right) -> int:
    """One vertex per joint outcome assignment: the product of outcomes over inputs."""
    return prod(left) * prod(right)


def affine_dimension(left, right) -> int:
    return (sum(n - 1 for n in left) + 1) * (sum(n - 1 for n in right) + 1) - 1


def relabelled_pr_boxes(left, right) -> set[frozenset]:
    """Distinct k-outcome PR boxes, 2 <= k <= outcomes, on two inputs per side.

    P(f_a(i), g_b(j) | a, b) = 1/k whenever j - i = a*b (mod k), with one
    injective outcome map f_a, g_b per party and input; the table is keyed
    by its nonzero entries, so relabellings that coincide count once.
    """
    if len(left) != 2 or len(right) != 2:
        raise ValueError("the PR-box construction covers two inputs per side")
    boxes = set()
    for k in range(2, min(*left, *right) + 1):
        maps = [list(itertools.permutations(range(n), k)) for n in (*left, *right)]
        for f0, f1, g0, g1 in itertools.product(*maps):
            f, g = (f0, f1), (g0, g1)
            boxes.add(
                frozenset(
                    (a, b, f[a][i], g[b][j], Fraction(1, k))
                    for a in range(2)
                    for b in range(2)
                    for i in range(k)
                    for j in range(k)
                    if (j - i - a * b) % k == 0
                )
            )
    return boxes


def expectations(scenario: Path, nonlocal_vertices: str) -> dict:
    """Figures a run's output must reproduce.

    ``nonlocal_vertices`` names the source of the nonlocal vertex count:
    "barrett" for the published figure, "pr-boxes" for the construction.
    """
    left, right = load_sizes(scenario)
    atoms = atom_bits(left, right)
    closure = disjoint_unions(atoms.values())
    if nonlocal_vertices == "barrett":
        if left != (2, 2, 2) or right != (2, 2, 2):
            raise ValueError("the published count is for three binary inputs per side")
        nonlocal_count = BARRETT_3IN_BINARY_NONLOCAL
    else:
        nonlocal_count = len(relabelled_pr_boxes(left, right))
    return {
        "left": left,
        "right": right,
        "sample_points": prod(left) * prod(right),
        "atoms": len(atoms),
        "elements": len(closure),
        "histogram": popcount_histogram(closure),
        "deterministic": deterministic_vertices(left, right),
        "nonlocal": nonlocal_count,
        "affine_dim": affine_dimension(left, right),
    }


def check_verify_report(report: dict, expect: dict, seed: int, samples: int) -> list[str]:
    """Disagreements between a `verify` report and the expectations."""
    logic = report.get("logic", {})
    poly = report.get("polytope", {})
    states = report.get("state_correspondence", {})
    n_vertices = expect["deterministic"] + expect["nonlocal"]
    facts = [
        ("all_passed", report.get("all_passed"), True),
        ("seed", report.get("seed"), seed),
        ("element_count", logic.get("element_count"), expect["elements"]),
        ("atom_count", logic.get("atom_count"), expect["atoms"]),
        ("sample_points", logic.get("sample_points"), expect["sample_points"]),
        (
            "distinct_unions",
            report.get("disjoint_atom_union_converse", {}).get("distinct_unions"),
            expect["elements"],
        ),
        ("vertex_count", poly.get("vertex_count"), n_vertices),
        ("deterministic", poly.get("deterministic"), expect["deterministic"]),
        ("nondeterministic", poly.get("nondeterministic"), expect["nonlocal"]),
        ("affine_dim", poly.get("affine_dim"), expect["affine_dim"]),
        ("vertex_states", states.get("vertex_states"), n_vertices),
        ("random_states", states.get("random_states"), samples),
        ("all_tables_valid", states.get("all_tables_valid"), True),
        ("round_trip_failures", states.get("round_trip_failures"), 0),
    ]
    return [f"{name}: got {got!r}, expected {want!r}" for name, got, want in facts if got != want]


def check_export(data: dict, expect: dict, seed: int, cover_samples: int) -> list[str]:
    """Disagreements between an `export json` document and the expectations.

    Beyond counts: every element's complement, closure of the exported
    atoms under disjoint union, and a seeded sample of cover edges each
    checked as a strict inclusion with no element strictly between.
    """
    problems = []
    ground = data["ground_size"]
    full = (1 << ground) - 1
    elements = [int(h, 16) for h in data["elements"]]
    if ground != expect["sample_points"]:
        problems.append(f"ground_size: got {ground}, expected {expect['sample_points']}")
    if len(elements) != expect["elements"]:
        problems.append(f"elements: got {len(elements)}, expected {expect['elements']}")
    if popcount_histogram(elements) != expect["histogram"]:
        problems.append("popcount histogram differs from the disjoint-union closure")
    for i, c in enumerate(data["complement"]):
        if c is None or elements[c] != elements[i] ^ full:
            problems.append(f"element {i}: complement {c} is wrong")
            break
    atoms = [elements[i] for i in data["atoms"]]
    if len(atoms) != expect["atoms"]:
        problems.append(f"atoms: got {len(atoms)}, expected {expect['atoms']}")
    left, right = expect["left"], expect["right"]
    for aid, bits in zip(data["atom_ids"], atoms):
        want = expect["sample_points"] // (left[aid["a"]] * right[aid["b"]])
        if bits.bit_count() != want:
            problems.append(f"atom {aid}: {bits.bit_count()} points, expected {want}")
            break
    if disjoint_unions(atoms) != set(elements):
        problems.append("elements are not the disjoint unions of the exported atoms")
    covers = data["covers"]
    rng = random.Random(seed)
    for i, j in rng.sample(covers, min(cover_samples, len(covers))):
        lo, hi = elements[i], elements[j]
        if lo & hi != lo or lo == hi:
            problems.append(f"cover ({i}, {j}) is not a strict inclusion")
            break
        if any(e != lo and e != hi and lo & e == lo and e & hi == e for e in elements):
            problems.append(f"cover ({i}, {j}) has an element strictly between")
            break
    return problems
