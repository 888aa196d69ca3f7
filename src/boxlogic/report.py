"""Consolidated verification runs with deterministic, canonical reports."""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from . import __version__
from .compat import single_box_logic, verify_localized_propositions
from .errors import CapExceeded
from .logic import (
    DEFAULT_CLOSURE_CAP,
    Logic,
    close_logic,
    disjoint_atom_union_report,
    is_boolean,
    is_lattice,
    verify_atomic_coverage,
    verify_axioms,
    verify_order_classification,
)
from .polytope import DEFAULT_VARIABLE_CAP, HRep, VertexSet, enumerate_vertices, ns_polytope
from .scenario import DEFAULT_GAMMA_CAP, AtomId, BoxWorldSpec, Side
from .states import (
    PRState,
    check_order_determining,
    round_trip_rows,
    sample_mixture_rows,
    verify_state_monotonicity,
)

DEFAULT_SAMPLE_COUNT = 100


def scenario_hash(spec: BoxWorldSpec) -> str:
    blob = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def default_caps() -> dict:
    return {
        "gamma": DEFAULT_GAMMA_CAP,
        "closure": DEFAULT_CLOSURE_CAP,
        "polytope_variables": DEFAULT_VARIABLE_CAP,
    }


def _header(spec: BoxWorldSpec, caps: dict, seed: Optional[int], logic: Logic) -> dict:
    return {
        "tool": {"name": "boxlogic", "version": __version__},
        "scenario": {
            "left_sizes": list(spec.left_sizes),
            "right_sizes": list(spec.right_sizes),
            "hash": scenario_hash(spec),
        },
        "caps": dict(sorted(caps.items())),
        "seed": seed,
        "logic": {
            "element_count": len(logic.elements),
            "atom_count": len(logic.atom_indices),
            "sample_points": logic.ground_size,
            "is_lattice": is_lattice(logic),
            "is_boolean": is_boolean(logic),
        },
    }


def build_summary(spec: BoxWorldSpec, *, caps: Optional[dict] = None) -> tuple[dict, Logic]:
    caps = {**default_caps(), **(caps or {})}
    logic = close_logic(spec, closure_cap=caps["closure"], gamma_cap=caps["gamma"])
    return _header(spec, caps, None, logic), logic


def verify_scenario(
    spec: BoxWorldSpec,
    *,
    seed: int = 0,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    caps: Optional[dict] = None,
    logic: Optional[Logic] = None,
) -> dict:
    """Run the whole verification battery and give one canonical report.

    Sections cover the table axioms, atomic coverage and its converse,
    order classification above atoms, one-box structure, the state
    correspondence round-trips on polytope vertices plus seeded random
    mixtures, and order determination by vertex states.  Failures land in
    the report; nothing raises for a refuted claim.
    """
    caps = {**default_caps(), **(caps or {})}
    if logic is None:
        logic = close_logic(spec, closure_cap=caps["closure"], gamma_cap=caps["gamma"])

    report = _header(spec, caps, seed, logic)
    axioms = verify_axioms(logic)
    report["axioms"] = axioms.to_dict()

    coverage = verify_atomic_coverage(logic)
    report["atomic_coverage"] = coverage.to_dict()
    report["disjoint_atom_union_converse"] = disjoint_atom_union_report(logic)

    classification, counts = verify_order_classification(logic)
    report["order_classification"] = {
        **classification.to_dict(),
        "case_counts": dict(sorted(counts.items())),
    }

    report["localized_propositions"] = verify_localized_propositions(logic).to_dict()
    report["compatibility_survey"] = _compatibility_survey(logic, seed)

    boxes = {}
    for side in (Side.LEFT, Side.RIGHT):
        _, pasting = single_box_logic(logic.gamma, side, big_logic=logic)
        boxes[side.value] = pasting.to_dict()
    report["single_box"] = boxes

    state_section: dict = {"skipped": False}
    try:
        hrep = ns_polytope(spec, var_cap=caps["polytope_variables"])
    except CapExceeded as exc:
        state_section = {"skipped": True, "reason": str(exc)}
        hrep = None
    if hrep is not None:
        vertex_set = enumerate_vertices(hrep)
        nv = len(vertex_set)
        mixtures, mixture_dens = sample_mixture_rows(
            vertex_set.scaled, vertex_set.scale, sample_count, seed
        )
        # hrep.variables and logic.atom_ids are both all_atom_ids(spec): same columns
        batch = round_trip_rows(
            logic, [*vertex_set.scaled, *mixtures], [vertex_set.scale] * nv + mixture_dens
        )
        vertex_logic_states = [s for s in batch.states[:nv] if s is not None]
        monotone_ok, monotone_checked = verify_state_monotonicity(
            logic, vertex_logic_states
        )
        order = check_order_determining(logic, vertex_logic_states)
        report["polytope"] = {
            "affine_dim": vertex_set.affine_dim,
            "vertex_count": len(vertex_set),
            "deterministic": vertex_set.count("deterministic"),
            "nondeterministic": vertex_set.count("nondeterministic"),
        }
        state_section.update(
            {
                "vertex_states": nv,
                "random_states": len(mixtures),
                "all_tables_valid": bool(batch.valid.all()),
                "round_trip_failures": batch.failures,
                "monotonicity": {"ok": monotone_ok, "checked": monotone_checked},
                "order_determining": order.to_dict(),
            }
        )
    report["state_correspondence"] = state_section

    sections_ok = [
        axioms.all_passed,
        coverage.passed,
        classification.passed,
        report["localized_propositions"]["all_passed"],
        all(b["ok"] for b in boxes.values()),
    ]
    if not state_section.get("skipped"):
        sections_ok += [
            state_section["all_tables_valid"],
            state_section["round_trip_failures"] == 0,
            state_section["monotonicity"]["ok"],
            state_section["order_determining"]["ok"],
        ]
    report["all_passed"] = all(sections_ok)
    return report


def _compatibility_survey(
    logic: Logic, seed: int, *, exhaustive_limit: int = 600, sample_pairs: int = 20000
) -> dict:
    """How often arbitrary element pairs are compatible; reported, not asserted."""
    import random

    from .compat import are_compatible

    n = len(logic.elements)
    compatible = 0
    if n <= exhaustive_limit:
        mode = "exhaustive"
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
    else:
        mode = "seeded_sample"
        rng = random.Random(seed)
        pairs = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(sample_pairs)
        ]
    for i, j in pairs:
        if are_compatible(logic, i, j) is not None:
            compatible += 1
    return {
        "mode": mode,
        "pairs": len(pairs),
        "compatible": compatible,
        "incompatible": len(pairs) - compatible,
    }


def vertex_pr_states(hrep: HRep, vertex_set: VertexSet) -> list[PRState]:
    """Each vertex read back as an exact table."""
    pos = {aid: k for k, aid in enumerate(hrep.variables)}
    return [
        PRState.from_function(
            hrep.spec,
            lambda a, b, alpha, beta, _v=vert: _v[pos[AtomId(a, alpha, b, beta)]],
        )
        for vert in vertex_set.vertices
    ]
