"""Consolidated verification runs with deterministic, canonical reports."""

from __future__ import annotations

import json
from typing import Optional

from . import __version__
from .compat import _compatible_bits, single_box_logic, verify_localized_propositions
from .errors import CapExceeded, ScenarioError, TheoremViolation
from .logic import (
    Logic,
    _boolean_given_lattice,
    close_logic,
    disjoint_atom_union_report,
    is_lattice,
    verify_atomic_coverage,
    verify_axioms,
    verify_order_classification,
)
from .polytope import HRep, VertexSet, enumerate_vertices, ns_polytope
from .scenario import AtomId, BoxWorldSpec, Side, default_caps
from .states import PRState, _order_from_points, check_table_rows

# CPython's builtin SHA-256, as `random` takes SHA-512: hashlib would map OpenSSL's
# libcrypto (about 3 MiB resident) to hash a few dozen bytes
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

DEFAULT_SAMPLE_COUNT = 100
# the most seeded mixtures `verify --samples` accepts
MAX_SAMPLE_COUNT = 100_000
# the compatibility survey takes every pair up to this many elements, else this many seeded ones
_SURVEY_EXHAUSTIVE_LIMIT = 600
_SURVEY_SAMPLE_PAIRS = 20000


def scenario_hash(spec: BoxWorldSpec) -> str:
    blob = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return _sha256(blob.encode("utf-8")).hexdigest()


def _header(spec: BoxWorldSpec, caps: dict, seed: Optional[int], logic: Logic) -> dict:
    lattice = is_lattice(logic)
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
            "is_lattice": lattice,
            "is_boolean": _boolean_given_lattice(logic, lattice),
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
    mixtures, and order determination by the states of the sample points'
    own deterministic tables.  Failures land in the report; nothing raises
    for a refuted claim.  A table that the state kernel refuses skips the
    state section, with the refusal as reason.  A sweep past the variable
    cap skips only the round trips: order determination needs no vertex,
    and is reported and counted all the same.  A ``logic`` of another
    scenario is refused with ``ScenarioError``.
    """
    caps = {**default_caps(), **(caps or {})}
    if logic is None:
        logic = close_logic(spec, closure_cap=caps["closure"], gamma_cap=caps["gamma"])
    elif logic.spec != spec:
        raise ScenarioError("a logic of another scenario")

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
    certified = False
    try:
        logic._step_table()  # the state kernel takes only a table its atom steps certify
        certified = True
        hrep = ns_polytope(spec, var_cap=caps["polytope_variables"])
    except (CapExceeded, TheoremViolation) as exc:
        state_section = {"skipped": True, "reason": str(exc)}
        hrep = None
    if hrep is not None:
        vertex_set = enumerate_vertices(hrep)
        report["polytope"] = {
            "affine_dim": vertex_set.affine_dim,
            "vertex_count": len(vertex_set),
            "deterministic": vertex_set.count("deterministic"),
            "nondeterministic": vertex_set.count("nondeterministic"),
        }
        # hrep.variables and logic.atom_ids are both all_atom_ids(spec): same columns
        state_section.update(
            check_table_rows(logic, vertex_set.scaled, vertex_set.scale, sample_count, seed)
        )
    if certified:  # after the sweep, which then runs without the kernel alive
        state_section["order_determining"] = _order_from_points(logic).to_dict()
    report["state_correspondence"] = state_section

    sections_ok = [
        axioms.all_passed,
        coverage.passed,
        classification.passed,
        report["localized_propositions"]["all_passed"],
        all(b["ok"] for b in boxes.values()),
    ]
    if not state_section["skipped"]:
        sections_ok.append(state_section["all_tables_valid"])
    if certified:
        sections_ok.append(state_section["order_determining"]["ok"])
    report["all_passed"] = all(sections_ok)
    return report


def _compatibility_survey(logic: Logic, seed: int) -> dict:
    """How often arbitrary element pairs are compatible; reported, not asserted."""
    import random

    n = len(logic.elements)
    if n <= _SURVEY_EXHAUSTIVE_LIMIT:
        mode = "exhaustive"
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
    else:
        mode = "seeded_sample"
        rng = random.Random(seed)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(_SURVEY_SAMPLE_PAIRS)]
    elements, index = logic.elements, logic.index
    compatible = sum(_compatible_bits(index, elements[i], elements[j]) for i, j in pairs)
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
