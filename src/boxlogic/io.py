"""File formats: scenarios, tables, logic exports, vertex listings.

All output is canonical: keys sorted, rationals rendered as "p/q"
strings, bit vectors as fixed-width hex.  Identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
from fractions import Fraction
from pathlib import Path
from typing import Union

from .compat import PastingReport
from .errors import ScenarioError, StateError
from .logic import ConcreteLogic, Logic
from .observables import Observable
from .polytope import HRep, VertexSet
from .scenario import BoxWorldSpec
from .states import PRState, _as_fraction

PathLike = Union[str, Path]


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def parse_fraction(text) -> Fraction:
    if isinstance(text, float):
        raise StateError(f"float {text!r} rejected; write rationals as 'p/q'")
    if isinstance(text, (int, str)):
        return _as_fraction(text)
    raise StateError(f"cannot read a rational from {text!r}")


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def load_scenario(path: PathLike) -> BoxWorldSpec:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return BoxWorldSpec.from_dict(raw)


def save_scenario(spec: BoxWorldSpec, path: PathLike) -> None:
    Path(path).write_text(canonical_json(spec.to_dict()), encoding="utf-8")


def hex_bits(bits: int, ground_size: int) -> str:
    width = max(1, (ground_size + 3) // 4)
    return f"{bits:0{width}x}"


def logic_to_dict(logic: ConcreteLogic) -> dict:
    data = {
        "ground_size": logic.ground_size,
        "elements": [hex_bits(e, logic.ground_size) for e in logic.elements],
        "complement": list(logic.complement_map),
        "atoms": list(logic.atom_indices),
        "covers": [list(edge) for edge in logic.covers()],
    }
    if isinstance(logic, Logic):
        data["scenario"] = logic.spec.to_dict()
        data["atom_ids"] = [
            {"a": aid.a, "alpha": aid.alpha, "b": aid.b, "beta": aid.beta}
            for aid in logic.atom_ids
        ]
    return data


def logic_to_dot(logic: ConcreteLogic) -> str:
    lines = ["digraph logic {", "  rankdir=BT;"]
    for i, e in enumerate(logic.elements):
        label = f"{i}:{hex_bits(e, logic.ground_size)}"
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in logic.covers():
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def pasting_to_dot(report: PastingReport) -> str:
    lines = ["digraph pasting {", "  rankdir=BT;", '  bottom [label="0"];', '  top [label="1"];']
    for a, size in enumerate(report.block_sizes):
        lines.append(f'  block{a} [shape=box, label="input {a}: {size} elements"];')
        lines.append(f"  bottom -> block{a};")
        lines.append(f"  block{a} -> top;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def pr_state_to_dict(pr: PRState) -> dict:
    out = {}
    for a, la in enumerate(pr.spec.left_sizes):
        for b, rb in enumerate(pr.spec.right_sizes):
            out[f"{a},{b}"] = [
                [format_fraction(pr.value(a, b, alpha, beta)) for beta in range(rb)]
                for alpha in range(la)
            ]
    return out


def pr_state_from_dict(spec: BoxWorldSpec, data: dict) -> PRState:
    if not isinstance(data, dict):
        raise StateError("state file must hold a JSON object of blocks")

    def fn(a, b, alpha, beta):
        key = f"{a},{b}"
        if key not in data:
            raise StateError(f"missing block {key!r} in state file")
        block = data[key]
        if not isinstance(block, list) or not all(isinstance(row, list) for row in block):
            raise StateError(f"block {key!r} must be a list of lists")
        try:
            return parse_fraction(block[alpha][beta])
        except (IndexError, TypeError) as exc:
            raise StateError(f"missing entry {(a, b, alpha, beta)}") from exc

    return PRState.from_function(spec, fn)


def load_pr_state(path: PathLike, spec: BoxWorldSpec) -> PRState:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StateError(f"state file is not valid JSON: {exc}") from exc
    return pr_state_from_dict(spec, raw)


def save_pr_state(pr: PRState, path: PathLike) -> None:
    Path(path).write_text(canonical_json(pr_state_to_dict(pr)), encoding="utf-8")


def hrep_to_dict(hrep: HRep) -> dict:
    return {
        "scenario": hrep.spec.to_dict(),
        "variables": [
            {"a": v.a, "alpha": v.alpha, "b": v.b, "beta": v.beta}
            for v in hrep.variables
        ],
        "equalities": {
            "coeffs": [list(row) for row in hrep.eq_coeffs],
            "rhs": list(hrep.eq_rhs),
        },
        "nonnegative_variables": True,
    }


def vertices_to_csv(vertex_set: VertexSet) -> str:
    buffer = _stdio.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["class"] + [
        f"p_{v.a}_{v.b}_{v.alpha}_{v.beta}" for v in vertex_set.hrep.variables
    ]
    writer.writerow(header)
    for cls, vert in zip(vertex_set.classes, vertex_set.vertices):
        writer.writerow([cls] + [format_fraction(x) for x in vert])
    return buffer.getvalue()


def observable_to_list(obs: Observable) -> list[dict]:
    return [
        {
            "value": format_fraction(v),
            "element": hex_bits(obs.logic.elements[e], obs.logic.ground_size),
        }
        for v, e in obs.items
    ]


def write_text(path: PathLike, content: str) -> None:
    Path(path).write_text(content, encoding="utf-8")
