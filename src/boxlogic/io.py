"""File formats: scenarios, tables, logic exports, vertex listings.

All output is canonical: keys sorted, rationals rendered as "p/q"
strings, bit vectors as fixed-width hex.  Identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Sequence, Union

from .errors import BoxLogicError, ScenarioError, StateError
from .logic import ConcreteLogic, Logic
from .scenario import BoxWorldSpec

if TYPE_CHECKING:  # annotations only: the two readers of tables import states themselves
    from .polytope import HRep, VertexSet
    from .states import PRState

PathLike = Union[str, Path]


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def parse_fraction(text) -> Fraction:
    if isinstance(text, float):
        raise StateError(f"float {text!r} rejected; write rationals as 'p/q'")
    if isinstance(text, (int, str)):
        from .states import _as_fraction

        return _as_fraction(text)
    raise StateError(f"cannot read a rational from {text!r}")


def canonical_json(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    The stdlib's C encoder does not indent, so ``json.dumps`` with an indent
    runs its pure-Python encoder.  This writer dispatches as that encoder
    does and takes the scalars from the stdlib's C routines, but writes a
    list or tuple of exact ints or of exact strs with one join, and a list
    of equal-length int rows (the Hasse covers) with one format string.
    """
    return _value(data, "\n") + "\n"


_encode_str = json.encoder.encode_basestring_ascii
_encode_scalar = json.JSONEncoder().encode  # floats, None and booleans


def _value(o, indent: str) -> str:
    if isinstance(o, str):
        return _encode_str(o)
    if o is None or o is True or o is False or isinstance(o, float):
        return _encode_scalar(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, (list, tuple)):
        return _array(o, indent) if o else "[]"
    if isinstance(o, dict):
        return _object(o, indent) if o else "{}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key(k) -> str:
    if isinstance(k, str):
        return _encode_str(k)
    if k is None or isinstance(k, (int, float)):
        return _encode_str(_value(k, ""))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _object(o: dict, indent: str) -> str:
    inner = indent + "  "
    body = ("," + inner).join([_key(k) + ": " + _value(v, inner) for k, v in sorted(o.items())])
    return "{" + inner + body + indent + "}"


def _array(o, indent: str) -> str:
    inner = indent + "  "
    sep = "," + inner
    kinds = set(map(type, o))
    if kinds == {int}:
        body = sep.join(map(int.__repr__, o))
    elif kinds == {str}:
        body = sep.join(map(_encode_str, o))
    elif width := _row_width(o, kinds):
        row_inner = inner + "  "
        fmt = "[" + row_inner + ("," + row_inner).join(["%d"] * width) + inner + "]"
        body = sep.join(map(fmt.__mod__, map(tuple, o)))
    else:
        body = sep.join([_value(x, inner) for x in o])
    return "[" + inner + body + indent + "]"


def _row_width(rows, kinds: set) -> int:
    """The one length of ``rows`` if they are non-empty lists or tuples of
    exact ints, else 0.  Not bools: ``"%d" % True`` is ``1``."""
    if not kinds <= {list, tuple}:
        return 0
    widths = set(map(len, rows))
    if len(widths) != 1 or set(map(type, chain.from_iterable(rows))) != {int}:
        return 0
    return widths.pop()


def _read_json(path: PathLike, error: type[BoxLogicError], what: str):
    """The decoded JSON of a UTF-8 file; a file that does not decode raises ``error``.

    ValueError covers bad JSON, bytes that are not UTF-8 and integers past
    the interpreter's digit limit; deep nesting raises RecursionError.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} file is not valid JSON: {exc}") from exc


def load_scenario(path: PathLike) -> BoxWorldSpec:
    return BoxWorldSpec.from_dict(_read_json(path, ScenarioError, "scenario"))


def save_scenario(spec: BoxWorldSpec, path: PathLike) -> None:
    Path(path).write_text(canonical_json(spec.to_dict()), encoding="utf-8")


def hex_format(ground_size: int) -> str:
    """Format spec of a bit vector over ``ground_size`` points: fixed-width hex."""
    return f"0{max(1, (ground_size + 3) // 4)}x"


def logic_to_dict(logic: ConcreteLogic) -> dict:
    spec = hex_format(logic.ground_size)
    data = {
        "ground_size": logic.ground_size,
        "elements": [format(e, spec) for e in logic.elements],
        "complement": list(logic.complement_map),
        "atoms": list(logic.atom_indices),
        "covers": logic.covers(),
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
    spec = hex_format(logic.ground_size)
    for i, e in enumerate(logic.elements):
        lines.append(f'  n{i} [label="{i}:{e:{spec}}"];')
    for i, j in logic.covers():
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def pasting_to_dot(outcome_counts: Sequence[int]) -> str:
    """One box's logic as its Boolean blocks between bottom and top: an input
    with n outcomes gives a block of 2**n elements."""
    lines = ["digraph pasting {", "  rankdir=BT;", '  bottom [label="0"];', '  top [label="1"];']
    for a, n in enumerate(outcome_counts):
        lines.append(f'  block{a} [shape=box, label="input {a}: {1 << n} elements"];')
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
    """A table from its blocks: one ``la x rb`` matrix per input pair "a,b".

    A key that is not an input pair of the scenario, a missing block and a
    block of another shape are refused, each naming the block.
    """
    from .states import PRState

    if not isinstance(data, dict):
        raise StateError("state file must hold a JSON object of blocks")
    shapes = {
        f"{a},{b}": (la, rb)
        for a, la in enumerate(spec.left_sizes)
        for b, rb in enumerate(spec.right_sizes)
    }
    for key in data:
        if key not in shapes:
            raise StateError(f"block {key!r} is not an input pair of the scenario")
    for key, (la, rb) in shapes.items():
        if key not in data:
            raise StateError(f"missing block {key!r} in state file")
        block = data[key]
        if not isinstance(block, list) or not all(isinstance(row, list) for row in block):
            raise StateError(f"block {key!r} must be a list of lists")
        if len(block) != la or any(len(row) != rb for row in block):
            raise StateError(f"block {key!r} must be a {la} x {rb} matrix")
    return PRState.from_function(
        spec, lambda a, b, alpha, beta: parse_fraction(data[f"{a},{b}"][alpha][beta])
    )


def load_pr_state(path: PathLike, spec: BoxWorldSpec) -> PRState:
    return pr_state_from_dict(spec, _read_json(path, StateError, "state"))


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
    """One row per vertex: its class, then its entries as "p/q" strings.  No
    field can hold a comma, quote or line break, so none is quoted."""
    header = ["class"] + [f"p_{v.a}_{v.b}_{v.alpha}_{v.beta}" for v in vertex_set.hrep.variables]
    rows = [
        ",".join([cls, *map(format_fraction, vert)])
        for cls, vert in zip(vertex_set.classes, vertex_set.vertices)
    ]
    return "\n".join([",".join(header), *rows]) + "\n"


def write_text(path: PathLike, content: str) -> None:
    Path(path).write_text(content, encoding="utf-8")
