"""The canonical writer against the stdlib encoder, and the modules each command loads."""

import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import boxlogic as bl
from boxlogic.io import canonical_json, logic_to_dict, logic_to_dot

ROOT = Path(__file__).resolve().parents[1]


def stdlib(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# strings with non-ASCII text, quotes, backslashes and control characters
texts = st.text(alphabet=st.characters(codec="utf-8") | st.sampled_from('"\\\x00\x1f\n\t '))
ints = st.integers() | st.integers(min_value=2**64 - 2, max_value=2**70) | st.integers(max_value=-(2**64))
scalars = texts | ints | st.booleans() | st.none() | st.floats(allow_nan=True, allow_infinity=True)
# rows of exact ints, equal-length (the covers' bulk path) or ragged, with True mixed in
int_rows = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.lists(ints, min_size=k, max_size=k).map(tuple) | st.lists(ints, min_size=k, max_size=k))
)
ragged_rows = st.lists(st.lists(ints | st.just(True), max_size=3))
homogeneous = st.lists(ints) | st.lists(texts) | int_rows | ragged_rows


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(texts, children, max_size=4)
        # one key type per dict: json.dumps sorts keys, so mixed types raise
        | st.dictionaries(st.integers() | st.booleans(), children, max_size=4)
        | st.dictionaries(st.floats(allow_nan=False), children, max_size=4)
    )


values = st.recursive(scalars | homogeneous, containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(values)
def test_writer_equals_the_stdlib_encoder(value):
    assert canonical_json(value) == stdlib(value)


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        (),
        [[]],
        [[], []],
        [(1, 2), [3, 4]],
        [[1, 2], [3, True]],
        [[1], [2, 3]],
        [True, 1, 0, False],
        {1: "a", 2.5: "b", -3: ["x"]},
        {True: 1, False: 0},
        {None: None},
        {float("nan"): 1, float("inf"): 2},
        [float("nan"), float("-inf"), -0.0, 1e300],
        ["é中\U0001f600", '"\\', "\x00\x7f"],
        [[2**70, -(2**70)]],
    ],
)
def test_writer_edge_cases(value):
    assert canonical_json(value) == stdlib(value)


class Row(tuple):
    pass


class Table(dict):
    pass


def test_writer_follows_isinstance_dispatch():
    # subclasses take the list, tuple and dict paths, as in json.dumps
    value = Table(b=[Row((1, 2)), Row((3, 4))], a=Table(x=Row(("s",))))
    assert canonical_json(value) == stdlib(value)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, [Decimal(3)], {"n": Decimal(3)}, {"a": 1, 2: 3}, {Decimal(1): 2}, {(1,): 2}],
    ids=["set", "decimal", "decimal-value", "mixed-keys", "decimal-key", "tuple-key"],
)
def test_writer_raises_where_the_stdlib_raises(value):
    with pytest.raises(TypeError) as stdlib_error:
        stdlib(value)
    with pytest.raises(TypeError) as writer_error:
        canonical_json(value)
    assert str(writer_error.value) == str(stdlib_error.value)


def test_logic_export_writes_covers_as_lists(chsh_logic):
    data = logic_to_dict(chsh_logic)
    assert canonical_json(data) == stdlib(data)
    assert json.loads(canonical_json(data))["covers"] == [list(e) for e in chsh_logic.covers()]


@pytest.mark.parametrize("ground", [1, 4, 5, 7, 81])
def test_elements_print_as_fixed_width_hex(ground):
    full = (1 << ground) - 1
    logic = bl.ConcreteLogic(ground, [0, 1, full ^ 1, full])
    width = -(-ground // 4)  # one hex digit per four points, rounded up
    assert logic_to_dict(logic)["elements"] == [f"{e:0{width}x}" for e in logic.elements]
    labels = [line for line in logic_to_dot(logic).splitlines() if "label" in line]
    assert labels == [f'  n{i} [label="{i}:{e:0{width}x}"];' for i, e in enumerate(logic.elements)]


def run_cli(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True
    )


NUMPY_UNTOUCHED = """
import sys
from boxlogic import cli
code = cli.main(sys.argv[2:])
assert "numpy" not in sys.modules, "numpy was imported"
imported = [name for name in sys.argv[1].split(",") if name in sys.modules]
assert not imported, f"{imported} imported"
sys.exit(code)
"""
# the layers that `export json|dot` (with or without --out) and `fixtures` leave unimported
LEAN_UNUSED = "boxlogic.compat,boxlogic.states,boxlogic.report,boxlogic.observables"


@pytest.mark.parametrize(
    "command, unused",
    [
        # the vertex csv is written without the csv module
        (["export", "json", "CHSH"], LEAN_UNUSED + ",csv"),
        (["export", "dot", "CHSH"], LEAN_UNUSED),
        (["build", "CHSH"], ""),
        (["fixtures", "even-set", "--k", "3"], LEAN_UNUSED),
        (["export", "dot", "CHSH", "--out", "OUT"], LEAN_UNUSED),
        # the vertex sweep and the state kernel compute on Python ints
        (["verify", "CHSH", "--seed", "0"], ""),
        (["states", "vertices", "CHSH"], ""),
        (["states", "check", "CHSH", "PRBOX"], ""),
    ],
    ids=[
        "export-json", "export-dot", "build", "fixtures-even-set", "export-dot-out",
        "verify", "states-vertices", "states-check",
    ],
)
def test_export_and_build_never_execute_numpy(command, unused, tmp_path):
    prbox = tmp_path / "prbox.json"
    half = [["1/2", "0"], ["0", "1/2"]]
    prbox.write_text(json.dumps({"0,0": half, "0,1": half, "1,0": half, "1,1": [["0", "1/2"], ["1/2", "0"]]}))
    out = tmp_path / "out"
    paths = {"CHSH": str(ROOT / "scenarios" / "chsh.json"), "OUT": str(out), "PRBOX": str(prbox)}
    proc = run_cli(NUMPY_UNTOUCHED, unused, *(paths.get(arg, arg) for arg in command))
    if command[1] == "dot":
        assert proc.stdout.startswith("digraph")
    elif command[1] == "vertices":
        assert proc.stdout.startswith("class,") and len(proc.stdout.splitlines()) == 25
    else:
        report = json.loads(proc.stdout)
        assert report.get("all_passed", True) is True and report.get("valid", True) is True
    if "--out" in command:
        assert sorted(p.name for p in out.iterdir()) == [
            "logic.dot", "pasting_left.dot", "pasting_right.dot"
        ]
