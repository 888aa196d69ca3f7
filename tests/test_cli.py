import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import boxlogic as bl
from boxlogic.cli import main
from boxlogic.io import save_pr_state, save_scenario

from conftest import CHSH, SINGLE_PAIR, THREE_INPUT

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def chsh_file(tmp_path):
    path = tmp_path / "chsh.json"
    save_scenario(CHSH, path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_summary(chsh_file, capsys):
    code, out, _ = run(capsys, ["build", chsh_file])
    assert code == 0
    summary = json.loads(out)
    assert summary["logic"]["atom_count"] == 16
    assert summary["logic"]["element_count"] == 82
    assert summary["tool"]["name"] == "boxlogic"
    assert summary["scenario"]["hash"]


def test_build_writes_exports(chsh_file, capsys, tmp_path):
    out_dir = tmp_path / "artifacts"
    code, _, _ = run(capsys, ["build", chsh_file, "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "build.json").exists()
    assert (out_dir / "logic.json").exists()
    assert (out_dir / "logic.dot").exists()


def test_build_invalid_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"left": [["0", "0"]], "right": [["0", "1"]]}))
    code, _, err = run(capsys, ["build", str(bad)])
    assert code == 2
    assert "duplicate" in err


@pytest.mark.parametrize(
    "right",
    [{"a": ["0", "1"]}, [["0", "1"], "01"]],
    ids=["side-is-an-object", "input-is-a-string"],
)
def test_build_rejects_side_that_is_not_a_list_of_lists(tmp_path, capsys, right):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"left": [["0", "1"]], "right": right}))
    code, out, err = run(capsys, ["build", str(bad)])
    assert code == 2
    assert out == ""
    assert err == "error: right box must be a list of outcome-label lists\n"


@pytest.mark.parametrize(
    "scenario, message",
    [
        (
            {"left": [[[0], {"x": 1}]], "right": [["a", "b"]]},
            "left input 0 has label [0], not a string",
        ),
        ({"left": [["a", "b"]], "right": [["a", "b"], ["a", 1]]}, "right input 1 has label 1, not a string"),
        ({"left": [["a", "b"]], "right": [["a", "b"]], "oops": 1}, "unknown scenario key 'oops'"),
    ],
    ids=["list-label", "integer-label", "unknown-key"],
)
def test_build_rejects_non_string_labels_and_unknown_keys(tmp_path, capsys, scenario, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(scenario))
    for command in (["build"], ["verify"], ["export", "json"]):
        code, out, err = run(capsys, [*command, str(bad)])
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_build_malformed_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, ["build", str(bad)])
    assert code == 2


# files that do not decode: not UTF-8, nested past the recursion limit, and an
# integer past the interpreter's digit limit for int() of a string
UNDECODABLE = [b"\xff", b"[" * 100_000, b"1" * 5000]
UNDECODABLE_IDS = ["not-utf-8", "deep-nesting", "huge-integer"]


@pytest.mark.parametrize("content", UNDECODABLE, ids=UNDECODABLE_IDS)
def test_build_rejects_undecodable_files(tmp_path, capsys, content):
    bad = tmp_path / "undecodable.json"
    bad.write_bytes(content)
    code, out, err = run(capsys, ["build", str(bad)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: scenario file is not valid JSON: ")
    assert "Traceback" not in err


def test_build_closure_cap(chsh_file, capsys):
    code, _, err = run(capsys, ["build", chsh_file, "--cap-closure", "10"])
    assert code == 3
    assert "cap" in err


def test_verify_passes_and_embeds_metadata(chsh_file, capsys):
    code, out, _ = run(capsys, ["verify", chsh_file, "--seed", "5", "--samples", "10"])
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert report["seed"] == 5
    assert report["caps"]["closure"] > 0
    assert report["tool"]["version"]
    assert report["polytope"]["vertex_count"] == 24


def test_verify_deterministic_bytes(chsh_file, capsys, tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    code1, stdout1, _ = run(capsys, ["verify", chsh_file, "--seed", "3", "--out", str(out1)])
    code2, stdout2, _ = run(capsys, ["verify", chsh_file, "--seed", "3", "--out", str(out2)])
    assert code1 == code2 == 0
    assert stdout1 == stdout2
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()


def test_states_vertices_row_count(chsh_file, capsys):
    code, out, _ = run(capsys, ["states", "vertices", chsh_file])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 24


def test_states_check_valid(chsh_file, capsys, tmp_path):
    box = bl.PRState.from_function(
        CHSH,
        lambda a, b, alpha, beta: Fraction(1, 2)
        if (alpha ^ beta) == a * b
        else Fraction(0),
    )
    state_path = tmp_path / "prbox.json"
    save_pr_state(box, state_path)
    code, out, _ = run(capsys, ["states", "check", chsh_file, str(state_path)])
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_states_check_signalling(chsh_file, capsys, tmp_path):
    def fn(a, b, alpha, beta):
        if (a, b) == (0, 0):
            return Fraction(1) if (alpha, beta) == (0, 0) else Fraction(0)
        return Fraction(1, 4)

    bad = bl.PRState.from_function(CHSH, fn)
    state_path = tmp_path / "signalling.json"
    save_pr_state(bad, state_path)
    code, out, _ = run(capsys, ["states", "check", chsh_file, str(state_path)])
    assert code == 2
    result = json.loads(out)
    assert result["valid"] is False
    assert result["violations"]


def test_states_check_rejects_floats(chsh_file, capsys, tmp_path):
    state_path = tmp_path / "floaty.json"
    blocks = {
        f"{a},{b}": [[0.25, 0.25], [0.25, 0.25]] for a in range(2) for b in range(2)
    }
    state_path.write_text(json.dumps(blocks))
    code, _, err = run(capsys, ["states", "check", chsh_file, str(state_path)])
    assert code == 2
    assert "float" in err


def test_states_check_rejects_booleans(tmp_path, capsys):
    single = tmp_path / "single_pair.json"
    save_scenario(bl.BoxWorldSpec.from_sizes([2], [2]), single)
    state_path = tmp_path / "booleans.json"
    state_path.write_text(json.dumps({"0,0": [[True, False], [False, False]]}))
    code, out, err = run(capsys, ["states", "check", str(single), str(state_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "bool" in err


@pytest.mark.parametrize(
    "entry,message",
    [
        *(
            (e, f"bad rational {e!r}: exponent past 4300 in magnitude")
            for e in ("1e5000", "1e-5000", "1e10000000")
        ),
        (
            "-1e4300",
            "the residual of negative at {'a': 0, 'b': 0, 'alpha': 0, 'beta': 0} has too many digits to print",
        ),
        ("1.5e4300", "the residual of normalization at {'a': 0, 'b': 0} has too many digits to print"),
    ],
)
def test_states_check_refuses_numbers_past_the_digit_limit(tmp_path, capsys, entry, message):
    # an exponent past 4300 is refused before Fraction expands it; a residual
    # past the digit limit names its equality instead of failing to print
    single = tmp_path / "single_pair.json"
    save_scenario(SINGLE_PAIR, single)
    state_path = tmp_path / "huge.json"
    state_path.write_text(json.dumps({"0,0": [[entry, "0"], ["0", "0"]]}))
    code, out, err = run(capsys, ["states", "check", str(single), str(state_path)])
    assert (code, out, err) == (2, "", f"error: {message}\n")


# state file entries: exact numbers, exponents up to 10**7 in magnitude, and
# values that are no exact number
numbers = (
    st.integers(-(10**4299), 10**4299)
    | st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-2, 9))
    | st.decimals().map(str)
    | st.builds("{}e{}".format, st.decimals(-99, 99, places=2), st.integers(-(10**7), 10**7))
)
junk = st.floats() | st.booleans() | st.none() | st.lists(st.integers(0, 1), max_size=2) | st.text(max_size=4)


def state_files(spec):
    """Blocks of the scenario's shape under all its input-pair keys, of numbers
    or of numbers and junk; or blocks of other shapes under some of its keys
    and one more; or no blocks at all."""
    keys = [f"{a},{b}" for a in range(len(spec.left_sizes)) for b in range(len(spec.right_sizes))]

    def shaped(entries):  # both scenarios drawn below have 2 x 2 blocks
        block = st.lists(st.lists(entries, min_size=2, max_size=2), min_size=2, max_size=2)
        return st.fixed_dictionaries(dict.fromkeys(keys, block))

    entries = numbers | junk
    block = st.lists(st.lists(entries, max_size=3), max_size=3) | entries
    misshaped = st.fixed_dictionaries(
        {keys[0]: block}, optional=dict.fromkeys([*keys[1:], "9,9"], block)
    )
    return shaped(numbers) | shaped(entries) | misshaped | st.lists(block, max_size=2) | entries


@settings(
    max_examples=150,
    deadline=timedelta(seconds=1),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.sampled_from([SINGLE_PAIR, CHSH]).flatmap(lambda spec: st.tuples(st.just(spec), state_files(spec))))
def test_states_check_exits_0_or_2_on_any_state_file(tmp_path, spec_and_blocks):
    spec, blocks = spec_and_blocks
    scenario, state_path = tmp_path / "scenario.json", tmp_path / "state.json"
    save_scenario(spec, scenario)
    state_path.write_text(json.dumps(blocks))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["states", "check", str(scenario), str(state_path)])
    assert code in (0, 2)
    if out.getvalue():
        assert json.loads(out.getvalue())["valid"] is (code == 0)
    else:
        assert code == 2 and err.getvalue().startswith("error:")


def half(first, second):
    """``first`` or ``second``, each half the time (``|`` would weight every branch
    of a nested ``one_of`` alike)."""
    return st.booleans().flatmap(lambda pick: first if pick else second)


# scenario files, half of them well formed (two to three distinct labels per input);
# the rest have labels that are missing, repeated, not strings or nested, unknown or
# missing keys, JSON that is no object, or text that is no JSON
odd_label = st.integers(-2, 2) | st.none() | st.booleans() | st.lists(st.sampled_from("ab"), max_size=2)
good_input = st.lists(st.sampled_from(["0", "1", "2"]), min_size=2, max_size=3, unique=True)
good_side = st.lists(good_input, min_size=1, max_size=2)
any_input = good_input | st.lists(st.sampled_from(["", "a", "b"]) | odd_label, max_size=4) | odd_label
side = good_side | st.lists(any_input, max_size=3) | odd_label
malformed = (
    st.fixed_dictionaries({"left": side, "right": side})
    | st.fixed_dictionaries({}, optional={"left": side, "right": side, "labels": side, "": st.integers()})
    | st.lists(st.integers(0, 2), max_size=2)
    | odd_label
    | st.text(max_size=3)
)
scenario_texts = half(
    st.fixed_dictionaries({"left": good_side, "right": good_side}).map(json.dumps),
    malformed.map(json.dumps) | st.sampled_from(["", "{", "[[", "nan", '{"left": 1e400}']),
)
# flag values, half of them in range: otherwise zero, negative, huge or not an integer
int_flag = half(
    st.integers(1, 300),
    st.integers(-2, 0) | st.integers(-(10**30), 10**30) | st.sampled_from(["", "x", "1.5", "0x10", "1_0"]),
)
CAP_FLAGS = ["--cap-gamma", "--cap-closure", "--cap-vars"]
COMMAND_FLAGS = {
    ("build",): CAP_FLAGS,
    ("export", "json"): CAP_FLAGS,
    ("states", "vertices"): CAP_FLAGS,
    ("verify",): [*CAP_FLAGS, "--samples", "--seed"],
}


def drawn_flags(command):
    names = COMMAND_FLAGS[command] + ["--bogus"]
    pairs = st.lists(st.tuples(st.sampled_from(names), int_flag), max_size=2)
    return pairs.map(lambda drawn: [f"{name}={value}" for name, value in drawn])


@settings(
    max_examples=150,
    deadline=timedelta(seconds=2),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    scenario_texts,
    st.sampled_from(sorted(COMMAND_FLAGS)).flatmap(lambda c: st.tuples(st.just(c), drawn_flags(c))),
)
def test_commands_exit_with_a_contract_code_on_any_scenario_file(tmp_path, text, command_and_flags):
    command, flags = command_and_flags
    path = tmp_path / "scenario.json"
    path.write_text(text)
    argv = [*command, str(path), *flags]
    spec = None
    with contextlib.suppress(ValueError, bl.ScenarioError):
        spec = bl.BoxWorldSpec.from_dict(json.loads(text))
    if spec and command in (("build",), ("verify",)) and sum(spec.left_sizes) * sum(spec.right_sizes) > 16:
        # these run whole only up to chsh's 16 variables; past them a small closure
        # cap ends them (uncapped, [3,3]x[3] spends 4.5 s in is_lattice's pair scan)
        argv.append("--cap-closure=100")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing a flag
            code = exc.code
    assert code in (0, 2, 3, 4)
    # a file that is no scenario is invalid input, whatever the flags
    assert spec is not None or code == 2
    if code == 0:
        assert out.getvalue()
    else:
        prefix = {2: ("error:", "usage:"), 3: ("cap exceeded:",), 4: ("claim failed:",)}[code]
        assert err.getvalue().startswith(prefix) or code == 4 and out.getvalue()


def test_export_json(chsh_file, capsys, tmp_path):
    out_dir = tmp_path / "exp"
    code, _, _ = run(capsys, ["export", "json", chsh_file, "--out", str(out_dir)])
    assert code == 0
    logic = json.loads((out_dir / "logic.json").read_text())
    assert len(logic["elements"]) == 82
    assert (out_dir / "hrep.json").exists()


def test_export_dot(chsh_file, capsys, tmp_path):
    out_dir = tmp_path / "dots"
    code, out, _ = run(capsys, ["export", "dot", chsh_file, "--out", str(out_dir)])
    assert code == 0
    assert out.startswith("digraph")
    assert (out_dir / "pasting_left.dot").exists()
    assert (out_dir / "pasting_right.dot").exists()


def test_export_csv(chsh_file, capsys, tmp_path):
    out_dir = tmp_path / "csv"
    code, out, _ = run(capsys, ["export", "csv", chsh_file, "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "vertices.csv").read_text() == out


def test_fixtures_even_set(capsys):
    code, out, _ = run(capsys, ["fixtures", "even-set", "--k", "3"])
    assert code == 0
    result = json.loads(out)
    assert result["element_count"] == 32
    assert result["is_lattice"] is False
    assert all(entry["passed"] for entry in result["axioms"].values())


def test_fixtures_even_set_flags_small(capsys):
    code, out, _ = run(capsys, ["fixtures", "even-set", "--k", "1"])
    assert code == 0
    assert json.loads(out)["is_boolean"] is True
    code, out, _ = run(capsys, ["fixtures", "even-set", "--k", "2"])
    assert code == 0
    result = json.loads(out)
    assert result["is_lattice"] is True and result["is_boolean"] is False


@pytest.mark.parametrize(
    "command, element_count",
    [
        (lambda: bl.build_summary(SINGLE_PAIR), 16),
        (lambda: main(["fixtures", "even-set", "--k", "2"]), 8),
    ],
    ids=["build-summary", "fixtures-even-set"],
)
def test_lattice_flags_scan_the_lattice_once(monkeypatch, capsys, command, element_count):
    # both tables are lattices, so a second is_lattice call would repeat the full pair scan
    scans = []
    scan = bl.logic.is_lattice

    def counted(logic):
        scans.append(len(logic.elements))
        return scan(logic)

    for module in ("logic", "report", "cli"):
        monkeypatch.setattr(importlib.import_module(f"boxlogic.{module}"), "is_lattice", counted)
    command()
    assert scans == [element_count]


def test_missing_file(capsys):
    code, _, _ = run(capsys, ["build", "/nonexistent/scenario.json"])
    assert code == 2


def test_module_entry_point(chsh_file):
    proc = subprocess.run(
        [sys.executable, "-m", "boxlogic", "build", chsh_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["logic"]["element_count"] == 82


@pytest.mark.parametrize(
    "content",
    [b"5", b'{"0,0": {"a": 1}}', *UNDECODABLE],
    ids=["not-an-object", "block-not-a-list", *UNDECODABLE_IDS],
)
def test_states_check_rejects_malformed_shapes(chsh_file, capsys, tmp_path, content):
    state_path = tmp_path / "shape.json"
    state_path.write_bytes(content)
    code, _, err = run(capsys, ["states", "check", chsh_file, str(state_path)])
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "blocks,message",
    [
        ({"0,0": [["1/2", "1/2", "7"], ["0", "0"], ["9"]]}, "block '0,0' must be a 2 x 2 matrix"),
        ({"0,0": [["1/2", "0", "0"], ["0", "1/2", "0"], ["0", "0", "0"]]}, "block '0,0' must be a 2 x 2 matrix"),
        ({"0,0": [["1"]]}, "block '0,0' must be a 2 x 2 matrix"),
        (
            {"0,0": [["1/2", "0"], ["0", "1/2"]], "0,1": [["1", "0"], ["0", "0"]]},
            "block '0,1' is not an input pair of the scenario",
        ),
    ],
    ids=["extra-entries", "oversized", "missing-entries", "extra-block"],
)
def test_states_check_rejects_blocks_off_the_scenario(tmp_path, capsys, blocks, message):
    single = tmp_path / "single_pair.json"
    save_scenario(bl.BoxWorldSpec.from_sizes([2], [2]), single)
    state_path = tmp_path / "blocks.json"
    state_path.write_text(json.dumps(blocks))
    code, out, err = run(capsys, ["states", "check", str(single), str(state_path)])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("flag", ["--cap-gamma", "--cap-closure", "--cap-vars"])
def test_non_positive_caps_rejected(chsh_file, capsys, flag, value):
    code, out, err = run(capsys, ["build", chsh_file, flag, value])
    assert code == 2
    assert out == ""
    assert "must be positive" in err


def test_verify_rejects_negative_samples(chsh_file, capsys):
    code, out, err = run(capsys, ["verify", chsh_file, "--samples", "-1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    code, out, _ = run(capsys, ["verify", chsh_file, "--samples", "0"])
    assert code == 0
    assert json.loads(out)["all_passed"] is True


def test_verify_samples_past_the_limit_exit_before_any_run(chsh_file, capsys, monkeypatch):
    from boxlogic import report

    limit = report.MAX_SAMPLE_COUNT
    calls = []
    stub = {"all_passed": True}
    monkeypatch.setattr(report, "verify_scenario", lambda spec, **kw: calls.append(kw) or stub)
    for value in (limit + 1, 10**12):
        code, out, err = run(capsys, ["verify", chsh_file, "--samples", str(value)])
        assert (code, out, calls) == (2, "", [])
        assert err == f"error: --samples must be between 0 and {limit}\n"
    # the limit itself is accepted and reaches the run
    code, out, _ = run(capsys, ["verify", chsh_file, "--samples", str(limit)])
    assert code == 0 and json.loads(out) == stub
    assert [kw["sample_count"] for kw in calls] == [limit]


def test_verify_invalid_own_table_is_a_failed_claim(chsh_file, capsys, invalid_first_vertex):
    code, out, err = run(capsys, ["verify", chsh_file, "--samples", "10"])
    assert code == 4
    assert err == ""
    report = json.loads(out)
    assert report["state_correspondence"]["all_tables_valid"] is False
    assert report["all_passed"] is False


def test_verify_past_the_variable_cap_still_determines_the_order(chsh_file, capsys, monkeypatch):
    code, out, _ = run(capsys, ["verify", chsh_file, "--cap-vars", "4"])
    report = json.loads(out)
    section = report["state_correspondence"]
    assert (code, report["all_passed"], section["skipped"]) == (0, True, True)
    assert (section["order_determining"]["ok"], section["order_determining"]["states_used"]) == (True, 16)
    # with sample point 1's table refused by the kernel, the capped run is a failed claim
    table = [a >> 1 & 1 for a in bl.close_logic(CHSH).atom_bits]
    round_trip = bl.states._StateTables.round_trip
    monkeypatch.setattr(
        bl.states._StateTables, "round_trip", lambda self, x, den: list(x) != table and round_trip(self, x, den)
    )
    code, out, _ = run(capsys, ["verify", chsh_file, "--cap-vars", "4"])
    report = json.loads(out)
    assert (code, report["all_passed"], report["state_correspondence"]["order_determining"]["ok"]) == (4, False, False)


@pytest.mark.parametrize("with_out", [False, True], ids=["stdout", "out-dir"])
def test_export_json_variable_cap_exits_before_printing(chsh_file, capsys, tmp_path, with_out):
    out_dir = tmp_path / "artifacts"
    argv = ["export", "json", chsh_file, "--cap-vars", "1"]
    code, out, err = run(capsys, argv + (["--out", str(out_dir)] if with_out else []))
    assert code == 3
    assert out == ""
    assert err.startswith("cap exceeded:")
    assert not out_dir.exists()


def test_export_json_writes_the_hrep_only_with_an_out_dir(chsh_file, capsys, tmp_path, monkeypatch):
    serialised = []
    monkeypatch.setattr("boxlogic.cli.hrep_to_dict", lambda hrep: serialised.append(hrep) or {})
    code, plain, _ = run(capsys, ["export", "json", chsh_file])
    assert (code, serialised) == (0, [])
    out_dir = tmp_path / "artifacts"
    code, written, _ = run(capsys, ["export", "json", chsh_file, "--out", str(out_dir)])
    assert code == 0 and written == plain and len(serialised) == 1
    assert sorted(p.name for p in out_dir.iterdir()) == ["hrep.json", "logic.json"]


def python_with_src(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True
    ).stdout


def canonical_blob(spec):
    return json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":")).encode("utf-8")


@pytest.mark.parametrize("spec", [CHSH, THREE_INPUT], ids=["chsh", "three_input"])
def test_scenario_hash_is_the_sha256_of_the_canonical_blob(spec):
    from boxlogic.report import scenario_hash

    assert scenario_hash(spec) == hashlib.sha256(canonical_blob(spec)).hexdigest()


def test_scenario_hash_falls_back_to_hashlib_without_the_builtin_modules():
    from boxlogic.report import scenario_hash

    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None  # both imports now fail\n"
        "import hashlib\n"
        "from boxlogic import BoxWorldSpec, report\n"
        "assert report._sha256 is hashlib.sha256\n"
        "print(report.scenario_hash(BoxWorldSpec.from_sizes([2, 2], [2, 2])))\n"
    )
    assert python_with_src(code).strip() == scenario_hash(CHSH)


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this interpreter has no builtin SHA-256, so hashlib is the only one",
)
def test_verify_does_not_load_openssl(chsh_file):
    code = (
        "import contextlib, io, sys\n"
        "from boxlogic.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', sys.argv[1], '--samples', '5'])\n"
        "print(code, '_hashlib' in sys.modules)\n"
    )
    assert python_with_src(code, chsh_file).split() == ["0", "False"]
