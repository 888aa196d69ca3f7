"""Batch command-line front end.

Commands read scenario files, write canonical artifacts, and exit with:
0 on success, 2 on invalid input, 3 on a resource cap, 4 when a
structural property that should hold for every scenario fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .errors import BoxLogicError, CapExceeded, ScenarioError, StateError
from .io import (
    canonical_json,
    load_pr_state,
    load_scenario,
    logic_to_dict,
    logic_to_dot,
    hrep_to_dict,
    pasting_to_dot,
    vertices_to_csv,
    write_text,
)
from .logic import _boolean_given_lattice, close_logic, even_set_logic, is_lattice, verify_axioms
from .polytope import enumerate_vertices, ns_polytope
from .scenario import Side, default_caps

# The report, compatibility and state layers are imported by the commands that
# use them, so that `export` and `fixtures` do not load them.

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_CLAIM_FAILED = 4


def _add_cap_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cap-gamma", type=int, default=None, help="max sample points")
    parser.add_argument("--cap-closure", type=int, default=None, help="max logic elements")
    parser.add_argument("--cap-vars", type=int, default=None, help="max polytope variables")


def _caps_from_args(args: argparse.Namespace) -> dict:
    caps = default_caps()
    flags = {"cap_gamma": "gamma", "cap_closure": "closure", "cap_vars": "polytope_variables"}
    for flag, name in flags.items():
        if getattr(args, flag, None) is not None:
            caps[name] = getattr(args, flag)
    for name, value in caps.items():
        if value <= 0:
            raise ScenarioError(f"cap {name} must be positive")
    return caps


def _emit(text: str, out_dir: Optional[str], filename: str) -> None:
    if out_dir is not None:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        write_text(directory / filename, text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxlogic",
        description="Construct and verify the finite logic of two-box scenarios.",
    )
    parser.add_argument("--version", action="version", version=f"boxlogic {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="close the logic and print a summary")
    p_build.add_argument("scenario")
    p_build.add_argument("--out", default=None, help="directory for exports")
    _add_cap_flags(p_build)

    p_verify = sub.add_parser("verify", help="run the full verification battery")
    p_verify.add_argument("scenario")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=100, help="random mixtures")
    _add_cap_flags(p_verify)

    p_states = sub.add_parser("states", help="table polytope operations")
    states_sub = p_states.add_subparsers(dest="states_command", required=True)
    p_vertices = states_sub.add_parser("vertices", help="enumerate extreme tables")
    p_vertices.add_argument("scenario")
    p_vertices.add_argument("--out", default=None)
    _add_cap_flags(p_vertices)
    p_check = states_sub.add_parser("check", help="validate a table file")
    p_check.add_argument("scenario")
    p_check.add_argument("statefile")

    p_export = sub.add_parser("export", help="write logic artifacts")
    p_export.add_argument("format", choices=["json", "dot", "csv"])
    p_export.add_argument("scenario")
    p_export.add_argument("--out", default=None)
    _add_cap_flags(p_export)

    p_fixtures = sub.add_parser("fixtures", help="reference structures")
    fixtures_sub = p_fixtures.add_subparsers(dest="fixtures_command", required=True)
    p_even = fixtures_sub.add_parser("even-set", help="even-cardinality set family")
    p_even.add_argument("--k", type=int, required=True)
    p_even.add_argument("--out", default=None)

    return parser


def cmd_build(args: argparse.Namespace) -> int:
    from .report import build_summary

    caps = _caps_from_args(args)
    spec = load_scenario(args.scenario)
    summary, logic = build_summary(spec, caps=caps)
    text = canonical_json(summary)
    print(text, end="")
    if args.out is not None:
        _emit(text, args.out, "build.json")
        _emit(canonical_json(logic_to_dict(logic)), args.out, "logic.json")
        _emit(logic_to_dot(logic), args.out, "logic.dot")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .report import MAX_SAMPLE_COUNT, verify_scenario

    caps = _caps_from_args(args)
    if not 0 <= args.samples <= MAX_SAMPLE_COUNT:
        raise ScenarioError(f"--samples must be between 0 and {MAX_SAMPLE_COUNT}")
    spec = load_scenario(args.scenario)
    report = verify_scenario(spec, seed=args.seed, sample_count=args.samples, caps=caps)
    text = canonical_json(report)
    print(text, end="")
    _emit(text, args.out, "verify.json")
    return EXIT_OK if report["all_passed"] else EXIT_CLAIM_FAILED


def cmd_states_vertices(args: argparse.Namespace) -> int:
    caps = _caps_from_args(args)
    spec = load_scenario(args.scenario)
    hrep = ns_polytope(spec, var_cap=caps["polytope_variables"])
    vertex_set = enumerate_vertices(hrep)
    csv_text = vertices_to_csv(vertex_set)
    print(csv_text, end="")
    _emit(csv_text, args.out, "vertices.csv")
    if args.out is not None:
        _emit(canonical_json(hrep_to_dict(hrep)), args.out, "hrep.json")
    return EXIT_OK


def cmd_states_check(args: argparse.Namespace) -> int:
    from .report import scenario_hash
    from .states import validate_pr_state

    spec = load_scenario(args.scenario)
    pr = load_pr_state(args.statefile, spec)
    violations = validate_pr_state(pr)
    result = {
        "tool": {"name": "boxlogic", "version": __version__},
        "scenario_hash": scenario_hash(spec),
        "valid": not violations,
        "violations": [v.to_dict() for v in violations],
    }
    print(canonical_json(result), end="")
    return EXIT_OK if not violations else EXIT_INVALID


def cmd_export(args: argparse.Namespace) -> int:
    caps = _caps_from_args(args)
    spec = load_scenario(args.scenario)
    logic = close_logic(spec, closure_cap=caps["closure"], gamma_cap=caps["gamma"])
    if args.format == "json":
        hrep = ns_polytope(spec, var_cap=caps["polytope_variables"])  # a cap on it exits 3
        text = canonical_json(logic_to_dict(logic))
        print(text, end="")
        _emit(text, args.out, "logic.json")
        if args.out is not None:
            _emit(canonical_json(hrep_to_dict(hrep)), args.out, "hrep.json")
    elif args.format == "dot":
        text = logic_to_dot(logic)
        print(text, end="")
        _emit(text, args.out, "logic.dot")
        if args.out is not None:
            for side in (Side.LEFT, Side.RIGHT):
                _emit(pasting_to_dot(spec.sizes(side)), args.out, f"pasting_{side.value}.dot")
    else:
        hrep = ns_polytope(spec, var_cap=caps["polytope_variables"])
        vertex_set = enumerate_vertices(hrep)
        text = vertices_to_csv(vertex_set)
        print(text, end="")
        _emit(text, args.out, "vertices.csv")
    return EXIT_OK


def cmd_fixtures_even_set(args: argparse.Namespace) -> int:
    logic = even_set_logic(args.k)
    axioms = verify_axioms(logic)
    lattice = is_lattice(logic)
    result = {
        "k": args.k,
        "element_count": len(logic.elements),
        "axioms": axioms.to_dict(),
        "is_lattice": lattice,
        "is_boolean": _boolean_given_lattice(logic, lattice),
    }
    text = canonical_json(result)
    print(text, end="")
    _emit(text, args.out, f"even_set_k{args.k}.json")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "build":
            return cmd_build(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "states":
            if args.states_command == "vertices":
                return cmd_states_vertices(args)
            return cmd_states_check(args)
        if args.command == "export":
            return cmd_export(args)
        if args.command == "fixtures":
            return cmd_fixtures_even_set(args)
        parser.error(f"unknown command {args.command!r}")
    except (ScenarioError, StateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BoxLogicError as exc:
        print(f"claim failed: {exc}", file=sys.stderr)
        return EXIT_CLAIM_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
