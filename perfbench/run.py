"""Benchmark of the boxlogic command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
Each operation is one CLI command in a fresh interpreter.  Commands run
back to back for `--seconds`: one more starts only while one as long as
the longest so far would still end in time, so a run stops near
`--seconds` and never more than one command's length past it.

--trace 0 runs one command at a time (a closed loop with one client) and
reports the end-to-end metrics: median wall time, CPU time and peak
resident set of the commands, and the median of SETUP_PROBES set-up
probes before the commands and as many after them.  --trace 1 runs
rounds of one untraced and one traced command side by side, checks that
both print the same bytes, and reports per-layer self time and work
counts from the traced one's spans.

Every output is checked against figures computed in `oracles.py`
without importing boxlogic.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, suppress
from dataclasses import dataclass
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 5
COVER_SAMPLES = 200
CLI_SAMPLES = 100  # the CLI's default `verify --samples`
DEADLINE_S = 170.0  # a command still running then is killed and counted as failed


@dataclass(frozen=True)
class Workload:
    scenario: str
    command: tuple[str, ...]
    nonlocal_vertices: str  # source of the nonlocal vertex count, see oracles.expectations

    def cli_args(self, seed: int) -> list[str]:
        args = [*self.command, f"scenarios/{self.scenario}"]
        return args + ["--seed", str(seed)] if self.command == ("verify",) else args


WORKLOADS = {
    "export-3x3": Workload("two_input_three_outcome.json", ("export", "json"), "pr-boxes"),
    "verify-3in": Workload("three_input_binary.json", ("verify",), "barrett"),
    # Run by hand only: at ~50 s a command, a run holds one command, and one
    # command's time swings as widely as the host's speed (see README).
    "verify-3x3": Workload("two_input_three_outcome.json", ("verify",), "pr-boxes"),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}

# Per-layer self time: metric name -> span names whose self times add up to it.
SELF_TIMES = {
    "scenario.build_gamma_s": ("scenario.build_gamma",),
    "logic.close_logic_s": ("logic.close_logic",),
    "logic.covers_s": ("logic.ConcreteLogic.covers",),
    "logic.pair_lists_s": ("logic.ConcreteLogic.comparable_pairs", "logic.ConcreteLogic.disjoint_pairs"),
    "logic.verify_axioms_s": ("logic.verify_axioms",),
    "logic.order_classification_s": ("logic.verify_order_classification", "logic.classify_above_atom"),
    "logic.atomic_coverage_s": ("logic.verify_atomic_coverage",),
    "compat.localized_s": (
        "compat.verify_localized_propositions",
        "compat.enumerate_localized",
        "compat.localized_family_partition",
        "compat.localized_bits",
    ),
    "compat.are_compatible_s": ("compat.are_compatible",),
    "polytope.enumerate_vertices_s": ("polytope.enumerate_vertices",),
    "states.state_from_pr_s": ("states.state_from_pr",),
    "states.pr_from_state_s": ("states.pr_from_state",),
    "states.validate_pr_state_s": ("states.validate_pr_state",),
    "states.monotonicity_s": ("states.verify_state_monotonicity",),
    "states.order_determining_s": ("states.check_order_determining",),
    "report.vertex_pr_states_s": ("report.vertex_pr_states",),
    "report.verify_scenario_s": ("report.verify_scenario",),
    "io.logic_to_dict_s": ("io.logic_to_dict",),
    "io.canonical_json_s": ("io.canonical_json",),
    "cli.main_s": ("cli.main", "cli.build_parser", "cli.cmd_verify", "cli.cmd_export"),
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIMES},
    "polytope.rays_built": "count",
    "states.state_from_pr_calls": "count",
    "states.validations_per_table": "ratio",
    "io.bytes_out": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    code: int


def run_children(jobs: list[tuple[list[str], Path]], env: dict, deadline: float) -> list[Sample]:
    """Start every (argv, stdout file) job at once and reap each as it exits.

    A job's stdout goes to its file.  Its stderr is shown if it fails.
    Jobs still running at the deadline, or when this process is stopped,
    are killed and reaped.
    """
    samples: list[Sample] = [None] * len(jobs)  # type: ignore[list-item]
    running: dict[int, tuple[int, float]] = {}
    with ExitStack() as files:
        for k, (argv, stdout) in enumerate(jobs):
            out = files.enter_context(open(stdout, "wb"))
            err = files.enter_context(open(stdout.with_suffix(".err"), "wb"))
            start = time.perf_counter()
            running[subprocess.Popen(argv, stdout=out, stderr=err, env=env).pid] = (k, start)

        def kill_all() -> None:
            for pid in list(running):
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), kill_all)
        watchdog.start()
        try:
            while running:
                pid, status, usage = os.wait4(-1, 0)
                end = time.perf_counter()
                k, start = running.pop(pid)
                code = os.waitstatus_to_exitcode(status)
                samples[k] = Sample(end - start, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code)
        finally:
            watchdog.cancel()
            kill_all()
            for pid in running:
                os.waitpid(pid, 0)
    for (argv, stdout), sample in zip(jobs, samples):
        err_path = stdout.with_suffix(".err")
        if sample.code != 0:
            print(f"{' '.join(argv)} exited {sample.code}:", file=sys.stderr)
            sys.stderr.write(err_path.read_text(encoding="utf-8", errors="replace")[-2000:])
        err_path.unlink()
    return samples


def run_child(argv: list[str], env: dict, stdout: Path, deadline: float) -> Sample:
    return run_children([(argv, stdout)], env, deadline)[0]


class OutputCheck:
    """Checks the first output in full; later ones must repeat its bytes."""

    def __init__(self, workload: Workload, expect: dict, seed: int):
        self.workload, self.expect, self.seed = workload, expect, seed
        self.digest = None
        self.correct = True

    def __call__(self, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest = digest
            problems = self._check_document(data)
        elif digest != self.digest:
            problems = ["output bytes differ between commands"]
        else:
            problems = []
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        self.correct = self.correct and not problems

    def _check_document(self, data: bytes) -> list[str]:
        try:
            doc = json.loads(data)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        if self.workload.command == ("verify",):
            return oracles.check_verify_report(doc, self.expect, self.seed, CLI_SAMPLES)
        return oracles.check_export(doc, self.expect, self.seed, COVER_SAMPLES)


def self_times(spans: list[list]) -> tuple[dict, dict]:
    """Self time in seconds and call count per span name.

    A span's self time is its duration minus that of the spans it called.
    """
    child_ns = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_s, calls = defaultdict(float), defaultdict(int)
    for (name, _, start, end), nested in zip(spans, child_ns):
        self_s[name] += (end - start - nested) / 1e9
        calls[name] += 1
    return self_s, calls


def layer_metrics(spans: list[list], bytes_out: int) -> dict:
    self_s, calls = self_times(spans)
    metrics = {name: sum(self_s[s] for s in parts) for name, parts in SELF_TIMES.items()}
    metrics["polytope.rays_built"] = sum(
        1 for name, parent, _, _ in spans
        if name == "linalg.gcd_reduce" and parent >= 0 and spans[parent][0].startswith("polytope.")
    )
    metrics["states.state_from_pr_calls"] = calls["states.state_from_pr"]
    tables = calls["states.pr_from_state"]
    metrics["states.validations_per_table"] = calls["states.validate_pr_state"] / tables if tables else 0.0
    metrics["io.bytes_out"] = bytes_out
    metrics["trace.spans"] = len(spans)
    return metrics


def rounds(seconds: float):
    """Yield once per round for `seconds`.

    A next round starts only if one as long as the longest so far would
    still end within `seconds`; the first always runs.
    """
    started = time.monotonic()
    longest = 0.0
    while True:
        begun = time.monotonic()
        yield
        ended = time.monotonic()
        longest = max(longest, ended - begun)
        if ended - started + longest > seconds:
            return


def median_by_key(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a stopped run unwinds, so that run_children kills and reaps its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    scenario = root / "scenarios" / workload.scenario
    for needed in (root / "src" / "boxlogic" / "cli.py", scenario):
        if not needed.is_file():
            print(f"error: {needed} not found; run from the root of a boxlogic checkout", file=sys.stderr)
            return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    env = {
        **os.environ,
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": str(args.seed % 2**32),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    cli_args = workload.cli_args(args.seed)
    command = [sys.executable, "-m", "boxlogic", *cli_args]
    stdout = OUT / f"{args.workload}.out"

    expect = oracles.expectations(scenario, workload.nonlocal_vertices)
    check = OutputCheck(workload, expect, args.seed)
    # untimed: compiles the bytecode cache and warms the file cache
    warm = run_child([sys.executable, str(HERE / "probe.py"), *cli_args], env, stdout, deadline)
    if warm.code != 0:
        return 1

    attempted = failed = 0

    def measured(*jobs: tuple[list[str], Path]) -> list[Sample | None]:
        """Run the jobs side by side; a failed one is counted and comes back as None."""
        nonlocal attempted, failed
        attempted += len(jobs)
        results: list[Sample | None] = []
        for (_, out_path), sample in zip(jobs, run_children(list(jobs), env, deadline)):
            if sample.code != 0:
                failed += 1
                results.append(None)
            else:
                check(out_path.read_bytes())
                results.append(sample)
        return results

    rows = []
    if args.trace:
        spans_file = OUT / f"{args.workload}.spans.jsonl"
        traced_out = OUT / f"{args.workload}.traced.out"
        traced_cmd = [sys.executable, str(HERE / "traced.py"), str(spans_file), *cli_args]
        for _ in rounds(args.seconds):
            # side by side on the two cores: both see the same host conditions, and
            # check() holds the traced output to the untraced one's bytes
            plain, traced = measured((command, stdout), (traced_cmd, traced_out))
            if plain and traced:
                with open(spans_file, encoding="utf-8") as f:
                    spans = [json.loads(line) for line in f]
                row = layer_metrics(spans, traced_out.stat().st_size)
                row["trace.overhead_s"] = traced.wall_s - plain.wall_s
                rows.append(row)
        values, units = (median_by_key(rows) if rows else {}), PER_LAYER_UNITS
    else:
        probe = [sys.executable, str(HERE / "probe.py"), *cli_args]
        setup = [run_child(probe, env, stdout, deadline).wall_s for _ in range(SETUP_PROBES)]
        for _ in rounds(args.seconds):
            (sample,) = measured((command, stdout))
            if sample:
                rows.append({"wall_s": sample.wall_s, "cpu_s": sample.cpu_s, "peak_rss_mib": sample.peak_rss_mib})
        # probes on both sides of the commands, so that one slow spell of the host skews fewer of them
        setup += [run_child(probe, env, stdout, deadline).wall_s for _ in range(SETUP_PROBES)]
        values = {**(median_by_key(rows) if rows else {}), "setup_s": statistics.median(setup)}
        units = END_TO_END_UNITS

    result = {
        "correct": check.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
