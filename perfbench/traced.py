"""Run one boxlogic CLI command with a span around every layer call.

    python3 perfbench/traced.py SPANS_FILE CLI_ARG...

Before the command starts, each public function of each boxlogic module,
and the all-pairs scan and cover methods of the logic table, is replaced by a
wrapper that records a span: name, the span it was called from, start
and end in nanoseconds.  Spans stay in memory and are written to
SPANS_FILE, one JSON array per line, after the command returns.  The
command's own output goes to standard output unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("scenario", "logic", "compat", "polytope", "states", "report", "io", "linalg", "cli")
# Methods worth a span: the all-pairs scans and the Hasse covers.  Per-entry
# accessors such as PRState.value run hundreds of thousands of times and
# are left bare, so that tracing does not swamp the work it measures.
METHODS = {"logic": {"ConcreteLogic": ("comparable_pairs", "disjoint_pairs", "covers")}}


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent span index or -1, start_ns, end_ns]
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1], clock(), 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def install(self) -> None:
        """Wrap every target and rebind it wherever boxlogic imported it by name."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"boxlogic.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for attr in methods:
                    setattr(cls, attr, self.wrap(f"{layer}.{cls_name}.{attr}", getattr(cls, attr)))
        for name, module in list(sys.modules.items()):
            if name == "boxlogic" or name.startswith("boxlogic."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replaced:
                        setattr(module, attr, replaced[id(obj)])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from boxlogic import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.write(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
