"""Spans around calls into the program's layers, recorded from outside.

``Tracer.install`` replaces each public entry point at the module attribute
where its caller looks it up (``cli`` imports ``check_run`` and ``run_tree``
by name, so ``cli.check_run`` is wrapped as well as ``harness.check_run``).
A span is ``[name, start, end, parent, run_id]``; spans stay in memory until
the sample ends.  Hooks keep references to returned objects only, so the
counters are computed after the timed part.
"""

from __future__ import annotations

import sys
import time

from radiotopo import cli, generators, harness

GENERATORS = (
    "generate", "random_tree", "family_feasibility", "family_sticks",
    "family_diam_lb", "family_deg_lb", "family_lines", "family_stars",
)

# (module, attribute, span name).  A span is named after the module that
# defines the function; cli.main spans are named after the subcommand.
ENTRY_POINTS = (
    [(generators, fn, f"generators.{fn}") for fn in GENERATORS]
    + [(harness, "generate", "generators.generate"), (cli, "generate", "generators.generate")]
    + [(harness, fn, f"harness.{fn}") for fn in (
        "structured_labels_for", "programs_from_structured", "check_run",
        "check_tr_delivery", "check_mod3", "run_tree", "run_experiment")]
    + [(cli, fn, f"harness.{fn}") for fn in (
        "structured_labels_for", "check_run", "check_mod3", "run_tree", "run_experiment")]
    + [
        (harness, "scheme_length", "labels.scheme_length"),
        (cli, "labels_to_text", "labels.labels_to_text"),
        (cli, "labels_from_text", "labels.labels_from_text"),
        (cli, "_parse_outputs", "cli.parse_outputs"),
        (harness, "simulate", "engine.simulate"),
        (cli, "main", "cli.main"),
    ]
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.simulated: list = []  # (tree, transcript) per simulate call
        self.structured: list = []  # structured labels per program build
        self.label_bits: list[int] = []  # scheme_length results
        self.verified_nodes = 0
        self.generated_nodes = 0

    def install(self) -> None:
        for module, attr, name in ENTRY_POINTS:
            if not hasattr(module, attr):  # renamed or gone: its time goes uncovered
                print(f"spans: {module.__name__}.{attr} not found, not traced", file=sys.stderr)
                continue
            setattr(module, attr, self._wrap(getattr(module, attr), name))

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        layer, fn_name = name.split(".", 1)
        if layer == "generators":
            hook = self._on_generated
        else:
            hook = getattr(self, "_on_" + fn_name, None)
        is_cli = name == "cli.main"

        def wrapper(*args, **kwargs):
            span_name = f"cli.{args[0][0]}" if is_cli else name
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(rec, args, result)
            return result

        return wrapper

    # Hooks keep references and count cheaply; no work on the program's objects.
    def _on_generated(self, rec, args, result):
        parent = rec[3]
        if parent < 0 or not self.spans[parent][0].startswith("generators."):
            trees = result if isinstance(result, list) else [result]
            self.generated_nodes += sum(t.n for t in trees)

    def _on_simulate(self, rec, args, result):
        self.simulated.append((args[0], result[1]))

    def _on_programs_from_structured(self, rec, args, result):
        self.structured.append(args[0])

    def _on_scheme_length(self, rec, args, result):
        self.label_bits.append(result)

    def _on_check_run(self, rec, args, result):
        self.verified_nodes += len(result)


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, minus the time of each span's child spans."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out: dict[str, float] = {}
    for rec, inner in zip(spans, child):
        out[rec[0]] = out.get(rec[0], 0.0) + rec[2] - rec[1] - inner
    return out


def inclusive_time(spans: list[list], name: str) -> float:
    return sum(rec[2] - rec[1] for rec in spans if rec[0] == name)


def coverage(spans: list[list], start: float, end: float) -> float:
    """Share of [start, end] covered by the spans directly beneath top-level
    spans.  A top-level span is an operation's entry call (``run_experiment``,
    ``run_tree`` or a ``cli`` subcommand); its self time, like time outside
    any span, counts as not covered by a layer."""
    top = {i for i, rec in enumerate(spans) if rec[3] < 0 and rec[1] >= start}
    covered = sum(rec[2] - rec[1] for rec in spans if rec[3] in top)
    return covered / (end - start)
