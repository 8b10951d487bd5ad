#!/usr/bin/env python3
"""Regenerate perfbench/golden.json, the correctness gate's reference values.

    python3 perfbench/golden.py [FIRST_SEED LAST_SEED]   (default 0 24)

For every workload and seed it runs one traced and one untraced sample, which
must agree, and stores the traced sample's digests.  Run it only on a commit
whose outputs are known to be right: a later change that moves a CSV row, a
transcript or a counter then fails the gate instead of being timed.

It first checks the radio-model counters against the baseline recorded in
ROADMAP.md: random_tree(256, 12, 1) has 22 collisions in 64 non-silent
rounds, and family_deg_lb(64, 8, 1, 1) has 134 collisions.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402
from radiotopo import generators, harness  # noqa: E402

BASELINE = (
    ("random_tree(256, 12, 1)", lambda: generators.random_tree(256, 12, 1),
     {"collisions": 22, "nonsilent_rounds": 64}),
    ("family_deg_lb(64, 8, 1, 1)", lambda: generators.family_deg_lb(64, 8, 1, 1)[0],
     {"collisions": 134}),
)


def check_baseline() -> None:
    for name, make, want in BASELINE:
        tree = make()
        counters = workloads.radio_counters(tree, harness.run_tree(tree).transcript.to_text())
        got = {k: counters[k] for k in want}
        print(f"{name}: {got}", file=sys.stderr)
        if got != want:
            sys.exit(f"{name}: counters {got} differ from the ROADMAP baseline {want}")


def main() -> int:
    first, last = (int(x) for x in sys.argv[1:3]) if len(sys.argv) > 2 else (0, 24)
    check_baseline()
    run.OUT.mkdir(exist_ok=True)
    golden: dict = {}
    for workload in run.WORKLOADS:
        for seed in range(first, last + 1):
            traced = run.run_sample(workload, seed, True, run.SAMPLE_TIMEOUT_S)
            plain = run.run_sample(workload, seed, False, run.SAMPLE_TIMEOUT_S)
            if traced is None or plain is None or traced["failed"] or plain["failed"]:
                sys.exit(f"{workload} seed {seed}: a sample failed")
            if run.mismatches(traced["digests"], plain["digests"]):
                sys.exit(f"{workload} seed {seed}: traced and untraced digests differ")
            # The summed engine counters depend on how many simulate calls a
            # workload makes, which a later change may alter; they are only
            # required to repeat within a run.
            traced["digests"].pop("engine")
            golden.setdefault(workload, {})[str(seed)] = traced["digests"]
            print(f"{workload} seed {seed}: ok", file=sys.stderr)
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
