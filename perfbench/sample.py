"""One benchmark sample, run in a fresh interpreter.

Usage: python3 perfbench/sample.py WORKLOAD SEED TRACE WORKDIR SPAWNED

SPAWNED is the CLOCK_MONOTONIC time at which the parent started this
process, so set-up time includes interpreter start.  The sample imports the
program from the checkout's ``src``, makes the workload's inputs (set-up),
runs its operations (the timed part), then digests every result and prints
one JSON object on stdout.  Nothing after the timed part is timed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from radiotopo import labels  # noqa: E402


def layer_metrics(tracer: spans.Tracer, start: float, end: float, workdir: Path) -> tuple[dict, dict]:
    """Per-layer metrics of a traced sample (times are self times, in
    seconds), and the radio-model counters summed over its simulate calls."""
    self_time = spans.self_times(tracer.spans)

    def total(*names: str) -> float:
        return sum(self_time.get(name, 0.0) for name in names)

    engine = {k: 0 for k in ("rounds", "nonsilent_rounds", "node_rounds", "transmissions",
                             "deliveries", "collisions", "bad_rounds")}
    for tree, transcript in tracer.simulated:
        counters = workloads.radio_counters(tree, transcript.to_text())
        for key in engine:
            engine[key] += counters[key]
    simulate_s = total("engine.simulate")
    sizes = {kind: sum(p.stat().st_size for p in workdir.glob(f"*.{kind}"))
             for kind in ("outputs", "transcript", "labels")}
    m = {
        "generators.gen_s": sum(t for name, t in self_time.items() if name.startswith("generators.")),
        "generators.nodes": tracer.generated_nodes,
        "label.label_s": total("harness.structured_labels_for"),
        "labels.encode_s": total("labels.scheme_length", "labels.labels_to_text",
                                 "labels.labels_from_text"),
        "protocols.programs_s": total("harness.programs_from_structured"),
        "labels.bits_max": max(tracer.label_bits, default=0),
        "labels.bits_total": sum(len(labels.encode(s)) for run in tracer.structured
                                 for s in run.values()),
        "engine.simulate_s": simulate_s,
        **{f"engine.{k}": v for k, v in engine.items() if k != "bad_rounds"},
        "engine.nonsilent_frac": engine["nonsilent_rounds"] / max(1, engine["rounds"]),
        "engine.us_per_node_round": 1e6 * simulate_s / max(1, engine["node_rounds"]),
        "engine.us_per_delivery": 1e6 * simulate_s / max(1, engine["deliveries"]),
        "harness.verify_s": total("harness.check_run"),
        "harness.checks_s": total("harness.check_tr_delivery", "harness.check_mod3"),
        "harness.verified_nodes": tracer.verified_nodes,
        "harness.run_tree_self_s": total("harness.run_tree"),
        "harness.batch_self_s": total("harness.run_experiment"),
        "cli.label_s": spans.inclusive_time(tracer.spans, "cli.label"),
        "cli.run_s": spans.inclusive_time(tracer.spans, "cli.run"),
        "cli.verify_s": spans.inclusive_time(tracer.spans, "cli.verify"),
        "cli.verify_self_s": total("cli.verify"),
        "cli.parse_outputs_s": total("cli.parse_outputs"),
        **{f"cli.{kind}_bytes": size for kind, size in sizes.items()},
        "trace.coverage": spans.coverage(tracer.spans, start, end),
        "trace.spans": len(tracer.spans),
    }
    return m, engine


def main() -> int:
    workload, seed, trace, workdir, spawned = sys.argv[1:6]
    seed, workdir = int(seed), Path(workdir)
    tracer = spans.Tracer() if trace == "1" else None
    if tracer:
        tracer.install()

    ops = workloads.WORKLOADS[workload](seed, workdir)
    setup_end = time.clock_gettime(time.CLOCK_MONOTONIC)

    results = []
    t0, c0 = time.perf_counter(), time.process_time()
    for run_id, op in enumerate(ops):
        if tracer:
            tracer.run_id = run_id
        try:
            results.append(op.run())
        except Exception:  # one failed operation must not hide the others
            results.append(None)
            traceback.print_exc()
    t1, c1 = time.perf_counter(), time.process_time()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "setup_s": setup_end - float(spawned),
        "wall_s": t1 - t0,
        "cpu_s": c1 - c0,
        "peak_rss_mb": peak_rss_mb,
        "attempted": 0,
        "failed": 0,
        "digests": {},
    }
    for op, result in zip(ops, results):
        if result is None:
            out["attempted"] += 1
            out["failed"] += 1
            continue
        digest, attempted, failed = op.digest(result)
        out["digests"][op.name] = digest
        out["attempted"] += attempted
        out["failed"] += failed
    if tracer:
        out["layers"], out["digests"]["engine"] = layer_metrics(tracer, t0, t1, workdir)
        if out["digests"]["engine"]["bad_rounds"]:
            out["failed"] = min(out["attempted"], out["failed"] + 1)
        (workdir / "spans.json").write_text(json.dumps(tracer.spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
