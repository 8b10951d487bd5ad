#!/usr/bin/env python3
"""radiotopo benchmark runner.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Runs samples of one workload, each in a fresh interpreter (perfbench/sample.py),
one at a time, for about BENCHMARK.json's ``run_seconds``, and prints one JSON
line with the median of every metric named in BENCHMARK.json.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
samples and reports the per-layer metrics of the traced ones, plus the
tracing overhead.  With ``--workload all`` (the default) it samples every
workload in turn, ``run_seconds`` each, and prints a table.  BENCHMARK.json
lists only batch_sweep and record_verify; main_sparse and line_dense, the
engine's sparse and dense extremes, run only when named or with ``all``
(see NOTES.md).  ``--seconds`` is accepted only with the value
``run_seconds``, so that every run measures for the same time.

Correctness gate: every sample's digests (CSV rows, transcript sha256,
radio-model counters, exit codes) must equal the golden values stored in
perfbench/golden.json for this workload and seed; whatever golden.json does
not hold (every digest, for a seed outside it; the traced engine totals) must
repeat the run's first sample.  Any mismatch or failed run is counted in
``failed``, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("batch_sweep", "main_sparse", "line_dense", "record_verify")
MIN_SAMPLES = 5  # untraced samples per run, even past run_seconds
MIN_TRACE_PAIRS = 2
MIN_COVERAGE = 0.9  # share of traced wall time the layer spans should cover
RUN_LIMIT_S = 150.0  # start no sample after this; a run must end within 180 s
SAMPLE_TIMEOUT_S = 170.0


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_sample(workload: str, seed: int, trace: bool, timeout: float) -> dict | None:
    """One fresh-interpreter sample, or None if it crashed or gave no result."""
    workdir = OUT / "work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spawned = monotonic()
    cmd = [sys.executable, str(HERE / "sample.py"), workload, str(seed), str(int(trace)),
           str(workdir), repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: sample timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        if (workdir / "spans.json").exists():
            (workdir / "spans.json").replace(OUT / f"spans_{workload}_seed{seed}.json")
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"{workload}: sample exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def mismatches(ref: dict, digests: dict) -> list[str]:
    """Ops whose digest differs from the reference in any value both hold."""
    bad = []
    for op, want in ref.items():
        got = digests.get(op)
        if got is not None and any(got[k] != v for k, v in want.items() if k in got):
            bad.append(op)
    return bad


class Run:
    """The samples of one workload and seed, and the gate's reference digests."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        golden = json.loads((HERE / "golden.json").read_text()).get(workload, {}).get(str(seed))
        self.golden = golden is not None
        self.ref = dict(golden or {})
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = self.failed = 0
        self.durations: list[float] = []
        self.broken = False

    def wants_more(self, seconds: float) -> bool:
        """Whether another sample fits in this run's share of ``seconds``."""
        if self.broken:
            return False
        if not self.trace:
            need = len(self.plain) < MIN_SAMPLES
        else:
            need = min(len(self.plain), len(self.traced)) < MIN_TRACE_PAIRS
        spent = sum(self.durations)
        return need or spent + statistics.median(self.durations or [0.0]) <= seconds

    def take(self, timeout: float) -> None:
        """Run one sample, alternating untraced and traced ones when tracing."""
        want_trace = self.trace and len(self.traced) < len(self.plain)
        t0 = monotonic()
        sample = run_sample(self.workload, self.seed, want_trace, timeout)
        self.durations.append(monotonic() - t0)
        if sample is None:
            self.attempted += 1
            self.failed += 1
            self.broken = True
            return
        bad = mismatches(self.ref, sample["digests"])
        for op, digest in sample["digests"].items():
            self.ref.setdefault(op, digest)  # what golden.json lacks must repeat within the run
        for op in bad:
            print(f"{self.workload}: seed {self.seed}: {op} differs from its reference digest",
                  file=sys.stderr)
        self.attempted += sample["attempted"]
        self.failed += min(sample["attempted"],
                           sample["failed"] + sum(self.ref[op].get("rows", 1) for op in bad))
        (self.traced if want_trace else self.plain).append(sample)


def collect(workloads: list[str], seed: int, seconds: float, trace: bool) -> list[Run]:
    """Sample the workloads round-robin, one sample at a time, until each has
    used ``seconds`` of sampling; taking turns spreads any slow phase of the
    host over every workload."""
    runs = [Run(w, seed, trace) for w in workloads]
    start = monotonic()
    while monotonic() - start < RUN_LIMIT_S * len(runs):
        active = [r for r in runs if r.wants_more(seconds)]
        if not active:
            break
        for r in active:
            r.take(SAMPLE_TIMEOUT_S - sum(r.durations))
    return runs


def median_of(samples: list[dict], key: str, sub: str | None = None) -> float:
    values = [(s[sub] if sub else s)[key] for s in samples]
    if all(v == values[0] for v in values):
        return values[0]  # a counter: keep it exact, and an int
    return statistics.median(values)


def report(spec: dict, run: Run) -> dict | None:
    """The run's result, or None when no sample of a needed kind completed."""
    plain, traced, trace = run.plain, run.traced, run.trace
    name = f"{run.workload} seed {run.seed}"
    if not plain or (trace and not traced):
        print(f"{name}: no sample completed", file=sys.stderr)
        return None
    keys = [m["name"] for m in spec["end_to_end"]]
    samples = [{k: s[k] for k in keys} for s in plain]
    (OUT / f"samples_{run.workload}_seed{run.seed}.json").write_text(json.dumps(samples))
    metrics = {}
    if not trace:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": median_of(plain, m["name"]), "unit": m["unit"]}
    else:
        wall_traced = median_of(traced, "wall_s")
        extra = {"trace.wall_s": wall_traced,
                 "trace.overhead_s": wall_traced - median_of(plain, "wall_s")}
        for m in spec["per_layer"]:
            key = m["name"]
            value = extra[key] if key in extra else median_of(traced, key, "layers")
            metrics[key] = {"value": value, "unit": m["unit"]}
        coverage = metrics["trace.coverage"]["value"]
        if coverage < MIN_COVERAGE:
            print(f"{name}: warning: layer spans cover only {coverage:.3f} of the traced "
                  f"wall time (want >= {MIN_COVERAGE}); wrap the entry points that took "
                  f"over the rest", file=sys.stderr)
    summary = ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    print(f"{name}: {len(plain)} untraced + {len(traced)} traced samples, "
          f"failed {run.failed}/{run.attempted} (failed_frac "
          f"{run.failed / max(1, run.attempted):.4g}), golden "
          f"{'checked' if run.golden else 'absent, first sample used'}; {summary}",
          file=sys.stderr)
    return {"correct": run.failed == 0, "attempted": max(1, run.attempted),
            "failed": run.failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="must equal BENCHMARK.json's run_seconds, which fixes the run length")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "radiotopo" / "__init__.py").is_file():
        print(f"no radiotopo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds must be {seconds}, BENCHMARK.json's run_seconds")
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = collect(names, args.seed, seconds, bool(args.trace))
    results = [report(spec, run) for run in runs]
    if args.workload != "all":
        if results[0] is None:
            return 1
        print(json.dumps(results[0]))
        return 0 if results[0]["correct"] else 1
    ok = True
    for run, result in zip(runs, results):
        if result is None:
            ok = False
            continue
        ok &= result["correct"]
        cells = [f"{k} {v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()]
        frac = result["failed"] / result["attempted"]
        print(f"{run.workload:14s} " + "  ".join(cells) + f"  failed_frac {frac:.4g}")
    print("correctness gate: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
