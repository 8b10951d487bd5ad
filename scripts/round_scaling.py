#!/usr/bin/env python3
"""Print how rounds, label bits and a command-line round trip grow with the
degree, and a line run with its length.

Usage: python scripts/round_scaling.py [max_exp]   (default 14, at most 16)

For degree 2^4 .. 2^max_exp, prints four tables:
- the main protocol on random_tree(degree, D, 1) for D = 4 and 8: its
  completion round, rounds / (D * degree), the constant of the paper's
  O(D * degree) bound, its deliveries (a listener hearing its one
  transmitting neighbor) and the whole run's time per delivery and per node
  in microseconds;
- the line protocol on path_tree(2^k), the line of 2^k edges, for the same
  exponents: its completion round, deliveries and the whole run's time per
  delivery;
- the longest encoded label of the fixed witness tree (see
  harness.scaling_witness) and its step from the previous degree;
- `radiotopo label`, `radiotopo run --transcript --outputs` and
  `radiotopo verify` on random_tree(degree, 8, 1) in a temporary directory,
  with each command's exit status and the size of each file.  These rows
  stop at degree 2^CLI_MAX_EXP: the outputs file is O(n^2) bytes (114 MB at
  2^12), so set TMPDIR to a disk with room for it.

Every measurement runs in a fresh interpreter, so no row pays for an earlier
one's garbage or warm caches; each row gives its wall time and the
interpreter's peak resident set size (ru_maxrss).  The tables only report;
no bound is checked.  The exit status is 1 if a run fails, else 0.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from radiotopo.generators import random_tree
from radiotopo.trees import tree_to_text

CLI_MAX_EXP = 12

# Run in the child: one job, then its numbers, wall time and peak RSS as one JSON line.
CHILD = """
import contextlib, json, os, resource, sys, time
from radiotopo.cli import main as cli
from radiotopo.generators import random_tree
from radiotopo.harness import run_tree, scaling_witness
from radiotopo.labels import encode
from radiotopo.scheme import label_tree
from radiotopo.trees import path_tree

def timed(work):
    start = time.perf_counter()
    done = work()
    return done, time.perf_counter() - start

job, args = sys.argv[1], sys.argv[2:]
if job in ("main", "line"):
    size = 1 << int(args[0])
    art, wall = timed(lambda: run_tree(random_tree(size, int(args[1]), 1) if job == "main" else path_tree(size)))
    rep = art.report
    out = dict(n=rep.n, rounds=rep.rounds, ratio=rep.rounds / (rep.diameter * rep.delta), ok=rep.ok,
               deliveries=sum(len(rec.deliveries) for rec in art.transcript.records.values()))
elif job == "label":
    labeled, wall = timed(lambda: label_tree(scaling_witness(1 << int(args[0]))))
    out = dict(n=labeled.tree.n, bits=max(len(encode(lab.to_structured())) for lab in labeled.labels.values()))
else:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code, wall = timed(lambda: cli(args))
    out = dict(code=code)
out.update(wall_s=wall, peak_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
print(json.dumps(out))
"""


def measure(*job) -> dict:
    """Run one job of CHILD in a fresh interpreter and return what it printed."""
    proc = subprocess.run([sys.executable, "-c", CHILD, *map(str, job)], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(map(str, job))} crashed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout)


def main() -> int:
    hi = int(sys.argv[1]) if len(sys.argv) > 1 else 14
    if not 4 <= hi <= 16:
        print("max_exp must be in 4..16", file=sys.stderr)
        return 2
    failed = False
    print(f"{'D':>3} {'degree':>8} {'nodes':>8} {'rounds':>8} {'rounds/(D*degree)':>18} "
          f"{'seconds':>8} {'deliveries':>10} {'us/delivery':>11} {'us/node':>8} {'peak MB':>8}")
    for diameter in (4, 8):
        for exp in range(4, hi + 1):
            run = measure("main", exp, diameter)
            seconds = run["wall_s"]
            print(f"{diameter:>3} {f'2^{exp}':>8} {run['n']:>8} {run['rounds']:>8} "
                  f"{run['ratio']:>18.2f} {seconds:>8.1f} {run['deliveries']:>10} "
                  f"{1e6 * seconds / run['deliveries']:>11.2f} {1e6 * seconds / run['n']:>8.2f} "
                  f"{run['peak_mb']:>8.1f}", flush=True)
            if not run["ok"]:
                print(f"run on degree 2^{exp}, D {diameter} does not place every node", file=sys.stderr)
                failed = True

    print(f"\n{'line':>10} {'nodes':>8} {'rounds':>8} {'deliveries':>10} {'seconds':>8} "
          f"{'us/delivery':>11} {'peak MB':>8}")
    for exp in range(4, hi + 1):
        run = measure("line", exp)
        print(f"{f'2^{exp}':>10} {run['n']:>8} {run['rounds']:>8} {run['deliveries']:>10} "
              f"{run['wall_s']:>8.2f} {1e6 * run['wall_s'] / run['deliveries']:>11.2f} "
              f"{run['peak_mb']:>8.1f}", flush=True)
        if not run["ok"]:
            print(f"line run on 2^{exp} edges does not place every node", file=sys.stderr)
            failed = True

    print(f"\n{'degree':>10} {'nodes':>8} {'max label bits':>15} {'step':>5} {'seconds':>8} {'peak MB':>8}")
    prev = None
    for exp in range(4, hi + 1):
        lab = measure("label", exp)
        step = "" if prev is None else f"+{lab['bits'] - prev}"
        print(f"{f'2^{exp}':>10} {lab['n']:>8} {lab['bits']:>15} {step:>5} "
              f"{lab['wall_s']:>8.2f} {lab['peak_mb']:>8.1f}", flush=True)
        prev = lab["bits"]

    print(f"\n{'degree':>10} {'nodes':>8} {'command':8} {'seconds':>8} {'peak MB':>8}")
    for exp in range(4, min(hi, CLI_MAX_EXP) + 1):
        tree = random_tree(1 << exp, 8, 1)
        row = f"{f'2^{exp}':>10} {tree.n:>8}"
        with tempfile.TemporaryDirectory(prefix="round_scaling_") as tmp:
            f = {k: str(Path(tmp) / f"t.{k}") for k in ("tree", "labels", "transcript", "outputs")}
            Path(f["tree"]).write_text(tree_to_text(tree))
            recorded = ["--labels", f["labels"], "--transcript", f["transcript"], "--outputs", f["outputs"]]
            for argv in (
                ["label", "--tree", f["tree"], "--out", f["labels"]],
                ["run", "--tree", f["tree"], *recorded],
                ["verify", "--tree", f["tree"], *recorded],
            ):
                cost = measure("cli", *argv)
                print(f"{row} {argv[0]:8} {cost['wall_s']:>8.2f} {cost['peak_mb']:>8.1f}   exit {cost['code']}",
                      flush=True)
                failed = failed or cost["code"] != 0
            sizes = (f"{k} {os.path.getsize(p) / 1e6:.2f}" for k, p in f.items() if os.path.exists(p))
            print(f"{row} files MB: {', '.join(sizes)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
