#!/usr/bin/env python3
"""Run a full verification sweep and write one CSV of per-run results.

Usage: python scripts/sweep.py [out.csv]

Covers the four protocols: a random-tree grid and stick samples for the
general scheme, a line-length sweep, and star sweeps.  Exits nonzero if any
run fails validation.
"""

import sys
import time

from radiotopo.harness import CSV_HEADER, run_experiment

CONFIG = """
family=random
family=sticks
delta=3,4,8,16
diameter=4,6,8
seeds=1..5
family=lines
family=stars
"""


def main() -> int:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "sweep.csv"
    start = time.perf_counter()
    csv_text, ok = run_experiment(CONFIG)
    with open(out_path, "w") as fh:
        fh.write(csv_text)
    rows = csv_text.count("\n") - 1
    print(f"{rows} runs -> {out_path} in {time.perf_counter() - start:.1f}s")
    print(CSV_HEADER)
    for line in csv_text.splitlines()[1:6]:
        print(line)
    print("..." if rows > 5 else "")
    print("all passed" if ok else "FAILURES present (valid=0 rows)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
