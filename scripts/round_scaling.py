#!/usr/bin/env python3
"""Print how the main protocol's round count compares with D * degree.

Usage: python scripts/round_scaling.py [max_exp]   (default 14, at most 16)

For diameter D = 4 and 8 and degree 2^4 .. 2^max_exp, runs
random_tree(degree, D, 1) end to end and prints its completion round,
rounds / (D * degree), the constant of the paper's O(D * degree) bound, the
run's deliveries (a listener hearing its one transmitting neighbor) and the
whole run_tree time per delivery and per node in microseconds.  The table
only reports; no bound is checked.
"""

import sys
import time

from radiotopo.generators import random_tree
from radiotopo.harness import run_tree


def main() -> int:
    hi = int(sys.argv[1]) if len(sys.argv) > 1 else 14
    if not 4 <= hi <= 16:
        print("max_exp must be in 4..16", file=sys.stderr)
        return 2
    print(f"{'D':>3} {'degree':>8} {'nodes':>8} {'rounds':>8} {'rounds/(D*degree)':>18} "
          f"{'seconds':>8} {'deliveries':>10} {'us/delivery':>11} {'us/node':>8}")
    for diameter in (4, 8):
        for exp in range(4, hi + 1):
            start = time.perf_counter()
            art = run_tree(random_tree(1 << exp, diameter, 1))
            seconds = time.perf_counter() - start
            rep = art.report
            ratio = rep.rounds / (rep.diameter * rep.delta)
            deliveries = sum(len(rec.deliveries) for rec in art.transcript.records.values())
            print(f"{rep.diameter:>3} {f'2^{exp}':>8} {rep.n:>8} {rep.rounds:>8} "
                  f"{ratio:>18.2f} {seconds:>8.1f} {deliveries:>10} "
                  f"{1e6 * seconds / deliveries:>11.2f} {1e6 * seconds / rep.n:>8.2f}", flush=True)
            if not rep.ok:
                print(f"run on degree 2^{exp}, D {diameter} does not place every node",
                      file=sys.stderr)
                return 1
            del art  # freed here, not inside the next run's timing
    return 0


if __name__ == "__main__":
    sys.exit(main())
