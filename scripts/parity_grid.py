#!/usr/bin/env python3
"""Print one fingerprint line per tree of a fixed random_tree grid.

Usage: python scripts/parity_grid.py > grid.txt

The grid is random_tree(delta, diameter, seed) for every delta in DELTAS,
every diameter from 4 to 10 and seeds 1 to 4.  Each line holds the tree's
CSV row and the sha256 of its transcript text, its labels text and its
outputs text (the formats of `radiotopo run --transcript/--outputs` and
`radiotopo label`).  Two versions of the code give the same runs exactly
when `diff` finds no difference between their outputs.  This only reports:
the exit status is 0 unless a run raises.
"""

import hashlib
import sys
import time

from radiotopo.generators import random_tree
from radiotopo.harness import outputs_to_text, run_tree
from radiotopo.labels import labels_to_text

DELTAS = (3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64)
DIAMETERS = range(4, 11)
SEEDS = range(1, 5)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    start = time.perf_counter()
    for delta in DELTAS:
        for diameter in DIAMETERS:
            for seed in SEEDS:
                art = run_tree(random_tree(delta, diameter, seed), family="random", seed=seed)
                print(
                    art.report.csv_row(),
                    sha(art.transcript.to_text()),
                    sha(labels_to_text(art.structured)),
                    sha(outputs_to_text(art.outputs)),
                )
    print(f"{len(DELTAS) * len(DIAMETERS) * len(SEEDS)} trees in {time.perf_counter() - start:.1f}s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
