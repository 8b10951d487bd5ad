#!/usr/bin/env python3
"""Print the time and peak memory of a command-line round trip.

Usage: python scripts/cli_memory.py [degree]   (default 4096)

Writes random_tree(degree, 8, 1) to a temporary directory, then runs
`radiotopo label`, `radiotopo run --transcript --outputs` and
`radiotopo verify` on it, each in a fresh interpreter that reports its own
wall time and peak resident set size (ru_maxrss).  Prints one line per
command and the size of each file, then deletes the files.  The outputs
file is O(n^2) bytes (about 114 MB at degree 4096 and 2 GB at 2^14), so
set TMPDIR to a disk with room for it.  This only reports: the exit status
is 1 if a command fails, else 0.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from radiotopo.generators import random_tree
from radiotopo.trees import tree_to_text

SRC = Path(__file__).resolve().parent.parent / "src"

# Run in the child: one command, its stdout discarded, its cost on stdout.
CHILD = """
import contextlib, json, os, resource, sys, time
from radiotopo.cli import main
start = time.perf_counter()
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = main(sys.argv[1:])
wall = time.perf_counter() - start
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps(dict(code=code, wall_s=wall, peak_mb=peak_kb / 1024)))
"""


def main() -> int:
    degree = int(sys.argv[1]) if len(sys.argv) > 1 else 4096
    tree = random_tree(degree, 8, 1)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    print(f"random_tree({degree}, 8, 1): n = {tree.n}")
    failed = False
    with tempfile.TemporaryDirectory(prefix="cli_memory_") as tmp:
        f = {k: str(Path(tmp) / f"t.{k}") for k in ("tree", "labels", "transcript", "outputs")}
        Path(f["tree"]).write_text(tree_to_text(tree))
        recorded = ["--labels", f["labels"], "--transcript", f["transcript"], "--outputs", f["outputs"]]
        for argv in (
            ["label", "--tree", f["tree"], "--out", f["labels"]],
            ["run", "--tree", f["tree"], *recorded],
            ["verify", "--tree", f["tree"], *recorded],
        ):
            proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{argv[0]:7} crashed: {proc.stderr.strip()[-300:]}")
                failed = True
                break
            cost = json.loads(proc.stdout)
            print(f"{argv[0]:7} {cost['wall_s']:8.2f} s {cost['peak_mb']:9.1f} MB   exit {cost['code']}")
            failed = failed or cost["code"] != 0
        sizes = {k: os.path.getsize(p) for k, p in f.items() if os.path.exists(p)}
        print("files: " + ", ".join(f"{k} {size / 1e6:.2f} MB" for k, size in sizes.items()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
