"""Byte-level pin of line runs.

Every line of 1..200 edges and a few around 256 and 512 runs twice: with
path ids 0..k in path order, and with those ids permuted by one seeded
shuffle.  One sha256 covers each run's CSV row, transcript, labels and
outputs texts, so a change that shifts a round, a label field or a placed
position on any of these lines fails here.  The hash was recorded from a
known-good build; update it only with a change that means to alter a line
run, and say so where the change is recorded.
"""

import hashlib
import random

from radiotopo.harness import outputs_lines, run_tree
from radiotopo.labels import labels_to_text
from radiotopo.trees import Tree, path_tree

LENGTHS = [*range(1, 201), 255, 256, 257, 511, 512, 513]
LINES_SHA256 = "a7176c9af440ef407f07083bf3c96052280acf780cf6ae4376636c7f8a0cb4b9"


def _feed(digest, tree: Tree) -> None:
    run = run_tree(tree)
    digest.update(run.report.csv_row().encode())
    digest.update(run.transcript.to_text().encode())
    digest.update(labels_to_text(run.structured).encode())
    for line in outputs_lines(run.outputs):
        digest.update(line.encode())


def test_line_runs_pinned():
    digest, rng = hashlib.sha256(), random.Random(1)
    for k in LENGTHS:
        _feed(digest, path_tree(k))
        ids = list(range(k + 1))
        rng.shuffle(ids)
        _feed(digest, Tree(k + 1, zip(ids, ids[1:])))
    assert digest.hexdigest() == LINES_SHA256
