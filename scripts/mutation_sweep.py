#!/usr/bin/env python3
"""Run every single-field mutation, swap and shuffle of the labels of a few
trees and count how each run ends.

Usage: python scripts/mutation_sweep.py

Each tree is labeled by its own protocol; then, one at a time, one field of
one node's label is replaced (emptied, a bit flipped at either end, its last
bit dropped, a 0 or a 1 appended, every bit set) and the tree is run with
those labels.  The degree-share chunk of a main-scheme label (field 2) is
also set to k ones for each k in WIDE_DEGREE, a degree far too large for
the label's core size, and its core-size field (field 10) to k ones for
each k in WIDE_CORE, a gossip window of (2^k - 1)^2 rounds.  Each main-scheme
tree also runs with a consistent lie for each k in WIDE_CORE: every label
says core size k, and the root's first k nodes in BFS order spread a degree
of 4k one-bits, which fits that core size.  The permutation sweep then runs
each tree with its correct labels moved between nodes: every swap of two
nodes' unequal labels, and SHUFFLES shuffles of all of them drawn from
random.Random(1), seeded afresh per tree.  The borrowed-label sweep runs
each tree once with the labels of a partner tree: the first tree, in a fixed
order, that moves one leaf to another node and keeps the same owning
protocol but not the same shape.  A line, a star and a three-node tree have
no such partner (every tree of their size and protocol has their shape), so
they get no borrowed case.  A run may end as a valid run,
an invalid run (outputs that do not place the nodes), a failed run
(RunFailed, exit 1 on the command line; a stall, where some node has no
output within the round budget, is counted apart as a round limit) or a
malformed label (MalformedLabel, exit 2).  A RunFailed chained to a cause
that is not a RunFailed is a program crash the simulator wrapped; it is
counted as a wrapped error, by the cause's type.  Any other exception is
counted by type: a ValueError is a run-time fault the command line would
report as bad usage (exit 2), anything else a traceback.  A run still
going after RUN_LIMIT_S seconds is stopped and counted as over the limit.
Exits nonzero if any run of any of the three sweeps ends in one of those.
"""

import random
import signal
import sys
import time
from collections import Counter
from dataclasses import replace
from itertools import combinations
from typing import Optional

from radiotopo import MalformedLabel, RoundLimitExceeded, RunFailed
from radiotopo.generators import random_tree
from radiotopo.harness import dispatch_protocol, run_tree
from radiotopo.labels import LabelKind, StructuredLabel
from radiotopo.protocol_line import path_tree
from radiotopo.protocol_small import star_tree
from radiotopo.scheme import bits_of, chunk, label_tree
from radiotopo.trees import OrbitInterner, Tree

TREES = {
    "path_tree(3)": path_tree(3),
    "path_tree(40)": path_tree(40),
    "star_tree(9)": star_tree(9),
    "two-hub(9)": Tree(9, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6), (1, 7), (0, 8)]),
    "random_tree(8, 6, 1)": random_tree(8, 6, 1),
    "random_tree(16, 6, 2)": random_tree(16, 6, 2),
    "random_tree(4, 8, 3)": random_tree(4, 8, 3),
}


WIDE_DEGREE = (20, 64)
WIDE_CORE = (16, 24)
SHUFFLES = 30
RUN_LIMIT_S = 5.0


class OverTime(BaseException):
    """Raised by the run's alarm.  Not an Exception, so the simulator cannot
    wrap it as a failure of the program that happened to be running."""


def _alarm(signum, frame):
    raise OverTime


def flip(bit: str) -> str:
    return "1" if bit == "0" else "0"


def mutations(bits: str) -> list[str]:
    """Distinct replacements of one field, the field itself excluded."""
    out = ["", bits + "0", bits + "1", "1" * max(1, len(bits))]
    if bits:
        out += [flip(bits[0]) + bits[1:], bits[:-1] + flip(bits[-1]), bits[:-1]]
    return sorted(set(out) - {bits})


def field_mutations(lab: StructuredLabel, i: int) -> list[str]:
    widths = {2: WIDE_DEGREE, 10: WIDE_CORE}.get(i, ()) if lab.kind is LabelKind.MAIN_SCHEME else ()
    wide = ["1" * k for k in widths]
    return sorted(set(mutations(lab.fields[i]) + wide) - {lab.fields[i]})


def consistent_lies(tree: Tree, labels: dict) -> list[dict]:
    """One label set per k in WIDE_CORE for a main-scheme tree, none for
    the others; a tree of fewer than k nodes spreads the degree over all."""
    if next(iter(labels.values())).kind is not LabelKind.MAIN_SCHEME:
        return []
    labeled = label_tree(tree)
    order = labeled.rooted.subtree_nodes(labeled.rooted.root)
    lies = []
    for k in WIDE_CORE:
        shares = dict(zip(order[:k], chunk("1" * 4 * k, 4)))
        lies.append({
            v: replace(lab, degree_share=shares.get(v), core_size_bits=bits_of(k)).to_structured()
            for v, lab in labeled.labels.items()
        })
    return lies


def outcome(tree: Tree, labels: dict) -> str:
    signal.setitimer(signal.ITIMER_REAL, RUN_LIMIT_S)
    try:
        art = run_tree(tree, preset_labels=labels)
    except OverTime:
        return f"over the {RUN_LIMIT_S:g} s limit"
    except RoundLimitExceeded:
        return "run failed (round limit)"
    except RunFailed as exc:
        cause = exc.__cause__
        if cause is not None and not isinstance(cause, RunFailed):
            return f"wrapped error ({type(cause).__name__})"
        return "run failed"
    except MalformedLabel:
        return "malformed label"
    except ValueError as exc:
        if "invalid literal for int() with base 2: ''" in str(exc):
            return "bare decode ValueError"
        return f"run-time fault, exit 2 ({type(exc).__name__})"
    except Exception as exc:
        return f"traceback ({type(exc).__name__})"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return "valid run" if art.report.ok else "invalid run"


def tree_outcomes(tree: Tree) -> Counter:
    """How the runs of every mutation of the tree's labels end, by outcome."""
    labels = run_tree(tree).structured
    counts: Counter = Counter()
    for v, lab in sorted(labels.items()):
        for i in range(len(lab.fields)):
            for new in field_mutations(lab, i):
                fields = lab.fields[:i] + (new,) + lab.fields[i + 1:]
                mutated = {**labels, v: StructuredLabel(lab.kind, fields)}
                counts[outcome(tree, mutated)] += 1
    for lie in consistent_lies(tree, labels):
        counts[outcome(tree, lie)] += 1
    return counts


def label_permutations(labels: dict, rng: random.Random) -> list[dict]:
    """Every swap of two nodes' unequal labels, then SHUFFLES shuffles of all."""
    nodes = sorted(labels)
    perms = [
        {**labels, u: labels[v], v: labels[u]}
        for u, v in combinations(nodes, 2)
        if labels[u] != labels[v]
    ]
    for _ in range(SHUFFLES):
        values = [labels[v] for v in nodes]
        rng.shuffle(values)
        perms.append(dict(zip(nodes, values)))
    return perms


def tree_permutation_outcomes(tree: Tree) -> Counter:
    """How the runs of every swap and shuffle of the tree's labels end, by outcome."""
    labels = run_tree(tree).structured
    return Counter(outcome(tree, perm) for perm in label_permutations(labels, random.Random(1)))


ORBITS = OrbitInterner()


def shape(tree: Tree) -> tuple[int, ...]:
    """The tree's center key from the script's one interner, as check_run
    compares it: equal exactly for isomorphic trees."""
    return ORBITS.orbit_ids(tree)[0]


def borrowed_partner(tree: Tree) -> Optional[Tree]:
    """The first tree that moves one leaf of tree (highest id first) to
    another node (lowest id first) and has tree's owning protocol but not
    its shape, or None if no move gives one."""
    protocol, form = dispatch_protocol(tree), shape(tree)
    for leaf in reversed(range(tree.n)):
        if tree.degree(leaf) != 1:
            continue
        kept = [e for e in tree.edges if leaf not in e]
        for target in range(tree.n):
            if target == leaf or target in tree.adjacency[leaf]:
                continue
            other = Tree(tree.n, kept + [(leaf, target)])
            if dispatch_protocol(other) == protocol and shape(other) != form:
                return other
    return None


def tree_borrowed_outcomes(tree: Tree) -> Counter:
    """How the run of the tree with its partner's labels ends, if it has a partner."""
    other = borrowed_partner(tree)
    if other is None:
        return Counter()
    return Counter([outcome(tree, run_tree(other).structured)])


def _each_tree(tree_counts) -> dict[str, Counter]:
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        return {name: tree_counts(tree) for name, tree in TREES.items()}
    finally:
        signal.signal(signal.SIGALRM, previous)


def sweep() -> dict[str, Counter]:
    """How the mutated runs end, counted per tree of TREES."""
    return _each_tree(tree_outcomes)


def permutation_sweep() -> dict[str, Counter]:
    """How the swapped and shuffled runs end, counted per tree of TREES."""
    return _each_tree(tree_permutation_outcomes)


def borrowed_sweep() -> dict[str, Counter]:
    """How the runs with a partner tree's labels end, counted per tree of TREES."""
    return _each_tree(tree_borrowed_outcomes)


def report(what: str, run_sweep) -> int:
    """Print how the runs of one sweep end; returns how many end in a fault."""
    start = time.perf_counter()
    total: Counter = Counter()
    for name, counts in run_sweep().items():
        print(f"{name}: {sum(counts.values())} {what}, {dict(sorted(counts.items()))}")
        total += counts
    print(f"all: {sum(total.values())} {what} in {time.perf_counter() - start:.1f}s")
    for kind, count in sorted(total.items()):
        print(f"  {kind:40} {count}")
    return sum(
        c for k, c in total.items() if k.startswith(("run-time", "traceback", "bare", "over", "wrapped"))
    )


def main() -> int:
    bad = (
        report("mutations", sweep)
        + report("permutations", permutation_sweep)
        + report("borrowed label sets", borrowed_sweep)
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
