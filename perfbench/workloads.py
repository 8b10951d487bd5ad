"""Benchmark inputs, operations and their correctness digests.

Each workload function takes the seed and a scratch directory, makes its
inputs (this is set-up), and returns a list of ``Op``.  An operation runs one
user-visible job through the program's public entry points; its ``digest``
turns the result into the values the correctness gate compares (CSV row,
transcript sha256, radio-model counters) plus the number of tree runs it
stands for and how many of them failed their own checks.  Inputs depend only
on the seed, and sizes are fixed so that the work per sample is nearly the
same for every seed.

Entry points are looked up as module attributes at call time
(``harness.run_tree``, not a name bound at import), so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from radiotopo import cli, generators, harness, labels
from radiotopo.trees import Tree, tree_to_text

# scripts/sweep.py's grid, with the seed range widened and set by the
# workload seed.  Lines and stars do not depend on the seed.
SWEEP_SEEDS_PER_SAMPLE = 16
SWEEP_CONFIG = """
family=random
family=sticks
delta=3,4,8,16
diameter=4,6,8
seeds={lo}..{hi}
family=lines
family=stars
"""

# main_sparse: high degree, so thousands of rounds of which under 1% carry
# traffic; plus one many-node tree from the degree family.
SPARSE_RANDOM = (384, 8)  # (delta, diameter)
SPARSE_DEG_LB = (32, 8)  # (delta, diameter)

# line_dense: one long path; every round carries traffic.
LINE_NODES = 1 << 14

# record_verify: a two-hub tree, a line and a small main-protocol tree.  File
# verify grows about as n^3, so these stay small.
RV_HUB_LEAVES = (150, 100)
RV_LINE_NODES = 360
RV_RANDOM = (128, 8)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    digest: Callable[[object], tuple[dict, int, int]]  # values, attempted, failed


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def radio_counters(tree: Tree, transcript_text: str) -> dict:
    """Counters of one run, from the tree's edges and the transcript text
    alone, with the radio model checked round by round.

    ``bad_rounds`` counts rounds whose deliveries are not what the model gives
    for that round's transmitters: a listener receives exactly when one
    neighbour transmits.  A collision is a listener with two or more
    transmitting neighbours.
    """
    adj: list[list[int]] = [[] for _ in range(tree.n)]
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    c = dict(rounds=0, nonsilent_rounds=0, transmissions=0, deliveries=0,
             collisions=0, bad_rounds=0, outputs=0)
    for line in transcript_text.splitlines():
        if line.startswith("OUT "):
            c["outputs"] += 1
            continue
        head, tpart, dpart = line.split(" ")
        c["rounds"] += 1
        txs = [int(x) for x in tpart[2:].split(",") if x]
        got = sorted(tuple(int(x) for x in d.split("<-")) for d in dpart[2:].split(",") if d)
        heard: dict[int, int] = {}
        sending = set(txs)
        for w in txs:
            for v in adj[w]:
                if v not in sending:
                    heard[v] = -1 if v in heard else w
        want = sorted((v, w) for v, w in heard.items() if w >= 0)
        c["bad_rounds"] += head != f"R{c['rounds']}" or got != want
        c["nonsilent_rounds"] += bool(txs)
        c["transmissions"] += len(txs)
        c["deliveries"] += len(got)
        c["collisions"] += len(heard) - len(want)
    c["node_rounds"] = tree.n * c["rounds"]
    return c


def run_digest(tree: Tree, art) -> tuple[dict, int, int]:
    text = art.transcript.to_text()
    counters = radio_counters(tree, text)
    digest = dict(
        row=art.report.csv_row(),
        transcript_sha=sha(text),
        bits_total=sum(len(labels.encode(s)) for s in art.structured.values()),
        **counters,
    )
    ok = art.report.ok and counters["bad_rounds"] == 0 and counters["outputs"] == tree.n
    return digest, 1, int(not ok)


def run_tree_op(family: str, tree: Tree, seed: int) -> Op:
    return Op(
        name=family,
        run=lambda: harness.run_tree(tree, family=family, seed=seed),
        digest=lambda art: run_digest(tree, art),
    )


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def relabel(tree: Tree, rng: random.Random) -> Tree:
    """The same shape with node ids shuffled by the seed."""
    perm = list(range(tree.n))
    rng.shuffle(perm)
    return Tree(tree.n, [(perm[u], perm[v]) for u, v in tree.edges])


def line(nodes: int, rng: random.Random) -> Tree:
    # random_tree with maximum degree 2 is the path on diameter + 1 nodes.
    return relabel(generators.random_tree(2, nodes - 1, 0), rng)


def two_hub_edges(a: int, b: int) -> list[tuple[int, int]]:
    edges = [(0, 1)]
    edges.extend((0, 2 + i) for i in range(a))
    edges.extend((1, 2 + a + i) for i in range(b))
    return edges


def batch_sweep(seed: int, workdir: Path) -> list[Op]:
    lo = seed * SWEEP_SEEDS_PER_SAMPLE + 1
    config = SWEEP_CONFIG.format(lo=lo, hi=lo + SWEEP_SEEDS_PER_SAMPLE - 1)

    def digest(result) -> tuple[dict, int, int]:
        csv_text, ok = result
        rows = csv_text.splitlines()[1:]
        failed = sum(not row.endswith(",1") for row in rows)
        return dict(csv_sha=sha(csv_text), rows=len(rows)), len(rows), failed or int(not ok)

    return [Op("sweep", lambda: harness.run_experiment(config), digest)]


def main_sparse(seed: int, workdir: Path) -> list[Op]:
    return [
        run_tree_op("random", generators.random_tree(*SPARSE_RANDOM, seed), seed),
        run_tree_op("degLB", generators.family_deg_lb(*SPARSE_DEG_LB, seed, 1)[0], seed),
    ]


def line_dense(seed: int, workdir: Path) -> list[Op]:
    return [run_tree_op("lines", line(LINE_NODES, _rng("line_dense", seed)), seed)]


def record_verify(seed: int, workdir: Path) -> list[Op]:
    rng = _rng("record_verify", seed)
    a, b = RV_HUB_LEAVES
    trees = {
        "d3": relabel(Tree(a + b + 2, two_hub_edges(a, b)), rng),
        "line": line(RV_LINE_NODES, rng),
        "main": generators.random_tree(*RV_RANDOM, seed),
    }
    ops = []
    for name, tree in trees.items():
        files = {k: workdir / f"{name}.{k}" for k in ("tree", "labels", "transcript", "outputs")}
        files["tree"].write_text(tree_to_text(tree))
        ops.append(round_trip_op(name, tree, files))
    return ops


def round_trip_op(name: str, tree: Tree, files: dict[str, Path]) -> Op:
    """label -> run -> verify through the command line front end."""
    f = {k: str(p) for k, p in files.items()}
    recorded = ["--labels", f["labels"], "--transcript", f["transcript"], "--outputs", f["outputs"]]
    argvs = [
        ["label", "--tree", f["tree"], "--out", f["labels"]],
        ["run", "--tree", f["tree"], *recorded],
        ["verify", "--tree", f["tree"], *recorded],
    ]

    def run():
        codes, printed = [], []
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(cli.main(argv))
            printed.append(buf.getvalue().splitlines())
        return codes, printed

    def digest(result) -> tuple[dict, int, int]:
        codes, printed = result
        texts = {k: files[k].read_text() if files[k].exists() else "" for k in files}
        counters = radio_counters(tree, texts["transcript"])
        out = dict(
            codes=codes,
            row=printed[1][-1] if printed[1] else "",
            verdict=printed[2][-1] if printed[2] else "",
            **{f"{k}_sha": sha(texts[k]) for k in ("labels", "transcript", "outputs")},
            **{f"{k}_bytes": len(texts[k].encode()) for k in ("labels", "transcript", "outputs")},
            **counters,
        )
        ok = (codes == [0, 0, 0] and out["verdict"] == "verify: pass"
              and counters["bad_rounds"] == 0 and counters["outputs"] == tree.n)
        return out, 1, int(not ok)

    return Op(name, run, digest)


WORKLOADS = {
    "batch_sweep": batch_sweep,
    "main_sparse": main_sparse,
    "line_dense": line_dense,
    "record_verify": record_verify,
}
