"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's canonical-form machinery so that
agreement between the two is meaningful.  history_of (the backward sweep
that brute_history checks) and extract_subtree are reference code that
only the tests call.
"""

from __future__ import annotations

from itertools import permutations

from radiotopo.engine import (
    Metrics,
    ProtocolViolation,
    RoundLimitExceeded,
    RoundRecord,
    RunFailed,
    Transcript,
    deliveries_of,
)
from radiotopo.trees import RootedTree, Tree

# Number of rooted trees on n unlabeled nodes, n = 0..8 (standard sequence).
ROOTED_TREE_COUNTS = [0, 1, 1, 2, 4, 9, 20, 48, 115]


def all_labeled_trees(n: int):
    """Every labeled tree on nodes 0..n-1, via Pruefer sequences."""
    if n == 1:
        yield Tree(1, [])
        return
    if n == 2:
        yield Tree(2, [(0, 1)])
        return

    def from_pruefer(seq):
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        edges = []
        ptr = 0
        leaf = -1
        used = list(degree)
        for x in seq:
            if leaf < 0:
                while used[ptr] != 1:
                    ptr += 1
                leaf = ptr
            edges.append((leaf, x))
            used[leaf] -= 1
            used[x] -= 1
            if used[x] == 1 and x < ptr:
                leaf = x
            else:
                leaf = -1
        rest = [v for v in range(n) if used[v] == 1]
        edges.append((rest[0], rest[1]))
        return Tree(n, edges)

    def sequences(length):
        if length == 0:
            yield ()
            return
        for head in range(n):
            for tail in sequences(length - 1):
                yield (head,) + tail

    for seq in sequences(n - 2):
        yield from_pruefer(seq)


def brute_rooted_isomorphic(t1: Tree, r1: int, t2: Tree, r2: int) -> bool:
    """Backtracking rooted-tree isomorphism with no canonical forms."""
    if t1.n != t2.n:
        return False

    def children(tree, root):
        parent = {root: None}
        order = [root]
        for u in order:
            for w in tree.adjacency[u]:
                if w not in parent:
                    parent[w] = u
                    order.append(w)
        kids = {u: [] for u in range(tree.n)}
        for u in order[1:]:
            kids[parent[u]].append(u)
        return kids

    k1 = children(t1, r1)
    k2 = children(t2, r2)

    def match(a, b) -> bool:
        ka, kb = k1[a], k2[b]
        if len(ka) != len(kb):
            return False
        if not ka:
            return True
        for perm in permutations(kb):
            if all(match(x, y) for x, y in zip(ka, perm)):
                return True
        return False

    return match(r1, r2)


def brute_placement_valid(t1: Tree, v1: int, t2: Tree, v2: int) -> bool:
    """Exhaustive bijection search for an isomorphism mapping v1 to v2."""
    if t1.n != t2.n:
        return False
    e2 = set(t2.edges)
    others1 = [u for u in range(t1.n) if u != v1]
    others2 = [u for u in range(t2.n) if u != v2]
    for perm in permutations(others2):
        mapping = {v1: v2}
        mapping.update(dict(zip(others1, perm)))
        if all((min(mapping[a], mapping[b]), max(mapping[a], mapping[b])) in e2 for a, b in t1.edges):
            return True
    return False


def history_of(transcript: Transcript, tree: Tree, target: int, tau: int) -> frozenset[int]:
    """Nodes whose transmissions can chain to target by round tau.

    A node u is included when deliveries (u1 <- u), (u2 <- u1), ... reach the
    target in strictly increasing rounds, all at most tau.  Computed by a
    backward sweep over rounds: latest_start[v] is the largest round t such
    that a chain from v to target can begin at round t.
    """
    latest_start: dict[int, float] = {target: float("inf")}
    for t in sorted((r for r in transcript.records if r <= tau), reverse=True):
        for rx, tx in transcript.records[t].deliveries:
            if latest_start.get(rx, 0) > t and latest_start.get(tx, 0) < t:
                latest_start[tx] = t
    return frozenset(latest_start)


def brute_history(transcript, tree: Tree, target: int, tau: int) -> frozenset:
    """Greedy earliest-round scheduling along the unique tree path."""
    reach = {target}
    for u in range(tree.n):
        if u == target:
            continue
        # Unique path u -> target.
        parent = {u: None}
        order = [u]
        for x in order:
            for w in tree.adjacency[x]:
                if w not in parent:
                    parent[w] = x
                    order.append(w)
        path = [target]
        while path[-1] != u:
            path.append(parent[path[-1]])
        path.reverse()  # u ... target
        t = 0
        ok = True
        for a, b in zip(path, path[1:]):
            nxt = None
            for round_no in range(t + 1, min(tau, transcript.rounds) + 1):
                rec = transcript.records.get(round_no)
                if rec is not None and (b, a) in rec.deliveries:
                    nxt = round_no
                    break
            if nxt is None:
                ok = False
                break
            t = nxt
        if ok and t <= tau:
            reach.add(u)
    return frozenset(reach)


def extract_subtree(rt: RootedTree, v: int) -> Tree:
    """Subtree at v as a standalone tree, relabeled in BFS order with root 0."""
    nodes = rt.subtree_nodes(v)
    index = {u: i for i, u in enumerate(nodes)}
    edges = [(index[u], index[c]) for u in nodes for c in rt.children[u]]
    return Tree(len(nodes), edges)


def all_longest_paths(tree: Tree):
    """Every maximum-length simple path, as a list of node sequences."""
    best = tree.diameter
    paths = []

    def walk(u, prev, acc):
        extended = False
        for w in tree.adjacency[u]:
            if w != prev:
                extended = True
                walk(w, u, acc + [w])
        if not extended and len(acc) - 1 == best:
            paths.append(acc)

    for v in range(tree.n):
        if tree.degree(v) == 1 or tree.n == 1:
            walk(v, None, [v])
    return paths


def polling_simulate(tree: Tree, programs: dict, max_rounds: int):
    """The engine as a polling loop: decide on every node in every round up
    to max_rounds, and a scan of every node still without output after each
    round.  Same contract and results as engine.simulate."""
    if set(programs) != set(range(tree.n)):
        raise ValueError("need exactly one program per node")
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    transcript = Transcript()
    pending = set(range(tree.n))
    for round_no in range(1, max_rounds + 1):
        payloads = {}
        try:
            for v in range(tree.n):
                msg = programs[v].decide(round_no)
                if msg is not None:
                    payloads[v] = msg
            if payloads:
                deliveries = deliveries_of(tree.adjacency, payloads)
                for v, w in deliveries:
                    programs[v].receive(round_no, payloads[w])
                transcript.records[round_no] = RoundRecord(tuple(sorted(payloads)), tuple(deliveries))
        except RunFailed as exc:
            exc.args = (f"node {v}, round {round_no}: {exc}",)
            raise
        except Exception as exc:
            raise ProtocolViolation(f"node {v}, round {round_no}: {exc!r}") from exc
        transcript.rounds = round_no
        for v in list(pending):
            if programs[v].output is not None:
                transcript.output_round[v] = round_no
                pending.discard(v)
        if not pending:
            break
    if pending:
        # decide popped every agenda round up to the budget; the rest lie past it.
        missing = sorted(pending)
        next_round = {
            v: min((r for r in programs[v].agenda if r > max_rounds), default=None)
            for v in missing[:RoundLimitExceeded.EXPLAINED]
        }
        raise RoundLimitExceeded(missing, tree.n, max_rounds, next_round)
    outputs = {v: programs[v].output for v in range(tree.n)}
    metrics = Metrics(
        completion_round=max(transcript.output_round.values()),
        total_transmissions=sum(len(rec.transmitters) for rec in transcript.records.values()),
    )
    return outputs, transcript, metrics
