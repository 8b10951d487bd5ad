"""Undirected trees, rooted views, canonical forms, and shape catalogs.

All node ids are the contiguous range 0..n-1.  Canonical forms follow the
classic parenthesis encoding: a leaf is "01", an internal node is "0" followed
by its children's forms in ascending lexicographic order, closed by "1".  Two
rooted trees are isomorphic exactly when their forms are equal, and the form
of a k-node tree is exactly 2k bits long.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional


class TreeError(ValueError):
    """Raised for malformed tree inputs (cycles, disconnection, bad ids)."""


class NotInCatalog(KeyError):
    """Raised when a subtree shape is absent from a shape catalog."""


def _normalize_edges(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    seen = set()
    out = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise TreeError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise TreeError(f"self-loop at {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise TreeError(f"duplicate edge {key}")
        seen.add(key)
        out.append(key)
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class Tree:
    """An undirected tree on nodes 0..n-1, validated on construction."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise TreeError("tree needs at least one node")
        norm = _normalize_edges(n, edges)
        if len(norm) != n - 1:
            raise TreeError(f"expected {n - 1} edges, got {len(norm)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", norm)
        # n-1 edges and connectivity together rule out cycles.
        if len(self._component(0)) != n:
            raise TreeError("tree is not connected")

    def _component(self, start: int) -> set[int]:
        adj = self.adjacency
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def max_degree(self) -> int:
        return max(len(a) for a in self.adjacency)

    def distances_from(self, start: int) -> list[int]:
        dist = [-1] * self.n
        dist[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    @cached_property
    def diameter(self) -> int:
        if self.n == 1:
            return 0
        d0 = self.distances_from(0)
        far = d0.index(max(d0))
        d1 = self.distances_from(far)
        return max(d1)


@dataclass(frozen=True)
class CenterResult:
    """Middle of all longest paths: a node for even diameter, an edge for odd."""

    kind: str  # "node" or "edge"
    node: Optional[int] = None
    edge: Optional[tuple[int, int]] = None


def center(tree: Tree) -> CenterResult:
    """Peel leaves layer by layer until one node or one edge remains."""
    if tree.n == 1:
        return CenterResult(kind="node", node=0)
    deg = [tree.degree(v) for v in range(tree.n)]
    alive = tree.n
    layer = [v for v in range(tree.n) if deg[v] == 1]
    while alive > 2:
        nxt = []
        for v in layer:
            deg[v] = 0
            alive -= 1
            for w in tree.adjacency[v]:
                if deg[w] > 1:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
                elif deg[w] == 1:
                    # Adjacent leaf pair: only possible as the final two.
                    pass
        layer = nxt
    rest = sorted(v for v in range(tree.n) if deg[v] >= 1)
    if len(rest) == 1:
        return CenterResult(kind="node", node=rest[0])
    return CenterResult(kind="edge", edge=(rest[0], rest[1]))


@dataclass(frozen=True)
class RootedTree:
    """A tree with a distinguished root plus derived per-node structure."""

    tree: Tree
    root: int
    parent: tuple[Optional[int], ...]
    children: tuple[tuple[int, ...], ...]
    level: tuple[int, ...]
    subtree_size: tuple[int, ...]
    height: int
    bfs_order: tuple[int, ...]

    @cached_property
    def forms(self) -> tuple[str, ...]:
        """Canonical form of the subtree hanging at each node."""
        forms: list[str] = [""] * self.tree.n
        for v in reversed(self.bfs_order):
            kids = sorted(forms[c] for c in self.children[v])
            forms[v] = "0" + "".join(kids) + "1"
        return tuple(forms)

    def form(self, v: int) -> str:
        return self.forms[v]

    def subtree_nodes(self, v: int) -> list[int]:
        """Nodes of the subtree at v in BFS order (children ascending)."""
        out = [v]
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for c in self.children[u]:
                out.append(c)
                queue.append(c)
        return out

    def extract_subtree(self, v: int) -> Tree:
        """Subtree at v as a standalone tree, relabeled in BFS order with root 0."""
        nodes = self.subtree_nodes(v)
        index = {u: i for i, u in enumerate(nodes)}
        edges = [(index[u], index[c]) for u in nodes for c in self.children[u]]
        return Tree(len(nodes), edges)


def root_at(tree: Tree, root: int) -> RootedTree:
    if not (0 <= root < tree.n):
        raise TreeError(f"unknown root {root}")
    parent: list[Optional[int]] = [None] * tree.n
    children: list[tuple[int, ...]] = [()] * tree.n
    level = [0] * tree.n
    order = [root]
    queue = deque([root])
    seen = {root}
    while queue:
        u = queue.popleft()
        kids = []
        for w in tree.adjacency[u]:
            if w not in seen:
                seen.add(w)
                parent[w] = u
                level[w] = level[u] + 1
                kids.append(w)
                order.append(w)
                queue.append(w)
        children[u] = tuple(kids)
    size = [1] * tree.n
    for u in reversed(order):
        for c in children[u]:
            size[u] += size[c]
    return RootedTree(
        tree=tree,
        root=root,
        parent=tuple(parent),
        children=tuple(children),
        level=tuple(level),
        subtree_size=tuple(size),
        height=max(level),
        bfs_order=tuple(order),
    )


def placement_valid(tree: Tree, v: int, out_tree: Tree, out_v: int) -> bool:
    """True when some isomorphism of the two trees maps v to out_v."""
    if tree.n != out_tree.n:
        return False
    return root_at(tree, v).form(v) == root_at(out_tree, out_v).form(out_v)


class FormInterner:
    """Shared table mapping canonical shapes to small integers.

    Interning is exact (dict equality, no hashing shortcuts), so two ids are
    equal iff the rooted trees are isomorphic.
    """

    def __init__(self) -> None:
        self._table: dict[tuple[int, ...], int] = {}

    def intern(self, child_ids: list[int]) -> int:
        key = tuple(sorted(child_ids))
        got = self._table.get(key)
        if got is None:
            got = len(self._table)
            self._table[key] = got
        return got


def all_root_form_ids(tree: Tree, interner: FormInterner) -> list[int]:
    """For every v, the interned canonical id of the tree rooted at v.

    Rerooting trick: combine each node's downward forms with the form of the
    rest of the tree seen through its parent.
    """
    rt = root_at(tree, 0)
    down = [0] * tree.n
    for v in reversed(rt.bfs_order):
        down[v] = interner.intern([down[c] for c in rt.children[v]])
    up: list[Optional[int]] = [None] * tree.n
    for v in rt.bfs_order:
        kids = rt.children[v]
        kid_ids = [down[c] for c in kids]
        extra = [] if up[v] is None else [up[v]]
        for i, c in enumerate(kids):
            up[c] = interner.intern(kid_ids[:i] + kid_ids[i + 1 :] + extra)
    ids = [0] * tree.n
    for v in range(tree.n):
        parts = [down[c] for c in rt.children[v]]
        if up[v] is not None:
            parts.append(up[v])
        ids[v] = interner.intern(parts)
    return ids


def classify_heavy(rt: RootedTree, delta: int) -> frozenset[int]:
    """Nodes whose subtree holds at least a quarter of (floor(log2 delta)+1).

    Exact integer comparison: 4 * size >= bit_length(delta).
    """
    if delta < 3:
        raise ValueError("classification needs maximum degree >= 3")
    threshold = delta.bit_length()
    return frozenset(v for v in range(rt.tree.n) if 4 * rt.subtree_size[v] >= threshold)


def core_subtree(rt: RootedTree, v: int, m: int) -> list[int]:
    """First m nodes of the BFS order of the subtree at v; position is the 1-based id."""
    if rt.subtree_size[v] < m:
        raise TreeError(f"subtree at {v} has {rt.subtree_size[v]} nodes, need {m}")
    out = []
    queue = deque([v])
    while queue and len(out) < m:
        u = queue.popleft()
        out.append(u)
        for c in rt.children[u]:
            queue.append(c)
    return out


def parse_form(form: str) -> Tree:
    """Rebuild a tree (root 0, preorder ids) from its canonical form."""
    if not form or len(form) % 2:
        raise TreeError(f"bad canonical form {form!r}")
    stack: list[int] = []
    edges = []
    count = 0
    for ch in form:
        if ch == "0":
            node = count
            count += 1
            if stack:
                edges.append((stack[-1], node))
            stack.append(node)
        elif ch == "1":
            if not stack:
                raise TreeError(f"unbalanced canonical form {form!r}")
            stack.pop()
        else:
            raise TreeError(f"bad character in form {form!r}")
    if stack:
        raise TreeError(f"unbalanced canonical form {form!r}")
    return Tree(count, edges)


@dataclass(frozen=True)
class ShapeCatalog:
    """All rooted tree shapes of size 1..max_size, smallest first.

    Within one size, shapes are ordered by ascending canonical form, giving
    every implementation-independent consumer the same 1-based indexing.
    """

    max_size: int
    forms: tuple[str, ...]

    @cached_property
    def trees(self) -> tuple[Tree, ...]:
        return tuple(parse_form(f) for f in self.forms)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {f: i + 1 for i, f in enumerate(self.forms)}

    def __len__(self) -> int:
        return len(self.forms)

    def index_of_form(self, form: str) -> int:
        got = self._index.get(form)
        if got is None:
            raise NotInCatalog(form)
        return got

    def tree_at(self, index: int) -> Tree:
        return self.trees[index - 1]


def _forms_of_size(size: int, smaller: list[list[str]]) -> list[str]:
    # A rooted tree of this size is a root plus a multiset of smaller subtrees
    # whose sizes sum to size-1.
    pool: list[tuple[int, str]] = []
    for s, forms in enumerate(smaller):
        for f in forms:
            pool.append((s, f))
    results: set[str] = set()

    def extend(start: int, remaining: int, parts: list[str]) -> None:
        if remaining == 0:
            results.add("0" + "".join(sorted(parts)) + "1")
            return
        for idx in range(start, len(pool)):
            sz, f = pool[idx]
            if sz <= remaining:
                parts.append(f)
                extend(idx, remaining - sz, parts)
                parts.pop()

    extend(0, size - 1, [])
    return sorted(results)


def enumerate_rooted_trees(max_size: int) -> ShapeCatalog:
    """Deterministic catalog of all rooted shapes with 1..max_size nodes."""
    by_size: list[list[str]] = [[]]  # index 0 unused
    for size in range(1, max_size + 1):
        if size == 1:
            by_size.append(["01"])
        else:
            by_size.append(_forms_of_size(size, by_size))
    flat: list[str] = []
    for size in range(1, max_size + 1):
        flat.extend(by_size[size])
    return ShapeCatalog(max_size=max_size, forms=tuple(flat))


def index_in_sequence(catalog: ShapeCatalog, rt: RootedTree, v: int) -> int:
    """1-based catalog position of the shape of the subtree at v."""
    return catalog.index_of_form(rt.form(v))


def parse_tree_text(text: str) -> Tree:
    """Tree file format: first line "tree <n>", then n-1 lines "<u> <v>"."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TreeError("empty tree file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "tree":
        raise TreeError(f"bad header {lines[0]!r}")
    n = int(head[1])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise TreeError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Tree(n, edges)


def tree_to_text(tree: Tree) -> str:
    lines = [f"tree {tree.n}"]
    lines.extend(f"{u} {v}" for u, v in tree.edges)
    return "\n".join(lines) + "\n"
