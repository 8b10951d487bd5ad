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
    """An undirected tree on nodes 0..n-1, validated on construction.

    The constructor peels leaves layer by layer until one node or one edge
    remains: the `center`, the middle of all longest paths, one node for an
    even diameter and the two ends of the central edge, ascending, for an
    odd one.  The same walk gives `diameter` and `root`, the center or the
    central edge's end with the larger side, ties to the smaller id.  It is
    also recorded as the tree hung from its center: `peel_parent[v]` is the
    neighbour v was peeled towards (None for a center), and `peel_order`
    lists every node as peeled, leaves first and the center last, so each
    node comes after all the nodes peeled towards it.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise TreeError("tree needs at least one node")
        norm = _normalize_edges(n, edges)
        if len(norm) != n - 1:
            want = str(n - 1)  # quoted in part: a tree file's header may be thousands of digits
            raise TreeError(f"expected {want[:40]}{'...' if len(want) > 40 else ''} edges, got {len(norm)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", norm)
        adj = self.adjacency
        deg = [len(a) for a in adj]  # -1 once peeled
        side = [1] * n  # v and the nodes peeled off through v
        parent: list[Optional[int]] = [None] * n
        order: list[int] = []
        # Leaves read off adj, so the ints peel_order keeps are adjacency's own.
        layer = [v for a in adj for v in a if deg[v] == 1]
        layers = 0
        while n - len(order) > 2:
            # With n-1 edges, no leaf among three or more nodes means a cycle.
            if not layer:
                raise TreeError("tree is not connected")
            nxt = []
            for v in layer:
                deg[v] = -1
                order.append(v)
                for w in adj[v]:
                    if deg[w] > 0:  # 1 only for a lone center, reached by the last leaf of its layer
                        parent[v] = w
                        side[w] += side[v]
                        deg[w] -= 1
                        if deg[w] == 1:
                            nxt.append(w)
            layer = nxt
            layers += 1
        center = tuple(sorted(layer)) or (0,)
        order.extend(center)
        root = center[1] if len(center) == 2 and side[center[1]] > side[center[0]] else center[0]
        object.__setattr__(self, "peel_parent", tuple(parent))
        object.__setattr__(self, "peel_order", tuple(order))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "diameter", 2 * layers + len(center) - 1)
        object.__setattr__(self, "root", root)

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


def join_forms(forms: Iterable[str]) -> str:
    """Canonical form of a root whose children's subtrees have these forms."""
    return "0" + "".join(sorted(forms)) + "1"


def path_tree(k: int) -> Tree:
    """The line of k edges, nodes 0..k in path order."""
    return Tree(k + 1, [(i, i + 1) for i in range(k)])


def star_tree(k: int) -> Tree:
    """Hub 0 with leaves 1..k."""
    return Tree(k + 1, [(0, i) for i in range(1, k + 1)])


@dataclass(frozen=True)
class RootedTree:
    """A tree with a distinguished root plus derived per-node structure."""

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
        forms: list[str] = [""] * len(self.parent)
        for v in reversed(self.bfs_order):
            forms[v] = join_forms(forms[c] for c in self.children[v])
        return tuple(forms)

    def form(self, v: int) -> str:
        return self.forms[v]

    def subtree_nodes(self, v: int) -> list[int]:
        """Nodes of the subtree at v in BFS order (children ascending)."""
        out = [v]
        for u in out:
            out.extend(self.children[u])
        return out


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
        root=root,
        parent=tuple(parent),
        children=tuple(children),
        level=tuple(level),
        subtree_size=tuple(size),
        height=max(level),
        bfs_order=tuple(order),
    )


class OrbitInterner:
    """Shared tables giving every node of a tree an automorphism-orbit id.

    A tree is hung from its center by its leaf peel.  Down-ids are AHU ids,
    one per sorted tuple of child down-ids; a node's sig is interned from its
    parent's sig and its own down-id, so it names the shapes on the path from
    the center.
    Isomorphisms map center to center, so with ids from one interner some
    isomorphism of tree A onto tree B maps v to w exactly when the center
    keys are equal and sig(v) == sig(w).  Interning is exact (dict equality).
    """

    def __init__(self) -> None:
        self._down: dict[tuple[int, ...], int] = {}
        self._sig: dict[tuple[int, int], int] = {}

    def orbit_ids(self, tree: Tree) -> tuple[tuple[int, ...], list[int]]:
        """The tree's center key and the sig of every node, in O(n log degree)."""
        adj, parent = tree.adjacency, tree.peel_parent
        down = [0] * tree.n
        for v in tree.peel_order:
            kids = [down[k] for k in adj[v] if parent[k] == v]
            kids.sort()
            down[v] = self._down.setdefault(tuple(kids), len(self._down))
        sig = [0] * tree.n
        for v in reversed(tree.peel_order):
            up = parent[v]
            sig[v] = self._sig.setdefault((-1 if up is None else sig[up], down[v]), len(self._sig))
        return tuple(sorted(down[r] for r in tree.center)), sig


def classify_heavy(rt: RootedTree, delta: int) -> frozenset[int]:
    """Nodes whose subtree holds at least a quarter of (floor(log2 delta)+1).

    Exact integer comparison: 4 * size >= bit_length(delta).
    """
    if delta < 3:
        raise ValueError("classification needs maximum degree >= 3")
    threshold = delta.bit_length()
    return frozenset(v for v in range(len(rt.parent)) if 4 * rt.subtree_size[v] >= threshold)


def core_subtree(rt: RootedTree, v: int, m: int) -> list[int]:
    """First m >= 1 nodes of the subtree at v in BFS order, walked no further;
    position is the 1-based id."""
    if rt.subtree_size[v] < m:
        raise TreeError(f"subtree at {v} has {rt.subtree_size[v]} nodes, need {m}")
    out = [v]
    for u in out:  # once out holds m nodes, every slice is empty
        out.extend(rt.children[u][:m - len(out)])
    return out


def parse_form(form: str) -> Tree:
    """Rebuild a tree from a parenthesis string, such as a canonical form:
    root 0, then the nodes in preorder, children in the string's order."""
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
    """All rooted tree shapes up to one size, smallest first.

    Within one size, shapes are ordered by ascending canonical form, giving
    every implementation-independent consumer the same 1-based indexing.
    """

    forms: tuple[str, ...]

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
            results.add(join_forms(parts))
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
    return ShapeCatalog(forms=tuple(flat))


def parse_tree_text(text: str) -> Tree:
    """Tree file format: first line "tree <n>", then n-1 lines "<u> <v>"."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TreeError("empty tree file")
    head = lines[0].split()
    try:
        if len(head) != 2 or head[0] != "tree" or not head[1].isdecimal():
            raise ValueError
        n = int(head[1])  # may exceed the interpreter's digit limit
    except ValueError:
        raise TreeError(f"bad header {lines[0][:40]!r}") from None
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise TreeError(f"bad edge line {ln[:40]!r}") from None
        edges.append((u, v))
    return Tree(n, edges)


def tree_to_text(tree: Tree) -> str:
    lines = [f"tree {tree.n}"]
    lines.extend(f"{u} {v}" for u, v in tree.edges)
    return "\n".join(lines) + "\n"
