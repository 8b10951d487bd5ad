"""Deterministic seeded tree generation: random constrained trees plus the
families used for adversarial measurements.

All randomness comes from a 64-bit split-mix generator so that every
implementation of these generators produces identical corpora.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .trees import Tree, path_tree, star_tree

_MASK = (1 << 64) - 1


class SplitMix:
    """splitmix64: tiny, fast, and fully specified."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]; modulo bias is irrelevant here."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]


class InfeasibleFamily(ValueError):
    """The requested parameters admit no tree in the family."""


def _path_edges(count: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(count)]


def _regular_bush(
    edges: list[tuple[int, int]], root: int, n: int, children: int, levels: int
) -> tuple[list[int], int]:
    """Hang levels full levels of the given number of children below root,
    numbering new nodes from n; the deepest level and the next free id."""
    frontier = [root]
    for _level in range(levels):
        nxt = []
        for parent in frontier:
            for _ in range(children):
                edges.append((parent, n))
                nxt.append(n)
                n += 1
        frontier = nxt
    return frontier, n


def random_tree(delta: int, diameter: int, seed: int) -> Tree:
    """Seeded tree with exactly the given diameter and maximum degree.

    A spine realizes the diameter; extra nodes are attached without pushing
    any node past the depth cap measured from the spine's middle, and one
    node is grown to the full degree.
    """
    if delta < 2 or diameter < 2:
        raise InfeasibleFamily("need maximum degree >= 2 and diameter >= 2")
    if delta == 2:
        return path_tree(diameter)
    rng = SplitMix((seed << 8) ^ (delta * 1315423911) ^ diameter)
    edges = _path_edges(diameter)
    if diameter % 2 == 0:
        hub = diameter // 2
        depth = [abs(i - hub) for i in range(diameter + 1)]
        cap = diameter // 2
    else:
        a = (diameter - 1) // 2
        depth = [a - i if i <= a else i - (a + 1) for i in range(diameter + 1)]
        cap = (diameter - 1) // 2
    degree = [1] * (diameter + 1)
    for i in range(1, diameter):
        degree[i] = 2
    n = diameter + 1

    def attach(parent: int) -> None:
        nonlocal n
        edges.append((parent, n))
        depth.append(depth[parent] + 1)
        degree.append(1)
        degree[parent] += 1
        n += 1

    growable = [v for v in range(n) if depth[v] < cap]
    target = rng.choice(growable)
    while degree[target] < delta:
        attach(target)
    for _ in range(rng.randint(0, 2 * diameter)):
        candidates = [v for v in range(n) if depth[v] < cap and degree[v] < delta]
        if not candidates:
            break
        attach(rng.choice(candidates))
    tree = Tree(n, edges)
    assert tree.max_degree == delta and tree.diameter == diameter
    return tree


def family_feasibility(delta: int) -> list[Tree]:
    """Double stars: hub 0 of full degree, hub 1 carrying i extra leaves for
    each i from floor(delta/2) to delta-1."""
    if delta < 3:
        raise InfeasibleFamily("need maximum degree >= 3")
    out = []
    for i in range(delta // 2, delta):
        edges = [(0, leaf) for leaf in range(1, delta + 1)]
        edges.extend((1, delta + j) for j in range(1, i + 1))
        out.append(Tree(1 + delta + i, edges))
    return out


def family_sticks(delta: int, diameter: int, seed: int, count: int) -> list[Tree]:
    """Regular skeleton of height floor(D/6) with a decorated path glued to
    every skeleton leaf; seeded leaf decorations, exact diameter."""
    if not (3 <= delta <= 8) or not (6 <= diameter <= 18):
        raise InfeasibleFamily("sticks family is desk-scale: 3<=delta<=8, 6<=diameter<=18")
    rng = SplitMix((seed << 8) ^ (delta * 2654435761) ^ diameter)
    even = diameter if diameter % 2 == 0 else diameter - 1
    height = even // 6
    glue_len = even // 2 - height
    out = []
    for _ in range(count):
        edges: list[tuple[int, int]] = []
        frontier, n = _regular_bush(edges, 0, 1, delta - 1, height)
        first_stick = True
        tip = None
        for leaf in frontier:
            spine = [leaf]
            for _ in range(glue_len):
                edges.append((spine[-1], n))
                spine.append(n)
                n += 1
            if first_stick and tip is None:
                tip = spine[-1]
            for idx, node in enumerate(spine[:-1]):
                budget = delta - 2
                extra = budget if (first_stick and idx == 0) else rng.randint(0, budget)
                for _ in range(extra):
                    edges.append((node, n))
                    n += 1
            first_stick = False
        if diameter % 2:
            edges.append((tip, n))
            n += 1
        tree = Tree(n, edges)
        assert tree.diameter == diameter and tree.max_degree == delta
        out.append(tree)
    return out


def family_diam_lb(diameter: int, delta: int, seed: int, count: int) -> list[Tree]:
    """Long-handle family: a line into a regular bush whose deepest leaves
    carry seeded decorations; diameter is exact, degree bound is delta."""
    if delta < 3 or diameter < 4:
        raise InfeasibleFamily("need delta >= 3 and diameter >= 4")
    even = diameter if diameter % 2 == 0 else diameter - 1
    half = even // 2
    if (delta - 1) ** (half - 1) > 4096:
        raise InfeasibleFamily("bush too large for desk scale")
    handle = max(1, (even + 10) // 16)  # < half, so the handle never dominates
    rng = SplitMix((seed << 8) ^ (delta * 40503) ^ diameter)
    out = []
    for _ in range(count):
        # Nodes 0..handle-1 are the handle line; the bush root follows it.
        edges = _path_edges(handle - 1)
        bush_root = handle
        edges.append((handle - 1, bush_root))
        frontier, n = _regular_bush(edges, bush_root, bush_root + 1, delta - 1, half - 1)
        # Tips below the first and the last level-1 node: their path crosses the bush root.
        tips = []
        for special in (frontier[0], frontier[-1]):
            edges.append((special, n))
            tips.append(n)
            n += 1
        for v in frontier[1:-1]:
            for _ in range(rng.randint(0, delta - 1)):
                edges.append((v, n))
                n += 1
        if diameter % 2:
            edges.append((tips[0], n))
            n += 1
        tree = Tree(n, edges)
        assert tree.diameter == diameter, (tree.diameter, diameter)
        assert tree.max_degree == delta
        out.append(tree)
    return out


def family_deg_lb(delta: int, diameter: int, seed: int, count: int) -> list[Tree]:
    """Star of decorated stars at the end of a line; every inner hub gets
    between floor(delta/2) and delta-1 seeded leaves."""
    if delta < 3 or diameter < 4:
        raise InfeasibleFamily("need delta >= 3 and diameter >= 4")
    if delta > 64:
        raise InfeasibleFamily("degree family is desk-scale: delta <= 64")
    rng = SplitMix((seed << 8) ^ (delta * 69069) ^ diameter)
    out = []
    for _ in range(count):
        line_len = diameter - 3
        edges = _path_edges(line_len)
        hub = line_len + 1
        edges.append((line_len, hub))
        n = hub + 1
        spokes = []
        for _ in range(delta - 1):
            edges.append((hub, n))
            spokes.append(n)
            n += 1
        for v in spokes:
            for _ in range(rng.randint(delta // 2, delta - 1)):
                edges.append((v, n))
                n += 1
        tree = Tree(n, edges)
        assert tree.diameter == diameter and tree.max_degree == delta
        out.append(tree)
    return out


def family_lines(diameter: int) -> list[Tree]:
    """Lines of every length from floor(D/2)+1 up to D."""
    if diameter < 2:
        raise InfeasibleFamily("need diameter >= 2")
    return [path_tree(k) for k in range(diameter // 2 + 1, diameter + 1)]


def family_stars(delta: int) -> list[Tree]:
    """Stars of every degree from floor(delta/2)+1 up to delta."""
    if delta < 3:
        raise InfeasibleFamily("need delta >= 3")
    return [star_tree(k) for k in range(delta // 2 + 1, delta + 1)]


@dataclass(frozen=True)
class GenSpec:
    family: str
    delta: int = 0
    diameter: int = 0
    seed: int = 0
    count: int = 1


@dataclass(frozen=True)
class Family:
    build: Callable[[GenSpec], list[Tree]]
    # The GenSpec fields a batch grid sweeps; the others keep their defaults.
    axes: tuple[str, ...]


_GRID = ("delta", "diameter", "seed")

# The one family table, read by the command line's choices, generate and the
# batch grid.  The builders are looked up by module name at call time.
FAMILY_TABLE = {
    "random": Family(
        lambda s: [random_tree(s.delta, s.diameter, s.seed + i) for i in range(s.count)],
        _GRID,
    ),
    "feas": Family(lambda s: family_feasibility(s.delta), ("delta",)),
    "diamLB": Family(lambda s: family_diam_lb(s.diameter, s.delta, s.seed, s.count), _GRID),
    "degLB": Family(lambda s: family_deg_lb(s.delta, s.diameter, s.seed, s.count), _GRID),
    "sticks": Family(lambda s: family_sticks(s.delta, s.diameter, s.seed, s.count), _GRID),
    "lines": Family(lambda s: family_lines(s.diameter), ("diameter",)),
    "stars": Family(lambda s: family_stars(s.delta), ("delta",)),
}
FAMILIES = tuple(FAMILY_TABLE)


def generate(spec: GenSpec) -> list[Tree]:
    family = FAMILY_TABLE.get(spec.family)
    if family is None:
        raise InfeasibleFamily(f"unknown family {spec.family!r}")
    return family.build(spec)
