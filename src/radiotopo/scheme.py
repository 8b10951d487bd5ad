"""Label construction for the general tree-recognition scheme (degree >= 3, diameter >= 4).

Every node gets a seven-marker vector plus up to six short bit fields.  The
fields spread a handful of integers across small connected node groups so
that, at protocol time, each group can reassemble its integer by gossip:

  degree_share   chunk of binary(max degree) over the root's core group
  slot_share     chunk of binary(slot) over the core group of a heavy node
                 whose children are all light
  slot_echo      flag on the one heavy child that inherits its parent's slot
  shape_share    chunk of binary(shape index) over a whole light subtree
  count_share    chunk of binary(group size) over same-shape light siblings
  core_size_bits binary(core group size), present everywhere
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Optional

from .engine import MissingChunk
from .labels import LABEL_CACHE_SIZE, LabelKind, MalformedLabel, StructuredLabel
from .trees import (
    RootedTree,
    ShapeCatalog,
    Tree,
    classify_heavy,
    core_subtree,
    enumerate_rooted_trees,
    root_at,
)

MARK_ROOT = 0
MARK_DEEP_LEAF = 1
MARK_ROOT_CORE = 2
MARK_HEAVY = 3
MARK_LIGHT = 4
MARK_GOSSIP_CORE = 5
MARK_LIGHT_SUB = 6


class UnsupportedShape(ValueError):
    """The tree belongs to one of the small-parameter protocols instead."""


def bits_of(value: int, width: int = 0) -> str:
    s = format(value, "b")
    if width and len(s) < width:
        s = "0" * (width - len(s)) + s
    return s


def chunk(s: str, chunk_len: int) -> list[tuple[int, str]]:
    """Greedy split into 1-based indexed chunks; all but the last are full."""
    if not s:
        raise ValueError("cannot chunk an empty string")
    if chunk_len < 1:
        raise ValueError("chunk length must be positive")
    out = []
    for i in range(0, len(s), chunk_len):
        out.append((i // chunk_len + 1, s[i : i + chunk_len]))
    return out


def unchunk(pairs) -> str:
    """Inverse of chunk: concatenate by ascending index."""
    items = sorted(pairs)
    if [i for i, _ in items] != list(range(1, len(items) + 1)):
        raise ValueError(f"chunk indices not contiguous: {[i for i, _ in items]}")
    return "".join(b for _, b in items)


def decode_shares(pieces: list, expected: Optional[int] = None) -> int:
    """The integer a group's (index, chunk) shares spell in binary.

    A missing share (None), a count other than the expected one, indices that
    are not 1..k, or chunks that spell nothing raise MissingChunk.
    """
    if None in pieces or (expected is not None and len(pieces) != expected):
        raise MissingChunk(f"group produced {len(pieces)} shares, expected {expected}")
    try:
        bits = unchunk(pieces)
    except ValueError as exc:
        raise MissingChunk(str(exc)) from None
    if not bits:
        raise MissingChunk("the shares carry no bits")
    return int(bits, 2)


@dataclass(frozen=True)
class SchemeParams:
    """Constants every node can derive from the maximum degree alone."""

    delta: int
    core_size: int  # m: size of the spreading groups
    block_len: int  # E: half-epoch length; an epoch is 2*block_len rounds

    @cached_property
    def catalog(self) -> ShapeCatalog:
        """Shapes of size < core_size, q = len(catalog); built on first read."""
        return enumerate_rooted_trees(self.core_size - 1)


def core_size_for(delta: int) -> int:
    """m = ceil(bitlen(delta) / 4), the size of the spreading groups."""
    return -(-delta.bit_length() // 4)


@lru_cache(maxsize=64)
def derive_params(delta: int) -> SchemeParams:
    """The scheme's constants for maximum degree delta.  They depend on delta
    alone, so equal degrees share one SchemeParams and one catalog.  E = 2*delta
    covers the light senders' delta + q*m + 1: q <= 4^(m-1), delta >= 16^(m-1)."""
    if delta < 3:
        raise UnsupportedShape("scheme needs maximum degree >= 3")
    return SchemeParams(delta=delta, core_size=core_size_for(delta), block_len=2 * delta)


@dataclass(frozen=True)
class MainLabel:
    markers: tuple[int, ...]  # seven 0/1 flags
    degree_share: Optional[tuple[int, str]]  # (group id, chunk)
    slot_share: Optional[tuple[int, str]]
    slot_echo: bool
    shape_share: Optional[tuple[int, str]]  # chunk may be empty
    count_share: Optional[tuple[int, str]]
    core_size_bits: str

    def marker(self, i: int) -> bool:
        return bool(self.markers[i])

    @property
    def core_size(self) -> int:
        return int(self.core_size_bits, 2)

    def to_structured(self) -> StructuredLabel:
        def pair(p):
            return (bits_of(p[0]), p[1]) if p is not None else ("", "")

        d = pair(self.degree_share)
        s = pair(self.slot_share)
        z = pair(self.shape_share)
        c = pair(self.count_share)
        fields = (
            "".join(str(b) for b in self.markers),
            d[0], d[1],
            s[0], s[1],
            "1" if self.slot_echo else "",
            z[0], z[1],
            c[0], c[1],
            self.core_size_bits,
        )
        return StructuredLabel(kind=LabelKind.MAIN_SCHEME, fields=fields)

    @staticmethod
    def from_structured(label: StructuredLabel) -> "MainLabel":
        if label.kind is not LabelKind.MAIN_SCHEME:
            raise ValueError(f"not a main-scheme label: {label.kind}")
        f = label.fields
        if len(f[0]) != 7:
            raise MalformedLabel(f"main-scheme markers field {f[0]!r} is not seven bits")
        if not f[10]:
            raise MalformedLabel("main-scheme core-size field is empty")
        if not int(f[10], 2):
            raise MalformedLabel("main-scheme core size is zero")

        def pair(id_bits: str, chunk_bits: str):
            return (int(id_bits, 2), chunk_bits) if id_bits else None

        return MainLabel(
            markers=tuple(int(b) for b in f[0]),
            degree_share=pair(f[1], f[2]),
            slot_share=pair(f[3], f[4]),
            slot_echo=f[5] == "1",
            shape_share=pair(f[6], f[7]),
            count_share=pair(f[8], f[9]),
            core_size_bits=f[10],
        )


@lru_cache(maxsize=LABEL_CACHE_SIZE)
def _main_label(*fields) -> MainLabel:
    """One MainLabel per distinct field tuple, shared by every labeled tree
    in the process."""
    return MainLabel(*fields)


@dataclass
class GroundTruth:
    """Labeler-side values used only by verification, never by node programs."""

    root: int
    deep_leaf: int
    slots: dict[int, int]  # heavy non-root node -> transmission slot
    shapes: dict[int, int]  # light node with heavy parent -> catalog index
    heavy: frozenset[int]


def assign_slots(rt: RootedTree, heavy: frozenset[int]) -> dict[int, int]:
    """Transmission slots: siblings' slots are pairwise distinct, and the
    lowest-id heavy child always repeats its parent's slot."""
    slots: dict[int, int] = {}
    for order, v in enumerate(c for c in rt.children[rt.root] if c in heavy):
        slots[v] = order + 1
    for v in rt.bfs_order:
        if v == rt.root or v not in slots:
            continue
        kids = [c for c in rt.children[v] if c in heavy]
        if not kids:
            continue
        slots[kids[0]] = slots[v]
        spare = (x for x in range(1, len(kids) + 1) if x != slots[v])
        for c in kids[1:]:
            slots[c] = next(spare)
    return slots


@dataclass
class LabeledTree:
    tree: Tree
    rooted: RootedTree
    params: SchemeParams
    labels: dict[int, MainLabel]
    truth: GroundTruth


def label_tree(tree: Tree) -> LabeledTree:
    delta = tree.max_degree
    if delta < 3 or tree.diameter < 4:
        raise UnsupportedShape(
            f"degree {delta} / diameter {tree.diameter} belongs to a small-parameter protocol"
        )
    params = derive_params(delta)
    m = params.core_size
    rt = root_at(tree, tree.root)
    n = tree.n
    heavy = classify_heavy(rt, delta)
    slots = assign_slots(rt, heavy)
    deep_leaf = next(v for v in rt.bfs_order if rt.level[v] == rt.height)

    # The gossip groups, each walked once: the root's core, the core of each
    # heavy node whose children are all light, and each light subtree hanging
    # from a heavy node (BFS order, so a member's position is its share id).
    root_core = core_subtree(rt, rt.root, m)
    cores = {
        v: root_core if v == rt.root else core_subtree(rt, v, m)
        for v in range(n)
        if v in heavy and all(c not in heavy for c in rt.children[v])
    }
    light = {v: rt.subtree_nodes(v) for v in range(n) if v not in heavy and rt.parent[v] in heavy}
    shapes = {v: params.catalog.index_of_form(rt.form(v)) for v in light}

    markers = [[0] * 7 for _ in range(n)]
    for mark, nodes in (
        (MARK_ROOT, [rt.root]),
        (MARK_DEEP_LEAF, [deep_leaf]),
        (MARK_ROOT_CORE, root_core),
        (MARK_HEAVY, heavy),
        (MARK_LIGHT, (v for v in range(n) if v not in heavy)),
        (MARK_GOSSIP_CORE, chain.from_iterable(cores.values())),
        (MARK_LIGHT_SUB, chain.from_iterable(light.values())),
    ):
        for v in nodes:
            markers[v][mark] = 1

    # Max degree spread over the root's core group (bit length is exactly
    # bit_length(delta), so the greedy split yields exactly m chunks).
    degree_share = dict(zip(root_core, chunk(bits_of(delta), 4)))
    slot_share = {
        u: piece
        for v, group in cores.items()
        if v != rt.root
        for u, piece in zip(group, chunk(bits_of(slots[v], width=delta.bit_length()), 4))
    }
    # The heavy child that repeats its (non-root) parent's slot says so.
    slot_echo = {v for v, s in slots.items() if rt.parent[v] != rt.root and slots[rt.parent[v]] == s}
    shape_share: dict[int, tuple[int, str]] = {}
    for v, members in light.items():
        pieces = dict(chunk(bits_of(shapes[v]), 2))
        for pos, u in enumerate(members, start=1):
            shape_share[u] = (pos, pieces.get(pos, ""))
    # Same-shape light siblings spread their count; members ascend by id.
    siblings: dict[tuple[int, int], list[int]] = {}
    for v, shape_index in shapes.items():
        siblings.setdefault((rt.parent[v], shape_index), []).append(v)
    count_share = {
        u: piece
        for members in siblings.values()
        for u, piece in zip(members, chunk(bits_of(len(members)), 4))
    }

    core_bits = bits_of(m)
    labels = {
        v: _main_label(
            tuple(markers[v]),
            degree_share.get(v),
            slot_share.get(v),
            v in slot_echo,
            shape_share.get(v),
            count_share.get(v),
            core_bits,
        )
        for v in range(n)
    }
    truth = GroundTruth(root=rt.root, deep_leaf=deep_leaf, slots=slots, shapes=shapes, heavy=heavy)
    return LabeledTree(tree=tree, rooted=rt, params=params, labels=labels, truth=truth)
