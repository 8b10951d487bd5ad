"""Per-node programs for the general tree-recognition protocol.

Schedule, with m the core-group size, h the learned tree height and E the
half-epoch length derived from the learned maximum degree:

  rounds 1..m^2              root-core gossip; the root decodes the max degree
  m^2+1 .. m^2+3h            level wave down, height wave up, height flood down
  t0+1 .. t0+m^2             gossip inside slot-share core groups
  t0+m^2+1 .. t0+2m^2        gossip inside light subtrees
  t1+1 .. t1+2hE             bottom-up subtree collection in h epochs of 2E
  t1+2hE+1 ..                the root floods the assembled tree; everybody
                             appends its own subtree and places itself

with t0 = m^2+3h and t1 = t0+2m^2.  Every boundary is computable by every
node from its own label plus values learned strictly earlier.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .engine import NodeProgram
from .scheme import (
    MARK_DEEP_LEAF,
    MARK_GOSSIP_CORE,
    MARK_HEAVY,
    MARK_ROOT,
    MARK_ROOT_CORE,
    MainLabel,
    SchemeParams,
    derive_params,
    unchunk,
)
from .trees import RootedTree, Tree, root_at


class ProtocolViolation(RuntimeError):
    """A message arrived whose shape contradicts the protocol state."""


class MissingChunk(ProtocolViolation):
    """A share carrier's message never arrived; indicates a collision bug."""


@lru_cache(maxsize=4096)
def _rooted_view(tree: Tree) -> RootedTree:
    return root_at(tree, 0)


def rooted_form(tree: Tree) -> str:
    """Canonical form of a tree under its id-0 root (message convention)."""
    return _rooted_view(tree).form(0)


class GossipState:
    """Round-robin gossip inside a connected group of at most m members.

    Member i transmits in slot i of each of the m segments, first announcing
    itself and afterwards everything it has heard.  Hearing any member
    directly also reveals the connecting edge, so after m segments every
    member knows the group's labels and its full edge set.
    """

    def __init__(self, tag: str, my_id: int, my_label: MainLabel, m: int, window_start: int):
        self.tag = tag
        self.my_id = my_id
        self.m = m
        self.window_start = window_start
        self.labels: dict[int, MainLabel] = {my_id: my_label}
        self.edges: set[tuple[int, int]] = set()

    def decide(self, round_no: int) -> Optional[tuple]:
        offset = round_no - self.window_start
        if not (1 <= offset <= self.m * self.m):
            return None
        if (offset - 1) % self.m + 1 != self.my_id:
            return None
        return (
            "gossip",
            self.tag,
            self.my_id,
            tuple(sorted(self.labels.items())),
            tuple(sorted(self.edges)),
        )

    def absorb(self, message: tuple) -> None:
        _, _, sender, labels, edges = message
        self.labels.update(labels)
        self.edges.update(edges)
        self.edges.add((min(self.my_id, sender), max(self.my_id, sender)))


def group_tree_from_gossip(
    labels: dict[int, MainLabel], edges: set[tuple[int, int]]
) -> tuple[dict[int, Optional[int]], dict[int, tuple[int, ...]]]:
    """Parent and children maps of the gossiped group, rooted at id 1."""
    ids = sorted(labels)
    if ids != list(range(1, len(ids) + 1)):
        raise ProtocolViolation(f"gossip ids not contiguous: {ids}")
    adj: dict[int, list[int]] = {i: [] for i in ids}
    for a, b in edges:
        if a not in adj or b not in adj:
            raise ProtocolViolation(f"gossip edge {a, b} outside the group")
        adj[a].append(b)
        adj[b].append(a)
    parent: dict[int, Optional[int]] = {1: None}
    children: dict[int, tuple[int, ...]] = {}
    order = [1]
    seen = {1}
    idx = 0
    while idx < len(order):
        u = order[idx]
        idx += 1
        kids = []
        for w in sorted(adj[u]):
            if w not in seen:
                seen.add(w)
                parent[w] = u
                kids.append(w)
                order.append(w)
        children[u] = tuple(kids)
    if len(order) != len(ids):
        raise ProtocolViolation("gossiped group is not connected")
    return parent, children


def subtree_below(children: dict[int, tuple[int, ...]], top: int) -> Tree:
    """Tree hanging at a group member, relabeled in BFS order with root 0."""
    nodes = [top]
    idx = 0
    while idx < len(nodes):
        nodes.extend(children[nodes[idx]])
        idx += 1
    index = {u: i for i, u in enumerate(nodes)}
    edges = [(index[u], index[c]) for u in nodes for c in children[u]]
    return Tree(len(nodes), edges)


def attach_subtrees(parts: list[Tree]) -> Tree:
    """New root 0 with the given trees (all rooted at their id 0) below it."""
    n = 1 + sum(p.n for p in parts)
    edges = []
    offset = 1
    for p in parts:
        edges.append((0, offset))
        edges.extend((offset + a, offset + b) for a, b in p.edges)
        offset += p.n
    return Tree(n, edges)


def aggregate_children(received: list[tuple[MainLabel, Tree, int]]) -> Tree:
    """Rebuild a node's subtree from one epoch of children messages.

    Heavy children sent their own subtrees, attached verbatim.  Same-shape
    light children are counted through their group-size share chunks, and
    that many copies of the shape are attached.
    """
    heavy_parts: list[Tree] = []
    light_groups: dict[str, tuple[Tree, dict[int, str]]] = {}
    for label, tree, _count in received:
        if label.marker(MARK_HEAVY):
            heavy_parts.append(tree)
            continue
        if label.count_share is None:
            raise ProtocolViolation("light child transmitted without a count share")
        form = rooted_form(tree)
        entry = light_groups.setdefault(form, (tree, {}))
        idx, piece = label.count_share
        entry[1][idx] = piece
    parts = list(heavy_parts)
    for form in sorted(light_groups):
        tree, chunks = light_groups[form]
        try:
            count = int(unchunk(sorted(chunks.items())), 2)
        except ValueError as exc:
            raise MissingChunk(str(exc)) from exc
        parts.extend([tree] * count)
    return attach_subtrees(parts)


def place_self(tree: Tree, chain_forms: list[str]) -> int:
    """Walk the assembled tree from its root along matching subtree shapes."""
    rt = _rooted_view(tree)
    if rt.form(0) != chain_forms[0]:
        raise ProtocolViolation("assembled tree does not match the flooded root shape")
    cur = 0
    for want in chain_forms[1:]:
        for c in rt.children[cur]:
            if rt.form(c) == want:
                cur = c
                break
        else:
            raise ProtocolViolation("no child matches the next shape in the chain")
    return cur


def phase_windows(m: int, h: int, e: int) -> dict[str, tuple[int, int]]:
    """Inclusive round window of each phase, for core size m, height h and
    half-epoch length E; the last round of "assemble" is the round bound."""
    m2 = m * m
    t0 = m2 + 3 * h
    t1 = t0 + 2 * m2
    tr_end = t1 + 2 * h * e
    return {
        "core_gossip": (1, m2),
        "parameter": (m2 + 1, t0),
        "slot_gossip": (t0 + 1, t0 + m2),
        "shape_gossip": (t0 + m2 + 1, t1),
        "collect": (t1 + 1, tr_end),
        "assemble": (tr_end + 1, tr_end + h + 1),
    }


class MainProgram(NodeProgram):
    """State machine run by every node of a labeled tree."""

    def __init__(self, label: MainLabel):
        self.label = label
        self.m = label.core_size
        self.m2 = self.m * self.m
        self.is_root = label.marker(MARK_ROOT)
        self.output = None

        self.delta: Optional[int] = None
        self.params: Optional[SchemeParams] = None
        self.level: Optional[int] = 0 if self.is_root else None
        self.height: Optional[int] = None
        self.slot: Optional[int] = None
        self.shape_index: Optional[int] = None
        self.my_subtree: Optional[Tree] = None

        # Verification probes; never read by the protocol itself.
        self.round_delta: Optional[int] = None
        self.round_level: Optional[int] = 0 if self.is_root else None
        self.round_height: Optional[int] = None
        self.subtree_round: Optional[int] = None

        self.outbox: dict[int, tuple] = {}
        self.rr_core = (
            GossipState("core", label.degree_share[0], label, self.m, 0)
            if label.marker(MARK_ROOT_CORE)
            else None
        )
        self.rr_slot: Optional[GossipState] = None
        self.rr_shape: Optional[GossipState] = None
        self.rr_core_done = False
        self.rr_slot_done = False
        self.rr_shape_done = False
        self.tr_received: list[tuple[MainLabel, Tree, int]] = []
        self.tr_prepared = False
        self.tr_tx_round: Optional[int] = None
        self.tr_message: Optional[tuple] = None
        self.flood_seen = False
        self.is_heavy = label.marker(MARK_HEAVY)
        self.tr_transmits = self.is_heavy or label.count_share is not None
        # Round boundaries, filled in once both height and degree are known.
        self.t0 = 0
        self.t1 = 0
        self.tr_end = 0
        self.my_epoch_start = 0
        self.child_epoch = (0, -1)  # inclusive round window of children's epoch

    def _learn_height(self, height: int, round_no: int) -> None:
        if self.height is None:
            self.height = height
            self.round_height = round_no
        e = self.params.block_len
        windows = phase_windows(self.m, self.height, e)
        self.t0 = windows["parameter"][1]
        self.t1 = windows["shape_gossip"][1]
        self.tr_end = windows["collect"][1]
        # Epoch j of the collection runs from lo + (j-1)*2E; level l sends in epoch h-l+1.
        lo = windows["collect"][0]
        if self.level is not None and self.level >= 1 and self.tr_transmits:
            self.my_epoch_start = lo + (self.height - self.level) * 2 * e
        if self.level is not None and self.level < self.height:
            start = lo + (self.height - self.level - 1) * 2 * e
            self.child_epoch = (start, start + 2 * e - 1)

    def _relays_level_wave(self) -> bool:
        """Whether this node forwards the level wave one step down.

        Nodes whose labels prove them childless stay silent so the height
        wave can start unopposed; nodes provably internal must forward.  The
        test is exact whenever the core size is at most 3; in the rare
        undecidable case the node forwards, like the unrestricted rule.
        """
        lab = self.label
        if lab.marker(MARK_DEEP_LEAF):
            return False
        if self.m == 1:
            return not lab.marker(MARK_GOSSIP_CORE)
        if lab.marker(MARK_HEAVY):
            return True
        pos, piece = lab.shape_share
        if pos == 1:
            return piece != "1"
        if pos == self.m - 1:
            return False
        return True

    def _finalize_core(self) -> None:
        self.rr_core_done = True
        if not self.is_root:
            return
        pieces = []
        for member_label in self.rr_core.labels.values():
            if member_label.degree_share is None:
                raise ProtocolViolation("core member without a degree share")
            pieces.append(member_label.degree_share)
        if len(pieces) != self.m:
            raise MissingChunk(f"root heard {len(pieces)} of {self.m} degree shares")
        self._learn_delta(int(unchunk(pieces), 2), self.m2)

    def _learn_delta(self, delta: int, round_no: int) -> None:
        self.delta = delta
        self.params = derive_params(delta)
        self.round_delta = round_no

    def _finalize_slot_gossip(self) -> None:
        self.rr_slot_done = True
        if self.label.slot_share[0] != 1:
            return
        pieces = []
        for member_label in self.rr_slot.labels.values():
            pieces.append(member_label.slot_share)
        if len(pieces) != self.m:
            raise MissingChunk(f"slot group produced {len(pieces)} of {self.m} shares")
        self.slot = int(unchunk(pieces), 2)

    def _finalize_shape_gossip(self) -> None:
        self.rr_shape_done = True
        parent, children = group_tree_from_gossip(self.rr_shape.labels, self.rr_shape.edges)
        my_gid = self.label.shape_share[0]
        self.my_subtree = subtree_below(children, my_gid)
        if my_gid == 1:
            pieces = [lab.shape_share for lab in self.rr_shape.labels.values()]
            bits = unchunk(pieces)
            self.shape_index = int(bits, 2)

    def _prepare_transmission(self, epoch_start: int) -> None:
        self.tr_prepared = True
        e = self.params.block_len
        lab = self.label
        if lab.marker(MARK_HEAVY):
            self.my_subtree = aggregate_children(self.tr_received)
            self.subtree_round = epoch_start - 1
            if self.slot is None:
                echoes = [c for l, t, c in self.tr_received if l.marker(MARK_HEAVY) and l.slot_echo]
                if len(echoes) != 1:
                    raise ProtocolViolation(f"{len(echoes)} slot echoes among heavy children")
                self.slot = echoes[0]
            self.tr_tx_round = epoch_start - 1 + self.slot
            self.tr_message = ("subtree", lab, self.my_subtree, self.slot)
        elif lab.count_share is not None:
            shape = self.params.catalog.tree_at(self.shape_index)
            offset = e + (self.shape_index - 1) * self.m + lab.count_share[0]
            self.tr_tx_round = epoch_start - 1 + offset
            self.tr_message = ("subtree", lab, shape, 0)

    def decide(self, round_no: int):
        if self.output is not None and not self.outbox:
            return None

        if self.rr_core is not None:
            if round_no <= self.m2:
                return self.rr_core.decide(round_no)
            if not self.rr_core_done:
                self._finalize_core()

        if self.is_root and round_no == self.m2 + 1:
            return ("level_wave", self.delta)

        if self.outbox:
            scheduled = self.outbox.pop(round_no, None)
            if scheduled is not None:
                return scheduled

        if self.height is None:
            return None

        if self.label.slot_share is not None and not self.is_root:
            if self.t0 < round_no <= self.t0 + self.m2:
                if self.rr_slot is None:
                    self.rr_slot = GossipState(
                        "slot", self.label.slot_share[0], self.label, self.m, self.t0
                    )
                return self.rr_slot.decide(round_no)
            if round_no > self.t0 + self.m2 and self.rr_slot is not None and not self.rr_slot_done:
                self._finalize_slot_gossip()

        if self.label.shape_share is not None:
            if self.t0 + self.m2 < round_no <= self.t1:
                if self.rr_shape is None:
                    self.rr_shape = GossipState(
                        "shape", self.label.shape_share[0], self.label, self.m, self.t0 + self.m2
                    )
                return self.rr_shape.decide(round_no)
            if round_no > self.t1 and self.rr_shape is not None and not self.rr_shape_done:
                self._finalize_shape_gossip()

        if self.tr_transmits and not self.tr_prepared and round_no >= self.my_epoch_start > 0:
            self._prepare_transmission(self.my_epoch_start)
        if round_no == self.tr_tx_round:
            return self.tr_message

        if self.is_root and round_no == self.tr_end + 1:
            self.my_subtree = aggregate_children(self.tr_received)
            self.subtree_round = self.tr_end
            self.output = (self.my_subtree, 0)
            return ("assemble", (self.my_subtree,))

        return None

    def receive(self, round_no: int, message) -> None:
        if message is None:
            return
        tag = message[0]
        if tag == "gossip":
            which = message[1]
            if which == "core" and self.rr_core is not None and round_no <= self.m2:
                self.rr_core.absorb(message)
            elif which == "slot" and self.rr_slot is not None and not self.rr_slot_done:
                self.rr_slot.absorb(message)
            elif which == "shape" and self.rr_shape is not None and not self.rr_shape_done:
                self.rr_shape.absorb(message)
            return
        if tag == "level_wave":
            if self.level is None:
                self._learn_delta(message[1], round_no)
                self.level = round_no - self.m2
                self.round_level = round_no
                if self.label.marker(MARK_DEEP_LEAF):
                    self._learn_height(self.level, round_no)
                    self.outbox[round_no + 1] = ("height_wave", self.height, self.level)
                elif self._relays_level_wave():
                    self.outbox[round_no + 1] = ("level_wave", self.delta)
            return
        if tag == "height_wave":
            _, h_value, sender_level = message
            if self.level is not None and sender_level == self.level + 1:
                self._learn_height(h_value, round_no)
                if self.level >= 1:
                    self.outbox[round_no + 1] = ("height_wave", h_value, self.level)
                else:
                    self.outbox[round_no + 1] = ("height_flood", h_value)
                    self.flood_seen = True  # the originator never re-floods
            return
        if tag == "height_flood":
            if not self.flood_seen:
                self.flood_seen = True
                self._learn_height(message[1], round_no)
                if self.level is not None and self.level < self.height:
                    self.outbox[round_no + 1] = ("height_flood", message[1])
            return
        if tag == "subtree":
            if self.child_epoch[0] <= round_no <= self.child_epoch[1]:
                self.tr_received.append((message[1], message[2], message[3]))
            return
        if tag == "assemble":
            if self.output is not None or self.is_root:
                return
            if self.my_subtree is None:
                raise ProtocolViolation("assembly reached a node with no computed subtree")
            chain = message[1] + (self.my_subtree,)
            forms = [rooted_form(t) for t in chain]
            placed = place_self(chain[0], forms)
            self.output = (chain[0], placed)
            if self.level < self.height:
                self.outbox[round_no + 1] = ("assemble", chain)
            return


def main_programs(labels: dict[int, MainLabel]) -> dict[int, MainProgram]:
    return {v: MainProgram(lab) for v, lab in labels.items()}
