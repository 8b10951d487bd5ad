"""Per-node programs for the general tree-recognition protocol.

The schedule is phase_windows(m, h, E), with m the core-group size, h the
learned tree height and E the half-epoch length derived from the learned
maximum degree; a node puts each step on its agenda at a round read from it:

  core_gossip    root-core gossip; the root decodes the max degree
  parameter      level wave down, height wave up, height flood down
  slot_gossip    gossip inside slot-share core groups
  shape_gossip   gossip inside light subtrees
  collect        bottom-up subtree collection in h epochs of 2E
  assemble       the root floods the assembled tree; each node places itself
                 at the child of its parent's place whose shape is its own
                 subtree, and forwards

The core window and the start of "parameter" depend on m alone, which every
label carries; a node knows the rest once it has learned h and E, strictly
before it needs them.

Facts that depend on values alone are shared through bounded process-wide
tables, like derive_params: phase_windows computes each (m, h, E) schedule
once, and group_forms roots each gossiped group shape once, so every member
of every run reads the same read-only result.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .engine import MissingChunk, NodeProgram, ProtocolViolation, transmit
from .scheme import (
    MARK_DEEP_LEAF,
    MARK_GOSSIP_CORE,
    MARK_HEAVY,
    MARK_ROOT,
    MainLabel,
    SchemeParams,
    core_size_for,
    decode_shares,
    derive_params,
)
from .trees import RootedTree, Tree, TreeError, join_forms, parse_form, root_at


class Subtree(NamedTuple):
    """A rooted subtree as the collection sends it: layout lists each node's
    children in attachment order, so parse_form(layout) numbers the nodes as
    the joins placed them; form is the canonical form."""

    layout: str
    form: str


def rooted_form(subtree: Subtree) -> str:
    """Canonical form of a subtree (message convention)."""
    return subtree.form


class GossipState:
    """What one member of a round-robin gossip group knows: the labels and
    edges heard so far.  MainProgram._join fixes its slots; in each it sends
    message(), first announcing itself and afterwards everything it has
    heard.  Hearing any member directly also reveals the connecting edge,
    so after m segments of m slots every member knows the group's labels
    and its full edge set.  The message is sorted once per change: absorb
    drops it only when it changes a label or adds an edge."""

    def __init__(self, tag: str, my_id: int, my_label: MainLabel):
        self.tag = tag
        self.my_id = my_id
        self.labels: dict[int, MainLabel] = {my_id: my_label}
        self.edges: set[tuple[int, int]] = set()
        self._message: Optional[tuple] = None

    def message(self) -> tuple:
        if self._message is None:
            labels, edges = tuple(sorted(self.labels.items())), tuple(sorted(self.edges))
            self._message = ("gossip", self.tag, self.my_id, labels, edges)
        return self._message

    def absorb(self, message: tuple) -> None:
        _, _, sender, labels, edges = message
        known = self.labels
        changed = False
        for gid, lab in labels:
            # Contradicting labels may give one id a second label, which replaces the first.
            if known.get(gid) is not lab:
                known[gid] = lab
                changed = True
        size = len(self.edges)
        self.edges.update(edges)
        self.edges.add((min(self.my_id, sender), max(self.my_id, sender)))
        if changed or len(self.edges) != size:
            self._message = None


@lru_cache(maxsize=1024)
def group_forms(size: int, edges: tuple[tuple[int, int], ...]) -> tuple[str, ...]:
    """Canonical form of each member's subtree, by id - 1, of a group with
    ids 1..size rooted at id 1.  A group that is not a tree raises and, like
    any raising call of the table, stores nothing."""
    try:
        group = Tree(size, [(a - 1, b - 1) for a, b in edges])
    except TreeError as exc:
        raise ProtocolViolation(f"gossiped group is not a tree: {exc}") from None
    return root_at(group, 0).forms


def gossip_subtree(labels: dict[int, MainLabel], edges: set[tuple[int, int]], my_gid: int) -> Subtree:
    """Subtree of the gossiped group hanging at member my_gid, with the group
    rooted at id 1; its layout is its canonical form."""
    ids = sorted(labels)
    if ids != list(range(1, len(ids) + 1)):
        raise ProtocolViolation(f"gossip ids not contiguous: {ids}")
    form = group_forms(len(ids), tuple(sorted(edges)))[my_gid - 1]
    return Subtree(form, form)


def attach_subtrees(parts: list[Subtree]) -> Subtree:
    """A new root with the given subtrees below it, in order."""
    return Subtree(
        "0" + "".join(p.layout for p in parts) + "1",
        join_forms(p.form for p in parts),
    )


def aggregate_children(
    received: list[tuple[MainLabel, Subtree, int]], max_children: int
) -> Subtree:
    """Rebuild a node's subtree from one epoch of children messages.

    Heavy children sent their own subtrees, attached verbatim.  Same-shape
    light children are counted through their group-size share chunks, and
    that many copies of the shape are attached; counts that spell more than
    max_children children in all fail the run before any copy is made.
    """
    parts: list[Subtree] = []
    light_groups: dict[str, tuple[Subtree, dict[int, str]]] = {}
    for label, part, _count in received:
        if label.marker(MARK_HEAVY):
            parts.append(part)
            continue
        entry = light_groups.setdefault(part.form, (part, {}))
        idx, piece = label.count_share
        entry[1][idx] = piece
    for form in sorted(light_groups):
        part, chunks = light_groups[form]
        count = decode_shares(list(chunks.items()))
        if len(parts) + count > max_children:
            raise ProtocolViolation(f"count shares spell more than {max_children} children")
        parts.extend([part] * count)
    return attach_subtrees(parts)


def child_place(rt: RootedTree, parent_place: int, form: str) -> int:
    """The first child of parent_place whose subtree has the given shape."""
    for c in rt.children[parent_place]:
        if rt.form(c) == form:
            return c
    raise ProtocolViolation("no child of the parent's place has this node's shape")


@lru_cache(maxsize=256)
def phase_windows(m: int, h: int, e: int) -> dict[str, tuple[int, int]]:
    """Inclusive round window of each phase, for core size m, height h and
    half-epoch length E; the last round of "assemble" is the round bound.
    Equal arguments share one dict, which no caller changes."""
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
        super().__init__()
        self.label = label
        self.m = label.core_size
        self.is_root = label.marker(MARK_ROOT)
        # The core window and the start of "parameter" do not depend on h or
        # E; the full schedule replaces this once the height is known.
        self.windows = phase_windows(self.m, 0, 0)

        self.delta: Optional[int] = None
        self.params: Optional[SchemeParams] = None
        self.level: Optional[int] = 0 if self.is_root else None
        self.height: Optional[int] = None
        self.slot: Optional[int] = None
        self.shape_index: Optional[int] = None
        self.my_subtree: Optional[Subtree] = None

        # Verification probes; never read by the protocol itself.
        self.round_delta: Optional[int] = None
        self.round_level: Optional[int] = 0 if self.is_root else None
        self.round_height: Optional[int] = None

        # The gossip groups this node is in, by tag, until each is decoded.
        self.gossip: dict[str, GossipState] = {}
        self._join("core", label.degree_share, 0)
        if self.is_root:  # after the core decode, which lands in the same round
            self.at(self.windows["parameter"][0], self._start_level_wave)
        self.tr_received: list[tuple[MainLabel, Subtree, int]] = []
        self.flood_seen = False
        self.tr_transmits = label.marker(MARK_HEAVY) or label.count_share is not None
        self.child_epoch = (0, -1)  # inclusive round window of children's epoch

    def _join(self, tag: str, share: Optional[tuple[int, str]], round_no: int) -> None:
        """Enter the gossip group of a phase when the label holds its share i:
        speak in round i of each of the window's m segments of m rounds (never
        for i outside 1..m) and decode the group after the window."""
        if share is None:
            return
        lo, hi = self.windows[tag + "_gossip"]
        group = self.gossip[tag] = GossipState(tag, share[0], self.label)
        if 1 <= group.my_id <= self.m:
            first = lo - 1 + group.my_id  # the node's first slot after now
            if first <= round_no:
                first += ((round_no - first) // self.m + 1) * self.m
            if first <= hi:
                self.at(first, self._slot, group, hi)
        # A window that contradicting labels put in the past decodes in the next round.
        self.at(max(hi + 1, round_no + 1), self._finish_gossip, tag)

    def _slot(self, round_no: int, group: GossipState, hi: int) -> tuple:
        """Speak in a gossip slot.  Each slot queues the next one up to the
        window's last round hi, so a wide window costs only the slots the
        run reaches."""
        if round_no + self.m <= hi:
            self.at(round_no + self.m, self._slot, group, hi)
        return group.message()

    def _learn_height(self, height: int, round_no: int) -> None:
        if self.height is not None:
            return
        if self.level is not None and height < self.level:
            raise ProtocolViolation(f"learned height {height} below its own level {self.level}")
        if self.params is None:
            raise ProtocolViolation("learned the height before the maximum degree")
        self.height = height
        self.round_height = round_no
        e = self.params.block_len
        self.windows = phase_windows(self.m, height, e)
        self._join("slot", self.label.slot_share, round_no)
        self._join("shape", self.label.shape_share, round_no)
        # Epoch j of the collection runs from lo + (j-1)*2E; level l sends in
        # epoch h-l+1, and its children in the epoch before.
        if self.level is not None:
            epoch = self.windows["collect"][0] + (height - self.level) * 2 * e
            if self.level >= 1 and self.tr_transmits:
                self.at(max(epoch, round_no + 1), self._send_subtree, epoch)
            if self.level < height:
                self.child_epoch = (epoch - 2 * e, epoch - 1)
        if self.is_root:
            self.at(self.windows["assemble"][0], self._assemble)

    def _relays_level_wave(self) -> bool:
        """Whether this node, not the deep leaf, forwards the level wave one step down.

        Nodes whose labels prove them childless stay silent so the height
        wave can start unopposed; nodes provably internal must forward.  The
        test is exact whenever the core size is at most 3; in the rare
        undecidable case the node forwards, like the unrestricted rule.
        """
        lab = self.label
        if self.m == 1:
            return not lab.marker(MARK_GOSSIP_CORE)
        if lab.marker(MARK_HEAVY):
            return True
        if lab.shape_share is None:
            raise ProtocolViolation("light node has no shape share")
        pos, piece = lab.shape_share
        if pos == 1:
            return piece != "1"
        if pos == self.m - 1:
            return False
        return True

    def _learn_delta(self, delta: int, round_no: int) -> None:
        self.delta = delta
        self.params = derive_params(delta)
        self.round_delta = round_no

    def _start_level_wave(self, round_no: int) -> tuple:
        if self.delta is None:
            raise MissingChunk("the root reached the level wave without a decoded degree")
        return ("level_wave", self.delta)

    def _finish_gossip(self, round_no: int, tag: str) -> None:
        """Decode what a group spread, once its window has passed."""
        group = self.gossip.pop(tag)
        labels = group.labels.values()
        if tag == "core":
            if self.is_root:
                delta = decode_shares([lab.degree_share for lab in labels], self.m)
                # The scheme's own bounds, checked before derive_params lists
                # a shape catalog for the degree; every other node learns the
                # degree from the root's level wave.
                if delta < 3:
                    raise ProtocolViolation(f"degree {delta} is below the scheme's minimum of 3")
                if core_size_for(delta) != self.m:
                    raise ProtocolViolation(f"degree {delta} does not fit core size {self.m}")
                self._learn_delta(delta, self.windows["core_gossip"][1])
        elif tag == "slot":
            if group.my_id == 1:
                self.slot = decode_shares([lab.slot_share for lab in labels], self.m)
        else:
            self.my_subtree = gossip_subtree(group.labels, group.edges, group.my_id)
            if group.my_id == 1:
                self.shape_index = decode_shares([lab.shape_share for lab in labels])

    def _send_subtree(self, round_no: int, epoch_start: int) -> Optional[tuple]:
        """Collection step at the node's epoch start: send now or schedule it."""
        lab = self.label
        if lab.marker(MARK_HEAVY):
            self.my_subtree = aggregate_children(self.tr_received, self.delta)
            if self.slot is None:
                echoes = [c for l, t, c in self.tr_received if l.marker(MARK_HEAVY) and l.slot_echo]
                if len(echoes) != 1:
                    raise ProtocolViolation(f"{len(echoes)} slot echoes among heavy children")
                self.slot = echoes[0]
            tx_round = epoch_start - 1 + self.slot
            step, args = transmit, (("subtree", lab, self.my_subtree, self.slot),)
        else:
            if self.shape_index is None:
                raise ProtocolViolation("light sender has no decoded shape index")
            if self.shape_index < 1:
                raise ProtocolViolation(f"shape index {self.shape_index} outside the catalog")
            offset = self.params.block_len + (self.shape_index - 1) * self.m + lab.count_share[0]
            tx_round = epoch_start - 1 + offset
            step, args = self._send_shape, ()
        if tx_round == round_no:
            return step(round_no, *args)
        self.at(tx_round, step, *args)

    def _send_shape(self, round_no: int) -> tuple:
        """A light sender's message; the catalog is read only in the round it is sent."""
        forms = self.params.catalog.forms
        if self.shape_index > len(forms):
            raise ProtocolViolation(f"shape index {self.shape_index} outside the catalog")
        shape = forms[self.shape_index - 1]
        return ("subtree", self.label, Subtree(shape, shape), 0)

    def _assemble(self, round_no: int) -> tuple:
        self.my_subtree = aggregate_children(self.tr_received, self.delta)
        tree = parse_form(self.my_subtree.layout)
        self.output = (tree, 0)
        return ("assemble", tree, root_at(tree, 0), 0)

    def receive(self, round_no: int, message) -> None:
        tag = message[0]
        if tag == "gossip":
            group = self.gossip.get(message[1])
            if group is not None:
                group.absorb(message)
            return
        if tag == "level_wave":
            if self.level is None:
                self._learn_delta(message[1], round_no)
                self.level = round_no - self.windows["parameter"][0] + 1
                if self.level < 1:
                    raise ProtocolViolation("heard the level wave before its parameter window")
                self.round_level = round_no
                if self.label.marker(MARK_DEEP_LEAF):
                    self._learn_height(self.level, round_no)
                    self.send(round_no + 1, ("height_wave", self.height, self.level))
                elif self._relays_level_wave():
                    self.send(round_no + 1, ("level_wave", self.delta))
            return
        if tag == "height_wave":
            _, h_value, sender_level = message
            if self.level is not None and sender_level == self.level + 1:
                self._learn_height(h_value, round_no)
                if self.level >= 1:
                    self.send(round_no + 1, ("height_wave", h_value, self.level))
                else:
                    self.send(round_no + 1, ("height_flood", h_value))
                    self.flood_seen = True  # the originator never re-floods
            return
        if tag == "height_flood":
            if not self.flood_seen:
                self.flood_seen = True
                self._learn_height(message[1], round_no)
                if self.level is not None and self.level < self.height:
                    self.send(round_no + 1, ("height_flood", message[1]))
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
            _, tree, rt, parent_place = message
            place = child_place(rt, parent_place, self.my_subtree.form)
            self.output = (tree, place)
            if self.level < self.height:
                self.send(round_no + 1, ("assemble", tree, rt, place))
            return


def main_programs(labels: dict[int, MainLabel]) -> dict[int, MainProgram]:
    return {v: MainProgram(lab) for v, lab in labels.items()}
