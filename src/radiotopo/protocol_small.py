"""Labeling and programs for diameter-3 trees and for stars.

Both schemes spread the binary representation of a leaf count over a few
carrier leaves, in chunks of max(1, floor(log2 floor(log2 delta))) bits; the
carrier holding the final chunk is flagged so the decoding hub knows when the
stream is complete.  Once a hub knows the whole tree it sends it with the
place of its leaves, and every leaf adopts that pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import NodeProgram, ProtocolViolation
from .labels import LabelKind, StructuredLabel, field_value
from .scheme import bits_of, chunk, decode_shares
from .trees import Tree, star_tree

CARRIER_KINDS = frozenset({LabelKind.D3_LEAF, LabelKind.STAR_LEAF})


def chunk_len(delta: int) -> int:
    """max(1, floor(log2(log2(delta)))) via exact bit-length arithmetic."""
    return max(1, (delta.bit_length() - 1).bit_length() - 1)


@dataclass(frozen=True)
class CarrierLabel:
    """Label of a star or two-hub node.  A carrier holds one chunk of its
    hub's leaf count; the two-hub tree's non-root hub holds the binary of the
    root side's carrier count."""

    kind: LabelKind
    far_carriers: int = 0  # HubD3 only
    last: bool = False  # carriers only
    carrier_id: int = 0
    piece: str = ""

    def to_structured(self) -> StructuredLabel:
        if self.kind in CARRIER_KINDS:
            fields = ("1" if self.last else "0", bits_of(self.carrier_id), self.piece)
        elif self.kind is LabelKind.D3_HUB:
            fields = (bits_of(self.far_carriers),)
        else:
            fields = ()
        return StructuredLabel(kind=self.kind, fields=fields)

    @staticmethod
    def from_structured(label: StructuredLabel) -> "CarrierLabel":
        if label.kind in CARRIER_KINDS:
            flag, ident, piece = label.fields
            carrier_id = field_value(ident, "carrier-id")
            return CarrierLabel(kind=label.kind, last=flag == "1", carrier_id=carrier_id, piece=piece)
        if label.kind is LabelKind.D3_HUB:
            far_carriers = field_value(label.fields[0], "carrier-count")
            return CarrierLabel(kind=label.kind, far_carriers=far_carriers)
        return CarrierLabel(kind=label.kind)


def _carrier_labels(
    leaves: list[int], c: int, kind: LabelKind, null: CarrierLabel
) -> dict[int, CarrierLabel]:
    """Spread binary(len(leaves)) in c-bit chunks over the first leaves; the
    rest all hold the one null label."""
    pieces = chunk(bits_of(len(leaves)), c)
    labels = dict.fromkeys(leaves, null)
    for i, piece in pieces:
        labels[leaves[i - 1]] = CarrierLabel(kind=kind, last=i == len(pieces), carrier_id=i, piece=piece)
    return labels


def label_d3(tree: Tree) -> dict[int, CarrierLabel]:
    """Labels for a diameter-3 tree: two adjacent hubs, all else leaves."""
    if tree.diameter != 3:
        raise ValueError(f"diameter is {tree.diameter}, not 3")
    delta = tree.max_degree
    if delta < 3:
        raise ValueError("need maximum degree >= 3")
    root = tree.root  # the hub with more leaves, ties to the smaller id
    hub = next(w for w in tree.adjacency[root] if tree.degree(w) > 1)

    c = chunk_len(delta)
    root_leaves, hub_leaves = (
        sorted(w for w in tree.adjacency[x] if tree.degree(w) == 1) for x in (root, hub)
    )
    null = CarrierLabel(kind=LabelKind.D3_LEAF_NULL)
    labels = _carrier_labels(root_leaves, c, LabelKind.D3_LEAF, null)
    labels.update(_carrier_labels(hub_leaves, c, LabelKind.D3_LEAF, null))
    root_carriers = len(chunk(bits_of(len(root_leaves)), c))
    labels[root] = CarrierLabel(kind=LabelKind.D3_ROOT)
    labels[hub] = CarrierLabel(kind=LabelKind.D3_HUB, far_carriers=root_carriers)
    return labels


def label_star(tree: Tree, delta: Optional[int] = None) -> dict[int, CarrierLabel]:
    """Labels for a star of at most delta leaves; the leaf count is spread
    over the first carriers in chunks sized for the class bound delta, which
    defaults to the star's own leaf count (at least 3)."""
    k = tree.n - 1
    if delta is None:
        delta = max(3, k)
    if k < 1 or k > delta:
        raise ValueError(f"star with {k} leaves outside class bound {delta}")
    if delta < 3:
        raise ValueError("class bound must be at least 3")
    hub = tree.root
    if tree.degree(hub) != k:
        raise ValueError("not a star")
    labels = {hub: CarrierLabel(kind=LabelKind.STAR_CENTER)}
    leaves = sorted(v for v in range(tree.n) if v != hub)
    c = chunk_len(delta)
    null = CarrierLabel(kind=LabelKind.STAR_LEAF_NULL)
    labels.update(_carrier_labels(leaves, c, LabelKind.STAR_LEAF, null))
    return labels


def _d3_output_tree(root_leaves: int, hub_leaves: int) -> Tree:
    """Canonical output: root 0, hub 1, hub's leaves 2.., root's leaves after."""
    edges = [(0, 1)]
    edges.extend((1, 2 + i) for i in range(hub_leaves))
    edges.extend((0, 2 + hub_leaves + i) for i in range(root_leaves))
    return Tree(2 + root_leaves + hub_leaves, edges)


class LeafProgram(NodeProgram):
    """A carrier sends its label in the round of its id (null leaves have id
    0 and never send); every leaf adopts the (tree, place) its hub sends."""

    def __init__(self, label: CarrierLabel):
        super().__init__()
        self.label = label
        if label.carrier_id:
            self.send(label.carrier_id, ("carrier", label))

    def receive(self, round_no: int, message) -> None:
        if message[0] == "tree" and self.output is None:
            self.output = message[1:]


class HubProgram(NodeProgram):
    """A star center or two-hub node: it collects its carriers' chunks and
    sends what it has scheduled."""

    def __init__(self, label: CarrierLabel):
        super().__init__()
        self.label = label
        self.pieces: dict[int, str] = {}

    def collect(self, lab: CarrierLabel) -> Optional[int]:
        """File one carrier's chunk; the decoded leaf count once the last is in."""
        self.pieces[lab.carrier_id] = lab.piece
        return decode_shares(list(self.pieces.items())) if lab.last else None


class StarCenterProgram(HubProgram):
    def receive(self, round_no: int, message) -> None:
        if self.output is not None or message[0] != "carrier":
            return
        k = self.collect(message[1])
        if k is not None:
            self.output = (star_tree(k), 0)
            self.send(round_no + 1, ("tree", self.output[0], 1))


class D3HubProgram(HubProgram):
    def receive(self, round_no: int, message) -> None:
        if message[0] == "carrier":
            near = self.collect(message[1])
            if near is not None:
                # Speak once the root has heard its own last carrier as well.
                last_round = max(self.label.far_carriers, message[1].carrier_id)
                self.send(last_round + 1, ("count", near))
        elif message[0] == "tree" and self.output is None:
            tree = message[1]
            self.output = (tree, 1)
            self.send(round_no + 1, ("tree", tree, 2))


class D3RootProgram(HubProgram):
    near_total: Optional[int] = None

    def receive(self, round_no: int, message) -> None:
        if message[0] == "carrier":
            near = self.collect(message[1])
            if near is not None:
                self.near_total = near
        elif message[0] == "count" and self.output is None:
            if self.near_total is None:
                raise ProtocolViolation("the root has not decoded its own leaf count")
            hub_leaves = message[1]
            tree = _d3_output_tree(root_leaves=self.near_total, hub_leaves=hub_leaves)
            self.output = (tree, 0)
            self.send(round_no + 1, ("tree", tree, 2 + hub_leaves))


_HUB_PROGRAMS = {
    LabelKind.STAR_CENTER: StarCenterProgram,
    LabelKind.D3_HUB: D3HubProgram,
    LabelKind.D3_ROOT: D3RootProgram,
}


def carrier_programs(labels: dict[int, CarrierLabel]) -> dict[int, NodeProgram]:
    """Programs for a star or two-hub labeling: hubs by kind, all else leaves."""
    return {node: _HUB_PROGRAMS.get(lab.kind, LeafProgram)(lab) for node, lab in labels.items()}


d3_programs = star_programs = carrier_programs
