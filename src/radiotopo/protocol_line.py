"""Constant-size labeling and programs for lines (maximum degree 2).

A line of k edges is cut into segments of stride L = 3 + floor(log2 k).  In
each complete segment a starter node launches a forward wave that collects
one bit of k and one bit of the segment number from every inner node; the
segment's boundary node decodes both and answers with a backward wave that
tells everyone (k, segment).  Every transmission happens in a round congruent
to the transmitter's position mod 3, so simultaneous transmitters are at
least three apart and no listener ever faces two transmitting neighbors.

The wave moves one position per round, so one rule places a node: if segment
j's starter probes in round s and the node first hears the wave in round t,
the node sits at position jL + 2 + (t - s).  The boundary and the relays take
t from the probe, the tail past the last boundary from the boundary's answer.
Only the starter (jL + 1) and a terminator placed by the tail's answer (k + 1)
read their position off their role.  A placed node takes no further answer.

Node types: 0 boundary/terminator, 1 starter, 2 bit carrier, 3 plain relay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import NodeProgram
from .labels import LabelKind, StructuredLabel, field_value
from .scheme import bits_of
from .trees import Tree, path_tree


def line_positions(tree: Tree) -> list[int]:
    """Node ids in path order, starting from the smaller-id endpoint."""
    if tree.n == 1:
        return [0]
    if tree.max_degree > 2:
        raise ValueError("not a line")
    adj = tree.adjacency
    order = [min(v for v in range(tree.n) if len(adj[v]) == 1)]
    order.append(adj[order[0]][0])
    while len(order) < tree.n:
        a, b = adj[order[-1]]
        order.append(b if a == order[-2] else a)
    return order


def stride_for(k: int) -> int:
    return 3 + k.bit_length() - 1


@dataclass(frozen=True)
class LineLabel:
    kind: LabelKind
    node_type: int = 0
    k_bit: str = "0"
    seg_bit: str = "0"
    pos_mod3: int = 0
    tiny_len: int = 0
    tiny_pos: int = 0

    def to_structured(self) -> StructuredLabel:
        if self.kind is LabelKind.LINE_TINY:
            return StructuredLabel(
                kind=self.kind,
                fields=(format(self.tiny_len, "02b"), format(self.tiny_pos - 1, "02b")),
            )
        return StructuredLabel(
            kind=self.kind,
            fields=(
                format(self.node_type, "02b"),
                self.k_bit,
                self.seg_bit,
                format(self.pos_mod3, "02b"),
            ),
        )

    @staticmethod
    def from_structured(label: StructuredLabel) -> "LineLabel":
        if label.kind is LabelKind.LINE_TINY:
            return LineLabel(
                kind=label.kind,
                tiny_len=field_value(label.fields[0], "length"),
                tiny_pos=field_value(label.fields[1], "position") + 1,
            )
        t, kb, sb, d = label.fields
        node_type, pos_mod3 = field_value(t, "node-type"), field_value(d, "position-mod-3")
        return LineLabel(
            kind=label.kind, node_type=node_type, k_bit=kb, seg_bit=sb, pos_mod3=pos_mod3
        )


def label_line(tree: Tree) -> dict[int, LineLabel]:
    """Per-node labels; positions run 1..k+1 from the smaller-id endpoint."""
    order = line_positions(tree)
    k = tree.n - 1
    if k <= 3:
        return {
            node: LineLabel(kind=LabelKind.LINE_TINY, tiny_len=k, tiny_pos=pos)
            for pos, node in enumerate(order, start=1)
        }
    stride = stride_for(k)
    segments = k // stride
    width = k.bit_length()  # payload positions per complete segment
    k_bits = bits_of(k)
    # Roles never share a position: the terminator k+1, the boundaries jL,
    # and each complete segment's starter and carriers jL+1..(j+1)L-1.
    type_of = {k + 1: (0, "0", "0")}
    for j in range(1, segments):
        type_of[j * stride] = (0, "0", "0")
    for j in range(max(segments - 1, 1)):
        type_of[j * stride + 1] = (1, "0", "0")
        seg_bits = bits_of(j, width=width)
        for i in range(1, width + 1):
            type_of[j * stride + 1 + i] = (2, k_bits[i - 1], seg_bits[i - 1])
    distinct: dict[tuple, LineLabel] = {}  # a handful of values: build each once
    labels = {}
    for pos, node in enumerate(order, start=1):
        key = type_of.get(pos, (3, "0", "0")) + (pos % 3,)  # node_type, k_bit, seg_bit, pos_mod3
        if key not in distinct:
            distinct[key] = LineLabel(LabelKind.LINE, *key)
        labels[node] = distinct[key]
    return labels


def first_dedicated(residue: int) -> int:
    return residue if residue in (1, 2) else 3


def next_dedicated(residue: int, after: int) -> int:
    gap = (residue - after) % 3
    return after + (gap if gap else 3)


def starter_round(segment: int, stride: int) -> int:
    """Round in which segment j's starter transmits its empty forward probe."""
    return first_dedicated((segment * stride + 1) % 3)


def wave_position(k: int, segment: int, heard: int) -> int:
    """Position of the node that first hears segment's wave in round heard."""
    stride = stride_for(k)
    return segment * stride + heard - starter_round(segment, stride) + 2


class LineProgram(NodeProgram):
    """One node of a line run; trees, shared by the run's nodes, holds its
    output tree per decoded length."""

    def __init__(self, label: LineLabel, trees: dict[int, Tree]):
        super().__init__()
        self.label = label
        self.trees = trees
        self.first_rx: Optional[int] = None  # forward-probe arrival round
        if label.kind is LabelKind.LINE_TINY:
            self.at(1, self._place, label.tiny_len, label.tiny_pos)
        elif label.node_type == 1:
            self.send(first_dedicated(label.pos_mod3), ("probe", "", ""))

    def _place(self, round_no: int, k: int, pos: int) -> None:
        if k not in self.trees:
            self.trees[k] = path_tree(k)
        self.output = (self.trees[k], pos - 1)

    def receive(self, round_no: int, message) -> None:
        lab = self.label
        if lab.kind is LabelKind.LINE_TINY:
            return
        tag = message[0]
        relay_round = next_dedicated(lab.pos_mod3, round_no)
        if tag == "probe":
            if self.first_rx is not None or lab.node_type == 1:
                return
            _, kbits, segbits = message
            if lab.node_type == 2:
                self.first_rx = round_no
                self.send(relay_round, ("probe", kbits + lab.k_bit, segbits + lab.seg_bit))
            elif lab.node_type == 3:
                self.first_rx = round_no
                self.send(relay_round, message)
            elif lab.node_type == 0 and kbits:
                self.first_rx = round_no
                k, segment = int(kbits, 2), int(segbits, 2)
                self._place(round_no, k, wave_position(k, segment, round_no))
                self.send(relay_round, ("resolve", k, segment, lab.pos_mod3))
            return
        if tag == "resolve" and self.output is None:
            _, k, segment, entry = message
            if lab.node_type == 1:
                if entry == (lab.pos_mod3 + 1) % 3:
                    self._place(round_no, k, segment * stride_for(k) + 1)
            elif lab.node_type == 0:
                self._place(round_no, k, k + 1)  # terminator reached through the tail
            else:  # a relay heard the probe; a tail node hears the answer first
                self._place(round_no, k, wave_position(k, segment, self.first_rx or round_no))
                self.send(relay_round, ("resolve", k, segment, lab.pos_mod3))


def line_programs(labels: dict[int, LineLabel]) -> dict[int, NodeProgram]:
    trees: dict[int, Tree] = {}
    return {node: LineProgram(lab, trees) for node, lab in labels.items()}
