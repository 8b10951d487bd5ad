"""Bit-exact self-delimiting encoding of structured labels.

A label is a kind tag plus a fixed-per-kind tuple of bit fields.  The wire
format is a 4-bit kind tag followed by each field encoded as its payload bits
doubled ("00" for 0, "11" for 1) and terminated by "01".  The encoded length
is therefore exactly 4 + sum(2*len(field) + 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


# Bound of each process-wide table of label values (codec, labeler, harness).
LABEL_CACHE_SIZE = 1024


class MalformedLabel(ValueError):
    """Raised when a bit string is not a valid encoded label."""


class LabelKind(Enum):
    MAIN_SCHEME = "MainScheme"
    D3_ROOT = "RootD3"
    D3_HUB = "HubD3"
    D3_LEAF = "LeafD3"
    D3_LEAF_NULL = "LeafD3Null"
    STAR_LEAF = "StarLeaf"
    STAR_LEAF_NULL = "StarLeafNull"
    STAR_CENTER = "StarCenter"
    LINE = "Line"
    LINE_TINY = "LineTiny"


_KIND_ORDER = list(LabelKind)
_KIND_TAG = {kind: format(i, "04b") for i, kind in enumerate(_KIND_ORDER)}

# Field layouts are part of the protocol contract; decode rejects mismatches.
FIELD_COUNTS = {
    LabelKind.MAIN_SCHEME: 11,
    LabelKind.D3_ROOT: 0,
    LabelKind.D3_HUB: 1,
    LabelKind.D3_LEAF: 3,
    LabelKind.D3_LEAF_NULL: 0,
    LabelKind.STAR_LEAF: 3,
    LabelKind.STAR_LEAF_NULL: 0,
    LabelKind.STAR_CENTER: 0,
    LabelKind.LINE: 4,
    LabelKind.LINE_TINY: 2,
}


def field_value(bits: str, name: str) -> int:
    """The integer a label field spells in binary; an empty field is malformed."""
    if not bits:
        raise MalformedLabel(f"{name} field is empty")
    return int(bits, 2)


def _check_bits(s: str) -> None:
    if any(ch not in "01" for ch in s):
        raise MalformedLabel(f"non-binary field {s!r}")


@dataclass(frozen=True)
class StructuredLabel:
    kind: LabelKind
    fields: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.fields) != FIELD_COUNTS[self.kind]:
            raise MalformedLabel(
                f"{self.kind.value} takes {FIELD_COUNTS[self.kind]} fields, got {len(self.fields)}"
            )
        for f in self.fields:
            _check_bits(f)


# The codec's two tables: a batch encodes and a label file decodes each
# distinct value once per process, and equal bit strings decode to one label
# object.  A string that fails to decode stores nothing.
@lru_cache(maxsize=LABEL_CACHE_SIZE)
def encode(label: StructuredLabel) -> str:
    parts = [_KIND_TAG[label.kind]]
    for f in label.fields:
        parts.append("".join(ch + ch for ch in f))
        parts.append("01")
    return "".join(parts)


@lru_cache(maxsize=LABEL_CACHE_SIZE)
def decode(bits: str) -> StructuredLabel:
    _check_bits(bits)
    if len(bits) < 4:
        raise MalformedLabel("too short for a kind tag")
    tag = int(bits[:4], 2)
    if tag >= len(_KIND_ORDER):
        raise MalformedLabel(f"unknown kind tag {bits[:4]}")
    kind = _KIND_ORDER[tag]
    fields = []
    pos = 4
    while pos < len(bits):
        payload = []
        while True:
            if pos + 2 > len(bits):
                raise MalformedLabel("dangling bit pair")
            pair = bits[pos : pos + 2]
            pos += 2
            if pair == "01":
                break
            if pair == "00":
                payload.append("0")
            elif pair == "11":
                payload.append("1")
            else:
                raise MalformedLabel("missing field terminator")
        fields.append("".join(payload))
    return StructuredLabel(kind=kind, fields=tuple(fields))


def scheme_length(labels) -> int:
    """Length of a labeling scheme: the maximum encoded label length."""
    sizes = [len(b) for b in labels]
    if not sizes:
        raise ValueError("empty label set")
    return max(sizes)


def labels_to_text(labels: dict[int, StructuredLabel]) -> str:
    """One line per node."""
    lines = [f"{v} {labels[v].kind.value} {encode(labels[v])}" for v in sorted(labels)]
    return "\n".join(lines) + "\n"


def labels_from_text(text: str) -> dict[int, StructuredLabel]:
    """Labels by node; nodes with equal bits share one label object."""
    out: dict[int, StructuredLabel] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        try:
            node_s, kind_name, bits = ln.split()
            node = int(node_s)
        except ValueError:
            raise MalformedLabel(f"bad label line {ln!r}") from None
        label = decode(bits)
        if label.kind.value != kind_name:
            raise MalformedLabel(f"kind mismatch on line {ln!r}")
        if node in out:
            raise MalformedLabel(f"node {node}: more than one label line")
        out[node] = label
    return out
