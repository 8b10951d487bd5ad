"""Topology recognition in synchronous broadcast tree networks.

Deterministic round-based simulator, short node-labeling schemes, per-node
protocol programs for general trees / two-hub trees / stars / lines, seeded
tree generators, and a verification harness.
"""

from .engine import NodeProgram, RoundLimitExceeded, Transcript, history_of, simulate
from .labels import LabelKind, MalformedLabel, StructuredLabel, decode, encode, scheme_length
from .trees import (
    CenterResult,
    RootedTree,
    ShapeCatalog,
    Tree,
    TreeError,
    center,
    classify_heavy,
    core_subtree,
    enumerate_rooted_trees,
    index_in_sequence,
    parse_tree_text,
    placement_valid,
    root_at,
    tree_to_text,
)

__all__ = [
    "CenterResult",
    "LabelKind",
    "MalformedLabel",
    "NodeProgram",
    "RootedTree",
    "RoundLimitExceeded",
    "ShapeCatalog",
    "StructuredLabel",
    "Transcript",
    "Tree",
    "TreeError",
    "center",
    "classify_heavy",
    "core_subtree",
    "decode",
    "encode",
    "enumerate_rooted_trees",
    "history_of",
    "index_in_sequence",
    "parse_tree_text",
    "placement_valid",
    "root_at",
    "scheme_length",
    "simulate",
    "tree_to_text",
]
