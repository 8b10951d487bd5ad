"""Topology recognition in synchronous broadcast tree networks.

Deterministic round-based simulator, short node-labeling schemes, per-node
protocol programs for general trees / two-hub trees / stars / lines, seeded
tree generators, and a verification harness.
"""

from .engine import NodeProgram, RoundLimitExceeded, RunFailed, Transcript, simulate
from .labels import LabelKind, MalformedLabel, StructuredLabel, decode, encode, scheme_length
from .trees import (
    RootedTree,
    ShapeCatalog,
    Tree,
    TreeError,
    classify_heavy,
    core_subtree,
    enumerate_rooted_trees,
    parse_tree_text,
    root_at,
    tree_to_text,
)

__all__ = [
    "LabelKind",
    "MalformedLabel",
    "NodeProgram",
    "RootedTree",
    "RoundLimitExceeded",
    "RunFailed",
    "ShapeCatalog",
    "StructuredLabel",
    "Transcript",
    "Tree",
    "TreeError",
    "classify_heavy",
    "core_subtree",
    "decode",
    "encode",
    "enumerate_rooted_trees",
    "parse_tree_text",
    "root_at",
    "scheme_length",
    "simulate",
    "tree_to_text",
]
