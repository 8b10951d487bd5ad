"""Wrong labels end a run cleanly.

A single-field mutation of one node's label must give a run that returns
(valid or not), a RunFailed (exit 1 on the command line) or a MalformedLabel
(exit 2), never another exception.  Correct labels moved between nodes must
give a run that returns or fails for a reason of the program's own.
"""

import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiotopo import MalformedLabel, RoundLimitExceeded, RunFailed, protocol_main
from radiotopo.cli import main as cli_main
from radiotopo.engine import ProtocolViolation
from radiotopo.generators import random_tree
from radiotopo.harness import run_tree
from radiotopo.labels import StructuredLabel, labels_to_text
from radiotopo.protocol_line import path_tree
from radiotopo.protocol_small import star_tree
from radiotopo.scheme import bits_of, chunk, derive_params, label_tree
from radiotopo.trees import Tree, tree_to_text

# One small tree per label kind: tiny line, line, star, two-hub, main.
TWO_HUB = Tree(9, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6), (1, 7), (0, 8)])
TREES = {
    "line_tiny": path_tree(3),
    "line": path_tree(40),
    "star": star_tree(9),
    "d3": TWO_HUB,
    "main": random_tree(8, 6, 1),
}
LABELS = {name: run_tree(tree).structured for name, tree in TREES.items()}


def mutated(labels, node, field, bits):
    lab = labels[node]
    fields = lab.fields[:field] + (bits,) + lab.fields[field + 1:]
    return {**labels, node: StructuredLabel(lab.kind, fields)}


def ends_cleanly(tree, labels):
    try:
        run_tree(tree, preset_labels=labels)
    except (RunFailed, MalformedLabel):
        pass


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_single_field_mutation_ends_cleanly(name):
    tree, labels = TREES[name], LABELS[name]
    for node, lab in labels.items():
        for field, bits in enumerate(lab.fields):
            for new in {"", bits + "1", "1" * max(1, len(bits))} - {bits}:
                ends_cleanly(tree, mutated(labels, node, field, new))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_random_field_contents_end_cleanly(data):
    name = data.draw(st.sampled_from(sorted(TREES)))
    labels = LABELS[name]
    node = data.draw(st.sampled_from([v for v, lab in labels.items() if lab.fields]))
    field = data.draw(st.integers(0, len(labels[node].fields) - 1))
    bits = data.draw(st.text(alphabet="01", max_size=8))
    ends_cleanly(TREES[name], mutated(labels, node, field, bits))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(order=st.permutations(range(TREES["main"].n)))
def test_permuted_labels_end_cleanly(order):
    # A crash the simulator wrapped is a RunFailed too, so ends_cleanly cannot
    # see it: a failure must be the program's own, with no foreign cause.
    labels = LABELS["main"]
    try:
        run_tree(TREES["main"], preset_labels={v: labels[u] for v, u in enumerate(order)})
    except RunFailed as exc:
        assert exc.__cause__ is None or isinstance(exc.__cause__, RunFailed)


def test_height_heard_before_the_degree_fails_the_run():
    # With the labels of nodes 3 and 20 swapped, node 4 hears the height
    # flood before any level wave has told it the maximum degree.
    labels = LABELS["main"]
    with pytest.raises(RunFailed) as err:
        run_tree(TREES["main"], preset_labels={**labels, 3: labels[20], 20: labels[3]})
    assert str(err.value) == "node 4, round 13: learned the height before the maximum degree"
    assert err.value.__cause__ is None


def run_mutated(tmp_path, capsys, tree, node, field, bits):
    tree_file, labels_file = tmp_path / "t.tree", tmp_path / "t.labels"
    tree_file.write_text(tree_to_text(tree))
    labels = mutated(run_tree(tree).structured, node, field, bits)
    labels_file.write_text(labels_to_text(labels))
    capsys.readouterr()
    code = cli_main(["run", "--tree", str(tree_file), "--labels", str(labels_file)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "tree, node, field, bits",
    [
        (TWO_HUB, 6, 0, "0"),  # no carrier is last: the root has no leaf count
        (random_tree(16, 6, 2), 0, 7, "11"),  # shape index outside the catalog
        (random_tree(8, 6, 1), 3, 2, "0000"),  # decoded degree 0 does not fit the core size
    ],
)
def test_program_faults_exit_1_naming_the_node(tmp_path, capsys, tree, node, field, bits):
    code, err = run_mutated(tmp_path, capsys, tree, node, field, bits)
    assert code == 1
    assert err.startswith("run failed: node ")


@pytest.mark.parametrize(
    "tree, node, field, bits, reason",
    [
        (random_tree(16, 6, 2), 6, 6, "", "light node has no shape share"),
        (TWO_HUB, 4, 1, "11", "the root has not decoded its own leaf count"),
        (random_tree(4, 8, 3), 4, 2, "10", "degree 2 is below the scheme's minimum of 3"),
    ],
)
def test_program_fault_names_the_field_not_a_python_error(tree, node, field, bits, reason):
    labels = mutated(run_tree(tree).structured, node, field, bits)
    with pytest.raises(ProtocolViolation, match=reason) as err:
        run_tree(tree, preset_labels=labels)
    assert err.value.__cause__ is None


def test_star_with_a_gap_in_carrier_ids_fails_the_run(tmp_path, capsys):
    # star_tree(9) spreads 9 = 0b1001 over carriers 1..4; carrier 2 becomes 5.
    code, err = run_mutated(tmp_path, capsys, star_tree(9), 2, 1, "101")
    assert code == 1
    assert err == "run failed: node 0, round 4: chunk indices not contiguous: [1, 3, 4]\n"


def test_count_shares_above_the_degree_fail_the_run(tmp_path, capsys):
    # Node 0's count chunk of sixteen ones would attach 65,535 copies of its
    # shape below its parent, node 1, which has at most 16 children.
    code, err = run_mutated(tmp_path, capsys, random_tree(16, 6, 2), 0, 9, "1" * 16)
    assert code == 1
    assert err.startswith("run failed: node 1, round 86: ")


def test_wide_core_size_costs_only_the_slots_reached():
    # The root's core size as 24 ones puts (2^24 - 1)^2 rounds in its core
    # gossip window; the run ends at the round budget, not out of memory.
    labels = LABELS["main"]
    root = next(v for v, lab in labels.items() if lab.fields[0][0] == "1")
    start = time.perf_counter()
    with pytest.raises(RoundLimitExceeded):
        run_tree(TREES["main"], preset_labels=mutated(labels, root, 10, "1" * 24))
    assert time.perf_counter() - start < 1.0


def test_consistent_core_size_and_degree_lie_fails_before_the_catalog(monkeypatch):
    # Every label says core size 16 and the root's 16-node core spells a
    # 64-bit degree, which fits that core size, so the root accepts it.  A
    # catalog for that degree lists every rooted tree of up to 15 nodes.
    derived = []
    monkeypatch.setattr(
        protocol_main, "derive_params", lambda delta: derived.append(delta) or derive_params(delta)
    )
    labeled = label_tree(TREES["main"])
    core = labeled.rooted.subtree_nodes(labeled.rooted.root)[:16]
    shares = dict(zip(core, chunk("1" * 64, 4)))
    labels = {
        v: dataclasses.replace(lab, degree_share=shares.get(v), core_size_bits=bits_of(16))
        for v, lab in labeled.labels.items()
    }
    start = time.perf_counter()
    with pytest.raises(RunFailed):
        run_tree(TREES["main"], preset_labels={v: lab.to_structured() for v, lab in labels.items()})
    assert time.perf_counter() - start < 1.0
    assert (1 << 64) - 1 in derived


@pytest.mark.parametrize("bits", ["0", "000"])
def test_zero_core_size_is_malformed(tmp_path, capsys, bits):
    code, err = run_mutated(tmp_path, capsys, random_tree(8, 6, 1), 3, 10, bits)
    assert code == 2
    assert "node 3: main-scheme core size is zero" in err


@pytest.mark.parametrize(
    "tree, node, field, message",
    [
        (random_tree(8, 6, 1), 3, 10, "node 3: main-scheme core-size field is empty"),
        (star_tree(9), 1, 1, "node 1: carrier-id field is empty"),
        (path_tree(40), 5, 3, "node 5: position-mod-3 field is empty"),
    ],
)
def test_empty_integer_field_is_malformed(tmp_path, capsys, tree, node, field, message):
    labels = mutated(run_tree(tree).structured, node, field, "")
    with pytest.raises(MalformedLabel, match=message):
        run_tree(tree, preset_labels=labels)
    code, err = run_mutated(tmp_path, capsys, tree, node, field, "")
    assert code == 2
    assert message in err
