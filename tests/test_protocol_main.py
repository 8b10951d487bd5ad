from dataclasses import replace

import pytest

from radiotopo import protocol_main
from radiotopo.engine import NodeProgram, default_round_budget, simulate
from radiotopo.generators import SplitMix, family_sticks, random_tree
from radiotopo.harness import check_run, check_tr_delivery, run_tree
from radiotopo.protocol_main import (
    GossipState,
    MainProgram,
    ProtocolViolation,
    Subtree,
    aggregate_children,
    attach_subtrees,
    child_place,
    decode_shares,
    gossip_subtree,
    main_programs,
    phase_windows,
    rooted_form,
)
from radiotopo.labels import StructuredLabel
from radiotopo.scheme import MainLabel, derive_params, label_tree
from radiotopo.trees import Tree, core_subtree, enumerate_rooted_trees, parse_form, root_at


def path(n):
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def binary_tree_7():
    return Tree(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])


def run_main(tree):
    lb = label_tree(tree)
    programs = main_programs(lb.labels)
    budget = default_round_budget(tree.max_degree, tree.diameter)
    outputs, transcript, metrics = simulate(tree, programs, budget)
    return lb, programs, outputs, transcript, metrics


class GossipOnly(NodeProgram):
    """Drives one member's gossip state, or none, with no other behavior in
    a window of m segments of m rounds from round 1: member i speaks in
    round i of each segment, and every node outputs once the window has
    passed."""

    def __init__(self, state, m):
        super().__init__()
        self.state = state
        self.output = None
        if state is not None:
            for slot_round in range(state.my_id, m * m + 1, m):
                self.at(slot_round, self._speak)
        self.at(m * m + 1, self._finish)

    def _speak(self, round_no):
        return self.state.message()

    def _finish(self, round_no):
        self.output = (Tree(1, []), 0)

    def receive(self, round_no, message):
        if self.state is not None and message is not None and message[0] == "gossip":
            self.state.absorb(message)


def dummy_label(i):
    return MainLabel(
        markers=(0,) * 7,
        degree_share=(i, "1"),
        slot_share=None,
        slot_echo=False,
        shape_share=None,
        count_share=None,
        core_size_bits="1",
    )


class TestRoundRobin:
    def test_single_member_knows_itself(self):
        state = GossipState("core", 1, dummy_label(1))
        programs = {0: GossipOnly(state, 1), 1: GossipOnly(None, 1)}
        simulate(path(2), programs, 5)
        assert state.labels == {1: dummy_label(1)}
        assert state.edges == set()

    def test_two_adjacent_members_learn_labels_and_edge(self):
        a = GossipState("core", 1, dummy_label(1))
        b = GossipState("core", 2, dummy_label(2))
        programs = {0: GossipOnly(a, 2), 1: GossipOnly(b, 2)}
        simulate(path(2), programs, 6)
        for state in (a, b):
            assert set(state.labels) == {1, 2}
            assert state.edges == {(1, 2)}

    def test_matches_direct_member_topology_on_random_cores(self):
        rng = SplitMix(7)
        checked = 0
        while checked < 100:
            delta = (3, 4, 6, 8, 16)[rng.randint(0, 4)]
            tree = random_tree(delta, 4 + 2 * rng.randint(0, 3), rng.randint(1, 10**6))
            params = derive_params(max(delta, 4))
            m = max(2, params.core_size)
            rt = root_at(tree, 0)
            roots = [v for v in range(tree.n) if rt.subtree_size[v] >= m]
            top = roots[rng.randint(0, len(roots) - 1)]
            from radiotopo.trees import core_subtree

            members = core_subtree(rt, top, m)
            ids = {node: i for i, node in enumerate(members, start=1)}
            states = {}
            programs = {}
            for v in range(tree.n):
                if v in ids:
                    states[v] = GossipState("core", ids[v], dummy_label(ids[v]))
                    programs[v] = GossipOnly(states[v], m)
                else:
                    programs[v] = GossipOnly(None, m)
            simulate(tree, programs, m * m + 1)
            want_edges = {
                (min(ids[u], ids[w]), max(ids[u], ids[w]))
                for u, w in tree.edges
                if u in ids and w in ids
            }
            for v, state in states.items():
                assert set(state.labels) == set(range(1, m + 1))
                assert state.edges == want_edges
            checked += 1

    @pytest.mark.parametrize("spec", [(16, 6, 4), (256, 6, 1)])
    def test_share_id_outside_the_group_never_speaks(self, spec):
        lb = label_tree(random_tree(*spec))
        m = lb.params.core_size
        label = next(lab for lab in lb.labels.values() if lab.degree_share)
        lo, hi = phase_windows(m, 0, 0)["core_gossip"]
        spoken = {}
        for share_id in (0, 1, m, m + 1):
            program = MainProgram(replace(label, degree_share=(share_id, label.degree_share[1])))
            spoken[share_id] = [r for r in range(lo, hi + 1) if program.decide(r) is not None]
        assert spoken[0] == spoken[m + 1] == []
        assert spoken[1] == list(range(lo, hi + 1, m))
        assert spoken[m] == list(range(lo + m - 1, hi + 1, m))


class TestAggregation:
    def test_no_messages_gives_single_node(self):
        assert aggregate_children([], 16) == Subtree("01", "01")

    def test_three_same_shape_light_children(self):
        # Group size 3 rides on one carrier chunk "11".
        leaf = Subtree("01", "01")
        label = MainLabel(
            markers=(0, 0, 0, 0, 1, 0, 1),
            degree_share=None,
            slot_share=None,
            slot_echo=False,
            shape_share=(1, "1"),
            count_share=(1, "11"),
            core_size_bits="10",
        )
        got = aggregate_children([(label, leaf, 0)], 16)
        assert got == Subtree("00101011", "00101011")
        with pytest.raises(ProtocolViolation, match="more than 2 children"):
            aggregate_children([(label, leaf, 0)], 2)

    def test_heavy_child_attached_verbatim(self):
        # A leaf before a two-node chain: the layout keeps that order.
        part = Subtree("00100111", "00011011")
        label = MainLabel(
            markers=(0, 0, 0, 1, 0, 0, 0),
            degree_share=None,
            slot_share=None,
            slot_echo=False,
            shape_share=None,
            count_share=None,
            core_size_bits="10",
        )
        got = aggregate_children([(label, part, 2)], 16)
        assert got == Subtree("0" + part.layout + "1", "0" + part.form + "1")

    def test_attach_subtrees_offsets(self):
        got = parse_form(attach_subtrees([Subtree("01", "01"), Subtree("0011", "0011")]).layout)
        assert got.n == 4 and (0, 1) in got.edges and (0, 2) in got.edges

    @staticmethod
    def random_joins(seed, rounds):
        """Part lists drawn from catalog shapes, random trees and earlier joins."""
        rng = SplitMix(seed)
        pool = [Subtree(f, f) for f in enumerate_rooted_trees(5).forms]
        for delta, tree_seed in ((3, 1), (4, 2), (6, 3)):
            f = root_at(random_tree(delta, 4, tree_seed), 0).form(0)
            pool.append(Subtree(f, f))
        for _ in range(rounds):
            parts = [pool[rng.randint(0, len(pool) - 1)] for _ in range(rng.randint(0, 4))]
            joined = attach_subtrees(parts)
            yield parts, joined
            if len(joined.layout) <= 400:
                pool.append(joined)

    def test_joined_forms_match_rerooting(self):
        # A join builds its form from the parts' without rooting any tree.
        for _, joined in self.random_joins(5, 60):
            assert root_at(parse_form(joined.layout), 0).form(0) == joined.form

    def test_layout_numbers_each_part_as_one_block_after_the_root(self):
        # Part i's root is node 1 plus the sizes of the parts before it, and
        # its block holds exactly its own subtree.
        for parts, joined in self.random_joins(7, 60):
            rt = root_at(parse_form(joined.layout), 0)
            offset = 1
            for p in parts:
                size = len(p.layout) // 2
                assert rt.parent[offset] == 0
                assert sorted(rt.subtree_nodes(offset)) == list(range(offset, offset + size))
                assert rt.form(offset) == p.form
                offset += size
            assert offset == len(rt.parent) and rt.form(0) == joined.form


class TestGossipSubtree:
    def test_matches_extracted_subtree_on_random_cores(self):
        # A light subtree gossips as one group: members numbered 1..k in BFS
        # order, each must find exactly its own subtree of the input tree.
        protocol_main.group_forms.cache_clear()
        rng = SplitMix(11)
        groups, calls = set(), 0
        for _ in range(100):
            delta = (3, 4, 6, 8, 16)[rng.randint(0, 4)]
            tree = random_tree(delta, 4 + 2 * rng.randint(0, 3), rng.randint(1, 10**6))
            rt = root_at(tree, rng.randint(0, tree.n - 1))
            tops = [v for v in range(tree.n) if 2 <= rt.subtree_size[v] <= 12]
            if not tops:
                continue
            top = tops[rng.randint(0, len(tops) - 1)]
            members = core_subtree(rt, top, rt.subtree_size[top])
            ids = {node: i for i, node in enumerate(members, start=1)}
            labels = {i: dummy_label(i) for i in ids.values()}
            edges = {
                (min(ids[u], ids[w]), max(ids[u], ids[w]))
                for u, w in tree.edges
                if u in ids and w in ids
            }
            groups.add((len(ids), frozenset(edges)))
            for member, gid in ids.items():
                form = rt.form(member)
                assert gossip_subtree(labels, edges, gid) == Subtree(form, form)
                calls += 1
        # Each distinct group is rooted once; every other member reads its forms.
        info = protocol_main.group_forms.cache_info()
        assert info.misses == info.currsize == len(groups)
        assert info.hits + info.misses == calls

    @pytest.mark.parametrize(
        "ids, edges",
        [
            ([1, 3], {(1, 3)}),  # ids not contiguous
            ([1, 2], {(1, 3)}),  # an edge outside the group
            ([1, 2, 3], {(1, 2)}),  # the group is not connected
            ([1, 2, 3, 4], {(1, 2), (2, 3), (1, 3)}),  # a cycle and an isolated member
        ],
    )
    def test_bad_gossip_raises_protocol_violation(self, ids, edges):
        labels = {i: dummy_label(i) for i in ids}
        protocol_main.group_forms.cache_clear()
        messages = set()
        for _ in range(3):
            with pytest.raises(ProtocolViolation) as failed:
                gossip_subtree(labels, edges, 1)
            messages.add(str(failed.value))
        # A group that fails is never stored, so every member fails alike.
        assert len(messages) == 1
        assert protocol_main.group_forms.cache_info().currsize == 0

    def test_one_run_builds_each_group_shape_once(self, monkeypatch):
        # random_tree(256, 6, 1) has 269 shape-gossip members in groups of
        # one and two nodes; each distinct group is built and rooted once.
        calls, builds = [], []
        real_subtree, real_tree = protocol_main.gossip_subtree, protocol_main.Tree

        def counted_subtree(labels, edges, my_gid):
            calls.append((len(labels), frozenset(edges)))
            return real_subtree(labels, edges, my_gid)

        def counted_tree(n, edges):
            builds.append(n)
            return real_tree(n, edges)

        monkeypatch.setattr(protocol_main, "gossip_subtree", counted_subtree)
        monkeypatch.setattr(protocol_main, "Tree", counted_tree)
        protocol_main.group_forms.cache_clear()
        tree = random_tree(256, 6, 1)
        _, _, outputs, _, _ = run_main(tree)
        assert all(check_run(tree, outputs).values())
        groups = set(calls)
        assert max(size for size, _ in groups) >= 2
        info = protocol_main.group_forms.cache_info()
        assert len(builds) == info.misses == len(groups) < len(calls)
        assert info.hits + info.misses == len(calls)

    def test_one_run_computes_each_schedule_once(self):
        protocol_main.phase_windows.cache_clear()
        lb, programs, _, _, _ = run_main(random_tree(64, 8, 1))
        m, h, e = lb.params.core_size, lb.rooted.height, lb.params.block_len
        assert protocol_main.phase_windows.cache_info().misses == 2
        # The two schedules computed are the core one and the full one.
        _, full = phase_windows(m, 0, 0), phase_windows(m, h, e)
        assert protocol_main.phase_windows.cache_info().misses == 2
        assert all(p.windows is full for p in programs.values())

    def test_second_run_builds_no_group_and_computes_no_schedule(self, monkeypatch):
        # The schedules and group forms are values shared across runs: a
        # second run of a tree reads every one from the first.
        tree = random_tree(256, 6, 1)
        run_tree(tree)
        builds = []
        real_tree = protocol_main.Tree

        def counted_tree(n, edges):
            builds.append(n)
            return real_tree(n, edges)

        monkeypatch.setattr(protocol_main, "Tree", counted_tree)
        windows = protocol_main.phase_windows.cache_info()
        groups = protocol_main.group_forms.cache_info()
        assert run_tree(tree).report.ok
        assert builds == []
        assert protocol_main.phase_windows.cache_info().misses == windows.misses
        again = protocol_main.group_forms.cache_info()
        assert again.misses == groups.misses and again.hits > groups.hits


class TestGossipMessage:
    def test_message_is_rebuilt_only_after_a_change(self):
        # Seeded absorbs, contradicting labels for one id included: after
        # each, message() is the freshly sorted tuple of all heard so far.
        rng = SplitMix(5)
        variants = {i: (dummy_label(i), replace(dummy_label(i), slot_echo=True)) for i in range(1, 6)}
        state = GossipState("shape", 1, variants[1][0])
        labels, edges = {1: variants[1][0]}, set()
        for _ in range(200):
            sender = rng.randint(2, 5)
            heard = {sender: variants[sender][rng.randint(0, 1)]}
            for _ in range(rng.randint(0, 3)):
                i = rng.randint(1, 5)
                heard[i] = variants[i][rng.randint(0, 1)]
            pairs = set()
            for _ in range(rng.randint(0, 2)):
                a, b = sorted((rng.randint(1, 5), rng.randint(1, 5)))
                if a != b:
                    pairs.add((a, b))
            message = ("gossip", "shape", sender, tuple(sorted(heard.items())), tuple(sorted(pairs)))
            state.absorb(message)
            labels.update(heard)
            edges |= pairs | {(1, sender)}
            want = ("gossip", "shape", 1, tuple(sorted(labels.items())), tuple(sorted(edges)))
            assert state.message() == want
            assert state.message() is state.message()


class TestDecodeShares:
    def test_decodes_in_index_order(self):
        assert decode_shares([(2, "01"), (1, "1"), (3, "")]) == 0b101
        assert decode_shares([(1, "1000")], expected=1) == 8

    @pytest.mark.parametrize(
        "pieces, expected",
        [
            ([(1, "10"), None], None),  # a member without a share
            ([(1, "10")], 2),  # fewer shares than group members
            ([(1, "10"), (3, "1")], None),  # indices not 1..k
            ([(2, "10")], None),
            ([(1, ""), (2, "")], None),  # the shares spell nothing
        ],
    )
    def test_bad_shares_raise_protocol_violation(self, pieces, expected):
        with pytest.raises(ProtocolViolation):
            decode_shares(pieces, expected)

    @pytest.mark.parametrize(
        "node, field, value",
        [
            (0, 4, ""),  # the one slot chunk of a core-size-1 group is empty
            (3, 1, "10"),  # the root's degree share has id 2 in a group of one
        ],
    )
    def test_bad_share_labels_fail_the_run_cleanly(self, node, field, value):
        tree = random_tree(8, 6, 1)
        labels = dict(run_tree(tree).structured)
        fields = list(labels[node].fields)
        fields[field] = value
        labels[node] = StructuredLabel(labels[node].kind, tuple(fields))
        with pytest.raises(ProtocolViolation):
            run_tree(tree, preset_labels=labels)

    @pytest.mark.parametrize(
        "node, core_size, reason",
        [
            # m = 100 puts node 0's parameter window long after the wave.
            (0, "1100100", "heard the level wave before its parameter window"),
            # m = 1 makes node 23 count its level from too early a window.
            (23, "1", "learned height 3 below its own level 4"),
        ],
    )
    def test_contradicting_level_fails_where_it_shows(self, node, core_size, reason):
        tree = random_tree(16, 6, 2)
        labels = dict(run_tree(tree).structured)
        lab = labels[node]
        labels[node] = StructuredLabel(lab.kind, lab.fields[:10] + (core_size,))
        with pytest.raises(ProtocolViolation, match=rf"^node {node}, round \d+: {reason}$"):
            run_tree(tree, preset_labels=labels)

    def test_shape_index_outside_the_catalog_fails_the_run(self):
        # Node 8's shape chunk "0" makes its group decode shape index 0.
        tree = random_tree(256, 6, 1)
        labels = dict(run_tree(tree).structured)
        fields = list(labels[8].fields)
        assert fields[7] == "1"
        fields[7] = "0"
        labels[8] = StructuredLabel(labels[8].kind, tuple(fields))
        with pytest.raises(
            ProtocolViolation, match=r"^node 8, round \d+: shape index 0 outside the catalog$"
        ):
            run_tree(tree, preset_labels=labels)

    def test_shape_index_above_the_catalog_fails_in_the_round_it_sends(self):
        # Node 8's shape chunk "11" makes its group decode shape index 3, above
        # q = 2 for core size 3; the catalog is read only when node 8 sends.
        tree = random_tree(256, 6, 1)
        labels = dict(run_tree(tree).structured)
        fields = list(labels[8].fields)
        fields[7] = "11"
        labels[8] = StructuredLabel(labels[8].kind, tuple(fields))
        lb = label_tree(tree)
        m, h, e = lb.params.core_size, lb.rooted.height, lb.params.block_len
        epoch = phase_windows(m, h, e)["collect"][0] + (h - lb.rooted.level[8]) * 2 * e
        sends = epoch - 1 + e + (3 - 1) * m + int(fields[8], 2)
        with pytest.raises(
            ProtocolViolation, match=rf"^node 8, round {sends}: shape index 3 outside the catalog$"
        ):
            run_tree(tree, preset_labels=labels)

    def test_light_sender_without_a_decoded_shape_index_fails_the_run(self):
        # Node 0's empty shape-share id keeps it out of its shape gossip
        # group, but its count share still makes it send in the collection.
        tree = random_tree(16, 6, 2)
        labels = dict(run_tree(tree).structured)
        lab = labels[0]
        labels[0] = StructuredLabel(lab.kind, lab.fields[:6] + ("",) + lab.fields[7:])
        with pytest.raises(
            ProtocolViolation, match=r"^node 0, round \d+: light sender has no decoded shape index$"
        ):
            run_tree(tree, preset_labels=labels)

    @pytest.mark.parametrize("ones", [20, 64])
    def test_degree_that_does_not_fit_the_core_size_fails_before_the_catalog(
        self, monkeypatch, ones
    ):
        # Node 3 holds the root core's one degree chunk; k ones spell a
        # degree of k bits, which needs a core of k/4 members, not 1.
        tree = random_tree(8, 6, 1)
        labels = dict(run_tree(tree).structured)
        lab = labels[3]
        assert lab.fields[1] == "1" and lab.fields[10] == "1"
        labels[3] = StructuredLabel(lab.kind, lab.fields[:2] + ("1" * ones,) + lab.fields[3:])
        derived = []

        def spy(delta):
            derived.append(delta)
            return derive_params(delta)

        monkeypatch.setattr(protocol_main, "derive_params", spy)
        with pytest.raises(
            ProtocolViolation,
            match=rf"^node 3, round \d+: degree {2**ones - 1} does not fit core size 1$",
        ):
            run_tree(tree, preset_labels=labels)
        assert derived == []


class TestChildPlace:
    def test_first_matching_child_wins(self):
        # Root 0 with children 1 and 2, both leaves, and child 3 with a leaf.
        rt = root_at(Tree(5, [(0, 1), (0, 2), (0, 3), (3, 4)]), 0)
        assert child_place(rt, 0, "01") == 1
        assert child_place(rt, 0, rt.form(3)) == 3
        assert child_place(rt, 3, "01") == 4

    def test_symmetric_leaves_map_to_same_node(self):
        rt = root_at(binary_tree_7(), 0)
        # Either middle node places a leaf at its own first child.
        middle = child_place(rt, 0, rt.form(1))
        assert middle == child_place(rt, 0, rt.form(2)) == 1
        assert child_place(rt, middle, rt.form(3)) == child_place(rt, middle, rt.form(4)) == 3

    def test_no_match_raises(self):
        rt = root_at(binary_tree_7(), 0)
        with pytest.raises(ProtocolViolation):
            child_place(rt, 0, "0011")
        with pytest.raises(ProtocolViolation):
            child_place(rt, 3, "01")  # a leaf has no children


class TestEndToEnd:
    def test_binary_tree_completes_within_bound(self):
        tree = binary_tree_7()
        lb, programs, outputs, transcript, metrics = run_main(tree)
        p = lb.params
        assert p.core_size == 1 and p.block_len == 6 and lb.rooted.height == 2
        bound = 3 * 1 + 4 * 2 + 2 * 2 * 6 + 1
        assert metrics.completion_round <= bound == 36
        assert all(check_run(tree, outputs).values())

    def test_delta8_all_heavy_subtree_messages_all_delivered(self):
        for seed in (1, 2, 3):
            tree = random_tree(8, 6, seed)
            lb, programs, outputs, transcript, metrics = run_main(tree)
            m2 = lb.params.core_size**2
            h = lb.rooted.height
            t1 = m2 + 3 * h + 2 * m2
            window = (t1 + 1, t1 + 2 * h * lb.params.block_len)
            assert check_tr_delivery(transcript, lb, window) == []
            assert all(check_run(tree, outputs).values())

    def test_root_output_isomorphic_to_input(self):
        for delta, diameter, seed in [(3, 4, 1), (16, 6, 2), (32, 8, 3), (4, 11, 4)]:
            tree = random_tree(delta, diameter, seed)
            lb, programs, outputs, _, _ = run_main(tree)
            root_tree, root_place = outputs[lb.truth.root]
            assert root_at(root_tree, 0).form(0) == lb.rooted.form(lb.truth.root)
            assert root_place == 0

    def test_outputs_share_one_tree_object(self):
        for delta, diameter, seed in [(3, 4, 1), (16, 6, 2), (8, 6, 3)]:
            tree = random_tree(delta, diameter, seed)
            _, _, outputs, _, _ = run_main(tree)
            assert len({id(t) for t, _ in outputs.values()}) == 1

    def test_learned_parameters_match_truth(self):
        tree = random_tree(16, 7, 5)
        lb, programs, _, _, _ = run_main(tree)
        rt = lb.rooted
        m2 = lb.params.core_size**2
        deadline = m2 + 3 * rt.height
        for v, prog in programs.items():
            assert prog.delta == tree.max_degree
            assert prog.level == rt.level[v]
            assert prog.height == rt.height
            for r in (prog.round_delta, prog.round_level, prog.round_height):
                assert r is not None and r <= deadline

    def test_core_window_transmitters_are_core_members(self):
        tree = random_tree(6, 9, 2)
        lb, programs, _, transcript, _ = run_main(tree)
        m2 = lb.params.core_size**2
        core = {v for v, lab in lb.labels.items() if lab.degree_share is not None}
        for r, rec in transcript.records.items():
            if r <= m2:
                assert set(rec.transmitters) <= core

    def test_heavy_slots_match_ground_truth(self):
        for seed in (1, 2):
            tree = random_tree(16, 6, seed)
            lb, programs, _, _, _ = run_main(tree)
            for v, slot in lb.truth.slots.items():
                assert programs[v].slot == slot

    def test_light_shape_indices_match_ground_truth(self):
        tree = random_tree(16, 6, 3)
        lb, programs, _, _, _ = run_main(tree)
        for v, z in lb.truth.shapes.items():
            if programs[v].label.shape_share[0] == 1:
                assert programs[v].shape_index == z

    def test_heavy_subtrees_match_truth_at_epoch_end(self):
        for seed in (1, 2, 3):
            tree = random_tree(16, 8, seed)
            lb, programs, _, _, _ = run_main(tree)
            for v in lb.truth.heavy:
                prog = programs[v]
                assert prog.my_subtree is not None
                assert rooted_form(prog.my_subtree) == lb.rooted.form(v)
                layout_tree = parse_form(prog.my_subtree.layout)
                assert root_at(layout_tree, 0).form(0) == lb.rooted.form(v)

    def test_completion_bound_over_grid(self):
        for delta in (3, 6, 16, 64):
            for diameter in (4, 5, 10):
                tree = random_tree(delta, diameter, 1)
                lb, programs, outputs, transcript, metrics = run_main(tree)
                m2 = lb.params.core_size**2
                h = lb.rooted.height
                bound = 3 * m2 + 4 * h + 2 * h * lb.params.block_len + 1
                assert metrics.completion_round <= bound
                assert all(check_run(tree, outputs).values())

    def test_core_size_three_scale(self):
        # Degree 256 pushes the core size to 3: wider gossip groups, light
        # subtrees of two nodes, and the leaf-detection rules for relays.
        tree = random_tree(256, 6, 1)
        lb, programs, outputs, transcript, metrics = run_main(tree)
        assert lb.params.core_size == 3
        assert all(check_run(tree, outputs).values())
        m2, h, e = 9, lb.rooted.height, lb.params.block_len
        assert metrics.completion_round <= 3 * m2 + 4 * h + 2 * h * e + 1

    def test_all_transmissions_inside_phase_windows(self):
        tree = random_tree(16, 6, 4)
        art = run_tree(tree)
        lb = art.labeled
        windows = phase_windows(lb.params.core_size, lb.rooted.height, lb.params.block_len)
        for round_no, rec in art.transcript.records.items():
            if rec.transmitters:
                assert any(lo <= round_no <= hi for lo, hi in windows.values())


class TagRecorder(NodeProgram):
    """Passes a program through, recording (round, tag) for each message it
    sends; a gossip message's tag names its group's phase."""

    def __init__(self, program, sent):
        self.program = program
        self.agenda = program.agenda
        self.sent = sent

    @property
    def output(self):
        return self.program.output

    def decide(self, round_no):
        message = self.program.decide(round_no)
        if message is not None:
            tag = message[1] + "_gossip" if message[0] == "gossip" else message[0]
            self.sent.append((round_no, tag))
        return message

    def receive(self, round_no, message):
        self.program.receive(round_no, message)


PHASE_OF_TAG = {
    "level_wave": "parameter",
    "height_wave": "parameter",
    "height_flood": "parameter",
    "subtree": "collect",
    "assemble": "assemble",
}


@pytest.mark.parametrize(
    "make_tree",
    [
        lambda: random_tree(16, 6, 4),
        lambda: random_tree(256, 6, 1),  # core size 3
        lambda: family_sticks(4, 8, 1, 1)[0],
        lambda: random_tree(3, 11, 2),
    ],
    ids=["random-16-6-4", "random-256-6-1", "sticks-4-8-1", "random-3-11-2"],
)
def test_message_tags_inside_their_phase_windows(make_tree):
    tree = make_tree()
    lb = label_tree(tree)
    sent = []
    programs = {v: TagRecorder(p, sent) for v, p in main_programs(lb.labels).items()}
    simulate(tree, programs, default_round_budget(tree.max_degree, tree.diameter))
    windows = phase_windows(lb.params.core_size, lb.rooted.height, lb.params.block_len)
    for round_no, tag in sent:
        lo, hi = windows[PHASE_OF_TAG.get(tag, tag)]
        assert lo <= round_no <= hi, (round_no, tag)
    want = {"core_gossip", "parameter", "collect", "assemble"}
    if any(lab.slot_share for lab in lb.labels.values()):
        want.add("slot_gossip")
    if any(lab.shape_share for lab in lb.labels.values()):
        want.add("shape_gossip")
    assert want <= {PHASE_OF_TAG.get(tag, tag) for _, tag in sent}
