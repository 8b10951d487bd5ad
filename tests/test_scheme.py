import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_rooted_isomorphic, extract_subtree
from radiotopo import scheme
from radiotopo.generators import family_deg_lb, family_diam_lb, family_sticks, random_tree
from radiotopo.labels import encode, labels_to_text
from radiotopo.scheme import (
    MARK_DEEP_LEAF,
    MARK_GOSSIP_CORE,
    MARK_HEAVY,
    MARK_LIGHT,
    MARK_LIGHT_SUB,
    MARK_ROOT,
    MARK_ROOT_CORE,
    MainLabel,
    UnsupportedShape,
    assign_slots,
    bits_of,
    chunk,
    derive_params,
    label_tree,
    unchunk,
)
from radiotopo.trees import RootedTree, Tree, parse_form, root_at


def path(n):
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def sample_tree(delta, diameter, seed):
    return random_tree(delta, diameter, seed)


class TestChunk:
    def test_greedy_split_front_loads(self):
        assert chunk("10000", 4) == [(1, "1000"), (2, "0")]

    def test_single_short(self):
        assert chunk("1", 4) == [(1, "1")]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chunk("", 4)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="01", min_size=1, max_size=40), st.sampled_from([2, 4]))
    def test_round_trip(self, s, c):
        assert unchunk(chunk(s, c)) == s

    def test_unchunk_rejects_gaps(self):
        with pytest.raises(ValueError):
            unchunk([(1, "10"), (3, "0")])


class TestDeriveParams:
    def test_delta_16(self):
        p = derive_params(16)
        assert p.core_size == 2 and len(p.catalog) == 1 and p.block_len == 32

    def test_delta_256(self):
        p = derive_params(256)
        assert p.core_size == 3 and len(p.catalog) == 2 and p.block_len == 512

    def test_delta_2_16(self):
        p = derive_params(1 << 16)
        assert p.core_size == 5 and len(p.catalog) == 1 + 1 + 2 + 4
        assert len(p.catalog) <= -(-((2 * (1 << 16)) ** 0.5) // 1)

    def test_catalog_bound_holds_generally(self):
        for delta in (3, 8, 16, 256, 1 << 12, 1 << 16, 1 << 20):
            p = derive_params(delta)
            assert len(p.catalog) ** 2 <= 2 * delta  # q <= sqrt(2*delta)
            assert p.block_len >= 2 * delta
            assert p.block_len >= delta + len(p.catalog) * p.core_size + 1

    def test_rejects_tiny_degree(self):
        with pytest.raises(UnsupportedShape):
            derive_params(2)

    def test_equal_degrees_share_one_params_object(self):
        p = derive_params(1 << 12)
        assert derive_params(4096) is p


class TestMarkers:
    def test_root_flags(self):
        lb = label_tree(sample_tree(3, 4, 1))
        root_label = lb.labels[lb.truth.root]
        assert root_label.marker(MARK_ROOT)
        assert root_label.marker(MARK_ROOT_CORE)
        assert root_label.marker(MARK_HEAVY)

    def test_exactly_one_deep_leaf_marker(self):
        for seed in range(5):
            lb = label_tree(sample_tree(4, 6, seed))
            marked = [v for v, lab in lb.labels.items() if lab.marker(MARK_DEEP_LEAF)]
            assert marked == [lb.truth.deep_leaf]
            assert lb.rooted.level[marked[0]] == lb.rooted.height

    def test_delta8_all_heavy_no_light_markers(self):
        lb = label_tree(sample_tree(8, 6, 3))
        for lab in lb.labels.values():
            assert lab.marker(MARK_HEAVY)
            assert not lab.marker(MARK_LIGHT)
            assert not lab.marker(MARK_LIGHT_SUB)

    def test_delta8_gossip_core_marks_exactly_leaves(self):
        # With every node heavy, "all children light" holds exactly at leaves,
        # whose slot then rides on their own one-node core group.
        lb = label_tree(sample_tree(8, 6, 3))
        rt = lb.rooted
        for v, lab in lb.labels.items():
            assert lab.marker(MARK_GOSSIP_CORE) == (len(rt.children[v]) == 0)

    def test_level_h_nodes_are_leaves(self):
        for seed in range(4):
            lb = label_tree(sample_tree(6, 8, seed))
            rt = lb.rooted
            for v in range(lb.tree.n):
                if rt.level[v] == rt.height:
                    assert not rt.children[v]


class TestSlots:
    def test_root_children_numbered_in_id_order(self):
        lb = label_tree(sample_tree(8, 8, 2))
        rt = lb.rooted
        heavy_kids = [c for c in rt.children[rt.root]]  # all heavy at delta=8
        assert [lb.truth.slots[c] for c in heavy_kids] == list(range(1, len(heavy_kids) + 1))

    def test_first_heavy_child_inherits(self):
        t = path(9)  # rooted at 4; chain both ways
        lb = label_tree(sample_tree(3, 8, 5))
        rt, slots, heavy = lb.rooted, lb.truth.slots, lb.truth.heavy
        for v, slot in slots.items():
            kids = [c for c in rt.children[v] if c in heavy]
            if kids:
                assert slots[kids[0]] == slot

    def test_example_spread_around_taken_value(self):
        # Parent slot 2, three heavy children: 2, then 1 and 3.
        t = Tree(4, [(0, 1), (0, 2), (0, 3)])
        rt = root_at(t, 0)
        heavy = frozenset(range(4))
        slots = assign_slots(rt, heavy)
        assert [slots[1], slots[2], slots[3]] == [1, 2, 3]

    def test_single_child_inherits_large_value(self):
        # Forced inheritance regardless of the parent's slot value.
        lb = label_tree(sample_tree(3, 10, 7))
        rt, slots, heavy = lb.rooted, lb.truth.slots, lb.truth.heavy
        for v, slot in slots.items():
            kids = [c for c in rt.children[v] if c in heavy]
            if len(kids) == 1:
                assert slots[kids[0]] == slot

    def test_sibling_slots_distinct(self):
        for seed in range(6):
            lb = label_tree(sample_tree(6, 8, seed))
            rt, slots, heavy = lb.rooted, lb.truth.slots, lb.truth.heavy
            for v in range(lb.tree.n):
                kids = [c for c in rt.children[v] if c in heavy and c != lb.truth.root]
                vals = [slots[c] for c in kids if c in slots]
                assert len(vals) == len(set(vals))


class TestShapes:
    def test_light_leaf_is_index_one(self):
        lb = label_tree(sample_tree(16, 6, 1))
        rt = lb.rooted
        for v, z in lb.truth.shapes.items():
            if not rt.children[v]:
                assert z == 1

    def test_isomorphic_siblings_share_index(self):
        for seed in range(5):
            lb = label_tree(sample_tree(16, 6, seed))
            rt = lb.rooted
            shapes = lb.truth.shapes
            for v in shapes:
                for w in shapes:
                    if rt.parent[v] == rt.parent[w]:
                        same = brute_rooted_isomorphic(
                            extract_subtree(rt, v), 0, extract_subtree(rt, w), 0
                        )
                        assert same == (shapes[v] == shapes[w])

    def test_indices_verify_against_bruteforce(self):
        lb = label_tree(sample_tree(32, 6, 2))
        cat = lb.params.catalog
        for v, z in lb.truth.shapes.items():
            sub = extract_subtree(lb.rooted, v)
            assert brute_rooted_isomorphic(sub, 0, parse_form(cat.forms[z - 1]), 0)


class TestLabelFields:
    def test_degree_share_reconstructs_delta(self):
        for delta in (3, 8, 16, 64):
            lb = label_tree(sample_tree(delta, 6, 1))
            pairs = [lab.degree_share for lab in lb.labels.values() if lab.degree_share]
            assert len(pairs) == lb.params.core_size
            assert int(unchunk(pairs), 2) == delta

    def test_slot_share_reconstructs_slots(self):
        lb = label_tree(sample_tree(16, 8, 4))
        rt, heavy = lb.rooted, lb.truth.heavy
        for v in range(lb.tree.n):
            if v == lb.truth.root or v not in heavy:
                continue
            if all(c not in heavy for c in rt.children[v]):
                members = [
                    u
                    for u in rt.subtree_nodes(v)
                    if lb.labels[u].slot_share is not None
                ][: lb.params.core_size]
                pairs = [lb.labels[u].slot_share for u in members]
                assert int(unchunk(pairs), 2) == lb.truth.slots[v]

    def test_delta8_no_shape_or_count_fields(self):
        lb = label_tree(sample_tree(8, 6, 1))
        for lab in lb.labels.values():
            assert lab.shape_share is None and lab.count_share is None

    def test_shape_share_reconstructs_index(self):
        lb = label_tree(sample_tree(16, 6, 9))
        rt = lb.rooted
        for v, z in lb.truth.shapes.items():
            members = rt.subtree_nodes(v)
            pairs = [lb.labels[u].shape_share for u in members]
            assert int(unchunk(sorted(pairs)), 2) == z

    def test_count_share_reconstructs_group_sizes(self):
        for seed in (1, 2, 3):
            lb = label_tree(sample_tree(16, 6, seed))
            rt = lb.rooted
            shapes = lb.truth.shapes
            for v in lb.truth.heavy:
                groups = {}
                for c in rt.children[v]:
                    if c in shapes:
                        groups.setdefault(shapes[c], []).append(c)
                for members in groups.values():
                    carried = [
                        lb.labels[u].count_share for u in members if lb.labels[u].count_share
                    ]
                    assert carried
                    assert int(unchunk(carried), 2) == len(members)

    def test_slot_echo_unique_per_parent(self):
        lb = label_tree(sample_tree(4, 10, 6))
        rt, heavy = lb.rooted, lb.truth.heavy
        for v in lb.truth.slots:
            kids = [c for c in rt.children[v] if c in heavy]
            flagged = [c for c in kids if lb.labels[c].slot_echo]
            if kids:
                assert len(flagged) == 1
                assert lb.truth.slots[flagged[0]] == lb.truth.slots[v]

    def test_core_size_everywhere(self):
        lb = label_tree(sample_tree(16, 6, 1))
        for lab in lb.labels.values():
            assert lab.core_size == lb.params.core_size

    def test_rejects_small_parameters(self):
        with pytest.raises(UnsupportedShape):
            label_tree(path(3))  # diameter 2
        with pytest.raises(UnsupportedShape):
            label_tree(path(9))  # degree 2

    def test_structured_round_trip(self):
        lb = label_tree(sample_tree(16, 6, 2))
        for lab in lb.labels.values():
            assert MainLabel.from_structured(lab.to_structured()) == lab

    def test_encoded_length_tracks_loglog(self):
        # Worst-case label length against the widths fixed by the layout.
        for delta in (8, 16, 256, 1 << 12):
            lb = label_tree(sample_tree(delta, 6, 1))
            bound = 10 * lb.params.core_size.bit_length() + 70
            worst = max(len(encode(lab.to_structured())) for lab in lb.labels.values())
            assert worst <= bound


class TestHeavyLightStructure:
    def test_light_subtree_fits_catalog(self):
        for delta in (16, 64, 4096):
            lb = label_tree(sample_tree(delta, 6, 1))
            rt = lb.rooted
            for v in lb.truth.shapes:
                assert rt.subtree_size[v] <= lb.params.core_size - 1

    def test_every_light_node_in_exactly_one_marked_subtree(self):
        lb = label_tree(sample_tree(16, 8, 3))
        rt, heavy = lb.rooted, lb.truth.heavy
        light = [v for v in range(lb.tree.n) if v not in heavy]
        owners = {v: [a for a in lb.truth.shapes if v in rt.subtree_nodes(a)] for v in light}
        for v in light:
            assert len(owners[v]) == 1
            assert lb.labels[v].marker(MARK_LIGHT_SUB)

    def test_bits_of_width(self):
        assert bits_of(5) == "101"
        assert bits_of(5, width=5) == "00101"


class TestGroupWalks:
    @pytest.mark.parametrize("spec", [(16, 8, 3), (256, 6, 1), (64, 5, 2)])
    def test_each_gossip_group_is_walked_once(self, monkeypatch, spec):
        tree = sample_tree(*spec)
        cores, walks = Counter(), Counter()
        core_subtree, subtree_nodes = scheme.core_subtree, RootedTree.subtree_nodes

        def counted_core(rt, v, m):
            cores[v] += 1
            return core_subtree(rt, v, m)

        def counted_walk(rt, v):
            walks[v] += 1
            return subtree_nodes(rt, v)

        monkeypatch.setattr(scheme, "core_subtree", counted_core)
        monkeypatch.setattr(RootedTree, "subtree_nodes", counted_walk)
        lb = label_tree(tree)
        rt, heavy = lb.rooted, lb.truth.heavy
        gossip = {v for v in heavy if v != rt.root and all(c not in heavy for c in rt.children[v])}
        assert lb.truth.shapes and gossip
        assert cores == Counter({rt.root} | gossip)
        # A core is walked by core_subtree alone, which stops after m nodes.
        assert walks == Counter(set(lb.truth.shapes))


# sha256 of the concatenated labels_to_text of each family's trees, recorded
# from a known-good build; update one only with a change meant to alter labels.
FAMILY_LABELS = {
    "diam_lb": (
        lambda s: [t for d in (4, 5, 7) for k in (3, 4, 16) for t in family_diam_lb(d, k, s, 2)],
        "b3e4ad1ce2063a458b4e683f1dbaefd2bf5999cd483d1008cb9c037a7f737127",
    ),
    "deg_lb": (
        lambda s: [t for k in (3, 5, 16) for d in (4, 7) for t in family_deg_lb(k, d, s, 2)],
        "23ae349a1217c6451a92781449f7e27f0f20e66d32db75ae1afcb24c610bbc47",
    ),
    "sticks": (
        lambda s: [t for k in (3, 4, 8) for d in (6, 9, 12) for t in family_sticks(k, d, s, 2)],
        "51d5454676e8bd73c0ea0283bee4f2c3b7f75da1c182d8d2b90134ec7980c5b9",
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILY_LABELS))
def test_family_label_bytes_are_pinned(family):
    make, want = FAMILY_LABELS[family]
    digest = hashlib.sha256()
    for seed in (1, 2):
        for tree in make(seed):
            labels = label_tree(tree).labels
            digest.update(labels_to_text({v: lab.to_structured() for v, lab in labels.items()}).encode())
    assert digest.hexdigest() == want
