import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ROOTED_TREE_COUNTS,
    all_labeled_trees,
    all_longest_paths,
    brute_placement_valid,
    brute_rooted_isomorphic,
    extract_subtree,
)
from radiotopo.harness import check_run
from radiotopo.trees import (
    NotInCatalog,
    OrbitInterner,
    Tree,
    TreeError,
    classify_heavy,
    core_subtree,
    enumerate_rooted_trees,
    parse_form,
    parse_tree_text,
    root_at,
    tree_to_text,
)


def path(n):
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def star(k):
    return Tree(k + 1, [(0, i) for i in range(1, k + 1)])


def placed(tree, v, out_tree, out_v):
    """check_run's verdict on the one claim that v is out_v of out_tree."""
    return check_run(tree, {v: (out_tree, out_v)})[v]


@st.composite
def random_trees(draw, max_n=24):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for v in range(1, n):
        edges.append((draw(st.integers(min_value=0, max_value=v - 1)), v))
    return Tree(n, edges)


class TestTreeConstruction:
    def test_rejects_cycle(self):
        with pytest.raises(TreeError):
            Tree(3, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_disconnected(self):
        with pytest.raises(TreeError):
            Tree(4, [(0, 1), (2, 3), (0, 1)])

    @pytest.mark.parametrize(
        "n, edges",
        [(4, [(0, 1), (1, 2), (2, 0)]), (5, [(0, 1), (1, 2), (2, 0), (3, 4)])],
    )
    def test_rejects_cycle_with_tree_edge_count(self, n, edges):
        # n-1 distinct edges, so only the peel's connectivity check can object.
        with pytest.raises(TreeError, match="not connected"):
            Tree(n, edges)

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(TreeError):
            Tree(3, [(0, 1)])

    def test_file_round_trip(self):
        t = path(5)
        assert parse_tree_text(tree_to_text(t)) == t

    def test_file_rejects_garbage(self):
        with pytest.raises(TreeError):
            parse_tree_text("tree 3\n0 1\n1 2\n0 2\n")


class TestCenter:
    def test_odd_length_path_midpoint(self):
        assert path(5).center == (2,)

    def test_even_node_path_edge(self):
        assert path(4).center == (1, 2)

    def test_star_center(self):
        assert star(4).center == (0,)

    @settings(max_examples=60, deadline=None)
    @given(random_trees(max_n=16))
    def test_center_on_every_longest_path(self, tree):
        c = tree.center
        for p in all_longest_paths(tree):
            if len(c) == 1:
                assert c[0] == p[len(p) // 2] or c[0] == p[(len(p) - 1) // 2]
                assert c[0] in p
            else:
                mid = {p[(len(p) - 1) // 2], p[len(p) // 2]}
                assert set(c) == mid

    @settings(max_examples=40, deadline=None)
    @given(random_trees(max_n=16))
    def test_center_parity_matches_diameter(self, tree):
        assert (len(tree.center) == 1) == (tree.diameter % 2 == 0)


class TestTreeRoot:
    def test_even_diameter_center(self):
        assert path(5).root == 2

    def test_odd_diameter_larger_side(self):
        # Path 0..3 with a leaf on node 2: central edge (1,2); side of 2 is bigger.
        t = Tree(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        assert t.root == 2

    def test_odd_tie_smaller_id(self):
        assert path(4).root == 1

    @settings(max_examples=80, deadline=None)
    @given(random_trees())
    def test_peel_matches_brute_force(self, tree):
        ecc = [root_at(tree, v).height for v in range(tree.n)]
        assert tree.diameter == max(ecc)
        assert tree.center == tuple(v for v in range(tree.n) if ecc[v] == min(ecc))
        if len(tree.center) == 1:
            assert tree.root == tree.center[0]
        else:
            u, v = tree.center
            size_v = root_at(tree, u).subtree_size[v]
            size_u = tree.n - size_v
            assert tree.root == (u if size_u >= size_v else v)
        for v in range(tree.n):
            up = tree.peel_parent[v]
            if v in tree.center:
                assert up is None
            else:
                assert up in tree.adjacency[v] and ecc[up] == ecc[v] - 1
        order = tree.peel_order
        assert sorted(order) == list(range(tree.n))
        assert set(order[tree.n - len(tree.center):]) == set(tree.center)


class TestRootAt:
    def test_path_rooted_at_middle(self):
        rt = root_at(path(3), 1)
        assert rt.children[1] == (0, 2)
        assert rt.height == 1

    def test_single_node(self):
        rt = root_at(Tree(1, []), 0)
        assert rt.height == 0 and rt.subtree_size[0] == 1

    def test_path_rooted_at_end(self):
        rt = root_at(path(3), 0)
        assert rt.level == (0, 1, 2) and rt.height == 2

    def test_unknown_root(self):
        with pytest.raises(TreeError):
            root_at(path(3), 7)

    def test_read_orbit_ids_leave_no_reference_cycle(self):
        # Reference counting alone frees a tree whose orbit ids were read.
        gc.disable()
        try:
            tree = path(5)
            assert len(OrbitInterner().orbit_ids(tree)[1]) == tree.n
            ref = weakref.ref(tree)
            del tree
            assert ref() is None
        finally:
            gc.enable()

    @settings(max_examples=40, deadline=None)
    @given(random_trees())
    def test_subtree_sizes_sum(self, tree):
        rt = root_at(tree, 0)
        for v in range(tree.n):
            assert rt.subtree_size[v] == 1 + sum(rt.subtree_size[c] for c in rt.children[v])


class TestCanonicalForms:
    def test_leaf_form(self):
        rt = root_at(path(2), 0)
        assert rt.form(1) == "01"

    def test_two_leaf_root(self):
        rt = root_at(star(2), 0)
        assert rt.form(0) == "001011"

    def test_form_length_is_twice_size(self):
        rt = root_at(star(5), 0)
        assert len(rt.form(0)) == 2 * 6

    def test_class_counts_match_reference_sequence(self):
        # Bucketing every labeled rooted tree by form must give exactly the
        # known number of classes: forms neither merge nor split classes.
        for n in range(1, 7):
            forms = set()
            for tree in all_labeled_trees(n):
                for r in range(n):
                    forms.add(root_at(tree, r).form(r))
            assert len(forms) == ROOTED_TREE_COUNTS[n]

    def test_agrees_with_bruteforce_on_small_pairs(self):
        pool = []
        for n in (3, 4):
            for tree in all_labeled_trees(n):
                for r in range(n):
                    pool.append((tree, r))
        for t1, r1 in pool:
            for t2, r2 in pool:
                if t1.n != t2.n:
                    continue
                same_form = root_at(t1, r1).form(r1) == root_at(t2, r2).form(r2)
                assert same_form == brute_rooted_isomorphic(t1, r1, t2, r2)

    @settings(max_examples=40, deadline=None)
    @given(random_trees(), st.data())
    def test_extracted_subtrees_carry_their_forms(self, tree, data):
        rt = root_at(tree, data.draw(st.integers(0, tree.n - 1)))
        for v in range(tree.n):
            sub = extract_subtree(rt, v)
            assert root_at(sub, 0).form(0) == rt.form(v)


class TestPlacement:
    def test_path_endpoints_equivalent(self):
        t = path(3)
        assert placed(t, 0, t, 2)

    def test_endpoint_vs_midpoint(self):
        t = path(3)
        assert not placed(t, 0, t, 1)

    def test_agrees_with_bijection_oracle(self):
        trees = [path(4), star(3), Tree(5, [(0, 1), (0, 2), (1, 3), (1, 4)]), path(6)]
        for t1 in trees:
            for t2 in trees:
                for v1 in range(t1.n):
                    for v2 in range(t2.n):
                        assert placed(t1, v1, t2, v2) == brute_placement_valid(
                            t1, v1, t2, v2
                        )

    @settings(max_examples=30, deadline=None)
    @given(random_trees(max_n=7), st.data())
    def test_matches_oracle_on_random_pairs(self, tree, data):
        v1 = data.draw(st.integers(min_value=0, max_value=tree.n - 1))
        v2 = data.draw(st.integers(min_value=0, max_value=tree.n - 1))
        assert placed(tree, v1, tree, v2) == brute_placement_valid(tree, v1, tree, v2)

    @settings(max_examples=30, deadline=None)
    @given(random_trees(max_n=40), st.randoms(use_true_random=False))
    def test_orbit_ids_match_pairwise_forms(self, tree, rnd):
        # A shuffled copy gets the same key, and node v of the tree the same
        # sig as its image in the copy.
        perm = list(range(tree.n))
        rnd.shuffle(perm)
        copy = Tree(tree.n, [(perm[u], perm[v]) for u, v in tree.edges])
        ids = OrbitInterner()
        key, sig = ids.orbit_ids(tree)
        copy_key, copy_sig = ids.orbit_ids(copy)
        assert copy_key == key
        assert all(copy_sig[perm[v]] == sig[v] for v in range(tree.n))
        for v in range(min(tree.n, 6)):
            for w in range(min(tree.n, 6)):
                assert (sig[v] == sig[w]) == (
                    root_at(tree, v).form(v) == root_at(tree, w).form(w)
                )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_labeled_pair_matches_bijection_oracle(self, n):
        """Orbit ids, check_run on whole and single claims against
        brute_placement_valid for every pair of (labeled tree, node) on n
        nodes.

        The oracle's relation is an equivalence, so each (tree, node) is
        tested against one member of each oracle class; the class is searched
        only among members whose degree sequence, distances from the node and
        neighbour degrees are equal, which every isomorphism keeps.  With the
        classes known, a verdict on any pair is a verdict on two classes, so
        claims are made against one member of every class, of every shape.
        Single claims are checked for n <= 5 only, to bound the run time.
        """
        trees = list(all_labeled_trees(n))
        ids = OrbitInterner()
        members: list[tuple[Tree, int]] = []  # one (tree, node) per oracle class
        class_ids: list[tuple] = []
        search: dict[tuple, list[int]] = {}
        class_of: dict[tuple[int, int], int] = {}
        for i, tree in enumerate(trees):
            key, sig = ids.orbit_ids(tree)
            degrees = tuple(sorted(tree.degree(u) for u in range(n)))
            for v in range(n):
                invariant = (
                    degrees,
                    tuple(sorted(root_at(tree, v).level)),
                    tuple(sorted(tree.degree(w) for w in tree.adjacency[v])),
                )
                candidates = search.setdefault(invariant, [])
                found = next(
                    (c for c in candidates if brute_placement_valid(tree, v, *members[c])), None
                )
                if found is None:
                    found = len(members)
                    candidates.append(found)
                    members.append((tree, v))
                    class_ids.append((key, sig[v]))
                assert (key, sig[v]) == class_ids[found]
                class_of[i, v] = found
        # Distinct classes get distinct ids, and there is one class per rooted shape.
        assert len(set(class_ids)) == len(members) == ROOTED_TREE_COUNTS[n]
        for i, tree in enumerate(trees):
            for c, (out_tree, out_v) in enumerate(members):
                want = {v: class_of[i, v] == c for v in range(n)}
                assert check_run(tree, {v: (out_tree, out_v) for v in range(n)}) == want
                if n <= 5:
                    assert {v: placed(tree, v, out_tree, out_v) for v in range(n)} == want

    @pytest.mark.parametrize(
        "tree, orbits",
        [
            (path(4), [[0, 3], [1, 2]]),
            # Balanced double star: the central edge's two halves are equal.
            (
                Tree(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]),
                [[0, 1], [2, 3, 4, 5, 6, 7]],
            ),
            # Unbalanced double star: its hubs are not interchangeable.
            (
                Tree(7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6)]),
                [[0], [1], [2, 3, 4], [5, 6]],
            ),
        ],
    )
    def test_central_edge_orbits(self, tree, orbits):
        key, sig = OrbitInterner().orbit_ids(tree)
        assert len(key) == 2  # the center is an edge
        orbit_of = {v: i for i, orbit in enumerate(orbits) for v in orbit}
        # A relabeled copy: the claims cross the halves of the central edge.
        copy = Tree(tree.n, [(tree.n - 1 - u, tree.n - 1 - v) for u, v in tree.edges])
        for v in range(tree.n):
            for w in range(tree.n):
                same = orbit_of[v] == orbit_of[w]
                assert (sig[v] == sig[w]) == same
                assert placed(tree, v, copy, tree.n - 1 - w) == same
        for v in (0, tree.n - 1):  # one node of each half
            for w in range(tree.n):
                assert placed(tree, v, copy, w) == brute_placement_valid(tree, v, copy, w)

    def test_central_edge_needs_both_halves(self):
        # Central edge (0, 4); the halves at 0 and 4 have four nodes and
        # height 2 each.  Nodes 0..3 hang alike in both trees, only the
        # half at 4 differs.
        same = [(0, 4), (0, 1), (1, 2), (0, 3), (4, 5), (5, 6)]
        t1 = Tree(8, same + [(4, 7)])
        t2 = Tree(8, same + [(5, 7)])
        for v in range(4):
            assert not placed(t1, v, t2, v)
            assert not brute_placement_valid(t1, v, t2, v)
        outputs = {v: (t2, v) for v in range(8)}
        assert not any(check_run(t1, outputs).values())


class TestHeavyClassification:
    def test_delta16_leaves_light(self):
        rt = root_at(path(5), 2)
        heavy = classify_heavy(rt, 16)
        assert 0 not in heavy and 4 not in heavy  # leaves: 4*1 < 5
        assert 2 in heavy and 1 in heavy and 3 in heavy

    def test_delta8_everything_heavy(self):
        rt = root_at(path(5), 2)
        assert classify_heavy(rt, 8) == frozenset(range(5))

    @settings(max_examples=40, deadline=None)
    @given(random_trees(), st.sampled_from([3, 8, 16, 255, 4096]))
    def test_root_heavy_and_monotone(self, tree, delta):
        rt = root_at(tree, 0)
        heavy = classify_heavy(rt, delta)
        if 4 * tree.n >= delta.bit_length():
            # Holds whenever delta can actually occur in the tree (n > delta).
            assert rt.root in heavy
        for v in heavy:
            if rt.parent[v] is not None:
                assert rt.parent[v] in heavy


class TestCoreSubtree:
    def test_size_one(self):
        rt = root_at(star(3), 0)
        assert core_subtree(rt, 0, 1) == [0]

    def test_bfs_prefix_prefers_low_ids(self):
        rt = root_at(star(3), 0)
        assert core_subtree(rt, 0, 3) == [0, 1, 2]

    def test_too_small(self):
        rt = root_at(path(3), 0)
        with pytest.raises(TreeError):
            core_subtree(rt, 2, 2)

    @settings(max_examples=40, deadline=None)
    @given(random_trees(), st.integers(min_value=1, max_value=5))
    def test_connected(self, tree, m):
        rt = root_at(tree, 0)
        if rt.subtree_size[0] < m:
            return
        nodes = core_subtree(rt, 0, m)
        picked = set(nodes)
        # Every non-root member's parent is in the set: connectedness.
        for v in nodes[1:]:
            assert rt.parent[v] in picked

    @settings(max_examples=40, deadline=None)
    @given(random_trees(), st.integers(min_value=1, max_value=8), st.data())
    def test_is_the_bfs_prefix_of_the_subtree(self, tree, m, data):
        rt = root_at(tree, 0)
        v = data.draw(st.integers(0, tree.n - 1))
        if rt.subtree_size[v] >= m:
            assert core_subtree(rt, v, m) == rt.subtree_nodes(v)[:m]


class TestShapeCatalog:
    def test_single_node(self):
        cat = enumerate_rooted_trees(1)
        assert len(cat) == 1 and cat.forms == ("01",)

    def test_counts_to_four(self):
        cat = enumerate_rooted_trees(4)
        assert len(cat) == 1 + 1 + 2 + 4

    def test_counts_match_reference(self):
        cat = enumerate_rooted_trees(8)
        by_size = Counter(len(f) // 2 for f in cat.forms)
        for size in range(1, 9):
            assert by_size[size] == ROOTED_TREE_COUNTS[size]

    def test_size_class_bound(self):
        cat = enumerate_rooted_trees(8)
        by_size = Counter(len(f) // 2 for f in cat.forms)
        for size in range(1, 9):
            assert by_size[size] <= 2 ** (2 * (size - 1))

    def test_no_duplicates_and_stable(self):
        a = enumerate_rooted_trees(7)
        b = enumerate_rooted_trees(7)
        assert a.forms == b.forms
        assert len(set(a.forms)) == len(a.forms)

    def test_forms_parse_back(self):
        for f in enumerate_rooted_trees(6).forms:
            assert root_at(parse_form(f), 0).form(0) == f

    def test_empty_catalog(self):
        assert len(enumerate_rooted_trees(0)) == 0

    def test_parse_form_rejects_unbalanced(self):
        with pytest.raises(TreeError):
            parse_form("0011" + "1")


class TestIndexInSequence:
    def test_leaf_is_first(self):
        cat = enumerate_rooted_trees(3)
        rt = root_at(path(4), 0)
        assert cat.index_of_form(rt.form(3)) == 1

    def test_isomorphic_siblings_equal(self):
        cat = enumerate_rooted_trees(3)
        t = Tree(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        rt = root_at(t, 0)
        assert cat.index_of_form(rt.form(1)) == cat.index_of_form(rt.form(2))

    def test_position_bound(self):
        cat = enumerate_rooted_trees(7)
        for form in cat.forms:
            size = len(form) // 2
            assert cat.index_of_form(form) <= 2 ** (2 * size - 1)

    def test_missing_raises(self):
        cat = enumerate_rooted_trees(2)
        rt = root_at(path(5), 0)
        with pytest.raises(NotInCatalog):
            cat.index_of_form(rt.form(0))
