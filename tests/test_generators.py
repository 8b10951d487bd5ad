from itertools import product

import pytest

from radiotopo.generators import (
    FAMILIES,
    FAMILY_TABLE,
    GenSpec,
    InfeasibleFamily,
    SplitMix,
    family_deg_lb,
    family_diam_lb,
    family_feasibility,
    family_lines,
    family_sticks,
    family_stars,
    generate,
    random_tree,
)
from radiotopo.harness import config_runs, parse_config


class TestSplitMix:
    def test_deterministic(self):
        a = SplitMix(42)
        b = SplitMix(42)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_range(self):
        rng = SplitMix(1)
        for _ in range(200):
            x = rng.randint(3, 7)
            assert 3 <= x <= 7


class TestRandomTree:
    def test_delta2_is_path(self):
        for seed in (1, 5, 9):
            t = random_tree(2, 5, seed)
            assert t.n == 6 and t.max_degree == 2 and t.diameter == 5

    def test_exact_parameters(self):
        t = random_tree(3, 4, 1)
        assert t.max_degree == 3 and t.diameter == 4

    def test_deterministic(self):
        assert random_tree(6, 7, 3).edges == random_tree(6, 7, 3).edges

    def test_grid(self):
        for delta in (3, 8, 16, 64):
            for diameter in (4, 5, 6, 11, 20):
                for seed in (1, 2):
                    t = random_tree(delta, diameter, seed)
                    assert t.max_degree == delta and t.diameter == diameter

    def test_infeasible(self):
        with pytest.raises(InfeasibleFamily):
            random_tree(1, 4, 0)
        with pytest.raises(InfeasibleFamily):
            random_tree(3, 1, 0)


class TestFeasibilityFamily:
    def test_delta6_sizes(self):
        fam = family_feasibility(6)
        assert len(fam) == 3  # i = 3, 4, 5

    def test_family_size_bound(self):
        for delta in (4, 9, 16, 33, 64):
            assert 2 * len(family_feasibility(delta)) >= delta

    def test_degrees(self):
        for i, t in enumerate(family_feasibility(8), start=4):
            assert t.degree(0) == 8
            assert t.degree(1) == i + 1
            assert t.max_degree == 8


class TestSticks:
    def test_diameter_and_degree_exact(self):
        for delta, diameter in [(3, 6), (4, 8), (8, 14), (5, 9), (3, 7)]:
            for t in family_sticks(delta, diameter, seed=2, count=2):
                assert t.diameter == diameter
                assert t.max_degree == delta

    def test_same_seed_identical(self):
        a = family_sticks(4, 10, seed=5, count=3)
        b = family_sticks(4, 10, seed=5, count=3)
        assert [t.edges for t in a] == [t.edges for t in b]

    def test_desk_scale_guard(self):
        with pytest.raises(InfeasibleFamily):
            family_sticks(9, 8, 1, 1)
        with pytest.raises(InfeasibleFamily):
            family_sticks(4, 20, 1, 1)


class TestLowerBoundFamilies:
    def test_diam_lb_exact(self):
        for delta, diameter in [(3, 8), (4, 6), (3, 13)]:
            for t in family_diam_lb(diameter, delta, seed=1, count=2):
                assert t.diameter == diameter and t.max_degree == delta
        # The tips once shared a level-1 node for some seeds (diameter 5 for 6).
        for delta, diameter, seed in product(range(3, 7), range(4, 10), range(1, 7)):
            for t in family_diam_lb(diameter, delta, seed=seed, count=2):
                assert (t.diameter, t.max_degree) == (diameter, delta)

    def test_deg_lb_exact_and_leaf_ranges(self):
        trees = family_deg_lb(6, 4, seed=1, count=3)
        line_end = 4 - 3  # construction: nodes 0..D-3 form the line, hub next
        hub = line_end + 1
        for t in trees:
            assert t.diameter == 4 and t.max_degree == 6
            for spoke in t.adjacency[hub]:
                if spoke == line_end:
                    continue
                leaves = t.degree(spoke) - 1
                assert 3 <= leaves <= 5

    def test_lines_lengths(self):
        fam = family_lines(10)
        assert [t.n - 1 for t in fam] == [6, 7, 8, 9, 10]

    def test_stars_degrees(self):
        fam = family_stars(8)
        assert [t.n - 1 for t in fam] == [5, 6, 7, 8]


class TestGenerate:
    def test_dispatch(self):
        assert len(generate(GenSpec("random", delta=3, diameter=4, seed=1, count=2))) == 2
        assert len(generate(GenSpec("lines", diameter=6))) == 3

    def test_unknown_family(self):
        with pytest.raises(InfeasibleFamily):
            generate(GenSpec("nope"))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_builds_and_batches(self, family):
        spec = GenSpec(family, delta=4, diameter=8, seed=1)
        assert generate(spec)
        config = parse_config(f"family={family}\ndelta=4\ndiameter=8\nseeds=1\n")
        runs = list(config_runs(config))
        assert [tree.edges for _, tree, _, _ in runs] == [t.edges for t in generate(spec)]
        assert {(fam, star_delta) for fam, _, star_delta, _ in runs} == {
            (family, 4 if "delta" in FAMILY_TABLE[family].axes else None)
        }

    def test_unknown_family_fails_the_batch(self):
        with pytest.raises(ValueError, match="unknown family 'nope'"):
            list(config_runs(parse_config("family=nope\ndelta=4\n")))
