import pytest

from radiotopo.engine import simulate
from radiotopo.generators import SplitMix
from radiotopo.harness import check_run
from radiotopo.labels import LabelKind
from radiotopo.protocol_small import (
    CarrierLabel,
    chunk_len,
    d3_programs,
    label_d3,
    label_star,
    star_programs,
    star_tree,
)
from radiotopo.trees import Tree


def d3_tree(k1, k2):
    """Hub 0 with k1 leaves, hub 1 with k2 leaves."""
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(k1)]
    edges += [(1, 2 + k1 + i) for i in range(k2)]
    return Tree(2 + k1 + k2, edges)


def run(tree, programs, budget=200):
    return simulate(tree, programs, budget)


class TestChunkLen:
    def test_values(self):
        assert chunk_len(3) == 1
        assert chunk_len(8) == 1
        assert chunk_len(16) == 2
        assert chunk_len(256) == 3
        assert chunk_len(4096) == 3
        assert chunk_len(1 << 16) == 4


class TestD3Labels:
    def test_sixteen_with_five_leaves(self):
        # Root side has 15 leaves (degree 16), far hub 5: far chunks "10","1".
        t = d3_tree(15, 5)
        labels = label_d3(t)
        assert labels[0].kind is LabelKind.D3_ROOT
        assert labels[1].kind is LabelKind.D3_HUB
        far = sorted(
            (lab.carrier_id, lab.piece, lab.last)
            for v, lab in labels.items()
            if lab.kind is LabelKind.D3_LEAF and v >= 17
        )
        assert far == [(1, "10", False), (2, "1", True)]

    def test_single_leaf_single_carrier(self):
        t = d3_tree(9, 1)
        labels = label_d3(t)
        carrier = [
            lab for v, lab in labels.items() if v >= 11 and lab.kind is LabelKind.D3_LEAF
        ]
        assert len(carrier) == 1 and carrier[0].last and carrier[0].piece == "1"

    def test_delta3_one_bit_chunks(self):
        t = d3_tree(2, 1)
        labels = label_d3(t)
        for lab in labels.values():
            if lab.kind is LabelKind.D3_LEAF:
                assert len(lab.piece) == 1

    def test_exactly_one_last_flag_per_side(self):
        t = d3_tree(7, 12)
        labels = label_d3(t)
        root_side = [lab for v, lab in labels.items() if 2 <= v < 9]
        far_side = [lab for v, lab in labels.items() if v >= 9]
        for side in (root_side, far_side):
            assert sum(1 for lab in side if lab.kind is LabelKind.D3_LEAF and lab.last) == 1

    def test_wrong_diameter_rejected(self):
        with pytest.raises(ValueError):
            label_d3(star_tree(4))

    def test_structured_round_trip(self):
        labels = label_d3(d3_tree(5, 7))
        for lab in labels.values():
            assert CarrierLabel.from_structured(lab.to_structured()) == lab


class TestD3Protocol:
    def test_example_five_and_fifteen(self):
        # Carrier counts p=q=2 at delta 16: finishes in 5 rounds.
        t = d3_tree(5, 15)
        outputs, transcript, metrics = run(t, d3_programs(label_d3(t)))
        assert metrics.completion_round == 5
        assert all(check_run(t, outputs).values())

    def test_minimal_sides(self):
        t = d3_tree(1, 1)  # degree 2 hubs: not a valid d3 input (delta < 3)
        with pytest.raises(ValueError):
            label_d3(t)

    def test_small_sides_complete_quickly(self):
        t = d3_tree(2, 1)
        outputs, transcript, metrics = run(t, d3_programs(label_d3(t)))
        assert metrics.completion_round <= 4 + 1
        assert all(check_run(t, outputs).values())

    def test_side_transmissions_never_collide_at_hubs(self):
        t = d3_tree(6, 11)
        labels = label_d3(t)
        outputs, transcript, metrics = run(t, d3_programs(labels))
        carriers = {v for v, lab in labels.items() if lab.kind is LabelKind.D3_LEAF}
        for rec in transcript.records.values():
            for tx in rec.transmitters:
                if tx in carriers:
                    hub = t.adjacency[tx][0]
                    assert (hub, tx) in rec.deliveries

    def test_corpus_bound(self):
        rng = SplitMix(3)
        for delta in (8, 64, 512, 4096):
            for _ in range(4):
                k_big = delta - 1
                k_small = rng.randint(1, delta - 1)
                if rng.randint(0, 1):
                    k1, k2 = k_big, k_small
                else:
                    k1, k2 = k_small, k_big
                t = d3_tree(k1, k2)
                labels = label_d3(t)
                outputs, transcript, metrics = run(t, d3_programs(labels))
                c = chunk_len(delta)
                p = -(-(k1.bit_length()) // c)
                q = -(-(k2.bit_length()) // c)
                assert metrics.completion_round <= max(p, q) + 3
                assert all(check_run(t, outputs).values())


class TestStarLabels:
    def test_delta256_k100(self):
        labels = label_star(star_tree(100), 256)
        carriers = sorted(
            (lab.carrier_id, lab.piece, lab.last)
            for lab in labels.values()
            if lab.kind is LabelKind.STAR_LEAF
        )
        assert carriers == [(1, "110", False), (2, "010", False), (3, "0", True)]

    def test_k_above_class_bound_rejected(self):
        with pytest.raises(ValueError):
            label_star(star_tree(9), 8)

    def test_structured_round_trip(self):
        labels = label_star(star_tree(12), 64)
        for lab in labels.values():
            assert CarrierLabel.from_structured(lab.to_structured()) == lab


class TestStarProtocol:
    def test_k100_decodes_at_round_three(self):
        t = star_tree(100)
        programs = star_programs(label_star(t, 256))
        outputs, transcript, metrics = run(t, programs)
        assert transcript.output_round[0] == 3
        assert all(check_run(t, outputs).values())

    def test_k1(self):
        t = star_tree(1)
        outputs, transcript, metrics = run(t, star_programs(label_star(t, 16)))
        assert transcript.output_round[0] == 1
        assert all(check_run(t, outputs).values())

    def test_sweep_bound(self):
        for delta in (8, 64, 256):
            c = chunk_len(delta)
            cap = -(-(delta.bit_length()) // c) + 1
            for k in range(1, delta + 1):
                t = star_tree(k)
                outputs, transcript, metrics = run(t, star_programs(label_star(t, delta)))
                assert metrics.completion_round <= cap, (delta, k)
                assert all(check_run(t, outputs).values())
