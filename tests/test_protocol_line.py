from radiotopo import protocol_line, trees
from radiotopo.engine import simulate
from radiotopo.harness import check_mod3, run_tree
from radiotopo.labels import LabelKind, encode
from radiotopo.protocol_line import (
    LineLabel,
    label_line,
    line_positions,
    line_programs,
    path_tree,
    stride_for,
)
from radiotopo.trees import Tree


def run_line(k, budget=None):
    tree = path_tree(k)
    labels = label_line(tree)
    outputs, transcript, metrics = simulate(
        tree, line_programs(labels), budget or (12 * stride_for(max(k, 1)) + 40)
    )
    return labels, outputs, transcript, metrics


class TestLabeling:
    def test_k20_layout(self):
        labels = label_line(path_tree(20))
        types = {pos: labels[pos - 1].node_type for pos in range(1, 22)}
        assert types[1] == 1
        assert types[7] == 0 and types[21] == 0
        for pos in range(2, 7):
            assert types[pos] == 2
        for pos in range(8, 21):
            assert types[pos] == 3
        k_bits = "".join(labels[pos - 1].k_bit for pos in range(2, 7))
        seg_bits = "".join(labels[pos - 1].seg_bit for pos in range(2, 7))
        assert k_bits == "10100" and seg_bits == "00000"

    def test_k100_ten_starters(self):
        labels = label_line(path_tree(100))
        starters = [v for v, lab in labels.items() if lab.node_type == 1]
        assert len(starters) == 10
        assert sorted(starters) == [9 * j for j in range(10)]  # positions 9j+1

    def test_tiny_mode(self):
        labels = label_line(path_tree(2))
        assert all(lab.kind is LabelKind.LINE_TINY for lab in labels.values())
        assert max(len(encode(lab.to_structured())) for lab in labels.values()) <= 24

    def test_boundary_count(self):
        for k in (12, 30, 100, 257):
            labels = label_line(path_tree(k))
            stride = stride_for(k)
            boundaries = [v for v, lab in labels.items() if lab.node_type == 0]
            segs = k // stride
            assert len(boundaries) == max(segs - 1, 0) + 1
            assert k in boundaries  # position k+1 is node id k

    def test_bit_reconstruction_per_segment(self):
        for k in (21, 64, 100, 300):
            labels = label_line(path_tree(k))
            stride = stride_for(k)
            width = k.bit_length()
            for j in range(max(k // stride - 1, 1) if k >= 2 * stride else 1):
                ks = "".join(labels[j * stride + i].k_bit for i in range(1, width + 1))
                js = "".join(labels[j * stride + i].seg_bit for i in range(1, width + 1))
                assert int(ks, 2) == k
                assert int(js, 2) == j

    def test_mod3_field(self):
        labels = label_line(path_tree(40))
        for node, lab in labels.items():
            assert lab.pos_mod3 == (node + 1) % 3

    def test_constant_length(self):
        for k in (1, 2, 5, 100, 1 << 12, 1 << 20):
            labels = set(label_line(path_tree(k)).values())
            assert max(len(encode(lab.to_structured())) for lab in labels) <= 24

    def test_equal_labels_are_one_object(self):
        # A long line has a handful of distinct labels, each built once.
        labels = label_line(path_tree(1 << 12)).values()
        assert len({id(lab) for lab in labels}) == len(set(labels))

    def test_structured_round_trip(self):
        for k in (2, 30):
            for lab in label_line(path_tree(k)).values():
                assert LineLabel.from_structured(lab.to_structured()) == lab

    def test_positions_orientation(self):
        assert line_positions(path_tree(4)) == [0, 1, 2, 3, 4]

    def test_positions_follow_the_edges_from_the_smaller_endpoint(self):
        order = [5, 3, 11, 0, 8, 1, 9, 2, 10, 4, 7, 6]
        assert line_positions(Tree(12, zip(order, order[1:]))) == order
        assert line_positions(Tree(2, [(1, 0)])) == [0, 1]
        assert line_positions(Tree(1, [])) == [0]

    def test_a_line_run_roots_only_its_input_and_output_trees(self, monkeypatch):
        rooted, root_at = [], trees.root_at

        def counted(tree, root):
            rooted.append((tree.n, root))
            return root_at(tree, root)

        for module in (trees, protocol_line):
            if hasattr(module, "root_at"):
                monkeypatch.setattr(module, "root_at", counted)
        assert run_tree(path_tree(64)).report.ok
        assert rooted == [(65, 32), (65, 32)]


class TestProtocol:
    def test_k20_exact_positions(self):
        labels, outputs, transcript, metrics = run_line(20)
        for node in range(21):
            tree, pos = outputs[node]
            assert tree.n == 21 and pos == node
        assert metrics.completion_round <= 12 * stride_for(20)

    def test_tiny_lines(self):
        for k in (1, 2, 3):
            labels, outputs, transcript, metrics = run_line(k)
            for node in range(k + 1):
                tree, pos = outputs[node]
                assert tree.n == k + 1 and pos == node
            assert check_mod3(transcript, labels) == []

    def test_sweep_positions_exact(self):
        for k in range(4, 130):
            labels, outputs, transcript, metrics = run_line(k)
            for node in range(k + 1):
                tree, pos = outputs[node]
                assert tree.n == k + 1 and pos == node, (k, node, pos)
            assert check_mod3(transcript, labels) == []

    def test_spot_large(self):
        for k in (256, 400, 512):
            labels, outputs, transcript, metrics = run_line(k)
            assert all(outputs[node][1] == node for node in range(k + 1))
            assert metrics.completion_round <= 12 * stride_for(k)
            assert check_mod3(transcript, labels) == []

    def test_each_run_builds_its_own_output_tree(self):
        # A run's nodes share one tree, so checking the outputs stays linear;
        # no tree outlives its run.
        for k in (3, 40):
            first, second = run_line(k)[1], run_line(k)[1]  # both alive: ids stay unique
            first_ids = {id(tree) for tree, _ in first.values()}
            second_ids = {id(tree) for tree, _ in second.values()}
            assert len(first_ids) == len(second_ids) == 1
            assert first_ids.isdisjoint(second_ids)

    def test_single_residue_per_round(self):
        labels, outputs, transcript, _ = run_line(50)
        for rec in transcript.records.values():
            residues = {(tx + 1) % 3 for tx in rec.transmitters}
            assert len(residues) <= 1

    def test_injected_off_phase_transmit_flagged(self):
        labels, outputs, transcript, _ = run_line(30)
        from radiotopo.engine import RoundRecord

        extra = transcript.rounds + 1
        bad = {**transcript.records, extra: RoundRecord(transmitters=(0, 1), deliveries=())}
        import dataclasses

        broken = dataclasses.replace(transcript, records=bad, rounds=extra)
        assert check_mod3(broken, labels)
