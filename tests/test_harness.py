import dataclasses

import pytest

from radiotopo.cli import main as cli_main
from radiotopo.engine import RoundRecord
from radiotopo.generators import family_feasibility, random_tree
from radiotopo.harness import (
    CSV_HEADER,
    PROTOCOLS,
    check_run,
    check_tr_delivery,
    dispatch_protocol,
    parse_config,
    pigeonhole_certificate,
    run_experiment,
    run_tree,
    scaling_witness,
    structured_labels_for,
    view_collision_search,
    view_of_root,
)
from radiotopo.labels import LabelKind, encode
from radiotopo.protocol_line import path_tree
from radiotopo.protocol_small import star_tree
from radiotopo.trees import Tree, tree_to_text


class TestDispatch:
    def test_line_wins_for_degree_two(self):
        assert dispatch_protocol(path_tree(9)) == "line"
        assert dispatch_protocol(path_tree(2)) == "line"  # diameter 2 but degree 2

    def test_star(self):
        assert dispatch_protocol(star_tree(5)) == "star"

    def test_d3(self):
        t = Tree(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
        assert dispatch_protocol(t) == "d3"

    def test_main(self):
        assert dispatch_protocol(random_tree(3, 4, 1)) == "main"

    def test_total_and_exclusive_over_grid(self):
        seen = set()
        for delta in (2, 3, 8):
            for diameter in (2, 3, 4, 7):
                try:
                    t = random_tree(delta, diameter, 1)
                except Exception:
                    continue
                seen.add(dispatch_protocol(t))
        assert seen == {"line", "star", "d3", "main"}


class TestProtocolTable:
    TREES = {
        "line": path_tree(9),
        "star": star_tree(5),
        "d3": Tree(7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6)]),
        "main": random_tree(4, 5, 2),
    }

    def test_every_kind_has_one_owner(self):
        owners = {kind: [p.name for p in PROTOCOLS.values() if kind in p.kinds] for kind in LabelKind}
        assert all(len(names) == 1 for names in owners.values()), owners

    @pytest.mark.parametrize("proto", ["line", "star", "d3", "main"])
    def test_preset_labels_give_the_same_run(self, proto):
        tree = self.TREES[proto]
        art = run_tree(tree)
        again = run_tree(tree, preset_labels=art.structured)
        assert art.report.protocol == again.report.protocol == proto
        assert again.report.csv_row() == art.report.csv_row()
        assert again.transcript.to_text() == art.transcript.to_text()
        assert again.report.checks == art.report.checks
        assert again.windows == art.windows

    def test_preset_labels_for_another_protocol_rejected(self):
        art = run_tree(self.TREES["star"])
        with pytest.raises(ValueError):
            run_tree(self.TREES["star"], protocol="line", preset_labels=art.structured)


class TestCheckRun:
    def test_correct_run_all_true(self):
        t = path_tree(4)
        art = run_tree(t)
        assert all(art.report.node_valid.values())

    def test_moved_placement_detected(self):
        t = path_tree(4)
        art = run_tree(t)
        outputs = dict(art.outputs)
        tree0, place0 = outputs[0]  # endpoint
        outputs[0] = (tree0, 2)  # middle is not equivalent to an endpoint
        assert check_run(t, outputs)[0] is False

    def test_missing_output_fails(self):
        t = path_tree(3)
        art = run_tree(t)
        outputs = dict(art.outputs)
        del outputs[1]
        verdicts = check_run(t, outputs)
        assert verdicts[1] is False


class TestTrDelivery:
    def test_clean_run(self):
        t = random_tree(8, 6, 1)
        art = run_tree(t)
        assert art.report.checks["tr_delivery"]

    def test_synthetic_sibling_clash_flagged(self):
        t = random_tree(8, 6, 1)
        art = run_tree(t)
        lo, hi = art.windows["collect"]
        # Two siblings transmitting with no delivery to the parent.
        rt = art.labeled.rooted
        v = next(
            u for u in range(t.n) if rt.parent[u] is not None and rt.parent[u] != rt.root
        )
        records = list(art.transcript.records)
        records[lo - 1] = RoundRecord(transmitters=(v,), deliveries=())
        broken = dataclasses.replace(art.transcript, records=records)
        assert check_tr_delivery(broken, art.labeled, (lo, hi)) == [(lo, v)]


class TestViews:
    def test_all_empty_labels_collide(self):
        trees = family_feasibility(8)
        labelings = [{v: "" for v in range(t.n)} for t in trees]
        assert view_collision_search(trees, labelings) == (0, 1)

    def test_full_labels_distinguish(self):
        trees = family_feasibility(64)
        labelings = []
        for t in trees:
            structured, _ = structured_labels_for(t, "d3")
            labelings.append({v: encode(s) for v, s in structured.items()})
        assert view_collision_search(trees, labelings) is None

    def test_one_bit_truncation_collides_at_64(self):
        trees = family_feasibility(64)
        labelings = []
        for t in trees:
            structured, _ = structured_labels_for(t, "d3")
            labelings.append({v: encode(s)[:1] for v, s in structured.items()})
        hit = view_collision_search(trees, labelings)
        assert hit is not None
        a, b = hit
        assert trees[a].n != trees[b].n  # genuinely non-isomorphic members

    def test_view_fields(self):
        trees = family_feasibility(8)
        t = trees[0]
        labels = {v: format(v % 3, "b") for v in range(t.n)}
        view = view_of_root(t, labels)
        assert view.hub_label == labels[0]
        assert view.far_label == labels[1]


class TestPigeonhole:
    def test_reference_instance(self):
        cert = pigeonhole_certificate(2**36, 2)
        assert cert.views_upper_bound == 2**22
        assert cert.family_size == 2**35
        assert not cert.separable

    def test_generous_labels_separable(self):
        assert pigeonhole_certificate(2**36, 36).separable

    def test_monotone_in_label_bits(self):
        flags = [pigeonhole_certificate(2**36, b).separable for b in range(1, 40)]
        assert all(not (a and not b) for a, b in zip(flags, flags[1:]))


class TestScalingWitness:
    def test_shape(self):
        t = scaling_witness(64)
        assert t.diameter == 8 and t.max_degree == 64

    def test_flat_growth(self):
        bits = {}
        from radiotopo.scheme import label_tree

        for e in (4, 8, 12, 16):
            lb = label_tree(scaling_witness(1 << e))
            bits[e] = max(len(encode(lab.to_structured())) for lab in lb.labels.values())
        assert bits[16] - bits[4] <= 12


class TestBatch:
    CONFIG = "family=random\ndelta=3,4\ndiameter=4,6\nseeds=1..2\n"

    def test_parse_config(self):
        cfg = parse_config("delta=3,4\ndelta=8\ndiameter=4\nseeds=1..3\n# comment\n")
        assert cfg["delta"] == [3, 4, 8]
        assert cfg["seeds"] == [1, 2, 3]
        assert cfg["family"] == ["random"]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_config("what is this\n")

    def test_rows_and_pass(self):
        csv_text, ok = run_experiment(self.CONFIG)
        lines = csv_text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 8
        assert ok

    def test_byte_identical_rerun(self):
        a, _ = run_experiment(self.CONFIG)
        b, _ = run_experiment(self.CONFIG)
        assert a == b

    def test_thirty_row_sweep(self):
        csv_text, ok = run_experiment("delta=3,4,8\ndiameter=4,6\nseeds=1..5\n")
        rows = csv_text.strip().splitlines()[1:]
        assert len(rows) == 30
        assert ok
        assert all(row.endswith(",1") for row in rows)

    def test_mixed_families(self):
        csv_text, ok = run_experiment("family=lines\nfamily=stars\ndelta=6\ndiameter=5\n")
        assert ok
        assert "line" in csv_text and "star" in csv_text


class TestCli:
    def test_end_to_end_files(self, tmp_path, capsys):
        tree_file = tmp_path / "t.tree"
        tree_file.write_text(tree_to_text(random_tree(3, 4, 1)))
        labels = tmp_path / "t.labels"
        truth = tmp_path / "t.truth"
        assert cli_main(["label", "--tree", str(tree_file), "--out", str(labels), "--truth", str(truth)]) == 0
        transcript = tmp_path / "t.transcript"
        outputs = tmp_path / "t.out"
        code = cli_main(
            [
                "run",
                "--tree",
                str(tree_file),
                "--transcript",
                str(transcript),
                "--outputs",
                str(outputs),
            ]
        )
        assert code == 0
        code = cli_main(
            [
                "verify",
                "--tree",
                str(tree_file),
                "--labels",
                str(labels),
                "--transcript",
                str(transcript),
                "--outputs",
                str(outputs),
            ]
        )
        assert code == 0

    def test_run_with_preset_labels(self, tmp_path):
        tree_file = tmp_path / "t.tree"
        tree_file.write_text(tree_to_text(random_tree(4, 5, 2)))
        labels = tmp_path / "t.labels"
        assert cli_main(["label", "--tree", str(tree_file), "--out", str(labels)]) == 0
        assert cli_main(["run", "--tree", str(tree_file), "--labels", str(labels)]) == 0

    def test_gen_and_batch(self, tmp_path):
        outdir = tmp_path / "trees"
        assert cli_main(
            ["gen", "--family", "random", "--delta", "3", "--diameter", "4", "--seed", "1", "--count", "2", "--out", str(outdir)]
        ) == 0
        assert len(list(outdir.iterdir())) == 2
        config = tmp_path / "sweep.cfg"
        config.write_text("delta=3\ndiameter=4\nseeds=1..2\n")
        out_csv = tmp_path / "out.csv"
        assert cli_main(["batch", "--config", str(config), "--out", str(out_csv)]) == 0
        assert out_csv.read_text().startswith(CSV_HEADER)

    def test_bounds(self, capsys):
        assert cli_main(["bounds", "--delta", str(2**36), "--label-bits", "2"]) == 0
        out = capsys.readouterr().out
        assert "separable false" in out

    def test_bad_tree_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.tree"
        bad.write_text("tree 3\n0 1\n0 1\n")
        assert cli_main(["run", "--tree", str(bad)]) == 2

    def record(self, tmp_path, tree, name="t"):
        """Label and run a tree through the command line; the file paths."""
        files = {k: str(tmp_path / f"{name}.{k}") for k in ("tree", "labels", "transcript", "outputs")}
        (tmp_path / f"{name}.tree").write_text(tree_to_text(tree))
        assert cli_main(["label", "--tree", files["tree"], "--out", files["labels"]]) == 0
        recorded = ["--transcript", files["transcript"], "--outputs", files["outputs"]]
        assert cli_main(["run", "--tree", files["tree"], "--labels", files["labels"], *recorded]) == 0
        return files

    def verify(self, files, **override):
        f = {**files, **override}
        argv = ["verify"] + [x for k in ("tree", "labels", "transcript", "outputs") for x in (f"--{k}", f[k])]
        return cli_main(argv)

    def test_single_node_round_trip(self, tmp_path):
        files = self.record(tmp_path, Tree(1, []))
        assert (tmp_path / "t.outputs").read_text() == "0 0 1 \n"
        assert self.verify(files) == 0

    def test_verify_reads_protocol_from_labels(self, tmp_path, capsys):
        star = self.record(tmp_path, star_tree(6), "star")
        line = self.record(tmp_path, path_tree(20), "line")
        assert self.verify(star) == 0
        assert self.verify(star, labels=line["labels"]) == 1
        assert "labels are not for the nodes 0..6" in capsys.readouterr().out

    def test_verify_rejects_labels_of_another_shape(self, tmp_path, capsys):
        main_tree = random_tree(3, 4, 1)
        k = main_tree.n - 3  # a two-hub tree on as many nodes
        two_hub = Tree(main_tree.n, [(0, 1), (1, 2)] + [(0, 3 + i) for i in range(k)])
        main = self.record(tmp_path, main_tree, "main")
        d3 = self.record(tmp_path, two_hub, "d3")
        assert self.verify(d3, labels=main["labels"]) == 1
        assert "labels do not fit the tree" in capsys.readouterr().out

    def test_verify_bad_transcript_exit_2(self, tmp_path):
        files = self.record(tmp_path, path_tree(6))
        (tmp_path / "t.transcript").write_text("X1 T: D:\n")
        assert self.verify(files) == 2

    def test_verify_detects_tampered_outputs(self, tmp_path):
        tree_file = tmp_path / "t.tree"
        tree_file.write_text(tree_to_text(path_tree(6)))
        labels = tmp_path / "t.labels"
        cli_main(["label", "--tree", str(tree_file), "--out", str(labels)])
        transcript = tmp_path / "t.transcript"
        outputs = tmp_path / "t.out"
        cli_main(
            ["run", "--tree", str(tree_file), "--transcript", str(transcript), "--outputs", str(outputs)]
        )
        lines = outputs.read_text().splitlines()
        first = lines[0].split()
        first[1] = "3"  # endpoint claims an interior position
        lines[0] = " ".join(first)
        outputs.write_text("\n".join(lines) + "\n")
        code = cli_main(
            [
                "verify",
                "--tree",
                str(tree_file),
                "--labels",
                str(labels),
                "--transcript",
                str(transcript),
                "--outputs",
                str(outputs),
            ]
        )
        assert code == 1
