import dataclasses
import gc
import io
import random
import tracemalloc
import weakref
from collections import Counter
from itertools import zip_longest

import pytest

from radiotopo import harness, protocol_main, scheme, trees
from radiotopo import labels as codec
from radiotopo.cli import main as cli_main
from radiotopo.engine import RoundRecord, RunFailed
from radiotopo.generators import family_feasibility, random_tree
from radiotopo.harness import (
    CSV_HEADER,
    PROTOCOLS,
    check_run,
    check_tr_delivery,
    config_runs,
    dispatch_protocol,
    outputs_to_text,
    parse_config,
    recording_faults,
    pigeonhole_certificate,
    run_experiment,
    run_tree,
    scaling_witness,
    structured_labels_for,
    view_collision_search,
    view_of_root,
)
from radiotopo.labels import (
    LabelKind,
    MalformedLabel,
    StructuredLabel,
    encode,
    labels_from_text,
    labels_to_text,
)
from radiotopo.protocol_line import path_tree
from radiotopo.protocol_main import phase_windows
from radiotopo.protocol_small import star_tree
from radiotopo.scheme import MainLabel, label_tree
from radiotopo.trees import Tree, TreeError, parse_tree_text, tree_to_text


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

    @pytest.mark.parametrize("node, old, new, ok", [(7, "10", "00", False), (2, "00", "11", True)])
    def test_mod3_judges_true_residues_not_the_labels(self, node, old, new, ok):
        # Field 3 of a line label is pos_mod3.  Either edit still places every
        # node of path_tree(40); node 7's makes one round's transmitters
        # straddle true residues, node 2's keeps them apart though it lies.
        tree = path_tree(40)
        labels = dict(run_tree(tree).structured)
        lab = labels[node]
        assert lab.fields[3] == old
        labels[node] = StructuredLabel(lab.kind, lab.fields[:3] + (new,))
        art = run_tree(tree, preset_labels=labels)
        assert all(art.report.node_valid.values())
        assert art.report.checks == {"mod3": ok}


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

    @pytest.mark.parametrize(
        "make",
        [lambda: path_tree(9), lambda: star_tree(9), lambda: random_tree(16, 6, 1)],
        ids=["line", "small", "main"],
    )
    def test_run_frees_its_trees_without_the_cyclic_collector(self, make):
        # Reference counting alone frees the input tree and every output tree.
        gc.disable()
        try:
            tree = make()
            art = run_tree(tree)
            outs = {id(t): t for t, _ in art.outputs.values()}
            refs = [weakref.ref(t) for t in [tree, *outs.values()]]
            del tree, art, outs
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "tree",
        [path_tree(9), star_tree(5), Tree(5, [(0, 1), (0, 2), (1, 3), (1, 4)]), random_tree(16, 6, 1)],
        ids=["line", "star", "d3", "main"],
    )
    def test_check_run_roots_no_tree(self, monkeypatch, tree):
        # The orbit ids read each tree's leaf peel, not a rooted view.
        outputs = run_tree(tree).outputs
        rooted, root_at = [], trees.root_at

        def counted(tree, root):
            rooted.append((tree.n, root))
            return root_at(tree, root)

        for module in (trees, scheme, protocol_main):
            monkeypatch.setattr(module, "root_at", counted)
        assert all(check_run(tree, outputs).values())
        assert rooted == []

    @pytest.mark.parametrize("tree", [path_tree(9), random_tree(4, 5, 2)])
    def test_equal_separate_trees_same_verdicts(self, tree):
        art = run_tree(tree)
        shared = dict(art.outputs)
        v = next(u for u in range(tree.n) if tree.degree(u) == 1)
        out_tree, _ = shared[v]
        # A leaf claims a node of a different degree.
        shared[v] = (out_tree, next(u for u in range(tree.n) if out_tree.degree(u) > 1))
        separate = {u: (Tree(t.n, t.edges), place) for u, (t, place) in shared.items()}
        assert len({id(t) for t, _ in separate.values()}) == tree.n
        verdicts = check_run(tree, shared)
        assert check_run(tree, separate) == verdicts
        assert [u for u, good in verdicts.items() if not good] == [v]


class TestTrDelivery:
    def test_clean_run(self):
        t = random_tree(8, 6, 1)
        art = run_tree(t)
        assert art.report.checks["tr_delivery"]

    def test_synthetic_sibling_clash_flagged(self):
        t = random_tree(8, 6, 1)
        art = run_tree(t)
        lb = art.labeled
        lo, hi = phase_windows(lb.params.core_size, lb.rooted.height, lb.params.block_len)["collect"]
        # Two siblings transmitting with no delivery to the parent.
        rt = lb.rooted
        v = next(
            u for u in range(t.n) if rt.parent[u] is not None and rt.parent[u] != rt.root
        )
        records = {**art.transcript.records, lo: RoundRecord(transmitters=(v,), deliveries=())}
        records = dict(sorted(records.items()))  # in round order, as the engine records them
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

    @pytest.mark.parametrize("line", ["count=2", "seeds=5..1"])
    def test_unread_count_and_empty_range_exit_2(self, tmp_path, line):
        with pytest.raises(ValueError):
            parse_config(f"delta=3\ndiameter=4\n{line}\n")
        config = tmp_path / "sweep.cfg"
        config.write_text(f"delta=3\ndiameter=4\n{line}\n")
        out_csv = tmp_path / "out.csv"
        assert cli_main(["batch", "--config", str(config), "--out", str(out_csv)]) == 2
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "grid, feasible",
        [
            ("family=stars\ndelta=2,3\n", "family=stars\ndelta=3\n"),
            ("family=feas\ndelta=2,4\n", "family=feas\ndelta=4\n"),
            ("family=lines\ndiameter=1,4\n", "family=lines\ndiameter=4\n"),
            # Below the families' minimum diameter and above their desk-scale sizes.
            ("family=diamLB\ndelta=3\ndiameter=3,4,28\n", "family=diamLB\ndelta=3\ndiameter=4\n"),
            ("family=degLB\ndelta=4,65\ndiameter=3,4\n", "family=degLB\ndelta=4\ndiameter=4\n"),
        ],
    )
    def test_infeasible_values_are_skipped(self, grid, feasible):
        csv_text, ok = run_experiment(grid)
        assert ok and csv_text.count("\n") > 1
        assert (csv_text, ok) == run_experiment(feasible)

    def test_failed_run_becomes_a_failing_row(self, monkeypatch):
        real = harness.simulate

        def simulate(tree, programs, budget):
            if tree.n == 9:  # random_tree(3, 4, 2)
                raise RunFailed("stalled")
            return real(tree, programs, budget)

        monkeypatch.setattr(harness, "simulate", simulate)
        csv_text, ok = run_experiment("family=random\ndelta=3\ndiameter=4\nseeds=1..2\n")
        assert csv_text == f"{CSV_HEADER}\nrandom,3,4,6,1,main,35,50,1\nrandom,3,4,9,2,main,0,0,0\n"
        assert ok is False

    def test_each_distinct_label_value_is_converted_once_per_batch(self, monkeypatch):
        # The sweep grid with seeds 17..32: its 7,244 main-protocol nodes
        # carry 76 distinct labels across the whole batch.
        sweep = (
            "family=random\nfamily=sticks\ndelta=3,4,8,16\ndiameter=4,6,8\n"
            "seeds=17..32\nfamily=lines\nfamily=stars\n"
        )
        for table in (scheme._main_label, harness._structured_label, encode,
                      harness._decoded_label):
            table.cache_clear()
        calls = Counter()

        class CountedTags(dict):
            """encode's kind-tag table: read once per label it encodes."""

            def __getitem__(self, kind):
                if kind is LabelKind.MAIN_SCHEME:
                    calls["encode"] += 1
                return super().__getitem__(kind)

        def counted(name, fn):
            def wrapper(label):
                calls[name] += 1
                return fn(label)

            return wrapper

        monkeypatch.setattr(
            MainLabel, "to_structured", counted("to_structured", MainLabel.to_structured)
        )
        monkeypatch.setattr(
            MainLabel,
            "from_structured",
            staticmethod(counted("from_structured", MainLabel.from_structured)),
        )
        monkeypatch.setattr(codec, "_KIND_TAG", CountedTags(codec._KIND_TAG))
        _, ok = run_experiment(sweep)
        assert ok
        trees = [t for _, t, _, _ in config_runs(parse_config(sweep)) if dispatch_protocol(t) == "main"]
        labels = [lab for t in trees for lab in label_tree(t).labels.values()]
        distinct = len(set(labels))
        assert (len(labels), distinct) == (7244, 76)
        assert len({id(lab) for lab in labels}) == distinct  # one object per value
        assert calls == {"to_structured": distinct, "from_structured": distinct, "encode": distinct}

    def test_equal_labels_from_two_runs_share_one_object(self):
        a, b = run_tree(random_tree(8, 6, 1)), run_tree(random_tree(8, 6, 2))
        for first, second in (
            ([p.label for p in a.programs.values()], [p.label for p in b.programs.values()]),
            (list(a.structured.values()), list(b.structured.values())),
        ):
            equal = [(x, y) for x in first for y in second if x == y]
            assert equal
            assert all(x is y for x, y in equal)

    def test_malformed_label_is_rejected_on_every_run(self):
        tree = random_tree(8, 6, 1)
        labels = dict(run_tree(tree).structured)
        fields = labels[3].fields
        labels[3] = StructuredLabel(labels[3].kind, fields[:10] + ("",))
        for _ in range(2):
            with pytest.raises(MalformedLabel, match="node 3: main-scheme core-size field is empty"):
                run_tree(tree, preset_labels=labels)


class TestCli:
    def test_usage_errors_exit_2_and_help_exits_0(self, capsys):
        assert cli_main([]) == 2
        assert cli_main(["run"]) == 2  # no --tree
        assert cli_main(["run", "--help"]) == 0
        assert "--tree" in capsys.readouterr().out

    def test_end_to_end_files(self, tmp_path, capsys):
        tree_file = tmp_path / "t.tree"
        tree_file.write_text(tree_to_text(random_tree(3, 4, 1)))
        labels = tmp_path / "t.labels"
        assert cli_main(["label", "--tree", str(tree_file), "--out", str(labels)]) == 0
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

    def test_run_rejects_short_markers_field(self, tmp_path, capsys):
        tree_file = tmp_path / "t.tree"
        tree_file.write_text(tree_to_text(random_tree(8, 6, 1)))
        labels = tmp_path / "t.labels"
        assert cli_main(["label", "--tree", str(tree_file), "--out", str(labels)]) == 0
        structured = labels_from_text(labels.read_text())
        fields = structured[0].fields
        structured[0] = StructuredLabel(structured[0].kind, (fields[0][:3],) + fields[1:])
        labels.write_text(labels_to_text(structured))
        capsys.readouterr()
        assert cli_main(["run", "--tree", str(tree_file), "--labels", str(labels)]) == 2
        assert "markers field '" in capsys.readouterr().err

    def test_run_root_without_degree_share_fails_cleanly(self, tmp_path, capsys):
        # Node 3 is the root and the whole core group of random_tree(8, 6, 1).
        tree_file = tmp_path / "t.tree"
        tree_file.write_text(tree_to_text(random_tree(8, 6, 1)))
        labels = tmp_path / "t.labels"
        assert cli_main(["label", "--tree", str(tree_file), "--out", str(labels)]) == 0
        structured = labels_from_text(labels.read_text())
        fields = structured[3].fields
        structured[3] = StructuredLabel(structured[3].kind, fields[:1] + ("",) + fields[2:])
        labels.write_text(labels_to_text(structured))
        capsys.readouterr()
        assert cli_main(["run", "--tree", str(tree_file), "--labels", str(labels)]) == 1
        assert capsys.readouterr().err.startswith("run failed:")

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

    def test_overlong_tree_header_exit_2(self, tmp_path, capsys):
        # More digits than int() converts: a bad header, quoted only in part.
        bad = tmp_path / "bad.tree"
        bad.write_text("tree " + "9" * 5000 + "\n")
        assert cli_main(["run", "--tree", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad header 'tree 999")
        assert len(err) < 200

    def test_oversized_tree_header_count_exit_2(self, tmp_path, capsys):
        # A count int() converts, with no edges: the edge count is quoted only in part.
        bad = tmp_path / "bad.tree"
        bad.write_text("tree " + "9" * 4000 + "\n")
        assert cli_main(["run", "--tree", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: expected 999") and err.endswith("... edges, got 0\n")
        assert len(err.encode()) < 200

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

    @pytest.mark.parametrize("kind", ["line", "main"])
    @pytest.mark.parametrize("bad", ["R1 T:99 D:", "R1 T: D:1<-99", "OUT 99 1"])
    def test_verify_rejects_unknown_transcript_nodes(self, tmp_path, capsys, kind, bad):
        tree = path_tree(3) if kind == "line" else random_tree(3, 4, 1)
        files = self.record(tmp_path, tree)
        transcript = tmp_path / "t.transcript"
        lines = transcript.read_text().splitlines()
        if bad.startswith("OUT"):
            lines.append(bad)
        else:
            lines[0] = bad
        transcript.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self.verify(files) == 1
        where = "OUT" if bad.startswith("OUT") else "round 1"
        assert capsys.readouterr().out == f"transcript differs from the replay at {where}\nverify: fail\n"

    def test_verify_checks_the_radio_model(self, tmp_path, capsys):
        # Node 3 never transmits, and node 0's other neighbors hear nothing.
        files = self.record(tmp_path, random_tree(4, 4, 1))
        transcript = tmp_path / "t.transcript"
        outs = [ln for ln in transcript.read_text().splitlines() if ln.startswith("OUT ")]
        transcript.write_text("\n".join(["R1 T:0 D:1<-0,2<-3"] + outs) + "\n")
        capsys.readouterr()
        assert self.verify(files) == 1
        assert capsys.readouterr().out == "transcript differs from the replay at round 1\nverify: fail\n"

    @pytest.mark.parametrize(
        "tree, change",
        [(path_tree(3), "extra"), (path_tree(3), "missing"), (random_tree(8, 6, 1), "extra")],
    )
    def test_verify_counts_the_silent_rounds(self, tmp_path, capsys, tree, change):
        # path_tree(3) runs one round, in which nobody transmits.
        files = self.record(tmp_path, tree)
        transcript = tmp_path / "t.transcript"
        lines = transcript.read_text().splitlines()
        rounds = [ln for ln in lines if ln.startswith("R")]
        outs = [ln for ln in lines if ln.startswith("OUT ")]
        if change == "extra":
            rounds.append(f"R{len(rounds) + 1} T: D:")
            where = len(rounds)
        else:
            where = len(rounds)
            assert rounds.pop() == f"R{where} T: D:"
        transcript.write_text("\n".join(rounds + outs) + "\n")
        capsys.readouterr()
        assert self.verify(files) == 1
        assert capsys.readouterr().out == f"transcript differs from the replay at round {where}\nverify: fail\n"

    def test_verify_rejects_a_forged_transcript(self, tmp_path, capsys):
        # Radio-model-valid, with the real labels and outputs: only a replay
        # of the run tells it from the protocol's own transcript.
        tree = random_tree(4, 4, 1)
        files = self.record(tmp_path, tree)
        forged = ["R1 T: D:"] + [f"OUT {v} 1" for v in range(tree.n)]
        (tmp_path / "t.transcript").write_text("\n".join(forged) + "\n")
        capsys.readouterr()
        assert self.verify(files) == 1
        assert capsys.readouterr().out == "transcript differs from the replay at round 1\nverify: fail\n"

    def test_verify_of_an_empty_core_size_field_is_a_usage_error(self, tmp_path, capsys):
        files = self.record(tmp_path, random_tree(8, 6, 1))
        labels_file = tmp_path / "t.labels"
        structured = labels_from_text(labels_file.read_text())
        fields = structured[2].fields
        structured[2] = StructuredLabel(structured[2].kind, fields[:10] + ("",) + fields[11:])
        labels_file.write_text(labels_to_text(structured))
        capsys.readouterr()
        assert self.verify(files) == 2
        assert "node 2: main-scheme core-size field is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("when", ["0", "late"])
    def test_verify_rejects_output_rounds_outside_the_run(self, tmp_path, capsys, when):
        files = self.record(tmp_path, path_tree(6))
        transcript = tmp_path / "t.transcript"
        lines = transcript.read_text().splitlines()
        rounds = sum(ln.startswith("R") for ln in lines)
        lines[-1] = f"OUT 6 {0 if when == '0' else rounds + 1}"
        transcript.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self.verify(files) == 1
        assert capsys.readouterr().out == "transcript differs from the replay at OUT\nverify: fail\n"

    def test_outputs_text_formats_each_tree_once(self, tmp_path, capsys):
        class Counted:
            n, reads = 3, 0

            @property
            def edges(self):
                Counted.reads += 1
                return ((0, 1), (1, 2))

        shared = Counted()
        assert outputs_to_text({v: (shared, v) for v in (2, 0, 1)}) == (
            "0 0 3 0-1,1-2\n1 1 3 0-1,1-2\n2 2 3 0-1,1-2\n"
        )
        assert Counted.reads == 1
        files = self.record(tmp_path, path_tree(6))
        outputs = tmp_path / "t.outputs"
        lines = outputs.read_text().splitlines()
        assert lines[0] == "0 0 7 0-1,1-2,2-3,3-4,4-5,5-6"
        # Node 0 claims an end of a six-node star instead.
        lines[0] = "0 1 6 0-1,0-2,0-3,0-4,0-5"
        outputs.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self.verify(files) == 1
        assert capsys.readouterr().out == "outputs differ from the replay at node 0\nverify: fail\n"

    def test_verify_bad_transcript_exit_1(self, tmp_path, capsys):
        # A transcript that is not the replay's text is a failed verify (exit
        # 1), however it is spelled; nothing parses it, so it is no usage error.
        files = self.record(tmp_path, path_tree(6))
        (tmp_path / "t.transcript").write_text("X1 T: D:\n")
        capsys.readouterr()
        assert self.verify(files) == 1
        assert capsys.readouterr().out == "transcript differs from the replay at round 1\nverify: fail\n"

    @pytest.mark.parametrize(
        "kind, fault",
        [
            ("transcript", "transcript differs from the replay at round 1"),
            ("outputs", "outputs differ from the replay at node 0"),
        ],
    )
    def test_verify_fails_undecodable_recorded_bytes(self, tmp_path, capsys, kind, fault):
        files = self.record(tmp_path, path_tree(6))
        (tmp_path / f"t.{kind}").write_bytes(b"\xff\xfe\n")
        capsys.readouterr()
        assert self.verify(files) == 1
        assert capsys.readouterr().out == f"{fault}\nverify: fail\n"

    @pytest.mark.parametrize("where", ["first", "second", "last"])
    def test_verify_rejects_a_second_outputs_line_for_a_node(self, tmp_path, capsys, where):
        # random_tree(6, 5, 2) has 17 nodes; node 0's own place is 3.
        files = self.record(tmp_path, random_tree(6, 5, 2))
        outputs = tmp_path / "t.outputs"
        lines = outputs.read_text().splitlines()
        assert lines[0].startswith("0 3 17 ")
        wrong = "0 0 " + lines[0].split(" ", 2)[2]
        at = {"first": 0, "second": 1, "last": len(lines)}[where]
        outputs.write_text("\n".join(lines[:at] + [wrong] + lines[at:]) + "\n")
        capsys.readouterr()
        assert self.verify(files) == 1
        assert capsys.readouterr().out == "outputs differ from the replay at node 0\nverify: fail\n"

    @pytest.mark.parametrize("where", ["next", "last"])
    def test_verify_rejects_a_repeated_out_line(self, tmp_path, capsys, where):
        files = self.record(tmp_path, random_tree(6, 5, 2))
        transcript = tmp_path / "t.transcript"
        lines = transcript.read_text().splitlines()
        first_out = next(i for i, ln in enumerate(lines) if ln.startswith("OUT "))
        at = first_out + 1 if where == "next" else len(lines)
        lines.insert(at, lines[first_out])
        transcript.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self.verify(files) == 1
        assert capsys.readouterr().out == "transcript differs from the replay at OUT\nverify: fail\n"

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_repeated_label_lines_for_a_node_are_a_usage_error(self, tmp_path, capsys, where):
        files = self.record(tmp_path, random_tree(6, 5, 2))
        labels = tmp_path / "t.labels"
        lines = labels.read_text().splitlines()
        copy = "0 " + lines[1].split(" ", 1)[1]  # node 1's label, given to node 0
        lines = [copy] + lines if where == "first" else lines + [copy]
        labels.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self.verify(files) == 2
        assert "node 0: more than one label line" in capsys.readouterr().err
        assert cli_main(["run", "--tree", files["tree"], "--labels", files["labels"]]) == 2

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["bounds", "--delta", "16", "--label-bits", "-5"], "label_bits >= 0"),
            (["gen", "--family", "random", "--count", "-2"], "--count must be at least 1, not -2"),
            (["gen", "--family", "random", "--count", "0"], "--count must be at least 1, not 0"),
            (["bounds", "--delta", "16", "--label-bits", "65"], "label_bits <= 64"),
            (["bounds", "--delta", "16", "--label-bits", "15000"], "label_bits <= 64"),
        ],
    )
    def test_integers_out_of_range_are_usage_errors(self, tmp_path, capsys, argv, reason):
        out = tmp_path / "trees"
        extra = ["--delta", "3", "--diameter", "4", "--out", str(out)] if argv[0] == "gen" else []
        assert cli_main(argv + extra) == 2
        assert reason in capsys.readouterr().err
        assert not out.exists()

    def test_bounds_take_up_to_64_label_bits(self, capsys):
        assert cli_main(["bounds", "--delta", "16", "--label-bits", "64"]) == 0
        assert capsys.readouterr().out == (
            f"views_upper_bound 2^{2 * 65 + 2**66}\nfamily_size 8\nseparable true\n"
        )

    @pytest.mark.parametrize(
        "kind, text, reason",
        [
            ("labels", "0 HubD3\n", "bad label line '0 HubD3'"),
            ("labels", "x StarCenter 0111\n", "bad label line 'x StarCenter 0111'"),
            ("tree", "tree x\n", "bad header 'tree x'"),
            ("tree", "tree 2\n0 y\n", "bad edge line '0 y'"),
            ("tree", "", "empty tree file"),
            ("tree", "tree 0\n", "tree needs at least one node"),
            ("tree", "tree 2\n1 1\n", "self-loop at 1"),
        ],
    )
    def test_unparsable_lines_are_named(self, tmp_path, capsys, kind, text, reason):
        parse = {"labels": labels_from_text, "tree": parse_tree_text}[kind]
        with pytest.raises({"labels": MalformedLabel, "tree": TreeError}[kind], match=reason):
            parse(text)
        files = self.record(tmp_path, star_tree(3))
        (tmp_path / f"t.{kind}").write_text(text)
        capsys.readouterr()
        assert cli_main(["run", "--tree", files["tree"], "--labels", files["labels"]]) == 2
        assert capsys.readouterr().err == f"error: {reason}\n"

    @pytest.mark.parametrize("node, old, new, ok", [(7, "10", "00", False), (2, "00", "11", True)])
    def test_run_and_verify_judge_true_residues(self, tmp_path, capsys, node, old, new, ok):
        # The pos_mod3 edits of TestProtocolTable, recorded and verified.
        files = self.record(tmp_path, path_tree(40))
        labels_file = tmp_path / "t.labels"
        labels = labels_from_text(labels_file.read_text())
        lab = labels[node]
        assert lab.fields[3] == old
        labels[node] = StructuredLabel(lab.kind, lab.fields[:3] + (new,))
        labels_file.write_text(labels_to_text(labels))
        recorded = ["--transcript", files["transcript"], "--outputs", files["outputs"]]
        capsys.readouterr()
        code = cli_main(["run", "--tree", files["tree"], "--labels", files["labels"], *recorded])
        assert code == (0 if ok else 1)
        assert capsys.readouterr().out.endswith(f",{int(ok)}\n")
        assert self.verify(files) == code
        want = "verify: pass\n" if ok else "line check mod3 failed\nverify: fail\n"
        assert capsys.readouterr().out == want

    def set_field(self, labels_file, node, i, bits):
        """Replace field i of node's label in a labels file."""
        labels = labels_from_text(labels_file.read_text())
        lab = labels[node]
        labels[node] = StructuredLabel(lab.kind, lab.fields[:i] + (bits,) + lab.fields[i + 1:])
        labels_file.write_text(labels_to_text(labels))

    def test_verify_reports_a_replay_that_fails(self, tmp_path, capsys):
        # Node 0, segment 0's starter, turns relay (type 3): no probe ever
        # leaves, and the 8 nodes of segment 0 wait for one forever.
        files = self.record(tmp_path, path_tree(40))
        self.set_field(tmp_path / "t.labels", 0, 0, "011")
        capsys.readouterr()
        assert self.verify(files) == 1
        fault, verdict = capsys.readouterr().out.splitlines()
        assert fault.startswith("replay failed: no output from 8 of 41 nodes within the round limit")
        assert verdict == "verify: fail"

    def test_verify_reports_invalid_placements(self, tmp_path, capsys):
        # A position mod 3 of 7 makes node 0 probe in round 3, not 1: the
        # wave reaches segment 0's other nodes two rounds late.
        files = self.record(tmp_path, path_tree(40))
        self.set_field(tmp_path / "t.labels", 0, 3, "111")
        recorded = ["--transcript", files["transcript"], "--outputs", files["outputs"]]
        assert cli_main(["run", "--tree", files["tree"], "--labels", files["labels"], *recorded]) == 1
        capsys.readouterr()
        assert self.verify(files) == 1
        assert capsys.readouterr().out == (
            "line check mod3 failed\ninvalid placements: [1, 2, 3, 4, 5, 6, 7]\nverify: fail\n"
        )

    def test_labels_of_two_protocols_in_one_file(self, tmp_path, capsys):
        files = self.record(tmp_path, path_tree(40))
        self.record(tmp_path, star_tree(6), "star")
        leaf = (tmp_path / "star.labels").read_text().splitlines()[1]
        assert leaf.split()[1] == "StarLeaf"
        labels_file = tmp_path / "t.labels"
        lines = labels_file.read_text().splitlines()
        lines[40] = "40 " + leaf.split(" ", 1)[1]  # node 40 of the line gets a star leaf's label
        labels_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(["run", "--tree", files["tree"], "--labels", files["labels"]]) == 2
        reason = "labels must belong to one protocol, not ['line', 'star']"
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert self.verify(files) == 1
        assert capsys.readouterr().out == f"labels do not fit the tree: {reason}\nverify: fail\n"

    @pytest.mark.parametrize(
        "tree, donor, reason",
        [
            (TestProtocolTable.TREES["d3"], star_tree(6), "not a star"),
            (star_tree(6), TestProtocolTable.TREES["d3"], "diameter is 2, not 3"),
            (star_tree(6), path_tree(6), "not a line"),
        ],
        ids=["star-on-d3", "d3-on-star", "line-on-star"],
    )
    def test_labels_whose_labeler_rejects_the_tree(self, tmp_path, capsys, tree, donor, reason):
        files = self.record(tmp_path, tree)
        donor_labels = self.record(tmp_path, donor, "donor")["labels"]
        capsys.readouterr()
        assert cli_main(["run", "--tree", files["tree"], "--labels", donor_labels]) == 2
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert self.verify(files, labels=donor_labels) == 1
        assert capsys.readouterr().out == f"labels do not fit the tree: {reason}\nverify: fail\n"

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

    @pytest.mark.parametrize("kind", ["transcript", "outputs"])
    @pytest.mark.parametrize(
        "tree",
        [
            path_tree(12),
            Tree(9, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6), (1, 7), (0, 8)]),
            random_tree(6, 5, 2),
        ],
        ids=["line", "two_hub", "main"],
    )
    def test_verify_fails_every_edit_of_a_recorded_line(self, tmp_path, capsys, tree, kind):
        # 34 seeded edits per file: delete, duplicate, swap or alter one line.
        files = self.record(tmp_path, tree)
        recorded = tmp_path / f"t.{kind}"
        honest = recorded.read_text()
        old = honest.splitlines()
        rounds = sum(ln.startswith("R") for ln in old)
        rng = random.Random(f"{tree.n}-{kind}")
        failed = 0
        for _ in range(34):
            lines = list(old)
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines) + 1)
            edit = rng.choice(["delete", "duplicate", "swap", "alter"])
            if edit == "delete":
                del lines[i]
            elif edit == "duplicate":
                lines.insert(j, lines[i])
            elif edit == "swap":
                j = min(j, len(lines) - 1)
                lines[i], lines[j] = lines[j], lines[i]
            else:
                k = rng.randrange(len(lines[i]) + 1)
                lines[i] = lines[i][:k] + rng.choice("0123456789 ,-<:RTDOUx") + lines[i][k + 1:]
            recorded.write_text("\n".join(lines) + "\n")
            capsys.readouterr()
            code = self.verify(files)
            out = capsys.readouterr().out.splitlines()
            if lines == old:
                assert (code, out) == (0, ["verify: pass"])
                continue
            failed += 1
            assert code == 1 and out[1:] == ["verify: fail"], out
            # The fault names the first line that differs from the recording.
            first = next(i for i, (a, b) in enumerate(zip(lines + [None], old + [None])) if a != b)
            got = lines[first] if first < len(lines) else ""
            if kind == "outputs":
                # Node first's line, unless the recorded line names an earlier node.
                node = min(first, tree.n - 1)
                named = [v for v in range(node) if got.startswith(f"{v} ")]
                assert out[0] == f"outputs differ from the replay at node {(named or [node])[0]}"
            else:
                where = f"round {first + 1}" if first < rounds or got.startswith("R") else "OUT"
                assert out[0] == f"transcript differs from the replay at {where}"
        assert failed > 25

    @staticmethod
    def whole_text_fault(kind, got, want, rounds, n):
        """The fault for one recorded text as found by comparing whole texts:
        the first piece of got.split("\\n") that is not want's names it."""
        if got == want:
            return None
        pairs = zip_longest(got.split("\n"), want.split("\n"))
        i, line = next((i, a or "") for i, (a, b) in enumerate(pairs) if a != b)
        if kind == "transcript":
            where = f"round {i + 1}" if i < rounds or line[:1] == "R" else "OUT"
            return f"transcript differs from the replay at {where}"
        head = line.split(" ", 1)[0]
        named = int(head) if head.isdecimal() and len(head) <= len(str(n)) else i
        return f"outputs differ from the replay at node {min(i, n - 1, named)}"

    @pytest.mark.parametrize("tree", [path_tree(5), random_tree(3, 4, 1)], ids=["line", "main"])
    def test_streamed_faults_match_the_whole_text_comparison(self, tree):
        # Seeded byte-level edits, newline forms and undecodable bytes
        # included; each stream is decoded as verify opens a recording.
        art = run_tree(tree)
        honest = {
            "transcript": art.transcript.to_text().encode(),
            "outputs": outputs_to_text(art.outputs).encode(),
        }
        pieces = [b"\n", b"\r", b"\r\n", b"\n\n", b"R", b"OUT 1 1", b"1 ", b"12 ", b"x", b"\xff", b" "]
        rng = random.Random(tree.n)

        def edit(data):
            k = rng.randrange(len(data) + 1)
            change = rng.choice(["cut", "insert", "replace", "crlf", "strip", "append"])
            if change == "cut":
                return data[:k]
            if change == "crlf":
                return data.replace(b"\n", rng.choice([b"\r\n", b"\r"]))
            if change == "strip":
                return data.rstrip(b"\n")
            piece = rng.choice(pieces)
            if change == "append":
                return data + piece
            return data[:k] + piece + data[k + (change == "replace"):]

        def stream(data):
            return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="replace")

        seen = Counter()
        for _ in range(150):
            recorded = dict(honest)
            kind = rng.choice(sorted(honest))
            recorded[kind] = edit(edit(honest[kind]) if rng.random() < 0.3 else honest[kind])
            want = [
                self.whole_text_fault(k, stream(recorded[k]).read(), honest[k].decode(),
                                      art.transcript.rounds, tree.n)
                for k in ("transcript", "outputs")
            ]
            got = recording_faults(tree, art.structured, stream(recorded["transcript"]),
                                   stream(recorded["outputs"]))
            assert got == [f for f in want if f is not None], (kind, recorded[kind])
            seen[bool(got)] += 1
        assert seen[True] > 50 and seen[False] > 5

    @pytest.mark.parametrize(
        "kind, change, fault",
        [
            ("transcript", "strip", "transcript differs from the replay at OUT"),
            ("transcript", "blank", "transcript differs from the replay at OUT"),
            ("transcript", "round", "transcript differs from the replay at round 33"),
            ("outputs", "strip", "outputs differ from the replay at node 8"),
            ("outputs", "blank", "outputs differ from the replay at node 8"),
            ("outputs", "named", "outputs differ from the replay at node 3"),
            ("transcript", "crlf", None),
            ("outputs", "crlf", None),
        ],
    )
    def test_verify_reasons_at_the_end_of_a_recording(self, tmp_path, capsys, kind, change, fault):
        # path_tree(8) runs 23 rounds, so its transcript has 32 lines; its
        # last outputs line is node 8's.
        files = self.record(tmp_path, path_tree(8))
        recorded = tmp_path / f"t.{kind}"
        data = recorded.read_bytes()
        data = {
            "strip": data[:-1],
            "blank": data + b"\n",
            "round": data + b"R14 T: D:\n",
            "named": data + b"3 0 9\n",
            "crlf": data.replace(b"\n", b"\r\n"),
        }[change]
        recorded.write_bytes(data)
        capsys.readouterr()
        assert self.verify(files) == (1 if fault else 0)
        assert capsys.readouterr().out == (f"{fault}\n" if fault else "") + f"verify: {'fail' if fault else 'pass'}\n"

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def recorded_256(self, tmp_path_factory):
        """random_tree(256, 8, 1) recorded through the command line, and the
        traced peak of its replay alone."""
        tmp_path = tmp_path_factory.mktemp("recorded_256")
        tree = random_tree(256, 8, 1)
        files = self.record(tmp_path, tree)
        replay = self.traced_peak(lambda: run_tree(
            parse_tree_text((tmp_path / "t.tree").read_text()),
            preset_labels=labels_from_text((tmp_path / "t.labels").read_text()),
        ))
        return tmp_path, files, replay

    def test_run_and_verify_memory_does_not_follow_the_outputs_file(self, recorded_256, capsys):
        # The outputs file is O(n^2) bytes (394 kB here), the replay's own
        # structures about 1 MB; what either command holds beyond the
        # replay stays under a quarter of the file.
        tmp_path, files, replay = recorded_256
        size = (tmp_path / "t.outputs").stat().st_size
        recorded = ["--transcript", files["transcript"], "--outputs", files["outputs"]]
        run = ["run", "--tree", files["tree"], "--labels", files["labels"], *recorded]
        assert self.traced_peak(lambda: cli_main(run)) - replay < size // 4
        assert self.traced_peak(lambda: self.verify(files)) - replay < size // 4
        assert capsys.readouterr().out.endswith("verify: pass\n")

    def test_a_huge_recorded_line_costs_no_more_than_the_replays(self, recorded_256, capsys):
        tmp_path, files, replay = recorded_256
        outputs = tmp_path / "huge.outputs"
        first = (tmp_path / "t.outputs").read_text().split("\n", 1)[0]
        outputs.write_text(first + "9" * 5_000_000)  # one 5 MB line, no newline
        capsys.readouterr()
        peak = self.traced_peak(lambda: self.verify(files, outputs=str(outputs)))
        assert capsys.readouterr().out == "outputs differ from the replay at node 0\nverify: fail\n"
        assert peak - replay < 5_000_000 // 20
