import importlib.util
import io
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_history, history_of, polling_simulate
from radiotopo.engine import (
    MissingChunk,
    NodeProgram,
    ProtocolViolation,
    RoundLimitExceeded,
    RunFailed,
    default_round_budget,
    simulate,
)
from radiotopo.generators import random_tree
from radiotopo.harness import (
    dispatch_protocol,
    outputs_to_text,
    programs_from_structured,
    recording_faults,
    run_tree,
    structured_labels_for,
)
from radiotopo.labels import MalformedLabel, StructuredLabel
from radiotopo.protocol_line import path_tree
from radiotopo.trees import Tree
from test_parity import TREES as PARITY_TREES


def path(n):
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def star(k):
    return Tree(k + 1, [(0, i) for i in range(1, k + 1)])


class Script(NodeProgram):
    """Keeps scripted sends and an output round on its agenda; records receptions."""

    def __init__(self, plan=None, out_round=10):
        super().__init__()
        self.heard = {}
        self.output = None
        for round_no, message in (plan or {}).items():
            self.send(round_no, message)
        self.at(out_round, self._finish)

    def _finish(self, round_no):
        self.output = (Tree(1, []), 0)

    def receive(self, round_no, message):
        if message is not None:
            self.heard[round_no] = message


def run(tree, plans, rounds=10, out_round=None):
    programs = {
        v: Script(plans.get(v), out_round=out_round or rounds) for v in range(tree.n)
    }
    outputs, transcript, metrics = simulate(tree, programs, rounds + 2)
    return programs, transcript, metrics


class TestCollisionSemantics:
    def test_single_transmitter_is_heard(self):
        programs, transcript, _ = run(path(2), {0: {1: "X"}})
        assert programs[1].heard[1] == "X"
        assert transcript.records[1].deliveries == ((1, 0),)

    def test_two_transmitting_leaves_collide_at_center(self):
        programs, transcript, _ = run(star(2), {1: {1: "A"}, 2: {1: "B"}})
        assert 1 not in programs[0].heard
        assert transcript.records[1].deliveries == ()

    def test_transmitters_never_receive(self):
        programs, _, _ = run(path(2), {0: {1: "A"}, 1: {1: "B"}})
        assert programs[0].heard == {} and programs[1].heard == {}

    def test_adjacency_respected(self):
        programs, _, _ = run(path(3), {0: {1: "A"}})
        assert programs[1].heard[1] == "A"
        assert 1 not in programs[2].heard

    def test_no_delivery_to_transmitting_neighbor(self):
        # Node 1 transmits while its neighbor 0 transmits too: 1 hears nothing.
        programs, _, _ = run(path(3), {0: {1: "A"}, 1: {1: "B"}})
        assert programs[2].heard[1] == "B"
        assert programs[1].heard == {}


class TestSimulateContract:
    def test_round_limit_reports_missing(self):
        class Silent(NodeProgram):
            output = None

            def receive(self, round_no, message):
                pass

        with pytest.raises(RoundLimitExceeded) as err:
            simulate(path(2), {0: Silent(), 1: Silent()}, 3)
        assert err.value.missing == [0, 1]
        assert str(RoundLimitExceeded([4, 7], 9, 3, {4: None})) == (
            "no output from 2 of 9 nodes within the round limit 3: nodes 4, 7; "
            "node 4: nothing on its agenda: waiting for a delivery"
        )

    def test_round_limit_names_a_silent_node_as_waiting_for_a_delivery(self):
        class Silent(NodeProgram):
            def receive(self, round_no, message):
                pass

        with pytest.raises(RoundLimitExceeded) as err:
            simulate(path(3), {0: Script({1: "X"}, out_round=2), 1: Silent(), 2: Silent()}, 5)
        assert str(err.value) == (
            "no output from 2 of 3 nodes within the round limit 5: nodes 1, 2; "
            "node 1: nothing on its agenda: waiting for a delivery; "
            "node 2: nothing on its agenda: waiting for a delivery"
        )

    def test_round_limit_names_the_next_agenda_round_past_the_budget(self):
        programs = {0: Script(out_round=2), 1: Script({3: "late"}, out_round=9), 2: Script(out_round=12)}
        with pytest.raises(RoundLimitExceeded) as err:
            simulate(path(3), programs, 5)
        assert err.value.missing == [1, 2]
        assert str(err.value) == (
            "no output from 2 of 3 nodes within the round limit 5: nodes 1, 2; "
            "node 1: next agenda round 9, past the budget; "
            "node 2: next agenda round 12, past the budget"
        )

    def test_round_limit_names_the_round_past_the_budget_not_a_past_one(self):
        # Node 1's step in round 3 plans its output for round 2, which never
        # comes; both engines name its round 9, past the budget.
        messages = []
        for engine in (simulate, polling_simulate):
            late = Script(out_round=9)
            late.at(3, lambda r: late.at(r - 1, late._finish))
            with pytest.raises(RoundLimitExceeded) as err:
                engine(path(2), {0: Script(out_round=2), 1: late}, 5)
            assert sorted(late.agenda) == [2, 9]
            messages.append(str(err.value))
        assert messages == 2 * [
            "no output from 1 of 2 nodes within the round limit 5: nodes 1; "
            "node 1: next agenda round 9, past the budget"
        ]

    def test_round_limit_message_stays_short_for_many_stuck_nodes(self):
        class Silent(NodeProgram):
            def receive(self, round_no, message):
                pass

        n = 1000
        programs = {v: Silent() for v in range(n)}
        programs[0].send(1, "X")
        with pytest.raises(RoundLimitExceeded) as err:
            simulate(path(n), programs, 100)
        assert err.value.missing == list(range(n))
        message = str(err.value)
        assert message.startswith("no output from 1000 of 1000 nodes within the round limit 100: "
                                  "nodes 0, 1, 2, 3, 4, 5, 6, 7, ...; node 0: ")
        assert len(message) <= RoundLimitExceeded.MAX_LEN

    def test_round_limit_message_past_its_bound_is_cut(self):
        class Late(NodeProgram):
            def __init__(self):
                super().__init__()
                self.send(10**100, "late")  # each explained node prints this 101-digit round

            def receive(self, round_no, message):
                pass

        with pytest.raises(RoundLimitExceeded) as err:
            simulate(path(3), {v: Late() for v in range(3)}, 5)
        assert err.value.missing == [0, 1, 2]
        message = str(err.value)
        assert len(message) == RoundLimitExceeded.MAX_LEN == 300
        assert message.endswith("...")

    def test_program_fault_fails_the_run_at_its_node(self):
        class FaultyDecide(Script):
            def __init__(self):
                super().__init__()
                self.at(2, lambda round_no: {}["no such key"])

        class FaultyReceive(Script):
            def receive(self, round_no, message):
                raise IndexError("tuple index out of range")

        with pytest.raises(ProtocolViolation) as err:
            simulate(path(3), {0: Script(), 1: FaultyDecide(), 2: Script()}, 5)
        assert str(err.value).startswith("node 1, round 2: KeyError(")
        assert isinstance(err.value.__cause__, KeyError)
        with pytest.raises(ProtocolViolation) as err:
            simulate(path(3), {0: Script({1: "X"}), 1: FaultyReceive(), 2: Script()}, 5)
        assert str(err.value) == "node 1, round 1: IndexError('tuple index out of range')"
        assert isinstance(err.value, RunFailed)

    def test_run_failed_from_a_program_passes_unchanged(self):
        raised = MissingChunk("a share never arrived")

        class Failing(Script):
            def __init__(self):
                super().__init__()
                self.at(1, self._fail)

            def _fail(self, round_no):
                raise raised

        with pytest.raises(MissingChunk) as err:
            simulate(path(2), {0: Script(), 1: Failing()}, 5)
        assert err.value is raised
        assert str(err.value) == "node 1, round 1: a share never arrived"

    def test_metrics_and_output_rounds(self):
        _, transcript, metrics = run(path(2), {0: {1: "X"}}, rounds=4, out_round=3)
        assert metrics.completion_round == 3
        assert metrics.total_transmissions == 1
        assert transcript.output_round == {0: 3, 1: 3}

    def test_missing_program_rejected(self):
        with pytest.raises(ValueError):
            simulate(path(2), {0: Script()}, 5)

    def test_zero_round_budget_rejected(self):
        with pytest.raises(ValueError, match="max_rounds must be at least 1"):
            simulate(path(2), {0: Script(), 1: Script()}, 0)

    def test_determinism_byte_identical(self):
        plans = {0: {1: "A", 3: "C"}, 2: {2: "B"}}
        _, t1, _ = run(path(3), plans)
        _, t2, _ = run(path(3), plans)
        assert t1.to_text() == t2.to_text()

    def test_transcript_text(self):
        _, transcript, _ = run(path(3), {0: {1: "A"}, 2: {2: "B"}})
        lines = transcript.to_text().splitlines()
        assert lines[:3] == ["R1 T:0 D:1<-0", "R2 T:2 D:1<-2", "R3 T: D:"]
        assert lines[9:] == ["R10 T: D:", "OUT 0 10", "OUT 1 10", "OUT 2 10"]

    @pytest.mark.parametrize(
        "text",
        [
            "X1 T: D:\n",
            "R2 T: D:\n",
            "R1 T: D:\nR1 T: D:\n",
            "R1 T:\n",
            "R1 D: T:\n",
            "R1 T:, D:,\n",  # the silent round in another spelling
        ],
    )
    def test_transcript_bad_round_line_rejected(self, text):
        # path_tree(3) runs one silent round, so only the repeated line is
        # right in round 1; verify takes nothing but the replay's exact text.
        tree = path_tree(3)
        art = run_tree(tree)
        assert art.transcript.to_text().startswith("R1 T: D:\nOUT 0 1\n")
        faults = recording_faults(
            tree, art.structured, io.StringIO(text), io.StringIO(outputs_to_text(art.outputs))
        )
        where = 2 if text == "R1 T: D:\nR1 T: D:\n" else 1
        assert faults == [f"transcript differs from the replay at round {where}"]

    def test_receive_called_only_on_delivery(self):
        class Logged(Script):
            def receive(self, round_no, message):
                calls.append((round_no, self.node, message))

        calls = []
        tree = Tree(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        plans = {0: {1: "a", 2: "b"}, 2: {2: "c"}, 4: {1: "d", 3: "e"}}
        programs = {v: Logged(plans.get(v), out_round=6) for v in range(tree.n)}
        for v, prog in programs.items():
            prog.node = v
        _, transcript, _ = simulate(tree, programs, 8)
        delivered = [
            (r, rx, plans[tx][r])
            for r, rec in transcript.records.items()
            for rx, tx in rec.deliveries
        ]
        # Round 2 collides at node 1 and rounds 4..6 are silent: no calls.
        assert calls == delivered == [(1, 1, "a"), (1, 3, "d"), (3, 3, "e")]

    def test_delivered_senders_are_transmitters_and_adjacent(self):
        tree = Tree(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        plans = {0: {1: "a", 2: "b"}, 2: {2: "c"}, 4: {1: "d", 3: "e"}}
        _, transcript, _ = run(tree, plans)
        adj = {frozenset(e) for e in tree.edges}
        for rec in transcript.records.values():
            for rx, tx in rec.deliveries:
                assert tx in rec.transmitters
                assert rx not in rec.transmitters
                assert frozenset((rx, tx)) in adj


class TestAgenda:
    def test_sends_exactly_in_scheduled_rounds(self):
        programs = {0: Script({2: "a", 5: "b"}, out_round=6), 1: Script(out_round=6)}
        _, transcript, metrics = simulate(path(2), programs, 8)
        assert {r: rec.transmitters for r, rec in transcript.records.items()} == {2: (0,), 5: (0,)}
        assert transcript.rounds == 6
        assert programs[1].heard == {2: "a", 5: "b"}
        assert metrics.total_transmissions == 2
        assert programs[0].agenda == {}

    def test_actions_of_a_round_run_in_order_and_the_last_message_wins(self):
        ran = []
        planned = Script(out_round=6)
        planned.at(3, lambda r: ran.append(("first", r)) or "x")
        planned.send(3, "y")
        planned.at(3, lambda r: ran.append(("third", r)))  # sends nothing
        programs = {0: planned, 1: Script(out_round=6)}
        _, transcript, _ = simulate(path(2), programs, 8)
        assert ran == [("first", 3), ("third", 3)]
        assert programs[1].heard == {3: "y"}
        assert transcript.records[3].transmitters == (0,)

    def test_unscheduled_rounds_are_silent(self):
        programs = {0: Script(out_round=6), 1: Script(out_round=4)}
        outputs, transcript, metrics = simulate(path(2), programs, 8)
        assert transcript.records == {} and transcript.rounds == 6
        assert metrics.total_transmissions == 0
        assert transcript.output_round == {0: 6, 1: 4}

    def test_an_action_that_raises_fails_the_run_at_its_node_and_round(self):
        planned = Script(out_round=6)
        planned.at(2, lambda r: (1, 2)[r])
        with pytest.raises(ProtocolViolation) as err:
            simulate(path(2), {0: Script(), 1: planned}, 8)
        assert str(err.value) == "node 1, round 2: IndexError('tuple index out of range')"
        assert isinstance(err.value.__cause__, IndexError)

    def test_rounds_added_by_receive_and_by_an_action_are_called_exactly(self):
        class Chained(Script):
            """A delivery plans a step three rounds on, which plans a send
            three rounds after itself."""

            def __init__(self):
                super().__init__(out_round=20)
                self.called = []

            def decide(self, round_no):
                self.called.append(round_no)
                return super().decide(round_no)

            def receive(self, round_no, message):
                super().receive(round_no, message)
                self.at(round_no + 3, lambda r: self.at(r + 3, lambda _r: "pong"))

        chained = Chained()
        programs = {0: Script({2: "ping"}, out_round=20), 1: chained}
        simulate(path(2), programs, 22)
        assert chained.called == [5, 8, 20]
        assert programs[0].heard == {8: "pong"}

    @pytest.mark.parametrize("name", sorted(PARITY_TREES))
    def test_no_agenda_keeps_a_round_that_never_comes(self, name):
        art = run_tree(PARITY_TREES[name]())
        stale = [(v, r) for v, p in art.programs.items() for r in p.agenda if r <= art.transcript.rounds]
        assert stale == []

    @pytest.mark.parametrize("name", ["line", "star", "d3", "main"])
    def test_no_protocol_schedules_a_lambda(self, monkeypatch, name):
        steps = []
        at = NodeProgram.at

        def recorded_at(program, round_no, step, *args):
            steps.append(step.__qualname__)
            at(program, round_no, step, *args)

        monkeypatch.setattr(NodeProgram, "at", recorded_at)
        assert run_tree(PARITY_TREES[name]()).report.ok
        assert steps and not [step for step in steps if "<lambda>" in step]


class TestSparseRecord:
    def test_only_rounds_with_a_transmitter_are_stored(self):
        # 65,600 rounds, of which 68 carry traffic.
        transcript = run_tree(random_tree(4096, 8, 1)).transcript
        assert transcript.rounds == 65600 and len(transcript.records) == 68
        assert list(transcript.records) == sorted(transcript.records)
        assert all(rec.transmitters for rec in transcript.records.values())
        heads = [ln.split(" ", 1)[0] for ln in transcript.to_text().splitlines() if ln[0] == "R"]
        assert heads == [f"R{i}" for i in range(1, 65601)]

    def test_text_keeps_trailing_silent_rounds(self):
        _, transcript, _ = run(path(2), {0: {2: "a"}}, rounds=6)
        assert list(transcript.records) == [2] and transcript.rounds == 6
        assert transcript.to_text() == (
            "R1 T: D:\nR2 T:0 D:1<-0\nR3 T: D:\nR4 T: D:\nR5 T: D:\nR6 T: D:\nOUT 0 6\nOUT 1 6\n"
        )


class TestHistory:
    def test_tau_zero_is_target_alone(self):
        _, transcript, _ = run(path(2), {0: {1: "X"}})
        assert history_of(transcript, path(2), 1, 0) == frozenset({1})

    def test_direct_delivery(self):
        _, transcript, _ = run(path(2), {0: {1: "X"}})
        assert history_of(transcript, path(2), 1, 1) == frozenset({0, 1})

    def test_rounds_must_increase_along_path(self):
        # 0 -> 1 at round 2, 1 -> 2 at round 1: chain 0..2 impossible.
        tree = path(3)
        plans = {0: {2: "x"}, 1: {1: "y"}}
        _, transcript, _ = run(tree, plans)
        assert history_of(transcript, tree, 2, 5) == frozenset({1, 2})

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_bruteforce_on_random_transcripts(self, data):
        n = data.draw(st.integers(min_value=2, max_value=9))
        edges = [
            (data.draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)
        ]
        tree = Tree(n, edges)
        rounds = 6
        plans = {}
        for v in range(n):
            plan = {}
            for r in range(1, rounds + 1):
                if data.draw(st.booleans()):
                    plan[r] = f"m{v}r{r}"
            plans[v] = plan
        _, transcript, _ = run(tree, plans, rounds=rounds)
        target = data.draw(st.integers(min_value=0, max_value=n - 1))
        tau = data.draw(st.integers(min_value=0, max_value=rounds))
        assert history_of(transcript, tree, target, tau) == brute_history(
            transcript, tree, target, tau
        )


def _mutation_sweep():
    """scripts/mutation_sweep.py as a module, for its trees and mutations."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "mutation_sweep.py"
    spec = importlib.util.spec_from_file_location("mutation_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def both_engines(tree, labels, protocol):
    """The run of fresh programs under simulate and under the polling loop:
    (outputs as edges and places, transcript, metrics) or the failure."""
    budget = default_round_budget(max(2, tree.max_degree), max(2, tree.diameter))
    ends = []
    for engine in (simulate, polling_simulate):
        programs = programs_from_structured(labels, protocol)
        try:
            outputs, transcript, metrics = engine(tree, programs, budget)
        except RunFailed as exc:
            ends.append((type(exc), str(exc)))
            continue
        placed = {v: (t.n, t.edges, place) for v, (t, place) in outputs.items()}
        ends.append((placed, transcript, metrics))
    return ends


class TestAgainstPollingLoop:
    """simulate steps only agenda rounds; the polling loop in oracles.py
    calls every node in every round.  Both must give the same run."""

    @pytest.mark.parametrize("name", sorted(PARITY_TREES))
    def test_parity_trees(self, name):
        tree = PARITY_TREES[name]()
        protocol = dispatch_protocol(tree)
        labels, _ = structured_labels_for(tree, protocol)
        event, polled = both_engines(tree, labels, protocol)
        assert event == polled

    @pytest.mark.parametrize("delta", [3, 4, 8, 16, 32, 64])
    def test_random_tree_grid(self, delta):
        for diameter in range(4, 11):
            for seed in (1, 2):
                tree = random_tree(delta, diameter, seed)
                protocol = dispatch_protocol(tree)
                labels, _ = structured_labels_for(tree, protocol)
                event, polled = both_engines(tree, labels, protocol)
                assert event == polled, (delta, diameter, seed)

    def test_label_mutations(self):
        sweep = _mutation_sweep()
        ends = Counter()
        for tree in sweep.TREES.values():
            protocol = dispatch_protocol(tree)
            labels, _ = structured_labels_for(tree, protocol)
            cases = [
                (v, i, new)
                for v, lab in sorted(labels.items())
                for i, bits in enumerate(lab.fields)
                for new in sweep.mutations(bits)
            ]
            for v, i, new in cases[::5]:
                lab = labels[v]
                fields = lab.fields[:i] + (new,) + lab.fields[i + 1:]
                mutated = {**labels, v: StructuredLabel(lab.kind, fields)}
                try:
                    event, polled = both_engines(tree, mutated, protocol)
                except MalformedLabel:
                    continue
                assert event == polled, (v, i, new)
                ends[event[0].__name__ if isinstance(event[0], type) else "output"] += 1
        assert ends["RoundLimitExceeded"] and ends["ProtocolViolation"] and ends["output"]


def test_mutation_sweep_totals():
    # Every mutation of scripts/mutation_sweep.py ends the way it did when
    # these totals were recorded; a run that now ends otherwise moves one.
    total = sum(_mutation_sweep().sweep().values(), Counter())
    assert total == {
        "invalid run": 450,
        "malformed label": 448,
        "run failed": 964,
        "run failed (round limit)": 190,
        "valid run": 1237,
    }


def test_permutation_sweep_totals():
    # Every swap and shuffle of the correct labels in scripts/mutation_sweep.py
    # ends the way it did when these totals were recorded, and none crashes.
    total = sum(_mutation_sweep().permutation_sweep().values(), Counter())
    assert total == {
        "invalid run": 479,
        "run failed": 400,
        "run failed (round limit)": 569,
        "valid run": 81,
    }


def test_borrowed_sweep_totals():
    # Each tree of scripts/mutation_sweep.py that has a partner (same size and
    # protocol, another shape) runs once with the partner's labels; none crashes.
    per_tree = _mutation_sweep().borrowed_sweep()
    assert [name for name, counts in per_tree.items() if counts] == [
        "two-hub(9)",
        "random_tree(8, 6, 1)",
        "random_tree(16, 6, 2)",
        "random_tree(4, 8, 3)",
    ]
    assert sum(per_tree.values(), Counter()) == {
        "invalid run": 1,
        "run failed": 1,
        "run failed (round limit)": 2,
    }


class Counted(NodeProgram):
    """Passes a program through and records each round it is asked to decide
    in with nothing on its agenda."""

    def __init__(self, program, idle):
        self.program = program
        self.agenda = program.agenda
        self.idle = idle
        self.calls = 0

    @property
    def output(self):
        return self.program.output

    def decide(self, round_no):
        self.calls += 1
        if round_no not in self.agenda:
            self.idle.append(round_no)
        return self.program.decide(round_no)

    def receive(self, round_no, message):
        self.calls += 1
        self.program.receive(round_no, message)


@pytest.mark.parametrize(
    "tree", [random_tree(64, 8, 1), PARITY_TREES["line"](), star(9), PARITY_TREES["d3"]()]
)
def test_no_node_is_called_without_an_action_or_a_delivery(tree):
    protocol = dispatch_protocol(tree)
    labels, _ = structured_labels_for(tree, protocol)
    idle = []
    programs = {v: Counted(p, idle) for v, p in programs_from_structured(labels, protocol).items()}
    _, transcript, _ = simulate(tree, programs, default_round_budget(tree.max_degree, tree.diameter))
    assert idle == []
    # Every call is a scheduled decide or a delivery, so calls stay far
    # below nodes x rounds on a mostly silent run.
    calls = sum(p.calls for p in programs.values())
    if protocol == "main":
        assert calls < tree.n * transcript.rounds // 10
