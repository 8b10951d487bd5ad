import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_history
from radiotopo.engine import NodeProgram, RoundLimitExceeded, Transcript, history_of, simulate
from radiotopo.trees import Tree


def path(n):
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def star(k):
    return Tree(k + 1, [(0, i) for i in range(1, k + 1)])


class Script(NodeProgram):
    """Transmits scripted payloads, records receptions, outputs at a round."""

    def __init__(self, plan=None, out_round=10):
        self.plan = plan or {}
        self.out_round = out_round
        self.heard = {}
        self.output = None

    def decide(self, round_no):
        if round_no >= self.out_round and self.output is None:
            self.output = (Tree(1, []), 0)
        return self.plan.get(round_no)

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
        assert transcript.records[0].deliveries == ((1, 0),)

    def test_two_transmitting_leaves_collide_at_center(self):
        programs, transcript, _ = run(star(2), {1: {1: "A"}, 2: {1: "B"}})
        assert 1 not in programs[0].heard
        assert transcript.records[0].deliveries == ()

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

            def decide(self, round_no):
                return None

            def receive(self, round_no, message):
                pass

        with pytest.raises(RoundLimitExceeded) as err:
            simulate(path(2), {0: Silent(), 1: Silent()}, 3)
        assert err.value.missing == [0, 1]

    def test_metrics_and_output_rounds(self):
        _, transcript, metrics = run(path(2), {0: {1: "X"}}, rounds=4, out_round=3)
        assert metrics.completion_round == 3
        assert metrics.total_transmissions == 1
        assert transcript.output_round == {0: 3, 1: 3}

    def test_missing_program_rejected(self):
        with pytest.raises(ValueError):
            simulate(path(2), {0: Script()}, 5)

    def test_determinism_byte_identical(self):
        plans = {0: {1: "A", 3: "C"}, 2: {2: "B"}}
        _, t1, _ = run(path(3), plans)
        _, t2, _ = run(path(3), plans)
        assert t1.to_text() == t2.to_text()

    def test_transcript_text_round_trip(self):
        _, t1, _ = run(path(3), {0: {1: "A"}, 2: {2: "B"}})
        again = Transcript.from_text(t1.to_text())
        assert [r.transmitters for r in again.records] == [r.transmitters for r in t1.records]
        assert [r.deliveries for r in again.records] == [r.deliveries for r in t1.records]
        assert again.output_round == t1.output_round

    @pytest.mark.parametrize(
        "text", ["X1 T: D:\n", "R2 T: D:\n", "R1 T: D:\nR1 T: D:\n", "R1 T:\n", "R1 D: T:\n"]
    )
    def test_transcript_bad_round_line_rejected(self, text):
        with pytest.raises(ValueError, match="transcript line"):
            Transcript.from_text(text)

    def test_delivered_senders_are_transmitters_and_adjacent(self):
        tree = Tree(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        plans = {0: {1: "a", 2: "b"}, 2: {2: "c"}, 4: {1: "d", 3: "e"}}
        _, transcript, _ = run(tree, plans)
        adj = {frozenset(e) for e in tree.edges}
        for rec in transcript.records:
            for rx, tx in rec.deliveries:
                assert tx in rec.transmitters
                assert rx not in rec.transmitters
                assert frozenset((rx, tx)) in adj


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
