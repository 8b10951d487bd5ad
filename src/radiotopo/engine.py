"""Lockstep broadcast simulation with unique-transmitter reception.

Rounds are numbered from 1.  Each round has two phases: every node first
commits to transmit or listen (decide), then every listener hears the payload
of its unique transmitting neighbor, or nothing if zero or several neighbors
transmitted.  Reception lands in the same round as the transmission, and a
program is told only of a delivery: hearing nothing calls no method.  Each
program keeps (step, args) entries on an agenda keyed by round; only agenda
rounds are stepped, and only those with traffic are recorded.
A run that fails raises RunFailed, naming the node and round when a program
fails it; any other exception from a program becomes a ProtocolViolation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .trees import Tree


class RunFailed(RuntimeError):
    """The run ended without a correct output at every node."""


class ProtocolViolation(RunFailed):
    """A node's state or a message contradicts the protocol."""


class MissingChunk(ProtocolViolation):
    """A group's shares do not spell the integer they carry."""


class RoundLimitExceeded(RunFailed):
    """Some node has no output when no round within the budget is left.

    missing is the sorted list of every such node.  The message counts them
    out of n, lists the first few and, for each node in next_round (node ->
    its next agenda round past the budget, or None for an empty agenda),
    says what it waits for; it stays short however many nodes are stuck.
    """

    LISTED, EXPLAINED, MAX_LEN = 8, 3, 300

    def __init__(self, missing: list[int], n: int, budget: int, next_round: dict[int, Optional[int]]):
        k = len(missing)
        listed = ", ".join(map(str, missing[:self.LISTED])) + (", ..." if k > self.LISTED else "")
        parts = [f"no output from {k} of {n} nodes within the round limit {budget}: nodes {listed}"]
        for v, r in next_round.items():
            wait = ("nothing on its agenda: waiting for a delivery" if r is None
                    else f"next agenda round {r}, past the budget")
            parts.append(f"node {v}: {wait}")
        message = "; ".join(parts)
        if len(message) > self.MAX_LEN:
            message = message[:self.MAX_LEN - 3] + "..."
        super().__init__(message)
        self.missing = missing


def transmit(round_no: int, message):
    """The step send schedules: it sends message in its round."""
    return message


class NodeProgram:
    """Per-node state machine contract.

    decide(round) returns the message to broadcast, or None to listen.
    receive(round, message) is called after all decisions, and only when the
    node listened and exactly one neighbor transmitted; message is its payload.
    The output attribute, once set to a (tree, node) pair, must never change.

    A program keeps its schedule on one agenda of (step, args) entries keyed
    by round: at(round, step, *args) runs step(round, *args) in that round,
    and send(round, message) schedules transmit(round, message).
    decide(round) is called only for a round on the agenda; the default pops
    the round, runs its steps in the order they were added and sends the
    last message they returned.  The agenda is the one schedule: the
    simulator reads it at the start and after each round the node is called
    in; a program only adds entries to it; a round already past never comes.
    """

    output: Optional[tuple[Tree, int]] = None

    def __init__(self):
        self.agenda: dict[int, list] = {}

    def at(self, round_no: int, step, *args) -> None:
        self.agenda.setdefault(round_no, []).append((step, args))

    def send(self, round_no: int, message) -> None:
        self.at(round_no, transmit, message)

    def decide(self, round_no: int):
        message = None
        for step, args in self.agenda.pop(round_no, ()):
            sent = step(round_no, *args)
            if sent is not None:
                message = sent
        return message

    def receive(self, round_no: int, message) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class RoundRecord:
    transmitters: tuple[int, ...]
    deliveries: tuple[tuple[int, int], ...]  # (receiver, sender)


def deliveries_of(adjacency: tuple[tuple[int, ...], ...], transmitting) -> list[tuple[int, int]]:
    """Sorted (receiver, sender) for every listener with exactly one neighbor
    in transmitting, a set or dict of the round's transmitters."""
    sender_of: dict[int, Optional[int]] = {}
    for w in transmitting:
        for v in adjacency[w]:
            sender_of[v] = None if v in sender_of else w
    return sorted((v, w) for v, w in sender_of.items() if w is not None and v not in transmitting)


@dataclass
class Transcript:
    """Rounds 1..rounds of a run; records holds, in round order, only the
    rounds with a transmitter or a delivery, and every other was silent."""

    records: dict[int, RoundRecord] = field(default_factory=dict)
    rounds: int = 0
    output_round: dict[int, int] = field(default_factory=dict)

    def lines(self) -> Iterator[str]:
        """The text's lines in order, each ending in a newline: one per round,
        "R<i> T: D:" for a silent one, then "OUT <node> <round>" per node."""
        records = self.records
        for i in range(1, self.rounds + 1):
            rec = records.get(i)
            if rec is None:
                yield f"R{i} T: D:\n"
            else:
                txs = ",".join(str(t) for t in rec.transmitters)
                dls = ",".join(f"{rx}<-{tx}" for rx, tx in rec.deliveries)
                yield f"R{i} T:{txs} D:{dls}\n"
        for node in sorted(self.output_round):
            yield f"OUT {node} {self.output_round[node]}\n"

    def to_text(self) -> str:
        return "".join(self.lines())


@dataclass
class Metrics:
    completion_round: int
    total_transmissions: int


def simulate(
    tree: Tree,
    programs: dict[int, NodeProgram],
    max_rounds: int,
) -> tuple[dict[int, tuple[Tree, int]], Transcript, Metrics]:
    """Drive all programs until every node has output, recording a transcript.

    Only rounds on some agenda are stepped, from a heap: decide is called on
    the nodes with a step due, in node order, and receive on each delivery.
    Each node's agenda is its one schedule: its later rounds join the heap
    when the run starts and at the end of each round the node is called in.
    The run fails when no round within max_rounds is left and a node has no
    output; the failure says, for the first stuck nodes, which round each
    would act in next.
    """
    if set(programs) != set(range(tree.n)):
        raise ValueError("need exactly one program per node")
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    adjacency = tree.adjacency
    due: dict[int, set[int]] = {}  # round -> nodes with a step in it
    heap: list[int] = []

    def queue(v: int, after: int) -> None:
        for round_no in programs[v].agenda:
            if round_no > after:
                nodes = due.get(round_no)
                if nodes is None:
                    due[round_no] = nodes = set()
                    heapq.heappush(heap, round_no)
                nodes.add(v)

    for v in range(tree.n):
        queue(v, 0)
    transcript = Transcript()
    pending = set(range(tree.n))
    while pending and heap and heap[0] <= max_rounds:
        round_no = heapq.heappop(heap)
        called = sorted(due.pop(round_no))
        payloads: dict[int, object] = {}  # in node order, as called is sorted
        # One handler for every program call of the round; v is the caller.
        try:
            for v in called:
                msg = programs[v].decide(round_no)
                if msg is not None:
                    payloads[v] = msg
            if payloads:
                deliveries = deliveries_of(adjacency, payloads)
                for v, w in deliveries:
                    programs[v].receive(round_no, payloads[w])
                called.extend(v for v, _ in deliveries)
                transcript.records[round_no] = RoundRecord(tuple(payloads), tuple(deliveries))
        except RunFailed as exc:
            exc.args = (f"node {v}, round {round_no}: {exc}",)
            raise
        except Exception as exc:
            # The only RunFailed chained to a cause: programs raise their own
            # failures unchained, so a cause marks a crash, not a reason.
            raise ProtocolViolation(f"node {v}, round {round_no}: {exc!r}") from exc
        transcript.rounds = round_no
        for v in called:
            queue(v, round_no)
            if v in pending and programs[v].output is not None:
                transcript.output_round[v] = round_no
                pending.discard(v)
    if pending:
        # An agenda round within the budget had passed when it was added.
        missing = sorted(pending)
        next_round = {
            v: min((r for r in programs[v].agenda if r > max_rounds), default=None)
            for v in missing[:RoundLimitExceeded.EXPLAINED]
        }
        raise RoundLimitExceeded(missing, tree.n, max_rounds, next_round)
    outputs = {v: programs[v].output for v in range(tree.n)}
    metrics = Metrics(
        completion_round=max(transcript.output_round.values()),
        total_transmissions=sum(len(rec.transmitters) for rec in transcript.records.values()),
    )
    return outputs, transcript, metrics


def default_round_budget(delta: int, diameter: int) -> int:
    """Generous cap catching livelock: a fixed multiple of the target bound."""
    b = delta.bit_length()
    return 16 * (diameter * delta + b * b + diameter + 64)
