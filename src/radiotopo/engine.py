"""Lockstep broadcast simulation with unique-transmitter reception.

Rounds are numbered from 1.  Each round has two phases: every node first
commits to transmit or listen (decide), then every listener hears the payload
of its unique transmitting neighbor, or nothing if zero or several neighbors
transmitted.  Reception lands in the same round as the transmission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .trees import Tree


class RoundLimitExceeded(RuntimeError):
    """The round budget ran out before every node produced an output."""

    def __init__(self, missing: list[int], transcript: "Transcript"):
        super().__init__(f"no output from nodes {missing} within the round limit")
        self.missing = missing
        self.transcript = transcript


class NodeProgram:
    """Per-node state machine contract.

    decide(round) returns the message to broadcast, or None to listen.
    receive(round, message) is called after all decisions; message is None
    unless the node listened and exactly one neighbor transmitted.
    The output attribute, once set to a (tree, node) pair, must never change.
    """

    output: Optional[tuple[Tree, int]] = None

    def decide(self, round_no: int):
        raise NotImplementedError

    def receive(self, round_no: int, message) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class RoundRecord:
    transmitters: tuple[int, ...]
    deliveries: tuple[tuple[int, int], ...]  # (receiver, sender)


@dataclass
class Transcript:
    records: list[RoundRecord] = field(default_factory=list)
    output_round: dict[int, int] = field(default_factory=dict)

    def rounds(self) -> int:
        return len(self.records)

    def to_text(self) -> str:
        lines = []
        for i, rec in enumerate(self.records, start=1):
            txs = ",".join(str(t) for t in rec.transmitters)
            dls = ",".join(f"{rx}<-{tx}" for rx, tx in rec.deliveries)
            lines.append(f"R{i} T:{txs} D:{dls}")
        for node in sorted(self.output_round):
            lines.append(f"OUT {node} {self.output_round[node]}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Transcript":
        records = []
        output_round = {}
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln:
                continue
            if ln.startswith("OUT "):
                _, node, rnd = ln.split()
                output_round[int(node)] = int(rnd)
                continue
            parts = ln.split(" ")
            head = f"R{len(records) + 1}"
            if len(parts) != 3 or parts[0] != head or parts[1][:2] != "T:" or parts[2][:2] != "D:":
                raise ValueError(f"transcript line {ln!r} is not '{head} T:... D:...'")
            _, tpart, dpart = parts
            txs = tuple(int(x) for x in tpart[2:].split(",") if x)
            dls = []
            for item in dpart[2:].split(","):
                if item:
                    rx, tx = item.split("<-")
                    dls.append((int(rx), int(tx)))
            records.append(RoundRecord(transmitters=txs, deliveries=tuple(dls)))
        return Transcript(records=records, output_round=output_round)


@dataclass
class Metrics:
    completion_round: int
    total_transmissions: int
    rounds_executed: int


def simulate(
    tree: Tree,
    programs: dict[int, NodeProgram],
    max_rounds: int,
) -> tuple[dict[int, tuple[Tree, int]], Transcript, Metrics]:
    """Drive all programs until every node has output, recording a transcript."""
    if set(programs) != set(range(tree.n)):
        raise ValueError("need exactly one program per node")
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    adjacency = tree.adjacency
    transcript = Transcript()
    total_tx = 0
    pending = set(range(tree.n))
    for round_no in range(1, max_rounds + 1):
        payloads: dict[int, object] = {}
        for v in range(tree.n):
            msg = programs[v].decide(round_no)
            if msg is not None:
                payloads[v] = msg
        total_tx += len(payloads)
        # Unique transmitting neighbor per listener, accumulated sender-side.
        sender_of: dict[int, Optional[int]] = {}
        for w in payloads:
            for v in adjacency[w]:
                sender_of[v] = None if v in sender_of else w
        deliveries = []
        for v in range(tree.n):
            if v in payloads:
                programs[v].receive(round_no, None)
                continue
            w = sender_of.get(v)
            if w is None:
                programs[v].receive(round_no, None)
            else:
                deliveries.append((v, w))
                programs[v].receive(round_no, payloads[w])
        transcript.records.append(
            RoundRecord(transmitters=tuple(sorted(payloads)), deliveries=tuple(sorted(deliveries)))
        )
        for v in list(pending):
            if programs[v].output is not None:
                transcript.output_round[v] = round_no
                pending.discard(v)
        if not pending:
            break
    if pending:
        raise RoundLimitExceeded(sorted(pending), transcript)
    outputs = {v: programs[v].output for v in range(tree.n)}
    metrics = Metrics(
        completion_round=max(transcript.output_round.values()),
        total_transmissions=total_tx,
        rounds_executed=transcript.rounds(),
    )
    return outputs, transcript, metrics


def history_of(transcript: Transcript, tree: Tree, target: int, tau: int) -> frozenset[int]:
    """Nodes whose transmissions can chain to target by round tau.

    A node u is included when deliveries (u1 <- u), (u2 <- u1), ... reach the
    target in strictly increasing rounds, all at most tau.  Computed by a
    backward sweep over rounds: latest_start[v] is the largest round t such
    that a chain from v to target can begin at round t.
    """
    latest_start: dict[int, float] = {target: float("inf")}
    limit = min(tau, len(transcript.records))
    for t in range(limit, 0, -1):
        for rx, tx in transcript.records[t - 1].deliveries:
            if latest_start.get(rx, 0) > t and latest_start.get(tx, 0) < t:
                latest_start[tx] = t
    return frozenset(latest_start)


def default_round_budget(delta: int, diameter: int) -> int:
    """Generous cap catching livelock: a fixed multiple of the target bound."""
    b = delta.bit_length()
    return 16 * (diameter * delta + b * b + diameter + 64)
