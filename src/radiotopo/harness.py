"""End-to-end runner: label, dispatch, simulate, verify, batch, certify.

Every protocol is one entry of the ordered table ``PROTOCOLS``, naming its
own parts: the label kinds it owns, the trees it applies to, its label class,
its labeler, its program builder and its checks; the harness alone converts
and decodes labels.  Run, verify and batch all select a protocol through the
table, by tree shape (the first entry whose test applies: degree <= 2 runs
the line protocol for any diameter, diameter 2 the star protocol, diameter 3
the two-hub protocol, everything else the general one) or by the kinds of a
given label set.  Either way the protocol's labeler labels the tree, and the
checks read the labeler's view of it; given labels only drive the programs
and the report, so a check judges the tree, not what the labels claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, TextIO

from . import protocol_line, protocol_main, protocol_small
from .engine import Metrics, NodeProgram, RunFailed, Transcript, default_round_budget, simulate
from .labels import (
    LABEL_CACHE_SIZE,
    LabelKind,
    MalformedLabel,
    StructuredLabel,
    encode,
    scheme_length,
)
from .scheme import LabeledTree, MainLabel, label_tree
from .trees import OrbitInterner, Tree
from .generators import FAMILY_TABLE, GenSpec, InfeasibleFamily, generate


@dataclass
class RunReport:
    family: str
    delta: int
    diameter: int
    n: int
    seed: int
    protocol: str
    rounds: int
    max_label_bits: int
    node_valid: dict[int, bool]
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.node_valid.values()) and all(self.checks.values())

    def csv_row(self) -> str:
        return (
            f"{self.family},{self.delta},{self.diameter},{self.n},{self.seed},"
            f"{self.protocol},{self.rounds},{self.max_label_bits},{int(self.ok)}"
        )


CSV_HEADER = "family,delta,diameter,n,seed,protocol,rounds,max_label_bits,valid"


@dataclass
class RunArtifacts:
    report: RunReport
    transcript: Transcript
    metrics: Metrics
    outputs: dict[int, tuple[Tree, int]]
    structured: dict[int, StructuredLabel]
    programs: dict[int, object]
    # Labeler-side context the checks read: the LabeledTree for main, the
    # line labels for line, None for star and d3.
    labeled: object = None


def check_run(tree: Tree, outputs: dict[int, tuple[Tree, int]]) -> dict[int, bool]:
    """Per-node verdict: does some isomorphism carry the node to its claim?
    Orbit ids are computed once per distinct output tree object."""
    ids = OrbitInterner()
    own_key, own_sig = ids.orbit_ids(tree)
    cache: dict[int, tuple[tuple[int, ...], list[int]]] = {}
    verdicts = {}
    for v in range(tree.n):
        got = outputs.get(v)
        if got is None:
            verdicts[v] = False
            continue
        out_tree, out_node = got
        if out_tree.n != tree.n or not (0 <= out_node < out_tree.n):
            verdicts[v] = False
            continue
        if id(out_tree) not in cache:
            cache[id(out_tree)] = ids.orbit_ids(out_tree)
        out_key, out_sig = cache[id(out_tree)]
        verdicts[v] = out_key == own_key and out_sig[out_node] == own_sig[v]
    return verdicts


def check_tr_delivery(
    transcript: Transcript, labeled: LabeledTree, window: tuple[int, int]
) -> list[tuple[int, int]]:
    """Violations of parent delivery during the subtree-collection window."""
    lo, hi = window
    parent = labeled.rooted.parent
    root = labeled.rooted.root
    violations = []
    for round_no, rec in transcript.records.items():
        if lo <= round_no <= hi:
            delivered = set(rec.deliveries)
            violations += [(round_no, tx) for tx in rec.transmitters
                           if tx != root and (parent[tx], tx) not in delivered]
    return violations


def check_mod3(transcript: Transcript, line_labels: dict) -> list[int]:
    """Rounds in which transmitters straddle more than one residue class."""
    return [
        round_no for round_no, rec in transcript.records.items()
        if len({-1 if line_labels[tx].kind is LabelKind.LINE_TINY else line_labels[tx].pos_mod3
                for tx in rec.transmitters}) > 1
    ]


def _main_checks(transcript: Transcript, labeled: LabeledTree):
    # The phase windows tile rounds 1..end: a round is in one iff it is <= end.
    params = labeled.params
    windows = protocol_main.phase_windows(params.core_size, labeled.rooted.height, params.block_len)
    end = windows["assemble"][1]
    return {
        "tr_delivery": not check_tr_delivery(transcript, labeled, windows["collect"]),
        "round_bound": max(transcript.output_round.values(), default=0) <= end,
        "phase_windows": max(transcript.records, default=0) <= end,
    }


# Process-wide tables, one per conversion (the codec in labels.py keeps its
# own).  A batch repeats a few hundred label values across all its runs, so
# each value is converted and decoded once per process; the bound only caps
# what adversarial label sets can pin.  A conversion that raises stores
# nothing, so a malformed label is rejected on every run.
@lru_cache(maxsize=LABEL_CACHE_SIZE)
def _structured_label(label) -> StructuredLabel:
    return label.to_structured()


@lru_cache(maxsize=LABEL_CACHE_SIZE)
def _decoded_label(label_cls, label: StructuredLabel):
    return label_cls.from_structured(label)


def _decoded(label_cls, structured: dict[int, StructuredLabel]) -> dict:
    """Protocol labels by node; equal structured labels share one decoded
    label.  A malformed one names the first node that holds it."""
    decoded = {}
    for v, s in structured.items():
        try:
            decoded[v] = _decoded_label(label_cls, s)
        except MalformedLabel as exc:
            raise MalformedLabel(f"node {v}: {exc}") from exc
    return decoded


@dataclass(frozen=True)
class Protocol:
    name: str
    kinds: frozenset[LabelKind]  # the label kinds this protocol owns
    applies: Callable[[Tree], bool]  # tried in table order
    label_cls: type  # its labels' class: to_structured, from_structured
    # (tree, star class bound) -> (its labels by node, check context)
    label: Callable[[Tree, Optional[int]], tuple[dict, object]]
    programs: Callable[[dict], dict[int, NodeProgram]]  # its labels by node -> programs
    checks: Callable[[Transcript, object], dict[str, bool]]  # (transcript, check context)


_PROTOCOLS = (
    Protocol(
        name="line",
        kinds=frozenset({LabelKind.LINE, LabelKind.LINE_TINY}),
        applies=lambda tree: tree.n <= 2 or tree.max_degree <= 2,
        label_cls=protocol_line.LineLabel,
        label=lambda tree, star_delta: ((labels := protocol_line.label_line(tree)), labels),
        programs=protocol_line.line_programs,
        checks=lambda transcript, labels: {"mod3": not check_mod3(transcript, labels)},
    ),
    Protocol(
        name="star",
        kinds=frozenset({LabelKind.STAR_LEAF, LabelKind.STAR_LEAF_NULL, LabelKind.STAR_CENTER}),
        applies=lambda tree: tree.diameter == 2,
        label_cls=protocol_small.CarrierLabel,
        label=lambda tree, star_delta: (protocol_small.label_star(tree, star_delta), None),
        programs=protocol_small.carrier_programs,
        checks=lambda transcript, context: {},
    ),
    Protocol(
        name="d3",
        kinds=frozenset(
            {LabelKind.D3_ROOT, LabelKind.D3_HUB, LabelKind.D3_LEAF, LabelKind.D3_LEAF_NULL}
        ),
        applies=lambda tree: tree.diameter == 3,
        label_cls=protocol_small.CarrierLabel,
        label=lambda tree, star_delta: (protocol_small.label_d3(tree), None),
        programs=protocol_small.carrier_programs,
        checks=lambda transcript, context: {},
    ),
    Protocol(
        name="main",
        kinds=frozenset({LabelKind.MAIN_SCHEME}),
        applies=lambda tree: True,
        label_cls=MainLabel,
        label=lambda tree, star_delta: ((labeled := label_tree(tree)).labels, labeled),
        programs=protocol_main.main_programs,
        checks=_main_checks,
    ),
)
PROTOCOLS: dict[str, Protocol] = {p.name: p for p in _PROTOCOLS}


def dispatch_protocol(tree: Tree) -> str:
    return next(p.name for p in PROTOCOLS.values() if p.applies(tree))


def structured_labels_for(tree: Tree, protocol: str, star_delta: Optional[int] = None):
    """Per-node structured labels plus the protocol's check context; equal
    labels share one structured label."""
    labels, context = PROTOCOLS[protocol].label(tree, star_delta)
    return {v: _structured_label(lab) for v, lab in labels.items()}, context


def programs_from_structured(structured: dict[int, StructuredLabel], protocol: str):
    p = PROTOCOLS[protocol]
    return p.programs(_decoded(p.label_cls, structured))


def label_owner(labels: dict[int, StructuredLabel]) -> str:
    """The protocol that owns every kind in a given label set."""
    kinds = {lab.kind for lab in labels.values()}
    owners = sorted(p.name for p in PROTOCOLS.values() if kinds & p.kinds)
    if len(owners) != 1:
        raise ValueError(f"labels must belong to one protocol, not {owners}")
    return owners[0]


def outputs_lines(outputs: dict[int, tuple[Tree, int]]) -> Iterator[str]:
    """One line "<node> <place> <n> <u>-<v>,...", newline included, per node
    in node order; each distinct output tree object is formatted once."""
    texts: dict[int, str] = {}
    for node, (t, place) in sorted(outputs.items()):
        text = texts.get(id(t))
        if text is None:
            texts[id(t)] = text = f"{t.n} " + ",".join(f"{u}-{v}" for u, v in t.edges)
        yield f"{node} {place} {text}\n"


def outputs_to_text(outputs: dict[int, tuple[Tree, int]]) -> str:
    return "".join(outputs_lines(outputs))


def _first_difference(recorded: TextIO, want: Iterable[str], keep: int) -> Optional[tuple[int, str]]:
    """Index and start of the first line of the recorded stream that is not
    want's, with lines cut as text.split("\n") cuts them, or None if the two
    texts are equal.  want's lines end in a newline.  No recorded line is read
    past the length of its want line, newline included, or past keep
    characters once want has ended, so a long line costs no more than the
    replay's."""
    i = -1
    for i, line in enumerate(want):
        got = recorded.readline(len(line))  # a longer line comes back cut, without its newline
        if got != line:
            if got == line[:-1]:  # the recording ends where want's newline is
                return i + 1, ""
            return i, got.removesuffix("\n")
    got = recorded.readline(keep)
    if got == "\n":  # one empty line past want's end still ends the text as want's does
        return i + 2, recorded.readline(keep).removesuffix("\n")
    return (i + 1, got.removesuffix("\n")) if got else None


def recording_faults(
    tree: Tree,
    labels: dict[int, StructuredLabel],
    transcript: TextIO,
    outputs: TextIO,
) -> list[str]:
    """Why a recorded run fails; empty when it passes.  The run is replayed
    from the tree and the labels; each recorded text stream must be the
    replay's text line for line, and is read one line at a time up to the
    first difference.  A malformed label raises MalformedLabel, as for a run."""
    if labels.keys() != set(range(tree.n)):
        return [f"labels are not for the nodes 0..{tree.n - 1} of the tree"]
    try:
        replay = run_tree(tree, preset_labels=labels)
    except RunFailed as exc:
        return [f"replay failed: {exc}"]
    except ValueError as exc:
        if isinstance(exc, MalformedLabel):
            raise
        return [f"labels do not fit the tree: {exc}"]
    rep = replay.report
    faults = [f"{rep.protocol} check {name} failed" for name, good in rep.checks.items() if not good]
    diff = _first_difference(transcript, replay.transcript.lines(), 1)
    if diff is not None:
        i, line = diff
        where = f"round {i + 1}" if i < replay.transcript.rounds or line[:1] == "R" else "OUT"
        faults.append(f"transcript differs from the replay at {where}")
    digits = len(str(tree.n))
    diff = _first_difference(outputs, outputs_lines(replay.outputs), digits + 1)
    if diff is not None:
        # Line i is node i's (the last node's past the end) unless it names an earlier node.
        i, line = diff
        head = line.split(" ", 1)[0]
        named = int(head) if head.isdecimal() and len(head) <= digits else i
        faults.append(f"outputs differ from the replay at node {min(i, tree.n - 1, named)}")
    invalid = sorted(v for v, good in rep.node_valid.items() if not good)
    if invalid:
        faults.append(f"invalid placements: {invalid}")
    return faults


def run_tree(
    tree: Tree,
    family: str = "adhoc",
    seed: int = 0,
    star_delta: Optional[int] = None,
    preset_labels: Optional[dict[int, StructuredLabel]] = None,
) -> RunArtifacts:
    """Label, run and check one tree; the checks read the labeler's view of it.
    Preset labels pick their owner protocol and drive the programs and the report.
    A labeler that rejects the tree raises ValueError, a failed run RunFailed."""
    if preset_labels is None:
        proto = dispatch_protocol(tree)
        structured, context = structured_labels_for(tree, proto, star_delta)
    else:
        # The labeler still runs: it rejects a tree its protocol cannot label.
        proto = label_owner(preset_labels)
        structured, context = preset_labels, PROTOCOLS[proto].label(tree, star_delta)[1]
    programs = programs_from_structured(structured, proto)
    budget = default_round_budget(max(2, tree.max_degree), max(2, tree.diameter))
    outputs, transcript, metrics = simulate(tree, programs, budget)
    node_valid = check_run(tree, outputs)
    checks = PROTOCOLS[proto].checks(transcript, context)
    report = RunReport(
        family=family,
        delta=tree.max_degree,
        diameter=tree.diameter,
        n=tree.n,
        seed=seed,
        protocol=proto,
        rounds=metrics.completion_round,
        max_label_bits=scheme_length(encode(s) for s in set(structured.values())),
        node_valid=node_valid,
        checks=checks,
    )
    return RunArtifacts(
        report=report,
        transcript=transcript,
        metrics=metrics,
        outputs=outputs,
        structured=structured,
        programs=programs,
        labeled=context,
    )


def scaling_witness(delta: int) -> Tree:
    """Fixed star-of-stars shape used to measure label-length scaling.

    A diameter-8 spine whose interior nodes each carry eight leaves (staying
    heavy at every scale, so no gossip core forms on the spine itself), one
    full-degree hub with delta-2 leaves, and one small hub with eight leaves
    providing the slot-gossip core.  Exercises every label field while
    keeping the heaviest single label representative of the scheme's growth.
    """
    if delta < 16:
        raise ValueError("witness needs delta >= 16")
    edges = [(i, i + 1) for i in range(8)]  # spine 0..8, rooted at 4
    n = 9
    big = n
    edges.append((5, big))
    n += 1
    small = n
    edges.append((big, small))
    n += 1
    for _ in range(8):  # small hub: fixed-size gossip group below it
        edges.append((small, n))
        n += 1
    for spine_node in range(1, 8):
        for _ in range(8):
            edges.append((spine_node, n))
            n += 1
    for _ in range(delta - 2):
        edges.append((big, n))
        n += 1
    return Tree(n, edges)


@dataclass(frozen=True)
class View:
    """What the hub of a double star can ever distinguish: both hub labels
    plus, per side, the set of leaf labels that occur exactly once there."""

    hub_label: str
    far_label: str
    unique_near: frozenset[str]
    unique_far: frozenset[str]


def view_of_root(tree: Tree, labels: dict[int, str]) -> View:
    """Views for feasibility-family trees as built by family_feasibility:
    node 0 is the full-degree hub, node 1 the decorated leaf."""
    near = [v for v in tree.adjacency[0] if v != 1]
    far = [v for v in tree.adjacency[1] if v != 0]

    def unique(side):
        counts: dict[str, int] = {}
        for v in side:
            counts[labels[v]] = counts.get(labels[v], 0) + 1
        return frozenset(lab for lab, cnt in counts.items() if cnt == 1)

    return View(
        hub_label=labels[0],
        far_label=labels[1],
        unique_near=unique(near),
        unique_far=unique(far),
    )


def view_collision_search(
    trees: list[Tree], labelings: list[dict[int, str]]
) -> Optional[tuple[int, int]]:
    """Indices of two distinct family members with identical views, if any."""
    seen: dict[View, int] = {}
    for idx, (tree, labels) in enumerate(zip(trees, labelings)):
        view = view_of_root(tree, labels)
        if view in seen:
            return (seen[view], idx)
        seen[view] = idx
    return None


@dataclass(frozen=True)
class PigeonholeCertificate:
    """Exact counting step: distinguishable views versus family size.

    The view count is (2^(b+1) * 2^(2^(b+1)))^2, an exact power of two, so
    the comparison runs on exponents and never materializes the giant value.
    """

    log2_views_upper_bound: int
    family_size: int
    separable: bool

    @property
    def views_upper_bound(self) -> int:
        return 1 << self.log2_views_upper_bound


def pigeonhole_certificate(delta: int, label_bits: int) -> PigeonholeCertificate:
    # At 64 bits log2(views) is past 2^66, more than the bit length of any
    # family size a process can hold, so a larger bound changes no verdict.
    if delta < 4 or label_bits < 0 or label_bits > 64:
        raise ValueError("need delta >= 4, label_bits >= 0 and label_bits <= 64")
    log2_views = 2 * (label_bits + 1) + 2 ** (label_bits + 2)
    family_size = -(-delta // 2)
    separable = log2_views >= (family_size - 1).bit_length()
    return PigeonholeCertificate(
        log2_views_upper_bound=log2_views, family_size=family_size, separable=separable
    )


def parse_config(text: str) -> dict:
    """Line-oriented key=value; delta/diameter/seeds accumulate, with comma
    lists and lo..hi ranges (lo <= hi)."""
    out = {"family": ["random"], "delta": [], "diameter": [], "seeds": []}
    families: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "family":
            families.append(value)
            continue
        if key not in ("delta", "diameter", "seeds"):
            raise ValueError(f"unknown config key {key!r}")
        for piece in value.split(","):
            piece = piece.strip()
            if ".." in piece:
                lo, hi = (int(end) for end in piece.split(".."))
                if lo > hi:
                    raise ValueError(f"empty range {piece!r} for {key}")
                out[key].extend(range(lo, hi + 1))
            elif piece:
                out[key].append(int(piece))
    if families:
        out["family"] = families
    if not out["seeds"]:
        out["seeds"] = [1]
    return out


_CONFIG_KEY = {"delta": "delta", "diameter": "diameter", "seed": "seeds"}  # GenSpec field -> key


def config_runs(config: dict):
    """Expand a parsed config into (family, tree, delta_class, seed) items;
    delta_class, the star protocol's class bound, is the grid's delta, or
    None for a family without a delta axis.

    Parameter combinations a family cannot realize are skipped, so one
    delta/diameter grid can drive several families at once.
    """
    for family in config["family"]:
        fam = FAMILY_TABLE.get(family)
        if fam is None:
            raise ValueError(f"unknown family {family!r}")
        for values in product(*(config[_CONFIG_KEY[axis]] for axis in fam.axes)):
            spec = GenSpec(family, **dict(zip(fam.axes, values)))
            try:
                trees = generate(spec)
            except InfeasibleFamily:
                continue
            for tree in trees:
                yield family, tree, spec.delta or None, spec.seed


def run_experiment(config_text: str) -> tuple[str, bool]:
    """Run every configured case; CSV rows sorted by key, plus pass flag.

    A run that fails becomes a failing row (valid 0, rounds 0) rather than
    aborting the sweep.
    """
    config = parse_config(config_text)
    rows = []
    all_ok = True
    for family, tree, star_delta, seed in config_runs(config):
        try:
            report = run_tree(tree, family=family, seed=seed, star_delta=star_delta).report
        except RunFailed:
            report = RunReport(
                family, tree.max_degree, tree.diameter, tree.n, seed, dispatch_protocol(tree),
                rounds=0, max_label_bits=0, node_valid=dict.fromkeys(range(tree.n), False),
                checks={},
            )
        rows.append(report.csv_row())
        all_ok = all_ok and report.ok
    rows.sort()
    return "\n".join([CSV_HEADER] + rows) + "\n", all_ok
