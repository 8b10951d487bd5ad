"""End-to-end runner: label, dispatch, simulate, verify, batch, certify.

Every protocol is one entry of the ordered table ``PROTOCOLS``: the label
kinds it owns, the trees it applies to, its labeler, its program builder, the
context its checks need and the checks themselves.  Run, verify and batch all
select a protocol through the table, by tree shape (the first entry whose
test applies: degree <= 2 runs the line protocol for any diameter, diameter 2
the star protocol, diameter 3 the two-hub protocol, everything else the
general one) or by the kinds of a given label set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import protocol_line, protocol_main, protocol_small
from .engine import Metrics, NodeProgram, Transcript, default_round_budget, simulate
from .labels import LabelKind, StructuredLabel, encode, scheme_length
from .scheme import LabeledTree, MainLabel, label_tree
from .trees import FormInterner, Tree, all_root_form_ids
from .generators import GenSpec, generate


@dataclass
class RunReport:
    name: str
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
    windows: dict[str, tuple[int, int]] = field(default_factory=dict)


def check_run(tree: Tree, outputs: dict[int, tuple[Tree, int]]) -> dict[int, bool]:
    """Per-node verdict: does some isomorphism carry the node to its claim?"""
    interner = FormInterner()
    own_ids = all_root_form_ids(tree, interner)
    cache: dict[int, list[int]] = {}
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
        key = id(out_tree)
        ids = cache.get(key)
        if ids is None:
            ids = all_root_form_ids(out_tree, interner)
            cache[key] = ids
        verdicts[v] = ids[out_node] == own_ids[v]
    return verdicts


def check_tr_delivery(
    transcript: Transcript, labeled: LabeledTree, window: tuple[int, int]
) -> list[tuple[int, int]]:
    """Violations of parent delivery during the subtree-collection window."""
    lo, hi = window
    parent = labeled.rooted.parent
    root = labeled.rooted.root
    violations = []
    for round_no in range(lo, min(hi, transcript.rounds()) + 1):
        rec = transcript.records[round_no - 1]
        delivered = set(rec.deliveries)
        for tx in rec.transmitters:
            if tx == root:
                continue
            if (parent[tx], tx) not in delivered:
                violations.append((round_no, tx))
    return violations


def check_mod3(transcript: Transcript, line_labels: dict) -> list[int]:
    """Rounds in which transmitters straddle more than one residue class."""
    bad = []
    for round_no, rec in enumerate(transcript.records, start=1):
        residues = set()
        for tx in rec.transmitters:
            lab = line_labels[tx]
            if lab.kind.value == "LineTiny":
                residues.add(-1)
            else:
                residues.add(lab.pos_mod3)
        if len(residues) > 1:
            bad.append(round_no)
    return bad


def _main_checks(transcript: Transcript, labeled: LabeledTree):
    params = labeled.params
    windows = protocol_main.phase_windows(params.core_size, labeled.rooted.height, params.block_len)
    spans = sorted(windows.values())
    checks = {
        "tr_delivery": not check_tr_delivery(transcript, labeled, windows["collect"]),
        "round_bound": max(transcript.output_round.values(), default=0) <= windows["assemble"][1],
        "phase_windows": all(
            not rec.transmitters or any(lo <= rnd <= hi for lo, hi in spans)
            for rnd, rec in enumerate(transcript.records, start=1)
        ),
    }
    return checks, windows


def _line_checks(transcript: Transcript, line_labels: dict[int, protocol_line.LineLabel]):
    return {"mod3": not check_mod3(transcript, line_labels)}, {}


def _structured(labels: dict) -> dict[int, StructuredLabel]:
    return {v: lab.to_structured() for v, lab in labels.items()}


def _decoded(label_cls, structured: dict[int, StructuredLabel]) -> dict:
    return {v: label_cls.from_structured(s) for v, s in structured.items()}


def _label_main(tree: Tree, star_delta: Optional[int]):
    labeled = label_tree(tree)
    return _structured(labeled.labels), labeled


def _label_line(tree: Tree, star_delta: Optional[int]):
    labels = protocol_line.label_line(tree)
    return _structured(labels), labels


def _carrier_programs(structured: dict[int, StructuredLabel]) -> dict[int, NodeProgram]:
    return protocol_small.carrier_programs(_decoded(protocol_small.CarrierLabel, structured))


@dataclass(frozen=True)
class Protocol:
    name: str
    kinds: frozenset[LabelKind]  # the label kinds this protocol owns
    applies: Callable[[Tree], bool]  # tried in table order
    # (tree, star class bound) -> (structured labels, check context)
    label: Callable[[Tree, Optional[int]], tuple[dict[int, StructuredLabel], object]]
    programs: Callable[[dict[int, StructuredLabel]], dict[int, NodeProgram]]
    context: Callable[[Tree, dict[int, StructuredLabel]], object]  # from given labels
    # (transcript, check context) -> (checks, phase windows)
    checks: Callable[[Transcript, object], tuple[dict[str, bool], dict[str, tuple[int, int]]]]


PROTOCOLS: dict[str, Protocol] = {
    p.name: p
    for p in (
        Protocol(
            name="line",
            kinds=frozenset({LabelKind.LINE, LabelKind.LINE_TINY}),
            applies=lambda tree: tree.n <= 2 or tree.max_degree <= 2,
            label=_label_line,
            programs=lambda s: protocol_line.line_programs(_decoded(protocol_line.LineLabel, s)),
            context=lambda tree, s: _decoded(protocol_line.LineLabel, s),
            checks=_line_checks,
        ),
        Protocol(
            name="star",
            kinds=frozenset({LabelKind.STAR_LEAF, LabelKind.STAR_LEAF_NULL, LabelKind.STAR_CENTER}),
            applies=lambda tree: tree.diameter == 2,
            label=lambda tree, star_delta: (
                _structured(protocol_small.label_star(tree, star_delta)), None
            ),
            programs=_carrier_programs,
            context=lambda tree, s: None,
            checks=lambda transcript, context: ({}, {}),
        ),
        Protocol(
            name="d3",
            kinds=frozenset(
                {LabelKind.D3_ROOT, LabelKind.D3_HUB, LabelKind.D3_LEAF, LabelKind.D3_LEAF_NULL}
            ),
            applies=lambda tree: tree.diameter == 3,
            label=lambda tree, star_delta: (_structured(protocol_small.label_d3(tree)), None),
            programs=_carrier_programs,
            context=lambda tree, s: None,
            checks=lambda transcript, context: ({}, {}),
        ),
        Protocol(
            name="main",
            kinds=frozenset({LabelKind.MAIN_SCHEME}),
            applies=lambda tree: True,
            label=_label_main,
            programs=lambda s: protocol_main.main_programs(_decoded(MainLabel, s)),
            # The labeler is deterministic, so its side of the run is rebuilt.
            context=lambda tree, s: label_tree(tree),
            checks=_main_checks,
        ),
    )
}


def dispatch_protocol(tree: Tree) -> str:
    return next(p.name for p in PROTOCOLS.values() if p.applies(tree))


def structured_labels_for(tree: Tree, protocol: str, star_delta: Optional[int] = None):
    """Per-node structured labels plus the protocol's check context."""
    return PROTOCOLS[protocol].label(tree, star_delta)


def programs_from_structured(structured: dict[int, StructuredLabel], protocol: str):
    return PROTOCOLS[protocol].programs(structured)


def preset_context(tree: Tree, labels: dict[int, StructuredLabel]) -> tuple[str, object]:
    """The protocol that owns every kind in a given label set, and the
    context its checks need."""
    kinds = {lab.kind for lab in labels.values()}
    owners = sorted(p.name for p in PROTOCOLS.values() if kinds & p.kinds)
    if len(owners) != 1:
        raise ValueError(f"labels must belong to one protocol, not {owners}")
    return owners[0], PROTOCOLS[owners[0]].context(tree, labels)


def recording_faults(
    tree: Tree,
    labels: dict[int, StructuredLabel],
    transcript: Transcript,
    outputs: dict[int, tuple[Tree, int]],
) -> list[str]:
    """Why a recorded run of the protocol its labels belong to fails; empty
    when it passes."""
    if labels.keys() != set(range(tree.n)):
        return [f"labels are not for the nodes 0..{tree.n - 1} of the tree"]
    try:
        proto, context = preset_context(tree, labels)
    except ValueError as exc:
        return [f"labels do not fit the tree: {exc}"]
    checks, _ = PROTOCOLS[proto].checks(transcript, context)
    faults = [f"{proto} check {name} failed" for name, good in checks.items() if not good]
    missing = transcript.output_round.keys() ^ set(range(tree.n))
    if missing:
        faults.append(f"nodes without recorded output round: {sorted(missing)}")
    verdicts = check_run(tree, outputs)
    invalid = sorted(v for v, good in verdicts.items() if not good)
    if invalid:
        faults.append(f"invalid placements: {invalid}")
    return faults


def run_tree(
    tree: Tree,
    name: str = "tree",
    family: str = "adhoc",
    seed: int = 0,
    protocol: str = "auto",
    star_delta: Optional[int] = None,
    max_rounds: Optional[int] = None,
    preset_labels: Optional[dict[int, StructuredLabel]] = None,
) -> RunArtifacts:
    if preset_labels is not None:
        proto, context = preset_context(tree, preset_labels)
        if protocol not in ("auto", proto):
            raise ValueError(f"labels are for {proto}, not {protocol}")
        structured = preset_labels
    else:
        proto = dispatch_protocol(tree) if protocol == "auto" else protocol
        structured, context = structured_labels_for(tree, proto, star_delta)
    programs = programs_from_structured(structured, proto)
    budget = max_rounds or default_round_budget(max(2, tree.max_degree), max(2, tree.diameter))
    outputs, transcript, metrics = simulate(tree, programs, budget)
    node_valid = check_run(tree, outputs)
    checks, windows = PROTOCOLS[proto].checks(transcript, context)
    report = RunReport(
        name=name,
        family=family,
        delta=tree.max_degree,
        diameter=tree.diameter,
        n=tree.n,
        seed=seed,
        protocol=proto,
        rounds=metrics.completion_round,
        max_label_bits=scheme_length(encode(s) for s in structured.values()),
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
        windows=windows,
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
    if delta < 4:
        raise ValueError("need delta >= 4")
    log2_views = 2 * (label_bits + 1) + 2 ** (label_bits + 2)
    family_size = -(-delta // 2)
    separable = log2_views >= (family_size - 1).bit_length()
    return PigeonholeCertificate(
        log2_views_upper_bound=log2_views, family_size=family_size, separable=separable
    )


def parse_config(text: str) -> dict:
    """Line-oriented key=value; delta/diameter/seeds accumulate, with comma
    lists and lo..hi ranges."""
    out = {"family": ["random"], "delta": [], "diameter": [], "seeds": [], "count": 1}
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
        if key == "count":
            out["count"] = int(value)
            continue
        if key not in ("delta", "diameter", "seeds"):
            raise ValueError(f"unknown config key {key!r}")
        for piece in value.split(","):
            piece = piece.strip()
            if ".." in piece:
                lo, hi = piece.split("..")
                out[key].extend(range(int(lo), int(hi) + 1))
            elif piece:
                out[key].append(int(piece))
    if families:
        out["family"] = families
    if not out["seeds"]:
        out["seeds"] = [1]
    return out


def config_runs(config: dict):
    """Expand a parsed config into (family, tree, delta_class, seed) items.

    Parameter combinations a family cannot realize are skipped, so one
    delta/diameter grid can drive several families at once.
    """
    from .generators import InfeasibleFamily

    for family in config["family"]:
        if family in ("random", "sticks", "diamLB", "degLB"):
            for delta in config["delta"]:
                for diameter in config["diameter"]:
                    for seed in config["seeds"]:
                        spec = GenSpec(family, delta=delta, diameter=diameter, seed=seed, count=1)
                        try:
                            trees = generate(spec)
                        except InfeasibleFamily:
                            continue
                        yield family, trees[0], None, seed
        elif family == "lines":
            for diameter in config["diameter"]:
                for tree in generate(GenSpec(family, diameter=diameter)):
                    yield family, tree, None, 0
        elif family == "stars":
            for delta in config["delta"]:
                for tree in generate(GenSpec(family, delta=delta)):
                    yield family, tree, delta, 0
        elif family == "feas":
            for delta in config["delta"]:
                for tree in generate(GenSpec(family, delta=delta)):
                    yield family, tree, None, 0
        else:
            raise ValueError(f"unknown family {family!r}")


def run_experiment(config_text: str) -> tuple[str, bool]:
    """Run every configured case; CSV rows sorted by key, plus pass flag.

    A run that stalls or violates the protocol becomes a failing row (valid
    0, rounds 0) rather than aborting the sweep.
    """
    from .engine import RoundLimitExceeded
    from .protocol_main import ProtocolViolation

    config = parse_config(config_text)
    rows = []
    all_ok = True
    for family, tree, star_delta, seed in config_runs(config):
        try:
            art = run_tree(tree, family=family, seed=seed, star_delta=star_delta)
            rows.append(art.report.csv_row())
            all_ok = all_ok and art.report.ok
        except (RoundLimitExceeded, ProtocolViolation):
            proto = dispatch_protocol(tree)
            rows.append(
                f"{family},{tree.max_degree},{tree.diameter},{tree.n},{seed},{proto},0,0,0"
            )
            all_ok = False
    rows.sort()
    return "\n".join([CSV_HEADER] + rows) + "\n", all_ok
