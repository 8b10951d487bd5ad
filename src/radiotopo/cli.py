"""Command line front end.

Subcommands: gen, label, run, batch, verify, bounds.
Exit codes: 0 success, 1 verification failure or failed run, 2 usage or
format error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import RunFailed
from .generators import FAMILIES, GenSpec, generate
from .harness import (
    CSV_HEADER,
    dispatch_protocol,
    outputs_lines,
    pigeonhole_certificate,
    recording_faults,
    run_experiment,
    run_tree,
    structured_labels_for,
)
from .labels import labels_from_text, labels_to_text
from .trees import Tree, parse_tree_text, tree_to_text


def _load_tree(path: str) -> Tree:
    return parse_tree_text(Path(path).read_text())


def _cmd_gen(args) -> int:
    spec = GenSpec(
        family=args.family,
        delta=args.delta,
        diameter=args.diameter,
        seed=args.seed,
        count=args.count,
    )
    if spec.count < 1:
        raise ValueError(f"--count must be at least 1, not {spec.count}")
    trees = generate(spec)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, tree in enumerate(trees):
        name = f"{args.family}_d{args.delta}_D{args.diameter}_s{args.seed}_{i}.tree"
        (outdir / name).write_text(tree_to_text(tree))
        print(outdir / name)
    return 0


def _cmd_label(args) -> int:
    tree = _load_tree(args.tree)
    protocol = dispatch_protocol(tree)
    structured, _ = structured_labels_for(tree, protocol)
    Path(args.out).write_text(labels_to_text(structured))
    print(f"protocol {protocol}, {len(structured)} labels -> {args.out}")
    return 0


def _cmd_run(args) -> int:
    tree = _load_tree(args.tree)
    preset = labels_from_text(Path(args.labels).read_text()) if args.labels else None
    art = run_tree(tree, preset_labels=preset)
    # Written a line at a time: the outputs file is O(n^2) bytes.
    if args.transcript:
        with open(args.transcript, "w") as out:
            out.writelines(art.transcript.lines())
    if args.outputs:
        with open(args.outputs, "w") as out:
            out.writelines(outputs_lines(art.outputs))
    rep = art.report
    print(CSV_HEADER)
    print(rep.csv_row())
    return 0 if rep.ok else 1


def _cmd_batch(args) -> int:
    csv_text, ok = run_experiment(Path(args.config).read_text())
    Path(args.out).write_text(csv_text)
    print(f"{csv_text.count(chr(10)) - 1} rows -> {args.out}")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    tree = _load_tree(args.tree)
    structured = labels_from_text(Path(args.labels).read_text())
    # Read a line at a time; undecodable bytes cannot match the replay's
    # text, so they fail verify.
    with open(args.transcript, errors="replace") as transcript, \
            open(args.outputs, errors="replace") as outputs:
        faults = recording_faults(tree, structured, transcript, outputs)
    for fault in faults:
        print(fault)
    print("verify: " + ("fail" if faults else "pass"))
    return 1 if faults else 0


def _cmd_bounds(args) -> int:
    cert = pigeonhole_certificate(args.delta, args.label_bits)
    print(f"views_upper_bound 2^{cert.log2_views_upper_bound}")
    print(f"family_size {cert.family_size}")
    print(f"separable {'true' if cert.separable else 'false'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="radiotopo")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate tree files")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--diameter", type=int, default=0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("label", help="write labels for a tree file")
    p.add_argument("--tree", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("run", help="simulate one tree end to end")
    p.add_argument("--tree", required=True)
    p.add_argument("--labels")
    p.add_argument("--transcript")
    p.add_argument("--outputs")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("batch", help="run a config sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("verify", help="replay a recorded run and compare")
    p.add_argument("--tree", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--transcript", required=True)
    p.add_argument("--outputs", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="exact pigeonhole certificate")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--label-bits", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
