"""Smoke runs of the report scripts.

Each script runs at a small size in a fresh interpreter, must exit 0, print
its header first and print the named rows, so a rename in the package cannot
leave one broken; the verification sweep must also write one CSV row per run.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from radiotopo.harness import CSV_HEADER

REPO = Path(__file__).resolve().parent.parent


def run_script(tmp_path, script, args):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script, args, header, rows",
    [
        (
            "round_scaling.py",
            ["4"],
            "  D   degree    nodes   rounds  rounds/(D*degree)  seconds deliveries us/delivery  us/node  peak MB",
            # line run, witness label bits, CLI round trip
            [r" +2\^4 +17 +\d+ +\d+ .*", r" +2\^4 +89 +64 .*", r" +2\^4 +29 verify .* exit 0"],
        ),
    ],
    ids=["round_scaling"],
)
def test_report_script_runs(tmp_path, script, args, header, rows):
    done = run_script(tmp_path, script, args)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == header
    for row in rows:
        assert any(re.fullmatch(row, line) for line in lines), row


def test_sweep_writes_every_run(tmp_path):
    out = tmp_path / "sweep.csv"
    done = run_script(tmp_path, "sweep.py", [str(out)])
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 1 + 115
    assert "all passed" in done.stdout.splitlines()
