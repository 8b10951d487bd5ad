"""Smoke runs of the report scripts.

Each script runs at a small size in a fresh interpreter, must exit 0 and
print its header first, so a rename in the package cannot leave one broken;
the verification sweep must also write one CSV row per run.
"""

import os
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
    "script, args, header",
    [
        (
            "round_scaling.py",
            ["4"],
            "  D   degree    nodes   rounds  rounds/(D*degree)  seconds deliveries us/delivery  us/node",
        ),
        ("label_scaling.py", ["4", "5"], "    degree    nodes  max label bits"),
        ("cli_memory.py", ["16"], "random_tree(16, 8, 1): n = 29"),
    ],
    ids=["round_scaling", "label_scaling", "cli_memory"],
)
def test_report_script_runs(tmp_path, script, args, header):
    done = run_script(tmp_path, script, args)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == header


def test_sweep_writes_every_run(tmp_path):
    out = tmp_path / "sweep.csv"
    done = run_script(tmp_path, "sweep.py", [str(out)])
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 1 + 115
    assert "all passed" in done.stdout.splitlines()
