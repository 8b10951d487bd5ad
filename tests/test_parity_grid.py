"""Pin of scripts/parity_grid.py's stdout.

The grid prints one fingerprint line per random tree: its CSV row and the
sha256 of its transcript, labels and outputs texts.  The hash was recorded
from a known-good build; a change that alters any of the 308 runs changes
it.  Update it only with a change that means to alter a run, and say so
where the change is recorded.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

GRID_LINES = 308
GRID_SHA256 = "6745e5e9985d8f12a931ad9c0272d6ee2bd2d24382dc93a63a5314cafc87e911"


def test_parity_grid_stdout_pinned():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "parity_grid.py")],
        check=True,
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert done.stdout.count(b"\n") == GRID_LINES
    assert hashlib.sha256(done.stdout).hexdigest() == GRID_SHA256
