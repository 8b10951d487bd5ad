"""Byte-level parity pins.

The hashes were recorded from a known-good build.  A refactor that shifts a
round, reorders a label field or places a node elsewhere changes one of them,
so the suite fails on the change itself rather than only in the benchmark's
golden gate.  Update a pin only with a change that means to alter the
schedule, the labels or the outputs, and say so where the change is recorded.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from radiotopo.generators import family_sticks, random_tree
from radiotopo.harness import run_tree
from radiotopo.labels import encode
from radiotopo.protocol_small import star_tree
from radiotopo.trees import Tree

REPO = Path(__file__).resolve().parent.parent

SWEEP_CSV_SHA256 = "8da2616b2fa940349103aa31a79502a2e093b384dfba1e9ca84b2ac27374b7c9"

_LINE_ORDER = [5, 3, 11, 0, 8, 1, 9, 2, 10, 4, 7, 6]

TREES = {
    "line": lambda: Tree(12, zip(_LINE_ORDER, _LINE_ORDER[1:])),
    "star": lambda: star_tree(9),
    "d3": lambda: Tree(9, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6), (1, 7), (0, 8)]),
    "d3_tie": lambda: Tree(8, [(1, 0), (1, 2), (1, 3), (0, 4), (0, 5), (0, 6), (1, 7)]),
    "main": lambda: random_tree(16, 6, 4),
    "main_m3": lambda: random_tree(256, 6, 1),
    "main_sticks": lambda: family_sticks(4, 8, 1, 1)[0],
    "main_odd": lambda: random_tree(6, 7, 3),
    "main_long": lambda: random_tree(3, 11, 2),
}

# name -> sha256 of (transcript text, encoded labels, outputs)
PINS = {
    "line": (
        "2f57be1ef108f7ace8261582f002a83f85b1db20a05e9b477965d1324dc2bfa3",
        "3fd17bb2b0226ec05c945f283676c6a97a1a032e2db5b87f10daf2297e163d3f",
        "a5a91dda0f130f299e80716287b89a7e25848386d7b40e49186ec4eaf6c2a59d",
    ),
    "star": (
        "cdd04712d0f65eb522cd0c7ec3bf8b0d64cf9bb607b4b8ab4b9015cd0541709e",
        "ca6e5ddb528b08364cec38b16a5f620b081d4abdbb23763b144f2f0ad80f4124",
        "c231a6382da135c9450fcba44a2feefd641d0e964f47e220042b4d0ae1a74184",
    ),
    "d3": (
        "3efc0cc9c57c18bea9cdd2fe586d377ebd1d934412c786cff24a15412b54ca2b",
        "01c0cfb2825d29533cfdaf9b0df13e9c43d87f0d6091ac286a8c6076cff31f3d",
        "1ed8a1c7d4772cb440d04a5191ab9545894072f28d4181f759f937de03dcf3d8",
    ),
    "d3_tie": (
        "a857ec01391fad3ad03c768034d62958fd7f5848d71720cc55c13b4fa6d385c6",
        "db92264428a3a46f558c6d5aaba8054da8d03d54af976eca725a52ac444fefbd",
        "e3bd9f2ca2560a6b4e14ef19e61b901a03221fc214ac746125cbf094531fee58",
    ),
    "main": (
        "7745038c43c6562ba1167e3a85d5757d5a6fdbad13291e5ac62e03639b36ceb9",
        "f9b493c76c7e97765e50db8c6d161f7c99e1befe0f84e14f10d5b8abfbf00fc0",
        "a4c52c589752110c9f8df7e194a47625275233bdfc59f710924419c7d3111820",
    ),
    "main_m3": (
        "07b50d245639c3c6f69a8b1a770dcc170a2c91fa9c5ddbf33bd97a732900dad0",
        "81a8b3202a35f7d7389cacb649c65f928be0eaa501db5fcd97c2ab4ff116fa24",
        "a115ab15ab77447b6e50e396af740674584589a9dd910b300eb28b7cba333d05",
    ),
    "main_sticks": (
        "8b5cf97f70b9c1b39eb71aa0bf7980c5ecb0bfab8c7bdb42f156a31302522a22",
        "50eac61f19d9351274de3b76ef771b38bab86e63531cd541aa85276722d50649",
        "ab6bcd6fa795c450e9d3e4be65a6dea747ae293f35ede0a6ecc71dd8ffe59953",
    ),
    "main_odd": (
        "01f19850479a6b984935b3e95e60679648825932d79fee0d0f89e9d4237279cb",
        "0caa9b3736fb717d52e0c4048f231923c4c7f12c409c7148b8d524919c19b95e",
        "e7b9b6e7ff41f2d22b30eaa4c3349f89a6e945ac371a12dc9ea7961caab2ad53",
    ),
    "main_long": (
        "b60728f927292a4eaf406e9fd7522da39e5614c66004a1814a0e102d26e4164b",
        "15d38b45391e202f9c2ead7fe541963b0e557700fe728d6abc8b38071b1c26d6",
        "f53c9f2bfd8fe3d856c3a4cb1675958de1218ce21c7a3d300e6d1379a20e3dbe",
    ),
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_transcript_labels_and_outputs_pinned(name):
    art = run_tree(TREES[name]())
    assert art.report.protocol == name.split("_")[0]
    assert art.report.ok
    bits = "\n".join(encode(art.structured[v]) for v in sorted(art.structured))
    outputs = "\n".join(
        f"{v} {place} {tree.n} {tree.edges}" for v, (tree, place) in sorted(art.outputs.items())
    )
    assert (sha(art.transcript.to_text()), sha(bits), sha(outputs)) == PINS[name]


def test_sweep_csv_pinned(tmp_path):
    out = tmp_path / "sweep.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(REPO / "scripts" / "sweep.py"), str(out)],
        check=True,
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert sha(out.read_text()) == SWEEP_CSV_SHA256
