"""Byte-exact CLI output for a fixed set of small seeded runs.

Each case runs ``obsrep.cli.main(argv)`` in-process and compares the run's
stdout with ``tests/golden/<name>.txt`` and its exit code with the table
below.  A run that must fail prints nothing to stdout and exactly one
``error:`` line to stderr; for those cases the golden file holds that stderr.
Refactors keep these files unchanged; a deliberate change of output rewrites
them with ``PYTHONPATH=src python tests/test_golden.py`` and says so.
"""

import json
import sys
from pathlib import Path

import pytest

import obsrep.cover
from obsrep.cli import main

GOLDEN = Path(__file__).parent / "golden"
HEXAGON = str(Path(__file__).parents[1] / "demos" / "data" / "hexagon.json")

# Seven points with four crossings among eight drawn edges.
DRAWING = {
    "points": [[0, 0], [10, 1], [20, -2], [5, 12], [15, 14], [8, -9], [18, 7]],
    "graph": {
        "n": 7,
        "edges": [[1, 5], [2, 4], [3, 6], [1, 3], [4, 7], [6, 7], [2, 5], [1, 6]],
    },
}
# Six points whose non-edge 5-6 passes exactly through the crossing (5, 5)
# of the drawn edges 1-2 and 3-4, between two bounded faces.
CONCURRENT = {
    "points": [[0, 10], [10, 0], [2, 0], [8, 10], [1, 3], [9, 7]],
    "graph": {
        "n": 6,
        "edges": [[3, 2], [2, 6], [6, 4], [4, 1], [1, 5], [5, 3], [1, 2], [3, 4]],
    },
}
# A triangle inside the bounded face of a larger triangle, with the
# isolated vertex 7 in the ring between them: the inner triangle's outer
# boundary is a hole of the outer triangle's face.
NESTED = {
    "points": [[0, 0], [30, 1], [14, 28], [10, 6], [19, 7], [13, 15], [6, 2]],
    "graph": {"n": 7, "edges": [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]]},
}
# G(10, 1/2) placed on the obs-search default grid: with rng =
# random.Random(10), the graph is gnp_half(10, rng) and the points are then
# random_placement(rng, 10, 10000).
G10 = {
    "points": [
        [7486, 3922], [7203, 6147], [725, 9550], [66, 3860], [2195, 3194],
        [4962, 8787], [5998, 3935], [5150, 8994], [7383, 7143], [7700, 1064],
    ],
    "graph": {
        "n": 10,
        "edges": [
            [1, 2], [1, 6], [1, 10], [2, 4], [2, 6], [2, 7], [2, 10], [3, 8], [3, 9],
            [3, 10], [4, 5], [4, 9], [5, 6], [6, 7], [6, 8], [7, 9], [8, 9],
        ],
    },
}
# G(12, 1/2) on the 14,400 grid: with rng = random.Random(11), the graph is
# gnp_half(12, rng) and the points are then random_placement(rng, 12, 14400).
G12 = {
    "points": [
        [10853, 1392], [7492, 10728], [4557, 6664], [9031, 13766], [1363, 11596],
        [4161, 5165], [12418, 3762], [8403, 4735], [487, 1150], [9226, 12554],
        [1768, 6560], [1766, 13870],
    ],
    "graph": {
        "n": 12,
        "edges": [
            [1, 3], [1, 4], [1, 5], [1, 6], [1, 7], [1, 10], [1, 11], [1, 12], [2, 5],
            [2, 6], [2, 8], [2, 9], [2, 10], [3, 8], [3, 9], [3, 10], [3, 11], [3, 12],
            [4, 6], [4, 7], [4, 9], [4, 11], [4, 12], [5, 6], [5, 7], [5, 9], [5, 11],
            [5, 12], [6, 11], [7, 8], [7, 10], [8, 10], [8, 11], [9, 10], [9, 12],
        ],
    },
}
# G(16, 1/2) on the 25,600 grid: with rng = random.Random(2), the graph is
# gnp_half(16, rng) and the points are then random_placement(rng, 16, 25600).
G16 = {
    "points": [
        [23716, 14960], [15945, 21590], [7268, 10638], [22923, 5441], [20196, 8786],
        [25329, 15720], [10143, 9938], [23140, 16523], [18421, 16965], [16625, 21345],
        [20178, 19265], [13325, 10218], [23951, 6809], [16020, 16773], [12012, 22420],
        [20423, 2469],
    ],
    "graph": {
        "n": 16,
        "edges": [
            [1, 2], [1, 3], [1, 4], [1, 5], [1, 10], [1, 12], [1, 13], [1, 14], [1, 15],
            [2, 4], [2, 6], [2, 8], [2, 9], [2, 11], [2, 13], [2, 15], [2, 16], [3, 4],
            [3, 5], [3, 6], [3, 7], [3, 9], [3, 10], [3, 12], [3, 14], [3, 16], [4, 8],
            [4, 10], [4, 13], [4, 14], [4, 15], [5, 6], [5, 15], [5, 16], [6, 8], [6, 9],
            [6, 10], [6, 11], [6, 13], [6, 14], [6, 16], [7, 9], [7, 10], [7, 11], [7, 12],
            [7, 13], [7, 15], [7, 16], [8, 11], [8, 12], [8, 13], [8, 16], [9, 10], [9, 12],
            [9, 13], [9, 15], [9, 16], [10, 14], [10, 16], [11, 12], [11, 13], [11, 14],
            [11, 16], [12, 13], [12, 15], [12, 16], [13, 16], [14, 15], [14, 16], [15, 16],
        ],
    },
}
# Points 1, 2 and 3 lie on one line, so the drawing is not in general position.
COLLINEAR = {
    "points": [[0, 0], [4, 1], [8, 2], [3, 9]],
    "graph": {"n": 4, "edges": [[1, 4], [2, 4], [3, 4]]},
}
# Six points split by x into two groups of three; the box sits inside the
# hull of the first group only.
PARTITION = {
    "points": [[0, 0], [4, 10], [8, -1], [12, 5], [16, -6], [20, 9]],
    "obstacles": [[[3, 2], [5, 2], [5, 4], [3, 4]]],
}
C6 = {"n": 6, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]]}
C5 = {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}
# The second vertex lies inside the hexagon.
INSIDE = {
    "points": [[-2, 0], [3, 0]],
    "obstacles": [[[0, 0], [2, -2], [5, -2], [7, 0], [5, 2], [2, 2]]],
}
# The second vertex lies on the square's boundary.
ON_BOUNDARY = {
    "points": [[-5, 0], [0, 0]],
    "obstacles": [[[0, -1], [2, -1], [2, 1], [0, 1]]],
}
DOCS = {
    "drawing": DRAWING,
    "concurrent": CONCURRENT,
    "nested": NESTED,
    "g10": G10,
    "g12": G12,
    "g16": G16,
    "collinear": COLLINEAR,
    "partition": PARTITION,
    "c6": C6,
    "c5": C5,
    "inside": INSIDE,
    "on-boundary": ON_BOUNDARY,
}

# name -> (argv, exit code); "{doc}" names a document above, written to disk.
CASES = {
    "visibility-hexagon": (["visibility", HEXAGON], 0),
    "encode-hexagon": (["encode", HEXAGON], 0),
    "signature-hexagon": (["signature", HEXAGON], 0),
    "faces-drawing": (["faces", "{drawing}"], 0),
    "incidence-drawing": (["incidence", "{drawing}"], 0),
    "cover-drawing": (["cover", "{drawing}"], 0),
    "faces-concurrent": (["faces", "{concurrent}"], 0),
    "incidence-concurrent": (["incidence", "{concurrent}"], 0),
    "cover-concurrent": (["cover", "{concurrent}"], 0),
    "faces-nested": (["faces", "{nested}"], 0),
    "incidence-nested": (["incidence", "{nested}"], 0),
    "cover-nested": (["cover", "{nested}"], 0),
    "faces-g10": (["faces", "{g10}"], 0),
    "incidence-g10": (["incidence", "{g10}"], 0),
    "cover-g10": (["cover", "{g10}"], 0),
    "faces-g12": (["faces", "{g12}"], 0),
    "incidence-g12": (["incidence", "{g12}"], 0),
    "cover-g12": (["cover", "{g12}"], 0),
    "faces-g16": (["faces", "{g16}"], 0),
    "incidence-g16": (["incidence", "{g16}"], 0),
    "cover-g16": (["cover", "{g16}"], 0),
    "cover-collinear": (["cover", "{collinear}"], 1),
    "obs-search-c6": (["obs-search", "{c6}", "--seed", "7", "--placements", "6"], 0),
    "chain-c5": (["chain", "{c5}", "--seed", "3", "--placements", "4"], 0),
    "chain-c5-random": (
        ["chain", "{c5}", "--seed", "3", "--placements", "4", "--order", "random"],
        0,
    ),
    "random-exp-n4": (
        ["random-exp", "--n", "4", "--seed", "11", "--trials", "6", "--placements", "4"],
        0,
    ),
    "derive-table": (["derive-table", "--seed", "5", "--budget", "50"], 0),
    "partition-check": (["partition-check", "{partition}", "--k", "3"], 0),
    "ordertype-partition": (["ordertype", "{partition}"], 0),
    "visibility-inside": (["visibility", "{inside}"], 1),
    "validate-inside": (["validate", "{inside}"], 1),
    "encode-on-boundary": (["encode", "{on-boundary}"], 1),
    "bounds-h15": (["bounds", "--h", "15"], 0),
    "bounds-s60": (["bounds", "--s", "60", "--c", "35/2"], 0),
    "bounds-cap": (["bounds", "--h", "2687"], 1),
}


def _argv(argv, directory):
    paths = {}
    for name, doc in DOCS.items():
        path = Path(directory) / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return [arg.format(**paths) if arg.startswith("{") else arg for arg in argv]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    argv, want_rc = CASES[name]
    rc = main(_argv(argv, tmp_path))
    out, err = capsys.readouterr()
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert rc == want_rc
    if want_rc == 0:
        assert err == ""
        assert out == want
    else:
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert err == want


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("cover-")))
def test_cover_witnesses_survive_a_tiny_failure_memo(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(obsrep.cover, "_MEMO_LIMIT", 8)
    test_cli_output_matches_golden(name, tmp_path, capsys)


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        for name, (argv, want_rc) in sorted(CASES.items()):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(_argv(argv, directory))
            if rc != want_rc:
                sys.exit(f"{name}: exit {rc}, expected {want_rc}: {err.getvalue()}")
            text = out.getvalue() if rc == 0 else err.getvalue()
            (GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8")
