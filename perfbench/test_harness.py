"""Self-test of the benchmark harness at tiny sizes (a few seconds).

Run from the repository root with ``python3 -m pytest -q perfbench``.  It
checks that every workload reports exactly the metric names listed in
``BENCHMARK.json``, that the output checks pass good output and catch bad
output, and that the traced run's counts repeat exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from workloads import FIVE_PATTERN_TABLE, Op, check_outputs

TINY = {
    "search": {"graphs": 3, "n": 5, "placements": 2},
    "drawings": {"drawings": 2, "n": 5, "crossings": (0, 1)},
    "codec": {"tables": 2, "budget": 20},
    "bounds": {"h": (2, 3), "rounds": 1, "s_queries": 2},
}
SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_lists_the_harness_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert _names("end_to_end") == run.END_TO_END
    assert _names("per_layer") == {k: unit for k, (unit, _, _) in run.PER_LAYER.items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_runs_pass_their_checks_and_counts_repeat(workload):
    out, meta = run.run_workload(workload, 7, 0.01, trace=False, size=TINY[workload])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, meta["failures"]
    assert {k: m["unit"] for k, m in out["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert meta["passes"] == 2 and len(meta["setup_samples_s"]) == run.SETUP_PROBES

    traced = [run.run_workload(workload, 7, 0.01, trace=True, size=TINY[workload]) for _ in range(2)]
    for t_out, t_meta in traced:
        assert t_out["correct"], t_meta["failures"]
        assert t_meta["stdout_sha256"] == meta["stdout_sha256"]
        assert set(t_out["metrics"]) == set(run.PER_LAYER)
    counts = [
        {k: m["value"] for k, m in t_out["metrics"].items() if m["unit"] != "s"} for t_out, _ in traced
    ]
    assert counts[0] == counts[1]
    assert counts[0]["cli.ops"] == meta["ops"]


def test_times_are_scaled_by_the_calibration_rounds_around_them():
    ref = run.REFERENCE_CALIBRATION_S
    op = {"latency": 0.3, "cpu": 0.2}
    # A machine at half the reference speed: rounds take twice as long.
    wall, cpu, latencies = run._scaled_pass({"ops": [op, op], "cal": [2 * ref] * 3, "cal_cpu": [2 * ref] * 3})
    assert latencies == pytest.approx([0.15, 0.15])
    assert (wall, cpu) == pytest.approx((0.3, 0.2))
    # Each op uses the mean of the rounds just before and just after it.
    _, _, latencies = run._scaled_pass({"ops": [op, op], "cal": [ref, 3 * ref, ref], "cal_cpu": [ref] * 3})
    assert latencies == pytest.approx([0.15, 0.15])


def test_pass_count_depends_only_on_the_run_length():
    assert [run.pass_count(w, 28) for w in run.WORKLOADS] == [2, 3, 2, 2]
    assert all(run.pass_count(w, 0.01) == 2 for w in run.WORKLOADS)


def _reasons(ops, outputs):
    return check_outputs(ops, [(0, text) for text in outputs])


def test_checks_catch_wrong_output():
    search = Op(["obs-search"], "search", {"n": 3, "edges": 1})
    good = "n 3\nedges 1\nupper-bound 1\ncertified yes\npoint 1 0 0\npoint 2 5 1\npoint 3 2 7\nfaces 2\nreplay ok\n"
    assert _reasons([search], [good]) == [None]
    assert _reasons([search], [good.replace("replay ok\n", "")]) != [None]
    assert _reasons([search], [good.replace("faces 2", "faces 2 3")]) != [None]
    assert _reasons([search], [good.replace("bound 1", "bound 2").replace("faces 2", "faces 2 3")]) != [None]
    assert check_outputs([search], [(1, good)]) == ["exit code 1"]

    codec = Op(["derive-table"], "codec")
    assert _reasons([codec], [FIVE_PATTERN_TABLE]) == [None]
    assert _reasons([codec], [FIVE_PATTERN_TABLE.replace("blocked", "visible")]) != [None]

    h_op = Op(["bounds"], "bounds-h", {"h": 1})
    right = next(n for n in range(2, 1000) if (2 * n) ** (2 * n) < 1 << (n * (n - 1) // 2))
    assert _reasons([h_op], [f"{right}\n"]) == [None]
    assert _reasons([h_op], [f"{right - 1}\n"]) != [None]
    assert _reasons([h_op], [f"{right + 1}\n"]) != [None]

    expect = {"n": 4, "nonedges": 2, "drawing": 0}
    drawing = [Op(["faces"], "faces", expect), Op(["incidence"], "incidence", expect),
               Op(["cover"], "cover", expect)]
    faces = ("nodes 5\npieces 6\nfaces 3\ncomponents 1\neuler 2\n"
             "face 1 bounded sides 3 area2 2 representative 1 1\n"
             "face 2 bounded sides 3 area2 2 representative 2 1\n"
             "face 3 unbounded sides 6 representative -1 -1\n")
    incidence = "faces 3\nnonedges 2\nnonedge 1 3 faces 1 2\nnonedge 2 4 faces 3\n"
    cover = "nonedges 2\nminimum 2\nfaces 1 3\n"
    assert _reasons(drawing, [faces, incidence, cover]) == [None, None, None]
    assert _reasons(drawing, [faces.replace("euler 2", "euler 3"), incidence, cover])[0] is not None
    assert _reasons(drawing, [faces, incidence, "nonedges 2\nminimum 2\nfaces 1 2\n"])[2] is not None
    assert _reasons(drawing, [faces, incidence.replace("faces 3\nnonedges", "faces 4\nnonedges"),
                              cover])[1] is not None
