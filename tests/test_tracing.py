"""The benchmark's tracer still finds every library function it wraps.

``perfbench/spans.py`` replaces named functions and methods of the package
with recording wrappers.  Renaming or deleting one of them breaks the traced
benchmark run; this test catches that in the fast suite instead.
"""

import importlib.util
import json
from pathlib import Path

import obsrep
import obsrep.cli
import obsrep.scene
from obsrep.arrangement import FaceSet, build_arrangement
from obsrep.graphs import Graph
from obsrep.scene import Scene

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"

DRAWING = {
    "points": [[0, 0], [10, 1], [11, 9], [1, 8]],
    "graph": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]]},
}


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_restores(tmp_path, capsys):
    spans = _spans_module()
    validate = obsrep.scene.require_valid_scene
    locate = FaceSet.__dict__["locate"]
    path = tmp_path / "drawing.json"
    path.write_text(json.dumps(DRAWING))

    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert obsrep.scene.require_valid_scene is not validate
        assert obsrep.cli.main(["cover", str(path)]) == 0
        # cover finds faces without point location, so query one directly
        triangle = build_arrangement(
            Scene(((0, 0), (10, 0), (4, 7))), Graph(3, [(0, 1), (1, 2), (0, 2)])
        )
        assert triangle.locate((4, 2)) == 0
    capsys.readouterr()

    calls = tracer.calls()
    for name in ("sceneio.load", "scene.validate", "arrangement.build",
                 "arrangement.incidence", "cover.solve"):
        assert calls.get(name, 0) >= 1, name
    assert tracer.counts["arrangement.locate.calls"] >= 1
    assert obsrep.scene.require_valid_scene is validate
    assert FaceSet.__dict__["locate"] is locate


def test_traced_faces_run_records_each_representative(tmp_path, capsys):
    spans = _spans_module()
    path = tmp_path / "drawing.json"
    path.write_text(json.dumps(DRAWING))

    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert obsrep.cli.main(["faces", str(path)]) == 0
    out = capsys.readouterr().out

    faces = int(out.splitlines()[2].split()[1])
    assert tracer.calls()["arrangement.representative"] == faces >= 1
    # each face's point comes from exact first contacts, not closed-segment probes
    assert tracer.counts["geom.closed_segments_intersect.calls"] == 0


def test_derive_table_builds_each_sampled_scene_once(capsys):
    """Sampled scenes, hull polygons, words and visibility graphs are valid by
    construction, so a traced derive-table validates no scene and tests no
    polygon edge pair, while every layer it does use still records its calls."""
    spans = _spans_module()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert obsrep.cli.main(["derive-table", "--seed", "1", "--budget", "20"]) == 0
    capsys.readouterr()

    calls = tracer.calls()
    assert calls.get("scene.validate", 0) == 0
    assert tracer.counts["geom.closed_segments_intersect.calls"] == 0
    for name in ("sampling", "tangent.encode", "visibility.details", "tangent.derive"):
        assert calls.get(name, 0) >= 1, name
    assert calls["sampling"] == calls["tangent.encode"] == calls["visibility.details"] == 20
