import json
import random

import pytest

from obsrep.errors import SceneError, SceneFormatError
from obsrep.graphs import Graph, gnp_half
from obsrep.sampling import random_single_obstacle_scene
from obsrep.sceneio import load_graph, load_scene, save_scene, scene_from_dict

HEXAGON_DOC = {
    "points": [[-2, 0], [4, 6], [6, -5]],
    "obstacles": [[[0, 0], [2, -2], [5, -2], [7, 0], [5, 2], [2, 2]]],
}


def test_parse_hexagon_document(hexagon_scene):
    scene, graph = scene_from_dict(HEXAGON_DOC)
    assert scene == hexagon_scene
    assert graph is None


def test_round_trip_via_text(tmp_path, hexagon_scene):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_scene(first, hexagon_scene)
    scene, graph = load_scene(first)
    assert scene == hexagon_scene
    assert graph is None
    save_scene(second, scene)
    assert second.read_text() == first.read_text()


def test_round_trip_with_graph(tmp_path, hexagon_scene):
    target = tmp_path / "scene.json"
    g = Graph(3, [(0, 1), (0, 2)])
    save_scene(target, hexagon_scene, g)
    scene, graph = load_scene(target)
    assert scene == hexagon_scene
    assert graph == g


def test_graph_edges_serialize_one_based(tmp_path, hexagon_scene):
    target = tmp_path / "scene.json"
    save_scene(target, hexagon_scene, Graph(3, [(0, 1), (0, 2)]))
    doc = json.loads(target.read_text())["graph"]
    assert doc == {"n": 3, "edges": [[1, 2], [1, 3]]}
    bare = tmp_path / "graph.json"
    bare.write_text(json.dumps(doc))
    assert load_graph(bare) == Graph(3, [(0, 1), (0, 2)])


def test_clockwise_obstacles_are_normalized(tmp_path, hexagon_scene):
    doc = {
        "points": HEXAGON_DOC["points"],
        "obstacles": [list(reversed(HEXAGON_DOC["obstacles"][0]))],
    }
    scene, _ = scene_from_dict(doc)
    assert scene == hexagon_scene
    # and writing out again produces the counterclockwise listing
    target = tmp_path / "scene.json"
    save_scene(target, scene)
    assert json.loads(target.read_text())["obstacles"] == HEXAGON_DOC["obstacles"]


def test_random_documents_round_trip(tmp_path):
    rng = random.Random(515)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for _ in range(30):
        scene = random_single_obstacle_scene(rng, rng.randint(2, 6))
        g = gnp_half(scene.n, rng)
        save_scene(first, scene, g)
        again_scene, again_graph = load_scene(first)
        assert again_scene == scene
        assert again_graph == g
        save_scene(second, again_scene, again_graph)
        assert second.read_text() == first.read_text()


def test_file_round_trip(tmp_path, hexagon_scene):
    target = tmp_path / "scene.json"
    g = Graph(3, [(0, 1), (0, 2)])
    save_scene(target, hexagon_scene, g)
    scene, graph = load_scene(target)
    assert (scene, graph) == (hexagon_scene, g)
    assert load_graph(target) == g


def test_load_graph_from_bare_document(tmp_path):
    target = tmp_path / "graph.json"
    target.write_text(json.dumps({"n": 4, "edges": [[1, 2], [3, 4]]}))
    assert load_graph(target) == Graph(4, [(0, 1), (2, 3)])


def test_load_graph_requires_the_graph_field(tmp_path):
    target = tmp_path / "scene.json"
    target.write_text(json.dumps(HEXAGON_DOC))
    with pytest.raises(SceneFormatError):
        load_graph(target)


# --- diagnostics ---


def test_not_json(tmp_path):
    target = tmp_path / "scene.json"
    target.write_text("{points: oops")
    with pytest.raises(SceneFormatError, match="not valid JSON"):
        load_scene(target)


@pytest.mark.parametrize(
    "raw",
    [
        b"\xff\xfe{}",  # not UTF-8
        b'{"points": [[' + b"9" * 5000 + b", 0]]}",  # an integer too long to convert
        b"[" * 100_000,  # nested deeper than the decoder recurses
    ],
    ids=["not-utf8", "long-integer", "deep-nesting"],
)
def test_undecodable_files_are_format_errors(raw, tmp_path):
    target = tmp_path / "doc.json"
    target.write_bytes(raw)
    with pytest.raises(SceneFormatError, match="not valid JSON"):
        load_scene(target)
    with pytest.raises(SceneFormatError, match="not valid JSON"):
        load_graph(target)


def test_document_must_be_an_object(tmp_path):
    with pytest.raises(SceneFormatError, match="a scene document must be a JSON object"):
        scene_from_dict([1, 2, 3])
    target = tmp_path / "graph.json"
    target.write_text('"nope"')
    with pytest.raises(SceneFormatError, match="a graph document must be a JSON object"):
        load_graph(target)


def test_unknown_fields_are_named():
    doc = dict(HEXAGON_DOC, color="red", zoom=3)
    with pytest.raises(SceneFormatError, match="unknown field 'color'.*unknown field 'zoom'"):
        scene_from_dict(doc)


def test_bad_point_is_indexed():
    doc = {"points": [[0, 0], [1, "x"], [4, 6]]}
    with pytest.raises(SceneFormatError, match=r"points\[1\]"):
        scene_from_dict(doc)
    with pytest.raises(SceneFormatError, match=r"points\[0\]"):
        scene_from_dict({"points": [[0.5, 1], [4, 6]]})  # floats are rejected


def test_missing_points():
    with pytest.raises(SceneFormatError, match='"points"'):
        scene_from_dict({"obstacles": []})
    with pytest.raises(SceneFormatError, match='"points"'):
        scene_from_dict({"points": []})


def test_bad_obstacle_is_indexed():
    doc = {"points": [[0, 0], [9, 1]], "obstacles": [[[20, 0], [24, 0]]]}
    with pytest.raises(SceneFormatError, match=r"obstacles\[0\]"):
        scene_from_dict(doc)
    doc = {"points": [[0, 0], [9, 1]], "obstacles": [[[20, 0], [24, 0], [20, "y"]]]}
    with pytest.raises(SceneFormatError, match=r"obstacles\[0\]\[2\]"):
        scene_from_dict(doc)
    doc = {"points": [[0, 0], [9, 1]], "obstacles": [[[20, 0], [24, 0], [20, 4]], "ring"]}
    with pytest.raises(SceneFormatError, match=r"obstacles\[1\] must be a list of \[x, y\] pairs"):
        scene_from_dict(doc)


def test_bad_graph_is_reported(tmp_path):
    base = dict(HEXAGON_DOC)
    with pytest.raises(SceneFormatError, match='"n" is 5 but the document lists 3'):
        scene_from_dict(dict(base, graph={"n": 5, "edges": []}))
    with pytest.raises(SceneFormatError, match=r"edges\[0\].*outside 1\.\.3"):
        scene_from_dict(dict(base, graph={"n": 3, "edges": [[0, 1]]}))
    with pytest.raises(SceneFormatError, match="joins vertex 2 to itself"):
        scene_from_dict(dict(base, graph={"n": 3, "edges": [[2, 2]]}))
    bare = tmp_path / "graph.json"
    bare.write_text('{"n": -1, "edges": []}')
    with pytest.raises(SceneFormatError, match='"n" must be a non-negative'):
        load_graph(bare)
    with pytest.raises(SceneFormatError, match='"graph" must be an object'):
        scene_from_dict(dict(base, graph=[3, []]))
    with pytest.raises(SceneFormatError, match='"edges" must be a list'):
        scene_from_dict(dict(base, graph={"n": 3, "edges": {"1": 2}}))
    with pytest.raises(SceneFormatError, match=r"graph edges\[1\] must be a pair of integers"):
        scene_from_dict(dict(base, graph={"n": 3, "edges": [[1, 2], [1, 2, 3]]}))


def test_semantic_problems_raise_scene_error():
    # well-formed document, but one point sits inside the obstacle
    doc = {
        "points": [[-2, 0], [3, 0]],
        "obstacles": HEXAGON_DOC["obstacles"],
    }
    with pytest.raises(SceneError, match=r"points\[1\] is inside obstacles\[0\]"):
        scene_from_dict(doc)


def test_pair_problems_are_named_in_document_order():
    doc = {
        "points": [[0, 0], [1, "x"], [4, 6]],
        "obstacles": [[[20, 0], [24, 0.5], [20, 4]]],
        "graph": {"n": 3, "edges": [[1, 2], [3]]},
    }
    with pytest.raises(SceneFormatError) as err:
        scene_from_dict(doc)
    assert str(err.value) == (
        "points[1] must be a pair of integers, got [1, 'x']; "
        "obstacles[0][1] must be a pair of integers, got [24, 0.5]; "
        "graph edges[1] must be a pair of integers, got [3]"
    )


def test_every_structural_problem_is_listed_at_once():
    doc = {
        "points": [[0, 0], [1]],
        "obstacles": "round",
        "graph": {"n": 2, "edges": [[1, 5]]},
    }
    with pytest.raises(SceneFormatError) as err:
        scene_from_dict(doc)
    text = str(err.value)
    assert "points[1]" in text
    assert '"obstacles"' in text
    assert "edges[0]" in text
