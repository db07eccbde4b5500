import random
from itertools import combinations

import pytest

from obsrep.errors import ObsrepError, SceneError
from obsrep.geom import Point
from obsrep.graphs import Graph
from obsrep.sampling import random_single_obstacle_scene
from obsrep.scene import Scene
from obsrep.visibility import validate_representation, visibility_details, visibility_graph

import oracles
from conftest import poly, pts
from support import random_polygon, scaled_scene


def test_hexagon_scene_visibility(hexagon_scene):
    g, witnesses = visibility_details(hexagon_scene)
    assert g.sorted_edges() == [(0, 1), (0, 2)]
    assert witnesses == {(1, 2): [0]}
    assert visibility_graph(hexagon_scene) == g


def test_square_scene_visibility(square_scene):
    g, witnesses = visibility_details(square_scene)
    assert g.sorted_edges() == [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert witnesses == {(0, 2): [0]}


def test_every_blocking_obstacle_is_listed():
    # two boxes sit on the segment between the two vertices; both must show up
    scene = Scene(
        pts((-10, 0), (10, 0)),
        (
            poly((-3, -1), (-1, -1), (-1, 1), (-3, 1)),
            poly((1, -1), (3, -1), (3, 1), (1, 1)),
        ),
    )
    g, witnesses = visibility_details(scene)
    assert g.sorted_edges() == []
    assert witnesses == {(0, 1): [0, 1]}


def test_no_obstacles_means_complete():
    scene = Scene(pts((0, 0), (5, 1), (2, 7)))
    assert visibility_graph(scene).is_complete


def test_invalid_scene_is_rejected():
    # an invalid scene cannot be built, so visibility never meets one
    square = poly((0, 0), (4, 0), (4, 4), (0, 4))
    invalid = [
        # second vertex sits on the obstacle boundary
        (pts((-5, 0), (0, 0)), poly((0, -1), (2, -1), (2, 1), (0, 1)),
         "points[1] is on the boundary of obstacles[0]"),
        # first vertex sits inside the obstacle
        (pts((2, 2), (9, 9)), square, "points[0] is inside obstacles[0]"),
        # first vertex sits on the obstacle boundary
        (pts((2, 0), (9, 9)), square, "points[0] is on the boundary of obstacles[0]"),
    ]
    for points, obstacle, diagnostic in invalid:
        with pytest.raises(SceneError) as err:
            Scene(points, (obstacle,))
        assert diagnostic in err.value.diagnostics


def test_validate_representation_match(hexagon_scene):
    report = validate_representation(hexagon_scene, Graph.of(3, [(0, 1), (0, 2)]))
    assert report.matches
    assert report.blocked_but_required == ()
    assert report.visible_but_excluded == ()


def test_validate_representation_mismatch(hexagon_scene):
    report = validate_representation(hexagon_scene, Graph.of(3, [(0, 1), (1, 2)]))
    assert not report.matches
    assert report.blocked_but_required == ((1, 2),)
    assert report.visible_but_excluded == ((0, 2),)


def test_validate_representation_size_mismatch(hexagon_scene):
    with pytest.raises(ObsrepError):
        validate_representation(hexagon_scene, Graph(4))


def test_visibility_is_scale_invariant():
    rng = random.Random(1311)
    for _ in range(40):
        scene = random_single_obstacle_scene(rng, rng.randint(2, 7))
        assert visibility_graph(scaled_scene(scene, 7)) == visibility_graph(scene)


def test_sampled_scenes_have_some_blocked_pairs():
    # sanity check on the sampler: across many scenes the obstacle does block
    rng = random.Random(2)
    blocked = 0
    for _ in range(30):
        scene = random_single_obstacle_scene(rng, 5)
        g, witnesses = visibility_details(scene)
        assert len(g.edges) + len(witnesses) == 10
        blocked += len(witnesses)
    assert blocked > 0


def test_visibility_details_match_oracle_on_multi_obstacle_scenes():
    """Every pair of seeded scenes with 1 to 3 obstacles, a third of them not
    convex, gets the oracle's blockers."""
    rng = random.Random(4747)
    seen = {"scenes": 0, "non-convex": 0, "blocked by two": 0, "visible": 0}
    while seen["scenes"] < 150:
        obstacles = tuple(
            random_polygon(rng, span=6, at=(rng.randint(-12, 12), rng.randint(-12, 12)))
            for _ in range(rng.randint(1, 3))
        )
        points = tuple(Point(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(rng.randint(2, 8)))
        try:
            scene = Scene(points, obstacles)
        except SceneError:
            continue
        g, witnesses = visibility_details(scene)
        for i, j in combinations(range(scene.n), 2):
            want = [
                k
                for k, o in enumerate(obstacles)
                if oracles.segment_meets_polygon(points[i], points[j], o.vertices)
            ]
            assert witnesses.get((i, j), []) == want, (points, obstacles, i, j)
            assert ((i, j) in g.edges) == (not want)
            seen["visible"] += not want
            seen["blocked by two"] += len(want) >= 2
        seen["scenes"] += 1
        seen["non-convex"] += any(not o.is_convex() for o in obstacles)
    assert min(seen.values()) >= 40, seen
