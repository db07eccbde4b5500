import random
from fractions import Fraction

import pytest

from obsrep.errors import GeometryError, SceneError
from obsrep.geom import Point, Polygon
from obsrep.scene import Scene, require_valid_scene

import oracles
from conftest import poly, pts
from support import random_polygon


def diagnostics(points, obstacles=()):
    """The messages a scene's constructor reports for these parts."""
    with pytest.raises(SceneError) as err:
        Scene(points, obstacles)
    return err.value.diagnostics


def test_hexagon_scene_is_valid(hexagon_scene):
    require_valid_scene(hexagon_scene)


def test_square_scene_is_valid(square_scene):
    require_valid_scene(square_scene)


@pytest.mark.parametrize(
    "corners",
    [
        # collinear in the reals, yet float orient calls them a left turn
        [(0.1, 0.3), (0.2, 0.6), (0.7, 2.1)],
        [(Fraction(1, 2), 0), (4, 0), (0, 3)],
        [(True, 0), (4, 0), (0, 3)],
    ],
)
def test_coordinates_that_are_not_ints_are_refused(corners):
    with pytest.raises(GeometryError):
        Scene(corners)
    with pytest.raises(GeometryError):
        Polygon(corners)


def test_a_point_that_is_not_a_pair_is_refused():
    with pytest.raises(GeometryError) as err:
        Scene([(1, 2, 3), (0, 0), (5, 1)])
    assert str(err.value) == "a point is an (x, y) pair, got (1, 2, 3)"
    with pytest.raises(GeometryError):
        Scene([7, (0, 0)])
    with pytest.raises(GeometryError):
        Polygon([(0, 0), (4, 0), (2,)])
    with pytest.raises(SceneError) as err:
        Scene(5)
    assert err.value.diagnostics == ("points is a int, not a sequence of (x, y) pairs",)
    with pytest.raises(GeometryError) as err:
        Polygon(5)
    assert str(err.value) == "polygon vertices are a int, not a sequence of (x, y) pairs"


def test_an_obstacle_that_is_not_a_polygon_is_refused():
    with pytest.raises(SceneError) as err:
        Scene([(0, 0), (5, 1), (2, 7)], [[(10, 10), (20, 10), (15, 20)]])
    assert err.value.diagnostics == ("obstacles[0] is a list, not a Polygon",)
    for obstacles in (3, None):
        with pytest.raises(SceneError) as err:
            Scene([(0, 0), (5, 1), (2, 7)], obstacles)
        kind = type(obstacles).__name__
        assert err.value.diagnostics == (f"obstacles is a {kind}, not a sequence of Polygons",)


def test_duplicate_vertices_reported():
    msgs = diagnostics(pts((0, 0), (5, 1), (0, 0)))
    assert any("duplicate points" in m and "points[0]" in m and "points[2]" in m for m in msgs)


def test_collinear_vertices_reported():
    msgs = diagnostics(pts((0, 0), (2, 2), (4, 4)))
    assert msgs == ("collinear triple: points[0], points[1], points[2]",)


def test_vertex_inside_obstacle_reported():
    msgs = diagnostics(pts((2, 2), (9, 9)), (poly((0, 0), (4, 0), (4, 4), (0, 4)),))
    assert any("points[0] is inside obstacles[0]" in m for m in msgs)


def test_vertex_on_obstacle_boundary_reported():
    msgs = diagnostics(pts((4, 2), (9, 9)), (poly((0, 0), (4, 0), (4, 4), (0, 4)),))
    assert any("points[0] is on the boundary of obstacles[0]" in m for m in msgs)


def test_obstacle_corner_between_vertices_reported():
    # corner (4, 4) sits exactly in the middle of the vertex pair
    msgs = diagnostics(pts((0, 0), (8, 8)), (poly((4, 4), (9, 1), (9, 4)),))
    assert msgs == ("obstacles[0] vertex 0 lies between points[0] and points[1]",)


def test_obstacle_only_collinearity_is_allowed():
    # two rectangle corners line up with a labeled vertex; only triples of
    # labeled vertices must avoid a common line
    scene = Scene(pts((0, 10), (20, 11)), (poly((0, 0), (8, 0), (8, 2), (0, 2)),))
    require_valid_scene(scene)


def test_require_valid_scene_lists_every_violation():
    with pytest.raises(SceneError) as err:
        Scene(
            pts((0, 0), (2, 2), (4, 4), (12, 2)),
            (poly((10, 0), (14, 0), (14, 4), (10, 4)),),
        )
    text = str(err.value)
    assert "collinear triple" in text
    assert "points[3] is inside obstacles[0]" in text
    assert len(err.value.diagnostics) == 2


def test_scene_accepts_lists_and_freezes_them():
    scene = Scene([Point(0, 0), Point(1, 5)], [Polygon(pts((10, 0), (14, 0), (12, 3)))])
    assert isinstance(scene.points, tuple)
    assert isinstance(scene.obstacles, tuple)


def test_two_corners_between_two_vertex_pairs():
    # corner 0, (6, 4), splits points 2-3 and corner 1, (4, 4), splits points
    # 0-1: the messages follow the vertex pairs, not the corners
    msgs = diagnostics(
        pts((0, 0), (8, 8), (6, 0), (6, 8)),
        (poly((6, 4), (4, 4), (7, 3)),),
    )
    assert msgs == (
        "obstacles[0] vertex 1 lies between points[0] and points[1]",
        "obstacles[0] vertex 0 lies between points[2] and points[3]",
    )


def test_diagnostics_match_brute_force_oracle():
    """Scenes on a small grid, full of duplicates, collinear triples, points
    in obstacles and corners between vertex pairs, get the oracle's
    diagnostics in the oracle's order."""
    rng = random.Random(1515)
    seen = {"valid": 0, "duplicate": 0, "collinear": 0, "inside": 0, "boundary": 0, "between": 0}
    for _ in range(400):
        obstacles = tuple(
            random_polygon(rng, span=2, at=(rng.randint(2, 6), rng.randint(2, 6)))
            for _ in range(rng.randint(0, 3))
        )
        points = tuple(Point(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(rng.randint(2, 7)))
        want = oracles.scene_diagnostics(points, [o.vertices for o in obstacles])
        if want:
            assert diagnostics(points, obstacles) == want
        else:
            Scene(points, obstacles)
            seen["valid"] += 1
        for key, words in (
            ("duplicate", "duplicate"),
            ("collinear", "collinear"),
            ("inside", "is inside"),
            ("boundary", "on the boundary"),
            ("between", "lies between"),
        ):
            seen[key] += sum(words in m for m in want)
    assert min(seen.values()) >= 40, seen
