"""The values the library builds without their constructors' checks are valid.

``geom._assume_valid`` fills a frozen dataclass without running its
``__post_init__``.  Four places use it, each for a value its own code has just
made valid: the sampler's hull polygon and scene, the search's placement
scene and the encoder's word.  Likewise
``geom._assume_point`` makes a ``Point`` without its int check, for the
sampler's hull corners and accepted candidates, which its own draws made
plain ints.  These tests rebuild such values with the full constructors and
require the same result, and read the source to check that nothing else calls
either helper or skips a constructor.  The sampler and ``Scene`` both name
lines by ``geom._line_names``, so a seeded subset is also checked against
``oracles.scene_diagnostics``, which shares no code with it.
"""

import ast
import random
from pathlib import Path

from obsrep.geom import Point, Polygon, _assume_valid
from obsrep.sampling import iter_single_obstacle_scenes, random_placement
from obsrep.scene import Scene
from obsrep.tangent import TangentSequence, encode_tangent

import oracles

SOURCES = sorted((Path(__file__).parents[1] / "src" / "obsrep").glob("*.py"))
HELPER = "_assume_valid"
SITES = {
    ("sampling.py", "random_convex_polygon"),
    ("sampling.py", "random_single_obstacle_scene"),
    ("search.py", "obs_upper_bound"),
    ("tangent.py", "encode_tangent"),
}
POINT_HELPER = "_assume_point"
POINT_SITES = {
    ("sampling.py", "random_convex_polygon"),
    ("sampling.py", "random_single_obstacle_scene"),
    ("sampling.py", "random_placement"),
}


def assert_plain_points(points):
    """Each point is a Point whose coordinates Point itself accepts."""
    for p in points:
        assert type(p) is Point and p == Point(p.x, p.y), p


def test_sampled_values_equal_their_full_rebuilds():
    """2,000 seeded scenes: each polygon, scene and word passes its full constructor.

    Every tenth scene also has no diagnostic by the brute-force oracle."""
    scenes = 0
    for scene in iter_single_obstacle_scenes(random.Random(2626), 2000):
        (poly,) = scene.obstacles
        assert_plain_points(poly.vertices + scene.points)
        if scenes % 10 == 0:
            assert oracles.scene_diagnostics(scene.points, [poly.vertices]) == (), scene
        rebuilt = Polygon(poly.vertices)
        assert rebuilt == poly
        assert Scene(scene.points, (rebuilt,)) == scene
        seq = encode_tangent(scene)
        assert TangentSequence(seq.events).events == seq.events
        scenes += 1
    assert scenes == 2000


def test_placements_equal_their_full_rebuilds():
    """Seeded placements on the search's grid and on small ones pass Scene unchanged.

    Every fourth placement also has no diagnostic by the brute-force oracle."""
    rng = random.Random(2626)
    placed = 0
    for n in range(2, 13):
        for grid in (100 * n * n, n * n, 4 * n * n, 30):
            for _ in range(20):
                pts = random_placement(rng, n, grid)
                assert_plain_points(pts)
                assert Scene(pts) == _assume_valid(Scene, points=pts, obstacles=())
                if placed % 4 == 0:
                    assert oracles.scene_diagnostics(pts, []) == (), pts
                placed += 1
    assert placed == 11 * 4 * 20


def enclosed(tree, wanted):
    """(enclosing function, node) of each node of one module that ``wanted`` accepts."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if wanted(child):
                found.append((function, child))
            visit(child, function)

    visit(tree, None)
    return found


def names(helper):
    """Does a node name the helper, bare or as a module attribute?"""
    return lambda node: (isinstance(node, ast.Name) and node.id == helper) or (
        isinstance(node, ast.Attribute) and node.attr == helper
    )


def skips_a_constructor(node):
    """Is the node ``object.__new__`` or ``tuple.__new__``?"""
    return (isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id in ("object", "tuple"))


def assert_called_only_at(helper, expected):
    """The helper lives in geom.py and is used at the expected (module, function) sites only."""
    assert len(SOURCES) > 10
    homes, sites = [], []
    for path in SOURCES:
        text = path.read_text()
        tree = ast.parse(text, str(path))
        homes += [path.name for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == helper]
        lines = text.splitlines()
        for function, node in enclosed(tree, names(helper)):
            sites.append((path.name, function))
            # each site says, in the comment just above it, what made the value valid
            assert lines[node.lineno - 2].lstrip().startswith("#"), (path.name, node.lineno)
    assert homes == ["geom.py"]
    assert sorted(sites) == sorted(expected)


def test_the_helper_is_called_only_at_the_listed_sites():
    assert_called_only_at(HELPER, SITES)


def test_the_point_helper_is_called_only_at_the_sampler_sites():
    assert_called_only_at(POINT_HELPER, POINT_SITES)


def test_the_helper_is_the_only_place_that_skips_a_constructor():
    """``object.__new__`` appears only in ``_assume_valid``, ``tuple.__new__`` only in ``_assume_point``."""
    skips = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        skips += [(path.name, function, node.value.id) for function, node in enclosed(tree, skips_a_constructor)]
    assert sorted(skips) == [("geom.py", POINT_HELPER, "tuple"), ("geom.py", HELPER, "object")]
