"""The values the library builds without their constructors' checks are valid.

``geom._assume_valid`` fills a frozen dataclass without running its
``__post_init__``.  Five places use it, each for a value its own code has just
made valid: the sampler's hull polygon and scene, the search's placement
scene, the encoder's word and the visibility graph.  These tests rebuild such
values with the full constructors and require the same result, and read the
source to check that nothing else calls the helper.
"""

import ast
import random
from pathlib import Path

from obsrep.geom import Polygon, _assume_valid
from obsrep.graphs import Graph
from obsrep.sampling import iter_single_obstacle_scenes, random_placement
from obsrep.scene import Scene
from obsrep.tangent import TangentSequence, encode_tangent
from obsrep.visibility import visibility_details

SOURCES = sorted((Path(__file__).parents[1] / "src" / "obsrep").glob("*.py"))
HELPER = "_assume_valid"
SITES = {
    ("sampling.py", "random_convex_polygon"),
    ("sampling.py", "random_single_obstacle_scene"),
    ("search.py", "obs_upper_bound"),
    ("tangent.py", "encode_tangent"),
    ("visibility.py", "visibility_details"),
}


def test_sampled_values_equal_their_full_rebuilds():
    """2,000 seeded scenes: each polygon, scene, word and graph passes its full constructor."""
    scenes = 0
    for scene in iter_single_obstacle_scenes(random.Random(2626), 2000):
        (poly,) = scene.obstacles
        rebuilt = Polygon(poly.vertices)
        assert rebuilt == poly
        assert Scene(scene.points, (rebuilt,)) == scene
        seq = encode_tangent(scene)
        assert TangentSequence(seq.events).events == seq.events
        graph = visibility_details(scene)[0]
        assert type(graph.edges) is frozenset
        assert Graph(graph.n, graph.edges) == graph
        scenes += 1
    assert scenes == 2000


def test_placements_equal_their_full_rebuilds():
    """Seeded placements on the search's grid and on small ones pass Scene unchanged."""
    rng = random.Random(2626)
    placed = 0
    for n in range(2, 13):
        for grid in (100 * n * n, n * n, 4 * n * n, 30):
            for _ in range(20):
                pts = random_placement(rng, n, grid)
                assert Scene(pts) == _assume_valid(Scene, points=pts, obstacles=())
                placed += 1
    assert placed == 11 * 4 * 20


def helper_uses(tree):
    """(enclosing function, line) of each use of the helper's name in one module."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == HELPER) or (
                isinstance(child, ast.Attribute) and child.attr == HELPER
            ):
                found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


def test_the_helper_is_called_only_at_the_listed_sites():
    assert len(SOURCES) > 10
    homes, sites = [], []
    for path in SOURCES:
        text = path.read_text()
        tree = ast.parse(text, str(path))
        homes += [path.name for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == HELPER]
        lines = text.splitlines()
        for function, line in helper_uses(tree):
            sites.append((path.name, function))
            # each site says, in the comment just above it, what made the value valid
            assert lines[line - 2].lstrip().startswith("#"), (path.name, line)
    assert homes == ["geom.py"]
    assert sorted(sites) == sorted(SITES)


def test_the_helper_is_the_only_place_that_skips_a_constructor():
    skips = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                skips.append((path.name, node.lineno))
    assert len(skips) == 1 and skips[0][0] == "geom.py"
