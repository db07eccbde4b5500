"""Visibility graphs of scenes and representation checking."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ObsrepError
from .geom import _assume_valid, _bounding_box, segment_intersects_polygon
from .graphs import Graph
from .scene import Scene


def visibility_details(scene: Scene):
    """The visibility graph plus, for each blocked pair, its blocking obstacles.

    Returns ``(graph, witnesses)`` where witnesses maps every non-edge to the
    non-empty list of obstacle indices that intersect its open segment, in
    increasing order: each obstacle in turn is tested against every pair
    whose ends do not both lie beyond one side of the obstacle's bounding box.
    The scene validated itself when it was built, so it is not checked again.
    """
    points = scene.points
    n = len(points)
    witnesses = {}
    for k, poly in enumerate(scene.obstacles):
        min_x, max_x, min_y, max_y = _bounding_box(poly.vertices)
        # One bit per side of the box that a point lies beyond: a segment whose
        # ends share a bit lies beyond that side, clear of the obstacle.
        sides = [(x < min_x) | (x > max_x) << 1 | (y < min_y) << 2 | (y > max_y) << 3
                 for x, y in points]
        for i in range(n):
            a = points[i]
            for j in range(i + 1, n):
                if not sides[i] & sides[j] and segment_intersects_polygon(a, points[j], poly):
                    witnesses.setdefault((i, j), []).append(k)
    edges = frozenset(combinations(range(n), 2)).difference(witnesses)
    # The line above makes each edge a pair i < j of range(n), as Graph's checks leave it.
    return _assume_valid(Graph, n=n, edges=edges), witnesses


@dataclass(frozen=True)
class RepresentationReport:
    """Outcome of comparing a scene's visibility graph against a target graph."""

    matches: bool
    blocked_but_required: tuple  # pairs in the graph whose segment is blocked
    visible_but_excluded: tuple  # visible pairs absent from the graph


def validate_representation(scene: Scene, g: Graph) -> RepresentationReport:
    """Does the scene represent exactly the labeled graph ``g``?

    Labeled comparison (vertex i is vertex i); isomorphism is deliberately not
    considered.
    """
    if g.n != scene.n:
        raise ObsrepError(f"graph has {g.n} vertices but the scene has {scene.n} points")
    actual = visibility_details(scene)[0]
    missing = tuple(sorted(g.edges - actual.edges))
    extra = tuple(sorted(actual.edges - g.edges))
    return RepresentationReport(not missing and not extra, missing, extra)
