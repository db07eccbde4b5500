"""Visibility graphs of scenes and representation checking."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ObsrepError
from .geom import _bounding_box, segment_intersects_polygon
from .graphs import Graph
from .scene import Scene


def visibility_details(scene: Scene):
    """Each blocked pair of the scene with the obstacles that block it.

    Returns a dict that maps every blocked pair ``(i, j)``, i < j, to the
    non-empty list of obstacle indices that intersect its open segment, in
    increasing order: each obstacle in turn is tested against every pair
    whose ends do not both lie beyond one side of the obstacle's bounding box.
    The visibility graph is its complement: every other pair is an edge.
    The scene validated itself when it was built, so it is not checked again.
    """
    points = scene.points
    n = len(points)
    blocked = {}
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
                    blocked.setdefault((i, j), []).append(k)
    return blocked


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
    blocked = visibility_details(scene)
    missing = tuple(e for e in g.sorted_edges() if e in blocked)
    extra = tuple(p for p in g.non_edges() if p not in blocked)
    return RepresentationReport(not missing and not extra, missing, extra)
