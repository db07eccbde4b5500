"""Order types (chirotopes) and the combined point/obstacle signature.

The signature of a scene lists the orientation of every triple drawn from the
graph vertices followed by the obstacle corners (in boundary order), together
with which index range belongs to which obstacle.  Two scenes with equal
signatures have the same visibility graph.  The order type of a point list
is the signature of a scene with those points and no obstacles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .geom import orient
from .scene import Scene


def _triple_signs(points) -> tuple[int, ...]:
    pts = list(points)
    return tuple(orient(pts[i], pts[j], pts[k]) for i, j, k in combinations(range(len(pts)), 3))


@dataclass(frozen=True)
class SceneSignature:
    """Triple orientations over vertices + obstacle corners, with the ranges.

    ``entries`` covers every triple of the concatenated sequence (vertices
    first, then each obstacle's corners in boundary order) in lexicographic
    order.  Zero entries are permitted as long as the scene itself is valid:
    a vertex may be collinear with two obstacle corners without affecting
    any visibility.  ``ranges`` gives one half-open index interval per
    obstacle; the order type of the vertices alone has none.
    """

    n: int
    total: int
    entries: tuple[int, ...]
    ranges: tuple[tuple[int, int], ...]


def scene_signature(scene: Scene) -> SceneSignature:
    """Signature of the scene: every triple's orientation and the obstacle ranges."""
    pts = list(scene.points)
    ranges = []
    for poly in scene.obstacles:
        ranges.append((len(pts), len(pts) + len(poly.vertices)))
        pts.extend(poly.vertices)
    return SceneSignature(scene.n, len(pts), _triple_signs(pts), tuple(ranges))
