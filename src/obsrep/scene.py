"""Scenes: labeled points plus polygonal obstacles, validated when built."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import SceneError
from .geom import Point, Polygon, is_general_position, point_in_polygon


@dataclass(frozen=True)
class Scene:
    """Graph vertices (``points``) together with obstacle polygons.

    A scene validates itself when it is built: each point becomes a
    :class:`Point`, which refuses anything but an ``(x, y)`` pair of plain
    ints with :class:`GeometryError`, points or obstacles given as anything
    but a sequence, or an obstacle that is not a :class:`Polygon`, raise
    :class:`SceneError`, and so does a scene that breaks an invariant (see
    :func:`require_valid_scene`).  So every ``Scene`` in hand is valid and
    nothing downstream checks it again.  The seeded sampler's scenes are valid
    by construction and skip this pass; ``tests/test_valid_by_construction.py``
    rebuilds 2,000 of them in full to check that.
    """

    points: tuple[Point, ...]
    obstacles: tuple[Polygon, ...] = ()

    def __post_init__(self):
        wrong = [
            f"{name} is a {type(v).__name__}, not a sequence of {kind}"
            for name, kind, v in (
                ("points", "(x, y) pairs", self.points),
                ("obstacles", "Polygons", self.obstacles),
            )
            if not isinstance(v, Iterable)
        ]
        if wrong:
            raise SceneError(wrong)
        points = tuple(self.points)
        if any(type(p) is not Point for p in points):
            points = tuple(map(Point._make, points))
        object.__setattr__(self, "points", points)
        obstacles = tuple(self.obstacles)
        for k, poly in enumerate(obstacles):
            if not isinstance(poly, Polygon):
                raise SceneError([f"obstacles[{k}] is a {type(poly).__name__}, not a Polygon"])
        object.__setattr__(self, "obstacles", obstacles)
        require_valid_scene(self)

    @property
    def n(self) -> int:
        return len(self.points)


def require_valid_scene(scene: Scene) -> None:
    """Raise :class:`SceneError` with one message per broken invariant, if any.

    A usable scene has distinct labeled vertices with no three on a common
    line, no vertex inside or on an obstacle, and no obstacle corner in the
    interior of a segment joining two vertices.  The last rule rules out the
    contacts whose blocking status would depend on whether the obstacle
    boundary counts; collinearities that only involve obstacle corners are
    harmless and allowed.
    """
    out = []
    points = scene.points
    for v in is_general_position(points)[1]:
        names = ", ".join(f"points[{i}]" for i in v)
        kind = "duplicate points" if len(v) == 2 else "collinear triple"
        out.append(f"{kind}: {names}")
    for i, p in enumerate(points):
        for k, poly in enumerate(scene.obstacles):
            where = point_in_polygon(p, poly.vertices)
            if where >= 0:
                side = "inside" if where > 0 else "on the boundary of"
                out.append(f"points[{i}] is {side} obstacles[{k}]")
    between = []
    n = len(points)
    for k, poly in enumerate(scene.obstacles):
        for t, (wx, wy) in enumerate(poly.vertices):
            # Corner t lies strictly inside segment i-j exactly when the
            # vectors from it to points i and j are parallel (cross product
            # 0) and point opposite ways (dot product < 0).
            vectors = [(px - wx, py - wy) for px, py in points]
            for i in range(n):
                ux, uy = vectors[i]
                for j in range(i + 1, n):
                    vx, vy = vectors[j]
                    if ux * vy == uy * vx and ux * vx + uy * vy < 0:
                        between.append((i, j, k, t))
    for i, j, k, t in sorted(between):
        out.append(f"obstacles[{k}] vertex {t} lies between points[{i}] and points[{j}]")
    if out:
        raise SceneError(out)
