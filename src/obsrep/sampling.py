"""Seeded random generators for scenes, convex obstacles and point placements.

All functions take an explicit ``random.Random`` so every caller is
reproducible from its seed.
"""

from __future__ import annotations

from math import gcd

from .errors import ObsrepError
from .geom import Point, Polygon, _assume_valid, _bounding_box, convex_hull, point_in_polygon
from .scene import Scene


def _collinear_with_any_pair(pts, q):
    """Does q lie on a line through two of the points?  q must not be one of them.

    Each point's offset from q, divided by its gcd and turned to point right
    (or straight up), names its line through q: two points share a line
    with q exactly when their names agree.
    """
    qx, qy = q
    lines = set()
    for ax, ay in pts:
        dx, dy = ax - qx, ay - qy
        g = gcd(dx, dy)
        if dx < 0 or (dx == 0 and dy < 0):
            g = -g
        line = (dx // g, dy // g)
        if line in lines:
            return True
        lines.add(line)
    return False


def random_convex_polygon(rng) -> Polygon:
    """A strictly convex lattice polygon: hull of 4 to 7 random points in [-333, 333]^2."""
    for _ in range(200):
        k = rng.randint(4, 7)
        raw = [Point(rng.randint(-333, 333), rng.randint(-333, 333)) for _ in range(k)]
        hull = convex_hull(raw)
        if len(hull) >= 3:
            # convex_hull keeps distinct corners in counterclockwise order and drops every
            # non-left turn, so the hull is simple and strictly convex: Polygon's invariants.
            return _assume_valid(Polygon, vertices=tuple(hull), _box=_bounding_box(hull))
    raise ObsrepError("could not sample a convex polygon")


def random_single_obstacle_scene(rng, n_points) -> Scene:
    """A valid scene: one strictly convex obstacle, n labeled points outside it.

    Coordinates stay within ``[-1000, 1000]``; the joint point set (vertices
    plus obstacle corners) is kept in general position by rejection.
    """
    poly = random_convex_polygon(rng)
    taken = list(poly.vertices)
    pts = []
    tries = 0
    while len(pts) < n_points:
        tries += 1
        if tries > 4000:
            raise ObsrepError("could not place scene points in general position")
        q = Point(rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        if q in taken or point_in_polygon(q, poly.vertices) >= 0 or _collinear_with_any_pair(taken, q):
            continue
        taken.append(q)
        pts.append(q)
    # The rejection tests above establish require_valid_scene's invariants: taken holds the
    # corners too, so each point is new, strictly outside, and off every line through two others.
    return _assume_valid(Scene, points=tuple(pts), obstacles=(poly,))


def iter_single_obstacle_scenes(rng, count):
    """``count`` random scenes with 2..10 vertices each."""
    for _ in range(count):
        yield random_single_obstacle_scene(rng, rng.randint(2, 10))


def random_placement(rng, n, grid):
    """n labeled grid points in [0, grid)^2, in general position, distinct x.

    Distinct x-coordinates are required so that any placement can later feed
    the x-sorted partition checker.
    """
    pts = []
    xs = set()
    tries = 0
    while len(pts) < n:
        tries += 1
        if tries > 20000:
            raise ObsrepError(f"no general-position placement on a {grid}x{grid} grid")
        q = Point(rng.randrange(grid), rng.randrange(grid))
        if q.x in xs or _collinear_with_any_pair(pts, q):
            continue
        xs.add(q.x)
        pts.append(q)
    return tuple(pts)
