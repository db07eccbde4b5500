"""Seeded random generators for scenes, convex obstacles and point placements.

All functions take an explicit ``random.Random`` so every caller is
reproducible from its seed; every bounded draw goes through :func:`_below`.
"""

from __future__ import annotations

from .errors import ObsrepError
from .geom import (Polygon, _assume_point, _assume_valid, _bounding_box, _on_a_line_through_two,
                   convex_hull, point_in_polygon)
from .scene import Scene


def _below(getrandbits, n):
    """``randrange(n)``'s draw for n >= 1: CPython's loop of n.bit_length() bits until < n."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _shuffle(getrandbits, items):
    """``random.Random.shuffle``'s Fisher–Yates loop, on :func:`_below`."""
    for i in range(len(items) - 1, 0, -1):
        j = _below(getrandbits, i + 1)
        items[i], items[j] = items[j], items[i]


def random_convex_polygon(rng) -> Polygon:
    """A strictly convex lattice polygon: hull of 4 to 7 random points in [-333, 333]^2."""
    bits = rng.getrandbits
    for _ in range(200):
        k = 4 + _below(bits, 4)
        raw = [(_below(bits, 667) - 333, _below(bits, 667) - 333) for _ in range(k)]
        hull = convex_hull(raw)
        if len(hull) >= 3:
            # convex_hull keeps distinct corners, pairs of the ints drawn above, in counterclockwise
            # order and drops every non-left turn: Points of a simple, strictly convex polygon.
            return _assume_valid(Polygon, vertices=tuple(map(_assume_point, hull)))
    raise ObsrepError("could not sample a convex polygon")


def random_single_obstacle_scene(rng, n_points) -> Scene:
    """A valid scene: one strictly convex obstacle, n labeled points outside it.

    Coordinates stay within ``[-1000, 1000]``; the joint point set (vertices
    plus obstacle corners) is kept in general position by rejection.
    """
    poly = random_convex_polygon(rng)
    bits = rng.getrandbits
    scale = 2000 * 2000 + 1  # every taken point lies in [-1000, 1000]^2
    xlo, xhi, ylo, yhi = _bounding_box(poly.vertices)
    taken = list(poly.vertices)
    pts = []
    tries = 0
    while len(pts) < n_points:
        tries += 1
        if tries > 4000:
            raise ObsrepError("could not place scene points in general position")
        q = qx, qy = _below(bits, 2001) - 1000, _below(bits, 2001) - 1000
        # a candidate outside the obstacle's box is strictly outside the obstacle
        if q in taken or (xlo <= qx <= xhi and ylo <= qy <= yhi
                          and point_in_polygon(q, poly.vertices) >= 0):
            continue
        if _on_a_line_through_two(q, taken, scale):
            continue
        # q is a pair of plain ints from _below
        q = _assume_point(q)
        taken.append(q)
        pts.append(q)
    # The rejection tests above establish require_valid_scene's invariants: taken holds the
    # corners too, so each point is new, strictly outside, and off every line through two others.
    return _assume_valid(Scene, points=tuple(pts), obstacles=(poly,))


def iter_single_obstacle_scenes(rng, count):
    """``count`` random scenes with 2..10 vertices each."""
    for _ in range(count):
        yield random_single_obstacle_scene(rng, 2 + _below(rng.getrandbits, 9))


def random_placement(rng, n, grid):
    """n labeled grid points in [0, grid)^2, in general position, distinct x.

    Distinct x-coordinates are required so that any placement can later feed
    the x-sorted partition checker.
    """
    bits = rng.getrandbits
    scale = grid * grid  # |dx| <= grid - 1
    pts = []
    xs = set()
    tries = 0
    while len(pts) < n:
        tries += 1
        if tries > 20000:
            raise ObsrepError(f"no general-position placement on a {grid}x{grid} grid")
        q = qx, qy = _below(bits, grid), _below(bits, grid)
        if qx in xs or _on_a_line_through_two(q, pts, scale):
            continue
        xs.add(qx)
        # q is a pair of plain ints from _below
        pts.append(_assume_point(q))
    return tuple(pts)
