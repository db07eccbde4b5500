"""Exact planar primitives on integer coordinates.

A point is an ``(x, y)`` pair of ints; :class:`Point` is the validated form
of one, and every function here accepts either, since a ``Point`` is a tuple.
Predicates that also meet derived points (crossings, interior samples) take
``fractions.Fraction`` coordinates too; :func:`is_general_position` does not.
Every predicate is decided with arbitrary-precision integer or ``Fraction``
arithmetic, never floating point, so results are exact for any input size.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations

from .errors import GeometryError


class Point(namedtuple("Point", "x y")):
    """A point with exact integer coordinates: ``p.x``, ``p[0]`` and ``x, y = p`` all work."""

    __slots__ = ()

    def __new__(cls, x, y):
        if type(x) is not int or type(y) is not int:
            raise GeometryError(f"point coordinates must be plain ints, got Point({x}, {y})")
        return super().__new__(cls, x, y)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make (and _replace, which calls it) skips __new__.
        try:
            x, y = iterable
        except (TypeError, ValueError):
            raise GeometryError(f"a point is an (x, y) pair, got {iterable!r}") from None
        return cls(x, y)

    def __repr__(self):
        return f"Point({self.x}, {self.y})"


def orient(a, b, c) -> int:
    """Sign of the cross product (b-a) x (c-a): +1 left turn, -1 right, 0 collinear."""
    return orient_xy(*a, *b, *c)


def orient_xy(ax, ay, bx, by, cx, cy) -> int:
    """``orient`` on raw coordinates (ints or Fractions)."""
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (d > 0) - (d < 0)


def _in_box(a, b, p) -> bool:
    """Is p inside the closed axis-parallel box spanned by a and b?"""
    (ax, ay), (bx, by), (px, py) = a, b, p
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def direction_key(x, y, scale):
    """An exact integer sort key for the nonzero integer direction (x, y).

    Keys sort counterclockwise from +x, and two keys are equal exactly when their directions
    agree, provided ``scale > y * y`` for every direction compared; the reference comparator
    they are tested against lives in ``tests/oracles.py``.  A lower-half direction is flipped
    into the upper half, where its place is the slope ``-x / y``, kept as ``(-x * scale) // y``:
    exact by :func:`_line_names`.
    """
    lower = y < 0 or (y == 0 and x < 0)
    if lower:
        x, y = -x, -y
    return (lower, y != 0, (-x * scale) // y if y else 0)


def _line_names(q, points, scale):
    """Name each point's line through q: ``(y - qy) * scale // (x - qx)``, or None if vertical.

    Two points share a name exactly when they share a line through q, on ints with ``scale >= D**2``
    for every ``|dx| <= D``: distinct slopes then differ by ``>= 1 / |dx1 * dx2| >= 1 / D**2``.
    """
    qx, qy = q
    return [(y - qy) * scale // (x - qx) if x != qx else None for x, y in points]


def _on_a_line_through_two(q, points, scale):
    """Is q on a line through two of the points?  q must not be one of them."""
    return len(set(_line_names(q, points, scale))) < len(points)


def closed_segments_intersect(a, b, c, d) -> bool:
    """Do the closed segments [a, b] and [c, d] share at least one point?"""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = a, b, c, d
    d1 = orient_xy(cx, cy, dx, dy, ax, ay)
    d2 = orient_xy(cx, cy, dx, dy, bx, by)
    d3 = orient_xy(ax, ay, bx, by, cx, cy)
    d4 = orient_xy(ax, ay, bx, by, dx, dy)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    # Otherwise they meet only where an endpoint lies on the other segment.
    return (
        (d1 == 0 and _in_box(c, d, a))
        or (d2 == 0 and _in_box(c, d, b))
        or (d3 == 0 and _in_box(a, b, c))
        or (d4 == 0 and _in_box(a, b, d))
    )


def polygon_area2(vertices) -> int:
    """Twice the signed area of the vertex cycle (positive = counterclockwise)."""
    pairs = zip(vertices, vertices[1:] + vertices[:1])
    return sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in pairs)


def _assume_valid(cls, **fields):
    """``cls(**fields)`` without running ``__post_init__``, for a value valid by construction.

    Each caller names its own code that established the invariants; input goes through ``cls``."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _assume_point(xy):
    """``Point(*xy)`` without its int check, for a pair of plain ints the caller drew itself."""
    return tuple.__new__(Point, xy)


def _bounding_box(vertices):
    """``(min x, max x, min y, max y)`` of a nonempty vertex sequence."""
    xs, ys = zip(*vertices)
    return min(xs), max(xs), min(ys), max(ys)


@dataclass(frozen=True)
class Polygon:
    """A simple polygon, vertices in counterclockwise order, no holes.

    The constructor enforces: each vertex a :class:`Point`, at least 3
    vertices, all distinct, edges meet only at shared endpoints
    (simplicity), and signed area > 0.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self):
        if not isinstance(self.vertices, Iterable):
            kind = type(self.vertices).__name__
            raise GeometryError(f"polygon vertices are a {kind}, not a sequence of (x, y) pairs")
        v = tuple(self.vertices)
        if any(type(p) is not Point for p in v):
            v = tuple(map(Point._make, v))
        object.__setattr__(self, "vertices", v)
        k = len(v)
        if k < 3:
            raise GeometryError(f"polygon needs >= 3 vertices, got {k}")
        for i, j in combinations(range(k), 2):
            if v[i] == v[j]:
                raise GeometryError(f"polygon repeats vertex {v[i]!r} (positions {i}, {j})")
        for i in range(k):
            p, q, r = v[i - 1], v[i], v[(i + 1) % k]
            if orient(p, q, r) == 0 and (r.x - q.x) * (p.x - q.x) + (r.y - q.y) * (p.y - q.y) > 0:
                raise GeometryError(f"polygon edges fold back at {q!r}")
        for i in range(k):
            a, b = v[i], v[(i + 1) % k]
            for j in range(i + 2, k - (i == 0)):  # skip edges adjacent to edge i
                c, d = v[j], v[(j + 1) % k]
                if closed_segments_intersect(a, b, c, d):
                    raise GeometryError(f"polygon is not simple: edges {i} and {j} intersect")
        if polygon_area2(v) <= 0:
            raise GeometryError("polygon vertices must be in counterclockwise order")

    def is_convex(self) -> bool:
        """Strict convexity: at every corner, edge in x edge out > 0 (a left turn)."""
        (ux, uy), (wx, wy) = self.vertices[-2:]
        ex, ey = wx - ux, wy - uy
        for x, y in self.vertices:
            fx, fy = x - wx, y - wy
            if ex * fy - ey * fx <= 0:
                return False
            wx, wy, ex, ey = x, y, fx, fy
        return True


def point_in_polygon(q, vertices) -> int:
    """Locate q against a closed vertex cycle: +1 inside, 0 on it, -1 outside.

    Exact crossing-number test: q is inside when an odd number of edges
    cross the ray from q towards +x.  Any nonempty cycle works: a polygon's
    corners, a face walk that revisits nodes, or the one or two points of a
    degenerate hull, which enclose nothing.  q and the corners may have
    Fraction coordinates.  One orientation per edge decides both whether q
    lies on that edge and whether the edge crosses the ray.
    """
    qx, qy = q
    inside = False
    ux, uy = vertices[-1]
    for vx, vy in vertices:
        o = (vx - ux) * (qy - uy) - (vy - uy) * (qx - ux)  # its sign is orient(u, v, q)
        if o == 0:
            if min(ux, vx) <= qx <= max(ux, vx) and min(uy, vy) <= qy <= max(uy, vy):
                return 0
        elif (uy > qy) != (vy > qy):
            # For an upward edge the crossing lies right of q iff q is left of u->v;
            # for a downward edge the test flips.
            if (o > 0) == (vy > uy):
                inside = not inside
        ux, uy = vx, vy
    return 1 if inside else -1


def segment_intersects_polygon(a, b, polygon: Polygon) -> bool:
    """Does the open segment between the distinct points a and b meet the closed region?

    Both endpoints must lie strictly outside the region.  Every vertex of a
    :class:`~obsrep.scene.Scene` does, since a scene validates itself when it
    is built, so this function does not check it again.  Boundary contact
    counts as intersection.  Then the closed segment meeting the boundary
    decides it: contact at a or b is impossible, and a segment that enters
    the region crosses its boundary.  Under that precondition the segment
    meets the boundary in two cases only: a corner lies on it, or it
    properly crosses an edge (the edge's ends lie strictly on either side of
    the segment's line, and a and b strictly on either side of the edge's).
    One walk over the corners, with one orientation each against the line
    a-b, finds both.
    """
    (ax, ay), (bx, by) = a, b
    vertices = polygon.vertices
    dx, dy = bx - ax, by - ay
    ux, uy = vertices[-1]
    su = dx * (uy - ay) - dy * (ux - ax)
    for vx, vy in vertices:
        sv = dx * (vy - ay) - dy * (vx - ax)  # its sign is orient(a, b, v)
        if sv == 0:
            if _in_box(a, b, (vx, vy)):
                return True
        elif su * sv < 0:
            ex, ey = vx - ux, vy - uy
            if (ex * (ay - uy) - ey * (ax - ux)) * (ex * (by - uy) - ey * (bx - ux)) < 0:
                return True
        ux, uy, su = vx, vy, sv
    return False


def is_general_position(points):
    """Check that no two points coincide and no three are collinear.

    Returns ``(ok, violations)`` where violations lists an index pair for each
    later copy of a point, then, over first copies only, the increasing index
    tuple of each line through three or more points, once, in sorted order.
    Each point is read as a :class:`Point`, so only ints are accepted.  Each first copy
    names its later ones' lines by one :func:`_line_names` call, so the lines cost O(n^2).
    """
    points = [p if type(p) is Point else Point._make(p) for p in points]
    violations = []
    seen = {}
    for i, p in enumerate(points):
        if seen.setdefault(p, i) != i:
            violations.append((seen[p], i))
    firsts, distinct = list(seen.values()), list(seen)
    xs = [x for x, _ in distinct] or [0]
    scale = (max(xs) - min(xs)) ** 2 + 1  # |dx| <= max(xs) - min(xs)
    done = set()
    for a, i in enumerate(firsts):
        lines = {}
        for j, name in zip(firsts[a + 1:], _line_names(distinct[a], distinct[a + 1:], scale)):
            lines.setdefault(name, []).append(j)
        for name, line in lines.items():
            if len(line) > 1 and (i, name) not in done:
                violations.append((i, *line))
                done.update((j, name) for j in line)
    return (not violations), violations


def convex_hull(points):
    """Convex hull in counterclockwise order (strict: collinear points dropped)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    def chain(seq):
        out = []
        for p in seq:
            px, py = p
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:  # orient(a, b, p) > 0
                    break
                out.pop()
            out.append(p)
        return out
    lower = chain(pts)
    upper = chain(reversed(pts))
    return lower[:-1] + upper[:-1]
