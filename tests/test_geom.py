import dataclasses
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsrep.arrangement import build_arrangement
from obsrep.errors import GeometryError
from obsrep.geom import (
    Point,
    Polygon,
    closed_segments_intersect,
    convex_hull,
    direction_key,
    is_general_position,
    orient,
    point_in_polygon,
    polygon_area2,
    segment_intersects_polygon,
)
from obsrep.graphs import gnp_half
from obsrep.sampling import random_convex_polygon, random_placement
from obsrep.scene import Scene

import oracles
from oracles import direction_cmp
from support import polygon_edges, random_polygon

coords = st.integers(min_value=-10**6, max_value=10**6)
point_st = st.tuples(coords, coords)


@given(point_st, point_st, point_st)
def test_orient_cyclic_and_antisymmetric(a, b, c):
    assert orient(a, b, c) == orient(b, c, a) == orient(c, a, b)
    assert orient(a, b, c) == -orient(b, a, c)


@settings(max_examples=50)
@given(point_st, point_st, point_st, st.integers(min_value=1, max_value=1000))
def test_orient_scale_invariant(a, b, c, k):
    scaled = [(k * x, k * y) for x, y in (a, b, c)]
    assert orient(*scaled) == orient(a, b, c)


def test_orient_known_values():
    assert orient((0, 0), (1, 0), (0, 1)) == 1
    assert orient((0, 0), (0, 1), (1, 0)) == -1
    assert orient((0, 0), (1, 1), (2, 2)) == 0
    # huge coordinates stay exact
    big = 10**30
    assert orient((0, 0), (big, 1), (2 * big, 2)) == 0
    assert orient((0, 0), (big, 1), (2 * big, 3)) == 1


def test_direction_cmp_orders_counterclockwise_from_east():
    ring = [(1, 0), (2, 1), (0, 3), (-1, 1), (-5, 0), (-1, -4), (0, -1), (3, -1)]
    for i, a in enumerate(ring):
        for j, b in enumerate(ring):
            assert direction_cmp(a, b) == (i > j) - (i < j)
    assert direction_cmp((2, 4), (1, 2)) == 0
    assert direction_cmp((Fraction(1, 3), 0), (7, 0)) == 0


def _keys_order_like_direction_cmp(directions):
    scale = max(y * y for _, y in directions) + 1
    keys = [direction_key(x, y, scale) for x, y in directions]
    ties = 0
    for d1, k1 in zip(directions, keys):
        for d2, k2 in zip(directions, keys):
            assert (k1 > k2) - (k1 < k2) == direction_cmp(d1, d2), (d1, d2, scale)
            ties += k1 == k2 and d1 != d2
    return ties


def test_direction_key_orders_like_direction_cmp_on_a_small_grid():
    grid = [(x, y) for x in range(-5, 6) for y in range(-5, 6) if (x, y) != (0, 0)]
    assert _keys_order_like_direction_cmp(grid) > 0


def test_direction_key_orders_like_direction_cmp_near_two_to_the_seventy():
    """Directions with coordinates near 2**70: random ones, their negations,
    neighbours one unit off, Farey neighbours (cross product 1, so their
    slopes differ by the least amount the key must still tell apart), equal
    directions of different lengths and the four axis directions.  Keys tie
    exactly where direction_cmp does."""
    rng = random.Random(7070)
    big = 2**70

    def near():
        return rng.choice((-1, 1)) * (big - rng.randrange(2**20))

    directions = [(big, 0), (-big, 0), (0, big), (0, -big)]
    for _ in range(40):
        x, y = near(), near()
        directions += [(x, y), (-x, -y), (x + 1, y), (x, y - 1)]
        y1 = big - rng.randrange(2**20)
        x1 = next(x for x in iter(near, None) if gcd(x, y1) == 1)
        y2 = pow(x1, -1, y1)
        x2 = (x1 * y2 - 1) // y1
        directions += [(x1, y1), (x2, y2), (-x1, -y1), (-x2, -y2)]
        a, b = rng.randint(-9, 9) or 1, rng.randint(-9, 9) or 1
        m = big // 16 + rng.randrange(2**20)
        directions += [(a * m, b * m), (a * (m + 1), b * (m + 1))]
    assert _keys_order_like_direction_cmp(directions) >= 40


wide = st.integers(min_value=-(2**34), max_value=2**34)


@given(st.tuples(wide, wide).filter(lambda v: v != (0, 0)), st.integers(0, 2**20))
def test_direction_key_of_the_reverse_flips_only_the_lower_half_flag(v, offset):
    # build_arrangement keys each edge once and gives its twin dart this key
    x, y = v
    for scale in (y * y + 1, 2**70 - offset):
        k = direction_key(x, y, scale)
        assert direction_key(-x, -y, scale) == (not k[0], k[1], k[2])


def test_point_constructor_rejects_non_ints():
    with pytest.raises(GeometryError):
        Point(1.5, 0)
    with pytest.raises(GeometryError):
        Point(Fraction(1, 2), 0)
    with pytest.raises(GeometryError):
        Point(True, 0)
    with pytest.raises(GeometryError):
        Point(0, False)
    with pytest.raises(GeometryError):
        Point._make((1.5, 0))
    with pytest.raises(GeometryError):
        Point(1, 2)._replace(y=0.5)


def test_point_is_an_int_pair():
    p = Point(1, 2)
    assert p == (1, 2)
    assert hash(p) == hash((1, 2))
    x, y = p
    assert (x, y) == (p.x, p.y) == (p[0], p[1]) == (1, 2)
    assert repr(p) == "Point(1, 2)"


def test_on_segment_predicates():
    # the brute-force corner check behind scene validation
    a, b = (0, 0), (10, 0)
    assert oracles.on_open_segment(a, b, (7, 0))
    assert not oracles.on_open_segment(a, b, (0, 0))
    assert not oracles.on_open_segment(a, b, (10, 0))
    # vertical segment uses the y-range
    assert oracles.on_open_segment((3, 1), (3, 9), (3, 4))
    assert not oracles.on_open_segment((3, 1), (3, 9), (3, 9))


def test_polygon_constructor_validation():
    with pytest.raises(GeometryError):
        Polygon((Point(0, 0), Point(1, 0)))
    with pytest.raises(GeometryError):
        Polygon((Point(0, 0), Point(4, 0), Point(0, 0), Point(2, 3)))
    # clockwise order is rejected
    with pytest.raises(GeometryError):
        Polygon((Point(0, 0), Point(0, 4), Point(4, 0)))
    # bowtie is not simple
    with pytest.raises(GeometryError):
        Polygon((Point(0, 0), Point(4, 4), Point(4, 0), Point(0, 4)))
    # a spike folding straight back
    with pytest.raises(GeometryError):
        Polygon((Point(0, 0), Point(4, 0), Point(2, 0), Point(2, 3)))


def test_polygon_convexity_and_area():
    square = Polygon((Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)))
    assert square.is_convex()
    assert polygon_area2(square.vertices) == 32
    dent = Polygon((Point(0, 0), Point(6, 0), Point(6, 6), Point(3, 2), Point(0, 6)))
    assert not dent.is_convex()
    # a polygon is its vertex tuple: the same corners from another start differ
    assert [f.name for f in dataclasses.fields(square)] == ["vertices"]
    assert repr(square) == "Polygon(vertices=(Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)))"
    assert Polygon(square.vertices[1:] + square.vertices[:1]) != square


def test_is_convex_matches_the_orient_per_corner_oracle():
    """Seeded convex and dented polygons, and straight-cornered ones made by
    doubling a polygon and putting a corner at the midpoint of one of its
    edges, agree with one orientation per corner from every starting corner."""
    rng = random.Random(2681)
    seen = {"convex": 0, "dented": 0, "straight": 0}
    for _ in range(600):
        v = random_polygon(rng).vertices
        kind = "convex" if oracles.orient_per_corner_is_convex(v) else "dented"
        if rng.random() < 0.4:
            i = rng.randrange(len(v))
            v = tuple(Point(2 * x, 2 * y) for x, y in v)
            (ax, ay), (bx, by) = v[i], v[(i + 1) % len(v)]
            v = v[:i + 1] + (Point((ax + bx) // 2, (ay + by) // 2),) + v[i + 1:]
            kind = "straight"
        expected = oracles.orient_per_corner_is_convex(v)
        for r in range(len(v)):
            assert Polygon(v[r:] + v[:r]).is_convex() is expected, v
        seen[kind] += 1
    assert min(seen.values()) >= 100, seen


def test_segment_intersects_polygon_matches_oracle_around_sampled_obstacles():
    """Segments with ends in a margin around each sampled convex obstacle's
    box agree with the Cramer-rule oracle, whether the segment's own box
    misses the obstacle's, overlaps it without a hit, or hits."""
    rng = random.Random(3131)
    seen = {"boxes apart": 0, "boxes overlap, missed": 0, "hit": 0}
    for _ in range(300):
        obstacle = random_convex_polygon(rng)
        xs = [v.x for v in obstacle.vertices]
        ys = [v.y for v in obstacle.vertices]
        lo_x, hi_x, lo_y, hi_y = min(xs) - 150, max(xs) + 150, min(ys) - 150, max(ys) + 150
        for _ in range(20):
            a, b = (Point(rng.randint(lo_x, hi_x), rng.randint(lo_y, hi_y)) for _ in range(2))
            if a == b or max(point_in_polygon(q, obstacle.vertices) for q in (a, b)) >= 0:
                continue
            got = segment_intersects_polygon(a, b, obstacle)
            assert got == oracles.segment_meets_polygon(a, b, obstacle.vertices), (a, b, obstacle)
            apart = (
                max(a.x, b.x) < min(xs) or min(a.x, b.x) > max(xs)
                or max(a.y, b.y) < min(ys) or min(a.y, b.y) > max(ys)
            )
            seen["boxes apart" if apart else "hit" if got else "boxes overlap, missed"] += 1
    assert min(seen.values()) >= 500, seen


def test_point_in_polygon_basics():
    square = (Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4))
    assert point_in_polygon((2, 2), square) == 1
    assert point_in_polygon((2, 0), square) == 0
    assert point_in_polygon((4, 4), square) == 0
    assert point_in_polygon((5, 2), square) == -1
    assert point_in_polygon((-1, 4), square) == -1
    # rational query points work too
    assert point_in_polygon((Fraction(1, 2), Fraction(1, 3)), square) == 1
    # a point and a segment enclose nothing; a spur is boundary, not a wall
    assert [point_in_polygon(q, [(1, 1)]) for q in ((1, 1), (2, 1))] == [0, -1]
    segment = [(0, 0), (4, 2)]
    assert [point_in_polygon(q, segment) for q in ((2, 1), (6, 3), (1, 0))] == [0, -1, -1]
    spur = square[:2] + ((2, 2),) + square[1:]
    assert [point_in_polygon(q, spur) for q in ((3, 1), (1, 3), (5, 2))] == [0, 1, -1]


def test_point_in_polygon_matches_parity_oracle():
    """Random 3- to 7-gons, a third of them not convex, agree with ray parity
    on grid queries, on corners, on horizontal edges and the lines through
    them, level with corners, and on rational queries.  So do 1- and 2-vertex
    cycles and polygons with a spur to an inner point (a repeated corner), on
    grid queries, their nodes and rational points along their edges' lines,
    and the face walks of random drawings, which revisit nodes where an edge
    dangles."""
    rng = random.Random(77)
    seen = {"non-convex": 0, "corner": 0, "horizontal edge": 0, "level with a corner": 0, "fraction": 0}
    for trial in range(2000):
        poly = random_polygon(rng)
        verts = poly.vertices
        seen["non-convex"] += not poly.is_convex()
        kind = trial % 4
        if kind == 0:
            q = (rng.randint(-12, 12), rng.randint(-12, 12))
        elif kind == 1:
            q = rng.choice(verts)
            seen["corner"] += 1
        elif kind == 2:
            # on a horizontal edge or its line, or else level with a corner
            flat = [(u, v) for u, v in polygon_edges(poly) if u.y == v.y]
            if flat:
                u, v = rng.choice(flat)
                seen["horizontal edge"] += 1
            else:
                u = v = rng.choice(verts)
                seen["level with a corner"] += 1
            q = (u.x + Fraction(rng.randint(-2, 6), 4) * (v.x - u.x) + rng.randint(-3, 3), u.y)
        else:
            q = (Fraction(rng.randint(-40, 40), 3), Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3))))
            seen["fraction"] += 1
        assert point_in_polygon(q, verts) == oracles.point_in_polygon(q, verts), (q, verts)
    assert min(seen.values()) >= 100, seen

    rng = random.Random(78)
    shapes = [0, 0, 0]  # one point, two points, a polygon with a spur
    for trial in range(1500):
        verts = list(random_polygon(rng).vertices)
        shape = trial % 3
        if shape == 0:
            cycle = [rng.choice(verts)]
        elif shape == 1:
            cycle = rng.sample(verts, 2)
        else:
            tips = ((rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(40))
            tip = next((t for t in tips if oracles.point_in_polygon(t, verts) == 1), None)
            if tip is None:
                continue
            i = rng.randrange(len(verts))
            cycle = verts[: i + 1] + [tip] + verts[i:]
        shapes[shape] += 1
        kind = trial // 3 % 3
        if kind == 0:
            q = (rng.randint(-12, 12), rng.randint(-12, 12))
        elif kind == 1:
            q = rng.choice(cycle)
        else:
            i = rng.randrange(len(cycle))
            (ux, uy), (vx, vy) = cycle[i - 1], cycle[i]
            t = Fraction(rng.randint(-2, 6), 4)
            q = (ux + t * (vx - ux), uy + t * (vy - uy) + rng.choice((0, 0, Fraction(1, 3))))
        assert point_in_polygon(q, cycle) == oracles.point_in_polygon(q, cycle), (q, cycle)
    assert min(shapes) >= 400, shapes
    walks = 0
    for _ in range(40):
        scene = Scene(random_placement(rng, 6, 12))
        fs = build_arrangement(scene, gnp_half(6, rng))
        nodes = [oracles.xy(node) for node in fs.nodes]
        probes = nodes + [(rng.randint(-2, 14), rng.randint(-2, 14)) for _ in range(20)]
        for face in fs.faces:
            for cycle in face:
                walks += len(set(cycle)) < len(cycle)
                corners = [nodes[i] for i in cycle]
                for q in probes:
                    assert point_in_polygon(q, corners) == oracles.point_in_polygon(q, corners)
    assert walks >= 20, walks


def test_segment_intersects_polygon_known_cases(hexagon_scene):
    hexagon = hexagon_scene.obstacles[0]
    p1, p2, p3 = hexagon_scene.points
    assert not segment_intersects_polygon(p1, p2, hexagon)
    assert segment_intersects_polygon(p2, p3, hexagon)
    assert not segment_intersects_polygon(Point(100, 100), Point(101, 100), hexagon)


def test_segment_intersects_polygon_matches_oracle():
    """10k random segment/polygon pairs agree with the Cramer-rule oracle.

    A third of the polygons are not convex, and a fifth of the segments lie
    on a line through a corner, half of them short of it, where the corner's
    orientation is 0 but it lies outside the segment's box.
    """
    rng = random.Random(424242)
    done = 0
    seen = {"non-convex": 0, "corner beyond": 0, "corner on": 0}
    while done < 10000:
        poly = random_polygon(rng)
        if done % 5:
            a = Point(rng.randint(-14, 14), rng.randint(-14, 14))
            b = Point(rng.randint(-14, 14), rng.randint(-14, 14))
        else:
            # both ends on one line through corner w
            w = rng.choice(poly.vertices)
            dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (-1, 3)])
            s, t = rng.randint(-8, 8), rng.randint(-8, 8)
            if done % 2:
                s, t = abs(s) or 1, abs(t) or 2  # the corner lies beyond a and b
            a = Point(w.x + s * dx, w.y + s * dy)
            b = Point(w.x + t * dx, w.y + t * dy)
        if a == b:
            continue
        if point_in_polygon(a, poly.vertices) >= 0 or point_in_polygon(b, poly.vertices) >= 0:
            continue
        got = segment_intersects_polygon(a, b, poly)
        want = oracles.segment_meets_polygon(a, b, poly.vertices)
        assert got == want, (a, b, poly.vertices)
        seen["non-convex"] += not poly.is_convex()
        for w in poly.vertices:
            if orient(a, b, w) == 0:
                on = oracles.closed_segments_meet(a, b, w, w)
                seen["corner on" if on else "corner beyond"] += 1
        done += 1
    assert min(seen.values()) >= 500, seen


def test_is_general_position_reporting():
    ok, violations = is_general_position([(0, 0), (1, 0), (0, 1)])
    assert ok and violations == []
    ok, violations = is_general_position([(0, 0), (1, 1), (2, 2)])
    assert not ok and violations == [(0, 1, 2)]
    ok, violations = is_general_position([(0, 0), (5, 5), (0, 0)])
    assert not ok and (0, 2) in violations
    # a line through four points is reported once, not as its four triples
    ok, violations = is_general_position([(0, 0), (1, 0), (2, 0), (3, 0)])
    assert not ok and violations == [(0, 1, 2, 3)]
    # every line is reported, in order, and later copies of a point join none
    points = [(0, 0), (1, 1), (0, 0), (2, 2), (5, 0), (0, 5), (3, 0), (1, 4)]
    ok, violations = is_general_position(points)
    assert violations == [(0, 2), (0, 1, 3), (0, 4, 6), (3, 6, 7), (4, 5, 7)]


@pytest.mark.parametrize(
    "points",
    [
        # the first two are not collinear, yet floored slope names put each on one
        # line; a bool is not an int either
        [(0, 0), (1, 0), (2, Fraction(1, 10**9))],
        [(0.0, 0.0), (1.0, 0.0), (2.0, 1e-9)],
        [(True, 0), (4, 0), (0, 3)],
    ],
)
def test_is_general_position_refuses_coordinates_that_are_not_ints(points):
    with pytest.raises(GeometryError):
        is_general_position(points)


def test_convex_hull_small_cases():
    assert convex_hull([(0, 0)]) == [(0, 0)]
    assert convex_hull([(0, 0), (3, 3)]) == [(0, 0), (3, 3)]
    square = [(0, 0), (4, 0), (4, 4), (0, 4)]
    assert convex_hull(square + [(2, 2), (1, 3)]) == square
    # collinear boundary points are dropped
    assert convex_hull([(0, 0), (2, 0), (4, 0), (4, 4)]) == [(0, 0), (4, 0), (4, 4)]


def test_convex_hull_is_convex_and_contains_input():
    rng = random.Random(5)
    for _ in range(200):
        cloud = [(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(rng.randint(1, 15))]
        hull = convex_hull(cloud)
        if len(hull) >= 3:
            k = len(hull)
            assert all(orient(hull[i], hull[(i + 1) % k], hull[(i + 2) % k]) > 0 for i in range(k))
            for p in cloud:
                assert all(orient(hull[i], hull[(i + 1) % k], p) >= 0 for i in range(k))
        assert convex_hull(hull) == hull


def test_convex_hull_matches_the_gift_wrapping_oracle():
    """Seeded clouds with repeated points, with collinear runs, and with 0, 1
    or 2 distinct points, in shuffled order."""
    rng = random.Random(2682)
    seen = {"repeats": 0, "point on a hull edge": 0, "0-2 distinct": 0}
    for trial in range(3000):
        if trial % 3 == 0:
            base = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(1, 2))]
            cloud = [rng.choice(base) for _ in range(rng.randint(0, 6))]
        else:
            cloud = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(1, 12))]
            if trial % 3 == 2:  # a collinear run through one of the points
                (x, y), dx, dy = rng.choice(cloud), rng.randint(-3, 3), rng.randint(-3, 3)
                cloud += [(x + t * dx, y + t * dy) for t in range(-rng.randint(0, 4), rng.randint(1, 5))]
            cloud += rng.choices(cloud, k=rng.randint(0, 3))
        rng.shuffle(cloud)
        hull = convex_hull(cloud)
        assert hull == oracles.gift_wrapping_hull(cloud), cloud
        distinct = set(cloud)
        seen["repeats"] += len(distinct) < len(cloud)
        seen["0-2 distinct"] += len(distinct) <= 2
        k = len(hull)
        seen["point on a hull edge"] += k >= 3 and any(
            p not in hull and any(oracles.on_open_segment(hull[i - 1], hull[i], p) for i in range(k))
            for p in distinct
        )
    assert min(seen.values()) >= 300, seen


def test_closed_segments_intersect_endpoint_contact():
    assert closed_segments_intersect((0, 0), (4, 0), (4, 0), (8, 3))
    assert not closed_segments_intersect((0, 0), (4, 0), (5, 1), (8, 3))


def test_closed_segments_intersect_matches_oracle():
    """Segments on a small grid, a third of them on one line, agree with the
    Cramer-rule oracle; collinear overlaps, shared endpoints and zero-length
    segments are all common."""
    rng = random.Random(20261018)
    seen = {"collinear overlap": 0, "shared endpoint": 0, "zero length": 0}
    for trial in range(6000):
        if trial % 3:
            a, b, c, d = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(4)]
        else:
            # four points on one line through (2, 2)
            dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (-1, 2)])
            a, b, c, d = [(2 + t * dx, 2 + t * dy) for t in (rng.randint(-2, 2) for _ in range(4))]
        got = closed_segments_intersect(a, b, c, d)
        assert got == oracles.closed_segments_meet(a, b, c, d), (a, b, c, d)
        assert got == closed_segments_intersect(d, c, b, a)
        if a == b or c == d:
            seen["zero length"] += 1
        elif {a, b} & {c, d}:
            seen["shared endpoint"] += 1
        elif got and orient(a, b, c) == orient(a, b, d) == 0:
            seen["collinear overlap"] += 1
    assert min(seen.values()) >= 50, seen
    # a point on a segment's interior, at its end, and off it
    assert closed_segments_intersect((2, 2), (2, 2), (0, 0), (4, 4))
    assert closed_segments_intersect((0, 0), (4, 4), (4, 4), (4, 4))
    assert not closed_segments_intersect((2, 3), (2, 3), (0, 0), (4, 4))
    assert not closed_segments_intersect((1, 1), (1, 1), (2, 2), (2, 2))
