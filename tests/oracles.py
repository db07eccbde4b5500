"""Independent re-derivations used to cross-check the package's answers.

Nothing here calls the package's own predicates: intersections are found by
solving 2x2 linear systems over ``fractions.Fraction`` (Cramer's rule),
point-in-polygon is parity ray casting, a point is in a hull when it is in
a triangle, on a segment or at a point of the group, scene diagnostics test
every vertex pair against every obstacle corner, drawing faces come from a
vertical-slab decomposition flooded across slab boundaries instead of
half-edge tracing, face/non-edge incidence locates the midpoint of each
stretch between crossings instead of walking the darts, face areas and dart
rings are read off node coordinates instead of edge vectors, two directions
are compared by a cross product instead of integer keys, a face's
representative halves a probe until it is clear (in Fractions, or in int
triples whose contacts are decided by orientations) instead of solving for
the probe's first contact, minimum set cover is plain subset enumeration, a
counting bound is decided by building both of its powers in full, a tangent
word tests both signs of every point at every obstacle corner with two
cross products each instead of reading one side per edge, a pair's
pattern rescans the whole word, a scene's pairs go into a pattern table
with one ``record`` each instead of one per distinct (pattern, outcome), and
a sampler's line through a candidate is named by its offset reduced by the
gcd instead of by a scaled slope.  Slower and dumber on purpose.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


def xy(p):
    """A point ``(x, y)``, or a homogeneous node ``(X, Y, W)``, as two Fractions."""
    x, y, *w = p
    return (Fraction(x, *w), Fraction(y, *w))


def cross_params(a, b, c, d):
    """(t, u) with a + t(b-a) = c + u(d-c), or None for parallel segments."""
    (ax, ay), (bx, by) = xy(a), xy(b)
    (cx, cy), (dx, dy) = xy(c), xy(d)
    det = (bx - ax) * (cy - dy) - (by - ay) * (cx - dx)
    if det == 0:
        return None
    t = ((cx - ax) * (cy - dy) - (cy - ay) * (cx - dx)) / det
    u = ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) / det
    return t, u


def _param_on_line(a, b, p):
    """Parameter of p along a->b assuming collinearity (None if off the line)."""
    (ax, ay), (bx, by), (px, py) = xy(a), xy(b), xy(p)
    if (bx - ax) * (py - ay) != (by - ay) * (px - ax):
        return None
    if bx != ax:
        return (px - ax) / (bx - ax)
    return (py - ay) / (by - ay)


def open_segment_hits_closed(a, b, c, d) -> bool:
    """Open (a, b) versus closed [c, d], decided by parameters."""
    params = cross_params(a, b, c, d)
    if params is not None:
        t, u = params
        return 0 < t < 1 and 0 <= u <= 1
    tc = _param_on_line(a, b, c)
    if tc is None:
        return False
    td = _param_on_line(a, b, d)
    lo, hi = min(tc, td), max(tc, td)
    return hi > 0 and lo < 1


def closed_segments_meet(a, b, c, d) -> bool:
    """Closed [a, b] versus closed [c, d], decided by parameters.

    Either segment may have zero length, that is, be a single point.
    """
    if xy(a) == xy(b):
        a, b, c, d = c, d, a, b
    if xy(c) == xy(d):
        if xy(a) == xy(b):
            return xy(a) == xy(c)
        t = _param_on_line(a, b, c)
        return t is not None and 0 <= t <= 1
    params = cross_params(a, b, c, d)
    if params is not None:
        t, u = params
        return 0 <= t <= 1 and 0 <= u <= 1
    tc = _param_on_line(a, b, c)
    if tc is None:
        return False
    td = _param_on_line(a, b, d)
    return max(tc, td) >= 0 and min(tc, td) <= 1


def on_open_segment(a, b, p) -> bool:
    """Does p lie strictly between a and b on their segment?  False when a == b."""
    if xy(a) == xy(b):
        return False
    t = _param_on_line(a, b, p)
    return t is not None and 0 < t < 1


def segment_meets_polygon(a, b, vertices) -> bool:
    """Does the open segment meet the closed polygon?  Assumes a, b outside."""
    k = len(vertices)
    return any(
        open_segment_hits_closed(a, b, vertices[i], vertices[(i + 1) % k])
        for i in range(k)
    )


def point_in_polygon(q, vertices) -> int:
    """+1 inside, 0 on the boundary, -1 outside; parity of a +x ray.

    ``vertices`` is any closed cycle: one point, two, or a walk that repeats
    a corner, so an edge may have zero length.
    """
    qx, qy = xy(q)
    k = len(vertices)
    for i in range(k):
        if closed_segments_meet(vertices[i], vertices[(i + 1) % k], q, q):
            return 0
    odd = False
    for i in range(k):
        (cx, cy), (dx, dy) = xy(vertices[i]), xy(vertices[(i + 1) % k])
        if (cy <= qy) != (dy <= qy):
            x_hit = cx + (qy - cy) * (dx - cx) / (dy - cy)
            if x_hit > qx:
                odd = not odd
    return 1 if odd else -1


def hull_contains_all(group_points, vertices) -> bool:
    """Is every vertex inside or on the convex hull of the group's points?

    Three cases instead of a hull (Carathéodory): a vertex is in the hull
    when it is one of the points, lies on the segment between two, or lies
    in the closed triangle of three that are not collinear.
    """

    def cross(a, b, c):
        (ax, ay), (bx, by), (cx, cy) = xy(a), xy(b), xy(c)
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    def inside(v):
        if any(xy(v) == xy(p) for p in group_points):
            return True
        if any(closed_segments_meet(a, b, v, v) for a, b in combinations(group_points, 2)):
            return True
        for a, b, c in combinations(group_points, 3):
            area = cross(a, b, c)
            if area != 0 and all(area * cross(*e, v) >= 0 for e in ((a, b), (b, c), (c, a))):
                return True
        return False

    return all(inside(v) for v in vertices)


def scene_diagnostics(points, obstacles):
    """The messages ``require_valid_scene`` reports, in its order, by brute force.

    Each later copy of a point is paired with its first copy, every triple
    with a zero cross product is collinear, each point is located in each
    obstacle's vertex list by ray parity, and every vertex pair is tested
    against every obstacle corner with ``on_open_segment``.
    """
    out = []
    for j, q in enumerate(points):
        first = next((i for i in range(j) if xy(points[i]) == xy(q)), None)
        if first is not None:
            out.append(f"duplicate points: points[{first}], points[{j}]")
    for i, j, k in combinations(range(len(points)), 3):
        (ax, ay), (bx, by), (cx, cy) = xy(points[i]), xy(points[j]), xy(points[k])
        if (bx - ax) * (cy - ay) == (by - ay) * (cx - ax):
            out.append(f"collinear triple: points[{i}], points[{j}], points[{k}]")
    for i, p in enumerate(points):
        for k, vertices in enumerate(obstacles):
            where = point_in_polygon(p, vertices)
            if where >= 0:
                side = "inside" if where > 0 else "on the boundary of"
                out.append(f"points[{i}] is {side} obstacles[{k}]")
    for i, j in combinations(range(len(points)), 2):
        for k, vertices in enumerate(obstacles):
            for t, w in enumerate(vertices):
                if on_open_segment(points[i], points[j], w):
                    out.append(
                        f"obstacles[{k}] vertex {t} lies between points[{i}] and points[{j}]"
                    )
    return tuple(out)


def shoelace_area2(nodes, cycle):
    """Twice the signed area of a node-id cycle, summed over its coordinates
    as Fractions."""
    total = 0
    for i, j in zip(cycle, cycle[1:] + cycle[:1]):
        (x1, y1), (x2, y2) = xy(nodes[i]), xy(nodes[j])
        total += x1 * y2 - x2 * y1
    return total


def direction_cmp(d1, d2) -> int:
    """Order two nonzero directions counterclockwise from +x: -1, 1, or 0 if
    they agree.  The reference order that ``geom.direction_key`` must match."""
    lower1 = d1[1] < 0 or (d1[1] == 0 and d1[0] < 0)
    lower2 = d2[1] < 0 or (d2[1] == 0 and d2[0] < 0)
    if lower1 != lower2:
        return lower1 - lower2
    c = d1[0] * d2[1] - d1[1] * d2[0]
    return (c < 0) - (c > 0)


def _ccw_key(d):
    """Sort key of a nonzero direction counterclockwise from +x; equal for equal directions."""
    dx, dy = xy(d)
    half = 0 if dy > 0 or (dy == 0 and dx > 0) else 1
    return (half, 0, 0) if dy == 0 else (half, 1, -dx / dy)


def ccw_ring(nodes, pieces, ring):
    """The darts of ``ring`` sorted counterclockwise from +x by head minus tail.

    Dart 2k runs along ``pieces[k]`` and 2k+1 against it.  A direction's key
    is its half-plane (angles in [0, pi) first) and then minus its cotangent,
    which grows with the angle inside each half; the axis directions come
    first in their halves.
    """
    def key(d):
        a, b = pieces[d >> 1][::-1] if d & 1 else pieces[d >> 1]
        (ax, ay), (bx, by) = xy(nodes[a]), xy(nodes[b])
        return _ccw_key((bx - ax, by - ay))

    return tuple(sorted(ring, key=key))


def _halving_probe(v, du, dw, others):
    """v + m·t for m = dw·|du|₁ + du·|dw|₁, with t starting at 1 and halving
    until the closed probe [v, v + m·t] meets none of the closed ``others``."""
    nu = abs(du[0]) + abs(du[1])
    nw = abs(dw[0]) + abs(dw[1])
    m = (dw[0] * nu + du[0] * nw, dw[1] * nu + du[1] * nw)
    t = Fraction(1)
    p = (v[0] + m[0] * t, v[1] + m[1] * t)
    for a, b in others:
        while closed_segments_meet(v, p, a, b):
            t /= 2
            p = (v[0] + m[0] * t, v[1] + m[1] * t)
    return p


def whole_drawing_probe(nodes, pieces, cycle):
    """Representative of the bounded face with outer boundary ``cycle``,
    probed against every piece and node of the drawing.

    ``cycle`` is positively oriented.  From its first lowest (then leftmost)
    strictly convex corner v, the probe runs from v along the sum of the two
    boundary directions, each scaled by the other's L1 length; its step starts
    at 1 and halves until the closed probe meets no piece that avoids v and
    no node that lies on no piece.
    """
    coords = [xy(nodes[i]) for i in cycle]
    k = len(coords)
    best = None
    for idx in range(k):
        v, u, w = coords[idx], coords[idx - 1], coords[(idx + 1) % k]
        du = (u[0] - v[0], u[1] - v[1])
        dw = (w[0] - v[0], w[1] - v[1])
        convex = dw[0] * du[1] - dw[1] * du[0] > 0
        if convex and (best is None or (v[1], v[0]) < (best[1][1], best[1][0])):
            best = (idx, v, du, dw)
    idx, v, du, dw = best
    others = [(nodes[a], nodes[b]) for a, b in pieces if cycle[idx] not in (a, b)]
    on_pieces = {i for piece in pieces for i in piece}
    others += [(q, q) for i, q in enumerate(nodes) if i not in on_pieces]
    return _halving_probe(v, du, dw, others)


def halving_representative(nodes, cycles, isolated):
    """Representative of the bounded face with these cycles, outer first,
    probed against the face's own pieces and the ``isolated`` points.

    From the first lowest (then leftmost) node v of the outer cycle, the
    probe runs as in ``whole_drawing_probe``; its step halves until the
    closed probe meets no piece of the cycles that avoids v and none of the
    isolated points.
    """
    outer = [xy(nodes[i]) for i in cycles[0]]
    k = len(outer)
    idx = min(range(k), key=lambda i: (outer[i][1], outer[i][0]))
    v, u, w = outer[idx], outer[idx - 1], outer[(idx + 1) % k]
    others = _face_others(nodes, cycles, cycles[0][idx], isolated)
    return _halving_probe(v, (u[0] - v[0], u[1] - v[1]), (w[0] - v[0], w[1] - v[1]), others)


def _face_others(nodes, cycles, corner, isolated):
    """The pieces of the face's cycles that avoid ``corner``, then each
    isolated point as a piece of length zero."""
    others = [
        (nodes[a], nodes[b])
        for c in cycles
        for a, b in zip(c, c[1:] + c[:1])
        if corner not in (a, b)
    ]
    return others + [(q, q) for q in isolated]


def _homogeneous(p):
    """A point ``(x, y)`` or a node ``(X, Y, W)`` as an int triple with W > 0."""
    x, y, *w = p
    return (x, y, *(w or [1]))


def _orientation(p, q, r):
    """Orientation of three homogeneous points: the sign of their 3x3
    determinant, which no positive W changes."""
    (a, b, c), (d, e, f), (g, h, i) = p, q, r
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return (det > 0) - (det < 0)


def _in_box(p, a, b):
    """Does the homogeneous p lie in the closed box spanned by a and b?"""
    return all((a[k] * p[2] - p[k] * a[2]) * (b[k] * p[2] - p[k] * b[2]) <= 0 for k in (0, 1))


def _closed_segments_meet_by_orientation(a, b, c, d) -> bool:
    """Closed [a, b], a != b, versus closed [c, d], which may be one point;
    all four homogeneous."""
    o1, o2 = _orientation(a, b, c), _orientation(a, b, d)
    o3, o4 = _orientation(c, d, a), _orientation(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return (
        (o1 == 0 and _in_box(c, a, b))
        or (o2 == 0 and _in_box(d, a, b))
        or (o3 == 0 and _in_box(a, c, d))
        or (o4 == 0 and _in_box(b, c, d))
    )


def integer_halving_representative(nodes, cycles, isolated):
    """``halving_representative`` in integers.

    The corner, the direction m and the halving rule are the same, but the
    three corner nodes are put over one denominator d, so the probe end
    v + m/2^k is the int triple (d·2^k·v + M, d²·2^k) with M = d²·m, and
    contact is decided by orientations of homogeneous int triples.  Only the
    final point becomes two Fractions.
    """
    outer = [_homogeneous(nodes[i]) for i in cycles[0]]
    k = len(outer)
    scale = lcm(*(w for _, _, w in outer))
    lowest = [(y * scale // w, x * scale // w) for x, y, w in outer]
    idx = min(range(k), key=lambda i: lowest[i])
    v, u, w = outer[idx], outer[idx - 1], outer[(idx + 1) % k]
    d = lcm(v[2], u[2], w[2])
    vx, vy, ux, uy, wx, wy = (p[c] * d // p[2] for p in (v, u, w) for c in (0, 1))
    du, dw = (ux - vx, uy - vy), (wx - vx, wy - vy)
    nu, nw = abs(du[0]) + abs(du[1]), abs(dw[0]) + abs(dw[1])
    mx, my = dw[0] * nu + du[0] * nw, dw[1] * nu + du[1] * nw
    others = [
        (_homogeneous(a), _homogeneous(b))
        for a, b in _face_others(nodes, cycles, cycles[0][idx], isolated)
    ]
    step = 1  # 2^k
    p = (vx * d + mx, vy * d + my, d * d)
    for a, b in others:
        while _closed_segments_meet_by_orientation(v, p, a, b):
            step *= 2
            p = (vx * d * step + mx, vy * d * step + my, d * d * step)
    return (Fraction(p[0], p[2]), Fraction(p[1], p[2]))


class SlabOracle:
    """Faces of a straight-line drawing, by slabs and flood fill.

    Cells are the gaps between pieces inside each vertical slab (plus one
    cell left of everything and one right of everything); cells become one
    face when an unblocked stretch of a slab boundary joins them.
    """

    def __init__(self, points, graph):
        points = [xy(p) for p in points]
        segs = [(points[i], points[j]) for i, j in sorted(graph.edges)]
        nodes = set(points)
        cuts = [{Fraction(0), Fraction(1)} for _ in segs]
        for (i, (a, b)), (j, (c, d)) in combinations(enumerate(segs), 2):
            params = cross_params(a, b, c, d)
            if params is None:
                continue
            t, u = params
            if 0 < t < 1 and 0 < u < 1:
                cuts[i].add(t)
                cuts[j].add(u)
                ax, ay = a
                bx, by = b
                nodes.add((ax + t * (bx - ax), ay + t * (by - ay)))
        self.pieces = []
        for (a, b), ts in zip(segs, cuts):
            (ax, ay), (bx, by) = a, b
            stops = sorted(ts)
            for t1, t2 in zip(stops, stops[1:]):
                p1 = (ax + t1 * (bx - ax), ay + t1 * (by - ay))
                p2 = (ax + t2 * (bx - ax), ay + t2 * (by - ay))
                self.pieces.append((p1, p2))
        self.nodes = nodes
        self.xs = sorted({x for x, _ in nodes})
        # spanning[j] = pieces crossing slab (xs[j], xs[j+1]), bottom to top
        self.spanning = []
        for j in range(len(self.xs) - 1):
            mid = (self.xs[j] + self.xs[j + 1]) / 2
            here = [pc for pc in self.pieces if self._spans(pc, j)]
            here.sort(key=lambda pc: self._y_at(pc, mid))
            self.spanning.append(here)
        self._flood()

    def _spans(self, piece, j):
        (x1, _), (x2, _) = piece
        return min(x1, x2) <= self.xs[j] and max(x1, x2) >= self.xs[j + 1] and x1 != x2

    @staticmethod
    def _y_at(piece, x):
        (x1, y1), (x2, y2) = piece
        return y1 + (x - x1) * (y2 - y1) / (x2 - x1)

    # Cells are keyed (slab, gap); slab -1 and slab len(xs)-1 are the two
    # infinite outer slabs with a single gap 0.
    def _cell(self, slab, x, y):
        # Rank the query against each piece at the query's own x: piece order
        # is constant across the slab, but a fixed height y is not.
        if slab < 0 or slab >= len(self.xs) - 1:
            return (min(slab, len(self.xs) - 1), 0)
        gap = sum(1 for pc in self.spanning[slab] if self._y_at(pc, x) < y)
        return (slab, gap)

    def _cell_at_boundary(self, slab, x0, y):
        """Cell of the open slab touched at height y on its boundary x0."""
        if slab < 0 or slab >= len(self.xs) - 1:
            return (min(slab, len(self.xs) - 1), 0)
        gap = sum(1 for pc in self.spanning[slab] if self._y_at(pc, x0) < y)
        return (slab, gap)

    def _blockers_on_line(self, x0):
        """Points and closed y-intervals of the drawing on the line x = x0."""
        points = {y for x, y in self.nodes if x == x0}
        intervals = []
        for (x1, y1), (x2, y2) in self.pieces:
            if x1 == x2 == x0:
                intervals.append((min(y1, y2), max(y1, y2)))
            elif min(x1, x2) < x0 < max(x1, x2):
                points.add(self._y_at(((x1, y1), (x2, y2)), x0))
        return sorted(points), sorted(intervals)

    def _flood(self):
        parent = {}

        def find(c):
            parent.setdefault(c, c)
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        def union(c1, c2):
            r1, r2 = find(c1), find(c2)
            if r1 != r2:
                parent[r1] = r2

        for slab in range(-1, len(self.xs)):
            if 0 <= slab < len(self.xs) - 1:
                for gap in range(len(self.spanning[slab]) + 1):
                    find((slab, gap))
            else:
                find((min(slab, len(self.xs) - 1), 0))
        for i, x0 in enumerate(self.xs):
            points, intervals = self._blockers_on_line(x0)
            stops = []  # closed blocked stretches, merged
            for y in points:
                stops.append((y, y))
            stops.extend(intervals)
            stops.sort()
            merged = []
            for lo, hi in stops:
                if merged and lo <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
                else:
                    merged.append((lo, hi))
            free = []  # sample heights, one per unblocked stretch
            if not merged:
                free.append(Fraction(0))
            else:
                free.append(merged[0][0] - 1)
                for (_, hi1), (lo2, _) in zip(merged, merged[1:]):
                    free.append((hi1 + lo2) / 2)
                free.append(merged[-1][1] + 1)
            for y in free:
                union(
                    self._cell_at_boundary(i - 1, x0, y),
                    self._cell_at_boundary(i, x0, y),
                )
        self._find = find
        roots = {}
        self.outer_root = find((-1, 0))
        for cell in list(parent):
            roots.setdefault(find(cell), []).append(cell)
        self.face_roots = sorted(roots)

    @property
    def face_count(self):
        return len(self.face_roots)

    @property
    def bounded_face_count(self):
        return len(self.face_roots) - 1

    def locate(self, q):
        """Face root of a query point assumed off the drawing."""
        qx, qy = xy(q)
        idx = bisect_left(self.xs, qx)
        if idx < len(self.xs) and self.xs[idx] == qx:
            return self._find(self._cell_at_boundary(idx - 1, qx, qy))
        return self._find(self._cell(idx - 1, qx, qy))

    def complexities(self):
        """Piece-side count per face root (a side on both sides counts twice)."""
        out = {root: 0 for root in self.face_roots}
        for piece in self.pieces:
            (x1, y1), (x2, y2) = piece
            if x1 == x2:
                i = self.xs.index(x1)
                mid_y = (y1 + y2) / 2
                left = self._find(self._cell_at_boundary(i - 1, x1, mid_y))
                right = self._find(self._cell_at_boundary(i, x1, mid_y))
                out[left] += 1
                out[right] += 1
            else:
                slab = self.xs.index(min(x1, x2))
                mid = (self.xs[slab] + self.xs[slab + 1]) / 2
                below = sum(
                    1
                    for other in self.spanning[slab]
                    if self._y_at(other, mid) < self._y_at(piece, mid)
                )
                out[self._find((slab, below))] += 1
                out[self._find((slab, below + 1))] += 1
        return out

    def nonedge_faces(self, p, q):
        """Face roots the open segment p-q passes through."""
        p, q = xy(p), xy(q)
        ts = {Fraction(0), Fraction(1)}
        for piece in self.pieces:
            params = cross_params(p, q, *piece)
            if params is not None:
                t, u = params
                if 0 < t < 1 and 0 <= u <= 1:
                    ts.add(t)
        for node in self.nodes:
            t = _param_on_line(p, q, node)
            if t is not None and 0 < t < 1:
                ts.add(t)
        stops = sorted(ts)
        (px, py), (qx, qy) = p, q
        roots = set()
        for t1, t2 in zip(stops, stops[1:]):
            tm = (t1 + t2) / 2
            roots.add(self.locate((px + tm * (qx - px), py + tm * (qy - py))))
        return roots


def solve_cover_first_hit(n_elements, sets):
    """The first cover met when enumerating id subsets by (size, lex) order.

    That is the lexicographically smallest sorted id tuple among all minimum
    covers of ``range(n_elements)``, the witness ``solve_cover`` must return.
    """
    universe = (1 << n_elements) - 1
    masks = {}
    for sid, items in sets.items():
        mask = 0
        for element in items:
            mask |= 1 << element
        if mask:
            masks[sid] = mask
    ids = sorted(masks)
    for size in range(len(ids) + 1):
        for combo in combinations(ids, size):
            got = 0
            for sid in combo:
                got |= masks[sid]
            if got & universe == universe:
                return combo
    raise ValueError("some element appears in no set")


def full_power_beaten(query, n) -> bool:
    """Is the counting bound of a ``BoundsQuery`` beaten at n?

    Builds the encoding count and the graph count as integers and compares
    them: (2n)^(2hn) < 2^C(n,2), or (n+s)^(p(n+s)) < 2^(q*C(n,2)) for c = p/q.
    """
    pairs = n * (n - 1) // 2
    if query.h is not None:
        return (2 * n) ** (2 * query.h * n) < 2**pairs
    m = n + query.s
    return m ** (query.c.numerator * m) < 2 ** (query.c.denominator * pairs)


def midpoint_incidence(fs):
    """``through`` of the face/non-edge incidence of a face set, by point location:
    one sorted tuple of face ids per non-edge.

    Each non-edge is cut where it crosses drawn edges, and the midpoint of
    each stretch between cuts goes to the smallest-area bounded face whose
    outer cycle holds it (equal areas by face id), or else to the unbounded
    face.  No midpoint lies on the drawing, so every answer is unambiguous.
    """
    points = [xy(node) for node in fs.nodes[: fs.graph.n]]
    edges = fs.graph.sorted_edges()
    order = sorted((fs.area2(fid), fid) for fid in range(len(fs.faces) - 1))
    outlines = {fid: [xy(fs.nodes[v]) for v in fs.faces[fid][0]] for _, fid in order}
    through = []
    for i, j in fs.graph.non_edges():
        p, q = xy(points[i]), xy(points[j])
        ts = {Fraction(0), Fraction(1)}
        for a, b in edges:
            params = cross_params(p, q, points[a], points[b])
            if params is not None and 0 < params[0] < 1 and 0 < params[1] < 1:
                ts.add(params[0])
        stops, hit = sorted(ts), set()
        for t1, t2 in zip(stops, stops[1:]):
            tm = (t1 + t2) / 2
            m = (p[0] + tm * (q[0] - p[0]), p[1] + tm * (q[1] - p[1]))
            inside = (fid for _, fid in order if point_in_polygon(m, outlines[fid]) == 1)
            hit.add(next(inside, len(fs.faces) - 1))
        through.append(tuple(sorted(hit)))
    return tuple(through)


def tangent_events(points, vertices):
    """The tangent word of ``points`` around a strictly convex polygon, as a list.

    At every corner w, with neighbours u before it and x after it, both signs
    of d = ±(p - w) are tried: d is a tangent direction when d × (u - w) < 0
    and d × (x - w) < 0.  Each event's direction is d with x and y swapped,
    and events are sorted counterclockwise from +x by that.  Raises
    ``ValueError`` with ``encode_tangent``'s message when a point lacks two
    clean tangents or two events share a direction.
    """
    k = len(vertices)
    events = []
    for label, v in enumerate(points):
        found = []
        for i, w in enumerate(vertices):
            u, x = vertices[i - 1], vertices[(i + 1) % k]
            for sign in (1, -1):
                dx, dy = sign * (v[0] - w[0]), sign * (v[1] - w[1])
                if (
                    dx * (u[1] - w[1]) - dy * (u[0] - w[0]) < 0
                    and dx * (x[1] - w[1]) - dy * (x[0] - w[0]) < 0
                ):
                    found.append((label, sign, (dy, dx)))
        if len(found) != 2 or {s for _, s, _ in found} != {1, -1}:
            raise ValueError(
                f"point {v!r} does not have two clean tangents (collinear with obstacle vertices?)"
            )
        events.extend(found)
    events.sort(key=lambda e: _ccw_key(e[2]))
    for e1, e2 in zip(events, events[1:]):
        if _ccw_key(e1[2]) == _ccw_key(e2[2]):
            raise ValueError(
                f"points {points[e1[0]]!r} and {points[e2[0]]!r} share a tangent direction"
            )
    return [(label, sign) for label, sign, _ in events]


def rescanned_pair_pattern(events, i, j):
    """Pattern of labels i != j: their four events, rotated so (q, -) leads, p = min label."""
    p, q = min(i, j), max(i, j)
    sub = [(label, sign) for label, sign in events if label in (p, q)]
    start = sub.index((q, -1))
    sub = sub[start:] + sub[:start]
    return "".join(("p" if label == p else "q") + ("+" if sign > 0 else "-") for label, sign in sub)


def record_every_pair(table, scene, events, visible):
    """Fill ``table`` from one scene with one ``record`` per pair i < j, in order.

    ``events`` is the scene's tangent word and ``visible`` its set of
    visible pairs.  Each pair goes in with its rescanned pattern, outcome
    "visible" or "blocked", and ``(scene, (i, j))`` as witness, the way
    ``observe_scene`` filled the table before it kept only the first pair
    of each (pattern, outcome).
    """
    for i, j in combinations(range(len(events) // 2), 2):
        outcome = "visible" if (i, j) in visible else "blocked"
        table.record(rescanned_pair_pattern(events, i, j), outcome, witness=(scene, (i, j)))


def gcd_collinear_with_any_pair(pts, q):
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
