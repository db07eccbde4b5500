"""Straight-line drawings, their faces, and the face/non-edge incidence map.

A drawing is a labeled point set plus a set of open straight segments (the
edges of a graph on those points).  Removing the drawn points and segments
from the plane leaves connected open regions — the faces.  This module builds
them exactly, in integers: edge crossings become subdivision vertices with
homogeneous integer coordinates, each face is traced as one or more boundary
cycles of directed segment pieces, and every bounded face can produce an
exact rational interior point.  Walking each absent edge across the darts it
crosses gives the faces its segment travels through; those are exactly where
a blocker could sit.  Areas and interior points are computed on request and
leave the module as ``Fraction``; nothing inside computes with it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import GeometryError, ObsrepError
from .geom import direction_key
from .graphs import Graph
from .scene import Scene


def _scale(vertices):
    """The drawing's one scale S = 4·span⁴ + 1, span its vertex nodes' largest x-
    or y-extent.  A cut parameter or node coordinate is n/d, 0 < d <= 2·span², so
    distinct ones differ by over 1/S and ``n * S // d`` orders them exactly; a
    direction between vertices has y² < S, as ``direction_key`` needs."""
    span = max((max(c) - min(c) for c in zip(*vertices)), default=0)
    return 4 * span**4 + 1


def _segments(nodes, segs):
    """Each segment (a, b) as (a, b, x, y, dx, dy, x0, x1, y0, y1): ends, start, vector, box."""
    records = []
    for a, b in segs:
        (x, y, _), (u, v, _) = nodes[a], nodes[b]
        x0, x1 = (x, u) if x < u else (u, x)
        y0, y1 = (y, v) if y < v else (v, y)
        records.append((a, b, x, y, u - x, v - y, x0, x1, y0, y1))
    return records


def _crossing(px, py, dx, dy, rx, ry, ex, ey):
    """Where open segments cross at one point p + t·(dx, dy) = r + u·(ex, ey), 0 < t, u < 1:
    ``(tn, un, denom)`` for t = tn/denom and u = un/denom, or ``None`` if they do not."""
    wx, wy = rx - px, ry - py
    denom, tn, un = dx * ey - dy * ex, wx * ey - wy * ex, wx * dy - wy * dx
    if denom < 0:
        denom, tn, un = -denom, -tn, -un
    return (tn, un, denom) if 0 < tn < denom and 0 < un < denom else None


def _crossings(rows, cols):
    """(k, l, tn, un, denom) in (k, l) order for each record rows[k] of ``_segments``
    whose open segment crosses that of cols[l] (k < l when ``rows is cols``).  Only
    pairs with four distinct ends and meeting boxes reach ``_crossing``: segments
    with a common end meet only there, and a crossing lies in both closed boxes."""
    found = []
    for k, (i, j, px, py, dx, dy, x0, x1, y0, y1) in enumerate(rows):
        start = k + 1 if rows is cols else 0
        for l, (a, b, rx, ry, ex, ey, u0, u1, v0, v1) in enumerate(cols[start:], start):
            if u0 <= x1 and x0 <= u1 and v0 <= y1 and y0 <= v1 and i != a != j != b != i:
                hit = _crossing(px, py, dx, dy, rx, ry, ex, ey)
                if hit is not None:
                    found.append((k, l, *hit))
    return found


def _wedge(ring, keys, key):
    """The dart of a node's ring just clockwise of the direction with this key."""
    return ring[bisect_left(ring, key, key=keys.__getitem__) - 1]


def _dart_left_of(q, nodes, pieces, outgoing):
    """The dart whose left side holds the stretch from q leftward to where the
    ray q - t·(1, 0), t > 0, first meets the drawing, or None if it meets none.
    A piece crossed inside is met left of its downward dart; a piece end w on the
    ray's line, in its wedge toward +x, left of ``outgoing[w][-1]``.  An edgeless
    vertex ends no piece, so it is passed.  ``q`` is homogeneous like the nodes."""
    qx, qy, qw = q
    hits = []
    for k, (a, b) in enumerate(pieces):
        (ax, ay, aw), (bx, by, bw) = nodes[a], nodes[b]
        # Heights over the ray's line, scaled by aw·qw and bw·qw; a piece from
        # below to above crosses it at x = (ax·hb - bx·ha) / (hb·aw - ha·bw).
        ha, hb = ay * qw - qy * aw, by * qw - qy * bw
        if ha * hb < 0:
            up = 1 if ha < hb else -1
            hits.append((((ax * hb - bx * ha) * up, (hb * aw - ha * bw) * up), 2 * k + (up > 0)))
        for v, x, w, h in (a, ax, aw, ha), (b, bx, bw, hb):
            if not h:
                hits.append(((x, w), outgoing[v][-1]))
    # The nearest hit left of q by its x ratio, cross-multiplied: a denominator can exceed 2·span².
    x, w, dart = 0, 1, None
    for (hx, hw), d in hits:
        if hx * qw < qx * hw and (dart is None or hx * w > x * hw):
            x, w, dart = hx, hw, d
    return dart


@dataclass(frozen=True)
class FaceSet:
    """All faces of a drawing, plus the exact subdivision they came from.

    ``nodes`` holds homogeneous integer points ``(X, Y, W)`` for (X/W, Y/W), with
    ``W > 0`` and the three coprime: vertex i of ``graph`` is ``nodes[i] = (x, y, 1)``,
    the one form the build and the walk read, and the crossings follow.  ``pieces``
    pairs node ids; ``components`` counts the connected pieces, isolated points
    included.  A face is a tuple of node-id cycles in traversal order, and its id is
    its index in ``faces``, the unbounded face last.  A bounded face's outer boundary
    comes first; the other cycles float inside it, left to right by their leftmost
    (then lowest) node, an edgeless vertex as a one-node cycle.  Dart 2k runs along
    ``pieces[k]`` and 2k+1 against it; ``dart_face[d]`` is the face on d's left,
    ``outgoing[v]`` the darts leaving node v sorted counterclockwise from +x.  Orders
    are integer keys at the drawing's ``scale`` (``_scale``): edge k of
    ``graph.sorted_edges()`` has the pieces from ``edge_cuts[k][0]`` on, cut at n/d
    keyed ``n * scale // d`` in ``edge_cuts[k][1]``, increasing; ``dart_keys[2k]`` keys
    q - p for piece k's edge (p, q), and ``dart_keys[2k + 1]`` is it with ``[0]`` negated.
    """

    graph: Graph
    nodes: tuple
    pieces: tuple
    faces: tuple
    components: int
    dart_face: tuple
    outgoing: tuple
    edge_cuts: tuple
    dart_keys: tuple
    scale: int

    def locate(self, point) -> int:
        """Face id containing the query point, which must avoid the drawing, read
        off the first dart its leftward ray meets (none: the unbounded face).
        The coordinates are ints or ``Fraction``."""
        if len(point) != 2 or not all(type(c) in (int, Fraction) for c in point):
            raise GeometryError(f"a query point is a pair of ints or Fractions, not {point!r}")
        x, y = point
        qw = lcm(x.denominator, y.denominator)
        qx, qy = x.numerator * (qw // x.denominator), y.numerator * (qw // y.denominator)
        if (qx, qy, qw) in self.nodes:
            raise GeometryError(f"point {point} is a vertex of the subdivision")
        for a, b in self.pieces:
            # q is on the piece when a - q and b - q are parallel and not alike.
            (ax, ay, aw), (bx, by, bw) = self.nodes[a], self.nodes[b]
            ux, uy = ax * qw - qx * aw, ay * qw - qy * aw
            vx, vy = bx * qw - qx * bw, by * qw - qy * bw
            if ux * vy == uy * vx and ux * vx + uy * vy <= 0:
                raise GeometryError(f"point {point} lies on a drawn segment")
        d = _dart_left_of((qx, qy, qw), self.nodes, self.pieces, self.outgoing)
        return len(self.faces) - 1 if d is None else self.dart_face[d]

    def _face(self, face_id):
        if type(face_id) is not int or not 0 <= face_id < len(self.faces):
            raise ObsrepError(f"no face {face_id!r}; the drawing has {len(self.faces)}")
        return self.faces[face_id]

    def area2(self, face_id: int):
        """Twice the face's area, or ``None`` for the unbounded face; computed on each call."""
        cycles = self._face(face_id)
        if face_id == len(self.faces) - 1:
            return None
        return _area2(self.nodes, cycles[0])

    def representative(self, face_id: int):
        """An exact rational point interior to the face; computed on each call."""
        cycles = self._face(face_id)
        if face_id < len(self.faces) - 1:
            return _interior_point_of_cycle(self.nodes, cycles, self.scale)
        # A crossing lies inside two segments, never left of or below all drawn points.
        points = self.nodes[: self.graph.n] or ((1, 1, 1),)
        return tuple(Fraction(min(p[i] for p in points) - 1) for i in (0, 1))


def _first_contact(m, a, b):
    """Least s > 0 with m·s on the closed segment [a, b], as a ratio (n, d) of
    positive ints, or None.  ``m`` is an integer vector pointing strictly up,
    so a point of its line sits at s = y / m_y.  ``a`` and ``b`` are pairs
    (vector, scale) for vector/scale, relative to the ray's start, which the
    segment avoids; they are equal for a single point."""
    (a, wa), (b, wb) = a, b
    ca, cb = m[0] * a[1] - m[1] * a[0], m[0] * b[1] - m[1] * b[0]
    if ca and cb:
        if (ca > 0) == (cb > 0):
            return None
        # The ends lie on either side of the ray's line, which the segment
        # crosses once, at s = (a × b) / (cb/wb - ca/wa) for the true a and b.
        n, d = a[0] * b[1] - a[1] * b[0], cb * wa - ca * wb
        n, d = (n, d) if d > 0 else (-n, -d)
    else:
        # The ray meets an end on its line first; a segment along the line, its nearer end.
        n, d = (b[1], wb * m[1]) if ca else (a[1], wa * m[1])
        if not ca and not cb and b[1] * wa < a[1] * wb:
            n, d = b[1], wb * m[1]
    return (n, d) if n > 0 else None


def _interior_point_of_cycle(nodes, cycles, scale):
    """A rational point just inside a bounded face, given its cycles, outer first.

    Works from the first lowest (then leftmost) node v of the outer cycle;
    the face reaches neither below v nor left of it at its height, so each
    visit to v is a strictly convex corner.  Aims a ray v + m·t into that
    wedge, so m points strictly up, and finds the least s at which it first
    touches a piece of the face's cycles that avoids v, or the point of a
    one-node cycle.  The ray leaves v into the open face, so no other part
    of the drawing is reached first.  The closed probe [v, v + m·t]
    meets them exactly when t >= s, so the answer v + m·2^-k, for the least
    k >= 0 with 2^-k < s (k = 0 when nothing lies on the ray), is the point
    that halving t from 1 until the probe is clear would reach.  That k is
    the bit length of floor(1/s).
    """
    outer = cycles[0]
    k = len(outer)
    keys = [(y * scale // w, x * scale // w) for x, y, w in map(nodes.__getitem__, outer)]
    idx = keys.index(min(keys))
    corner = outer[idx]
    vx, vy, vw = nodes[corner]
    rel = {}  # node i relative to v: an integer vector and the scale it is over
    for i in {i for c in cycles for i in c}:
        x, y, w = nodes[i]
        rel[i] = ((x * vw - vx * w, y * vw - vy * w), w * vw)
    (du, su), (dw, sw) = rel[outer[idx - 1]], rel[outer[(idx + 1) % k]]
    if dw[0] * du[1] - dw[1] * du[0] <= 0:
        raise ObsrepError("the lowest corner of a bounded face is not convex")
    # m = dw·|du|₁ + du·|dw|₁ for the true du and dw is the vector m over the scale ms.
    nu, nw = abs(du[0]) + abs(du[1]), abs(dw[0]) + abs(dw[1])
    m, ms = (dw[0] * nu + du[0] * nw, dw[1] * nu + du[1] * nw), su * sw
    pairs = [(a, b) for c in cycles for a, b in zip(c, c[1:] + c[:1]) if corner not in (a, b)]
    # Contact at n/d along m is s = n·ms/d along the true m.
    contacts = filter(None, (_first_contact(m, rel[a], rel[b]) for a, b in pairs))
    # v + m/(ms·2^k), over the common denominator w = vw·ms·2^k.
    w = vw * ms << max((d // (n * ms) for n, d in contacts), default=0).bit_length()
    return Fraction(vx * w // vw + m[0] * vw, w), Fraction(vy * w // vw + m[1] * vw, w)


def _area2(nodes, cycle):
    """Twice the area enclosed by a positively oriented node cycle: the
    shoelace sum over the product of its nodes' W, which each term divides."""
    den = prod(nodes[i][2] for i in cycle)
    num = 0
    for i, j in zip(cycle, cycle[1:] + cycle[:1]):
        (ax, ay, aw), (bx, by, bw) = nodes[i], nodes[j]
        num += (ax * by - bx * ay) * (den // (aw * bw))
    return Fraction(num, den)


def build_arrangement(scene: Scene, graph: Graph) -> FaceSet:
    """Faces of ``graph`` drawn straight on the scene's points, with crossings
    as exact subdivision vertices; the scene's obstacles play no part.  One
    pass over the edge pairs (``_crossings``) finds the crossings, and a
    union-find over the edges and crossing pairs finds the components."""
    if scene.n != graph.n:
        raise ObsrepError(f"{scene.n} points for a {graph.n}-vertex graph")
    node_index = {(x, y, 1): i for i, (x, y) in enumerate(scene.points)}
    vertices = list(node_index)
    edges, scale = graph.sorted_edges(), _scale(vertices)
    segments, parent = _segments(vertices, edges), list(range(graph.n))

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    # Concurrent crossings reduce to one node, so each edge through it is cut
    # there once; pairs come in (k, l) order, which fixes the node ids.  As no
    # scene point lies inside a segment, joining each crossing pair here and
    # each edge's ends below joins exactly each component's vertices.
    cuts = [{} for _ in edges]
    for k, l, tn, un, w in _crossings(segments, segments):
        _, _, px, py, dx, dy = segments[k][:6]
        x, y = px * w + dx * tn, py * w + dy * tn
        g = gcd(x, y, w)
        i = node_index.setdefault((x // g, y // g, w // g), len(node_index))
        cuts[k][i], cuts[l][i] = tn * scale // w, un * scale // w
        parent[find(edges[k][0])] = find(edges[l][0])
    nodes = list(node_index)

    # Darts 2k and 2k+1 are the two directions of piece k; twin = dart ^ 1.
    darts, edge_cuts, keys, outgoing = [], [], [], [[] for _ in nodes]
    for (a, b, _, _, dx, dy, _, _, _, _), cut in zip(segments, cuts):
        parent[find(a)] = find(b)
        lower, *slope = direction_key(dx, dy, scale)  # the twin negates only lower
        ts, ids = zip(*sorted(zip(cut.values(), cut))) if cut else ((), ())
        edge_cuts.append((len(darts) // 2, ts))
        for v in (*ids, b):
            outgoing[a].append(len(darts))
            outgoing[v].append(len(darts) + 1)
            darts += (a, v), (v, a)
            keys += (lower, *slope), (not lower, *slope)
            a = v
    pieces = darts[::2]

    # A face's next dart after d leaves d's head just clockwise of d's twin.
    after = [0] * len(darts)
    for ring in outgoing:
        ring.sort(key=keys.__getitem__)
        if len({keys[d] for d in ring}) < len(ring):
            raise ObsrepError("two boundary pieces leave a node in the same direction")
        for i, d in enumerate(ring):
            after[d ^ 1] = ring[i - 1]

    cycles, orbit_of = [], [None] * len(darts)
    for d in range(len(darts)):
        if orbit_of[d] is None:
            cycle = []
            while orbit_of[d] is None:
                orbit_of[d] = len(cycles)
                cycle.append(darts[d][0])
                d = after[d]
            cycles.append(tuple(cycle))

    # Each component's leftmost (then lowest) node is a vertex, as crossings lie
    # inside two segments: the last of its class written right to left.  The
    # stretch just left of it lies outside the component, left of the orbit of
    # its outer boundary; every other orbit goes round a bounded face.
    lefts = {find(v): v for v in sorted(range(graph.n), key=vertices.__getitem__, reverse=True)}
    leftmost = sorted(lefts.values(), key=vertices.__getitem__)
    west = direction_key(-1, 0, scale)
    outer = {v: orbit_of[_wedge(outgoing[v], keys, west)] for v in leftmost if outgoing[v]}
    bounded = [o for o in range(len(cycles)) if o not in outer.values()]
    orbit_face = {o: fid for fid, o in enumerate(bounded)}

    # Place each component in the face just left of its leftmost vertex, leftmost
    # first: all a ray meets lies further left, with a face by then (the first ray
    # meets nothing).  Its outer boundary, or an edgeless vertex's (v,), is that face's next hole.
    holes = [[] for _ in range(len(bounded) + 1)]
    for v in leftmost:
        d = None if v == leftmost[0] else _dart_left_of(nodes[v], nodes, pieces, outgoing)
        home = len(bounded) if d is None else orbit_face[orbit_of[d]]
        if v in outer:
            orbit_face[outer[v]] = home
        holes[home].append(cycles[outer[v]] if v in outer else (v,))
    faces = [(cycles[o], *holes[i]) for i, o in enumerate(bounded)]
    faces.append(tuple(holes[-1]))

    v, e, f, c = len(nodes), len(pieces), len(faces), len(leftmost)
    if v - e + f != 1 + c:
        raise ObsrepError(f"face tracing is inconsistent: V={v} E={e} F={f} C={c}")
    return FaceSet(
        graph=graph,
        nodes=tuple(nodes),
        pieces=tuple(pieces),
        faces=tuple(faces),
        components=c,
        dart_face=tuple(orbit_face[o] for o in orbit_of),
        outgoing=tuple(map(tuple, outgoing)),
        edge_cuts=tuple(edge_cuts),
        dart_keys=tuple(keys),
        scale=scale,
    )


@dataclass(frozen=True)
class CoverInstance:
    """Which faces could block which absent edges.

    ``through[k]`` lists, increasing, the ids of the faces that hold a stretch
    of the open segment of ``nonedges[k]``.
    """

    nonedges: tuple
    through: tuple


def face_nonedge_incidence(fs: FaceSet) -> CoverInstance:
    """Walk every non-edge p-q through the arrangement and collect the faces it passes.

    In general position a non-edge crosses an edge at most once, inside both,
    and where it crosses one at a node it crosses every edge through that node
    there.  The build's pair loop, ``_crossings``, over non-edges × edges finds
    the crossings.  The stretch before each lies on p's side of it: left of the
    crossed piece's dart with p on its left, by one cross product with the
    edge's vector, or in the node's wedge toward p, keyed once per non-edge.
    The last one lies in q's wedge toward p or, if q has no edge, in the face
    that lists q as a one-node cycle.
    """
    nonedges = tuple(fs.graph.non_edges())
    rows, cols = _segments(fs.nodes, nonedges), _segments(fs.nodes, fs.graph.sorted_edges())
    floating = {c[0]: fid for fid, f in enumerate(fs.faces) for c in f if len(c) == 1}
    dart_face, outgoing, keys, scale = fs.dart_face, fs.outgoing, fs.dart_keys, fs.scale
    backs = [direction_key(-row[4], -row[5], scale) for row in rows]
    through = [
        {dart_face[_wedge(outgoing[j], keys, back)] if outgoing[j] else floating[j]}
        for (_, j), back in zip(nonedges, backs)
    ]
    for k, l, _, un, w in _crossings(rows, cols):
        first, cuts = fs.edge_cuts[l]
        t = un * scale // w
        c = bisect_left(cuts, t)
        if c < len(cuts) and cuts[c] == t:
            face = dart_face[_wedge(outgoing[fs.pieces[first + c][1]], keys, backs[k])]
        else:
            (_, _, px, py, *_), (_, _, rx, ry, ex, ey, *_) = rows[k], cols[l]
            face = dart_face[2 * (first + c) + (ex * (py - ry) < ey * (px - rx))]
        through[k].add(face)
    return CoverInstance(nonedges, tuple(tuple(sorted(hit)) for hit in through))
