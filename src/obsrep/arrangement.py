"""Straight-line drawings, their faces, and the face/non-edge incidence map.

A drawing is a labeled point set plus a set of open straight segments (the
edges of a graph on those points).  Removing the drawn points and segments
from the plane leaves connected open regions — the faces.  This module builds
them exactly: edge crossings become subdivision vertices with rational
coordinates, each face is traced as one or more boundary cycles of directed
segment pieces, and every bounded face can produce an exact rational interior
point.  Walking each absent edge across the darts it crosses gives the faces
its segment travels through; those are exactly where a blocker could sit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

from .errors import GeometryError, ObsrepError
from .geom import direction_cmp, on_closed_segment, orient
from .graphs import Graph
from .scene import Scene


@dataclass(frozen=True)
class Face:
    """One connected region of the complement, described by its boundary cycles.

    ``cycles`` lists node ids in traversal order; consecutive entries (wrapping
    around) are the endpoints of one bordering segment piece, so the face has
    as many bordering piece sides as its cycles of two or more nodes have
    entries, and a segment touching it from both sides counts twice.  A
    bounded face's first cycle is its outer boundary, enclosing ``area2``/2;
    the rest enclose material floating inside it, and a one-node cycle is an
    edgeless vertex, which borders no piece.  ``area2`` is ``None`` for the
    unbounded face.
    """

    cycles: tuple
    area2: int | Fraction | None


def _crossing(p, q, r, s):
    """Where the open segments (p, q) and (r, s) cross at a single point.

    Returns ``(t, u)`` with ``p + t(q - p) = r + u(s - r)`` and both
    parameters strictly between 0 and 1, or ``None`` when the segments are
    parallel or do not meet at interior points of both.
    """
    (px, py), (qx, qy), (rx, ry), (sx, sy) = p, q, r, s
    dx, dy = qx - px, qy - py
    ex, ey = sx - rx, sy - ry
    denom = dx * ey - dy * ex
    if denom == 0:
        return None
    wx, wy = rx - px, ry - py
    tn = wx * ey - wy * ex
    un = wx * dy - wy * dx
    if denom < 0:
        denom, tn, un = -denom, -tn, -un
    if 0 < tn < denom and 0 < un < denom:
        return Fraction(tn, denom), Fraction(un, denom)
    return None


def _dart_left_of(q, nodes, pieces, outgoing):
    """The dart whose left side holds the stretch from q leftward to where the
    ray q - t·(1, 0), t > 0, first meets the drawing, or None if it meets none.
    A node w is met in its wedge toward +x, left of ``outgoing[w][-1]``; a piece
    crossed inside, left of its downward dart.  Edgeless vertices are passed."""
    qx, qy = q
    nearest, found = None, None
    for w, (x, y) in enumerate(nodes):
        if y == qy and x < qx and outgoing[w] and (nearest is None or x > nearest):
            nearest, found = x, outgoing[w][-1]
    for k, (a, b) in enumerate(pieces):
        (ax, ay), (bx, by) = nodes[a], nodes[b]
        if (ax < qx or bx < qx) and (ay < qy < by or by < qy < ay):
            x = ax + Fraction((qy - ay) * (bx - ax), by - ay)
            if x < qx and (nearest is None or x > nearest):
                nearest, found = x, 2 * k + (ay < by)
    return found


@dataclass(frozen=True)
class FaceSet:
    """All faces of a drawing, plus the exact subdivision they came from.

    ``nodes`` holds the point of vertex i of ``graph`` at index i, then the
    crossings with ``Fraction`` coordinates; ``pieces`` pairs node ids;
    ``components`` counts the connected pieces, isolated points included.
    A face's id is its index in ``faces``; the unbounded face is the last.
    Dart 2k runs along ``pieces[k]`` and 2k+1 against it; ``dart_face[d]`` is
    the face on d's left, ``outgoing[v]`` the darts leaving node v sorted
    counterclockwise from +x, and edge k of ``graph.sorted_edges()`` has the
    pieces from ``edge_cuts[k][0]`` on, cut at its parameters ``edge_cuts[k][1]``.
    ``directions[d]`` is the integer vector q - p of the edge (p, q) under dart
    d, negated for odd d; rings are sorted and wedges read on these.
    """

    graph: Graph
    nodes: tuple
    pieces: tuple
    faces: tuple
    components: int
    dart_face: tuple
    outgoing: tuple
    edge_cuts: tuple
    directions: tuple

    def locate(self, point) -> int:
        """Face id containing the query point, which must avoid the drawing, read
        off the first dart its leftward ray meets (none: the unbounded face)."""
        if point in self.nodes:
            raise GeometryError(f"point {point} is a vertex of the subdivision")
        for u, v in self.pieces:
            if on_closed_segment(self.nodes[u], self.nodes[v], point):
                raise GeometryError(f"point {point} lies on a drawn segment")
        d = _dart_left_of(point, self.nodes, self.pieces, self.outgoing)
        return len(self.faces) - 1 if d is None else self.dart_face[d]

    def representative(self, face_id: int):
        """An exact rational point interior to the face."""
        f = self.faces[face_id]
        if f.area2 is not None:
            return _interior_point_of_cycle(self.nodes, f.cycles)
        if not self.nodes:
            return (Fraction(0), Fraction(0))
        return (
            Fraction(math.floor(min(x for x, _ in self.nodes)) - 1),
            Fraction(math.floor(min(y for _, y in self.nodes)) - 1),
        )


def _first_contact(m, a, b):
    """Least s > 0 with m·s on the closed segment [a, b], or None if there is none.

    ``a`` and ``b`` are taken relative to the ray's start, which the segment
    avoids; they are equal for a single point.  ``m`` points strictly up, so
    a point of the ray's line sits at parameter y / m_y.
    """
    ca = m[0] * a[1] - m[1] * a[0]
    cb = m[0] * b[1] - m[1] * b[0]
    if ca and cb:
        if (ca > 0) == (cb > 0):
            return None
        # The ends lie on either side of the ray's line, which the segment crosses once.
        s = Fraction(a[0] * b[1] - a[1] * b[0], cb - ca)
    else:
        # The ray meets an end on its line first; a segment along the line, its nearer end.
        s = min(Fraction(p[1], m[1]) for p, c in ((a, ca), (b, cb)) if not c)
    return s if s > 0 else None


def _interior_point_of_cycle(nodes, cycles):
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
    that halving t from 1 until the probe is clear would reach.
    """
    outer = cycles[0]
    k = len(outer)
    idx = min(range(k), key=lambda i: (nodes[outer[i]][1], nodes[outer[i]][0]))
    corner = outer[idx]
    v, u, w = nodes[corner], nodes[outer[idx - 1]], nodes[outer[(idx + 1) % k]]
    du = (u[0] - v[0], u[1] - v[1])
    dw = (w[0] - v[0], w[1] - v[1])
    if dw[0] * du[1] - dw[1] * du[0] <= 0:
        raise ObsrepError("the lowest corner of a bounded face is not convex")
    nu = abs(du[0]) + abs(du[1])
    nw = abs(dw[0]) + abs(dw[1])
    m = (dw[0] * nu + du[0] * nw, dw[1] * nu + du[1] * nw)
    rel = {i: (nodes[i][0] - v[0], nodes[i][1] - v[1]) for c in cycles for i in c}
    border = [
        (rel[a], rel[b]) for c in cycles for a, b in zip(c, c[1:] + c[:1]) if corner not in (a, b)
    ]
    s = min(filter(None, (_first_contact(m, a, b) for a, b in border)), default=None)
    halvings = 0 if s is None else (s.denominator // s.numerator).bit_length()
    t = Fraction(1, 1 << halvings)
    return (v[0] + m[0] * t, v[1] + m[1] * t)


def build_arrangement(scene: Scene, graph: Graph) -> FaceSet:
    """Faces of ``graph`` drawn straight on the scene's points, with crossings
    as exact subdivision vertices; the scene's obstacles play no part."""
    points = scene.points
    if len(points) != graph.n:
        raise ObsrepError(f"{len(points)} points for a {graph.n}-vertex graph")
    node_index = {}
    nodes = []

    def intern(coord):
        if coord not in node_index:
            node_index[coord] = len(nodes)
            nodes.append(coord)
        return node_index[coord]

    for p in points:
        intern(p)

    edges = graph.sorted_edges()
    cuts = {e: [] for e in edges}
    for e, f in combinations(edges, 2):
        if set(e) & set(f):
            continue
        p, q = points[e[0]], points[e[1]]
        hit = _crossing(p, q, points[f[0]], points[f[1]])
        if hit is not None:
            t, u = hit
            x = intern((p[0] + (q[0] - p[0]) * t, p[1] + (q[1] - p[1]) * t))
            cuts[e].append((t, x))
            cuts[f].append((u, x))

    # Where three or more edges cross at one node, each is cut there once.
    # The piece of edge (p, q) from parameter t0 to t1 adds (t1 - t0)(p x q)
    # to the shoelace sum of the cycle its dart lies on; its twin, the negation.
    pieces, edge_cuts, directions, dart_area2 = [], [], [], []
    for e in edges:
        marks = sorted(set(cuts[e]))
        edge_cuts.append((len(pieces), tuple(t for t, _ in marks)))
        chain = [e[0]] + [x for _, x in marks] + [e[1]]
        pieces.extend(zip(chain, chain[1:]))
        (px, py), (qx, qy) = points[e[0]], points[e[1]]
        ts, pq = [0] + [t for t, _ in marks] + [1], px * qy - py * qx
        for t0, t1 in zip(ts, ts[1:]):
            share = (t1 - t0) * pq
            directions += [(qx - px, qy - py), (px - qx, py - qy)]
            dart_area2 += [share, -share]

    # Darts 2k and 2k+1 are the two directions of piece k; twin = dart ^ 1.
    darts = [end for a, b in pieces for end in ((a, b), (b, a))]
    outgoing = [[] for _ in nodes]
    for d, (a, _) in enumerate(darts):
        outgoing[a].append(d)

    position = [0] * len(darts)
    key = cmp_to_key(direction_cmp)
    for ring in outgoing:
        ring.sort(key=lambda d: key(directions[d]))
        for a, b in zip(ring, ring[1:]):
            if direction_cmp(directions[a], directions[b]) == 0:
                raise ObsrepError("two boundary pieces leave a node in the same direction")
        for i, d in enumerate(ring):
            position[d] = i

    def next_dart(d):
        ring = outgoing[darts[d][1]]
        return ring[(position[d ^ 1] - 1) % len(ring)]

    seen = set()
    orbits = []
    for d0 in range(len(darts)):
        if d0 in seen:
            continue
        cycle = []
        d = d0
        while d not in seen:
            seen.add(d)
            cycle.append(d)
            d = next_dart(d)
        orbits.append(tuple(cycle))

    # Label each node with its connected component by walking the rings.
    component = [None] * len(nodes)
    components = 0
    for root in range(len(nodes)):
        if component[root] is None:
            component[root] = components
            stack = [root]
            while stack:
                for d in outgoing[stack.pop()]:
                    w = darts[d][1]
                    if component[w] is None:
                        component[w] = components
                        stack.append(w)
            components += 1

    dart_face = {}
    bounded = []
    outer_by_component = {}
    for orbit in orbits:
        cycle = tuple(darts[d][0] for d in orbit)
        area2 = sum(dart_area2[d] for d in orbit)
        comp = component[cycle[0]]
        if area2 > 0:
            dart_face.update(dict.fromkeys(orbit, len(bounded)))
            bounded.append(Face((cycle,), area2))
        elif comp in outer_by_component:
            raise ObsrepError("component traced two outer boundaries")
        else:
            outer_by_component[comp] = (orbit, cycle)
    # An edgeless vertex is a component with no darts and the one-node cycle (v,).
    for v, ring in enumerate(outgoing[: graph.n]):
        if not ring:
            outer_by_component[component[v]] = ((), (v,))

    # Place each component in the face just left of its leftmost (then lowest)
    # vertex, which is never a crossing, as crossings lie inside two segments.
    # All a ray meets lies further left, so its dart has a face by then.
    home = {}
    for v in sorted(range(graph.n), key=points.__getitem__):
        if component[v] not in home:
            d = _dart_left_of(points[v], nodes, pieces, outgoing)
            home[component[v]] = fid = len(bounded) if d is None else dart_face[d]
            dart_face.update(dict.fromkeys(outer_by_component[component[v]][0], fid))
    holes = [[] for _ in range(len(bounded) + 1)]
    for comp, (_, cycle) in outer_by_component.items():
        holes[home[comp]].append(cycle)
    faces = tuple(
        Face(f.cycles + tuple(h), f.area2) for f, h in zip(bounded + [Face((), None)], holes)
    )

    v, e, f = len(nodes), len(pieces), len(faces)
    if v - e + f != 1 + components:
        raise ObsrepError(f"face tracing is inconsistent: V={v} E={e} F={f} C={components}")
    return FaceSet(
        graph=graph,
        nodes=tuple(nodes),
        pieces=tuple(pieces),
        faces=faces,
        components=components,
        dart_face=tuple(dart_face[d] for d in range(len(darts))),
        outgoing=tuple(map(tuple, outgoing)),
        edge_cuts=tuple(edge_cuts),
        directions=tuple(directions),
    )


@dataclass(frozen=True)
class CoverInstance:
    """Which faces could block which absent edges.

    ``membership[k]`` lists, for face id ``k``, the indices into ``nonedges``
    of the absent edges whose open segment has a sub-interval inside that
    face.
    """

    nonedges: tuple
    membership: tuple


def face_nonedge_incidence(fs: FaceSet) -> CoverInstance:
    """Walk every non-edge p-q through the arrangement and collect the faces it passes.

    In general position a non-edge crosses an edge at most once, inside both,
    and edges crossed at one parameter meet there at a node.  The stretch
    before each crossing lies on p's side of it: left of the crossed piece's
    dart with p on its left, or in the node's wedge toward p.  The last one
    lies in q's wedge toward p or, if q has no edge, in the face that lists
    q as a one-node cycle.
    """
    pieces, points = fs.pieces, fs.nodes[: fs.graph.n]
    edges = fs.graph.sorted_edges()
    nonedges = tuple(fs.graph.non_edges())
    floating = {c[0]: fid for fid, f in enumerate(fs.faces) for c in f.cycles if len(c) == 1}

    def wedge(v, d):
        # The face just off node v in direction d: left of the ring dart just clockwise of d.
        ring = fs.outgoing[v]
        before = sum(direction_cmp(fs.directions[r], d) < 0 for r in ring)
        return fs.dart_face[ring[before - 1]]

    def beside(crossed):
        # The face on p's side of the crossing.
        k, u = crossed[0]
        piece = fs.edge_cuts[k][0] + bisect_left(fs.edge_cuts[k][1], u)
        if len(crossed) > 1:
            return wedge(pieces[piece][1], back)
        a, b = edges[k]
        return fs.dart_face[2 * piece + (orient(points[a], points[b], p) < 0)]

    hit = [set() for _ in fs.faces]
    for index, (i, j) in enumerate(nonedges):
        p, q = points[i], points[j]
        back = (p[0] - q[0], p[1] - q[1])
        crossings = {}
        for k, (a, b) in enumerate(edges):
            cut = _crossing(p, q, points[a], points[b])
            if cut is not None:
                crossings.setdefault(cut[0], []).append((k, cut[1]))
        for crossed in crossings.values():
            hit[beside(crossed)].add(index)
        hit[wedge(j, back) if fs.outgoing[j] else floating[j]].add(index)
    return CoverInstance(nonedges, tuple(tuple(sorted(h)) for h in hit))
