"""Straight-line drawings, their faces, and the face/non-edge incidence map.

A drawing is a labeled point set plus a set of open straight segments (the
edges of a graph on those points).  Removing the drawn points and segments
from the plane leaves connected open regions — the faces.  This module builds
them exactly: edge crossings become subdivision vertices with rational
coordinates, each face is traced as one or more boundary cycles of directed
segment pieces, and every bounded face can produce an exact rational interior
point.  The non-edge incidence map records which faces an absent edge's
segment travels through; those are exactly the places a blocker could sit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

from .errors import GeneralPositionError, GeometryError, ObsrepError
from .geom import (
    closed_segments_intersect,
    is_general_position,
    on_closed_segment,
    open_segment_intersects_closed,
    orient,
    point_in_polygon,
)
from .graphs import Graph
from .scene import Scene, require_valid_scene
from .visibility import visibility_graph


@dataclass(frozen=True)
class Drawing:
    """Labeled points in general position plus the open segments joining some of them."""

    points: tuple
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        n = len(self.points)
        norm = set()
        for e in self.edges:
            i, j = e
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ObsrepError(f"edge {e} does not join two distinct points")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(norm))
        ok, violations = is_general_position(self.points)
        if not ok:
            parts = ", ".join(str(v) for v in violations)
            raise GeneralPositionError(f"degenerate drawing: {parts}", violations)

    @property
    def n(self) -> int:
        return len(self.points)

    def graph(self) -> Graph:
        return Graph.of(self.n, self.edges)

    @staticmethod
    def of(points, edges) -> "Drawing":
        return Drawing(tuple(points), frozenset(tuple(e) for e in edges))


@dataclass(frozen=True)
class Face:
    """One connected region of the complement, described by its boundary cycles.

    ``cycles`` lists node ids in traversal order; consecutive entries (wrapping
    around) are the endpoints of one bordering segment piece.  A bounded face's
    first cycle is its outer boundary; the rest enclose material floating
    inside it.  ``complexity`` counts bordering piece sides, so a segment
    touching the face from both sides contributes twice.
    """

    id: int
    bounded: bool
    cycles: tuple
    complexity: int
    area2: Fraction | None


def _frac_point(p):
    x, y = p
    return (Fraction(x), Fraction(y))


def _ccw_direction_cmp(d1, d2) -> int:
    """Counterclockwise angular order from the +x axis; ties are impossible."""
    upper1 = 0 if d1[1] > 0 or (d1[1] == 0 and d1[0] > 0) else 1
    upper2 = 0 if d2[1] > 0 or (d2[1] == 0 and d2[0] > 0) else 1
    if upper1 != upper2:
        return upper1 - upper2
    c = d1[0] * d2[1] - d1[1] * d2[0]
    if c > 0:
        return -1
    if c < 0:
        return 1
    raise ObsrepError("two boundary pieces leave a node in the same direction")


def _winding(q, cycle, nodes) -> int:
    qy = q[1]
    w = 0
    k = len(cycle)
    for idx in range(k):
        a = nodes[cycle[idx]]
        b = nodes[cycle[(idx + 1) % k]]
        if a[1] <= qy < b[1] and orient(a, b, q) > 0:
            w += 1
        elif b[1] <= qy < a[1] and orient(a, b, q) < 0:
            w -= 1
    return w


class _DisjointSet:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


@dataclass(frozen=True, eq=False)
class FaceSet:
    """All faces of a drawing, plus the exact subdivision they came from."""

    drawing: Drawing
    nodes: tuple
    pieces: tuple
    faces: tuple
    unbounded_id: int
    _rep_cache: dict = field(default_factory=dict, repr=False)

    @property
    def vertex_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.pieces)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def component_count(self) -> int:
        ds = _DisjointSet(len(self.nodes))
        for u, v in self.pieces:
            ds.union(u, v)
        return len({ds.find(i) for i in range(len(self.nodes))})

    def face(self, face_id: int) -> Face:
        return self.faces[face_id]

    def locate(self, point) -> int:
        """Face id containing the query point, which must avoid the drawing."""
        q = _frac_point(point)
        if q in set(self.nodes):
            raise GeometryError(f"point {point} is a vertex of the subdivision")
        for u, v in self.pieces:
            if on_closed_segment(self.nodes[u], self.nodes[v], q):
                raise GeometryError(f"point {point} lies on a drawn segment")
        best = None
        for f in self.faces:
            if not f.bounded:
                continue
            if _winding(q, f.cycles[0], self.nodes) != 0:
                if best is None or f.area2 < best.area2:
                    best = f
        return self.unbounded_id if best is None else best.id

    def representative(self, face_id: int):
        """An exact rational point interior to the face (computed lazily)."""
        if face_id not in self._rep_cache:
            f = self.faces[face_id]
            if f.bounded:
                rep = _interior_point_of_cycle(
                    [self.nodes[i] for i in f.cycles[0]], self._clearance_test(f.cycles[0])
                )
            else:
                if self.nodes:
                    rep = (
                        Fraction(math.floor(min(x for x, _ in self.nodes)) - 1),
                        Fraction(math.floor(min(y for _, y in self.nodes)) - 1),
                    )
                else:
                    rep = (Fraction(0), Fraction(0))
            self._rep_cache[face_id] = rep
        return self._rep_cache[face_id]

    def _clearance_test(self, cycle):
        def clear(v_coord, p_coord, corner_index):
            v_id = cycle[corner_index]
            for u, w in self.pieces:
                if u == v_id or w == v_id:
                    continue
                if closed_segments_intersect(v_coord, p_coord, self.nodes[u], self.nodes[w]):
                    return False
            return True

        return clear


def _interior_point_of_cycle(coords, clearance):
    """A rational point just inside a positively oriented boundary cycle.

    Works from the bottommost (then leftmost) corner of the cycle, aiming a
    rational direction into the corner's wedge and halving the step until the
    probe segment crosses nothing else.  ``clearance(v, p, corner_index)``
    reports whether the probe from corner ``v`` to ``p`` is unobstructed.
    """
    k = len(coords)
    best = None
    for idx in range(k):
        v = coords[idx]
        u = coords[(idx - 1) % k]
        w = coords[(idx + 1) % k]
        du = (u[0] - v[0], u[1] - v[1])
        dw = (w[0] - v[0], w[1] - v[1])
        if dw[0] * du[1] - dw[1] * du[0] <= 0:
            continue
        if best is None or (v[1], v[0]) < (best[1][1], best[1][0]):
            best = (idx, v, du, dw)
    if best is None:
        raise ObsrepError("boundary cycle has no convex corner")
    idx, v, du, dw = best
    nu = abs(du[0]) + abs(du[1])
    nw = abs(dw[0]) + abs(dw[1])
    m = (dw[0] * nu + du[0] * nw, dw[1] * nu + du[1] * nw)
    t = Fraction(1, 1)
    for _ in range(256):
        p = (v[0] + m[0] * t, v[1] + m[1] * t)
        if clearance(v, p, idx):
            return p
        t /= 2
    raise ObsrepError("could not place an interior point after 256 halvings")


def build_arrangement(drawing: Drawing) -> FaceSet:
    """Faces of the drawing, with crossings as exact subdivision vertices."""
    node_index = {}
    nodes = []

    def intern(coord):
        if coord not in node_index:
            node_index[coord] = len(nodes)
            nodes.append(coord)
        return node_index[coord]

    for p in drawing.points:
        intern(_frac_point(p))

    edges = sorted(drawing.edges)
    cuts = {e: [] for e in edges}
    for e, f in combinations(edges, 2):
        if set(e) & set(f):
            continue
        p, q = _frac_point(drawing.points[e[0]]), _frac_point(drawing.points[e[1]])
        r, s = _frac_point(drawing.points[f[0]]), _frac_point(drawing.points[f[1]])
        dpq = (q[0] - p[0], q[1] - p[1])
        drs = (s[0] - r[0], s[1] - r[1])
        denom = dpq[0] * drs[1] - dpq[1] * drs[0]
        if denom == 0:
            continue
        rp = (r[0] - p[0], r[1] - p[1])
        t = (rp[0] * drs[1] - rp[1] * drs[0]) / denom
        u = (rp[0] * dpq[1] - rp[1] * dpq[0]) / denom
        if 0 < t < 1 and 0 < u < 1:
            x = intern((p[0] + dpq[0] * t, p[1] + dpq[1] * t))
            cuts[e].append((t, x))
            cuts[f].append((u, x))

    pieces = []
    for e in edges:
        chain = [e[0]]
        for _, x in sorted(cuts[e]):
            if x != chain[-1]:
                chain.append(x)
        chain.append(e[1])
        for a, b in zip(chain, chain[1:]):
            pieces.append((a, b))

    # Darts 2k and 2k+1 are the two directions of piece k; twin = dart ^ 1.
    tail = {}
    head = {}
    for k, (a, b) in enumerate(pieces):
        tail[2 * k], head[2 * k] = a, b
        tail[2 * k + 1], head[2 * k + 1] = b, a
    outgoing = {}
    for d in tail:
        outgoing.setdefault(tail[d], []).append(d)
    position = {}
    for v, darts in outgoing.items():
        def direction(d):
            hx, hy = nodes[head[d]]
            tx, ty = nodes[tail[d]]
            return (hx - tx, hy - ty)

        darts.sort(key=cmp_to_key(lambda a, b: _ccw_direction_cmp(direction(a), direction(b))))
        for i, d in enumerate(darts):
            position[d] = i

    def next_dart(d):
        ring = outgoing[head[d]]
        return ring[(position[d ^ 1] - 1) % len(ring)]

    seen = set()
    orbits = []
    for d0 in range(2 * len(pieces)):
        if d0 in seen:
            continue
        cycle = []
        d = d0
        while d not in seen:
            seen.add(d)
            cycle.append(d)
            d = next_dart(d)
        orbits.append(tuple(cycle))

    def orbit_area2(orbit):
        total = Fraction(0)
        for d in orbit:
            tx, ty = nodes[tail[d]]
            hx, hy = nodes[head[d]]
            total += tx * hy - ty * hx
        return total

    ds = _DisjointSet(len(nodes))
    for a, b in pieces:
        ds.union(a, b)

    bounded = []  # (cycle node ids, area2, component)
    outer_by_component = {}
    for orbit in orbits:
        cycle = tuple(tail[d] for d in orbit)
        area2 = orbit_area2(orbit)
        comp = ds.find(cycle[0])
        if area2 > 0:
            bounded.append((cycle, area2, comp))
        else:
            if comp in outer_by_component:
                raise ObsrepError("component traced two outer boundaries")
            outer_by_component[comp] = cycle

    # Attach each component's outer boundary to the face that surrounds it:
    # the smallest bounded cycle of any *other* component that winds around it,
    # or the unbounded face when nothing does.
    extra_cycles = {i: [] for i in range(len(bounded))}
    unbounded_cycles = []
    for comp, cycle in outer_by_component.items():
        ref = nodes[cycle[0]]
        choice = None
        for i, (bcycle, area2, bcomp) in enumerate(bounded):
            if bcomp == comp:
                continue
            if _winding(ref, bcycle, nodes) != 0 and (
                choice is None or area2 < bounded[choice][1]
            ):
                choice = i
        if choice is None:
            unbounded_cycles.append(cycle)
        else:
            extra_cycles[choice].append(cycle)

    faces = []
    for i, (cycle, area2, _) in enumerate(bounded):
        cycles = (cycle, *extra_cycles[i])
        faces.append(
            Face(
                id=i,
                bounded=True,
                cycles=cycles,
                complexity=sum(len(c) for c in cycles),
                area2=area2,
            )
        )
    outer = tuple(unbounded_cycles)
    faces.append(
        Face(
            id=len(bounded),
            bounded=False,
            cycles=outer,
            complexity=sum(len(c) for c in outer),
            area2=None,
        )
    )

    fs = FaceSet(
        drawing=drawing,
        nodes=tuple(nodes),
        pieces=tuple(pieces),
        faces=tuple(faces),
        unbounded_id=len(bounded),
    )
    v, e, f = fs.vertex_count, fs.edge_count, fs.face_count
    if v - e + f != 1 + fs.component_count:
        raise ObsrepError(
            f"face tracing is inconsistent: V={v} E={e} F={f} C={fs.component_count}"
        )
    return fs


def face_complexity(fs: FaceSet):
    """Per-face bordering side counts (in face-id order) and their maximum."""
    counts = tuple(f.complexity for f in fs.faces)
    return counts, max(counts)


@dataclass(frozen=True)
class CoverInstance:
    """Which faces could block which absent edges.

    ``membership[k]`` lists, for face id ``k``, the indices into ``nonedges``
    of the absent edges whose open segment has a sub-interval inside that
    face.
    """

    nonedges: tuple
    membership: tuple

    def face_sets(self) -> dict:
        return {fid: frozenset(items) for fid, items in enumerate(self.membership)}


def face_nonedge_incidence(fs: FaceSet, g: Graph) -> CoverInstance:
    """Cut every non-edge at its crossings and locate each open interval."""
    if g.n != fs.drawing.n or g.edges != fs.drawing.edges:
        raise ObsrepError("face set was not built from this graph's drawing")
    nonedges = tuple(g.non_edges())
    hit = [set() for _ in fs.faces]
    for index, (i, j) in enumerate(nonedges):
        p, q = fs.nodes[i], fs.nodes[j]
        dpq = (q[0] - p[0], q[1] - p[1])
        ts = {Fraction(0), Fraction(1)}
        for a, b in fs.pieces:
            if i in (a, b) or j in (a, b):
                continue
            ca, cb = fs.nodes[a], fs.nodes[b]
            touched = False
            for c in (ca, cb):
                if orient(p, q, c) == 0 and min(p[0], q[0]) <= c[0] <= max(p[0], q[0]) and min(
                    p[1], q[1]
                ) <= c[1] <= max(p[1], q[1]):
                    num = (
                        (c[0] - p[0]) * dpq[0] + (c[1] - p[1]) * dpq[1]
                    )
                    den = dpq[0] * dpq[0] + dpq[1] * dpq[1]
                    ts.add(num / den)
                    touched = True
            if touched:
                continue
            dab = (cb[0] - ca[0], cb[1] - ca[1])
            denom = dpq[0] * dab[1] - dpq[1] * dab[0]
            if denom == 0:
                continue
            rp = (ca[0] - p[0], ca[1] - p[1])
            t = (rp[0] * dab[1] - rp[1] * dab[0]) / denom
            u = (rp[0] * dpq[1] - rp[1] * dpq[0]) / denom
            if 0 < t < 1 and 0 < u < 1:
                ts.add(t)
        cuts = sorted(ts)
        for lo, hi in zip(cuts, cuts[1:]):
            mid = (lo + hi) / 2
            point = (p[0] + dpq[0] * mid, p[1] + dpq[1] * mid)
            hit[fs.locate(point)].add(index)
    for index in range(len(nonedges)):
        if not any(index in h for h in hit):
            raise ObsrepError(f"non-edge {nonedges[index]} touched no face")
    return CoverInstance(
        nonedges=nonedges,
        membership=tuple(tuple(sorted(h)) for h in hit),
    )


@dataclass(frozen=True)
class FacePlacementReport:
    """Outcome of checking that each obstacle sits inside a single face."""

    ok: bool
    assignments: tuple  # face id per obstacle; None where the check failed


def obstacle_face_check(scene: Scene, graph: Graph | None = None) -> FacePlacementReport:
    """Assign every obstacle of the scene to the face of the drawing holding it.

    The drawing joins the scene's points by the edges of ``graph`` (the
    scene's own visibility graph when omitted).  An obstacle that meets any
    drawn segment, or that contains a subdivision node, belongs to no single
    face; it gets assignment ``None`` and the overall flag turns false.
    """
    require_valid_scene(scene)
    if graph is None:
        graph = visibility_graph(scene)
    drawing = Drawing.of(scene.points, graph.edges)
    fs = build_arrangement(drawing)
    assignments = []
    ok = True
    for poly in scene.obstacles:
        contained = True
        for a, b in fs.pieces:
            ca, cb = fs.nodes[a], fs.nodes[b]
            mid = ((ca[0] + cb[0]) / 2, (ca[1] + cb[1]) / 2)
            if point_in_polygon(mid, poly) >= 0:
                contained = False
                break
            if any(
                open_segment_intersects_closed(ca, cb, u, v)
                for u, v in poly.edges()
            ):
                contained = False
                break
        if contained and any(
            point_in_polygon(node, poly) >= 0 for node in fs.nodes
        ):
            contained = False
        if not contained:
            ok = False
            assignments.append(None)
            continue
        inside = _interior_point_of_cycle(
            [_frac_point(v) for v in poly.vertices],
            lambda v, p, idx, poly=poly: _polygon_probe_clear(poly, v, p, idx),
        )
        assignments.append(fs.locate(inside))
    return FacePlacementReport(ok=ok, assignments=tuple(assignments))


def _polygon_probe_clear(poly, v, p, corner_index) -> bool:
    k = len(poly.vertices)
    for t in range(k):
        if t == corner_index or (t + 1) % k == corner_index:
            continue
        a = _frac_point(poly.vertices[t])
        b = _frac_point(poly.vertices[(t + 1) % k])
        if closed_segments_intersect(v, p, a, b):
            return False
    return True
