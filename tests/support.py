"""Helpers that only the tests use, built on the package.

Unlike ``oracles.py``, which re-derives answers without the package's own
predicates, these functions call the package freely: they list a polygon's
edges, draw random simple polygons, relabel order types, transform scenes
into signature-equal copies, check where a scene's obstacles sit among the
faces of its drawing, and run the partition check with a drawing's faces
as the obstacles.
"""

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations, permutations

from obsrep.arrangement import build_arrangement
from obsrep.errors import GeometryError, ObsrepError
from obsrep.geom import (
    Point,
    Polygon,
    closed_segments_intersect,
    convex_hull,
    orient,
    point_in_polygon,
)
from obsrep.ordertype import SceneSignature, chirotope
from obsrep.scene import Scene
from obsrep.search import PartitionReport, _partition_report
from obsrep.visibility import visibility_graph

from oracles import direction_cmp, xy

# --- order types ---


def triples(sig: SceneSignature) -> dict:
    """The signature's orientations keyed by index triple ``(i, j, k)``, i < j < k."""
    return dict(zip(combinations(range(sig.total), 3), sig.entries))


def orientation(ot: SceneSignature, i: int, j: int, k: int) -> int:
    """Stored orientation of the triple; requires i < j < k."""
    if not 0 <= i < j < k < ot.total:
        raise ObsrepError(f"triple ({i},{j},{k}) is not increasing within range")
    return triples(ot)[(i, j, k)]


def same_labeled_order_type(p1, p2) -> bool:
    """True iff the two equally sized configurations agree on every triple."""
    a, b = list(p1), list(p2)
    if len(a) != len(b):
        raise ObsrepError(f"configuration sizes differ: {len(a)} vs {len(b)}")
    return chirotope(Scene(a)) == chirotope(Scene(b))


def canonical_unlabeled(ot: SceneSignature) -> tuple:
    """Entries of the lexicographically least relabeling of the order type (n ≤ 8 only)."""
    if ot.n > 8:
        raise ObsrepError("unlabeled canonical form is limited to n <= 8")
    best = None
    lookup = triples(ot)
    for perm in permutations(range(ot.n)):
        out = []
        for i, j, k in lookup:
            a, b, c = perm[i], perm[j], perm[k]
            sign = 1
            # Sort (a, b, c) with an explicit bubble, tracking the swap parity.
            if a > b:
                a, b, sign = b, a, -sign
            if b > c:
                b, c, sign = c, b, -sign
            if a > b:
                a, b, sign = b, a, -sign
            out.append(sign * lookup[(a, b, c)])
        tup = tuple(out)
        if best is None or tup < best:
            best = tup
    return best


# --- tangent patterns ---


def outcomes(table) -> dict:
    """The pattern table as ``{pattern: outcome}``, read back from its text form."""
    return dict(line.split()[1:] for line in table.serialize().splitlines())


def swap_roles(pattern: str) -> str:
    """The same pair pattern with the two vertex roles exchanged, re-canonicalized."""
    flipped = [("q" if c == "p" else "p") if c in "pq" else c for c in pattern]
    pairs = [(flipped[i], flipped[i + 1]) for i in range(0, len(flipped), 2)]
    start = pairs.index(("q", "-"))
    pairs = pairs[start:] + pairs[:start]
    return "".join(a + b for a, b in pairs)


# --- polygons ---


def polygon_edges(poly):
    """The polygon's edges as corner pairs, each corner to the next."""
    v = poly.vertices
    return list(zip(v, v[1:] + v[:1]))


def random_polygon(rng, span=9, at=(0, 0)):
    """A random simple polygon with corners in the square of radius ``span`` around ``at``.

    Half the draws are convex hulls of 3 to 7 random points.  The other half
    sort 4 to 7 random points counterclockwise around their rounded centroid:
    a star-shaped polygon, often not convex.  Draws that the ``Polygon``
    constructor refuses are drawn again.
    """
    cx, cy = at
    while True:
        convex = rng.random() < 0.5
        raw = {
            (cx + rng.randint(-span, span), cy + rng.randint(-span, span))
            for _ in range(rng.randint(3, 7) if convex else rng.randint(4, 7))
        }
        if convex:
            ring = convex_hull(raw)
        else:
            mx = sum(x for x, _ in raw) // len(raw)
            my = sum(y for _, y in raw) // len(raw)
            ring = sorted(
                (p for p in raw if p != (mx, my)),
                key=cmp_to_key(lambda p, q: direction_cmp((p[0] - mx, p[1] - my), (q[0] - mx, q[1] - my))),
            )
        if len(ring) < 3:
            continue
        try:
            return Polygon(tuple(Point(x, y) for x, y in ring))
        except GeometryError:
            continue


# --- signature-equal scenes ---


def _triple_signs(points):
    return tuple(orient(a, b, c) for a, b, c in combinations(points, 3))


def scaled_scene(scene: Scene, factor: int) -> Scene:
    """The same scene with every coordinate multiplied by ``factor`` > 0."""
    if factor <= 0:
        raise ObsrepError("scale factor must be positive")
    return Scene(
        tuple(Point(p.x * factor, p.y * factor) for p in scene.points),
        tuple(
            Polygon(tuple(Point(v.x * factor, v.y * factor) for v in poly.vertices))
            for poly in scene.obstacles
        ),
    )


def perturb_scene(scene: Scene, rng, jitters: int = 8, scale: int = 1000):
    """A signature-equal pair: the scene scaled up, and a jittered copy of it.

    Single ±1 coordinate jitters move one point of the scaled copy's
    sequence (vertices, then obstacle corners) and are kept only when no
    triple orientation changes; at least one must stick.  The signs are
    checked on the bare sequence, and only the final one becomes a
    ``Scene``, which validates itself.
    """
    base = scaled_scene(scene, scale)
    seq = [*base.points, *(v for poly in base.obstacles for v in poly.vertices)]
    entries = _triple_signs(seq)
    accepted = 0
    for _ in range(max(jitters, 1) * 40):
        if accepted >= jitters:
            break
        index, axis, delta = rng.randrange(len(seq)), rng.randrange(2), rng.choice((-1, 1))
        x, y = seq[index]
        candidate = list(seq)
        candidate[index] = Point(x + delta, y) if axis == 0 else Point(x, y + delta)
        if _triple_signs(candidate) == entries:
            seq = candidate
            accepted += 1
    if accepted == 0:
        raise ObsrepError("no orientation-preserving jitter was accepted")
    obstacles = []
    at = base.n
    for poly in base.obstacles:
        obstacles.append(Polygon(tuple(seq[at : at + len(poly.vertices)])))
        at += len(poly.vertices)
    return base, Scene(tuple(seq[: base.n]), tuple(obstacles))


# --- obstacles inside faces ---


def face_complexity(fs):
    """Per-face bordering side counts (in face-id order) and their maximum."""
    counts = tuple(sum(len(c) for c in f if len(c) > 1) for f in fs.faces)
    return counts, max(counts)


@dataclass(frozen=True)
class FacePlacementReport:
    """Outcome of checking that each obstacle sits inside a single face."""

    ok: bool
    assignments: tuple  # face id per obstacle; None where the check failed


def obstacle_face_check(scene: Scene, graph=None) -> FacePlacementReport:
    """Assign every obstacle of the scene to the face of the drawing holding it.

    The drawing joins the scene's points by the edges of ``graph`` (the
    scene's own visibility graph when omitted).  An obstacle that meets any
    drawn segment, or that contains a subdivision node, belongs to no single
    face; it gets assignment ``None`` and the overall flag turns false.  An
    obstacle that passes lies, boundary included, inside one face, so its
    first corner locates that face.
    """
    if graph is None:
        graph = visibility_graph(scene)
    fs = build_arrangement(scene, graph)
    nodes = [xy(node) for node in fs.nodes]
    assignments = []
    for poly in scene.obstacles:
        stabbed = any(
            closed_segments_intersect(nodes[a], nodes[b], u, v)
            for a, b in fs.pieces
            for u, v in polygon_edges(poly)
        )
        if stabbed or any(point_in_polygon(node, poly.vertices) >= 0 for node in nodes):
            assignments.append(None)
        else:
            assignments.append(fs.locate(poly.vertices[0]))
    return FacePlacementReport(
        ok=None not in assignments, assignments=tuple(assignments)
    )


# --- faces as obstacles in the partition check ---


def partition_faces_check(points, g, faces, k: int) -> PartitionReport:
    """Partition check where the obstacles are faces of the drawing.

    The face ids usually come from an ``ObsResult`` witness.  A face is
    treated as contained in a hull when all of its boundary nodes are; the
    unbounded face is never containable.
    """
    fs = build_arrangement(Scene(points), g)
    vertex_sets = []
    for fid in faces:
        if fs.area2(fid) is None:
            vertex_sets.append(None)
        else:
            nodes = {i for cycle in fs.faces[fid] for i in cycle}
            vertex_sets.append(tuple(xy(fs.nodes[i]) for i in sorted(nodes)))
    return _partition_report(tuple(points), k, vertex_sets)
