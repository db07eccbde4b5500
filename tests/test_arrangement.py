import hashlib
import random
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, product
from math import floor, gcd

import pytest

from obsrep.arrangement import FaceSet, _first_contact, build_arrangement, face_nonedge_incidence
from obsrep.errors import GeometryError, ObsrepError, SceneError
from obsrep.geom import Point, _assume_valid, direction_key
from obsrep.graphs import Graph, complete_graph, gnp_half
from obsrep.sampling import random_placement
from obsrep.scene import Scene

from conftest import poly, pts
from oracles import (
    SlabOracle,
    ccw_ring,
    closed_segments_meet,
    cross_params,
    drawing_components,
    halving_representative,
    integer_halving_representative,
    midpoint_incidence,
    shoelace_area2,
    whole_drawing_probe,
    xy,
)
from support import FacePlacementReport, face_complexity, obstacle_face_check
from test_golden import CONCURRENT, G12, G16, NESTED


def build(points, edges):
    return build_arrangement(Scene(points), Graph(len(points), edges))


# --- hand-built drawings with known face structure ---


def test_triangle_faces():
    fs = build([(0, 0), (10, 0), (4, 7)], [(0, 1), (1, 2), (0, 2)])
    assert (len(fs.nodes), len(fs.pieces), len(fs.faces)) == (3, 3, 2)
    assert fs.components == 1
    assert face_complexity(fs) == ((3, 3), 3)
    assert fs.area2(0) == 70
    assert fs.area2(1) is None


def test_edgeless_drawing_has_one_face():
    fs = build([(0, 0), (10, 0), (4, 7)], [])
    assert len(fs.faces) == 1
    assert fs.components == 3
    assert fs.area2(0) is None
    # each edgeless vertex floats in it as a one-node cycle, which borders no
    # piece, and the holes come left to right
    assert fs.faces[0] == ((0,), (2,), (1,))
    assert face_complexity(fs) == ((0,), 0)


def test_complete_four_in_convex_position():
    fs = build([(0, 0), (10, 1), (11, 9), (1, 8)], complete_graph(4).edges)
    # the two diagonals cross, adding one subdivision vertex
    assert (len(fs.nodes), len(fs.pieces), len(fs.faces)) == (5, 8, 5)
    assert face_complexity(fs) == ((3, 3, 3, 3, 4), 4)
    assert sum(1 for fid in range(len(fs.faces)) if fs.area2(fid) is not None) == 4


def test_single_edge_is_a_spur_of_the_unbounded_face():
    fs = build([(3, 1), (3, 9)], [(0, 1)])
    assert len(fs.faces) == 1
    # both sides of the spur border the same face, so it counts twice
    assert face_complexity(fs) == ((2,), 2)


def test_two_far_apart_triangles():
    fs = build(
        [(0, 0), (10, 0), (4, 7), (100, 1), (110, 2), (104, 8)],
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
    )
    assert len(fs.faces) == 3
    assert fs.components == 2
    assert [len(c) for c in fs.faces[-1]] == [3, 3]
    assert face_complexity(fs)[0][-1] == 6


def test_nested_triangles_attach_the_hole():
    fs = build(
        [(0, 0), (30, 0), (16, 20), (10, 5), (18, 5), (14, 13)],
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
    )
    assert len(fs.faces) == 3
    # face 0 is the annulus between the triangles: its own boundary plus the
    # inner hole; face 1 is the inner triangle
    ring, inner, _ = fs.faces
    assert [len(c) for c in ring] == [3, 3]
    assert fs.area2(0) == 600
    assert len(inner) == 1 and fs.area2(1) == 64
    # a point of the inner triangle sees the inner triangle's left side first
    assert fs.locate((14, 8)) == 1


def test_nested_lists_its_edgeless_vertex_in_the_ring():
    points = [tuple(p) for p in NESTED["points"]]
    fs = build(points, [(i - 1, j - 1) for i, j in NESTED["graph"]["edges"]])
    ring, inner, outside = fs.faces
    # the outer triangle's boundary, then its holes left to right: vertex 7
    # alone (x = 6), then the inner triangle (leftmost x = 10)
    assert [len(c) for c in ring] == [3, 1, 3]
    assert ring[1] == (6,)
    assert all(len(c) > 1 for f in (inner, outside) for c in f)


def test_bowtie_visits_the_shared_vertex_twice():
    fs = build(
        [(0, 0), (-4, 2), (-4, -2), (4, 3), (4, -1)],
        [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)],
    )
    assert len(fs.faces) == 3
    assert [len(c) for c in fs.faces[-1]] == [6]
    assert sorted(map(fs.area2, range(len(fs.faces) - 1))) == [16, 16]


# --- drawing validation ---


def test_drawing_rejects_degenerate_points():
    # a drawing's points come as a Scene, which refuses them when built
    with pytest.raises(SceneError) as err:
        build([(0, 0), (5, 5), (10, 10)], [])
    assert err.value.diagnostics == ("collinear triple: points[0], points[1], points[2]",)


def test_drawing_rejects_bad_edges():
    # edges are checked once, by the graph; build_arrangement checks the size
    with pytest.raises(ObsrepError):
        Graph(3, [(0, 3)])
    with pytest.raises(ObsrepError):
        Graph(3, [(1, 1)])
    with pytest.raises(ObsrepError, match="3 points for a 4-vertex graph"):
        build_arrangement(Scene([(0, 0), (10, 0), (4, 7)]), Graph(4, [(0, 3)]))


def _unchecked(points):
    """A scene of these points that skips validation, so three may share a line."""
    return _assume_valid(Scene, points=tuple(map(Point._make, points)), obstacles=())


def test_drawing_refuses_two_pieces_leaving_a_node_in_one_direction():
    # a valid scene has no three points on a line; past that check, edges 0-1
    # and 0-2 overlap and leave vertex 0 both heading +x
    scene = _unchecked([(0, 0), (5, 0), (10, 0)])
    with pytest.raises(ObsrepError, match="two boundary pieces leave a node in the same direction"):
        build_arrangement(scene, Graph(3, [(0, 1), (0, 2)]))


# --- point location and representatives ---


def test_locate_triangle_interior_and_errors():
    fs = build([(0, 0), (10, 0), (4, 7)], [(0, 1), (1, 2), (0, 2)])
    assert fs.locate((4, 2)) == 0
    assert fs.locate((-5, 1)) == len(fs.faces) - 1
    with pytest.raises(GeometryError):
        fs.locate((0, 0))  # a drawing vertex
    with pytest.raises(GeometryError):
        fs.locate((5, 0))  # interior of a drawn segment


def test_locate_refuses_inexact_and_malformed_points():
    fs = build([(0, 0), (10, 0), (4, 7)], [(0, 1), (1, 2), (0, 2)])
    for q in [(0.5, 0.5), ("1", "1"), (1,), (True, 1)]:
        with pytest.raises(GeometryError, match="pair of ints or Fractions"):
            fs.locate(q)


def test_face_readouts_refuse_ids_that_name_no_face():
    fs = build([(0, 0), (10, 0), (4, 7)], [(0, 1), (1, 2), (0, 2)])
    assert [fs.area2(fid) for fid in (0, 1)] == [70, None]
    for readout in (fs.area2, fs.representative):
        for fid in (-2, -1, 2, 1.0, True):
            with pytest.raises(ObsrepError, match="no face"):
                readout(fid)


# Once the hypotenuse has shortened it, the probe of the bounded face ends at
# (16, 16), where the first drawing has an isolated vertex and the second a
# floating triangle.
IN_THE_PROBES_WAY = [
    ([(0, 0), (64, 0), (0, 64), (16, 16)], [(0, 1), (1, 2), (0, 2)]),
    ([(0, 0), (64, 0), (0, 64), (14, 15), (18, 14), (15, 19)],
     [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
]


def test_representatives_locate_back_to_their_face():
    cases = [
        ([(0, 0), (10, 0), (4, 7)], [(0, 1), (1, 2), (0, 2)]),
        ([(0, 0), (10, 1), (11, 9), (1, 8)], complete_graph(4).edges),
        ([(0, 0), (30, 0), (16, 20), (10, 5), (18, 5), (14, 13)],
         [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    ] + IN_THE_PROBES_WAY
    for points, edges in cases:
        fs = build(points, edges)
        for fid in range(len(fs.faces)):
            assert fs.locate(fs.representative(fid)) == fid


def _probe_drawings():
    """Seeded and hand-built drawings for the probe comparison.

    First 300 seeded drawings on grids n², 4n² and 100n²; every third graph
    keeps only about a third of its edges, so isolated vertices occur.  Then
    the golden NESTED, with a triangle and an isolated vertex floating in a
    bounded face, and IN_THE_PROBES_WAY.
    """
    rng = random.Random(2718)
    for k in range(300):
        n = rng.randint(3, 7)
        points = random_placement(rng, n, rng.choice((1, 4, 100)) * n * n)
        edges = gnp_half(n, rng).sorted_edges()
        if k % 3 == 0:
            edges = [e for e in edges if rng.randrange(3) == 0]
        yield points, edges
    nested = NESTED["graph"]["edges"]
    yield [tuple(p) for p in NESTED["points"]], [(i - 1, j - 1) for i, j in nested]
    yield from IN_THE_PROBES_WAY


def _isolated(fs):
    return [q for q, ring in zip(fs.nodes, fs.outgoing[: fs.graph.n]) if not ring]


def _same_point(got, want):
    return got == want and [type(c) for c in got] == [type(c) for c in want]


def test_representatives_match_the_whole_drawing_probe():
    isolated = holes = 0
    for points, edges in _probe_drawings():
        fs = build(points, edges)
        isolated += len(points) - len({i for e in edges for i in e})
        for fid, f in enumerate(fs.faces[:-1]):
            got = fs.representative(fid)
            assert got == whole_drawing_probe(fs.nodes, fs.pieces, f[0]), (points, edges)
            want = halving_representative(fs.nodes, f, _isolated(fs))
            assert _same_point(got, want), (points, edges, fid)
            holes += len(f) - 1
    assert isolated > 0 and holes > 0


def _seeded_drawings(count):
    """The first ``count`` seeded drawings, n = 3..10, that have a bounded face:
    ``(points, edges, fs, chosen face ids, isolated nodes)``.

    Every third keeps about a third of its edges, so isolated vertices occur,
    and every second is framed, so holes occur.  The chosen faces are those
    with holes and one more seeded face.
    """
    rng = random.Random(4000)
    for k in range(count):
        n = rng.randint(3, 10)
        points = random_placement(rng, n, rng.choice((1, 4, 100)) * n * n)
        edges = gnp_half(n, rng).sorted_edges()
        if k % 3 == 0:
            edges = [e for e in edges if rng.randrange(3) == 0]
        framed = _framed(points, edges) if k % 2 == 0 else None
        points, edges = framed or (points, edges)
        fs = build(points, edges)
        bounded = len(fs.faces) - 1
        if not bounded:
            continue
        chosen = {rng.randrange(bounded)}
        chosen |= {fid for fid, f in enumerate(fs.faces[:-1]) if len(f) > 1}
        yield points, edges, fs, sorted(chosen), _isolated(fs)


def test_representatives_match_the_halving_probe_on_seeded_drawings():
    isolated = holes = checked = 0
    for points, edges, fs, chosen, lonely in _seeded_drawings(4000):
        isolated += len(lonely)
        for fid in chosen:
            cycles = fs.faces[fid]
            want = integer_halving_representative(fs.nodes, cycles, lonely)
            assert _same_point(fs.representative(fid), want), (points, edges, fid)
            holes += len(cycles) - 1
            checked += 1
    assert checked >= 4000 and isolated > 100 and holes > 100


def test_integer_halving_probe_matches_the_fraction_probe():
    checked = 0
    for points, edges, fs, chosen, lonely in _seeded_drawings(200):
        for fid in chosen:
            want = halving_representative(fs.nodes, fs.faces[fid], lonely)
            got = integer_halving_representative(fs.nodes, fs.faces[fid], lonely)
            assert _same_point(got, want), (points, edges, fid)
            checked += 1
    assert checked >= 200


# Faces whose probe first touches the drawing in a chosen way, with the
# representative worked out by hand.  The V's two edges cross at the origin,
# the lowest corner of the triangle they make with y = 4, so its probe runs
# straight up along m = (0, 96).
_V = [(-4, -2), (8, 4), (4, -2), (-8, 4)]
_V_EDGES = [(0, 1), (2, 3), (1, 3)]
FIRST_CONTACTS = {
    # corner edges of length 1 give m = (1, 1); the far side is crossed at s = 4
    "past the first step": (
        [(0, 0), (1, 0), (5, 3), (3, 5), (0, 1)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
        (1, 1),
    ),
    "at a node, s = 1": (
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        (Fraction(1, 2), Fraction(1, 2)),
    ),
    "inside a piece, s = 1": (
        [(0, 0), (1, 0), (2, 1), (0, 1)],
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        (Fraction(1, 2), Fraction(1, 2)),
    ),
    # m = (4096, 4096): the hypotenuse at s = 2^-7, then the vertex at 2^-8
    "isolated vertex, s = 2^-8": (*IN_THE_PROBES_WAY[0], (8, 8)),
    "isolated vertex on the V's probe": (_V + [(0, 1)], _V_EDGES, (0, Fraction(3, 4))),
    "piece along the V's probe": (
        _V + [(0, 1), (0, 3)],
        _V_EDGES + [(4, 5)],
        (0, Fraction(3, 4)),
    ),
}


@pytest.mark.parametrize("name", sorted(FIRST_CONTACTS))
def test_representative_at_a_chosen_first_contact(name):
    points, edges, want = FIRST_CONTACTS[name]
    fs = build(points, edges)
    assert len(fs.faces) == 2
    got = fs.representative(0)
    assert _same_point(got, tuple(Fraction(c) for c in want))
    for oracle in (halving_representative, integer_halving_representative):
        assert _same_point(got, oracle(fs.nodes, fs.faces[0], _isolated(fs)))


def test_first_contact_solves_each_kind_of_contact():
    def contact(a, b, scale=1):
        # the segment from a/scale to b/scale, against the ray along (1, 2)
        hit = _first_contact((1, 2), (a, scale), (b, scale))
        assert hit is None or min(hit) > 0
        return hit and Fraction(*hit)

    assert contact((3, 1), (-1, 5)) == Fraction(4, 3)  # crosses the ray
    assert contact((9, 3), (-3, 15), 3) == Fraction(4, 3)  # the same, scaled
    assert Fraction(*_first_contact((1, 2), ((3, 1), 1), ((-2, 10), 2))) == Fraction(4, 3)
    assert contact((3, 1), (4, 1)) is None  # both ends right of it
    assert contact((-3, -5), (1, -7)) is None  # crosses its line behind the start
    assert contact((2, 4), (5, 0)) == 2  # an end on the ray
    assert contact((-2, -4), (5, 0)) is None  # an end on its line, behind
    assert contact((3, 6), (1, 2)) == 1  # along the ray: the nearer end
    assert contact((1, 2), (1, 2), 3) == Fraction(1, 3)  # a point on the ray
    assert contact((1, 1), (1, 1)) is None  # a point off it


def test_representative_reads_only_its_own_face(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _first_contact(*args)

    def probe(fs):
        calls.clear()
        return fs.representative(0), len(calls)

    monkeypatch.setattr("obsrep.arrangement._first_contact", counted)
    triangle = [(0, 0), (30, 1), (14, 28)]
    far = [(100, 100), (130, 101), (114, 128)]
    alone = build(triangle, [(0, 1), (1, 2), (0, 2)])
    both = build(triangle + far, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    lonely = build(triangle + [(100, 100)], [(0, 1), (1, 2), (0, 2)])
    assert both.faces[0] == lonely.faces[0] == alone.faces[0]
    # one solve for the one side of the triangle away from its lowest corner;
    # the far edgeless vertex belongs to the unbounded face and is not read
    assert probe(both) == probe(lonely) == probe(alone) == (alone.representative(0), 1)


# --- non-edge incidence ---


def test_square_cycle_incidence():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    fs = build([(0, 0), (10, 0), (10, 10), (0, 10)], g.edges)
    inc = face_nonedge_incidence(fs)
    assert inc.nonedges == ((0, 2), (1, 3))
    # both missing diagonals run inside the square face and nowhere else
    assert inc.through == ((0,), (0,))


def test_crossed_nonedge_is_cut_at_the_crossing():
    # all edges of K4 except one diagonal; the absent diagonal crosses the
    # drawn one and must be charged to the two triangles it traverses
    g = complete_graph(4).without_edge(0, 2)
    fs = build([(0, 0), (10, 1), (11, 9), (1, 8)], g.edges)
    inc = face_nonedge_incidence(fs)
    assert inc.nonedges == ((0, 2),)
    (touched,) = inc.through
    assert len(touched) == 2
    assert all(fs.area2(fid) is not None for fid in touched)


# --- obstacles inside faces ---


def test_hexagon_scene_obstacle_sits_in_the_unbounded_face(hexagon_scene):
    report = obstacle_face_check(hexagon_scene)
    fs = build(hexagon_scene.points, [(0, 1), (0, 2)])
    assert isinstance(report, FacePlacementReport)
    assert report.ok
    assert report.assignments == (len(fs.faces) - 1,)


def test_square_scene_obstacle_sits_in_a_bounded_face(square_scene):
    report = obstacle_face_check(square_scene)
    assert report.ok
    assert report.assignments != (None,)


def test_obstacle_stabbed_by_an_edge_fails_the_check():
    scene = Scene(
        pts((0, 0), (10, 0), (5, 8)),
        (poly((4, -1), (6, -1), (6, 1), (4, 1)),),
    )
    # with the full graph the segment 0-1 runs straight through the box
    report = obstacle_face_check(scene, complete_graph(3))
    assert not report.ok
    assert report.assignments == (None,)
    # with the scene's own visibility graph that segment is absent
    assert obstacle_face_check(scene).ok


# --- agreement with the slab-decomposition oracle ---


def _oracle_face_map(fs, oracle):
    """Map each face id to the oracle's face root via a representative point."""
    mapping = {fid: oracle.locate(fs.representative(fid)) for fid in range(len(fs.faces))}
    assert len(set(mapping.values())) == len(mapping)
    return mapping


def _check_against_oracle(points, edges):
    graph = Graph(len(points), edges)
    fs = build_arrangement(Scene(points), graph)
    oracle = SlabOracle(points, graph)
    assert len(fs.faces) == oracle.face_count
    bounded = sum(fs.area2(fid) is not None for fid in range(len(fs.faces)))
    assert bounded == oracle.bounded_face_count
    mapping = _oracle_face_map(fs, oracle)
    assert mapping[len(fs.faces) - 1] == oracle.outer_root
    oracle_complexity = oracle.complexities()
    for fid, sides in enumerate(face_complexity(fs)[0]):
        assert sides == oracle_complexity[mapping[fid]], fs.faces[fid]
    inc = face_nonedge_incidence(fs)
    for (i, j), faces in zip(inc.nonedges, inc.through):
        ours = {mapping[fid] for fid in faces}
        assert ours == oracle.nonedge_faces(points[i], points[j]), (i, j)
    return fs, oracle, mapping


def test_vertical_edges_against_the_oracle():
    _check_against_oracle(
        [(0, 0), (10, 0), (10, 10), (0, 10)], [(0, 1), (1, 2), (2, 3), (0, 3)]
    )
    _check_against_oracle(
        [(0, 0), (-4, 2), (-4, -2), (4, 3), (4, -1)],
        [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)],
    )


def test_nonedge_through_a_crossing_node_against_the_oracle():
    # the absent edge 4-5 runs exactly through (5, 5), where the drawn
    # diagonals 0-1 and 2-3 cross, from one bounded face into another
    _check_against_oracle(
        [(0, 10), (10, 0), (2, 0), (8, 10), (1, 3), (9, 7)],
        [(2, 1), (1, 5), (5, 3), (3, 0), (0, 4), (4, 2), (0, 1), (2, 3)],
    )


# A triangle with isolated vertices 3 and 4 inside it and 5 and 6 outside:
# 3-4 and 5-6 join edgeless vertices and cross nothing, 3-5 joins edgeless
# vertices across the triangle, 0-5 crosses it to an edgeless far end, and
# 0-3 and 2-6 leave a triangle corner for an edgeless far end, crossing nothing.
ISOLATED = (
    [(0, 0), (40, 0), (20, 35), (15, 10), (24, 13), (60, 30), (70, -5)],
    [(0, 1), (1, 2), (0, 2)],
)


def test_nonedges_at_isolated_vertices_against_the_oracle():
    points, edges = ISOLATED
    _check_against_oracle(points, edges)
    fs = build(points, edges)
    inc = face_nonedge_incidence(fs)
    faces_of = dict(zip(inc.nonedges, inc.through))
    assert faces_of[(3, 4)] == faces_of[(0, 3)] == (0,)
    assert faces_of[(5, 6)] == faces_of[(2, 6)] == (1,)
    assert faces_of[(3, 5)] == faces_of[(0, 5)] == (0, 1)


def test_floating_drawings_against_the_oracle():
    # an inner triangle, an inner path and then a single inner edge float in
    # the outer triangle's face; non-edges from outer vertices cross them
    outer, inner = [(0, 0), (30, 0), (16, 20)], [(10, 5), (18, 5), (14, 13)]
    ring = [(0, 1), (1, 2), (0, 2)]
    _check_against_oracle(outer + inner, ring + [(3, 4), (4, 5), (3, 5)])
    _check_against_oracle(outer + inner, ring + [(3, 4), (4, 5)])
    _check_against_oracle(inner + outer, [(3, 4), (4, 5), (3, 5), (0, 1)])


def test_random_drawings_match_the_oracle():
    rng = random.Random(90125)
    for _ in range(60):
        n = rng.randint(3, 7)
        points = random_placement(rng, n, 30)
        g = gnp_half(n, rng)
        _check_against_oracle(points, g.edges)


def test_euler_relation_on_random_drawings():
    rng = random.Random(3856)
    for _ in range(80):
        n = rng.randint(2, 9)
        points = random_placement(rng, n, 40)
        fs = build_arrangement(Scene(points), gnp_half(n, rng))
        v, e, f = len(fs.nodes), len(fs.pieces), len(fs.faces)
        assert v - e + f == 1 + fs.components


def test_components_match_the_segment_meeting_oracle():
    # The build joins components in its crossing pass; the oracle joins the
    # ends of every two edges whose closed segments meet, by Fraction solves.
    drawings = [
        ISOLATED,
        _document(NESTED),
        _document(CONCURRENT),
        THREE_THROUGH_ONE,
        ([(0, 0), (10, 0), (4, 7)], []),
        ([(3, 5), (3, 1), (0, 4), (7, 2)], []),
        *_nested_drawings(random.Random(2718), 80),
    ]
    rng = random.Random(6174)
    for k in range(100):
        n = rng.randint(3, 12)
        points = random_placement(rng, n, rng.choice((4, 100)) * n * n)
        keep = k % 3 + 2  # a half, a third or a quarter of the edges
        edges = [e for e in gnp_half(n, rng).sorted_edges() if rng.randrange(keep) == 0]
        drawings.append((points, edges))
    several = 0
    for points, edges in drawings:
        fs = build(points, edges)
        assert fs.components == drawing_components(points, edges), (points, edges)
        several += fs.components > 1
    assert several >= 50, several


def _framed(points, edges):
    """The drawing inside a triangle far around it, so that it floats in the
    triangle's face, or ``None`` if a frame corner is collinear with two points."""
    side = 10 * max(max(abs(x), abs(y)) for x, y in points) + 10
    frame = [(-side, -side + 1), (2 * side, -side), (-side + 3, 2 * side)]
    n, points = len(points), list(points) + frame
    try:
        Scene(points)
    except SceneError:
        return None
    return points, list(edges) + [(n, n + 1), (n + 1, n + 2), (n, n + 2)]


def test_floating_components_and_locate_against_the_oracle():
    # Sparse drawings, every second one framed by a far triangle, float several
    # components.  The oracle counts hole sides in its faces' complexities, so
    # it checks where each component was placed, and it locates lattice points
    # too: some on node heights, whose leftward ray can meet a node first, and
    # some on the drawing, which locate refuses.
    rng = random.Random(5309)
    floating = node_rows = refused = 0
    for k in range(40):
        n = rng.randint(4, 8)
        points = random_placement(rng, n, rng.choice((4, 100)) * n * n)
        edges = [e for e in gnp_half(n, rng).sorted_edges() if rng.randrange(3) == 0]
        box = [min(c) for c in zip(*points)], [max(c) for c in zip(*points)]
        points, edges = (_framed(points, edges) if k % 2 else None) or (points, edges)
        fs, oracle, mapping = _check_against_oracle(points, edges)
        floating += fs.components > 1
        face_of = {root: fid for fid, root in mapping.items()}
        left = min(x for x, _ in points) - 1
        heights = sorted({y for _, y in map(xy, fs.nodes)})
        assert {fs.locate((left, y)) for y in heights} == {len(fs.faces) - 1}
        (x0, y0), (x1, y1) = box
        queries = [(rng.randint(x0 - 1, x1 + 1), rng.randint(y0 - 1, y1 + 1)) for _ in range(20)]
        queries += [(rng.randint(x0, x1 + 1), rng.choice(heights)) for _ in range(20)]
        queries += [rng.choice(points)] + [
            (Fraction(ax + bx, 2), Fraction(ay + by, 2))
            for (ax, ay), (bx, by) in ((points[i], points[j]) for i, j in edges[:2])
        ]
        for q in queries:
            if q in points or any(closed_segments_meet(points[i], points[j], q, q) for i, j in edges):
                with pytest.raises(GeometryError):
                    fs.locate(q)
                refused += 1
                continue
            assert fs.locate(q) == face_of[oracle.locate(q)], (points, edges, q)
            node_rows += any(
                y == q[1] and x < q[0] and ring
                for (x, y), ring in zip(map(xy, fs.nodes), fs.outgoing)
            )
    assert floating >= 30 and node_rows >= 200 and refused >= 60, (floating, node_rows, refused)


def _walk_drawings():
    """The probe drawings, ISOLATED, and 120 more seeded drawings: every
    third graph keeps about a quarter of its edges, and every second drawing
    is framed by a far triangle when that keeps general position."""
    yield from _probe_drawings()
    yield ISOLATED
    rng = random.Random(1618)
    for k in range(120):
        n = rng.randint(3, 7)
        points = random_placement(rng, n, rng.choice((1, 4, 100)) * n * n)
        edges = gnp_half(n, rng).sorted_edges()
        if k % 3 == 0:
            edges = [e for e in edges if rng.randrange(4) == 0]
        framed = _framed(points, edges) if k % 2 == 0 else None
        yield framed or (points, edges)


def test_walk_matches_midpoint_location():
    edgeless_pairs = hole_darts = 0
    for points, edges in _walk_drawings():
        fs = build(points, edges)
        assert face_nonedge_incidence(fs).through == midpoint_incidence(fs), (points, edges)
        edgeless = set(range(len(points))) - {v for e in edges for v in e}
        edgeless_pairs += sum(1 for i, j in fs.graph.non_edges() if {i, j} <= edgeless)
        hole_darts += sum(len(c) for f in fs.faces[:-1] for c in f[1:])
    assert edgeless_pairs > 0 and hole_darts > 0


def test_incidence_walks_without_point_location(monkeypatch):
    # every vertex of the G12 drawing has an edge; ISOLATED's edgeless
    # vertices were filed in their faces by the build, which the walk reads
    g12 = [tuple(p) for p in G12["points"]], [(i - 1, j - 1) for i, j in G12["graph"]["edges"]]
    drawings = [build(*drawing) for drawing in (g12, ISOLATED)]
    want = [face_nonedge_incidence(fs) for fs in drawings]

    def refuse(*args):
        raise AssertionError("face_nonedge_incidence located a point")

    monkeypatch.setattr("obsrep.arrangement._dart_left_of", refuse)
    assert [face_nonedge_incidence(fs) for fs in drawings] == want
    with pytest.raises(AssertionError, match="located a point"):
        drawings[0].locate(drawings[0].representative(0))


def test_only_floating_components_shoot_a_ray(monkeypatch):
    # Nothing lies left of the drawing's leftmost vertex, so its component is
    # placed in the unbounded face without a ray: the connected G12 builds
    # without one.  NESTED's inner triangle and edgeless vertex 7 each still
    # shoot one, and land in the ring between the triangles.
    import obsrep.arrangement as arrangement

    locate, rays = arrangement._dart_left_of, []

    def refuse(*args):
        raise AssertionError("the build located a point")

    monkeypatch.setattr(arrangement, "_dart_left_of", refuse)
    assert build(*_document(G12)).components == 1

    def recording(q, *rest):
        rays.append(q)
        return locate(q, *rest)

    monkeypatch.setattr(arrangement, "_dart_left_of", recording)
    fs, _, _ = _check_against_oracle(*_document(NESTED))
    assert rays == [(6, 2, 1), (10, 6, 1)]
    assert fs.faces == (((0, 1, 2), (6,), (4, 3, 5)), ((3, 4, 5),), ((1, 0, 2),))


# A triangle floats right of a first component, both inside a far frame, and the
# build's ray from its leftmost vertex (60, 31) meets that component at a node
# first.  The node is vertex 0, which only ever starts its pieces; vertex 2,
# which only ever ends them; a crossing node, met head-on; and the right end of
# a piece lying on the ray's line.  Three points on one line make no valid
# scene, so that last drawing is built unchecked: no point lies inside a
# segment, which is all the build asks.  Each row holds the points, the edges,
# the node met, whether the scene is valid, and the faces.
_FLOAT, _FRAME = [(60, 31), (71, 24), (68, 40)], [(-10, -10), (120, -5), (50, 100)]


def _triangles(*firsts):
    return [e for n in firsts for e in ((n, n + 1), (n + 1, n + 2), (n, n + 2))]


RAYS_AT_A_NODE = [
    ([(40, 31), (20, 20), (22, 40)] + _FLOAT + _FRAME, _triangles(0, 3, 6), 0, True,
     (((1, 0, 2),), ((3, 4, 5),), ((6, 7, 8), (0, 1, 2), (4, 3, 5)), ((7, 6, 8),))),
    ([(20, 20), (22, 40), (40, 31)] + _FLOAT + _FRAME, _triangles(0, 3, 6), 2, True,
     (((1, 0, 2),), ((3, 4, 5),), ((6, 7, 8), (0, 1, 2), (4, 3, 5)), ((7, 6, 8),))),
    ([(20, 20), (40, 42), (20, 42), (40, 20)] + _FLOAT + _FRAME,
     [(0, 1), (2, 3), (0, 2)] + _triangles(4, 7), 10, True,
     (((0, 10, 2),), ((4, 5, 6),), ((7, 8, 9), (10, 0, 2, 10, 1, 10, 3), (5, 4, 6)),
      ((8, 7, 9),))),
    ([(40, 31), (20, 31), (30, 15)] + _FLOAT + _FRAME, _triangles(0, 3, 6), 0, False,
     (((0, 1, 2),), ((3, 4, 5),), ((6, 7, 8), (1, 0, 2), (4, 3, 5)), ((7, 6, 8),))),
]


def test_build_rays_that_meet_a_node(monkeypatch):
    # The ray reads its node off the pieces the node ends, so missing either end
    # of a piece files the floating triangle in the wrong face; the oracle places
    # every face independently.  ``met`` maps each ray to the node its dart leaves.
    import obsrep.arrangement as arrangement

    locate, met = arrangement._dart_left_of, {}

    def recording(q, nodes, pieces, outgoing):
        d = locate(q, nodes, pieces, outgoing)
        met[q] = None if d is None else pieces[d >> 1][d & 1]
        return d

    monkeypatch.setattr(arrangement, "_dart_left_of", recording)
    for points, edges, node, valid, faces in RAYS_AT_A_NODE:
        met.clear()
        graph = Graph(len(points), edges)
        fs = build_arrangement(Scene(points) if valid else _unchecked(points), graph)
        assert met[(60, 31, 1)] == node
        assert fs.faces == faces
        oracle, ids = SlabOracle(points, graph), range(len(fs.faces))
        reps = [fs.representative(fid) for fid in ids]
        assert [fs.locate(r) for r in reps] == list(ids)
        roots = [oracle.locate(r) for r in reps]
        assert sorted(roots) == oracle.face_roots
        sides = oracle.complexities()
        assert [sides[root] for root in roots] == list(face_complexity(fs)[0])


def _nested_drawings(rng, count):
    """Seeded drawings of one to five small triangles and one to three edgeless
    vertices, all inside a large triangle whose bounded face most of them
    share; a triangle can hold a vertex or cross another triangle."""
    while count:
        points, edges = [(0, 0), (1200, 7), (590, 1000)], [(0, 1), (1, 2), (0, 2)]
        for _ in range(rng.randint(1, 5)):
            cx, cy = rng.randint(400, 800), rng.randint(100, 400)
            n = len(points)
            points += [(cx + rng.randint(-30, 30), cy + rng.randint(-30, 30)) for _ in range(3)]
            edges += [(n, n + 1), (n + 1, n + 2), (n, n + 2)]
        points += [(rng.randint(400, 800), rng.randint(100, 400)) for _ in range(rng.randint(1, 3))]
        try:
            Scene(points)
        except SceneError:
            continue
        count -= 1
        yield points, edges


def test_holes_come_left_to_right():
    # Each face lists its holes, the cycles after a bounded face's outer
    # boundary, by their leftmost (then lowest) node, strictly increasing.
    drawings = [
        _document(NESTED),
        ([(0, 0), (10, 0), (4, 7)], []),
        ([(3, 5), (3, 1), (0, 4), (7, 2)], []),
        *_nested_drawings(random.Random(2718), 80),
    ]
    side_by_side = 0
    for points, edges in drawings:
        fs = build(points, edges)
        for holes in [f[1:] for f in fs.faces[:-1]] + [fs.faces[-1]]:
            lefts = [min(xy(fs.nodes[i]) for i in c) for c in holes]
            assert all(a < b for a, b in zip(lefts, lefts[1:])), (points, edges, holes)
            side_by_side += len(holes) > 1
    assert build(*drawings[2]).faces == (((2,), (1,), (0,), (3,)),)
    assert side_by_side >= 60, side_by_side


# Three diagonals of a hexagon through one crossing node at the origin, with
# the hexagon's sides drawn too.
THREE_THROUGH_ONE = (
    [(10, 3), (4, 9), (-7, 8), (-10, -3), (-4, -9), (7, -8)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3), (1, 4), (2, 5)],
)


def test_areas_and_rings_match_the_coordinate_formulas():
    # Faces' areas come from the homogeneous nodes over one common denominator
    # and the dart rings from integer edge vectors; the oracle reads both off
    # the nodes' Fraction coordinates.  Every area is handed out as a Fraction.
    crossed, fractional, concurrent = 0, 0, 0
    for points, edges in [*_walk_drawings(), THREE_THROUGH_ONE]:
        fs = build(points, edges)
        for fid, f in enumerate(fs.faces[:-1]):
            area2 = fs.area2(fid)
            want = shoelace_area2(fs.nodes, f[0])
            assert type(area2) is Fraction and area2 == want, (points, edges)
            crossed += any(fs.nodes[i][2] > 1 for i in f[0])
            fractional += area2.denominator > 1
        assert fs.outgoing == tuple(ccw_ring(fs.nodes, fs.pieces, r) for r in fs.outgoing)
        concurrent += any(len(r) == 6 for r in fs.outgoing[len(points):])
    assert crossed > 100 and fractional > 100 and concurrent > 0


def test_rings_and_wedges_compare_integer_directions(monkeypatch):
    # Rings are sorted, and the build's and the walk's wedges are read, on
    # direction keys of integer vectors at the drawing's one scale.
    scales = []

    def integer_keys(x, y, scale):
        if not all(type(c) is int for c in (x, y, scale)) or scale <= y * y:
            raise AssertionError(f"direction_key on {x}, {y} at scale {scale}")
        scales.append(scale)
        return direction_key(x, y, scale)

    monkeypatch.setattr("obsrep.arrangement.direction_key", integer_keys)
    points = [tuple(p) for p in G12["points"]]
    fs = build(points, [(i - 1, j - 1) for i, j in G12["graph"]["edges"]])
    assert len(fs.nodes) > len(points)
    built = len(scales)
    face_nonedge_incidence(fs)
    assert 0 < built < len(scales) and set(scales) == {fs.scale}
    assert len(fs.dart_keys) == 2 * len(fs.pieces)
    # every node is a reduced homogeneous int triple, the drawn points with W = 1
    assert fs.nodes[: len(points)] == tuple((x, y, 1) for x, y in points)
    assert all(type(c) is int for node in fs.nodes for c in node)
    assert all(w > 1 and gcd(x, y, w) == 1 for x, y, w in fs.nodes[len(points):])
    assert all(type(t) is int for _, cuts in fs.edge_cuts for t in cuts)


def _document(doc):
    return [tuple(p) for p in doc["points"]], [(i - 1, j - 1) for i, j in doc["graph"]["edges"]]


def _crossings_by_the_oracle(points, edges):
    """The drawn points, then every crossing of two edges in the order pairs of
    edges first meet there, as Fraction pairs; and each edge's cut parameters."""
    nodes, cuts = [xy(p) for p in points], {e: set() for e in edges}
    for e, f in combinations(edges, 2):
        params = cross_params(points[e[0]], points[e[1]], points[f[0]], points[f[1]])
        if set(e) & set(f) or params is None or not all(0 < c < 1 for c in params):
            continue
        (px, py), (qx, qy) = xy(points[e[0]]), xy(points[e[1]])
        t = params[0]
        if (px + t * (qx - px), py + t * (qy - py)) not in nodes:
            nodes.append((px + t * (qx - px), py + t * (qy - py)))
        cuts[e].add(params[0])
        cuts[f].add(params[1])
    return nodes, [sorted(cuts[e]) for e in edges]


def _symmetric_drawings(rng, count):
    """Seeded drawings of k = 3 or 4 small-grid points and their mirror images
    through the origin, whose k diagonals all cross there, plus about half
    of the other pairs as edges."""
    while count:
        k = rng.randint(3, 4)
        half = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(k)]
        points = half + [(-x, -y) for x, y in half]
        try:
            Scene(points)
        except SceneError:
            continue
        count -= 1
        yield points, [(i, i + k) for i in range(k)] + gnp_half(2 * k, rng).sorted_edges()


def test_crossing_nodes_match_the_oracle():
    # The walk's drawings, small-grid drawings with three or four edges through
    # one point, and the concurrent goldens: each crossing is one reduced node,
    # with the id its first crossing pair gives it, and cuts each edge once.
    drawings = [THREE_THROUGH_ONE, _document(CONCURRENT), _document(G12), *_walk_drawings()]
    drawings += _symmetric_drawings(random.Random(1729), 100)
    concurrent = 0
    for points, edges in drawings:
        fs = build(points, edges)
        nodes, cuts = _crossings_by_the_oracle(points, fs.graph.sorted_edges())
        assert [xy(node) for node in fs.nodes] == nodes, (points, edges)
        assert all(w > 0 and gcd(x, y, w) == 1 for x, y, w in fs.nodes)
        assert [list(ts) for _, ts in fs.edge_cuts] == [[floor(t * fs.scale) for t in ts] for ts in cuts]
        concurrent += sum(map(len, cuts)) > 2 * (len(nodes) - len(points))
    assert concurrent >= 100, concurrent


def _may_cross(points, seg, other):
    """Four distinct ends, and closed bounding boxes that meet."""
    (a, b), (c, d) = seg, other
    if len({a, b, c, d}) < 4:
        return False
    (p, q), (r, s) = (points[a], points[b]), (points[c], points[d])
    return all(
        min(p[i], q[i]) <= max(r[i], s[i]) and min(r[i], s[i]) <= max(p[i], q[i]) for i in (0, 1)
    )


def test_only_pairs_that_can_cross_reach_the_crossing_solve(monkeypatch):
    # The build asks _crossing about edge pairs (k, l), k < l, and the walk
    # about (non-edge, edge) pairs, each in order, and only about pairs with
    # four distinct ends whose closed boxes meet; every other pair, checked
    # by brute force, has no crossing.
    import obsrep.arrangement as arrangement

    flat, asked = arrangement._crossing, []

    def recording(px, py, dx, dy, rx, ry, ex, ey):
        # The solve takes each segment as its start and vector; record its ends.
        asked.append(((px, py), (px + dx, py + dy), (rx, ry), (rx + ex, ry + ey)))
        return flat(px, py, dx, dy, rx, ry, ex, ey)

    def solve(p, q, r, s):
        return flat(*p, q[0] - p[0], q[1] - p[1], *r, s[0] - r[0], s[1] - r[1])

    monkeypatch.setattr(arrangement, "_crossing", recording)
    calls, skipped = [], 0
    drawings = [_document(G12), _document(G16), _document(CONCURRENT), THREE_THROUGH_ONE]
    for points, edges in [*drawings, *_walk_drawings()]:
        graph = Graph(len(points), edges)
        asked.clear()
        fs = build_arrangement(Scene(points), graph)
        built = list(asked)
        asked.clear()
        face_nonedge_incidence(fs)
        phases = [
            (built, combinations(graph.sorted_edges(), 2)),
            (asked, product(graph.non_edges(), graph.sorted_edges())),
        ]
        for got, pairs in phases:
            pairs = list(pairs)
            can = {pair for pair in pairs if _may_cross(points, *pair)}
            ends = [tuple(tuple(points[v]) for seg in pair for v in seg) for pair in pairs]
            assert got == [q for pair, q in zip(pairs, ends) if pair in can], (points, edges)
            rest = [q for pair, q in zip(pairs, ends) if pair not in can]
            assert all(solve(*q) is None for q in rest), (points, edges)
            skipped += len(rest)
        calls.append((len(built), len(asked)))
    # G16 has 2,415 edge pairs, 1,851 of them with four distinct ends, and 3,500
    # (non-edge, edge) pairs
    assert calls[1] == (873, 1240)
    assert skipped > 10_000, skipped


def test_build_and_incidence_compute_without_fractions(monkeypatch):
    # Neither the build nor the walk makes a Fraction: only a face's area2
    # and representative, computed on call, hand one out.
    import obsrep.arrangement as arrangement

    def refuse(*args):
        raise AssertionError(f"Fraction{args} made")

    g12 = build(*_document(G12))
    monkeypatch.setattr(arrangement, "Fraction", refuse)
    fs = build(*_document(G12))
    assert fs == g12
    assert face_nonedge_incidence(fs) == face_nonedge_incidence(g12)
    for readout in (fs.area2, fs.representative):
        with pytest.raises(AssertionError, match="made"):
            readout(0)


# --- the drawing's one integer scale ---

# Edges 0-1, 2-3 and 4-5 of a span-12 drawing: 2-3 and 4-5 cut 0-1 at 119/219
# and 144/265, which differ by 1/(219·265) > 1/(4·12⁴), but by less than
# 1/(2·12⁴), so at half the drawing's scale their keys would agree.
CLOSE_CUTS = [(0, 0), (12, 11), (2, 11), (11, 1), (1, 12), (12, 0)]


def _left_of_dart(fs, d):
    """A point just left of dart d's midpoint: a step along d's left normal,
    halved until the closed step meets no other piece and no node."""
    a, b = fs.pieces[d >> 1][:: -1 if d & 1 else 1]
    (ax, ay), (bx, by) = xy(fs.nodes[a]), xy(fs.nodes[b])
    mid = ((ax + bx) / 2, (ay + by) / 2)
    others = [(fs.nodes[i], fs.nodes[j]) for k, (i, j) in enumerate(fs.pieces) if k != d >> 1]
    others += [(node, node) for node in fs.nodes]
    step = Fraction(1)
    while True:
        p = (mid[0] - step * (by - ay), mid[1] + step * (bx - ax))
        if not any(closed_segments_meet(mid, p, c, e) for c, e in others):
            return p
        step /= 2


def _check_at_the_scale(points, edges):
    """Faces, ``dart_face``, ``through``, representatives and cut keys of
    one drawing against the oracles."""
    fs, oracle, mapping = _check_against_oracle(points, edges)
    span = max(max(c) - min(c) for c in zip(*points))
    assert fs.scale == 4 * span**4 + 1
    assert face_nonedge_incidence(fs).through == midpoint_incidence(fs)
    lonely = _isolated(fs)
    for fid, f in enumerate(fs.faces[:-1]):
        assert _same_point(fs.representative(fid), halving_representative(fs.nodes, f, lonely))
    for d, face in enumerate(fs.dart_face):
        assert oracle.locate(_left_of_dart(fs, d)) == mapping[face], (points, edges, d)
    nodes, cuts = _crossings_by_the_oracle(points, fs.graph.sorted_edges())
    assert [xy(node) for node in fs.nodes] == nodes
    assert [list(ts) for _, ts in fs.edge_cuts] == [[floor(t * fs.scale) for t in ts] for ts in cuts]
    assert all(s < t for _, ts in fs.edge_cuts for s, t in zip(ts, ts[1:]))
    return fs


def _scale_drawings():
    """CLOSE_CUTS alone, framed by its hull and with every edge; then seeded
    G(7, ½) drawings on a 40-grid."""
    crossing = [(0, 1), (2, 3), (4, 5)]
    yield CLOSE_CUTS, crossing
    yield CLOSE_CUTS, crossing + [(0, 5), (1, 4), (1, 5), (0, 4)]
    yield CLOSE_CUTS, complete_graph(6).sorted_edges()
    rng = random.Random(4242)
    for _ in range(3):
        yield random_placement(rng, 7, 40), gnp_half(7, rng).sorted_edges()


def test_two_cuts_closer_than_half_the_scale_keep_their_order():
    fs = _check_at_the_scale(CLOSE_CUTS, [(0, 1), (2, 3), (4, 5)])
    (_, (s, t)), half = fs.edge_cuts[0], 2 * 12**4
    assert (s, t) == (119 * fs.scale // 219, 144 * fs.scale // 265)
    assert 119 * half // 219 == 144 * half // 265


def test_drawings_offset_near_two_to_the_seventy_keep_their_faces():
    # A small span far from the origin: the scale, the cut keys, the faces,
    # darts and incidence are those of the drawing at the origin, and every
    # node and representative moves by the offset.
    dx, dy = 2**70 + 3, -(2**70) + 5
    for points, edges in _scale_drawings():
        moved = [(x + dx, y + dy) for x, y in points]
        near, far = build(points, edges), _check_at_the_scale(moved, edges)
        assert far.scale == near.scale < 2**30
        assert (far.faces, far.dart_face, far.edge_cuts) == (near.faces, near.dart_face, near.edge_cuts)
        assert far.nodes == tuple((x + dx * w, y + dy * w, w) for x, y, w in near.nodes)
        assert face_nonedge_incidence(far) == face_nonedge_incidence(near)
        for fid in range(len(near.faces)):
            x, y = near.representative(fid)
            assert far.representative(fid) == (x + dx, y + dy)


def test_drawings_with_a_span_near_two_to_the_thirty_five():
    rng = random.Random(3535)
    for _ in range(3):
        points = random_placement(rng, 7, 2**35)
        fs = _check_at_the_scale(points, gnp_half(7, rng).sorted_edges())
        assert 2**34 < max(max(c) - min(c) for c in zip(*points)) < 2**35
        assert len(fs.nodes) > 7
    # CLOSE_CUTS blown up to span 12·2³¹ and nudged off its lattice
    big = [((x << 31) + i, (y << 31) - i * i) for i, (x, y) in enumerate(CLOSE_CUTS)]
    _check_at_the_scale(big, complete_graph(6).sorted_edges())


def test_drawings_in_negative_coordinates():
    # Floor division rounds toward -inf, so keys of negative coordinates
    # still order them; mirrored drawings also flip every ring.
    for points, edges in _scale_drawings():
        _check_at_the_scale([(-x - 50, -y - 1) for x, y in points], edges)
        _check_at_the_scale([(-x, y - 60) for x, y in points], edges)


def test_seeded_drawings_are_pinned():
    # One SHA-256 over every face set field but the graph, and the walk's
    # faces per non-edge, of 450 seeded drawings: n = 2..16 by seeds 0..29 on
    # three grids, every fifth keeping a quarter of its edges.
    digest, several = hashlib.sha256(), 0
    names = [f.name for f in fields(FaceSet) if f.name != "graph"]
    for n in range(2, 17):
        for s in range(30):
            rng = random.Random(1000 * n + s)
            edges = gnp_half(n, rng).sorted_edges()
            if s % 5 == 0:
                edges = [e for e in edges if rng.randrange(4) == 0]
            points = random_placement(rng, n, (n * n + 4, 4 * n * n, 100 * n * n)[s % 3])
            fs = build(points, edges)
            for name in names:
                digest.update(repr(getattr(fs, name)).encode())
            digest.update(repr(face_nonedge_incidence(fs).through).encode())
            several += fs.components > 1
    assert several == 132
    assert digest.hexdigest() == "c836d18fec2190f9b25ad2e4109c7838f5d4e6e72bf3bc13099697489cb2f761"
