import random
from fractions import Fraction

import pytest

from obsrep.arrangement import build_arrangement, face_nonedge_incidence
from obsrep.errors import ObsrepError
from obsrep.geom import Point, orient
from obsrep.graphs import Graph, complete_graph, cycle_graph, gnp_half
from obsrep.sampling import random_placement
from obsrep.scene import Scene
from obsrep import search
from obsrep.search import (
    ObsResult,
    edge_deletion_chain,
    min_obstacles_for_placement,
    obs_upper_bound,
    partition_lemma_check,
    random_graph_experiment,
    replay_witness,
    suggested_group_size,
    _partition_report,
)

from conftest import poly, pts
import oracles
from support import partition_faces_check

QUAD = pts((0, 0), (10, 1), (11, 9), (1, 8))  # convex, distinct x


# --- per-placement minimum ---


def test_complete_graph_needs_no_obstacles():
    assert min_obstacles_for_placement(Scene(QUAD), complete_graph(4)) == ()


def test_square_cycle_needs_one_face():
    faces = min_obstacles_for_placement(Scene(QUAD), cycle_graph(4))
    # the inner quadrilateral face covers both missing diagonals
    assert isinstance(faces, tuple)
    assert len(faces) == 1


def test_path_is_covered_by_the_unbounded_face():
    faces = min_obstacles_for_placement(
        Scene(pts((0, 0), (5, 1), (10, 0))), Graph(3, [(0, 1), (1, 2)])
    )
    assert len(faces) == 1


def test_placement_size_mismatch():
    with pytest.raises(ObsrepError):
        min_obstacles_for_placement(Scene(QUAD), complete_graph(3))


# --- upper bounds with witnesses ---


def test_complete_graphs_are_certified_at_zero():
    for n in (2, 4, 6):
        result = obs_upper_bound(complete_graph(n), placements=3, seed=1)
        assert result.upper_bound == 0
        assert result.certified_exact
        assert result.faces == ()
        assert replay_witness(complete_graph(n), result)


def test_simple_incomplete_graphs_are_certified_at_one():
    for g in (Graph(4), cycle_graph(4), complete_graph(4).without_edge(0, 1)):
        result = obs_upper_bound(g, placements=30, seed=7)
        assert result.upper_bound == 1
        assert result.certified_exact
        assert replay_witness(g, result)


def test_incomplete_graphs_never_certify_below_one():
    result = obs_upper_bound(Graph(3), placements=2, seed=0)
    assert result.upper_bound >= 1


def test_result_is_reproducible():
    g = cycle_graph(5)
    a = obs_upper_bound(g, placements=12, seed=42)
    b = obs_upper_bound(g, placements=12, seed=42)
    c = obs_upper_bound(g, placements=12, seed=43)
    assert a == b
    assert a.points == b.points
    # a different seed explores different placements
    assert a.points != c.points


def test_replay_rejects_tampered_results():
    g = cycle_graph(4)
    result = obs_upper_bound(g, placements=30, seed=7)
    assert replay_witness(g, result)
    # claim fewer faces than the witness placement needs
    cheat = ObsResult(result.points, (), True)
    assert cheat.upper_bound == 0
    assert not replay_witness(g, cheat)
    # keep the bound but swap in a face that misses a non-edge
    fs = build_arrangement(Scene(result.points), g)
    through = face_nonedge_incidence(fs).through
    short = next(fid for fid in range(len(fs.faces)) if any(fid not in f for f in through))
    rigged = ObsResult(result.points, (short,), True)
    assert rigged.upper_bound == result.upper_bound
    assert not replay_witness(g, rigged)
    # ids that name no face: -1 is no alias of the last face, which is the
    # witness here, one past the last face is refused, not an IndexError, and
    # 1.0 and True equal the witness id 1 but are not ints
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    result = obs_upper_bound(path, 5, seed=1)
    n_faces = len(build_arrangement(Scene(result.points), path).faces)
    assert result.faces == (n_faces - 1,) == (1,) and replay_witness(path, result)
    for fid in (-1, n_faces, 1.0, True):
        assert not replay_witness(path, ObsResult(result.points, (fid,), True))
    # a complete graph's witness must carry no faces at all
    full = obs_upper_bound(complete_graph(3), placements=1, seed=0)
    assert not replay_witness(complete_graph(3), ObsResult(full.points, (0,), True))


def test_obs_upper_bound_validation():
    with pytest.raises(ObsrepError):
        obs_upper_bound(cycle_graph(4), placements=0, seed=1)
    with pytest.raises(ObsrepError):
        obs_upper_bound(cycle_graph(4), placements=1, grid=15, seed=1)  # < n*n


# --- deletion chains ---


def test_chain_from_complete_to_empty():
    record = edge_deletion_chain(Graph(4), seed=11)
    assert len(record.steps) == 7  # K4 plus six deletions
    assert record.steps[0].deleted is None
    assert [s.deleted for s in record.steps[1:]] == Graph(4).non_edges()
    assert record.steps[0].result.upper_bound == 0
    bounds = [s.result.upper_bound for s in record.steps]
    assert all(b2 - b1 <= 1 for b1, b2 in zip(bounds, bounds[1:]))
    assert bounds[-1] == 1  # the empty graph ends certified at one
    assert record.steps[-1].result.certified_exact
    # first_reached pairs each bound with the first step index attaining it
    assert dict(record.first_reached)[0] == 0


def test_chain_deletion_orders():
    lex = edge_deletion_chain(cycle_graph(4), seed=5, order="lex")
    assert [s.deleted for s in lex.steps] == [None, (0, 2), (1, 3)]
    rnd1 = edge_deletion_chain(cycle_graph(4), seed=5, order="random")
    rnd2 = edge_deletion_chain(cycle_graph(4), seed=5, order="random")
    assert rnd1 == rnd2
    assert {s.deleted for s in rnd1.steps} == {None, (0, 2), (1, 3)}


def test_chain_validation():
    with pytest.raises(ObsrepError):
        edge_deletion_chain(Graph(4), seed=1, order="sorted")


# --- x-sorted group partition ---


def test_suggested_group_size_values():
    assert suggested_group_size(1) == 1
    assert suggested_group_size(2) == 5
    assert suggested_group_size(3) == 7
    assert suggested_group_size(10) == 16
    with pytest.raises(ObsrepError):
        suggested_group_size(0)


def test_suggested_group_size_formula():
    # floor(5 * log2(n)), verified by exact powers
    for n in range(2, 200):
        v = suggested_group_size(n)
        assert 2**v <= n**5 < 2 ** (v + 1)


def test_partition_flags_hexagon_scene(hexagon_scene):
    report = partition_lemma_check(hexagon_scene, 1)
    # single-vertex hulls cannot trap the hexagon, so every group is flagged
    assert report.full_groups == 3
    assert report.flagged == 3
    assert report.flags == (True, True, True)
    assert report.identity_holds
    assert report.hypothesis_holds  # 1 obstacle < 3/2
    assert report.conclusion_holds  # 3 > 3 - 3/2


def test_partition_spots_a_trapped_obstacle():
    scene = Scene(QUAD, (poly((5, 4), (6, 4), (5, 5)),))
    report = partition_lemma_check(scene, 4)
    assert report.full_groups == 1
    assert report.flags == (False,)
    assert report.flagged == 0
    assert report.identity_holds  # 0 >= 1 - 1
    assert not report.hypothesis_holds  # 1 obstacle is not < 4/8
    assert not report.conclusion_holds


def test_partition_hypothesis_and_conclusion_fail_at_their_bounds():
    # n = 4: m < n/(2k) and flagged > full - n/(2k) are strict, so equality
    # fails; each case has 2km = 4 = n and 2k·flagged = 4 = 2k·full - n
    points = pts((0, 0), (1, 5), (2, 1), (3, 7))
    for k, sets, flagged in [(1, [((0, 0),), ((1, 5),)], 2), (2, [((0, 0),)], 1)]:
        report = _partition_report(points, k, sets)
        assert report.flagged == flagged
        assert not report.hypothesis_holds and not report.conclusion_holds
    report = _partition_report(points, 1, [((0, 0),)])  # 2 < 4 and 6 > 4
    assert report.flagged == 3 and report.hypothesis_holds and report.conclusion_holds


def test_partition_builds_one_hull_per_full_group(monkeypatch):
    hulls = []
    monkeypatch.setattr(search, "convex_hull", lambda group: hulls.append(group) or group)
    points = pts((0, 0), (3, 5), (7, 1), (12, 6), (20, 2), (25, 9), (30, 4))
    sets = [((1, 1),), ((40, 40),), None, ((3, 5), (7, 1))]
    report = _partition_report(points, 2, sets)
    assert report.full_groups == 3 and len(hulls) == 3


def test_partition_ignores_the_partial_group():
    scene = Scene(pts((0, 0), (3, 5), (7, 1), (12, 6), (20, 2)))
    report = partition_lemma_check(scene, 2)
    assert report.full_groups == 2
    assert len(report.groups) == 2
    flat = [i for group in report.groups for i in group]
    assert len(flat) == 4  # the fifth (rightmost) vertex is left out


def test_partition_validation(hexagon_scene):
    with pytest.raises(ObsrepError):
        partition_lemma_check(hexagon_scene, 0)
    shared_x = Scene(pts((0, 0), (0, 5), (3, 1)))
    with pytest.raises(ObsrepError):
        partition_lemma_check(shared_x, 1)


def test_partition_flags_match_the_hull_oracle():
    """Groups on a small grid, often collinear, against obstacles made of group
    points, points on or beyond the segments between them, rational points and
    the corners of real drawing faces (crossings have Fraction coordinates)."""
    rng = random.Random(5150)
    seen = {"collinear group": 0, "trapped": 0, "free": 0, "fraction corner": 0}
    for trial in range(1500):
        n = rng.randint(3, 9)
        if trial % 2:
            slope, level = rng.choice(((0, 3), (1, 0), (2, -5), (-1, 12)))
            xs = rng.sample(range(16), n)
            points = [Point(x, slope * x + level + rng.choice((0, 0, 0, 0, 0, 1, -1))) for x in xs]
            sets = []
            for _ in range(rng.randint(1, 3)):
                corners = []
                for _ in range(rng.randint(1, 4)):
                    a, b = rng.sample(points, 2)
                    t = Fraction(rng.randint(-2, 6), 4) + rng.choice((0, 0, Fraction(1, 7)))
                    corners.append((a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
                sets.append(None if rng.random() < 0.05 else tuple(corners))
        else:
            points = random_placement(rng, n, 20)
            fs = build_arrangement(Scene(points), gnp_half(n, rng))
            bounded = fs.faces[:-1]
            sets = [tuple(oracles.xy(fs.nodes[i]) for c in f for i in c) for f in bounded[:3]]
            sets.append(None)
        report = _partition_report(tuple(points), rng.randint(1, 4), sets)
        for group, flag in zip(report.groups, report.flags):
            gp = [points[i] for i in group]
            trapped = any(v is not None and oracles.hull_contains_all(gp, v) for v in sets)
            assert flag == (not trapped), (gp, sets)
            seen["trapped" if trapped else "free"] += 1
            seen["collinear group"] += len(gp) > 2 and all(orient(*gp[:2], p) == 0 for p in gp)
            seen["fraction corner"] += any(
                c.denominator > 1 for v in sets if v is not None for p in v for c in p
            )
    assert min(seen.values()) >= 100, seen


def test_partition_over_witness_faces():
    g = cycle_graph(4)
    # the bounded quadrilateral face is inside the hull of all four vertices
    whole = partition_faces_check(QUAD, g, faces=(0,), k=4)
    assert whole.flags == (False,)
    # split into two x-groups: each hull is a segment trapping nothing
    halves = partition_faces_check(QUAD, g, faces=(0,), k=2)
    assert halves.full_groups == 2
    assert halves.flags == (True, True)


def test_unbounded_witness_face_spoils_nothing():
    g = Graph(4)
    result = obs_upper_bound(g, placements=5, seed=2)
    report = partition_faces_check(result.points, g, result.faces, k=2)
    assert report.obstacle_count == 1
    assert report.flagged == report.full_groups


def test_partition_identity_on_search_witnesses():
    rng = random.Random(314)
    for g in (Graph(5), cycle_graph(5), complete_graph(5).without_edge(1, 3)):
        result = obs_upper_bound(g, placements=25, seed=rng.randrange(2**32))
        for k in (1, 2, 3):
            report = partition_faces_check(result.points, g, result.faces, k)
            assert report.identity_holds
            assert report.flagged >= report.full_groups - report.obstacle_count


# --- the random-graph experiment ---


def test_experiment_is_deterministic():
    a = random_graph_experiment(5, trials=6, seed=99, placements=8)
    b = random_graph_experiment(5, trials=6, seed=99, placements=8)
    assert a == b
    assert a.mode == "sampled"
    assert a.examined == 6
    assert 0 <= a.certified <= 6
    assert a.fraction_certified == Fraction(a.certified, 6)


def test_exhaustive_experiment_covers_all_graphs():
    report = random_graph_experiment(3, trials=1, seed=4, exhaustive=True)
    assert report.mode == "exhaustive"
    assert report.examined == 8  # 2 ** C(3,2)
    assert report.fraction_certified == 1


def test_experiment_validation():
    with pytest.raises(ObsrepError):
        random_graph_experiment(4, trials=0, seed=1)
