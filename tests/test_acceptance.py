"""Ten end-to-end checks, one per headline behavior of the package.

Each test prints a single PASS/FAIL line (outside the capture) so a full
run reads as a checklist; the assertions underneath carry the verdict.
The hexagon scene reappears throughout: three points (-2,0), (4,6),
(6,-5) around a hexagonal obstacle, where exactly the pairs 1-2 and 1-3
can see each other.
"""

import random
import time
from fractions import Fraction

import pytest

from obsrep.arrangement import build_arrangement
from obsrep.bounds import BoundsQuery, bounds_threshold
from obsrep.cli import main
from obsrep.cover import solve_cover
from obsrep.geom import Point, Polygon
from obsrep.graphs import Graph, all_graphs, complete_graph, cycle_graph
from obsrep.ordertype import scene_signature
from obsrep.sampling import (
    iter_single_obstacle_scenes,
    random_placement,
    random_single_obstacle_scene,
)
from obsrep.scene import Scene
from obsrep.search import (
    edge_deletion_chain,
    obs_upper_bound,
    random_graph_experiment,
    replay_witness,
)
from obsrep.tangent import (
    TangentSequence,
    builtin_pattern_table,
    decode_visibility,
    derive_pattern_table,
    encode_tangent,
)
from obsrep.visibility import visibility_details, visibility_graph

from oracles import solve_cover_first_hit
from support import partition_faces_check, perturb_scene


def _verdict(capsys, num, label, ok):
    with capsys.disabled():
        print(f"[{num:2d}/10] {'PASS' if ok else 'FAIL'}  {label}", flush=True)
    assert ok, label


def _hexagon_scene():
    points = (Point(-2, 0), Point(4, 6), Point(6, -5))
    hexagon = Polygon((
        Point(0, 0), Point(2, -2), Point(5, -2),
        Point(7, 0), Point(5, 2), Point(2, 2),
    ))
    return Scene(points, (hexagon,))


@pytest.fixture(scope="session")
def obstacle_witnesses():
    """Every (graph, search result) pair behind the obstacle-number checks.

    Built once: the certification assertions and the partition arithmetic
    both run over this exact corpus.
    """
    runs = []
    for n in range(2, 9):
        runs.append(("complete", complete_graph(n), obs_upper_bound(
            complete_graph(n), placements=2, seed=6)))
    for n in range(2, 7):
        runs.append(("empty", Graph(n), obs_upper_bound(
            Graph(n), placements=4, seed=2)))
    runs.append(("cycle", cycle_graph(4), obs_upper_bound(
        cycle_graph(4), placements=64, seed=7)))
    k4_minus_edge = complete_graph(4).without_edge(0, 1)
    runs.append(("near-complete", k4_minus_edge, obs_upper_bound(
        k4_minus_edge, placements=64, seed=0)))
    for n in (3, 4):
        for g in all_graphs(n):
            if not g.is_complete:
                runs.append(("incomplete", g, obs_upper_bound(
                    g, placements=16, seed=9)))
    return runs


def test_criterion_01_hexagon_scene_reproduction(capsys):
    scene = _hexagon_scene()
    started = time.perf_counter()
    word = encode_tangent(scene)
    graph, witnesses = visibility_details(scene)
    elapsed = time.perf_counter() - started
    ok = (
        word == TangentSequence.parse("2+1-2-3+1+3-")
        and graph == Graph(3, [(0, 1), (0, 2)])
        and set(witnesses) == {(1, 2)}
        and elapsed < 1.0
    )
    _verdict(capsys, 1, f"hexagon scene: word, edges, blocked pair ({elapsed:.3f}s)", ok)


def test_criterion_02_codec_agrees_with_geometry_on_10k_scenes(capsys):
    # deriving the table from scratch doubles as the single-valuedness
    # check: a pattern seen with both outcomes raises ContradictionError
    table = derive_pattern_table(800, 20260814)
    single_valued = table.serialize() == builtin_pattern_table().serialize()

    rng = random.Random(91)
    mismatches = 0
    examined = 0
    for scene in iter_single_obstacle_scenes(rng, 10000):
        word = encode_tangent(scene)
        if decode_visibility(word, table) != visibility_graph(scene):
            mismatches += 1
        examined += 1
    ok = single_valued and examined == 10000 and mismatches == 0
    _verdict(capsys, 2, f"codec == geometry on {examined} scenes, "
             f"{mismatches} mismatches, table single-valued", ok)


def test_criterion_03_equal_signatures_give_equal_visibility(capsys):
    rng = random.Random(402)
    mismatches = 0
    for _ in range(1000):
        scene = random_single_obstacle_scene(rng, rng.randrange(3, 9))
        base, moved = perturb_scene(scene, rng)
        if scene_signature(base) != scene_signature(moved):
            mismatches += 1
        elif visibility_graph(base) != visibility_graph(moved):
            mismatches += 1
    _verdict(capsys, 3, f"1000 signature-equal pairs, {mismatches} visibility mismatches",
             mismatches == 0)


def test_criterion_04_face_counts_and_euler_relation(capsys):
    # forced counts first
    triangle = random_placement(random.Random(1), 3, 20)
    k3 = build_arrangement(Scene(triangle), complete_graph(3))
    bare = build_arrangement(Scene(triangle), Graph(3))
    square = (Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10))
    k4 = build_arrangement(Scene(square), complete_graph(4))
    forced = (len(k3.faces), len(bare.faces), len(k4.faces)) == (2, 1, 5)

    # Euler on random connected drawings: spanning tree plus extra edges,
    # crossings already enter the counts as subdivision nodes
    rng = random.Random(1204)
    euler_failures = 0
    for _ in range(40):
        n = rng.randrange(3, 13)
        pts = random_placement(rng, n, 60)
        order = list(range(n))
        rng.shuffle(order)
        edges = [(order[i - 1], order[i]) for i in range(1, n)]
        for _ in range(n):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.append((a, b))
        fs = build_arrangement(Scene(pts), Graph(n, edges))
        if len(fs.nodes) - len(fs.pieces) + len(fs.faces) != 2:
            euler_failures += 1
    ok = forced and euler_failures == 0
    _verdict(capsys, 4, "face counts 2/1/5 forced, Euler V-E+F=2 on 40 drawings", ok)


def test_criterion_05_cover_solver_matches_exhaustive_enumeration(capsys):
    rng = random.Random(73)
    disagreements = 0
    for _ in range(500):
        n_elements = rng.randrange(0, 11)
        n_sets = rng.randrange(1, 12)
        sets = {}
        for sid in range(n_sets):
            sets[sid] = [e for e in range(n_elements) if rng.random() < 0.4]
        leftovers = set(range(n_elements)) - {e for s in sets.values() for e in s}
        if leftovers:
            sets[n_sets] = sorted(leftovers)  # keep every instance solvable
        if solve_cover(n_elements, sets) != solve_cover_first_hit(n_elements, sets):
            disagreements += 1
    _verdict(capsys, 5, f"500 cover instances, {disagreements} witness disagreements",
             disagreements == 0)


def test_criterion_06_obstacle_number_facts(capsys, obstacle_witnesses):
    problems = []
    for kind, g, result in obstacle_witnesses:
        if not replay_witness(g, result):
            problems.append(f"{kind} n={g.n}: witness replay failed")
        if kind == "complete":
            if (result.upper_bound, result.certified_exact) != (0, True):
                problems.append(f"complete n={g.n}: {result.upper_bound}")
        elif kind == "incomplete":
            if result.upper_bound < 1:
                problems.append(f"incomplete n={g.n} {g.edges}: bound 0")
        else:  # empty graphs, the 4-cycle, and K4 minus an edge: exactly one
            if (result.upper_bound, result.certified_exact) != (1, True):
                problems.append(f"{kind} n={g.n}: {result.upper_bound}, "
                                f"certified={result.certified_exact}")
    _verdict(capsys, 6, f"{len(obstacle_witnesses)} obstacle-number runs, "
             f"{len(problems)} problems", not problems)


def test_criterion_07_deletion_chains_climb_by_at_most_one(capsys):
    bad_chains = 0
    chains = 0
    for n in (4, 5):
        for order in ("lex", "random"):
            for seed in (0, 1, 2):
                record = edge_deletion_chain(Graph(n), seed, order, 40, None)
                bounds = [s.result.upper_bound for s in record.steps]
                steps_ok = all(b - a <= 1 for a, b in zip(bounds, bounds[1:]))
                hits_one = any(
                    s.result.certified_exact and s.result.upper_bound == 1
                    for s in record.steps
                )
                if not (bounds[0] == 0 and steps_ok and hits_one):
                    bad_chains += 1
                chains += 1
    _verdict(capsys, 7, f"{chains} deletion chains from complete graphs, "
             f"{bad_chains} violations", bad_chains == 0)


def test_criterion_08_partition_count_on_every_witness(capsys, obstacle_witnesses):
    violations = 0
    checks = 0
    for _, g, result in obstacle_witnesses:
        for k in (1, 2, 3):
            report = partition_faces_check(
                result.points, g, result.faces, k)
            if report.flagged < g.n // k - len(result.faces):
                violations += 1
            if not report.identity_holds:
                violations += 1
            checks += 1
    _verdict(capsys, 8, f"{checks} partition checks, {violations} count violations",
             violations == 0)


def test_criterion_09_counting_thresholds(capsys):
    rc = main(["bounds", "--h", "1"])
    cli_out = capsys.readouterr().out
    thresholds = [bounds_threshold(BoundsQuery(h=h)) for h in range(1, 11)]
    ok = (
        rc == 0
        and cli_out == "24\n"
        and thresholds == [24, 56, 92, 130, 170, 211, 253, 296, 340, 385]
        and all(a < b for a, b in zip(thresholds, thresholds[1:]))
    )
    _verdict(capsys, 9, "threshold 24 at h=1, strictly increasing through h=10", ok)


def test_criterion_10_experiment_runs_are_reproducible(capsys):
    sweep = random_graph_experiment(3, 1, 0, placements=32, exhaustive=True)
    exhaustive_ok = (
        sweep.examined == 8
        and sweep.certified == 8
        and sweep.fraction_certified == Fraction(1)
    )

    repeats_ok = True
    for n, trials in ((4, 30), (5, 20)):
        first = random_graph_experiment(n, trials, 505, placements=16)
        second = random_graph_experiment(n, trials, 505, placements=16)
        repeats_ok = repeats_ok and first == second

    argv = ["random-exp", "--n", "4", "--seed", "505", "--trials", "30",
            "--placements", "16"]
    main(argv)
    out1 = capsys.readouterr().out
    main(argv)
    out2 = capsys.readouterr().out

    ok = exhaustive_ok and repeats_ok and out1 == out2
    _verdict(capsys, 10, "n=3 sweep certifies 8/8, seeded reruns byte-identical", ok)
