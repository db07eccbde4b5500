"""Searching for small obstacle counts.

For one placement of a graph's vertices, the fewest obstacles that realize
the graph equals the minimum number of faces of the drawing needed to cover
all non-edges; that is an exact set-cover problem.  Minimizing over many
seeded random placements yields honest upper bounds on the obstacle number,
certified exact only at 0 (complete graphs) and 1 (a found single-obstacle
representation of an incomplete graph).  The same machinery drives the
edge-deletion chains from complete graphs, the x-sorted group partition
check, and the random-graph experiment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import build_arrangement, face_nonedge_incidence
from .cover import solve_cover
from .errors import ObsrepError, _count
from .geom import convex_hull, point_in_polygon
from .graphs import Graph, all_graphs, complete_graph, gnp_half
from .sampling import _shuffle, random_placement
from .scene import Scene


def min_obstacles_for_placement(scene: Scene, g: Graph) -> tuple:
    """Minimum face cover of this placement of g's vertices, as face ids.

    Builds the drawing of g on the scene's points, intersects every absent
    edge with the faces, and solves the resulting cover exactly.  The tuple
    is the lexicographically smallest among all minimum covers, so its
    length is the fewest obstacles this placement allows.
    """
    return _placement_cover(scene, g)[0]


def _placement_cover(scene: Scene, g: Graph):
    """The placement's minimum cover and the incidence it was solved on."""
    fs = build_arrangement(scene, g)
    instance = face_nonedge_incidence(fs)
    sets = {}
    for k, faces in enumerate(instance.through):
        for fid in faces:
            sets.setdefault(fid, []).append(k)
    chosen = solve_cover(len(instance.nonedges), sets)
    return tuple(chosen), instance


@dataclass(frozen=True)
class ObsResult:
    """A placement plus the face ids standing in for obstacles."""

    points: tuple
    faces: tuple
    certified_exact: bool

    @property
    def upper_bound(self) -> int:
        return len(self.faces)


def replay_witness(g: Graph, result: ObsResult) -> bool:
    """Re-derive the minimum cover from scratch: the result must name as many
    faces, and every non-edge must pass through one of them.  A junk or
    repeated id then cannot pass, as fewer real faces would cover; an id
    that is not a plain int is refused outright."""
    if not all(type(fid) is int for fid in result.faces):
        return False
    cover, instance = _placement_cover(Scene(result.points), g)
    chosen = set(result.faces)
    return len(cover) == len(result.faces) and all(chosen & set(f) for f in instance.through)


def obs_upper_bound(
    g: Graph, placements: int, grid: int | None = None, seed: int = 0
) -> ObsResult:
    """Best (smallest) placement cover over seeded random placements.

    The placement stream depends only on (n, grid, seed), and sampling stops
    as soon as the bound hits the certifiable floor — 0 for complete graphs,
    1 otherwise — which can only lower the reported value.
    """
    _count(placements, 1, "placements")
    if grid is None:
        grid = 100 * g.n * g.n
    else:
        _count(grid, 1, "grid")
    if grid < g.n * g.n:
        raise ObsrepError(f"grid {grid} is too small for {g.n} points")
    floor = 0 if g.is_complete else 1
    rng = random.Random(seed)
    best: tuple | None = None
    for _ in range(placements):
        pts = random_placement(rng, g.n, grid)
        faces = min_obstacles_for_placement(Scene(pts), g)
        if best is None or len(faces) < len(best[1]):
            best = (pts, faces)
        if len(best[1]) <= floor:
            break
    pts, faces = best
    return ObsResult(
        points=pts, faces=faces, certified_exact=len(faces) == floor
    )


@dataclass(frozen=True)
class ChainStep:
    deleted: tuple | None
    result: ObsResult


@dataclass(frozen=True)
class ChainRecord:
    """Deletion path from the complete graph down to a target graph."""

    steps: tuple
    first_reached: tuple  # (bound value, index of the first step reaching it)


def edge_deletion_chain(
    target: Graph,
    seed: int,
    order: str = "lex",
    placements: int = 40,
    grid: int | None = None,
) -> ChainRecord:
    """Delete ``target``'s non-edges from its complete graph, bounding each stage.

    Every stage reuses the same placement seed, so consecutive stages examine
    identical placements (until an early exit) and the recorded bounds can
    climb by at most one per deletion.  ``order`` is "lex" or "random" (the
    deletion order is then shuffled with the same seed).
    """
    if order not in ("lex", "random"):
        raise ObsrepError(f"unknown deletion order {order!r}")
    missing = target.non_edges()
    if order == "random":
        _shuffle(random.Random(seed).getrandbits, missing)
    steps = []
    current = complete_graph(target.n)
    for edge in [None, *missing]:
        if edge is not None:
            current = current.without_edge(*edge)
        steps.append(ChainStep(edge, obs_upper_bound(current, placements, grid, seed)))
    seen = {}
    for i, s in enumerate(steps):
        seen.setdefault(s.result.upper_bound, i)
    return ChainRecord(
        steps=tuple(steps), first_reached=tuple(sorted(seen.items()))
    )


def suggested_group_size(n: int) -> int:
    """floor(5*log2(n)), clamped to >= 1 — a reasonable default group size.

    Computed exactly as the bit length of n**5; nothing here asserts the
    choice is optimal.
    """
    _count(n, 1, "n")
    return max(1, (n**5).bit_length() - 1)


@dataclass(frozen=True)
class PartitionReport:
    """X-sorted group partition bookkeeping for one representation.

    A group is flagged when no obstacle fits entirely inside the convex hull
    of its vertices.  Because distinct full groups occupy disjoint x-ranges,
    an obstacle can spoil at most one group, giving the unconditional count
    ``flagged >= full_groups - obstacle_count``; the stronger conclusion
    ``flagged > full_groups - n/(2k)`` is evaluated exactly and only
    meaningful when the obstacle count is below n/(2k).
    """

    k: int
    groups: tuple
    flags: tuple
    flagged: int
    full_groups: int
    obstacle_count: int
    identity_holds: bool
    hypothesis_holds: bool
    conclusion_holds: bool


def _partition_report(points, k, obstacle_vertex_sets) -> PartitionReport:
    _count(k, 1, "group size k")
    xs = [p.x for p in points]
    if len(set(xs)) != len(xs):
        raise ObsrepError("two vertices share an x-coordinate; cannot split by vertical lines")
    order = sorted(range(len(points)), key=lambda i: points[i].x)
    n = len(points)
    full = n // k
    groups = tuple(tuple(order[i * k : (i + 1) * k]) for i in range(full))
    flags = []
    for group in groups:
        hull = convex_hull([points[i] for i in group])
        spoiled = any(
            verts is not None and all(point_in_polygon(v, hull) >= 0 for v in verts)
            for verts in obstacle_vertex_sets
        )
        flags.append(not spoiled)
    flagged = sum(flags)
    m = len(obstacle_vertex_sets)
    return PartitionReport(
        k=k,
        groups=groups,
        flags=tuple(flags),
        flagged=flagged,
        full_groups=full,
        obstacle_count=m,
        identity_holds=flagged >= full - m,
        # m < n/(2k) and flagged > full - n/(2k), both multiplied by 2k
        hypothesis_holds=2 * k * m < n,
        conclusion_holds=2 * k * flagged > 2 * k * full - n,
    )


def partition_lemma_check(scene: Scene, k: int) -> PartitionReport:
    """Partition the scene's vertices by x into groups of k and flag the
    groups whose hulls trap no obstacle."""
    vertex_sets = [poly.vertices for poly in scene.obstacles]
    return _partition_report(scene.points, k, vertex_sets)


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome summary of an obstacle-number run over many graphs."""

    n: int
    mode: str
    examined: int
    certified: int

    @property
    def fraction_certified(self) -> Fraction:
        return Fraction(self.certified, self.examined)


def random_graph_experiment(
    n: int,
    trials: int,
    seed: int,
    placements: int = 40,
    grid: int | None = None,
    exhaustive: bool = False,
) -> ExperimentReport:
    """Fraction of edge-probability-½ graphs certified to need at most one obstacle.

    Exhaustive mode (n ≤ 5) walks all 2^C(n,2) labeled graphs instead of
    sampling.  Deterministic for a fixed seed: per-graph placement seeds are
    drawn from one master generator in graph order.
    """
    _count(trials, 1, "trials")
    _count(n, 0, "n")
    master = random.Random(seed)
    if exhaustive:
        graphs = list(all_graphs(n))
        mode = "exhaustive"
    else:
        graphs = [gnp_half(n, master) for _ in range(trials)]
        mode = "sampled"
    certified = 0
    for g in graphs:
        sub_seed = master.getrandbits(64)
        result = obs_upper_bound(g, placements, grid, sub_seed)
        if result.certified_exact:
            certified += 1
    return ExperimentReport(
        n=n,
        mode=mode,
        examined=len(graphs),
        certified=certified,
    )
