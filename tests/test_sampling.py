import hashlib
import json
import random
from types import SimpleNamespace

import oracles
import pytest
from obsrep import sampling
from obsrep.errors import ObsrepError
from obsrep.geom import _on_a_line_through_two
from obsrep.sampling import (
    _below,
    _shuffle,
    iter_single_obstacle_scenes,
    random_convex_polygon,
    random_placement,
    random_single_obstacle_scene,
)

from conftest import poly


def _sha256(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_seeded_samplers_are_pinned():
    """The seeded samplers draw the same scenes and placements as before.

    ``derive-table`` prints the same five-pattern table whichever scenes it
    samples, so neither its golden nor the benchmark's output hash would
    notice a change in the rejection tests that alters the RNG calls.
    """
    scenes = [
        [[list(p) for p in scene.points], [[list(v) for v in o.vertices] for o in scene.obstacles]]
        for scene in iter_single_obstacle_scenes(random.Random(1), 200)
    ]
    assert _sha256(scenes) == "a0e051fb7d3638ea9d29f72ff56467776a9f8fe1e63c1259f9f3c5b70dd44045"
    rng = random.Random(3)
    placements = [[list(p) for p in random_placement(rng, 8, 64)] for _ in range(100)]
    assert _sha256(placements) == "d83ee1208ef8a98232420db9388847da7dae921e7065a785d26cedae07f1e248"
    # 32 points on the 102,400 grid: slope keys near their largest scale, grid**2
    large = [list(p) for p in random_placement(random.Random(5), 32, 102400)]
    assert _sha256(large) == "a6402193ee92ca497a728c96df2356b427addbee2a77b92c29596a525b32febe"


BOUNDS = (1, 2, 3, 4, 5, 9, 667, 2001, 2**16 - 1, 2**16, 2**16 + 1, 40000, 10**12)


def test_below_draws_what_randrange_draws():
    """``_below`` returns CPython's ``randrange(n)``, draw for draw, and leaves the same state.

    The bounds include n = 1, powers of two and their neighbours, and the
    widths the samplers use (4, 9, 667, 2001).  A CPython change to how
    ``randrange`` spends bits fails here first, not as a wall of golden diffs.
    """
    for seed in range(50):
        owned, stock = random.Random(seed), random.Random(seed)
        for n in BOUNDS:
            for _ in range(20):
                assert _below(owned.getrandbits, n) == stock.randrange(n), (seed, n)
        assert owned.getrandbits(64) == stock.getrandbits(64), seed


def test_shuffle_permutes_as_random_shuffle_does():
    for seed in range(20):
        owned, stock = random.Random(seed), random.Random(seed)
        for length in range(41):
            mine, theirs = list(range(length)), list(range(length))
            _shuffle(owned.getrandbits, mine)
            stock.shuffle(theirs)
            assert mine == theirs, (seed, length)
        assert owned.getrandbits(64) == stock.getrandbits(64), seed


def _smallest_factor(d):
    return next(f for f in range(2, d + 1) if d % f == 0)


def _line_cases(rng, lo, hi):
    """Seeded ``(pts, q)`` cases with every coordinate in ``[lo, hi]``, D = hi - lo.

    Random point sets; points on one line through q, on both sides of it;
    vertical lines; two points at |dx| = D on one line; and the closest two
    distinct slopes with |dx| <= D, which differ by 1 / (D * (D - 1)):
    1/D against 1/(D - 1), and (D - 1)/D against (D - 2)/(D - 1), mirrored
    into all four quadrants.
    """
    d = hi - lo
    cases = []
    for (ax, ay), (bx, by) in (((d, 1), (d - 1, 1)), ((d, d - 1), (d - 1, d - 2))):
        for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            q = (lo if sx > 0 else hi, lo if sy > 0 else hi)
            near = [(q[0] + sx * ax, q[1] + sy * ay), (q[0] + sx * bx, q[1] + sy * by)]
            cases.append((near, q))
            g = _smallest_factor(d)
            far = (q[0] + sx * d, q[1] + sy * g * rng.randrange(d // g + 1))
            step = ((far[0] - q[0]) // g, (far[1] - q[1]) // g)
            cases.append(([far, (q[0] + step[0], q[1] + step[1])], q))
    for _ in range(400):
        q = (rng.randint(lo, hi), rng.randint(lo, hi))
        pts = {(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(rng.randint(1, 8))}
        u, v = rng.randint(-5, 5), rng.randint(-5, 5)
        if (u, v) != (0, 0) and rng.randrange(2):
            for t in rng.sample(range(-20, 21), 3):
                p = (q[0] + t * u, q[1] + t * v)
                if t and lo <= p[0] <= hi and lo <= p[1] <= hi:
                    pts.add(p)
        if rng.randrange(4) == 0:
            pts |= {(q[0], rng.randint(lo, hi)) for _ in range(rng.randint(1, 2))}
        pts.discard(q)
        pts = sorted(pts)
        rng.shuffle(pts)
        cases.append((pts, q))
    return cases


def test_slope_key_agrees_with_the_gcd_oracle():
    """The scaled slope names the same lines as the reduced offset, at both scales in use.

    The scene sampler's box is [-1000, 1000]^2 with scale 2000**2 + 1, and
    ``random_placement`` keys a grid with scale grid**2; grids run up to
    100 * 32**2 = 102,400.  A coarse key (scale 1) fails the near-slope
    cases, so they do test the scale.
    """
    rng = random.Random(32)
    boxes = [(-1000, 1000, 2000**2 + 1)] + [
        (0, grid - 1, grid * grid) for grid in (8, 64, 4900, 10000, 40000, 102400)
    ]
    outcomes, coarse_misses = [], 0
    for lo, hi, scale in boxes:
        for pts, q in _line_cases(rng, lo, hi):
            want = oracles.gcd_collinear_with_any_pair(pts, q)
            assert _on_a_line_through_two(q, pts, scale) == want, (pts, q, scale)
            outcomes.append(want)
            coarse_misses += _on_a_line_through_two(q, pts, 1) != want
    assert outcomes.count(True) > 500 and outcomes.count(False) > 500
    assert coarse_misses > 0


def test_random_placement_gives_up_when_the_grid_has_no_room():
    # five points with distinct x-coordinates do not fit on a 2x2 grid
    with pytest.raises(ObsrepError, match="no general-position placement on a 2x2 grid"):
        random_placement(random.Random(0), 5, 2)


# A random source whose every draw is 0.
_ZEROS = SimpleNamespace(getrandbits=lambda k: 0)


def test_random_convex_polygon_gives_up_when_every_draw_repeats():
    # every corner drawn is (-333, -333), so each hull has one point
    with pytest.raises(ObsrepError, match="^could not sample a convex polygon$"):
        random_convex_polygon(_ZEROS)


def test_random_scene_gives_up_when_every_candidate_repeats(monkeypatch):
    # the first candidate (-1000, -1000) is taken, and every later one repeats it
    monkeypatch.setattr(sampling, "random_convex_polygon", lambda rng: poly((0, 0), (10, 0), (0, 10)))
    with pytest.raises(ObsrepError, match="^could not place scene points in general position$"):
        random_single_obstacle_scene(_ZEROS, 2)
