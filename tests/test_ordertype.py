import random
from itertools import combinations

import pytest

from obsrep.errors import ObsrepError, SceneError
from obsrep.geom import orient
from obsrep.ordertype import SceneSignature, scene_signature
from obsrep.sampling import random_placement, random_single_obstacle_scene
from obsrep.scene import Scene
from obsrep.visibility import visibility_details

from conftest import poly, pts
from support import (
    canonical_unlabeled,
    orientation,
    perturb_scene,
    same_labeled_order_type,
    scaled_scene,
    triples,
)


def test_chirotope_of_a_triangle():
    ot = scene_signature(Scene(pts((0, 0), (4, 0), (0, 4))))
    assert ot == SceneSignature(3, 3, (1,), ())  # a signature with no obstacles
    assert orientation(ot, 0, 1, 2) == 1


def test_chirotope_of_hexagon_scene_points(hexagon_scene):
    ot = scene_signature(Scene(hexagon_scene.points))
    assert orientation(ot, 0, 1, 2) == -1


def test_chirotope_matches_orient_on_random_config():
    rng = random.Random(61)
    points = random_placement(rng, 7, 60)
    ot = scene_signature(Scene(points))
    for i, j, k in combinations(range(7), 3):
        assert orientation(ot, i, j, k) == orient(points[i], points[j], points[k])


def test_orientation_requires_increasing_triple():
    ot = scene_signature(Scene(pts((0, 0), (4, 0), (0, 4))))
    with pytest.raises(ObsrepError):
        orientation(ot, 1, 0, 2)
    with pytest.raises(ObsrepError):
        orientation(ot, 0, 1, 3)


def test_same_labeled_order_type():
    a = pts((0, 0), (4, 0), (0, 4), (5, 5))
    b = pts((0, 0), (9, 1), (1, 7), (11, 13))  # a mild deformation of a
    mirrored = pts((0, 0), (-4, 0), (0, 4), (-5, 5))
    assert same_labeled_order_type(a, b)
    assert not same_labeled_order_type(a, mirrored)
    with pytest.raises(ObsrepError):
        same_labeled_order_type(a, a[:3])


# --- scene signatures ---


def test_hexagon_scene_signature(hexagon_scene):
    sig = scene_signature(hexagon_scene)
    assert sig.n == 3
    assert sig.total == 9
    assert sig.ranges == ((3, 9),)
    assert len(sig.entries) == 84  # C(9,3)
    zeros = [t for t, s in triples(sig).items() if s == 0]
    assert zeros == [(0, 3, 6)]


def test_signature_lists_vertices_then_each_obstacles_corners():
    scene = Scene(
        pts((0, 0), (9, 1), (3, 12)),
        [poly((20, 0), (24, 0), (22, 3)), poly((-9, 5), (-6, 5), (-6, 8), (-9, 8))],
    )
    first, second = (ob.vertices for ob in scene.obstacles)

    def signs(seq):
        return tuple(orient(*(seq[i] for i in t)) for t in combinations(range(len(seq)), 3))

    sig = scene_signature(scene)
    assert sig.ranges == ((3, 6), (6, 10))
    assert sig.entries == signs([*scene.points, *first, *second])
    assert sig.entries != signs([*scene.points, *second, *first])


def test_signature_zeros_block_the_plain_chirotope(hexagon_scene):
    with pytest.raises(SceneError) as err:
        Scene([*hexagon_scene.points, *hexagon_scene.obstacles[0].vertices])
    assert "collinear triple: points[0], points[3], points[6]" in err.value.diagnostics


def test_scaling_preserves_the_signature(hexagon_scene):
    sig = scene_signature(hexagon_scene)
    scaled = scene_signature(scaled_scene(hexagon_scene, 5))
    assert scaled == sig
    with pytest.raises(ObsrepError):
        scaled_scene(hexagon_scene, 0)
    with pytest.raises(ObsrepError):
        scaled_scene(hexagon_scene, -3)


def test_perturbed_scenes_keep_signature_and_visibility():
    rng = random.Random(4801)
    for _ in range(25):
        scene = random_single_obstacle_scene(rng, rng.randint(2, 6))
        base, moved = perturb_scene(scene, rng)
        assert (base.points, base.obstacles) != (moved.points, moved.obstacles)  # something moved
        assert scene_signature(base) == scene_signature(moved)
        assert visibility_details(moved) == visibility_details(scene)


# --- unlabeled canonical form ---


def test_canonical_unlabeled_is_relabeling_invariant():
    rng = random.Random(17)
    for _ in range(10):
        points = list(random_placement(rng, 6, 50))
        reference = canonical_unlabeled(scene_signature(Scene(points)))
        shuffled = points[:]
        rng.shuffle(shuffled)
        assert canonical_unlabeled(scene_signature(Scene(shuffled))) == reference


def test_canonical_unlabeled_size_limit():
    rng = random.Random(18)
    with pytest.raises(ObsrepError):
        canonical_unlabeled(scene_signature(Scene(random_placement(rng, 9, 80))))
