import random
from itertools import combinations

import pytest

from obsrep.errors import ObsrepError, SceneError
from obsrep.geom import orient
from obsrep.ordertype import SceneSignature, chirotope, scene_signature
from obsrep.sampling import random_placement, random_single_obstacle_scene
from obsrep.scene import Scene
from obsrep.visibility import visibility_graph

from conftest import pts
from support import (
    canonical_unlabeled,
    orientation,
    perturb_scene,
    same_labeled_order_type,
    scaled_scene,
    triples,
)


def test_chirotope_of_a_triangle():
    ot = chirotope(Scene(pts((0, 0), (4, 0), (0, 4))))
    assert ot == SceneSignature(3, 3, (1,), ())  # a signature with no obstacles
    assert orientation(ot, 0, 1, 2) == 1


def test_chirotope_of_hexagon_scene_points(hexagon_scene):
    ot = chirotope(hexagon_scene)
    assert orientation(ot, 0, 1, 2) == -1


def test_chirotope_matches_orient_on_random_config():
    rng = random.Random(61)
    points = random_placement(rng, 7, 60)
    ot = chirotope(Scene(points))
    for i, j, k in combinations(range(7), 3):
        assert orientation(ot, i, j, k) == orient(points[i], points[j], points[k])


def test_orientation_requires_increasing_triple():
    ot = chirotope(Scene(pts((0, 0), (4, 0), (0, 4))))
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


def test_signature_zeros_block_the_plain_chirotope(hexagon_scene):
    with pytest.raises(SceneError) as err:
        Scene(hexagon_scene.all_points())
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
        assert base.all_points() != moved.all_points()  # something actually moved
        assert scene_signature(base) == scene_signature(moved)
        assert visibility_graph(moved) == visibility_graph(scene)


# --- unlabeled canonical form ---


def test_canonical_unlabeled_is_relabeling_invariant():
    rng = random.Random(17)
    for _ in range(10):
        points = list(random_placement(rng, 6, 50))
        reference = canonical_unlabeled(chirotope(Scene(points)))
        shuffled = points[:]
        rng.shuffle(shuffled)
        assert canonical_unlabeled(chirotope(Scene(shuffled))) == reference


def test_canonical_unlabeled_size_limit():
    rng = random.Random(18)
    with pytest.raises(ObsrepError):
        canonical_unlabeled(chirotope(Scene(random_placement(rng, 9, 80))))
