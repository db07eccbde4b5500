import json
import random
from pathlib import Path

import pytest

from obsrep.cover import solve_cover
from obsrep.errors import ObsrepError

from oracles import solve_cover_first_hit


def test_single_set_cover():
    assert solve_cover(3, {0: [0, 1, 2]}) == (0,)


def test_empty_universe_needs_nothing():
    assert solve_cover(0, {}) == ()
    assert solve_cover_first_hit(0, {4: [0]}) == ()


def test_uncoverable_element_raises():
    for n, sets, message in [
        (3, {0: [0], 1: [1]}, r"elements \[2\] appear in no set"),
        (2, {0: [0, 5]}, "set 0 names unknown element 5"),
        (0, {4: [0]}, "set 4 names unknown element 0"),
        # an element is a plain int: True would alias element 1
        (2, {0: [0], 1: [1.0]}, "set 1 names unknown element 1.0"),
        (2, {0: [0], 1: [True]}, "set 1 names unknown element True"),
        # a malformed map: not a mapping, a set that is no collection, ids that are not ints
        (3, [[0, 1, 2]], "sets must be a mapping of ids to elements, not a list"),
        (3, {0: 5}, "set 0 must be a collection of elements, not 5"),
        (2, {0: [0], "a": [1]}, "set ids must be plain ints, not 'a'"),
    ]:
        with pytest.raises(ObsrepError, match=message):
            solve_cover(n, sets)


def test_lexicographic_tie_break():
    # two disjoint optimal covers; {0, 2} beats {1, 3} lexicographically
    sets = {0: [0, 1], 1: [0, 2], 2: [2, 3], 3: [1, 3]}
    assert solve_cover(4, sets) == (0, 2)
    assert solve_cover_first_hit(4, sets) == (0, 2)


def test_greedy_trap():
    # the widest set belongs to no optimal cover: picking it forces size 3
    sets = {
        0: [1, 2, 3, 4],
        1: [0, 1, 2],
        2: [3, 4, 5],
    }
    assert solve_cover(6, sets) == (1, 2)
    assert solve_cover_first_hit(6, sets) == (1, 2)


def test_ids_need_not_be_dense():
    sets = {10: [0], 7: [1], 99: [0, 1]}
    assert solve_cover(2, sets) == (99,)


def test_duplicate_and_empty_sets_are_harmless():
    sets = {0: [], 1: [0, 1], 2: [0, 1]}
    assert solve_cover(2, sets) == (1,)


def test_branch_and_bound_matches_first_hit_enumeration():
    """500 random instances: same optimum size and the same witness tuple.

    Ids are sparse and inserted in shuffled order, and some sets copy or shrink
    an earlier one or are empty, so a cover that kept the later of two equal
    sets, or dropped a set no earlier id contains, would change the witness.
    """
    rng = random.Random(20240917)
    for _ in range(500):
        n = rng.randint(1, 9)
        drawn = []
        for _ in range(rng.randint(1, 9)):
            kind = rng.random()
            if drawn and kind < 0.2:
                drawn.append(list(rng.choice(drawn)))
            elif drawn and kind < 0.4:
                drawn.append([e for e in rng.choice(drawn) if rng.random() < 0.5])
            elif kind < 0.5:
                drawn.append([])
            else:
                drawn.append([e for e in range(n) if rng.random() < 0.45])
        # patch up coverage so the instance is always solvable
        covered = {e for members in drawn for e in members}
        drawn.append([e for e in range(n) if e not in covered])
        ids = rng.sample(range(100), len(drawn))
        sets = {ids[k]: drawn[k] for k in rng.sample(range(len(drawn)), len(drawn))}
        got = solve_cover(n, sets)
        want = solve_cover_first_hit(n, sets)
        assert got == want, sets
        assert len(got) == len(want)


def test_fifteen_hundred_candidates_stay_off_the_recursion_limit():
    # Recursion follows the cover size, not the number of candidate sets.
    rng = random.Random(7)
    sets = {sid: rng.sample(range(10), rng.randint(1, 2)) for sid in range(1497)}
    sets.update({1497: [0, 1, 2, 3], 1498: [4, 5, 6], 1499: [7, 8, 9]})
    assert solve_cover(10, sets) == (1497, 1498, 1499)


def test_seeded_twenty_vertex_drawing_keeps_its_witness():
    # The faces of G(20, 1/2) with rng = random.Random(1): gnp_half(20, rng),
    # random_placement(rng, 20, 40000), build_arrangement and
    # face_nonedge_incidence, inverted to the per-face form solve_cover takes:
    # "membership"[k] lists the indices of the non-edges through face k.
    instance = json.loads((Path(__file__).parent / "data" / "cover-g20.json").read_text())
    sets = dict(enumerate(instance["membership"]))
    assert (instance["n_elements"], len(sets)) == (83, 1359)
    assert solve_cover(instance["n_elements"], sets) == (
        60, 110, 125, 150, 153, 173, 489, 509, 556, 641, 697, 798, 867, 920, 1045, 1319, 1358,
    )


def test_seeded_twenty_vertex_drawing_seed_two_keeps_its_witness():
    # The same recipe with random.Random(2): a search about five times longer
    # than seed 1's; its size, 19, is the optimum in ROADMAP item 1's table.
    instance = json.loads((Path(__file__).parent / "data" / "cover-g20-seed2.json").read_text())
    sets = dict(enumerate(instance["membership"]))
    assert (instance["n_elements"], len(sets)) == (76, 1130)
    assert solve_cover(instance["n_elements"], sets) == (
        34, 70, 102, 185, 357, 430, 489, 516, 560, 638, 666, 681, 755, 782, 801, 874, 968, 999,
        1129,
    )
