import random

import pytest

from obsrep.errors import (
    ContradictionError,
    GeneralPositionError,
    GeometryError,
    ObsrepError,
    UnknownPatternError,
)
from obsrep.graphs import Graph
from obsrep.sampling import random_single_obstacle_scene
from obsrep.scene import Scene
from obsrep.tangent import (
    BLOCKED,
    VISIBLE,
    PatternTable,
    TangentSequence,
    builtin_pattern_table,
    decode_visibility,
    derive_pattern_table,
    encode_tangent,
    observe_scene,
    pair_pattern,
)
from obsrep.visibility import visibility_graph

from conftest import poly, pts
from support import outcomes, swap_roles


# --- the circular sequence type ---


def test_hexagon_scene_encodes_to_known_word(hexagon_scene):
    seq = encode_tangent(hexagon_scene)
    assert seq.serialize() == "2+1-2-3+1+3-"


def test_sequence_equality_is_circular():
    a = TangentSequence.parse("2+1-2-3+1+3-")
    b = TangentSequence.parse("1-2-3+1+3-2+")
    c = TangentSequence.parse("2+1-2-3+3-1+")
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert a != "2+1-2-3+1+3-"  # not equal to plain strings


def test_parse_round_trip():
    word = "2+1-2-3+1+3-"
    assert TangentSequence.parse(word).serialize() == word


def test_parse_rejects_garbage():
    for bad in ("", "2*1-", "x", "2+ 1-", "0+1-", "2++"):
        with pytest.raises(ObsrepError):
            TangentSequence.parse(bad)


def test_sequence_rejects_bad_events():
    with pytest.raises(ObsrepError):
        TangentSequence(((0, 1), (0, 2)))
    with pytest.raises(ObsrepError):
        TangentSequence(((-1, 1), (-1, -1)))
    # each label 1..n must occur once with + and once with -
    for bad in ("1+1+", "1-1-", "1+1-3+3-", "1+1-1+2-", "1+1-2+"):
        with pytest.raises(ObsrepError):
            TangentSequence.parse(bad)


def test_single_point_has_one_event_of_each_sign():
    square = poly((0, 0), (4, 0), (4, 4), (0, 4))
    seq = encode_tangent(Scene(pts((10, 1)), (square,)))
    assert sorted(sign for _, sign in seq.events) == [-1, 1]
    assert [label for label, _ in seq.events] == [0, 0]


# --- encoding preconditions ---


def test_encode_requires_convex_obstacle():
    dent = poly((0, 0), (6, 0), (6, 6), (3, 2), (0, 6))
    with pytest.raises(GeometryError):
        encode_tangent(Scene(pts((10, 1)), (dent,)))


def test_encode_rejects_tangent_through_two_corners():
    # the point is collinear with the square's left side, so one tangent
    # grazes two corners at once
    square = poly((0, 0), (4, 0), (4, 4), (0, 4))
    with pytest.raises(GeneralPositionError):
        encode_tangent(Scene(pts((0, 9)), (square,)))


# --- pair patterns ---


def test_hexagon_pair_patterns(hexagon_scene):
    seq = encode_tangent(hexagon_scene)
    assert pair_pattern(seq, 0, 1) == "q-p+q+p-"
    assert pair_pattern(seq, 0, 2) == "q-p-q+p+"
    assert pair_pattern(seq, 1, 2) == "q-p+p-q+"
    assert pair_pattern(seq, 1, 0) == pair_pattern(seq, 0, 1)


def test_pair_pattern_errors(hexagon_scene):
    seq = encode_tangent(hexagon_scene)
    with pytest.raises(ObsrepError):
        pair_pattern(seq, 1, 1)
    with pytest.raises(ObsrepError):
        pair_pattern(seq, 0, 7)


def test_swap_roles_is_an_involution():
    table = builtin_pattern_table()
    for pattern in outcomes(table):
        assert swap_roles(swap_roles(pattern)) == pattern
        # exchanging which point is called p and which q never changes the outcome
        assert table.outcome(swap_roles(pattern)) == table.outcome(pattern)


# --- the pattern table ---


def test_builtin_table_contents():
    table = builtin_pattern_table()
    assert outcomes(table) == {
        "q-p+p-q+": BLOCKED,
        "q-p+q+p-": VISIBLE,
        "q-p-p+q+": VISIBLE,
        "q-p-q+p+": VISIBLE,
        "q-q+p+p-": VISIBLE,
    }


def test_derived_table_matches_builtin():
    assert derive_pattern_table(120, 4242).serialize() == builtin_pattern_table().serialize()


def test_derive_rejects_empty_sample():
    with pytest.raises(ObsrepError):
        derive_pattern_table(0, 1)


def test_table_round_trip_and_parse_errors():
    table = builtin_pattern_table()
    assert PatternTable.parse(table.serialize()).serialize() == table.serialize()
    with pytest.raises(ObsrepError):
        PatternTable.parse("pattern q-p+p-q+ maybe")
    with pytest.raises(ObsrepError):
        PatternTable.parse("q-p+p-q+ blocked")


def test_contradiction_is_detected():
    table = PatternTable()
    table.record("q-p+p-q+", BLOCKED, witness="first")
    table.record("q-p+p-q+", BLOCKED, witness="again")  # consistent repeat is fine
    with pytest.raises(ContradictionError) as err:
        table.record("q-p+p-q+", VISIBLE, witness="second")
    assert err.value.pattern == "q-p+p-q+"
    assert err.value.first_witness == "first"
    assert err.value.second_witness == "second"


def test_unknown_pattern_raises():
    with pytest.raises(UnknownPatternError):
        PatternTable().outcome("q-p+p-q+")


# --- decoding ---


def test_decode_hexagon_word():
    g = decode_visibility(TangentSequence.parse("2+1-2-3+1+3-"), builtin_pattern_table())
    assert g == Graph.of(3, [(0, 1), (0, 2)])


def test_decode_unrealizable_word_fails():
    # q-q+p-p+ never arises from a real scene, so no table can know it
    with pytest.raises(UnknownPatternError):
        decode_visibility(TangentSequence.parse("2-2+1-1+"), builtin_pattern_table())


def test_decode_validates_labels():
    # a malformed word is refused before decode can see it
    table = builtin_pattern_table()
    with pytest.raises(ObsrepError):
        decode_visibility(TangentSequence.parse("1+1-3+3-"), table)  # gap: no label 2
    with pytest.raises(ObsrepError):
        decode_visibility(TangentSequence.parse("1+1-1+2-"), table)  # 1 thrice, 2 once


def test_observe_scene_collects_all_pairs(hexagon_scene):
    table = PatternTable()
    seq = observe_scene(table, hexagon_scene)
    assert seq.serialize() == "2+1-2-3+1+3-"
    assert set(outcomes(table)) == {"q-p+p-q+", "q-p+q+p-", "q-p-q+p+"}


def test_decode_matches_geometry_on_random_scenes():
    table = builtin_pattern_table()
    rng = random.Random(940)
    for _ in range(150):
        scene = random_single_obstacle_scene(rng, rng.randint(2, 8))
        seq = encode_tangent(scene)
        assert decode_visibility(seq, table) == visibility_graph(scene)
