import random
import tracemalloc
from itertools import combinations, permutations

import pytest

from obsrep.errors import (
    ContradictionError,
    GeometryError,
    ObsrepError,
    SceneError,
)
from obsrep.geom import Point, Polygon, convex_hull
from obsrep.graphs import Graph
from obsrep.sampling import iter_single_obstacle_scenes, random_single_obstacle_scene
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

import oracles
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
    empty = encode_tangent(Scene((), (poly((0, 0), (4, 0), (0, 4)),)))
    assert empty == TangentSequence(()) == TangentSequence(())
    assert hash(empty) == hash(TangentSequence(()))
    # one compare and one hash of a 4,000-event word stay linear in its length
    events = [(label, sign) for label in range(2000) for sign in (-1, 1)]
    random.Random(7).shuffle(events)
    word, turned = TangentSequence(events), TangentSequence(events[7:] + events[:7])
    tracemalloc.start()
    try:
        assert word == turned and hash(word) == hash(turned)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


@pytest.mark.parametrize(
    "events",
    [
        ((0.7, 1.2), (0.2, -1.9)),  # once truncated by int() to the word 1+1-
        (("1", 1), ("1", -1)),
        ((0, True), (0, -1)),
        ((False, 1), (False, -1)),
        ((0, 1, 0), (0, -1)),
        (5, 6),  # once a bare TypeError: an event that is not a sequence
        5,  # once a bare TypeError: events that are not a sequence
    ],
)
def test_sequence_refuses_events_that_are_not_pairs_of_plain_ints(events):
    with pytest.raises(ObsrepError, match="pair of plain ints"):
        TangentSequence(events)


def test_single_point_has_one_event_of_each_sign():
    square = poly((0, 0), (4, 0), (4, 4), (0, 4))
    seq = encode_tangent(Scene(pts((10, 1)), (square,)))
    assert sorted(sign for _, sign in seq.events) == [-1, 1]
    assert [label for label, _ in seq.events] == [0, 0]


# --- encoding preconditions ---


def test_encode_requires_convex_obstacle():
    dent = poly((0, 0), (6, 0), (6, 6), (3, 2), (0, 6))
    # (3, 0) is a straight corner: Polygon accepts it, but the obstacle is not strictly convex
    straight = poly((0, 0), (3, 0), (6, 0), (6, 6), (0, 6))
    for obstacle in (dent, straight):
        with pytest.raises(GeometryError, match="^tangent encoding needs a strictly convex obstacle$"):
            encode_tangent(Scene(pts((10, 1)), (obstacle,)))


def test_encode_refuses_an_index_that_names_no_obstacle(hexagon_scene):
    # a negative index would read from the end, and one past the end would
    # raise a bare IndexError
    for index in (-1, 1, 5, True, 0.0, "0"):
        with pytest.raises(ObsrepError, match="no obstacle at index"):
            encode_tangent(hexagon_scene, index)
    assert encode_tangent(hexagon_scene, 0) == encode_tangent(hexagon_scene)


def test_encode_rejects_tangent_through_two_corners():
    # the point is collinear with the square's left side, so one tangent
    # grazes two corners at once
    square = poly((0, 0), (4, 0), (4, 4), (0, 4))
    with pytest.raises(GeometryError, match="does not have two clean tangents"):
        encode_tangent(Scene(pts((0, 9)), (square,)))


def test_encode_rejects_two_points_on_one_tangent():
    # (5, 2) and (7, -2) lie on the line through corner (4, 4) that grazes the square
    square = poly((0, 0), (4, 0), (4, 4), (0, 4))
    with pytest.raises(GeometryError) as err:
        encode_tangent(Scene(pts((5, 2), (7, -2)), (square,)))
    assert str(err.value) == "points Point(5, 2) and Point(7, -2) share a tangent direction"


def test_encode_matches_the_corner_oracle_on_degenerate_scenes():
    """Small-grid scenes, where points often sit on an obstacle edge's line,
    get the oracle's events or its exact message.  The last point of each
    continues the line from a random corner through another point, so it
    often shares that point's tangent direction."""
    rng = random.Random(2626)
    seen = {"clean": 0, "two clean tangents": 0, "share a tangent direction": 0}
    while sum(seen.values()) < 600:
        hull = convex_hull([Point(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(5)])
        if len(hull) < 3:
            continue
        obstacle = Polygon(hull)
        points = [Point(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(rng.randint(2, 4))]
        p, w = rng.choice(points), rng.choice(hull)
        points.append(Point(2 * p.x - w.x, 2 * p.y - w.y))
        try:
            scene = Scene(points, (obstacle,))
        except SceneError:
            continue
        try:
            want = oracles.tangent_events(scene.points, obstacle.vertices)
        except ValueError as failure:
            with pytest.raises(GeometryError) as err:
                encode_tangent(scene)
            assert str(err.value) == str(failure)
            seen["two clean tangents" if "two clean" in str(failure) else "share a tangent direction"] += 1
        else:
            assert list(encode_tangent(scene).events) == want
            seen["clean"] += 1
    assert min(seen.values()) >= 100, seen


class _RecordingTable(PatternTable):
    """Logs what observe_scene records and what decode_visibility asks, in order."""

    def __init__(self):
        super().__init__()
        self.log = []

    def record(self, pattern, outcome, witness=None):
        self.log.append((witness[1], pattern))

    def outcome(self, pattern):
        self.log.append(pattern)
        return VISIBLE


def test_events_and_pair_patterns_match_the_oracles_on_sampled_scenes():
    """2,000 sampled scenes: the events equal the four-cross-product oracle's,
    every pair's pattern, from pair_pattern and decode_visibility alike,
    equals the one a rescan of the word finds, and observe_scene records the
    first pair of each (pattern, outcome), in pair order, with that pattern."""
    rng = random.Random(2121)
    pairs = 0
    for scene in iter_single_obstacle_scenes(rng, 2000):
        seq = encode_tangent(scene)
        assert list(seq.events) == oracles.tangent_events(scene.points, scene.obstacles[0].vertices)
        want = [
            ((i, j), oracles.rescanned_pair_pattern(seq.events, i, j))
            for i, j in combinations(range(scene.n), 2)
        ]
        for (i, j), pattern in want:
            assert pair_pattern(seq, i, j) == pair_pattern(seq, j, i) == pattern
        observed = _RecordingTable()
        observe_scene(observed, scene)
        visible = visibility_graph(scene)
        first = {}
        for (i, j), pattern in want:
            first.setdefault((pattern, (i, j) in visible.edges), (i, j))
        assert observed.log == [(pair, pattern) for (pattern, _), pair in first.items()]
        asked = _RecordingTable()
        decode_visibility(seq, asked)
        assert asked.log == [pattern for _, pattern in want]
        pairs += len(want)
    assert pairs >= 30000, pairs


# --- pair patterns ---


def test_pair_pattern_matches_a_rescan_on_every_word_of_three_labels():
    for events in permutations([(label, sign) for label in range(3) for sign in (1, -1)]):
        seq = TangentSequence(events)
        for i, j in combinations(range(3), 2):
            assert pair_pattern(seq, i, j) == oracles.rescanned_pair_pattern(events, i, j)


def test_hexagon_pair_patterns(hexagon_scene):
    seq = encode_tangent(hexagon_scene)
    assert pair_pattern(seq, 0, 1) == "q-p+q+p-"
    assert pair_pattern(seq, 0, 2) == "q-p-q+p+"
    assert pair_pattern(seq, 1, 2) == "q-p+p-q+"
    assert pair_pattern(seq, 1, 0) == pair_pattern(seq, 0, 1)


def test_pair_pattern_errors(hexagon_scene):
    seq = encode_tangent(hexagon_scene)
    with pytest.raises(ObsrepError) as err:
        pair_pattern(seq, 1, 1)
    assert str(err.value) == "a pair needs two distinct labels"
    for i, j in ((0, 7), (0, 3), (-1, 2), (3, -1)):
        with pytest.raises(ObsrepError) as err:
            pair_pattern(seq, i, j)
        assert str(err.value) == f"labels {i} and {j} do not both appear twice in the sequence"


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
    # blank and whitespace-only lines are skipped
    spaced = "\n \t\n" + table.serialize().replace("\n", "\n   \n", 2) + "\n\t"
    assert PatternTable.parse(spaced).serialize() == table.serialize()
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
    with pytest.raises(ObsrepError, match=r"pattern 'q-p\+p-q\+' was never observed"):
        PatternTable().outcome("q-p+p-q+")


# --- decoding ---


def test_decode_hexagon_word():
    g = decode_visibility(TangentSequence.parse("2+1-2-3+1+3-"), builtin_pattern_table())
    assert g == Graph(3, [(0, 1), (0, 2)])


def test_decode_unrealizable_word_fails():
    # q-q+p-p+ never arises from a real scene, so no table can know it
    with pytest.raises(ObsrepError, match="was never observed"):
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


def _first_witnesses(table):
    """Each known pattern's kept witness, read back from the contradiction that
    recording its other outcome raises (which leaves the table as it was)."""
    kept = {}
    for pattern, outcome in outcomes(table).items():
        with pytest.raises(ContradictionError) as err:
            table.record(pattern, BLOCKED if outcome == VISIBLE else VISIBLE, witness="probe")
        kept[pattern] = err.value.first_witness
    return kept


def _observe_both_ways(seeded, scene):
    """Run observe_scene and the one-record-per-pair oracle on copies of the
    ``seeded`` table; each side gives its table, or the contradiction it raised."""
    results = []
    for observe in (
        lambda table: observe_scene(table, scene),
        lambda table: oracles.record_every_pair(
            table, scene, encode_tangent(scene).events, visibility_graph(scene).edges
        ),
    ):
        table = PatternTable()
        for pattern, (outcome, witness) in seeded.items():
            table.record(pattern, outcome, witness=witness)
        try:
            observe(table)
        except ContradictionError as err:
            results.append((err.pattern, err.first_witness, err.second_witness))
        else:
            results.append((outcomes(table), _first_witnesses(table)))
    return results


def test_observe_scene_records_like_one_record_per_pair():
    """200 sampled scenes: observe_scene leaves the same table and kept
    witnesses as recording every pair in turn, and with some of the scene's
    patterns pre-seeded with the other outcome it raises the same
    contradiction (pattern, first witness, second witness)."""
    rng = random.Random(2525)
    for scene in iter_single_obstacle_scenes(rng, 200):
        fresh, oracle = _observe_both_ways({}, scene)
        assert fresh == oracle
        patterns = sorted(fresh[0].items())
        flipped = {
            pattern: (BLOCKED if outcome == VISIBLE else VISIBLE, ("seeded", pattern))
            for pattern, outcome in rng.sample(patterns, rng.randint(1, len(patterns)))
        }
        mine, oracle = _observe_both_ways(flipped, scene)
        assert mine == oracle
        pattern, first, (witness_scene, _) = mine
        assert first == ("seeded", pattern) and witness_scene is scene


def test_decode_matches_geometry_on_random_scenes():
    table = builtin_pattern_table()
    rng = random.Random(940)
    for _ in range(150):
        scene = random_single_obstacle_scene(rng, rng.randint(2, 8))
        seq = encode_tangent(scene)
        assert decode_visibility(seq, table) == visibility_graph(scene)
