"""Tangent-sweep encoding of single-convex-obstacle scenes.

An oriented line is kept tangent to the obstacle, obstacle on the line's
right, and rotated one full turn clockwise starting from direction +y.  Each
time the line sweeps over a scene point an event is recorded: the point's
label with sign ``+`` if the point lies strictly ahead of the tangency vertex
in the line's direction and ``-`` if strictly behind.  The resulting circular
sequence of 2n signed labels determines the visibility graph; the mapping
from per-pair event patterns to visible/blocked is derived empirically and
kept in a :class:`PatternTable`.

Encoding walks each point once around the obstacle, one cross product per
edge, and logs an event at each corner where the sign changes; a sort by an
exact integer key per event (:func:`~obsrep.geom.direction_key`) orders them.
Observing or decoding a word indexes each label's two events once and reads
every pair's pattern from that index in O(1): O(n^2) for its C(n, 2) pairs.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .errors import ContradictionError, GeometryError, ObsrepError, _count
from .geom import _assume_valid, direction_key
from .graphs import Graph
from .sampling import iter_single_obstacle_scenes
from .scene import Scene
from .visibility import visibility_details

_SIGN_CHAR = {1: "+", -1: "-"}
_EVENT_RE = re.compile(r"([0-9]+)([+-])")


@dataclass(frozen=True, eq=False)
class TangentSequence:
    """A circular sequence of (label, sign) events; equality is up to rotation.

    A word on n labels holds each label 0..n-1 exactly once with sign +1 and
    once with -1; any other event list raises :class:`ObsrepError`.  Equality
    and hash read the one rotation that starts at label 1's ``-`` event, O(n).
    """

    events: tuple

    def __post_init__(self):
        try:
            events = tuple(map(tuple, self.events))
            plain = all(len(e) == 2 and type(e[0]) is type(e[1]) is int for e in events)
        except TypeError:  # not a sequence of sequences
            plain = False
        if not plain:
            raise ObsrepError("a tangent event must be a (label, sign) pair of plain ints")
        object.__setattr__(self, "events", events)
        n = len(events) // 2
        if sorted(events) != [(label, sign) for label in range(n) for sign in (-1, 1)]:
            raise ObsrepError(
                "a tangent word must hold each of its labels 1..n once with + and once with -"
            )

    def _anchored(self):
        i = self.events.index((0, -1)) if self.events else 0
        return self.events[i:] + self.events[:i]

    def __eq__(self, other):
        if not isinstance(other, TangentSequence):
            return NotImplemented
        return self._anchored() == other._anchored()

    def __hash__(self):
        return hash(self._anchored())

    def serialize(self) -> str:
        """ASCII form with 1-based labels, e.g. ``2+1-2-3+1+3-``."""
        return "".join(f"{label + 1}{_SIGN_CHAR[sign]}" for label, sign in self.events)

    @staticmethod
    def parse(text: str) -> "TangentSequence":
        text = text.strip()
        events = []
        pos = 0
        for m in _EVENT_RE.finditer(text):
            if m.start() != pos:
                break
            digits = m.group(1).lstrip("0")
            # A word on n labels is at least 4n characters long, so a label with more
            # digits than the word's length has is never valid; int() never sees one.
            if len(digits) > len(str(len(text))):
                raise ObsrepError("a tangent label is larger than the word is long")
            events.append((int(digits or "0") - 1, 1 if m.group(2) == "+" else -1))
            pos = m.end()
        if pos != len(text) or not events:
            # Echo 20 characters at most, so that a long word still gives a short error.
            raise ObsrepError(
                f"cannot parse tangent sequence at character {pos + 1}: {text[pos:pos + 20]!r}"
            )
        return TangentSequence(tuple(events))


def encode_tangent(scene: Scene, index: int = 0) -> TangentSequence:
    """Sweep a tangent line clockwise around the scene's obstacle ``index`` and log events.

    The obstacle must be strictly convex, and no scene point may share a
    tangent line with another or lie on a line through two obstacle
    vertices (violations raise).

    For a point p, side i is the cross product (v[i+1] - v[i]) x (p - v[i])
    of obstacle edge i, computed in the loop that reads it.  Corner i touches
    p's ``+`` tangent when side i-1 < 0 < side i and its ``-`` tangent when
    side i < 0 < side i-1; a point on an edge's line gets a zero side and
    misses a tangent.  So each point costs one cross product per edge.

    The events are then sorted by :func:`~obsrep.geom.direction_key`, one
    exact integer key each, with ``scale`` one more than the largest squared
    x-offset between a point and a corner; two events with equal keys share
    a tangent direction.
    """
    if type(index) is not int or not 0 <= index < len(scene.obstacles):
        raise ObsrepError(f"no obstacle at index {index!r}; the scene has {len(scene.obstacles)}")
    obstacle = scene.obstacles[index]
    if not obstacle.is_convex():
        raise GeometryError("tangent encoding needs a strictly convex obstacle")
    pts = scene.points
    verts = obstacle.vertices
    edges = [(w.x, w.y, nxt.x - w.x, nxt.y - w.y) for w, nxt in zip(verts, verts[1:] + verts[:1])]
    lx, ly, lex, ley = edges[-1]
    events = []
    for label, v in enumerate(pts):
        px, py = v
        plus = minus = 0
        before = lex * (py - ly) - ley * (px - lx)
        for wx, wy, ex, ey in edges:
            after = ex * (py - wy) - ey * (px - wx)
            # Clockwise from +y is counterclockwise from +x once x and y swap.
            if before < 0 < after:
                events.append((label, 1, py - wy, px - wx))
                plus += 1
            elif after < 0 < before:
                events.append((label, -1, wy - py, wx - px))
                minus += 1
            before = after
        if plus != 1 or minus != 1:
            raise GeometryError(
                f"point {v!r} does not have two clean tangents (collinear with obstacle vertices?)"
            )
    scale = max((y * y for _, _, _, y in events), default=0) + 1
    keys = [direction_key(x, y, scale) for _, _, x, y in events]
    order = sorted(range(len(events)), key=keys.__getitem__)
    for a, b in zip(order, order[1:]):
        if keys[a] == keys[b]:
            raise GeometryError(
                f"points {pts[events[a][0]]!r} and {pts[events[b][0]]!r} share a tangent direction"
            )
    # The loop above gave each label exactly one + and one - event, each an int pair.
    return _assume_valid(TangentSequence, events=tuple([events[i][:2] for i in order]))


# A pair's pattern from the order in which q+, p- and p+ follow q-, keyed by
# (q+ before p-, q+ before p+, p- before p+); the other two keys cannot occur.
_PATTERN_BY_ORDER = {
    (True, True, True): "q-q+p-p+",
    (True, True, False): "q-q+p+p-",
    (False, True, True): "q-p-q+p+",
    (False, False, True): "q-p-p+q+",
    (True, False, False): "q-p+q+p-",
    (False, False, False): "q-p+p-q+",
}


def _pair_patterns(seq: TangentSequence):
    """``(p, q, pattern)`` for every pair of labels p < q, in order, read off one position index."""
    length = len(seq.events)
    n = length // 2
    minus, plus = [0] * n, [0] * n
    for position, (label, sign) in enumerate(seq.events):
        (plus if sign > 0 else minus)[label] = position
    # Each label's + offset in the word rotated to start at its own - event.
    plus_at = [(b - a) % length for a, b in zip(minus, plus)]
    for p, (p_minus, p_plus) in enumerate(zip(minus, plus)):
        for q in range(p + 1, n):
            # The offsets qp, pm and pp of q+, p- and p+ in the word rotated to start at q-.
            q_minus, qp = minus[q], plus_at[q]
            pm, pp = (p_minus - q_minus) % length, (p_plus - q_minus) % length
            yield p, q, _PATTERN_BY_ORDER[qp < pm, qp < pp, pm < pp]


def pair_pattern(seq: TangentSequence, i: int, j: int) -> str:
    """Canonical 4-event pattern of the pair: rotate so (q,-) leads, p = min label.

    Example: ``q-p+p-q+``.  This is the pair's entry of :func:`_pair_patterns`, the loop
    that observing and decoding read, so a call costs O(n^2): it is for tests.
    """
    if i == j:
        raise ObsrepError("a pair needs two distinct labels")
    p, q = min(i, j), max(i, j)
    if p < 0 or q >= len(seq.events) // 2:
        raise ObsrepError(f"labels {i} and {j} do not both appear twice in the sequence")
    return next(pattern for a, b, pattern in _pair_patterns(seq) if (a, b) == (p, q))


VISIBLE = "visible"
BLOCKED = "blocked"


class PatternTable:
    """Single-valued map from canonical pair patterns to (outcome, first witness)."""

    def __init__(self):
        self._records = {}

    def record(self, pattern: str, outcome: str, witness=None) -> None:
        if outcome not in (VISIBLE, BLOCKED):
            raise ObsrepError(f"unknown outcome {outcome!r}")
        known, first = self._records.setdefault(pattern, (outcome, witness))
        if known != outcome:
            raise ContradictionError(pattern, first, witness)

    def outcome(self, pattern: str) -> str:
        try:
            return self._records[pattern][0]
        except KeyError:
            raise ObsrepError(f"pattern {pattern!r} was never observed") from None

    def serialize(self) -> str:
        return "".join(f"pattern {p} {o}\n" for p, (o, _) in sorted(self._records.items()))

    @staticmethod
    def parse(text: str) -> "PatternTable":
        table = PatternTable()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] != "pattern":
                raise ObsrepError(f"bad pattern-table line {line!r}")
            table.record(parts[1], parts[2])
        return table


def observe_scene(table: PatternTable, scene: Scene) -> TangentSequence:
    """Record every pair of the scene in the table; returns the scene's sequence.

    Each distinct (pattern, outcome) is recorded once, with its first pair
    as witness and in the order of those first pairs.  A later pair with
    the same pattern and outcome would leave the table as it is, so the
    table, its witnesses and any :class:`ContradictionError` come out as
    if every pair were recorded in turn.
    """
    seq = encode_tangent(scene)
    blocked = visibility_details(scene)
    first = {}
    for i, j, pattern in _pair_patterns(seq):
        key = (pattern, (i, j) in blocked)
        if key not in first:
            first[key] = (i, j)
    for (pattern, is_blocked), pair in first.items():
        table.record(pattern, BLOCKED if is_blocked else VISIBLE, witness=(scene, pair))
    return seq


def derive_pattern_table(sample_count: int, rng_seed: int) -> PatternTable:
    """Build the decoding table from random single-obstacle scenes.

    Encodes each scene, computes ground-truth visibility geometrically, and
    records every pair; a contradiction (same pattern, both outcomes) raises
    :class:`ContradictionError` carrying both witness scenes.
    """
    _count(sample_count, 1, "sample_count")
    rng = random.Random(rng_seed)
    table = PatternTable()
    for scene in iter_single_obstacle_scenes(rng, sample_count):
        observe_scene(table, scene)
    return table


_BUILTIN_TABLE = """\
pattern q-p+p-q+ blocked
pattern q-p+q+p- visible
pattern q-p-p+q+ visible
pattern q-p-q+p+ visible
pattern q-q+p+p- visible
"""


def builtin_pattern_table() -> PatternTable:
    """The five realizable pair patterns with their outcomes.

    This is exactly what :func:`derive_pattern_table` settles on once the
    sample is rich enough; it is shipped so decoding does not have to re-run
    the derivation.
    """
    return PatternTable.parse(_BUILTIN_TABLE)


def decode_visibility(seq: TangentSequence, table: PatternTable) -> Graph:
    """Reconstruct the visibility graph of a sequence via the pattern table."""
    edges = [(i, j) for i, j, pattern in _pair_patterns(seq) if table.outcome(pattern) == VISIBLE]
    return Graph(len(seq.events) // 2, edges)
