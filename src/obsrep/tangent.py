"""Tangent-sweep encoding of single-convex-obstacle scenes.

An oriented line is kept tangent to the obstacle, obstacle on the line's
right, and rotated one full turn clockwise starting from direction +y.  Each
time the line sweeps over a scene point an event is recorded: the point's
label with sign ``+`` if the point lies strictly ahead of the tangency vertex
in the line's direction and ``-`` if strictly behind.  The resulting circular
sequence of 2n signed labels determines the visibility graph; the mapping
from per-pair event patterns to visible/blocked is derived empirically and
kept in a :class:`PatternTable`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations

from .errors import (
    ContradictionError,
    GeneralPositionError,
    GeometryError,
    ObsrepError,
    UnknownPatternError,
)
from .geom import direction_cmp
from .graphs import Graph
from .sampling import iter_single_obstacle_scenes
from .scene import Scene
from .visibility import visibility_graph

_SIGN_CHAR = {1: "+", -1: "-"}
_EVENT_RE = re.compile(r"([0-9]+)([+-])")


@dataclass(frozen=True, eq=False)
class TangentSequence:
    """A circular sequence of (label, sign) events; equality is up to rotation.

    A word on n labels holds each label 0..n-1 exactly once with sign +1 and
    once with -1; any other event list raises :class:`ObsrepError`.
    """

    events: tuple

    def __post_init__(self):
        events = tuple((int(l), int(s)) for l, s in self.events)
        object.__setattr__(self, "events", events)
        n = len(events) // 2
        if sorted(events) != [(label, sign) for label in range(n) for sign in (-1, 1)]:
            raise ObsrepError(
                "a tangent word must hold each of its labels 1..n once with + and once with -"
            )

    def _rotations(self):
        e = self.events
        return {e[i:] + e[:i] for i in range(len(e))}

    def __eq__(self, other):
        if not isinstance(other, TangentSequence):
            return NotImplemented
        return len(self.events) == len(other.events) and other.events in self._rotations()

    def __hash__(self):
        return hash(min(self._rotations()) if self.events else ())

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
    """
    obstacle = scene.obstacles[index]
    if not obstacle.is_convex():
        raise GeometryError("tangent encoding needs a strictly convex obstacle")
    pts = scene.points
    verts = obstacle.vertices
    k = len(verts)
    events = []
    for label, v in enumerate(pts):
        found = []
        for i, w in enumerate(verts):
            prev, nxt = verts[i - 1], verts[(i + 1) % k]
            for sign in (1, -1):
                d = (sign * (v.x - w.x), sign * (v.y - w.y))
                if (
                    d[0] * (prev.y - w.y) - d[1] * (prev.x - w.x) < 0
                    and d[0] * (nxt.y - w.y) - d[1] * (nxt.x - w.x) < 0
                ):
                    # Clockwise from +y is counterclockwise from +x once x and y swap.
                    found.append((label, sign, (d[1], d[0])))
        if len(found) != 2 or {s for _, s, _ in found} != {1, -1}:
            raise GeneralPositionError(
                f"point {v!r} does not have two clean tangents (collinear with obstacle vertices?)"
            )
        events.extend(found)
    events.sort(key=cmp_to_key(lambda e1, e2: direction_cmp(e1[2], e2[2])))
    for e1, e2 in zip(events, events[1:]):
        if direction_cmp(e1[2], e2[2]) == 0:
            raise GeneralPositionError(
                f"points {pts[e1[0]]!r} and {pts[e2[0]]!r} share a tangent direction"
            )
    return TangentSequence(tuple((label, sign) for label, sign, _ in events))


def pair_pattern(seq: TangentSequence, i: int, j: int) -> str:
    """Canonical 4-event pattern of the pair: rotate so (q,-) leads, p = min label.

    Example: ``q-p+p-q+``.
    """
    if i == j:
        raise ObsrepError("a pair needs two distinct labels")
    p, q = min(i, j), max(i, j)
    sub = [(label, sign) for label, sign in seq.events if label in (p, q)]
    if len(sub) != 4:
        raise ObsrepError(f"labels {i} and {j} do not both appear twice in the sequence")
    start = sub.index((q, -1))
    sub = sub[start:] + sub[:start]
    return "".join(("p" if label == p else "q") + _SIGN_CHAR[sign] for label, sign in sub)


VISIBLE = "visible"
BLOCKED = "blocked"


class PatternTable:
    """Single-valued map from canonical pair patterns to visible/blocked."""

    def __init__(self):
        self._outcomes = {}
        self._witnesses = {}

    def record(self, pattern: str, outcome: str, witness=None) -> None:
        if outcome not in (VISIBLE, BLOCKED):
            raise ObsrepError(f"unknown outcome {outcome!r}")
        known = self._outcomes.get(pattern)
        if known is None:
            self._outcomes[pattern] = outcome
            self._witnesses[pattern] = witness
        elif known != outcome:
            raise ContradictionError(pattern, self._witnesses[pattern], witness)

    def outcome(self, pattern: str) -> str:
        try:
            return self._outcomes[pattern]
        except KeyError:
            raise UnknownPatternError(f"pattern {pattern!r} was never observed") from None

    def serialize(self) -> str:
        return "".join(f"pattern {p} {o}\n" for p, o in sorted(self._outcomes.items()))

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
    """Record every pair of the scene in the table; returns the scene's sequence."""
    seq = encode_tangent(scene)
    actual = visibility_graph(scene)
    for i, j in combinations(range(scene.n), 2):
        outcome = VISIBLE if actual.has_edge(i, j) else BLOCKED
        table.record(pair_pattern(seq, i, j), outcome, witness=(scene, (i, j)))
    return seq


def derive_pattern_table(sample_count: int, rng_seed: int) -> PatternTable:
    """Build the decoding table from random single-obstacle scenes.

    Encodes each scene, computes ground-truth visibility geometrically, and
    records every pair; a contradiction (same pattern, both outcomes) raises
    :class:`ContradictionError` carrying both witness scenes.
    """
    import random

    if sample_count < 1:
        raise ObsrepError("sample_count must be >= 1")
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
    n = len(seq.events) // 2
    edges = [
        (i, j)
        for i, j in combinations(range(n), 2)
        if table.outcome(pair_pattern(seq, i, j)) == VISIBLE
    ]
    return Graph.of(n, edges)
