"""Seeded inputs and output checks for the four benchmark workloads.

Every input is made here from the workload seed, with this file's own
generator, general-position test and document writer, so a change to the
library's samplers cannot change what the benchmark feeds the program.  The
program sees only the documents written to the work directory and the argv
of each op.

An op is one ``obsrep`` CLI call.  Each workload builds a fixed list of ops
(the list length does not depend on the run length or the machine) and
checks every op's exit code and stdout with arithmetic of its own.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

_MASK = (1 << 64) - 1

# The table ``derive-table`` must settle on: the five realizable pair
# patterns of a single convex obstacle with their outcomes.
FIVE_PATTERN_TABLE = (
    "pattern q-p+p-q+ blocked\n"
    "pattern q-p+q+p- visible\n"
    "pattern q-p-p+q+ visible\n"
    "pattern q-p-q+p+ visible\n"
    "pattern q-q+p+p- visible\n"
)


class Rng:
    """SplitMix64: a small generator whose stream is fixed by this file alone."""

    def __init__(self, seed: int, stream: int = 0):
        self.state = (seed * 0x9E3779B97F4A7C15 + stream * 0xD1B54A32D192ED03) & _MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection so there is no modulo bias."""
        limit = (1 << 64) - (1 << 64) % n
        while True:
            x = self.next64()
            if x < limit:
                return x % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


@dataclass
class Op:
    """One CLI call, plus what its output check needs to know."""

    argv: list
    kind: str
    expect: dict = field(default_factory=dict)


def _half_graph(rng: Rng, n: int, extra: int) -> list:
    """Uniform graph with exactly floor(C(n,2)/2) + extra edges (1-based pairs)."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    rng.shuffle(pairs)
    return sorted(pairs[: len(pairs) // 2 + extra])


def _general_position_points(rng: Rng, n: int, grid: int) -> list:
    """n distinct lattice points in [0, grid)^2 with no three on a line."""
    pts = []
    while len(pts) < n:
        q = (rng.below(grid), rng.below(grid))
        if q in pts:
            continue
        if any(
            (b[0] - a[0]) * (q[1] - a[1]) == (b[1] - a[1]) * (q[0] - a[0])
            for k, a in enumerate(pts)
            for b in pts[k + 1 :]
        ):
            continue
        pts.append(q)
    return pts


def _crossings(points: list, edges: list) -> int:
    """Pairs of edges without a shared end that cross (points in general position)."""

    def orient(a, b, c):
        d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (d > 0) - (d < 0)

    count = 0
    for k, (a, b) in enumerate(edges):
        for c, d in edges[k + 1 :]:
            if len({a, b, c, d}) < 4:
                continue
            pa, pb, pc, pd = (points[v - 1] for v in (a, b, c, d))
            if orient(pa, pb, pc) != orient(pa, pb, pd) and orient(pc, pd, pa) != orient(pc, pd, pb):
                count += 1
    return count


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    return str(path)


def _graph_doc(n: int, edges: list) -> dict:
    return {"n": n, "edges": [list(e) for e in edges]}


# --------------------------------------------------------------------------
# Op lists.  ``size`` holds the knobs; the defaults are the benchmark.

SIZES = {
    "search": {"graphs": 72, "n": 7, "placements": 2},
    "drawings": {"drawings": 24, "n": 8, "crossings": (6, 8, 10)},
    "codec": {"tables": 25, "budget": 200},
    "bounds": {"h": (9, 15), "rounds": 2, "s_queries": 10},
}


def search_ops(rng: Rng, workdir: Path, graphs: int, n: int, placements: int) -> list:
    ops = []
    for k in range(graphs):
        edges = _half_graph(rng, n, k % 2)
        path = _write(workdir / f"graph{k:03d}.json", _graph_doc(n, edges))
        seed = rng.below(1 << 32)
        argv = ["obs-search", path, "--seed", str(seed), "--placements", str(placements)]
        ops.append(Op(argv, "search", {"n": n, "edges": len(edges)}))
    return ops


def drawings_ops(rng: Rng, workdir: Path, drawings: int, n: int, crossings: tuple) -> list:
    # The cost of listing faces grows steeply with the number of edge
    # crossings, which varies from 2 to 27 between random 8-point drawings.
    # Each drawing is therefore drawn at random until it has the crossing
    # count its slot prescribes, so the seed changes the drawings but not
    # how complex the op list is.
    ops = []
    for k in range(drawings):
        while True:
            edges = _half_graph(rng, n, k % 2)
            points = _general_position_points(rng, n, 100 * n * n)
            if _crossings(points, edges) == crossings[k % len(crossings)]:
                break
        doc = {"points": [list(p) for p in points], "graph": _graph_doc(n, edges)}
        path = _write(workdir / f"drawing{k:03d}.json", doc)
        expect = {"n": n, "nonedges": n * (n - 1) // 2 - len(edges), "drawing": k}
        for kind in ("faces", "incidence", "cover"):
            ops.append(Op([kind, path], kind, dict(expect)))
    return ops


def codec_ops(rng: Rng, workdir: Path, tables: int, budget: int) -> list:
    return [
        Op(["derive-table", "--seed", str(rng.below(1 << 32)), "--budget", str(budget)], "codec")
        for _ in range(tables)
    ]


def bounds_ops(rng: Rng, workdir: Path, h: tuple, rounds: int, s_queries: int) -> list:
    # Every h in the range appears ``rounds`` times: the scan cost climbs
    # steeply with h, so drawing h at random would make the op list's cost
    # swing from seed to seed.  For the same reason the side-count queries
    # share one constant c, which sets their scan length more than s does.
    # The seed picks each query's s and orders the list.
    ops = [
        Op(["bounds", "--h", str(v)], "bounds-h", {"h": v})
        for v in range(h[0], h[1] + 1)
        for _ in range(rounds)
    ]
    c = Fraction(35, 2)
    for _ in range(s_queries):
        s = 55 + rng.below(16)
        ops.append(Op(["bounds", "--s", str(s), "--c", str(c)], "bounds-s", {"s": s, "c": str(c)}))
    rng.shuffle(ops)
    return ops


_BUILDERS = {
    "search": search_ops,
    "drawings": drawings_ops,
    "codec": codec_ops,
    "bounds": bounds_ops,
}
WORKLOADS = tuple(_BUILDERS)


def make_ops(workload: str, seed: int, workdir: Path, size: dict | None = None) -> list:
    """The workload's op list for ``seed``, writing its documents into workdir."""
    stream = WORKLOADS.index(workload) + 1
    return _BUILDERS[workload](Rng(seed, stream), workdir, **(size or SIZES[workload]))


# --------------------------------------------------------------------------
# Output checks.  Each returns None when the output is right, else a reason.


def _fields(stdout: str) -> dict:
    """First value of every ``key value...`` line, keyed by the first word."""
    out = {}
    for line in stdout.splitlines():
        key, _, rest = line.partition(" ")
        out.setdefault(key, rest)
    return out


def _face_ids(rest: str) -> list:
    return [int(t) for t in rest.split()]


def check_search(op: Op, stdout: str, context: dict):
    lines = stdout.splitlines()
    if not lines or lines[-1] != "replay ok":
        return "output does not end in 'replay ok'"
    f = _fields(stdout)
    if int(f["n"]) != op.expect["n"] or int(f["edges"]) != op.expect["edges"]:
        return "n or edge count differs from the input document"
    bound = int(f["upper-bound"])
    faces_line = next(line for line in lines if line == "faces" or line.startswith("faces "))
    faces = _face_ids(faces_line[len("faces") :])
    if bound != len(faces) or len(set(faces)) != len(faces):
        return f"upper-bound {bound} but {len(faces)} listed faces"
    if f["certified"] not in ("yes", "no") or (f["certified"] == "yes" and bound > 1):
        return f"certified {f['certified']!r} with upper-bound {bound}"
    if sum(1 for line in lines if line.startswith("point ")) != op.expect["n"]:
        return "witness point count differs from n"
    return None


def check_faces(op: Op, stdout: str, context: dict):
    f = _fields(stdout)
    v, e, nf, comps, euler = (int(f[k]) for k in ("nodes", "pieces", "faces", "components", "euler"))
    if euler != v - e + nf or euler != 1 + comps:
        return f"euler {euler} with V={v} E={e} F={nf} C={comps}"
    face_lines = [line.split() for line in stdout.splitlines() if line.startswith("face ")]
    if [int(t[1]) for t in face_lines] != list(range(1, nf + 1)):
        return "face lines are not numbered 1..faces"
    if sum(t[2] == "unbounded" for t in face_lines) != 1:
        return "not exactly one unbounded face"
    context[op.expect["drawing"]] = {"faces": nf}
    return None


def check_incidence(op: Op, stdout: str, context: dict):
    f = _fields(stdout)
    nf, m = int(f["faces"]), int(f["nonedges"])
    if m != op.expect["nonedges"]:
        return f"nonedges {m}, expected {op.expect['nonedges']}"
    through = []
    for line in stdout.splitlines():
        if line.startswith("nonedge "):
            _, rest = line.split(" faces", 1)
            ids = _face_ids(rest)
            if not ids or not all(1 <= i <= nf for i in ids):
                return f"bad face list in {line!r}"
            through.append(set(ids))
    if len(through) != m:
        return f"{len(through)} nonedge lines for {m} non-edges"
    seen = context.get(op.expect["drawing"])
    if seen is None or seen["faces"] != nf:
        return "face count differs from the faces op on the same drawing"
    seen["through"] = through
    return None


def check_cover(op: Op, stdout: str, context: dict):
    f = _fields(stdout)
    if int(f["nonedges"]) != op.expect["nonedges"]:
        return "nonedges differs from the input document"
    minimum = int(f["minimum"])
    faces = _face_ids(f["faces"]) if "faces" in f else []
    if minimum != len(faces) or len(set(faces)) != len(faces):
        return f"minimum {minimum} but {len(faces)} listed faces"
    through = context.get(op.expect["drawing"], {}).get("through")
    if through is None:
        return "no incidence output for the same drawing"
    if not all(set(faces) & ids for ids in through):
        return "the listed faces leave a non-edge uncovered"
    return None


def check_codec(op: Op, stdout: str, context: dict):
    return None if stdout == FIVE_PATTERN_TABLE else "derived table differs from the five-pattern table"


def _h_beaten(h: int, n: int) -> bool:
    # (2n)^(2hn) < 2^C(n,2)
    return pow(2 * n, 2 * h * n) < 1 << (n * (n - 1) // 2)


def _s_beaten(s: int, c: Fraction, n: int) -> bool:
    # (n+s)^(c(n+s)) < 2^C(n,2), raised to the denominator q of c = p/q
    m = n + s
    return pow(m, c.numerator * m) < 1 << (c.denominator * (n * (n - 1) // 2))


def _threshold_holds(beaten, n: int) -> bool:
    return n >= 2 and beaten(n) and (n == 2 or not beaten(n - 1))


def check_bounds_h(op: Op, stdout: str, context: dict):
    if not re.fullmatch(r"\d+\n", stdout):
        return f"unexpected output {stdout!r}"
    n, h = int(stdout), op.expect["h"]
    return None if _threshold_holds(lambda k: _h_beaten(h, k), n) else f"h={h}: {n} is not the threshold"


def check_bounds_s(op: Op, stdout: str, context: dict):
    s, c = op.expect["s"], Fraction(op.expect["c"])
    m = re.fullmatch(r"threshold (\d+) \(for the supplied constant c = (\S+)\)\n", stdout)
    if not m or Fraction(m.group(2)) != c:
        return f"unexpected output {stdout!r}"
    n = int(m.group(1))
    return None if _threshold_holds(lambda k: _s_beaten(s, c, k), n) else f"s={s} c={c}: {n} is not the threshold"


_CHECKS = {
    "search": check_search,
    "faces": check_faces,
    "incidence": check_incidence,
    "cover": check_cover,
    "codec": check_codec,
    "bounds-h": check_bounds_h,
    "bounds-s": check_bounds_s,
}


def check_outputs(ops: list, results: list) -> list:
    """Reason for each failed op (None where the op passed), in op order.

    ``results`` holds ``(exit_code, stdout)`` per op; an exit code of None
    means the call raised.  Ops of one drawing are checked together, in
    list order, so the cover check can use the incidence output.
    """
    context = {}
    reasons = []
    for op, (code, stdout) in zip(ops, results):
        if code != 0:
            reasons.append(f"exit code {code}")
            continue
        try:
            reasons.append(_CHECKS[op.kind](op, stdout, context))
        except (KeyError, ValueError, StopIteration) as e:
            reasons.append(f"malformed output ({type(e).__name__}: {e})")
    return reasons
