"""Command-line interface.

Every subcommand reads scene/graph documents (see :mod:`obsrep.sceneio`),
prints line-oriented key/value output with 1-based labels, and is
bit-reproducible for a fixed argv (stochastic subcommands require an
explicit ``--seed``).  Exit status: 0 on success, 1 on bad input or when
memory runs out, 2 when the package detects an internal contradiction (a
pattern observed with both outcomes, or a witness that fails to replay).
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from itertools import combinations

from .bounds import BoundsQuery, bounds_threshold
from .errors import ContradictionError, ObsrepError
from .ordertype import chirotope, scene_signature
from .arrangement import build_arrangement, face_nonedge_incidence
from .search import (
    edge_deletion_chain,
    min_obstacles_for_placement,
    obs_upper_bound,
    partition_lemma_check,
    random_graph_experiment,
    replay_witness,
    suggested_group_size,
)
from .sceneio import load_graph, load_scene
from .tangent import (
    PatternTable,
    TangentSequence,
    builtin_pattern_table,
    decode_visibility,
    derive_pattern_table,
    encode_tangent,
)
from .visibility import validate_representation, visibility_details

_SIGN = {1: "+", -1: "-", 0: "0"}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the package reserves 2 for
    internal contradictions, so usage problems are remapped to 1.  A value
    that starts with a minus sign and a digit, such as ``-1/2``, is read as a
    (negative) value, not as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?[0-9]")

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# Numbers on the command line are written in ASCII digits only: int() and
# Fraction() would also take other scripts' digits, underscores and spaces.
# A rational is p, p/q or a decimal with an exponent of at most four digits,
# so that parsing it never builds a huge power of ten.  No number, and no part
# of a rational, may pass int()'s default limit of 4,300 digits, which str()
# needs to print it back; the error does not echo it.
_MAX_DIGITS = 4300
_TOO_MANY_DIGITS = 10**_MAX_DIGITS  # the least int with more digits, built once, not per --c
_INTEGER = re.compile(r"[0-9]+")
_RATIONAL = re.compile(
    r"[-+]?(?:[0-9]+(?:/[0-9]+)?|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]{1,4})?)"
)


def _integer(text):
    if len(text) > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {_MAX_DIGITS} characters")
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}")
    return int(text)


def _seed(text):
    value = _integer(text)
    if value >= 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _fraction(text):
    if len(text) > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {_MAX_DIGITS} characters")
    try:
        value = Fraction(text) if _RATIONAL.fullmatch(text) else None
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    if max(abs(value.numerator), value.denominator) >= _TOO_MANY_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {_MAX_DIGITS} digits")
    return value


def _positive(text):
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _load_drawing(path):
    """A scene document used as a drawing: ``(scene, graph)``, no obstacles."""
    scene, graph = load_scene(path)
    if graph is None:
        raise ObsrepError('this subcommand needs a "graph" field in the document')
    if scene.obstacles:
        raise ObsrepError(
            "this subcommand works on a drawing (points + graph); remove the obstacles"
        )
    return scene, graph


def _pair(i, j, sep=" "):
    return f"{i + 1}{sep}{j + 1}"


def _labels(ids):
    """The 1-based labels of 0-based ids, each after a space."""
    return "".join(f" {i + 1}" for i in ids)


def cmd_visibility(args):
    scene, _ = load_scene(args.scene)
    graph, witnesses = visibility_details(scene)
    print(f"points {scene.n}")
    print(f"obstacles {len(scene.obstacles)}")
    for i, j in graph.sorted_edges():
        print(f"edge {_pair(i, j)}")
    for (i, j), blockers in sorted(witnesses.items()):
        print(f"blocked {_pair(i, j)} by{_labels(blockers)}")
    return 0


def cmd_validate(args):
    scene, graph = load_scene(args.scene)
    print("scene ok")
    if graph is not None:
        report = validate_representation(scene, graph)
        if not report.matches:
            # the report carries 0-based pairs; relabel for the CLI
            wrong = [f"pair {_pair(i, j, '-')} is in the graph but blocked in the scene"
                     for i, j in report.blocked_but_required]
            wrong += [f"pair {_pair(i, j, '-')} is visible in the scene but not in the graph"
                      for i, j in report.visible_but_excluded]
            raise ObsrepError("scene does not represent its graph: " + "; ".join(wrong))
        print("graph matches")
    return 0


def cmd_encode(args):
    scene, _ = load_scene(args.scene)
    if not 1 <= args.obstacle <= len(scene.obstacles):
        raise ObsrepError(
            f"no obstacle {args.obstacle}; the scene has {len(scene.obstacles)}"
        )
    seq = encode_tangent(scene, args.obstacle - 1)
    print(seq.serialize())
    return 0


def cmd_decode(args):
    if args.table is not None:
        with open(args.table, "r", encoding="utf-8") as fh:
            try:
                table = PatternTable.parse(fh.read())
            except UnicodeDecodeError as e:
                raise ObsrepError(f"pattern table is not UTF-8 text: {e}") from None
    else:
        table = builtin_pattern_table()
    seq = TangentSequence.parse(args.sequence)
    g = decode_visibility(seq, table)
    print(f"n {g.n}")
    for i, j in g.sorted_edges():
        print(f"edge {_pair(i, j)}")
    return 0


def cmd_derive_table(args):
    table = derive_pattern_table(args.budget, args.seed)
    sys.stdout.write(table.serialize())
    return 0


def cmd_ordertype(args):
    scene, _ = load_scene(args.scene)
    ot = chirotope(scene)
    print(f"points {ot.n}")
    for (i, j, k), sign in zip(combinations(range(ot.n), 3), ot.entries):
        print(f"triple{_labels((i, j, k))} {_SIGN[sign]}")
    return 0


def cmd_signature(args):
    scene, _ = load_scene(args.scene)
    sig = scene_signature(scene)
    print(f"points {sig.n}")
    print(f"total {sig.total}")
    for k, (lo, hi) in enumerate(sig.ranges):
        print(f"obstacle {k + 1} corners {lo + 1}..{hi}")
    print(f"triples {len(sig.entries)}")
    print(f"zeros {sig.entries.count(0)}")
    for (i, j, k), sign in zip(combinations(range(sig.total), 3), sig.entries):
        print(f"triple{_labels((i, j, k))} {_SIGN[sign]}")
    return 0


def cmd_faces(args):
    scene, graph = _load_drawing(args.scene)
    fs = build_arrangement(scene, graph)
    v, e, f = len(fs.nodes), len(fs.pieces), len(fs.faces)
    lines = [f"nodes {v}", f"pieces {e}", f"faces {f}", f"components {fs.components}",
             f"euler {v - e + f}"]
    # Every line is formatted before the first print, so a number that str()
    # refuses to write leaves an error line and no partial output.
    for fid, cycles in enumerate(fs.faces):
        area2, (rx, ry) = fs.area2(fid), fs.representative(fid)
        kind = "bounded" if area2 is not None else "unbounded"
        sides = sum(len(c) for c in cycles if len(c) > 1)
        try:
            tail = f" area2 {area2}" if area2 is not None else ""
            lines.append(f"face {fid + 1} {kind} sides {sides}{tail} representative {rx} {ry}")
        except ValueError:
            raise ObsrepError(f"face {fid + 1}: a number of over {_MAX_DIGITS} digits") from None
    print("\n".join(lines))
    return 0


def cmd_incidence(args):
    scene, graph = _load_drawing(args.scene)
    fs = build_arrangement(scene, graph)
    instance = face_nonedge_incidence(fs)
    print(f"faces {len(fs.faces)}")
    print(f"nonedges {len(instance.nonedges)}")
    for (i, j), faces in zip(instance.nonedges, instance.through):
        print(f"nonedge {_pair(i, j)} faces{_labels(faces)}")
    return 0


def cmd_cover(args):
    scene, graph = _load_drawing(args.scene)
    faces = min_obstacles_for_placement(scene, graph)
    print(f"nonedges {len(graph.non_edges())}")
    print(f"minimum {len(faces)}")
    print(f"faces{_labels(faces)}")
    return 0


def cmd_obs_search(args):
    g = load_graph(args.graph)
    result = obs_upper_bound(g, args.placements, seed=args.seed)
    print(f"n {g.n}")
    print(f"edges {len(g.edges)}")
    print(f"upper-bound {result.upper_bound}")
    print(f"certified {'yes' if result.certified_exact else 'no'}")
    for i, p in enumerate(result.points):
        print(f"point {i + 1} {p.x} {p.y}")
    print(f"faces{_labels(result.faces)}")
    if not replay_witness(g, result):
        print("contradiction: witness failed to replay", file=sys.stderr)
        return 2
    print("replay ok")
    return 0


def cmd_chain(args):
    target = load_graph(args.graph)
    record = edge_deletion_chain(target, args.seed, order=args.order, placements=args.placements)
    print(f"n {target.n}")
    print(f"steps {len(record.steps)}")
    for t, step in enumerate(record.steps):
        what = "full" if step.deleted is None else "delete " + _pair(*step.deleted, "-")
        sure = "yes" if step.result.certified_exact else "no"
        print(f"step {t} {what} bound {step.result.upper_bound} certified {sure}")
    for bound, t in record.first_reached:
        print(f"first {bound} step {t}")
    return 0


def cmd_partition_check(args):
    scene, _ = load_scene(args.scene)
    k = args.k if args.k is not None else suggested_group_size(scene.n)
    report = partition_lemma_check(scene, k)
    print(f"n {scene.n}")
    print(f"k {report.k}")
    print(f"full-groups {report.full_groups}")
    print(f"flagged {report.flagged}")
    print(f"obstacles {report.obstacle_count}")
    print(f"identity {'holds' if report.identity_holds else 'fails'}")
    print(f"hypothesis {'holds' if report.hypothesis_holds else 'fails'}")
    print(f"conclusion {'holds' if report.conclusion_holds else 'fails'}")
    for gi, (group, flag) in enumerate(zip(report.groups, report.flags)):
        print(f"group {gi + 1} vertices{_labels(group)} {'flagged' if flag else 'spoiled'}")
    return 0


def cmd_random_exp(args):
    report = random_graph_experiment(
        args.n, args.trials, args.seed, placements=args.placements, exhaustive=args.exhaustive
    )
    print(f"n {report.n}")
    print(f"mode {report.mode}")
    print(f"examined {report.examined}")
    print(f"certified {report.certified}")
    print(f"unresolved {report.examined - report.certified}")
    print(f"fraction {report.fraction_certified}")
    return 0


def cmd_bounds(args):
    query = BoundsQuery(h=args.h, s=args.s, c=args.c)
    if query.h is not None:
        print(bounds_threshold(query))
    else:
        print(f"threshold {bounds_threshold(query)} (for the supplied constant c = {query.c})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="obsrep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("visibility", cmd_visibility, "visibility graph of a scene")
    p.add_argument("scene", help="scene document (JSON)")

    p = add("validate", cmd_validate, "check a scene and its declared graph")
    p.add_argument("scene")

    p = add("encode", cmd_encode, "tangent sequence of a single-obstacle scene")
    p.add_argument("scene")
    p.add_argument("--obstacle", type=_positive, default=1, help="1-based obstacle index")

    p = add("decode", cmd_decode, "reconstruct a graph from a tangent sequence")
    p.add_argument("sequence", help="serialized sequence, e.g. 2+1-2-3+1+3-")
    p.add_argument("--table", help="pattern-table file (default: the builtin table)")

    p = add("derive-table", cmd_derive_table, "derive the pattern table from random scenes")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--budget", type=_positive, default=800, help="number of sample scenes")

    p = add("ordertype", cmd_ordertype, "orientation of every vertex triple")
    p.add_argument("scene")

    p = add("signature", cmd_signature, "orientation of every triple, obstacles included")
    p.add_argument("scene")

    p = add("faces", cmd_faces, "faces of the drawing (points + graph)")
    p.add_argument("scene")

    p = add("incidence", cmd_incidence, "which faces each non-edge passes through")
    p.add_argument("scene")

    p = add("cover", cmd_cover, "minimum face cover of the non-edges")
    p.add_argument("scene")

    p = add("obs-search", cmd_obs_search, "upper-bound the obstacle number of a graph")
    p.add_argument("graph", help="graph document, or a scene document with a graph")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--placements", type=_positive, default=64)

    p = add("chain", cmd_chain, "edge-deletion chain from the complete graph")
    p.add_argument("graph", help="target graph document")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--order", choices=("lex", "random"), default="lex")
    p.add_argument("--placements", type=_positive, default=40)

    p = add("partition-check", cmd_partition_check, "x-sorted group partition check")
    p.add_argument("scene")
    p.add_argument("--k", type=_positive, default=None,
                   help="group size (default: floor(5*log2(n)))")

    p = add("random-exp", cmd_random_exp, "certified fraction over random graphs")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--trials", type=_positive, default=50)
    p.add_argument("--placements", type=_positive, default=32)
    p.add_argument("--exhaustive", action="store_true",
                   help="walk every labeled graph instead of sampling (n <= 5)")

    p = add("bounds", cmd_bounds, "smallest n where the counting bound is beaten")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--h", type=_positive, help="obstacle-count mode")
    group.add_argument("--s", type=_positive, help="total-sides mode")
    p.add_argument("--c", type=_fraction, default=None,
                   help="positive rational constant for --s (default 1)")

    return parser


# Built on the first call of main and reused: parsing leaves no state in it.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ContradictionError as e:
        print(f"contradiction: {e}", file=sys.stderr)
        return 2
    except (ObsrepError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
