"""Spans and counters recorded around calls into the library's layers.

Nothing here lives inside the library.  ``installed`` replaces each traced
function wherever a module binds it (the defining module and every module
that imported it by name), and methods on their class, with a wrapper that
records a span or bumps a counter; leaving the block puts the originals back.

A span holds its name, start, end and parent.  A layer's self time is the
sum of its spans' durations minus the time their child spans cover.  Spans
stay in memory and are written out by the caller when the run ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from math import comb


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def self_times(self) -> dict:
        """Seconds per span name, each span's duration minus its children's."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = {}
        for (name, *_), t in zip(self.spans, own):
            out[name] = out.get(name, 0.0) + t
        return out

    def calls(self) -> dict:
        out = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out


def _spanned(fn, tracer: Tracer, name: str, after=None):
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _counted(fn, tracer: Tracer, key: str):
    counts = tracer.counts
    counts.setdefault(key, 0)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _after_build(tracer, args, kwargs, fs):
    tracer.count("arrangement.nodes", len(fs.nodes))
    tracer.count("arrangement.pieces", len(fs.pieces))
    tracer.count("arrangement.faces", len(fs.faces))


def _after_incidence(tracer, args, kwargs, instance):
    tracer.count("arrangement.nonedges", len(instance.nonedges))


def _after_cover(tracer, args, kwargs, chosen):
    tracer.count("cover.elements", _arg(args, kwargs, 0, "n_elements"))
    sets = _arg(args, kwargs, 1, "sets")
    tracer.count("cover.candidates", sum(1 for items in sets.values() if items))
    tracer.count("cover.chosen", len(chosen))


def _after_details(tracer, args, kwargs, result):
    tracer.count("visibility.pairs", comb(_arg(args, kwargs, 0, "scene").n, 2))


def _after_scene(tracer, args, kwargs, scene):
    tracer.count("sampling.scenes")


def _after_placement(tracer, args, kwargs, points):
    tracer.count("search.placements")


def _after_threshold(tracer, args, kwargs, n):
    # The scan starts at n = 2, so it evaluated n - 1 candidates.
    tracer.count("bounds.scan_steps", n - 1)


def _search_wrapper(fn, tracer: Tracer):
    """Span for obs_upper_bound that also counts searches ending early."""
    spanned = _spanned(fn, tracer, "search")

    def wrapper(*args, **kwargs):
        before = tracer.counts.get("search.placements", 0)
        result = spanned(*args, **kwargs)
        tried = tracer.counts.get("search.placements", 0) - before
        if tried < _arg(args, kwargs, 1, "placements"):
            tracer.count("search.early_exits")
        return result

    return wrapper


# (module, function) -> how to wrap it.  Span names are the layer metrics'
# prefixes; counters are named in full.
_FUNCTIONS = {
    ("sceneio", "load_scene"): ("span", "sceneio.load", None),
    ("sceneio", "load_graph"): ("span", "sceneio.load", None),
    ("search", "obs_upper_bound"): ("search", None, None),
    ("search", "replay_witness"): ("span", "search.replay", None),
    ("arrangement", "build_arrangement"): ("span", "arrangement.build", _after_build),
    ("arrangement", "face_nonedge_incidence"): ("span", "arrangement.incidence", _after_incidence),
    ("cover", "solve_cover"): ("span", "cover.solve", _after_cover),
    ("visibility", "visibility_details"): ("span", "visibility.details", _after_details),
    ("scene", "require_valid_scene"): ("span", "scene.validate", None),
    ("tangent", "derive_pattern_table"): ("span", "tangent.derive", None),
    ("tangent", "encode_tangent"): ("span", "tangent.encode", None),
    ("sampling", "random_single_obstacle_scene"): ("span", "sampling", _after_scene),
    ("sampling", "random_placement"): ("span", "sampling", _after_placement),
    ("bounds", "bounds_threshold"): ("span", "bounds.threshold", _after_threshold),
    ("tangent", "pair_pattern"): ("count", "tangent.pair_pattern.calls", None),
    ("geom", "orient_xy"): ("count", "geom.orient_xy.calls", None),
    ("geom", "point_in_polygon"): ("count", "geom.point_in_polygon.calls", None),
    ("geom", "closed_segments_intersect"): ("count", "geom.closed_segments_intersect.calls", None),
    ("geom", "segment_intersects_polygon"): ("count", "geom.segment_intersects_polygon.calls", None),
}
_METHODS = {
    ("arrangement", "FaceSet", "representative"): ("span", "arrangement.representative", None),
    ("arrangement", "FaceSet", "locate"): ("count", "arrangement.locate.calls", None),
}


def _wrap(fn, tracer, how):
    kind, name, after = how
    if kind == "span":
        return _spanned(fn, tracer, name, after)
    if kind == "count":
        return _counted(fn, tracer, name)
    return _search_wrapper(fn, tracer)


@contextmanager
def installed(tracer: Tracer):
    """Trace every call into the listed functions while the block runs."""
    modules = [
        m for name, m in list(sys.modules.items()) if name == "obsrep" or name.startswith("obsrep.")
    ]
    undo = []
    try:
        for (home, fname), how in _FUNCTIONS.items():
            original = getattr(sys.modules[f"obsrep.{home}"], fname)
            wrapper = _wrap(original, tracer, how)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        for (home, cname, mname), how in _METHODS.items():
            cls = getattr(sys.modules[f"obsrep.{home}"], cname)
            original = cls.__dict__[mname]
            setattr(cls, mname, _wrap(original, tracer, how))
            undo.append((cls, mname, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
