"""Reading and writing scene documents.

A scene document is JSON with up to three fields::

    {
      "points":    [[x, y], ...],
      "obstacles": [[[x, y], ...], ...],
      "graph":     {"n": 3, "edges": [[1, 2], [1, 3]]}
    }

Coordinates are integers.  Vertices are numbered 1..n in listing order and
the optional graph's edges use those 1-based labels.  Obstacle corners may
be listed in either direction around the boundary; they are stored
counterclockwise.  A graph may also live in a file of its own (just the
``{"n": ..., "edges": ...}`` object).

Structural problems raise :class:`SceneFormatError` naming every offending
index; a well-formed document whose scene breaks a geometric invariant
raises :class:`SceneError` when the :class:`Scene` is built.
"""

from __future__ import annotations

import json

from .errors import GeometryError, SceneFormatError
from .geom import Point, Polygon, polygon_area2
from .graphs import Graph
from .scene import Scene


def _int_pairs(items, where, problems):
    """``items`` as ``Point``s; an item that is not a pair of plain ints is
    named in ``problems`` and read as ``None``."""
    out = []
    for i, item in enumerate(items):
        if isinstance(item, (list, tuple)) and len(item) == 2 and all(type(v) is int for v in item):
            out.append(Point(*item))
        else:
            problems.append(f"{where}[{i}] must be a pair of integers, got {item!r}")
            out.append(None)
    return out


def _parse_points(data, problems):
    raw = data.get("points")
    if not isinstance(raw, list) or not raw:
        problems.append('"points" must be a non-empty list of [x, y] pairs')
        return ()
    return tuple(_int_pairs(raw, "points", problems))


def _parse_obstacles(data, problems):
    raw = data.get("obstacles", [])
    if not isinstance(raw, list):
        problems.append('"obstacles" must be a list of polygons')
        return ()
    out = []
    for k, ring in enumerate(raw):
        if not isinstance(ring, list):
            problems.append(f"obstacles[{k}] must be a list of [x, y] pairs")
            continue
        corners = _int_pairs(ring, f"obstacles[{k}]", problems)
        if None in corners:
            continue
        if len(corners) >= 3 and polygon_area2(corners) < 0:
            corners.reverse()
        try:
            out.append(Polygon(tuple(corners)))
        except GeometryError as e:
            problems.append(f"obstacles[{k}]: {e}")
    return tuple(out)


def _parse_graph(raw, n_points, problems):
    if raw is None:
        return None
    if not isinstance(raw, dict):
        problems.append('"graph" must be an object with "n" and "edges"')
        return None
    n = raw.get("n")
    if type(n) is not int or n < 0:
        problems.append('graph "n" must be a non-negative integer')
        return None
    if n_points is not None and n != n_points:
        problems.append(f'graph "n" is {n} but the document lists {n_points} points')
        return None
    edges_raw = raw.get("edges", [])
    if not isinstance(edges_raw, list):
        problems.append('graph "edges" must be a list of [a, b] label pairs')
        return None
    pairs = []
    for i, pair in enumerate(_int_pairs(edges_raw, "graph edges", problems)):
        if pair is None:
            continue
        a, b = pair
        if not (1 <= a <= n and 1 <= b <= n):
            problems.append(f"graph edges[{i}] = {list(pair)!r} is outside 1..{n}")
            continue
        if a == b:
            problems.append(f"graph edges[{i}] joins vertex {a} to itself")
            continue
        pairs.append((a - 1, b - 1))
    return Graph(n, pairs)


def scene_from_dict(data) -> tuple:
    """Parse a document into ``(Scene, Graph | None)``; building the scene validates it."""
    if not isinstance(data, dict):
        raise SceneFormatError("a scene document must be a JSON object")
    unknown = sorted(set(data) - {"points", "obstacles", "graph"})
    problems = [f"unknown field {name!r}" for name in unknown]
    before = len(problems)
    points = _parse_points(data, problems)
    points_ok = len(problems) == before
    obstacles = _parse_obstacles(data, problems)
    graph = _parse_graph(data.get("graph"), len(points) if points_ok else None, problems)
    if problems:
        raise SceneFormatError("; ".join(problems))
    return Scene(points, obstacles), graph


def _decode(fh):
    try:
        return json.load(fh)
    except (ValueError, RecursionError) as e:
        raise SceneFormatError(f"not valid JSON: {e}") from None


def load_scene(path) -> tuple:
    """Read a scene document from ``path``; returns ``(Scene, Graph | None)``."""
    with open(path, "r", encoding="utf-8") as fh:
        return scene_from_dict(_decode(fh))


def save_scene(path, scene: Scene, graph: Graph | None = None) -> None:
    """Write a scene document to ``path``: counterclockwise obstacle rings,
    1-based edge labels, indented by two spaces."""
    doc = {
        "points": [[p.x, p.y] for p in scene.points],
        "obstacles": [[[v.x, v.y] for v in poly.vertices] for poly in scene.obstacles],
    }
    if graph is not None:
        doc["graph"] = {"n": graph.n, "edges": [[i + 1, j + 1] for i, j in graph.sorted_edges()]}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def load_graph(path) -> Graph:
    """Read a graph: either a bare graph document or a scene document's graph."""
    with open(path, "r", encoding="utf-8") as fh:
        data = _decode(fh)
    if not isinstance(data, dict):
        raise SceneFormatError("a graph document must be a JSON object")
    if "points" in data:
        _, graph = scene_from_dict(data)
        if graph is None:
            raise SceneFormatError('the scene document has no "graph" field')
        return graph
    problems = []
    graph = _parse_graph(data, None, problems)
    if problems:
        raise SceneFormatError("; ".join(problems))
    return graph
