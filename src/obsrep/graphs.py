"""Labeled graphs on vertex set {0, ..., n-1} with normalized edge pairs."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import ObsrepError


class GraphError(ObsrepError):
    """A graph violates its invariants (bad label range, self-loop, ...)."""


@dataclass(frozen=True)
class Graph:
    """An undirected labeled graph; edges are (i, j) pairs with i < j."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if type(self.n) is not int or self.n < 0:
            raise GraphError(f"vertex count must be an int >= 0, not {self.n!r}")
        normalized = set()
        try:
            for e in self.edges:
                i, j = e
                if type(i) is not int or type(j) is not int:
                    raise GraphError(f"edge {e!r} has an endpoint that is not an int")
                if i == j:
                    raise GraphError(f"self-loop at vertex {i}")
                if not (0 <= i < self.n and 0 <= j < self.n):
                    raise GraphError(f"edge {e!r} out of range for n={self.n}")
                normalized.add((i, j) if i < j else (j, i))
        except (TypeError, ValueError):
            raise GraphError(f"edges must be (i, j) pairs of ints, not {self.edges!r}") from None
        object.__setattr__(self, "edges", frozenset(normalized))

    def non_edges(self):
        """All absent pairs, sorted lexicographically."""
        return [p for p in combinations(range(self.n), 2) if p not in self.edges]

    def sorted_edges(self):
        return sorted(self.edges)

    @property
    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def without_edge(self, i, j) -> "Graph":
        e = (min(i, j), max(i, j))
        if e not in self.edges:
            raise GraphError(f"edge {e!r} not present")
        return Graph(self.n, self.edges - {e})


def complete_graph(n) -> Graph:
    return Graph(n, frozenset(combinations(range(n), 2)))


def cycle_graph(n) -> Graph:
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def gnp_half(n, rng) -> Graph:
    """G(n, 1/2): each pair is an edge with one fair coin flip from ``rng``."""
    return Graph(n, [p for p in combinations(range(n), 2) if rng.getrandbits(1)])


def all_graphs(n):
    """Every labeled graph on n vertices, in edge-bitmask order (n <= 5)."""
    if n > 5:
        raise GraphError("exhaustive graph enumeration is limited to n <= 5")
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [p for b, p in enumerate(pairs) if mask >> b & 1])
