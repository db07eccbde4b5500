"""Exception types shared across the package, and its one check of count arguments."""


class ObsrepError(Exception):
    """Base class for every error raised by this package."""


class GeometryError(ObsrepError):
    """Invalid geometry: non-int coordinates, degenerate polygons, points off general position."""


class SceneError(ObsrepError):
    """A scene breaks its invariants; carries one diagnostic string per violation."""

    def __init__(self, diagnostics):
        diagnostics = tuple(diagnostics)
        super().__init__("invalid scene: " + "; ".join(diagnostics))
        self.diagnostics = diagnostics


class SceneFormatError(ObsrepError):
    """A scene document cannot be parsed into points/obstacles/graph."""


class ContradictionError(ObsrepError):
    """Two observations disagree on the outcome of the same canonical pattern."""

    def __init__(self, pattern, first_witness, second_witness):
        super().__init__(f"pattern {pattern!r} observed with contradictory outcomes")
        self.pattern = pattern
        self.first_witness = first_witness
        self.second_witness = second_witness


def _count(value, least, what):
    """Refuse ``value`` as the count ``what`` unless it is a plain int >= ``least``."""
    if type(value) is not int or value < least:
        raise ObsrepError(f"{what} must be an int >= {least}, not {value!r}")
