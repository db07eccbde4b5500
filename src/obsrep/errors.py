"""Exception types shared across the package."""


class ObsrepError(Exception):
    """Base class for every error raised by this package."""


class GeometryError(ObsrepError):
    """Invalid geometric input (non-integer point coordinate, degenerate polygon, ...)."""


class GeneralPositionError(GeometryError):
    """Points violate general position: a duplicate pair or a collinear triple."""


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


class UnknownPatternError(ObsrepError):
    """A pair pattern does not appear in the decoding table."""


class CoverError(ObsrepError):
    """A set-cover instance cannot be solved (some element is uncoverable)."""


class SearchError(ObsrepError):
    """A randomized search could not complete (e.g. no valid placement found)."""
