"""Exception types shared across the planner."""


class RaceplanError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(RaceplanError):
    """Inputs have inconsistent shapes for the requested operation."""


class SingularSystem(RaceplanError):
    """The spline linear system could not be factorized."""


class OutOfDomain(RaceplanError):
    """Evaluation time lies outside the trajectory's domain."""


class ParseError(RaceplanError):
    """Track file could not be read or is not structurally valid."""


class ValidationError(RaceplanError, ValueError):
    """An input, from a track file, a flag or a caller, violates an invariant."""


class EmptyAfterShrink(ValidationError):
    """Applying the safety margin consumed the gate entirely."""
