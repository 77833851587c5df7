"""Exception types shared across the planner."""


class RaceplanError(Exception):
    """Base class for all library errors."""


class ValidationError(RaceplanError, ValueError):
    """An input, from a track file, a flag or a caller, violates an invariant."""
