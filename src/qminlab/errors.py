"""Exception types shared across the package."""


class QminlabError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(QminlabError, ValueError):
    """An argument violates a documented precondition."""


class CapacityExceededError(QminlabError):
    """The requested computation exceeds a configured size cap."""


class ParseError(QminlabError, ValueError):
    """Malformed serialized input. ``offset`` is the first bad byte."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DegenerateSpectrumError(QminlabError):
    """An operation requiring a simple least eigenvalue met a repeated one."""
