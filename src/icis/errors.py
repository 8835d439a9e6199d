"""Exception types shared across the package.

Every error raised by public operations derives from :class:`IcisError`, so
callers (and the CLI) can map failures onto a small, documented taxonomy.
"""


class IcisError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(IcisError):
    """Operands have incompatible shapes. Names both shapes in the message."""

    def __init__(self, message, left=None, right=None):
        if left is not None or right is not None:
            message = f"{message}: {left} vs {right}"
        super().__init__(message)
        self.left = left
        self.right = right


class ZeroNormError(IcisError):
    """A vector that must have positive norm is exactly zero. Raised from
    training, it carries the trace of the epochs finished before it."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ClassIdError(IcisError):
    """Unknown, duplicate, colliding, or unwritable class identifiers."""


class DataFormatError(IcisError):
    """A file does not conform to one of the documented on-disk formats.

    Carries the offending path and, for binary files, the byte offset at
    which the problem was detected.
    """

    def __init__(self, path, message, offset=None):
        loc = f"{path}" if offset is None else f"{path} (byte {offset})"
        super().__init__(f"{loc}: {message}")
        self.path = str(path)
        self.offset = offset


class DivergenceError(IcisError):
    """Training produced a non-finite loss. Carries the trace up to failure."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
