"""Exception types shared across the package."""

from __future__ import annotations


class BinaryShieldError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(BinaryShieldError, ValueError):
    """Two fingerprints (or a store and a query) disagree on bit width."""

    def __init__(self, left: int, right: int, context: str = ""):
        self.left = left
        self.right = right
        prefix = f"{context}: " if context else ""
        super().__init__(f"{prefix}dimension mismatch: {left} vs {right}")


class CorruptPayload(BinaryShieldError, ValueError):
    """A packed bit payload failed validation (length or nonzero padding)."""


class FrameDecodeError(BinaryShieldError, ValueError):
    """A wire frame could not be decoded; carries the offending field."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"frame field {field!r}: {reason}")


class FieldError(BinaryShieldError, ValueError):
    """A string field breaks the one string rule (``records.check_strings``);
    carries the field, so each reader can report it its own way."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field} {reason}")


class MissingEmbedding(BinaryShieldError, LookupError):
    """A file-backed cache has no record for the requested key."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"no cached embedding for key {key}")


class EmbeddingTransportError(BinaryShieldError, RuntimeError):
    """Remote embedding request failed after retries."""

    def __init__(self, message: str, status: int | None = None, attempts: int = 1,
                 retryable: bool = False):
        self.status = status
        self.attempts = attempts
        self.retryable = retryable
        super().__init__(message)


class SchemaError(BinaryShieldError, ValueError):
    """A dataset or config record violates its schema; carries location."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        loc = ""
        if path is not None:
            loc = f"{path}"
            if line is not None:
                loc += f":{line}"
            loc += ": "
        super().__init__(f"{loc}{message}")
