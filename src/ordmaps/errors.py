"""Exception types shared across the package."""

from __future__ import annotations


class OrdmapsError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(OrdmapsError, ValueError):
    """Invalid configuration value or combination."""


class ParseError(OrdmapsError, ValueError):
    """Malformed input file.

    ``row`` is the 1-based physical line number when known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class TooShortError(OrdmapsError, ValueError):
    """Input has too few samples or symbols for the requested operation."""


class DivergenceError(OrdmapsError, RuntimeError):
    """Numerical integration produced a non-finite or inadmissible state.

    ``step`` is the integration step index at which the state was detected.
    """

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


class EmptyMapError(OrdmapsError, ValueError):
    """Too few entry points to form a single return pair.

    ``count`` is the number of entry points that were available.
    """

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count
