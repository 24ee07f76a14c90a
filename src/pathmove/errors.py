"""Shared exception hierarchy.

Every error raised by this package derives from PathmoveError so the CLI
can map failures to exit codes in one place.  Module-specific exceptions
live next to the code that raises them and subclass one of the two
coarse categories below; the CLI reports any other exception as an
internal failure (exit code 4).
"""

from __future__ import annotations


class PathmoveError(Exception):
    """Base class for all package errors."""


class ConfigError(PathmoveError):
    """Invalid or missing configuration (exit code 2)."""


class DataError(PathmoveError):
    """Bad or missing input data or artifacts (exit code 3)."""


class MissingArtifactError(DataError):
    """A required artifact from an earlier stage does not exist."""

    def __init__(self, path: str, producer: str):
        super().__init__(f"missing artifact {path!r}: run the {producer!r} stage first")
        self.path = path
        self.producer = producer
