"""The two error categories the CLI maps to exit codes.

A ConfigError exits 2 and a DataError exits 3; the CLI reports any other
exception as an internal failure (exit code 4).  A module defines its
own subclass only where some `except` must tell it apart
(`NotMovableError` in injector, `NoMethodsError` in featurize), or, for
`ParseError` in frontend, to build the `file:line:col:` prefix its
raise sites share.  Any other bad config or data raises one of these
two directly.
"""

from __future__ import annotations


class ConfigError(Exception):
    """Invalid or missing configuration (exit code 2)."""


class DataError(Exception):
    """Bad or missing input data or artifacts (exit code 3)."""
