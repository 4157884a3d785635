"""Exceptions shared across the package.

The CLI maps each class to a distinct exit code, so new error conditions
should reuse one of these rather than raising bare ValueError.
"""


class AlpError(Exception):
    """Base class for all package errors."""


class KbSyntaxError(AlpError):
    """Malformed fact file or program text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CapacityError(AlpError):
    """The candidate pool would exceed its ceiling."""


class VocabularyError(AlpError):
    """A program references predicates unknown to the given fact context."""


class InfeasibleError(AlpError):
    """No assignment satisfies the model's constraints."""
