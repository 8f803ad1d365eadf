"""Exception hierarchy shared across the package.

Two broad families matter to callers (and to the command-line front end,
which maps them to exit codes): problems with the *input* (bad matrices,
malformed files, undeclared parameters) and problems that arise *during a
computation* (degeneracies, finite-difference steps that are too large,
expression domain errors at a particular point).
"""

__all__ = [
    "QgeomError", "InputError", "ParseError", "NumericalError",
    "EvaluationError", "DegeneracyError", "StepError",
]


class QgeomError(Exception):
    """Base class for every error raised by this package."""


class InputError(QgeomError):
    """Invalid input: bad matrix, malformed file, inconsistent config."""


class ParseError(InputError):
    """An expression could not be parsed.

    Carries the byte offset of the offending token when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericalError(QgeomError):
    """A computation cannot proceed at the requested point or step."""


class EvaluationError(NumericalError):
    """An expression hit a domain error (log of non-positive, x/0, ...)."""

    where = ""  # the coordinate and point of a curve's error, which its message leaves out


class DegeneracyError(NumericalError):
    """An operation that needs an isolated level met a degenerate one."""


class StepError(NumericalError):
    """A finite-difference or integration step is too large to trust."""
