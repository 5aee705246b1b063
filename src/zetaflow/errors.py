"""Exception types shared across the package.

Two failure families are kept apart on purpose: bad inputs (wrong shapes,
non-dominant weights, malformed files) and sound inputs that land outside
the numerical domain of an algorithm (divergent series, unreachable
tolerance). The command line maps them to distinct exit codes. An error
carries only its message, which names the offending field or point and
what to change.
"""


class ZetaflowError(Exception):
    """Base class for all package errors."""


class ValidationError(ZetaflowError):
    """Malformed or inconsistent input data.

    Messages name the offending field with a path like ``classes[3].l0``
    when the input came from a structured document.
    """


class DomainError(ZetaflowError):
    """Structurally valid input outside an algorithm's numerical domain.

    The message says what to act on: the evaluation point when there is
    one, and a suggestion (grow the truncation, move the point) when the
    failure is a tolerance that cannot be met. The exception carries
    nothing beyond its message.
    """
