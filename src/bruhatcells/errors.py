"""Shared exception types."""

__all__ = ["GuardError"]


class GuardError(RuntimeError):
    """An operation would enumerate more states than its size guard allows.

    Raised instead of silently grinding through huge groups; where a guard
    has an override, ``allow_large=True`` lifts it.
    """
