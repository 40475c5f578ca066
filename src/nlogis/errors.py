"""Shared exception types."""

from __future__ import annotations

__all__ = ["ConvergenceError"]


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations.

    The partial result, when one exists, is attached as .report so callers
    can inspect or salvage it.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
