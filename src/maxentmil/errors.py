"""Exception types shared across the package."""

from __future__ import annotations


class ConvergenceError(RuntimeError):
    """A solver exhausted its iteration budget before meeting its tolerance.

    Attributes
    ----------
    grad_norm : float | None
        Inf-norm of the last gradient, when the failing solver is Newton.
    failed_bag_ids : list[str]
        Bag ids that failed when fitting many bags at once.
    iterates : list[tuple]
        When the failing solver is Newton, (gradient norm, parameter,
        logZ, feature mean) of every iterate it visited.
    """

    def __init__(self, message, grad_norm=None, failed_bag_ids=None):
        super().__init__(message)
        self.grad_norm = grad_norm
        self.failed_bag_ids = list(failed_bag_ids or [])
        self.iterates = []


class GridBudgetError(RuntimeError):
    """A requested integration grid exceeds the configured node budget."""


class DegenerateDensityError(RuntimeError):
    """Rejection sampling acceptance collapsed; the density is too peaked
    for the grid-derived envelope."""
