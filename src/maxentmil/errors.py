"""Exception types shared across the package."""

from __future__ import annotations


class ConvergenceError(RuntimeError):
    """A solver exhausted its iteration budget before meeting its tolerance.

    Attributes
    ----------
    grad_norm : float | None
        When the failing solver is Newton, the smallest gradient inf-norm
        any of its iterates reached.
    failed_bag_ids : list[str]
        Bag ids that failed when fitting many bags at once.
    best : MEDensity | None
        When the failing solver is Newton, the density of that iterate.
    """

    def __init__(self, message, grad_norm=None, failed_bag_ids=None, best=None):
        super().__init__(message)
        self.grad_norm = grad_norm
        self.failed_bag_ids = list(failed_bag_ids or [])
        self.best = best


class GridBudgetError(RuntimeError):
    """A requested integration grid exceeds the configured node budget."""


class DegenerateDensityError(RuntimeError):
    """Rejection sampling acceptance collapsed; the density is too peaked
    for the grid-derived envelope."""
