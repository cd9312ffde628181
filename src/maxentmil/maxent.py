"""Single-bag maximum-entropy machinery.

A bag's density is exp(lambda . phi(x) - logZ(lambda)) over the grid's
domain. Everything downstream consumes only the bag's sufficient statistics
(instance count and the empirical feature mean), which is what makes the
whole pipeline linear in the number of instances.

All integrals are quadrature sums over an IntegrationGrid, so fitted
densities, moments and KL divergences are mutually consistent on that grid:
the closed-form KL between two fitted densities equals the discrete KL of
their node distributions.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .basis import BasisSpec, Domain, IntegrationGrid, eval_basis
from .errors import ConvergenceError


@dataclass(frozen=True)
class SufficientStats:
    """Per-bag instance count and empirical feature mean E_phat[phi]."""

    bag_id: str
    n: int
    phi_bar: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("instance count must be >= 1")
        phi_bar = np.asarray(self.phi_bar, dtype=float)
        if phi_bar.ndim != 1:
            raise ValueError("phi_bar must be a vector")
        if (np.abs(phi_bar) > 1.0 + 1e-12).any():
            raise ValueError("phi_bar entries must lie in [-1, 1]")
        object.__setattr__(self, "phi_bar", phi_bar)

    @property
    def m(self) -> int:
        return self.phi_bar.shape[0]


@dataclass(frozen=True)
class MEDensity:
    """A fitted density: parameter vector plus cached logZ and feature mean."""

    bag_id: str
    lam: np.ndarray
    logZ: float
    mean_phi: np.ndarray
    basis_key: tuple

    def __post_init__(self):
        if not np.isfinite(self.logZ):
            raise ValueError("logZ must be finite")
        lam = np.asarray(self.lam, dtype=float)
        mean_phi = np.asarray(self.mean_phi, dtype=float)
        if lam.shape != mean_phi.shape or lam.ndim != 1:
            raise ValueError("lam and mean_phi must be vectors of equal length")
        if (np.abs(mean_phi) > 1.0 + 1e-12).any():
            raise ValueError("mean_phi entries must lie in [-1, 1]")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mean_phi", mean_phi)

    @property
    def m(self) -> int:
        return self.lam.shape[0]


# Rungs of the tolerance-relaxation ladder past the requested grad_tol; every
# relaxed fit in the package tries grad_tol * 10**k for k = 0..MAX_RELAX.
MAX_RELAX = 3

# Damped-Newton step control: the ridge added to the Hessian, the Armijo
# sufficient-decrease constant and the backtracking factor.
HESSIAN_RIDGE = 1e-8
ARMIJO_C = 1e-4
BACKTRACK_RHO = 0.5


@dataclass(frozen=True)
class NewtonConfig:
    """Gradient inf-norm tolerance of fit_sde; its step budget is fixed.

    grad_tol 1e-5 pins a bag's fitted feature mean to phi_bar within
    1e-5 / n. Newton on an ill-conditioned bag can stall at a gradient of a
    few 1e-6, so a tighter default would only send such bags down
    fit_sde_relaxed's ladder. Every fitter and harness uses this default.
    """

    max_iters: ClassVar[int] = 50
    grad_tol: float = 1e-5

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


_scratch = threading.local()


def _workspace(q: int, n: int) -> np.ndarray:
    """The calling thread's (Q, N) kernel workspace, allocated on first use
    and again when the shape changes; the next kernel call overwrites it.

    One workspace per thread, shared by every engine the thread uses, not
    one per engine: callers keep engines alive after their solve (a sweep's
    results, a benchmark's output checks), and a per-engine workspace would
    multiply resident memory by the engines kept. Per thread, concurrent
    calls never share it.
    """
    work = getattr(_scratch, "work", None)
    if work is None or work.shape != (q, n):
        work = _scratch.work = np.empty((q, n))
    return work


class BasisGrid:
    """Feature matrix evaluated on a grid, with batched density operations.

    Building the (Q, m) feature matrix dominates the cost of a single
    density query, so solvers construct one BasisGrid and reuse it for
    every bag and every iteration.

    The kernels (log_partition_many, logz_and_mean_many, and log_partition
    and node_probs as their one-column case) compute in a reusable (Q, N)
    workspace (see _workspace) and return fresh arrays that never alias it.
    """

    def __init__(self, spec, grid: IntegrationGrid):
        self.spec = spec
        self.grid = grid
        self.phi = spec.evaluate(grid.nodes)  # (Q, m)
        self.logw = np.log(grid.weights)  # (Q,)

    @property
    def m(self) -> int:
        return self.phi.shape[1]

    def log_partition(self, lam: np.ndarray) -> float:
        e, shift = self._shifted_exp(lam[:, None])
        return float(shift[0] + np.log(e[:, 0].sum()))

    def node_probs(self, lam: np.ndarray) -> tuple[float, np.ndarray]:
        """logZ and the node probabilities w_q * exp(lam.phi_q - logZ)."""
        e, shift = self._shifted_exp(lam[:, None])
        total = e[:, 0].sum()
        return float(shift[0] + np.log(total)), e[:, 0] / total

    def moments(self, lam: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """logZ, feature mean and feature covariance under the density."""
        logz, probs = self.node_probs(lam)
        mean = self.phi.T @ probs
        second = (self.phi * probs[:, None]).T @ self.phi
        cov = second - np.outer(mean, mean)
        cov = 0.5 * (cov + cov.T)
        return logz, mean, cov

    def _shifted_exp(self, lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """exp(scores - shift) per column, in the workspace, and the (N,) shift."""
        e = _workspace(self.phi.shape[0], lambdas.shape[1])
        np.matmul(self.phi, lambdas, out=e)
        e += self.logw[:, None]
        shift = e.max(axis=0)
        e -= shift
        np.exp(e, out=e)
        return e, shift

    def log_partition_many(self, lambdas: np.ndarray) -> np.ndarray:
        """logZ per column of an (m, N) parameter matrix."""
        e, shift = self._shifted_exp(lambdas)
        return shift + np.log(e.sum(axis=0))

    def logz_and_mean_many(self, lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-column logZ (N,) and feature means (m, N)."""
        e, shift = self._shifted_exp(lambdas)
        totals = e.sum(axis=0)
        logz = shift + np.log(totals)
        e /= totals
        means = self.phi.T @ e
        return logz, means


def as_engine(spec, grid, engine: BasisGrid | None) -> BasisGrid:
    """The shared engine when one is passed, else a fresh one for (spec, grid)."""
    return engine if engine is not None else BasisGrid(spec, grid)


def suff_stats(bag: np.ndarray, spec: BasisSpec, bag_id: str) -> SufficientStats:
    """Summarize a bag of instances into (n, mean feature vector).

    Cost is linear in the bag size; this is the only pass over raw
    instances the solvers ever need.
    """
    bag = np.asarray(bag, dtype=float)
    if bag.ndim != 2 or bag.shape[0] < 1:
        raise ValueError("bag must be a nonempty (n, d) matrix")
    features = spec.evaluate(bag)
    return SufficientStats(bag_id=bag_id, n=bag.shape[0], phi_bar=features.mean(axis=0))


def log_partition(lam, spec, grid, engine: BasisGrid | None = None) -> float:
    """log of the normalizer: log sum_q w_q exp(lam . phi(x_q)).

    Computed with a max shift so large parameter vectors do not overflow.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.isfinite(lam).all():
        raise ValueError("lam must be finite")
    return as_engine(spec, grid, engine).log_partition(lam)


def density_moments(lam, spec, grid, engine: BasisGrid | None = None):
    """Feature mean and covariance under the density with parameter lam."""
    lam = np.asarray(lam, dtype=float)
    if not np.isfinite(lam).all():
        raise ValueError("lam must be finite")
    _, mean, cov = as_engine(spec, grid, engine).moments(lam)
    return mean, cov


def sde_objective(lam, stats: SufficientStats, spec, grid, engine=None) -> float:
    """Scaled negative log-likelihood n * (logZ(lam) - lam . phi_bar)."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape[0] != stats.m:
        raise ValueError(f"lam has {lam.shape[0]} entries, stats expect {stats.m}")
    eng = as_engine(spec, grid, engine)
    return stats.n * (eng.log_partition(lam) - float(lam @ stats.phi_bar))


def sde_grad_hess(lam, stats: SufficientStats, spec, grid, engine=None):
    """Gradient n*(E_p[phi] - phi_bar) and Hessian n*Cov_p[phi] of the
    objective; the Hessian is positive semidefinite."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape[0] != stats.m:
        raise ValueError(f"lam has {lam.shape[0]} entries, stats expect {stats.m}")
    _, mean, cov = as_engine(spec, grid, engine).moments(lam)
    return stats.n * (mean - stats.phi_bar), stats.n * cov


def fit_sde(
    stats: SufficientStats,
    spec,
    grid,
    cfg: NewtonConfig = NewtonConfig(),
    engine: BasisGrid | None = None,
    history: list | None = None,
) -> MEDensity:
    """Damped Newton fit of a single bag's density.

    Starts from the uniform density (lam = 0), takes ridge-stabilized Newton
    steps with Armijo backtracking, and stops once the gradient inf-norm is
    below grad_tol, which pins the fitted feature mean to phi_bar within
    grad_tol / n. When a `history` list is passed, the objective value of
    every iterate is appended to it.

    Raises ConvergenceError (carrying the last gradient norm and every
    iterate, for fit_sde_relaxed's looser rungs) if the iteration budget
    runs out.
    """
    eng = as_engine(spec, grid, engine)
    m = stats.m
    if eng.m != m:
        raise ValueError(f"stats have m={m} but the basis produces {eng.m} features")
    lam = np.zeros(m)
    logz, mean, cov = eng.moments(lam)
    obj = stats.n * (logz - float(lam @ stats.phi_bar))
    if history is not None:
        history.append(obj)
    iterates = []
    for it in range(cfg.max_iters + 1):
        grad = stats.n * (mean - stats.phi_bar)
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= cfg.grad_tol:
            return _density(stats, spec, lam, logz, mean)
        iterates.append((grad_norm, lam, logz, mean))
        if it == cfg.max_iters:
            break
        hess = stats.n * cov + HESSIAN_RIDGE * np.eye(m)
        step = np.linalg.solve(hess, -grad)
        slope = float(grad @ step)  # negative for a descent direction
        t = 1.0
        for _ in range(60):
            cand = lam + t * step
            logz_c, mean_c, cov_c = eng.moments(cand)
            obj_c = stats.n * (logz_c - float(cand @ stats.phi_bar))
            if obj_c <= obj + ARMIJO_C * t * slope:
                break
            t *= BACKTRACK_RHO
        lam, logz, mean, cov, obj = cand, logz_c, mean_c, cov_c, obj_c
        if history is not None:
            history.append(obj)
    raise _newton_stalled(stats, cfg.grad_tol, cfg.max_iters, iterates)


def _density(stats: SufficientStats, spec, lam, logz, mean) -> MEDensity:
    return MEDensity(
        bag_id=stats.bag_id, lam=lam, logZ=logz, mean_phi=mean, basis_key=spec.key
    )


def _newton_stalled(stats, tol, max_iters, iterates) -> ConvergenceError:
    grad_norm = iterates[-1][0]
    exc = ConvergenceError(
        f"bag {stats.bag_id!r}: Newton did not reach grad_tol={tol} "
        f"in {max_iters} iterations (last grad norm {grad_norm:.3e})",
        grad_norm=grad_norm,
    )
    exc.iterates = iterates
    return exc


def fit_sde_relaxed(
    stats: SufficientStats,
    spec,
    grid,
    cfg: NewtonConfig = NewtonConfig(),
    engine: BasisGrid | None = None,
) -> tuple[MEDensity, list[str]]:
    """fit_sde with a tolerance-relaxation ladder.

    Ill-conditioned bags can plateau just above a tight gradient tolerance
    (the Newton system hits float precision); every bag fit in the package
    prefers a slightly looser, reported fit over a failed run. The rungs
    are grad_tol scaled by 10 up to MAX_RELAX times. The Newton path does
    not depend on the tolerance, so one fit_sde pass serves every rung:
    when it stalls, the first iterate meeting the tightest rung any iterate
    met is returned, with a note naming the relaxation used.
    """
    try:
        return fit_sde(stats, spec, grid, cfg, engine=engine), []
    except ConvergenceError as exc:
        iterates = exc.iterates
    for level in range(1, MAX_RELAX + 1):
        tol = cfg.grad_tol * 10.0**level
        for grad_norm, lam, logz, mean in iterates:
            if grad_norm <= tol:
                note = f"bag {stats.bag_id!r}: gradient tolerance relaxed to {tol:.1e}"
                return _density(stats, spec, lam, logz, mean), [note]
    raise _newton_stalled(stats, cfg.grad_tol * 10.0**MAX_RELAX, cfg.max_iters, iterates)


def _check_same_basis(p: MEDensity, q: MEDensity):
    if p.basis_key != q.basis_key or p.m != q.m:
        raise ValueError(
            f"densities come from different bases: {p.basis_key} vs {q.basis_key}"
        )


def kl(p: MEDensity, q: MEDensity) -> float:
    """Closed-form KL divergence D(p || q) from cached logZ and means.

    (lam_p - lam_q) . E_p[phi] - (logZ_p - logZ_q); equals the discrete KL
    of the two node distributions on the shared grid, so it is nonnegative
    up to float roundoff.
    """
    _check_same_basis(p, q)
    return float((p.lam - q.lam) @ p.mean_phi - (p.logZ - q.logZ))


def sym_kl(p: MEDensity, q: MEDensity) -> float:
    """Symmetrized divergence (lam_p - lam_q) . (E_p[phi] - E_q[phi])."""
    _check_same_basis(p, q)
    return float((p.lam - q.lam) @ (p.mean_phi - q.mean_phi))


def log_density(p: MEDensity, spec, x: np.ndarray) -> float:
    """Log density lam . phi(x) - logZ at a single point."""
    return float(eval_basis(spec, np.asarray(x, dtype=float)) @ p.lam - p.logZ)


def log_density_with_flag(
    p: MEDensity, spec, x: np.ndarray, domain: Domain
) -> tuple[float, bool]:
    """Log density plus whether x lies inside the fitting domain.

    Points outside the box still get the formula value; the flag lets
    callers decide how much to trust it.
    """
    x = np.asarray(x, dtype=float)
    return log_density(p, spec, x), domain.contains(x)


def densities_from_columns(
    data: np.ndarray,
    bag_ids,
    spec,
    grid,
    engine: BasisGrid | None = None,
) -> list[MEDensity]:
    """Materialize one density per column of an (m, N) parameter matrix,
    caching logZ and feature means in a single batched pass."""
    eng = as_engine(spec, grid, engine)
    data = np.asarray(data, dtype=float)
    logz, means = eng.logz_and_mean_many(data)
    return [
        MEDensity(
            bag_id=bag_ids[i],
            lam=data[:, i],
            logZ=float(logz[i]),
            mean_phi=means[:, i],
            basis_key=spec.key,
        )
        for i in range(data.shape[1])
    ]


def hoeffding_delta_bound(n: int, m: int, eta: float) -> float:
    """Deviation threshold sqrt(2 log(2m / eta)) / sqrt(n) for the gap
    between empirical and model feature means, at confidence 1 - eta."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if not 0 < eta < 1:
        raise ValueError("eta must be in (0, 1)")
    return float(np.sqrt(2.0 * np.log(2.0 * m / eta)) / np.sqrt(n))
