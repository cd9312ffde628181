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
from functools import cached_property
from typing import ClassVar

import numpy as np

from .basis import BasisSpec, IntegrationGrid, node_features
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


# A bag fit that misses grad_tol by at most this factor returns Newton's
# best iterate with a note (fit_sde_relaxed); a wider miss raises.
RELAX_LIMIT = 1e3

# Damped-Newton step control: the ridge added to the Hessian, the Armijo
# sufficient-decrease constant and the backtracking factor.
HESSIAN_RIDGE = 1e-8
ARMIJO_C = 1e-4
BACKTRACK_RHO = 0.5


@dataclass(frozen=True)
class NewtonConfig:
    """Gradient inf-norm tolerance of fit_sde; its step budget is fixed.

    grad_tol 1e-5 pins a bag's fitted feature mean to phi_bar within
    1e-5 / n. Newton on an ill-conditioned bag can stall above it (at m = 40
    some end at 1.2e-5 to 6.4e-5; fit_sde_relaxed returns such a fit with a
    note). Every fitter and harness uses this default.
    """

    max_iters: ClassVar[int] = 50
    grad_tol: float = 1e-5

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


_scratch = threading.local()


def _workspace(n: int, q: int) -> np.ndarray:
    """The calling thread's (N, Q) kernel workspace, one row per bag,
    allocated on first use and again when the shape changes; the next
    kernel call overwrites it.

    One workspace per thread, shared by every engine the thread uses, not
    one per engine: callers keep engines alive after their solve (a sweep's
    results, a benchmark's output checks), and a per-engine workspace would
    multiply resident memory by the engines kept. Per thread, concurrent
    calls never share it.
    """
    work = getattr(_scratch, "work", None)
    if work is None or work.shape != (n, q):
        work = _scratch.work = np.empty((n, q))
    return work


class ExpPass:
    """One batched kernel pass (BasisGrid.exp_pass): the per-column logZ,
    read at once, and the feature means, formed on demand from the pass's
    exponentials.

    Those exponentials live in the thread's workspace only until the next
    kernel pass on the thread overwrites it, so means() checks the pass is
    still the thread's latest and raises RuntimeError otherwise, never
    returning another pass's means.
    """

    __slots__ = ("logz", "_phi", "_e", "_totals", "_ticket")

    def __init__(self, logz: np.ndarray, phi: np.ndarray, e: np.ndarray, totals: np.ndarray):
        self.logz = logz  # (N,)
        self._phi, self._e, self._totals = phi, e, totals
        self._ticket = _scratch.ticket

    def means(self) -> np.ndarray:
        """(m, N) feature means; the unnormalized means are divided by the
        totals, not the (N, Q) weights."""
        if getattr(_scratch, "ticket", None) is not self._ticket:
            raise RuntimeError(
                "a later kernel pass on this thread overwrote this pass's exponentials"
            )
        means = self._phi.T @ self._e.T
        means /= self._totals
        return means


class BasisGrid:
    """Feature matrix evaluated on a grid, with batched density operations.

    Building the (Q, m) feature matrix dominates the cost of a single
    density query, so solvers construct one BasisGrid and reuse it for
    every bag and every iteration. phi is read-only (basis.node_features):
    a midpoint grid's rejection envelope reuses it; logw is the grid's own
    read-only log_weights.

    The kernels (exp_pass, and node_probs as its one-column case) compute
    node-major, in a reusable (N, Q) workspace (see _workspace): each bag's
    scores fill one contiguous row, so its max and sum run along that row.
    phi stays (Q, m); the products read its transpose as a view. One pass
    yields logZ; what else a caller reads it pays for separately: the
    feature means of a batched pass (ExpPass.means), and the feature mean
    (feature_mean) and covariance (feature_cov) of one density's node
    probabilities. log_partition_many, logz_and_mean_many and moments
    bundle them. Every result is a fresh array that never aliases the
    workspace.
    """

    def __init__(self, spec, grid: IntegrationGrid):
        self.spec = spec
        self.grid = grid
        self.phi = node_features(spec, grid.nodes)  # (Q, m)
        self.logw = grid.log_weights  # (Q,)

    @property
    def m(self) -> int:
        return self.phi.shape[1]

    def node_probs(self, lam: np.ndarray) -> tuple[float, np.ndarray]:
        """logZ and the node probabilities w_q * exp(lam.phi_q - logZ)."""
        e, shift = self._shifted_exp(lam[:, None])
        total = e[0].sum()
        return float(shift[0] + np.log(total)), e[0] / total

    def feature_mean(self, probs: np.ndarray) -> np.ndarray:
        """Feature mean under the node probabilities probs."""
        return self.phi.T @ probs

    def feature_cov(self, probs: np.ndarray, mean: np.ndarray) -> np.ndarray:
        """Feature covariance under the node probabilities probs, whose
        feature mean is mean."""
        second = (self.phi * probs[:, None]).T @ self.phi
        cov = second - np.outer(mean, mean)
        return 0.5 * (cov + cov.T)

    def moments(self, lam: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """logZ, feature mean and feature covariance under the density."""
        logz, probs = self.node_probs(lam)
        mean = self.feature_mean(probs)
        return logz, mean, self.feature_cov(probs, mean)

    @cached_property
    def uniform_start(self) -> tuple[float, np.ndarray, np.ndarray]:
        """moments at lam = 0, read-only and computed on first use: the
        start of every bag fitted on the engine (m^2 + m floats kept)."""
        logz, mean, cov = self.moments(np.zeros(self.m))
        mean.setflags(write=False)
        cov.setflags(write=False)
        return logz, mean, cov

    def _shifted_exp(self, lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """exp(scores - shift) per bag row, in the (N, Q) workspace, and the
        (N,) shift. Each call is a new pass: it retires every earlier
        ExpPass of the thread."""
        e = _workspace(lambdas.shape[1], self.phi.shape[0])
        _scratch.ticket = object()
        np.matmul(lambdas.T, self.phi.T, out=e)
        e += self.logw
        shift = e.max(axis=1)
        e -= shift[:, None]
        np.exp(e, out=e)
        return e, shift

    def exp_pass(self, lambdas: np.ndarray) -> ExpPass:
        """One kernel pass over an (m, N) parameter matrix: logZ per column
        now, the feature means on demand while the pass is the thread's
        latest."""
        e, shift = self._shifted_exp(lambdas)
        totals = e.sum(axis=1)
        return ExpPass(shift + np.log(totals), self.phi, e, totals)

    def log_partition_many(self, lambdas: np.ndarray) -> np.ndarray:
        """logZ per column of an (m, N) parameter matrix."""
        return self.exp_pass(lambdas).logz

    def logz_and_mean_many(self, lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-column logZ (N,) and feature means (m, N), from one pass."""
        kernel_pass = self.exp_pass(lambdas)
        return kernel_pass.logz, kernel_pass.means()


def _grid_label(grid: IntegrationGrid) -> str:
    return f"{grid.kind} grid of {grid.size} nodes on [{grid.domain.lo}, {grid.domain.hi}]"


def as_engine(spec, grid, engine: BasisGrid | None) -> BasisGrid:
    """The shared engine when one is passed, else a fresh one for (spec, grid).

    A passed engine must be one for (spec, grid): raises ValueError naming
    both when its basis key differs from spec's, or its grid's nodes or
    weights differ from grid's, since the fit would run on the engine's
    features and be labelled with spec's key.
    """
    if engine is None:
        return BasisGrid(spec, grid)
    if engine.spec.key != spec.key:
        raise ValueError(
            f"the engine evaluates basis {engine.spec.key}, not the basis passed, {spec.key}"
        )
    other = engine.grid
    if other is not grid and not (
        np.array_equal(other.nodes, grid.nodes) and np.array_equal(other.weights, grid.weights)
    ):
        raise ValueError(
            f"the engine's grid ({_grid_label(other)}) differs from the grid passed "
            f"({_grid_label(grid)})"
        )
    return engine


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

    Each evaluation computes only what the next test reads. A trial point
    of the backtracking costs one node pass (node_probs: the Armijo test
    reads only logZ); the accepted point's feature mean (its gradient) is
    formed from that pass's probabilities, and its covariance only when
    another Newton step follows, so the final iterate builds none. The
    start's logZ, mean and covariance are computed once per engine
    (BasisGrid.uniform_start) and shared by every bag fitted on it.

    Raises ConvergenceError if the iteration budget runs out; its grad_norm
    is the smallest gradient inf-norm any iterate reached, and its `best`
    is that iterate's density.
    """
    eng = as_engine(spec, grid, engine)
    m = stats.m
    if eng.m != m:
        raise ValueError(f"stats have m={m} but the basis produces {eng.m} features")
    lam = np.zeros(m)
    logz, mean, cov = eng.uniform_start
    mean = mean.copy()  # a returned density never aliases the shared start
    obj = stats.n * (logz - float(lam @ stats.phi_bar))
    if history is not None:
        history.append(obj)
    best = None
    for it in range(cfg.max_iters + 1):
        grad = stats.n * (mean - stats.phi_bar)
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= cfg.grad_tol:
            return _density(stats, spec, lam, logz, mean)
        if best is None or grad_norm < best[0]:
            best = (grad_norm, lam, logz, mean)
        if it == cfg.max_iters:
            break
        if cov is None:
            cov = eng.feature_cov(probs, mean)
        hess = stats.n * cov + HESSIAN_RIDGE * np.eye(m)
        step = np.linalg.solve(hess, -grad)
        slope = float(grad @ step)  # negative for a descent direction
        t = 1.0
        for _ in range(60):
            cand = lam + t * step
            logz_c, probs = eng.node_probs(cand)
            obj_c = stats.n * (logz_c - float(cand @ stats.phi_bar))
            if obj_c <= obj + ARMIJO_C * t * slope:
                break
            t *= BACKTRACK_RHO
        lam, logz, obj = cand, logz_c, obj_c
        mean, cov = eng.feature_mean(probs), None
        if history is not None:
            history.append(obj)
    grad_norm, lam, logz, mean = best
    raise ConvergenceError(
        f"bag {stats.bag_id!r}: Newton did not reach grad_tol={cfg.grad_tol} "
        f"in {cfg.max_iters} iterations (best grad norm {grad_norm:.3e})",
        grad_norm=grad_norm,
        best=_density(stats, spec, lam, logz, mean),
    )


def _density(stats: SufficientStats, spec, lam, logz, mean) -> MEDensity:
    return MEDensity(
        bag_id=stats.bag_id, lam=lam, logZ=logz, mean_phi=mean, basis_key=spec.key
    )


def fit_sde_relaxed(
    stats: SufficientStats,
    spec,
    grid,
    cfg: NewtonConfig = NewtonConfig(),
    engine: BasisGrid | None = None,
) -> tuple[MEDensity, list[str]]:
    """fit_sde that reports a near miss instead of failing.

    Newton on an ill-conditioned bag can stall just above the gradient
    tolerance, and every bag fit in the package prefers a reported fit over
    a failed run. A fit that misses grad_tol returns Newton's best iterate
    (smallest gradient inf-norm) with one note naming the gradient it
    reached; a miss wider than RELAX_LIMIT times grad_tol raises fit_sde's
    ConvergenceError.
    """
    try:
        return fit_sde(stats, spec, grid, cfg, engine=engine), []
    except ConvergenceError as exc:
        if exc.grad_norm > RELAX_LIMIT * cfg.grad_tol:
            raise
        return exc.best, [
            f"bag {stats.bag_id!r}: Newton stopped at gradient {exc.grad_norm:.2e}, "
            f"above grad_tol {cfg.grad_tol:.1e}"
        ]


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
