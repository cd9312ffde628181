"""Joint estimation over all bags.

The solvers share one geometry: the (m, N) parameter matrix whose column
i is bag i's density parameter.

* fit_columns_relaxed — column-wise maximum likelihood (separable Newton
                  fits by fit_sde_relaxed); the one column fitter, and the
                  anchor or start of every solver below that is not handed one.
* fit_rmde      — likelihood plus eta * nuclear norm, by proximal gradient.
* rmde_continuation — fit_rmde down a geometric eta schedule.
* rmde_cross_validate — fit_rmde at the eta that wins a held-out bag split.
* fit_cmen      — nuclear-norm minimization subject to the likelihood
                  confidence constraint g(L) <= eps, by proximal gradient
                  with an adaptive step nested in a bisection on the dual
                  multiplier z (CMENA).
* fit_joint     — the one dispatch: fits the column-wise ML matrix once and
                  runs the named solver from it.

g(L) is the total KL divergence of the columns from the unrestricted ML
estimates, weighted by bag sizes; eps = a*N*m/2 is its parameter-free
in-probability ceiling, so the constraint needs no tuning.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConvergenceError
from .lowrank import shrink, singular_values, svd
from .maxent import (
    BasisGrid,
    NewtonConfig,
    SufficientStats,
    as_engine,
    fit_sde,  # noqa: F401  (an alias perfbench/test_harness.py checks the tracer rewraps)
    fit_sde_relaxed,
)

RANK_TOL = 1e-8  # threshold for the ranks recorded in fit reports

JOINT_SOLVERS = ("mde", "rmde", "rmde-continuation", "rmde-cv", "cmen")

DEFAULT_CV_ETAS = tuple(10.0**k for k in range(-4, 5))

# CMENA step control. Each proximal step first tries tau = LS_ALPHA times
# the previous step's accepted tau (an optimistic, longer step), never below
# TAU_FLOOR times the Lipschitz bound; a rejected probe grows tau back
# toward that bound.
LS_ALPHA = 0.7
TAU_FLOOR = 1e-3


@dataclass(frozen=True)
class LambdaMatrix:
    """Joint parameter matrix; column i belongs to bag_ids[i]."""

    data: np.ndarray  # (m, N)
    bag_ids: tuple[str, ...]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError("data must be an (m, N) matrix")
        if not np.isfinite(data).all():
            raise ValueError("data entries must be finite")
        if data.shape[1] != len(self.bag_ids):
            raise ValueError("one bag id per column required")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "bag_ids", tuple(self.bag_ids))

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n_bags(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class CmenaConfig:
    """The confidence multiplier a (eps = a*N*m/2), the joint solvers' one
    setting. As the paper's CMEN is free of tuning parameters, the rest is
    fixed: the stopping rule (max_outer dual bisection steps of at most
    max_inner proximal steps each; objTol obj_tol, consTol cons_tol), the
    step control (line_search's backtracking from LS_ALPHA times the last
    accepted tau, floored at TAU_FLOOR times the Lipschitz bound) and the
    dual bracket, which starts at [0, 1]."""

    max_outer: ClassVar[int] = 30
    max_inner: ClassVar[int] = 100
    obj_tol: ClassVar[float] = 1e-2
    cons_tol: ClassVar[float] = 1e-1
    a: float = 1.0

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("a must be positive")


@dataclass
class FitReport:
    """Per-run traces and provenance for a joint solve."""

    solver: str = ""
    objective_trace: list = field(default_factory=list)
    constraint_trace: list = field(default_factory=list)
    rank_trace: list = field(default_factory=list)
    z_trace: list = field(default_factory=list)
    inner_iters: list = field(default_factory=list)
    etas: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    converged: bool = True
    wall_time: float = 0.0
    # Work counters: proximal candidates evaluated (fit_cmen), and likelihood-
    # kernel calls, one exp pass each (BasisGrid.exp_pass; all but mde).
    probes: int | None = None
    kernel_calls: int | None = None

    def to_dict(self) -> dict:
        """Every field by name; the solvers fill them with plain Python
        scalars and lists, so the dict is JSON-ready as is."""
        return asdict(self)


class _JointProblem:
    """Batched likelihood terms for a fixed set of bags on one engine."""

    def __init__(self, engine: BasisGrid, stats_list: list[SufficientStats]):
        ms = {s.m for s in stats_list}
        if len(ms) != 1:
            raise ValueError(f"bags disagree on feature count: {sorted(ms)}")
        if ms.pop() != engine.m:
            raise ValueError("stats feature count does not match the basis")
        self.engine = engine
        self.ns = np.array([s.n for s in stats_list], dtype=float)
        self.phi_bars = np.column_stack([s.phi_bar for s in stats_list])
        self.kernel_calls = 0

    @property
    def n_bags(self) -> int:
        return self.ns.shape[0]

    def nll(self, data: np.ndarray):
        """Total scaled negative log-likelihood sum_i n_i (Z_i - l_i.phibar_i)
        from one kernel call (an exp pass), and a function that forms its
        gradient from that pass's means; the function raises once a later
        kernel pass on the thread has run (ExpPass.means)."""
        self.kernel_calls += 1
        kernel_pass = self.engine.exp_pass(data)
        val = float(self.ns @ (kernel_pass.logz - np.einsum("mi,mi->i", data, self.phi_bars)))

        def grad() -> np.ndarray:
            return (kernel_pass.means() - self.phi_bars) * self.ns[None, :]

        return val, grad

    def nll_and_grad(self, data: np.ndarray) -> tuple[float, np.ndarray]:
        """The likelihood and its gradient, from one kernel call."""
        val, grad = self.nll(data)
        return val, grad()


def fit_columns_relaxed(
    stats_list: list[SufficientStats],
    spec,
    grid,
    cfg: NewtonConfig = NewtonConfig(),
    engine: BasisGrid | None = None,
) -> tuple[LambdaMatrix, list[str]]:
    """Unrestricted ML estimate: the objective separates over bags, so each
    column is an independent single-bag fit_sde_relaxed.

    A bag whose Newton fit stops above the requested gradient tolerance
    keeps its best iterate instead of failing the whole matrix, and its
    note is returned. Raises one ConvergenceError listing every bag whose
    fit missed by more than maxent.RELAX_LIMIT times the tolerance.
    """
    if not stats_list:
        raise ValueError("need at least one bag")
    eng = as_engine(spec, grid, engine)
    columns, notes, failed, reasons = [], [], [], []
    for stats in stats_list:
        try:
            dens, bag_notes = fit_sde_relaxed(stats, spec, grid, cfg, engine=eng)
        except ConvergenceError as exc:
            failed.append(stats.bag_id)
            reasons.append(str(exc))
            continue
        columns.append(dens.lam)
        notes.extend(bag_notes)
    if failed:
        raise ConvergenceError(
            f"{len(failed)} bag(s) failed to converge: {'; '.join(reasons)}",
            failed_bag_ids=failed,
        )
    matrix = LambdaMatrix(
        data=np.column_stack(columns), bag_ids=tuple(s.bag_id for s in stats_list)
    )
    return matrix, notes


def _anchor(stats_list, spec, grid, newton, eng, given):
    """The column-wise ML matrix a solver starts from: given as is (no
    notes), or fitted by fit_columns_relaxed with its notes."""
    if given is not None:
        return given, []
    return fit_columns_relaxed(stats_list, spec, grid, newton, engine=eng)


def g_and_grad(
    Lambda: LambdaMatrix,
    lambda_hat: LambdaMatrix,
    stats_list: list[SufficientStats],
    spec,
    grid,
    engine: BasisGrid | None = None,
) -> tuple[float, np.ndarray]:
    """Constraint value g(L) = sum_i n_i KL(p_hat_i || p_i) and its gradient.

    Uses the moment-matching identity of the ML estimate (its model feature
    mean equals phi_bar), so column i of the gradient is
    n_i (E_{p_i}[phi] - phi_bar_i).
    """
    if Lambda.data.shape != lambda_hat.data.shape:
        raise ValueError("Lambda and lambda_hat shapes differ")
    eng = as_engine(spec, grid, engine)
    prob = _JointProblem(eng, stats_list)
    if Lambda.m != eng.m:
        raise ValueError("Lambda row count does not match the basis")
    val, grad = prob.nll_and_grad(Lambda.data)
    return val - prob.nll_and_grad(lambda_hat.data)[0], grad


def epsilon_bound(n_bags: int, m: int, a: float) -> float:
    """Parameter-free confidence radius a * n_bags * m / 2 for the total
    weighted KL estimation error."""
    if n_bags < 1 or m < 1 or a <= 0:
        raise ValueError(f"n_bags, m and a must be positive, got {n_bags}, {m} and {a}")
    return a * n_bags * m / 2.0


def lipschitz_tau(stats_list: list[SufficientStats], m: int) -> float:
    """Gradient-Lipschitz bound m * max_i n_i for the constraint gradient.

    Each bag's Hessian block is n_i * Cov[phi] with Cov[phi] <= m*I
    (features are bounded by 1), and the blocks are decoupled, so the
    largest block bounds the whole map.
    """
    if not stats_list:
        raise ValueError("need at least one bag")
    return float(m * max(s.n for s in stats_list))


def _majorized(g_cand, g_bar, diff, grad_bar, tau) -> bool:
    quad = g_bar + float(np.vdot(diff, grad_bar)) + 0.5 * tau * float(
        np.vdot(diff, diff)
    )
    return g_cand <= quad + 1e-9 * max(1.0, abs(g_bar))


def line_search(
    lambda_bar: np.ndarray,
    prox,
    tau_prev: float,
    tau_lip: float,
    g_and_grad,
    g_bar: float,
    grad_bar: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, bool, float, np.ndarray, int]:
    """One backtracking proximal step from lambda_bar, both solvers' step.

    The first probe is optimistic: tau = max(LS_ALPHA * tau_prev,
    TAU_FLOOR * tau_lip), at most tau_lip (tau_lip itself for tau_prev =
    inf). Each probe forms the candidate prox(lambda_bar - grad_bar / tau,
    tau) -> (matrix, its singular values) and evaluates g there with one
    g_and_grad call, which returns g and a function giving the gradient at
    the candidate (_JointProblem.nll: g from one exp pass, the gradient
    from that pass's means). The first candidate with g(cand) <=
    Q(cand, lambda_bar) is accepted. The test reads only g, so only the
    returned candidate's gradient is formed, before any other evaluation.
    A rejected probe grows tau toward tau_lip by a factor that starts at
    1/LS_ALPHA and squares each round. Backtracking from an optimistic
    step as in Beck & Teboulle (2009) and Scheinberg, Goldfarb & Bai
    (2014).

    Returns (accepted tau, accepted candidate, its singular values, whether
    it satisfies the majorization, g and its gradient at the candidate,
    probes made). The flag is False only if the candidate at tau_lip
    itself fails, which then is the one returned.
    """
    if tau_prev <= 0 or tau_lip <= 0:
        raise ValueError("tau_prev and tau_lip must be positive")
    tau = min(max(LS_ALPHA * tau_prev, TAU_FLOOR * tau_lip), tau_lip)
    grow = 1.0 / LS_ALPHA
    probes = 0
    while True:
        cand, s_cand = prox(lambda_bar - grad_bar / tau, tau)
        g_cand, grad_at = g_and_grad(cand)
        probes += 1
        ok = _majorized(g_cand, g_bar, cand - lambda_bar, grad_bar, tau)
        if ok or tau >= tau_lip:
            return tau, cand, s_cand, ok, g_cand, grad_at(), probes
        tau = min(tau * grow, tau_lip)
        grow = grow * grow


def _descend(
    state: tuple,
    prox,
    g_of,
    tau_lip: float,
    max_steps: int,
    stop,
    fixed_step: bool = False,
) -> tuple[tuple, int, int, bool, bool]:
    """Proximal gradient from state = (iterate, its singular values, tau,
    g, gradient), the one loop of both joint solvers.

    Each step is one line_search from the current iterate, starting from
    the state's accepted tau, or, with fixed_step, from tau_prev = inf (one
    probe at tau_lip). The accepted probe's g and gradient serve the next
    step, so a step costs one likelihood-kernel call (an exp pass) per
    probe plus one means product for the candidate it returns. Stops once
    stop(old state, new state) holds, or after max_steps steps. Returns the
    last state, the step and probe counts, whether every accepted step
    passed the majorization check, and whether the stop rule held.
    """
    all_ok, probes = True, 0
    for steps in range(1, max_steps + 1):
        cur, _, tau, g_cur, grad_cur = state
        tau, cand, s_cand, ok, g_cand, grad_cand, n = line_search(
            cur, prox, math.inf if fixed_step else tau, tau_lip, g_of, g_cur, grad_cur
        )
        probes += n
        all_ok = all_ok and ok
        new = (cand, s_cand, tau, g_cand, grad_cand)
        if stop(state, new):
            return new, steps, probes, all_ok, True
        state = new
    return state, max_steps, probes, all_ok, False


def fit_cmen(
    stats_list: list[SufficientStats],
    spec,
    grid,
    cfg: CmenaConfig = CmenaConfig(),
    newton: NewtonConfig = NewtonConfig(),
    engine: BasisGrid | None = None,
    lambda_hat: LambdaMatrix | None = None,
) -> tuple[LambdaMatrix, FitReport]:
    """Minimize the nuclear norm subject to g(L) <= eps = a*N*m/2.

    Outer loop bisects the dual multiplier z (doubling the upper end first
    until a feasible inner solution brackets the boundary); the inner solve
    at each z is _descend on |L|_* + z*(g(L) - eps). Primal warm
    state persists per bracket endpoint — the ML estimate anchors the high
    end, the zero matrix the low end — and each midpoint is solved from
    both on half budgets, keeping the lower-Lagrangian result. Terminates
    when |g - eps| < cons_tol or the budgets run out, returning the
    feasible iterate with the smallest nuclear norm either way; budget
    exhaustion is flagged in the report, never raised. Without lambda_hat
    the anchor is fitted by fit_columns_relaxed, and its notes open the
    report's warnings.
    """
    start = time.perf_counter()
    eng = as_engine(spec, grid, engine)
    lambda_hat, notes = _anchor(stats_list, spec, grid, newton, eng, lambda_hat)
    prob = _JointProblem(eng, stats_list)
    eps = epsilon_bound(prob.n_bags, eng.m, cfg.a)
    tau0 = lipschitz_tau(stats_list, eng.m)
    report = FitReport(solver="cmen", warnings=notes)

    nll_hat, grad_hat = prob.nll_and_grad(lambda_hat.data)

    def g_of(data):
        nll, grad = prob.nll(data)
        return nll - nll_hat, grad

    zero = np.zeros_like(lambda_hat.data)
    nll_zero, grad_zero = prob.nll_and_grad(zero)
    g_zero = nll_zero - nll_hat
    report.probes = 0
    if g_zero <= eps:
        # The zero matrix is feasible, hence optimal (nuclear norm 0).
        report.objective_trace.append(0.0)
        report.constraint_trace.append(g_zero - eps)
        report.rank_trace.append(0)
        report.z_trace.append(0.0)
        report.inner_iters.append(0)
        report.kernel_calls = prob.kernel_calls
        report.wall_time = time.perf_counter() - start
        return LambdaMatrix(data=zero, bag_ids=lambda_hat.bag_ids), report

    s_hat = singular_values(lambda_hat.data)
    best, best_nuc = lambda_hat.data, float(s_hat.sum())
    z_lo, z_hi = 0.0, 1.0
    # Warm primal state per bracket endpoint: (iterate, its singular values,
    # accepted tau, g, gradient), so no solve evaluates or decomposes its
    # start again. The zero matrix is the exact solution of the z -> 0
    # end; the ML estimate (g = 0) anchors the high end. A midpoint is
    # solved from BOTH endpoints on half budgets and the lower-Lagrangian
    # result wins: the two endpoint families (near-zero vs near-ML boundary
    # solutions) are cheap to approach from opposite sides, and the contest
    # picks the cheap side automatically.
    warm_lo = (zero, np.zeros(min(zero.shape)), tau0, g_zero, grad_zero)
    warm_hi = (lambda_hat.data, s_hat, tau0, 0.0, grad_hat)
    bracketed = False
    converged = False
    for _ in range(cfg.max_outer):
        if bracketed:
            z, budget = 0.5 * (z_lo + z_hi), max(1, cfg.max_inner // 2)
            starts = (warm_lo, warm_hi)
        else:
            z, budget, starts = z_hi, cfg.max_inner, (warm_hi,)

        def prox(point, tau):
            return shrink(point, 1.0 / (tau * z))

        def lagrangian(state):
            return float(state[1].sum()) + z * state[3]

        def stop(old, new):
            # Near-stationary for this z: the iterate stopped moving. Or g
            # and the Lagrangian both stalled; at small z real constraint
            # progress is nearly invisible in the Lagrangian alone, so the
            # stall must be joint.
            moved = float(np.linalg.norm(new[0] - old[0]))
            if moved <= 1e-5 * max(1.0, float(np.linalg.norm(old[0]))):
                return True
            return (
                abs(new[3] - old[3]) < 0.1 * cfg.cons_tol
                and lagrangian(old) - lagrangian(new) < cfg.obj_tol
            )

        trials = [_descend(warm, prox, g_of, tau0, budget, stop) for warm in starts]
        # The lower Lagrangian nuc + z*(g - eps) wins, the first on ties.
        state, _, _, ls_ok, _ = min(trials, key=lambda t: t[0][1].sum() + z * (t[0][3] - eps))
        sol, spectrum, _, gval, _ = state
        nuc = float(spectrum.sum())
        steps = sum(t[1] for t in trials)
        report.probes += sum(t[2] for t in trials)
        report.objective_trace.append(nuc)
        report.constraint_trace.append(gval - eps)
        report.rank_trace.append(int((spectrum > RANK_TOL).sum()))
        report.z_trace.append(z)
        report.inner_iters.append(steps)
        if not ls_ok:
            report.warnings.append(f"majorization check failed at z={z:.6g}")
        feasible_tol = gval <= eps + cfg.cons_tol
        if feasible_tol and nuc < best_nuc:
            best, best_nuc = sol, nuc
        if abs(gval - eps) < cfg.cons_tol:
            converged = True
            break
        if gval - eps >= 0:
            if bracketed:
                z_lo, warm_lo = z, state
            else:
                z_hi *= 2.0
                warm_hi = state
        else:
            # Unbracketed, z is z_hi already.
            z_hi, warm_hi, bracketed = z, state, True
    if not converged:
        report.converged = False
        report.warnings.append(
            "outer budget exhausted before |g - eps| < cons_tol; "
            "returning the best feasible iterate"
        )
    report.kernel_calls = prob.kernel_calls
    report.wall_time = time.perf_counter() - start
    return LambdaMatrix(data=best, bag_ids=lambda_hat.bag_ids), report


def fit_rmde(
    stats_list: list[SufficientStats],
    spec,
    grid,
    eta: float,
    cfg: CmenaConfig = CmenaConfig(),
    newton: NewtonConfig = NewtonConfig(),
    engine: BasisGrid | None = None,
    init: LambdaMatrix | None = None,
) -> tuple[LambdaMatrix, FitReport]:
    """Proximal gradient on the likelihood plus eta * nuclear norm.

    Fixed step 1/tau with tau the Lipschitz bound, so every step descends
    the penalized objective: _descend with fixed_step, each step a
    line_search from tau_prev = inf, whose one probe is at tau. Stops when
    the iterate displacement (equal to the prox-stationarity residual, by
    non-expansiveness) is within obj_tol; the stop rule traces every
    iterate. Each iterate is evaluated once (its probe's likelihood
    and gradient serve the next step) and decomposed once (the start here,
    the rest by the shrinkage that makes them); its singular values give
    both the nuclear norm and the traced rank.
    Without init the start is fit_columns_relaxed's matrix, and its notes
    open the report's warnings.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    start = time.perf_counter()
    eng = as_engine(spec, grid, engine)
    init, notes = _anchor(stats_list, spec, grid, newton, eng, init)
    prob = _JointProblem(eng, stats_list)
    tau = lipschitz_tau(stats_list, eng.m)
    report = FitReport(solver="rmde", etas=[eta], warnings=notes)

    def trace(nll, s):
        report.objective_trace.append(nll + eta * float(s.sum()))
        report.rank_trace.append(int((s > RANK_TOL).sum()))

    def prox(point, tau):
        return shrink(point, eta / tau)

    def stop(old, new):
        trace(new[3], new[1])
        return float(np.linalg.norm(new[0] - old[0])) <= cfg.obj_tol

    s = singular_values(init.data)
    nll, grad = prob.nll_and_grad(init.data)
    trace(nll, s)
    state, steps, _, _, converged = _descend(
        (init.data, s, tau, nll, grad), prox, prob.nll, tau, cfg.max_inner, stop,
        fixed_step=True,
    )
    report.inner_iters.append(steps)
    if not converged:
        report.converged = False
        report.warnings.append(
            f"prox residual still above obj_tol after {cfg.max_inner} steps"
        )
    report.kernel_calls = prob.kernel_calls
    report.wall_time = time.perf_counter() - start
    return LambdaMatrix(data=state[0], bag_ids=init.bag_ids), report


def rmde_continuation(
    stats_list: list[SufficientStats],
    spec,
    grid,
    cfg: CmenaConfig = CmenaConfig(),
    newton: NewtonConfig = NewtonConfig(),
    engine: BasisGrid | None = None,
    lambda_hat: LambdaMatrix | None = None,
) -> tuple[LambdaMatrix, FitReport]:
    """Solve the penalized problem down a geometric eta schedule.

    eta starts at |L_hat|_F^2, decays by 10x per stage, floors at 1e-3 of
    the start, and every stage warm-starts from the previous solution; the
    per-stage rank trace and the stages' summed kernel_calls are kept in
    the report. Without lambda_hat the first stage starts from
    fit_columns_relaxed's matrix, and its notes open the report's warnings.
    """
    start = time.perf_counter()
    eng = as_engine(spec, grid, engine)
    lambda_hat, notes = _anchor(stats_list, spec, grid, newton, eng, lambda_hat)
    eta0 = max(float(np.linalg.norm(lambda_hat.data) ** 2), 1e-12)
    eta_floor = 1e-3 * eta0
    etas = [eta0]
    while etas[-1] > eta_floor * (1.0 + 1e-9):
        etas.append(max(0.1 * etas[-1], eta_floor))
    report = FitReport("rmde-continuation", etas=etas, warnings=notes, kernel_calls=0)
    current = lambda_hat
    for eta in etas:
        current, stage = fit_rmde(
            stats_list, spec, grid, eta, cfg, newton, engine=eng, init=current
        )
        report.objective_trace.append(stage.objective_trace[-1])
        report.rank_trace.append(stage.rank_trace[-1])
        report.inner_iters.append(stage.inner_iters[-1])
        report.warnings.extend(f"eta={eta:.6g}: {w}" for w in stage.warnings)
        report.converged = report.converged and stage.converged
        report.kernel_calls += stage.kernel_calls
    report.wall_time = time.perf_counter() - start
    return current, report


def rmde_cross_validate(
    stats_list: list[SufficientStats],
    spec,
    grid,
    etas: list[float],
    split_seed: int,
    cfg: CmenaConfig = CmenaConfig(),
    newton: NewtonConfig = NewtonConfig(),
    engine: BasisGrid | None = None,
    lambda_hat: LambdaMatrix | None = None,
) -> tuple[LambdaMatrix, FitReport]:
    """Pick eta on a seeded 70/30 bag split, then refit on all bags.

    A held-out bag is scored against its best-matching trained column:
    min over columns of n * (logZ(col) - col . phi_bar). The eta with the
    lowest total held-out score wins (first on ties). Both fits start from
    the column-wise ML matrix (lambda_hat, fitted here when not given);
    its columns are independent, so the training split's start is just
    its training columns. The report is the refit's, with etas [best eta];
    when the anchor was fitted here, its notes open the warnings. Its
    kernel_calls counts every fit and the held-out scoring.
    """
    if not etas:
        raise ValueError("etas must be nonempty")
    n_bags = len(stats_list)
    if n_bags < 4:
        raise ValueError("cross-validation needs at least 4 bags")
    start = time.perf_counter()
    eng = as_engine(spec, grid, engine)
    lambda_hat, notes = _anchor(stats_list, spec, grid, newton, eng, lambda_hat)
    perm = np.random.default_rng(split_seed).permutation(n_bags)
    n_train = min(max(int(round(0.7 * n_bags)), 1), n_bags - 1)
    train = [stats_list[i] for i in perm[:n_train]]
    held = [stats_list[i] for i in perm[n_train:]]
    hat_train = LambdaMatrix(
        data=lambda_hat.data[:, perm[:n_train]], bag_ids=tuple(s.bag_id for s in train)
    )
    errors, kernel_calls = [], 0
    for eta in etas:
        fitted, trained = fit_rmde(
            train, spec, grid, eta, cfg, newton, engine=eng, init=hat_train
        )
        kernel_calls += trained.kernel_calls + 1
        logz = eng.log_partition_many(fitted.data)
        total = 0.0
        for s in held:
            scores = s.n * (logz - fitted.data.T @ s.phi_bar)
            total += float(scores.min())
        errors.append(total)
    best_eta = float(etas[int(np.argmin(errors))])
    final, report = fit_rmde(
        stats_list, spec, grid, best_eta, cfg, newton, engine=eng, init=lambda_hat
    )
    report.solver = "rmde-cv"
    report.warnings[:0] = notes
    report.kernel_calls += kernel_calls
    report.wall_time = time.perf_counter() - start
    return final, report


def fit_joint(
    name: str,
    stats_list: list[SufficientStats],
    spec,
    grid,
    engine: BasisGrid,
    cmena: CmenaConfig,
    newton: NewtonConfig,
    *,
    eta: float = 1.0,
    etas: tuple[float, ...] | list[float] = DEFAULT_CV_ETAS,
    split_seed: int = 0,
) -> tuple[LambdaMatrix, FitReport]:
    """Run the joint solver `name` (one of JOINT_SOLVERS) on the bags.

    Fits the column-wise ML matrix once with fit_columns_relaxed and hands
    it to the solver as its anchor or start; "mde" returns it as is. eta is
    the fixed penalty of "rmde", etas and split_seed drive "rmde-cv". The
    report is the solver's, with wall_time covering the column fits too;
    the column fits' notes are appended to its warnings.
    """
    if name not in JOINT_SOLVERS:
        raise ValueError(f"solver must be one of {JOINT_SOLVERS}, got {name!r}")
    start = time.perf_counter()
    hat, notes = fit_columns_relaxed(stats_list, spec, grid, newton, engine=engine)
    if name == "mde":
        matrix, report = hat, FitReport(solver="mde")
    elif name == "rmde":
        matrix, report = fit_rmde(
            stats_list, spec, grid, eta, cmena, newton, engine=engine, init=hat
        )
    elif name == "rmde-continuation":
        matrix, report = rmde_continuation(
            stats_list, spec, grid, cmena, newton, engine=engine, lambda_hat=hat
        )
    elif name == "rmde-cv":
        matrix, report = rmde_cross_validate(
            stats_list, spec, grid, list(etas), split_seed, cmena, newton,
            engine=engine, lambda_hat=hat,
        )
    else:
        matrix, report = fit_cmen(
            stats_list, spec, grid, cmena, newton, engine=engine, lambda_hat=hat
        )
    report.wall_time = time.perf_counter() - start
    report.warnings.extend(notes)
    return matrix, report


@dataclass(frozen=True)
class PsiBasis:
    """Reduced basis psi_j(x) = u_j . phi(x) from the left singular vectors
    of a fitted parameter matrix."""

    u: np.ndarray  # (m, k)
    spec: object

    @property
    def k(self) -> int:
        return self.u.shape[1]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """k reduced features at one point."""
        x = np.asarray(x, dtype=float)
        return self.spec.evaluate(x[None, :])[0] @ self.u


def psi_basis(
    lambda_star: LambdaMatrix, spec, k: int
) -> tuple[np.ndarray, PsiBasis]:
    """Rank-k reduced representation of every bag's log-density direction.

    Returns coefficients beta (k, N) with beta[j, i] = s_j * v_j[i] and the
    reduced basis, so that sum_j beta[j, i] * psi_j(x) reconstructs
    lambda_i . phi(x) exactly when k equals the rank.
    """
    f = svd(lambda_star.data)
    available = int((f.s > RANK_TOL).sum())
    if k < 1 or k > available:
        raise ValueError(f"k must be in [1, {available}], got {k}")
    beta = f.s[:k, None] * f.v[:, :k].T
    return beta, PsiBasis(u=f.u[:, :k], spec=spec)
