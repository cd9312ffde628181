import math
from dataclasses import fields

import numpy as np
import pytest

import maxentmil.solvers as solvers_mod
from maxentmil.basis import make_basis, make_tensor_grid
from maxentmil.experiments import (
    densities_from_matrix,
    derive_seed,
    recovery_threshold,
    rejection_sample,
    synth_lowrank_lambda,
)
from maxentmil.lowrank import nuclear_norm, numeric_rank, shrink, soft_threshold
from maxentmil.maxent import (
    BasisGrid,
    NewtonConfig,
    SufficientStats,
    fit_sde,
    kl,
    suff_stats,
)
from maxentmil.solvers import (
    LS_ALPHA,
    TAU_FLOOR,
    CmenaConfig,
    FitReport,
    LambdaMatrix,
    epsilon_bound,
    fit_cmen,
    fit_columns_relaxed,
    fit_rmde,
    g_and_grad,
    line_search,
    lipschitz_tau,
    psi_basis,
    rmde_continuation,
    rmde_cross_validate,
)

NEWTON = NewtonConfig(grad_tol=1e-6)


def soft(z):
    """fit_cmen's prox at dual multiplier z: shrinkage at 1/(tau*z)."""
    return lambda point, tau: shrink(point, 1.0 / (tau * z))


@pytest.fixture(scope="module")
def small_problem(spec2d_mod, grid2d_mod, engine2d_mod):
    """Six bags sampled from a rank-2 truth over the shared 2-d basis."""
    truth = synth_lowrank_lambda(8, 6, 2, seed=derive_seed(42, "truth"))
    densities = densities_from_matrix(truth, spec2d_mod, grid2d_mod, engine=engine2d_mod)
    stats = []
    for i, dens in enumerate(densities):
        samples, _ = rejection_sample(
            dens, spec2d_mod, grid2d_mod, 400, derive_seed(42, "bag", i)
        )
        stats.append(suff_stats(samples, spec2d_mod, truth.bag_ids[i]))
    return truth, stats


@pytest.fixture(scope="module")
def spec2d_mod():
    return make_basis(2, 8, seed=7)


@pytest.fixture(scope="module")
def grid2d_mod(spec2d_mod):
    from maxentmil.basis import Domain

    return make_tensor_grid(Domain(lo=[-3.0, -3.0], hi=[3.0, 3.0]), 64)


@pytest.fixture(scope="module")
def engine2d_mod(spec2d_mod, grid2d_mod):
    return BasisGrid(spec2d_mod, grid2d_mod)


@pytest.fixture(scope="module")
def hat_and_stats(small_problem, spec2d_mod, grid2d_mod, engine2d_mod):
    _, stats = small_problem
    hat = fit_columns_relaxed(stats, spec2d_mod, grid2d_mod, NEWTON, engine=engine2d_mod)[0]
    return hat, stats


class TestFitMde:
    def test_single_bag_reduces_to_fit_sde(self, small_problem, spec2d_mod, grid2d_mod, engine2d_mod):
        _, stats = small_problem
        single, _ = fit_columns_relaxed(
            stats[:1], spec2d_mod, grid2d_mod, NEWTON, engine=engine2d_mod
        )
        direct = fit_sde(stats[0], spec2d_mod, grid2d_mod, NEWTON, engine=engine2d_mod)
        np.testing.assert_allclose(single.data[:, 0], direct.lam, atol=1e-12)

    def test_permutation_permutes_columns(self, small_problem, spec2d_mod, grid2d_mod, engine2d_mod):
        _, stats = small_problem
        a, _ = fit_columns_relaxed(stats, spec2d_mod, grid2d_mod, NEWTON, engine=engine2d_mod)
        b, _ = fit_columns_relaxed(
            stats[::-1], spec2d_mod, grid2d_mod, NEWTON, engine=engine2d_mod
        )
        np.testing.assert_allclose(a.data, b.data[:, ::-1], atol=1e-12)
        assert a.bag_ids == tuple(reversed(b.bag_ids))

    def test_joint_objective_is_sum_of_minima(self, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod):
        hat, stats = hat_and_stats
        from maxentmil.maxent import sde_objective

        total = sum(
            sde_objective(hat.data[:, i], s, spec2d_mod, grid2d_mod, engine=engine2d_mod)
            for i, s in enumerate(stats)
        )
        prob = solvers_mod._JointProblem(engine2d_mod, stats)
        assert prob.nll_and_grad(hat.data)[0] == pytest.approx(total, abs=1e-10)

    def test_aggregated_failure_lists_bags(self, small_problem, spec2d_mod, grid2d_mod, engine2d_mod, monkeypatch):
        from maxentmil.errors import ConvergenceError

        _, stats = small_problem
        monkeypatch.setattr(NewtonConfig, "max_iters", 1)
        strict = NewtonConfig(grad_tol=1e-14)
        with pytest.raises(ConvergenceError) as err:
            fit_columns_relaxed(stats, spec2d_mod, grid2d_mod, strict, engine=engine2d_mod)
        assert len(err.value.failed_bag_ids) == len(stats)


class TestDefaultAnchor:
    @pytest.mark.parametrize(
        "solve",
        [
            fit_cmen,
            lambda *a, **k: fit_rmde(*a, 1.0, **k),
            rmde_continuation,
            lambda *a, **k: rmde_cross_validate(*a, [1.0], 0, **k),
        ],
        ids=["fit_cmen", "fit_rmde", "rmde_continuation", "rmde_cross_validate"],
    )
    def test_relaxation_notes_reach_the_report(self, solve, spec2d_mod, grid2d_mod, engine2d_mod, monkeypatch):
        # Bags whose four Newton steps stop above grad_tol 1e-12: without
        # an anchor the solver fits it as the column fitter does, keeping
        # each bag's best iterate, and reports each note instead of raising.
        rng = np.random.default_rng(12345)
        stats = [
            suff_stats(rng.uniform(-2.9, 2.9, size=(400, 2)), spec2d_mod, f"s{i}")
            for i in range(4)
        ]
        monkeypatch.setattr(CmenaConfig, "max_outer", 2)
        monkeypatch.setattr(CmenaConfig, "max_inner", 5)
        monkeypatch.setattr(NewtonConfig, "max_iters", 4)
        newton = NewtonConfig(grad_tol=1e-12)
        _, notes = fit_columns_relaxed(stats, spec2d_mod, grid2d_mod, newton, engine=engine2d_mod)
        assert notes
        _, report = solve(stats, spec2d_mod, grid2d_mod, newton=newton, engine=engine2d_mod)
        assert report.warnings[: len(notes)] == notes


@pytest.mark.parametrize(
    "solve",
    [
        lambda *a, lambda_hat, **k: fit_rmde(*a, 5.0, init=lambda_hat, **k),
        rmde_continuation,
        lambda *a, **k: rmde_cross_validate(*a, [0.1, 10.0], 0, **k),
    ],
    ids=["fit_rmde", "rmde_continuation", "rmde_cross_validate"],
)
def test_rmde_reports_count_kernel_calls(solve, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod, monkeypatch):
    # As for fit_cmen, the report's kernel_calls equals the calls of the
    # two likelihood kernels the engine saw: every stage of the
    # continuation, and every training-split fit, held-out scoring and the
    # refit of the cross-validation.
    hat, stats = hat_and_stats
    calls = {"log_partition_many": 0, "logz_and_mean_many": 0}
    for name in calls:

        def counting(data, original=getattr(engine2d_mod, name), name=name):
            calls[name] += 1
            return original(data)

        monkeypatch.setattr(engine2d_mod, name, counting)
    _, report = solve(
        stats, spec2d_mod, grid2d_mod, newton=NEWTON, engine=engine2d_mod, lambda_hat=hat
    )
    assert report.probes is None
    assert report.kernel_calls == sum(calls.values()) > 0


class TestFitReport:
    def test_to_dict_keys_are_the_fields(self):
        assert list(FitReport().to_dict()) == [f.name for f in fields(FitReport)]


class TestGAndGrad:
    def test_zero_at_ml_estimate(self, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod):
        hat, stats = hat_and_stats
        g, grad = g_and_grad(hat, hat, stats, spec2d_mod, grid2d_mod, engine=engine2d_mod)
        assert abs(g) <= 1e-8
        assert np.abs(grad).max() <= 10 * NEWTON.grad_tol

    def test_matches_sum_of_closed_form_kls(self, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod, rng):
        hat, stats = hat_and_stats
        other = LambdaMatrix(
            data=hat.data + 0.3 * rng.standard_normal(hat.data.shape),
            bag_ids=hat.bag_ids,
        )
        g, _ = g_and_grad(other, hat, stats, spec2d_mod, grid2d_mod, engine=engine2d_mod)
        hat_densities = densities_from_matrix(hat, spec2d_mod, grid2d_mod, engine=engine2d_mod)
        other_densities = densities_from_matrix(other, spec2d_mod, grid2d_mod, engine=engine2d_mod)
        total = sum(
            s.n * kl(hd, od)
            for s, hd, od in zip(stats, hat_densities, other_densities)
        )
        assert g == pytest.approx(total, abs=1e-9 * max(1, abs(total)))

    def test_gradient_matches_finite_differences(self, engine2d_mod, spec2d_mod, grid2d_mod):
        rng = np.random.default_rng(9)
        stats = [
            SufficientStats(
                bag_id=f"b{i}",
                n=5 + i,
                phi_bar=engine2d_mod.moments(rng.uniform(-0.6, 0.6, 8))[1],
            )
            for i in range(3)
        ]
        hat = fit_columns_relaxed(stats, spec2d_mod, grid2d_mod, NEWTON, engine=engine2d_mod)[0]
        point = LambdaMatrix(
            data=hat.data + 0.2 * rng.standard_normal((8, 3)), bag_ids=hat.bag_ids
        )
        _, grad = g_and_grad(point, hat, stats, spec2d_mod, grid2d_mod, engine=engine2d_mod)
        step = 1e-5
        for i in range(8):
            for j in range(3):
                bump = np.zeros((8, 3))
                bump[i, j] = step
                gp, _ = g_and_grad(
                    LambdaMatrix(data=point.data + bump, bag_ids=point.bag_ids),
                    hat, stats, spec2d_mod, grid2d_mod, engine=engine2d_mod,
                )
                gm, _ = g_and_grad(
                    LambdaMatrix(data=point.data - bump, bag_ids=point.bag_ids),
                    hat, stats, spec2d_mod, grid2d_mod, engine=engine2d_mod,
                )
                assert (gp - gm) / (2 * step) == pytest.approx(
                    grad[i, j], abs=1e-4 * max(1, abs(grad[i, j]))
                )


class TestBounds:
    def test_epsilon_reference_values(self):
        assert epsilon_bound(50, 20, 1.0) == 500.0
        assert epsilon_bound(5, 10, 2.0) == 50.0

    def test_epsilon_linear_in_a(self):
        assert epsilon_bound(7, 12, 2.0) == 2 * epsilon_bound(7, 12, 1.0)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            epsilon_bound(0, 10, 1.0)

    def test_lipschitz_values(self):
        mk = lambda n, i: SufficientStats(bag_id=f"b{i}", n=n, phi_bar=np.zeros(10))
        assert lipschitz_tau([mk(1, i) for i in range(4)], 10) == 10.0
        assert lipschitz_tau([mk(n, n) for n in (1, 2, 3, 4, 5)], 10) == 50.0

    def test_empirical_gradient_ratio_below_tau(self, spec2d_mod, grid2d_mod, engine2d_mod):
        rng = np.random.default_rng(11)
        ns = [3, 7, 2, 9, 5]
        stats = [
            SufficientStats(
                bag_id=f"b{i}",
                n=n,
                phi_bar=engine2d_mod.moments(rng.uniform(-0.6, 0.6, 8))[1],
            )
            for i, n in enumerate(ns)
        ]
        hat = fit_columns_relaxed(stats, spec2d_mod, grid2d_mod, NEWTON, engine=engine2d_mod)[0]
        tau = lipschitz_tau(stats, 8)
        for _ in range(100):
            a = hat.data + rng.standard_normal((8, 5))
            b = hat.data + rng.standard_normal((8, 5))
            _, ga = g_and_grad(LambdaMatrix(data=a, bag_ids=hat.bag_ids), hat, stats,
                               spec2d_mod, grid2d_mod, engine=engine2d_mod)
            _, gb = g_and_grad(LambdaMatrix(data=b, bag_ids=hat.bag_ids), hat, stats,
                               spec2d_mod, grid2d_mod, engine=engine2d_mod)
            ratio = np.linalg.norm(ga - gb) / np.linalg.norm(a - b)
            assert ratio <= tau


class TestProxStep:
    """line_search's candidate, both solvers' step: a gradient move by
    1/tau, then the prox; from tau_prev = inf its one probe is at tau_lip."""

    @staticmethod
    def step(bar, grad, z, tau):
        def flat(y):
            return 0.0, np.zeros_like(y)

        tau_out, out, _, _, _, _, probes = line_search(
            bar, soft(z), math.inf, tau, flat, 0.0, grad
        )
        assert probes == 1 and tau_out == tau
        return out

    def test_zero_gradient_huge_z_is_identity(self, hat_and_stats):
        hat, _ = hat_and_stats
        out = self.step(hat.data, np.zeros(hat.data.shape), 1e12, 100.0)
        np.testing.assert_allclose(out, hat.data, atol=1e-8)

    def test_zero_gradient_tiny_z_zeroes(self, hat_and_stats):
        hat, _ = hat_and_stats
        out = self.step(hat.data, np.zeros(hat.data.shape), 1e-12, 1.0)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_composition_of_cited_formulas(self, hat_and_stats, rng):
        hat, _ = hat_and_stats
        grad = rng.standard_normal(hat.data.shape)
        z, tau = 0.7, 3.0
        out = self.step(hat.data, grad, z, tau)
        expected = soft_threshold(hat.data - grad / tau, 1.0 / (tau * z))
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestLineSearch:
    """Constructed quadratic: g(Y) = curv/2 |Y - A|_F^2, whose majorization
    holds exactly when tau >= curv."""

    def setup_quadratic(self, rng, curv):
        a = rng.standard_normal((5, 4))
        bar = rng.standard_normal((5, 4))

        def g_and_grad(y):
            return 0.5 * curv * float(np.linalg.norm(y - a) ** 2), curv * (y - a)

        g_bar, grad_bar = g_and_grad(bar)
        return bar, g_and_grad, g_bar, grad_bar

    def test_accepts_within_one_alpha_factor(self, rng):
        # The first probe sits just below the curvature and fails; one
        # growth by 1/LS_ALPHA clears it.
        curv = 2.0
        bar, g_and_grad, g_bar, grad_bar = self.setup_quadratic(rng, curv)
        tau_prev = 0.9 * curv / LS_ALPHA
        tau, _, _, ok, _, _, probes = line_search(
            bar, soft(1.0), tau_prev, 100.0, g_and_grad, g_bar, grad_bar
        )
        assert ok and probes == 2
        assert curv <= tau <= curv / LS_ALPHA + 1e-9

    def test_exact_curvature_start_keeps_tau(self, rng):
        # A first probe at or above the curvature is accepted as is.
        curv = 3.0
        bar, g_and_grad, g_bar, grad_bar = self.setup_quadratic(rng, curv)
        for start in (curv, 8.0):
            tau, _, _, ok, _, _, probes = line_search(
                bar, soft(1.0), start / LS_ALPHA, 100.0, g_and_grad, g_bar, grad_bar
            )
            assert ok and probes == 1 and tau == pytest.approx(start)

    def test_accepted_candidate_satisfies_majorization(self, rng):
        curv = 2.0
        bar, g_and_grad, g_bar, grad_bar = self.setup_quadratic(rng, curv)
        for tau_prev in (1e-3, 0.5, 10.0):
            tau, cand, _, ok, g_cand, _, _ = line_search(
                bar, soft(0.5), tau_prev, 100.0, g_and_grad, g_bar, grad_bar
            )
            diff = cand - bar
            quad = g_bar + float(np.vdot(diff, grad_bar)) + 0.5 * tau * float(
                np.vdot(diff, diff)
            )
            assert ok and g_cand <= quad + 1e-9

    def test_floor_bounds_shrinkage(self, rng):
        # A flat objective accepts every probe: tau still stays within
        # [TAU_FLOOR * tau_lip, tau_lip] from any previous tau.
        bar, _, _, _ = self.setup_quadratic(rng, 1.0)
        tau_lip = 64.0

        def flat(y):
            return 0.0, np.zeros_like(y)

        for tau_prev, expected in ((1e-9, TAU_FLOOR * tau_lip), (1e9, tau_lip)):
            tau, _, _, ok, _, _, probes = line_search(
                bar, soft(1.0), tau_prev, tau_lip, flat, 0.0, np.zeros_like(bar)
            )
            assert ok and probes == 1 and tau == expected

    def test_returns_value_and_gradient_at_candidate(self, hat_and_stats, engine2d_mod, rng):
        # The accepted probe's g and gradient are those of the candidate,
        # bit for bit, so the next step can use them as they are; its
        # returned spectrum is the candidate's singular values.
        hat, stats = hat_and_stats
        prob = solvers_mod._JointProblem(engine2d_mod, stats)
        bar = hat.data + 0.3 * rng.standard_normal(hat.data.shape)
        g_bar, grad_bar = prob.nll_and_grad(bar)
        tau_lip = lipschitz_tau(stats, 8)
        for tau_prev in (TAU_FLOOR * tau_lip, 0.1 * tau_lip):
            _, cand, s_cand, ok, g_cand, grad_cand, _ = line_search(
                bar, soft(0.5), tau_prev, tau_lip, prob.nll_and_grad, g_bar, grad_bar
            )
            g_ref, grad_ref = prob.nll_and_grad(cand)
            assert ok
            assert g_cand == g_ref
            np.testing.assert_array_equal(grad_cand, grad_ref)
            np.testing.assert_allclose(
                s_cand, np.linalg.svd(cand, compute_uv=False), rtol=0, atol=1e-10
            )

    def test_flag_false_only_when_tau_lip_fails(self, rng):
        curv = 5.0
        bar, g_and_grad, g_bar, grad_bar = self.setup_quadratic(rng, curv)
        # tau_lip below the curvature: every probe fails, the last at tau_lip.
        tau, _, _, ok, _, _, _ = line_search(
            bar, soft(1.0), 1e-6, 4.0, g_and_grad, g_bar, grad_bar
        )
        assert not ok and tau == 4.0
        # tau_lip at or above it: growth from the floor always ends accepted.
        for tau_lip in (curv, 50.0, 5e4):
            tau, _, _, ok, _, _, _ = line_search(
                bar, soft(1.0), 1e-6, tau_lip, g_and_grad, g_bar, grad_bar
            )
            assert ok and curv <= tau <= tau_lip


def replay_bracket(report, cfg):
    """Re-derive the dual bracket walk from the traces and check the
    documented semantics: doubling until feasible, then strict halving."""
    z_lo, z_hi = 0.0, 1.0
    bracketed = False
    for z, c in zip(report.z_trace, report.constraint_trace):
        if not bracketed:
            assert z == pytest.approx(z_hi)
        else:
            assert z == pytest.approx(0.5 * (z_lo + z_hi))
        if abs(c) < cfg.cons_tol:
            return
        if c >= 0:
            if bracketed:
                z_lo = z
            else:
                z_hi *= 2
        else:
            if bracketed:
                z_hi = z
            else:
                bracketed = True


class TestFitCmen:
    def test_zero_matrix_when_feasible(self, spec2d_mod, grid2d_mod, engine2d_mod, rng):
        # Bags drawn from the uniform density: the zero matrix is inside
        # the confidence ball, so it is the optimum.
        stats = [
            suff_stats(rng.uniform(-3, 3, size=(200, 2)), spec2d_mod, f"u{i}")
            for i in range(4)
        ]
        sol, report = fit_cmen(stats, spec2d_mod, grid2d_mod, newton=NEWTON, engine=engine2d_mod)
        np.testing.assert_array_equal(sol.data, 0.0)
        assert report.objective_trace == [0.0]

    def test_tiny_epsilon_returns_ml_estimate(self, spec2d_mod, grid2d_mod, engine2d_mod):
        # Noise-free low-rank stats: the ML refit is exactly low-rank and a
        # tiny ball pins the solution to it.
        truth = synth_lowrank_lambda(8, 6, 2, seed=3, scale=0.6)
        densities = densities_from_matrix(truth, spec2d_mod, grid2d_mod, engine=engine2d_mod)
        stats = [
            SufficientStats(bag_id=d.bag_id, n=500, phi_bar=d.mean_phi)
            for d in densities
        ]
        newton = NewtonConfig(grad_tol=1e-5)
        hat = fit_columns_relaxed(stats, spec2d_mod, grid2d_mod, newton, engine=engine2d_mod)[0]
        cfg = CmenaConfig(a=1e-7)
        sol, report = fit_cmen(
            stats, spec2d_mod, grid2d_mod, cfg, NEWTON, engine=engine2d_mod, lambda_hat=hat
        )
        assert np.linalg.norm(sol.data - hat.data) <= 1e-2
        assert nuclear_norm(sol.data) == pytest.approx(nuclear_norm(hat.data), rel=1e-2)

    def test_exit_feasibility_and_traces(self, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod):
        hat, stats = hat_and_stats
        cfg = CmenaConfig()
        sol, report = fit_cmen(
            stats, spec2d_mod, grid2d_mod, cfg, NEWTON, engine=engine2d_mod, lambda_hat=hat
        )
        eps = epsilon_bound(len(stats), 8, cfg.a)
        g, _ = g_and_grad(sol, hat, stats, spec2d_mod, grid2d_mod, engine=engine2d_mod)
        assert g <= eps + cfg.cons_tol
        n_out = len(report.z_trace)
        assert (
            len(report.objective_trace)
            == len(report.constraint_trace)
            == len(report.rank_trace)
            == len(report.inner_iters)
            == n_out
        )
        assert not any("majorization" in w for w in report.warnings)

    def test_bracket_replay(self, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod):
        hat, stats = hat_and_stats
        cfg = CmenaConfig()
        _, report = fit_cmen(
            stats, spec2d_mod, grid2d_mod, cfg, NEWTON, engine=engine2d_mod, lambda_hat=hat
        )
        replay_bracket(report, cfg)

    def test_deterministic_traces(self, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod):
        hat, stats = hat_and_stats
        _, r1 = fit_cmen(stats, spec2d_mod, grid2d_mod, newton=NEWTON, engine=engine2d_mod, lambda_hat=hat)
        _, r2 = fit_cmen(stats, spec2d_mod, grid2d_mod, newton=NEWTON, engine=engine2d_mod, lambda_hat=hat)
        assert r1.z_trace == r2.z_trace
        assert r1.objective_trace == r2.objective_trace
        assert r1.constraint_trace == r2.constraint_trace

    def test_one_kernel_call_per_probe(self, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod, monkeypatch):
        # Each probe of each inner solve is one logz_and_mean_many call, and
        # the inner loop never calls log_partition_many; beyond the probes
        # fit_cmen evaluates only its two anchors, zero and lambda_hat. The
        # report's counters equal the calls the engine saw.
        hat, stats = hat_and_stats
        calls = {"log_partition_many": 0, "logz_and_mean_many": 0}
        for name in calls:

            def counting(data, original=getattr(engine2d_mod, name), name=name):
                calls[name] += 1
                return original(data)

            monkeypatch.setattr(engine2d_mod, name, counting)
        solves = []
        original_inner = solvers_mod._cmen_inner

        def recording(*args, **kwargs):
            before = dict(calls)
            out = original_inner(*args, **kwargs)
            solves.append({k: calls[k] - before[k] for k in calls} | {"probes": out[2]})
            return out

        monkeypatch.setattr(solvers_mod, "_cmen_inner", recording)
        _, report = fit_cmen(
            stats, spec2d_mod, grid2d_mod, newton=NEWTON, engine=engine2d_mod, lambda_hat=hat
        )
        assert solves and sum(report.inner_iters) > 0
        for solve in solves:
            assert solve["log_partition_many"] == 0
            assert solve["logz_and_mean_many"] == solve["probes"]
        assert report.probes == sum(s["probes"] for s in solves) >= sum(report.inner_iters)
        assert calls["log_partition_many"] == 0
        assert calls["logz_and_mean_many"] == report.probes + 2
        assert report.kernel_calls == sum(calls.values())

    @pytest.mark.slow
    def test_synthetic_rank_recovery_majority(self):
        # The desk-grid cell (m=20, T=2, n=1000, N=20, 10 reps); the frozen
        # probability is what the seeded pipeline deterministically yields,
        # and exceeds one half (exact recovery in the majority of runs).
        from maxentmil.experiments import PhaseDiagramSpec, run_phase_diagram

        pd = PhaseDiagramSpec(
            n_bags=20, m_values=(20,), t_values=(2,), n_per_bag=1000,
            reps=10, base_seed=0, solver="cmen",
        )
        cell = run_phase_diagram(pd)[0]
        assert cell.recovery_probability == 0.7
        assert cell.recovery_probability > 0.5


class TestFitRmde:
    def test_vanishing_eta_recovers_ml(self, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod):
        hat, stats = hat_and_stats
        sol, _ = fit_rmde(
            stats, spec2d_mod, grid2d_mod, 1e-8, newton=NEWTON, engine=engine2d_mod, init=hat
        )
        assert np.linalg.norm(sol.data - hat.data) <= 1e-3

    def test_huge_eta_zeroes(self, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod):
        hat, stats = hat_and_stats
        tau = lipschitz_tau(stats, 8)
        top = float(np.linalg.svd(hat.data, compute_uv=False)[0])
        sol, _ = fit_rmde(
            stats, spec2d_mod, grid2d_mod, 10 * tau * (top + 1),
            newton=NEWTON, engine=engine2d_mod, init=hat,
        )
        np.testing.assert_allclose(sol.data, 0.0, atol=1e-10)

    def test_objective_nonincreasing(self, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod):
        hat, stats = hat_and_stats
        _, report = fit_rmde(
            stats, spec2d_mod, grid2d_mod, 5.0, newton=NEWTON, engine=engine2d_mod, init=hat
        )
        trace = report.objective_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_prox_stationarity_at_exit(self, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod):
        hat, stats = hat_and_stats
        cfg = CmenaConfig()
        eta = 5.0
        sol, report = fit_rmde(
            stats, spec2d_mod, grid2d_mod, eta, cfg, NEWTON, engine=engine2d_mod, init=hat
        )
        assert report.converged
        prob = solvers_mod._JointProblem(engine2d_mod, stats)
        tau = lipschitz_tau(stats, 8)
        _, grad = prob.nll_and_grad(sol.data)
        step = soft_threshold(sol.data - grad / tau, eta / tau)
        assert np.linalg.norm(step - sol.data) <= cfg.obj_tol

    def test_one_kernel_call_per_iterate(self, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod, monkeypatch):
        # Each candidate's likelihood and gradient come from its probe and
        # serve the next step; only the start needs a call of its own.
        hat, stats = hat_and_stats
        calls = []
        for name in ("log_partition_many", "logz_and_mean_many"):
            original = getattr(engine2d_mod, name)

            def counting(data, original=original):
                calls.append(1)
                return original(data)

            monkeypatch.setattr(engine2d_mod, name, counting)
        _, report = fit_rmde(
            stats, spec2d_mod, grid2d_mod, 5.0, newton=NEWTON, engine=engine2d_mod, init=hat
        )
        assert len(calls) == report.inner_iters[0] + 1
        assert len(report.objective_trace) == len(report.rank_trace) == report.inner_iters[0] + 1

    def test_rmde_steps_through_line_search(self, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod, monkeypatch):
        # Every step is one line_search from tau_prev = inf: a single probe
        # at the Lipschitz bound, returned as is (the fixed 1/tau_lip step).
        hat, stats = hat_and_stats
        steps = []
        original = solvers_mod.line_search

        def recording(*args, **kwargs):
            out = original(*args, **kwargs)
            steps.append((args[2], args[3], out[0], out[6]))
            return out

        monkeypatch.setattr(solvers_mod, "line_search", recording)
        # At eta 20 the solve takes dozens of steps.
        _, report = fit_rmde(
            stats, spec2d_mod, grid2d_mod, 20.0, newton=NEWTON, engine=engine2d_mod, init=hat
        )
        tau_lip = lipschitz_tau(stats, 8)
        assert len(steps) == report.inner_iters[0] > 1
        assert set(steps) == {(math.inf, tau_lip, tau_lip, 1)}

    def test_eta_validation(self, hat_and_stats, spec2d_mod, grid2d_mod):
        _, stats = hat_and_stats
        with pytest.raises(ValueError):
            fit_rmde(stats, spec2d_mod, grid2d_mod, 0.0)


@pytest.mark.parametrize("solver", ["cmen", "rmde"])
def test_each_iterate_decomposed_once(
    hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod, monkeypatch, solver
):
    # The shrinkage that makes an iterate returns its spectrum, and the
    # nuclear norms and ranks are read from it: beyond one SVD per proximal
    # candidate, a solve decomposes only its anchor (CMEN) or start (RMDE).
    hat, stats = hat_and_stats
    calls = []
    original = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    if solver == "cmen":
        _, report = fit_cmen(
            stats, spec2d_mod, grid2d_mod, newton=NEWTON, engine=engine2d_mod, lambda_hat=hat
        )
        candidates = report.probes
    else:
        # At eta 20 the solve takes dozens of steps and its rank drops.
        sol, report = fit_rmde(
            stats, spec2d_mod, grid2d_mod, 20.0, newton=NEWTON, engine=engine2d_mod, init=hat
        )
        candidates = report.inner_iters[0]
    assert candidates > 1
    assert len(calls) == candidates + 1
    if solver == "rmde":
        # The rank read from the shrunk spectrum is the returned matrix's.
        assert report.rank_trace[-1] == numeric_rank(sol.data, solvers_mod.RANK_TOL)


class TestContinuation:
    def test_exactly_four_stages(self, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod):
        hat, stats = hat_and_stats
        _, report = rmde_continuation(
            stats, spec2d_mod, grid2d_mod, newton=NEWTON, engine=engine2d_mod, lambda_hat=hat
        )
        eta0 = float(np.linalg.norm(hat.data) ** 2)
        assert len(report.etas) == 4
        np.testing.assert_allclose(
            report.etas, [eta0, 0.1 * eta0, 0.01 * eta0, 1e-3 * eta0], rtol=1e-9
        )

    @staticmethod
    def desk_instance(seed):
        from maxentmil.experiments import synth_box_grid

        newton = NewtonConfig(grad_tol=1e-5)
        truth = synth_lowrank_lambda(30, 10, 2, seed=derive_seed(seed, "t"))
        spec = make_basis(2, 30, derive_seed(seed, "b"))
        grid = synth_box_grid(3.0, 2, 64)
        engine = BasisGrid(spec, grid)
        densities = densities_from_matrix(truth, spec, grid, engine=engine)
        stats = [
            suff_stats(
                rejection_sample(d, spec, grid, 1000, derive_seed(seed, "i", i))[0],
                spec,
                f"b{i}",
            )
            for i, d in enumerate(densities)
        ]
        hat, _ = fit_columns_relaxed(stats, spec, grid, newton, engine=engine)
        _, report = rmde_continuation(
            stats, spec, grid, newton=newton, engine=engine, lambda_hat=hat
        )
        return report

    def test_stage_one_near_zero_on_overfit_instance(self):
        # Seeded instance whose unrestricted ML estimate has a huge
        # Frobenius norm; the first (largest) eta stage empties it.
        report = self.desk_instance(1)
        assert report.rank_trace[0] == 0
        assert list(report.rank_trace) == sorted(report.rank_trace)
        assert report.rank_trace[-1] == 2  # the true rank reappears

    def test_rank_trace_nondecreasing_down_the_ladder(self):
        report = self.desk_instance(2)
        assert list(report.rank_trace) == sorted(report.rank_trace)


class TestCrossValidation:
    def test_single_eta_returned(self, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod):
        _, stats = hat_and_stats
        _, report = rmde_cross_validate(
            stats, spec2d_mod, grid2d_mod, [0.37], split_seed=0,
            newton=NEWTON, engine=engine2d_mod,
        )
        assert report.etas == [0.37]

    def test_runs_one_fit_per_eta(self, hat_and_stats, spec2d_mod, grid2d_mod, engine2d_mod, monkeypatch):
        _, stats = hat_and_stats
        calls = []
        original = solvers_mod.fit_rmde

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(solvers_mod, "fit_rmde", counting)
        etas = [10.0**k for k in range(-4, 5)]
        rmde_cross_validate(
            stats, spec2d_mod, grid2d_mod, etas, split_seed=1,
            newton=NEWTON, engine=engine2d_mod,
        )
        assert len(calls) == len(etas) + 1  # per-eta train fits plus final refit

    def test_too_few_bags_rejected(self, hat_and_stats, spec2d_mod, grid2d_mod):
        _, stats = hat_and_stats
        with pytest.raises(ValueError):
            rmde_cross_validate(stats[:3], spec2d_mod, grid2d_mod, [1.0], split_seed=0)

    @pytest.mark.slow
    def test_sweep_is_deterministic(self):
        # The whole split/fit/select/refit chain is seed-driven; rerunning
        # the sweep reproduces the recovered ranks exactly.
        from maxentmil.experiments import PhaseDiagramSpec, run_phase_diagram

        pd = PhaseDiagramSpec(
            n_bags=12, m_values=(12,), t_values=(2,), n_per_bag=400,
            reps=5, base_seed=7, solver="rmde-cv",
        )
        first = run_phase_diagram(pd)[0]
        second = run_phase_diagram(pd)[0]
        assert first.ranks == second.ranks
        assert first.recovery_probability == second.recovery_probability


class TestPsiBasis:
    def test_full_rank_exact_reconstruction(self, hat_and_stats, spec2d_mod, rng):
        hat, _ = hat_and_stats
        r = numeric_rank(hat.data, 1e-8)
        beta, psi = psi_basis(hat, spec2d_mod, r)
        for _ in range(100):
            x = rng.uniform(-3, 3, 2)
            feats = spec2d_mod.evaluate(x[None, :])[0]
            direct = hat.data.T @ feats
            reduced = beta.T @ psi.evaluate(x)
            np.testing.assert_allclose(reduced, direct, atol=1e-8)

    def test_rank_two_truth(self, spec2d_mod, rng):
        truth = synth_lowrank_lambda(8, 6, 2, seed=5)
        beta, psi = psi_basis(truth, spec2d_mod, 2)
        for _ in range(20):
            x = rng.uniform(-3, 3, 2)
            feats = spec2d_mod.evaluate(x[None, :])[0]
            np.testing.assert_allclose(
                beta.T @ psi.evaluate(x), truth.data.T @ feats, atol=1e-6
            )

    def test_k_bounds(self, hat_and_stats, spec2d_mod):
        hat, _ = hat_and_stats
        with pytest.raises(ValueError):
            psi_basis(hat, spec2d_mod, 0)
        with pytest.raises(ValueError):
            psi_basis(hat, spec2d_mod, hat.m + 1)
