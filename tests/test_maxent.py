import numpy as np
import pytest

import maxentmil.maxent as maxent_mod
from maxentmil.basis import Domain, make_basis, make_tensor_grid
from maxentmil.errors import ConvergenceError
from maxentmil.maxent import (
    RELAX_LIMIT,
    BasisGrid,
    MEDensity,
    NewtonConfig,
    SufficientStats,
    fit_sde,
    fit_sde_relaxed,
    kl,
    suff_stats,
    sym_kl,
)

LOG_VOL = np.log(36.0)


def log_partition(engine, lam):
    return engine.node_probs(np.asarray(lam, dtype=float))[0]


def make_density(lam, engine, spec, bag_id="p"):
    logz, mean, _ = engine.moments(np.asarray(lam, dtype=float))
    return MEDensity(
        bag_id=bag_id, lam=np.asarray(lam, dtype=float), logZ=logz,
        mean_phi=mean, basis_key=spec.key,
    )


class PolyBasis:
    """Test-only feature map [x, x^2] on the line."""

    d = 1
    m = 2
    key = ("poly", 1, 2)

    def evaluate(self, points):
        x = np.asarray(points, dtype=float)[:, 0]
        return np.column_stack([x, x**2])


class TestSuffStats:
    def test_single_instance(self, spec2d):
        st = suff_stats(np.zeros((1, 2)), spec2d, "one")
        np.testing.assert_allclose(st.phi_bar[1::2], 1.0)
        np.testing.assert_allclose(st.phi_bar[0::2], 0.0)
        assert st.n == 1

    def test_duplication_invariance(self, spec2d, rng):
        bag = rng.uniform(-2, 2, size=(40, 2))
        a = suff_stats(bag, spec2d, "a")
        b = suff_stats(np.vstack([bag, bag]), spec2d, "b")
        np.testing.assert_allclose(a.phi_bar, b.phi_bar, atol=1e-14)
        assert b.n == 2 * a.n

    def test_uniform_bag_matches_quadrature_mean(self, spec2d, engine2d, rng):
        bag = rng.uniform(-3, 3, size=(10_000, 2))
        st = suff_stats(bag, spec2d, "u")
        _, mean, _ = engine2d.moments(np.zeros(8))
        assert np.abs(st.phi_bar - mean).max() <= 5.0 / np.sqrt(10_000)

    def test_dimension_mismatch(self, spec2d):
        with pytest.raises(ValueError):
            suff_stats(np.zeros((3, 5)), spec2d, "bad")


class TestLogPartition:
    def test_uniform(self, engine2d):
        assert log_partition(engine2d, np.zeros(8)) == pytest.approx(LOG_VOL)

    def test_logsumexp_lower_bound(self, engine2d, rng):
        lam = rng.uniform(-2, 2, 8)
        scores = engine2d.phi @ lam + engine2d.logw
        assert log_partition(engine2d, lam) >= scores.max()

    def test_against_high_resolution_reference(self):
        # 1-d pair with unit frequency; 4096-node reference quadrature.
        from maxentmil.basis import BasisSpec

        spec = BasisSpec(d=1, m=2, seed=0, freqs=np.array([[1.0]]))
        dom = Domain(lo=[-3.0], hi=[3.0])
        lam = np.array([0.5, 0.0])
        coarse = log_partition(BasisGrid(spec, make_tensor_grid(dom, 64)), lam)
        ref = log_partition(BasisGrid(spec, make_tensor_grid(dom, 4096)), lam)
        assert coarse == pytest.approx(ref, abs=1e-3)

    def test_gauss_legendre_beats_midpoint_on_phase_columns(self):
        # Columns of the phase sweep's cells (m, T) = (40, 2) and (10, 5):
        # against a 1024^2 midpoint reference, the 32^2 Gauss-Legendre logZ
        # is at least ten times closer than the 64^2 midpoint logZ.
        from maxentmil.basis import make_gauss_grid
        from maxentmil.experiments import derive_seed, synth_lowrank_lambda

        box = Domain(lo=[-3.0, -3.0], hi=[3.0, 3.0])
        ref_grid = make_tensor_grid(box, 1024)
        for m, t in ((40, 2), (10, 5)):
            spec = make_basis(2, m, derive_seed(0, m, t, 0, "basis"))
            lam = synth_lowrank_lambda(m, 20, t, derive_seed(0, m, t, 0, "lambda")).data
            # The reference logZ, accumulated over node chunks.
            ref = np.full(lam.shape[1], -np.inf)
            for i in range(0, ref_grid.size, 65536):
                scores = spec.evaluate(ref_grid.nodes[i:i + 65536]) @ lam
                scores += np.log(ref_grid.weights[i:i + 65536])[:, None]
                shift = scores.max(axis=0)
                ref = np.logaddexp(ref, shift + np.log(np.exp(scores - shift).sum(axis=0)))
            gauss = BasisGrid(spec, make_gauss_grid(box, 32)).log_partition_many(lam)
            midpoint = BasisGrid(spec, make_tensor_grid(box, 64)).log_partition_many(lam)
            assert np.abs(gauss - ref).max() < 0.1 * np.abs(midpoint - ref).max()

    def test_no_overflow_for_large_lambda(self, engine2d):
        lam = np.full(8, 125.0)  # l1 norm 1000
        assert np.isfinite(log_partition(engine2d, lam))


class TestDensityMoments:
    def test_sin_means_vanish_for_uniform(self, engine2d):
        _, mean, _ = engine2d.moments(np.zeros(8))
        assert np.abs(mean[0::2]).max() < 1e-12

    def test_variance_bounded_by_one(self, engine2d, rng):
        lam = rng.uniform(-1, 1, 8)
        _, _, cov = engine2d.moments(lam)
        assert np.diag(cov).max() <= 1.0

    def test_cov_psd(self, engine2d, rng):
        lam = rng.uniform(-1, 1, 8)
        _, _, cov = engine2d.moments(lam)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_mean_is_gradient_of_log_partition(self, engine2d, rng):
        lam = rng.uniform(-0.5, 0.5, 8)
        _, mean, _ = engine2d.moments(lam)
        step = 1e-5
        for j in range(8):
            e = np.zeros(8)
            e[j] = step
            fd = (log_partition(engine2d, lam + e) - log_partition(engine2d, lam - e)) / (2 * step)
            assert fd == pytest.approx(mean[j], abs=1e-5)


def reference_log_partition_many(engine, lambdas):
    """The batched logZ in the kernel's node-major order (one row of scores
    per bag), written with one fresh array per step."""
    a = lambdas.T @ engine.phi.T + engine.logw
    shift = a.max(axis=1)
    return shift + np.log(np.exp(a - shift[:, None]).sum(axis=1))


def reference_logz_and_mean_many(engine, lambdas):
    a = lambdas.T @ engine.phi.T + engine.logw
    shift = a.max(axis=1)
    e = np.exp(a - shift[:, None])
    totals = e.sum(axis=1)
    return shift + np.log(totals), (engine.phi.T @ e.T) / totals


class TestBatchedKernels:
    """log_partition_many / logz_and_mean_many compute in a reusable
    workspace; at Q=4096, m=16, N=36 that workspace is 1.15 MB."""

    @pytest.fixture(scope="class")
    def engine(self, box2d):
        return BasisGrid(make_basis(2, 16, seed=3), make_tensor_grid(box2d, 64))

    def test_bytes_match_reference_across_resizes(self, engine):
        rng = np.random.default_rng(0)
        for n in (36, 5, 1, 36):
            lambdas = rng.uniform(-3, 3, size=(16, n))
            logz = engine.log_partition_many(lambdas)
            assert logz.tobytes() == reference_log_partition_many(engine, lambdas).tobytes()
            logz, means = engine.logz_and_mean_many(lambdas)
            ref_logz, ref_means = reference_logz_and_mean_many(engine, lambdas)
            assert logz.tobytes() == ref_logz.tobytes()
            assert means.tobytes() == ref_means.tobytes()

    def test_matches_node_column_formula(self, engine):
        # The (Q, N) formula, one column of scores per bag, normalizing the
        # node weights before the mean: the same sums in another order.
        lambdas = np.random.default_rng(4).uniform(-3, 3, size=(16, 36))
        a = engine.phi @ lambdas + engine.logw[:, None]
        shift = a.max(axis=0)
        e = np.exp(a - shift)
        totals = e.sum(axis=0)
        logz, means = engine.logz_and_mean_many(lambdas)
        np.testing.assert_allclose(logz, shift + np.log(totals), rtol=1e-13)
        np.testing.assert_allclose(engine.log_partition_many(lambdas), logz, rtol=1e-13)
        np.testing.assert_allclose(means, engine.phi.T @ (e / totals), rtol=1e-13)

    @pytest.mark.parametrize("name", ["log_partition_many", "logz_and_mean_many"])
    def test_results_survive_later_calls(self, engine, name):
        def arrays(lambdas):
            out = getattr(engine, name)(lambdas)
            return out if isinstance(out, tuple) else (out,)

        rng = np.random.default_rng(1)
        first = arrays(rng.uniform(-3, 3, size=(16, 36)))
        kept = [a.copy() for a in first]
        second = arrays(rng.uniform(-3, 3, size=(16, 36)))
        for a, copy in zip(first, kept):
            assert a.tobytes() == copy.tobytes()
            assert not any(np.shares_memory(a, b) for b in second)

    @pytest.mark.parametrize("name", ["log_partition_many", "logz_and_mean_many"])
    def test_call_allocates_less_than_one_workspace(self, engine, name):
        import tracemalloc

        kernel = getattr(engine, name)
        lambdas = np.random.default_rng(2).uniform(-3, 3, size=(16, 36))
        kernel(lambdas)  # warm-up: sizes the workspace
        tracemalloc.start()
        try:
            kernel(lambdas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < engine.phi.shape[0] * 36 * 8

    def test_threads_sharing_an_engine_get_reference_bytes(self, engine):
        # The workspace is per thread; a shared one would mix columns
        # between threads once numpy releases the interpreter lock.
        import sys
        import threading

        wrong = []

        def work(n):
            lambdas = np.random.default_rng(n).uniform(-3, 3, size=(16, n))
            expected = reference_logz_and_mean_many(engine, lambdas)
            for _ in range(10):
                got = engine.logz_and_mean_many(lambdas)
                if any(g.tobytes() != e.tobytes() for g, e in zip(got, expected)):
                    wrong.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in (36, 36, 7, 7)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


def objective(engine, st, lam):
    """fit_sde's objective n * (logZ(lam) - lam . phi_bar), from the node
    pass it makes at each trial point."""
    return st.n * (engine.node_probs(lam)[0] - float(lam @ st.phi_bar))


def grad_hess(engine, st, lam):
    """fit_sde's gradient n * (E_p[phi] - phi_bar) and Hessian n * Cov_p[phi]
    (before the ridge), from the calls it makes: the node pass, the mean
    product and the covariance."""
    _, probs = engine.node_probs(lam)
    mean = engine.feature_mean(probs)
    return st.n * (mean - st.phi_bar), st.n * engine.feature_cov(probs, mean)


class TestSdeObjectiveAndDerivatives:
    def test_objective_at_zero(self, engine2d):
        st = SufficientStats(bag_id="b", n=17, phi_bar=np.zeros(8))
        assert objective(engine2d, st, np.zeros(8)) == pytest.approx(17 * LOG_VOL)

    def test_fitted_not_worse_than_zero(self, spec2d, grid2d, engine2d, rng):
        bag = rng.uniform(-1, 1, size=(200, 2))
        st = suff_stats(bag, spec2d, "b")
        fit = fit_sde(st, spec2d, grid2d, engine=engine2d)
        assert objective(engine2d, st, fit.lam) <= objective(engine2d, st, np.zeros(8))

    def test_objective_difference_identity(self, engine2d, rng):
        st = SufficientStats(bag_id="b", n=11, phi_bar=rng.uniform(-0.3, 0.3, 8))
        l1, l2 = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
        lhs = objective(engine2d, st, l1) - objective(engine2d, st, l2)
        rhs = 11 * (
            log_partition(engine2d, l1)
            - log_partition(engine2d, l2)
            - (l1 - l2) @ st.phi_bar
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_objective_convex_along_segments(self, engine2d, rng):
        st = SufficientStats(bag_id="b", n=9, phi_bar=rng.uniform(-0.4, 0.4, 8))
        for _ in range(20):
            l1, l2 = rng.uniform(-1.5, 1.5, 8), rng.uniform(-1.5, 1.5, 8)
            mid = objective(engine2d, st, 0.5 * (l1 + l2))
            ends = 0.5 * (objective(engine2d, st, l1) + objective(engine2d, st, l2))
            assert mid <= ends + 1e-10

    def test_m_mismatch(self, spec2d, grid2d, engine2d):
        st = SufficientStats(bag_id="b", n=3, phi_bar=np.zeros(6))
        with pytest.raises(ValueError, match="m=6"):
            fit_sde(st, spec2d, grid2d, engine=engine2d)

    @pytest.mark.parametrize("trial", range(5))
    def test_grad_hess_match_finite_differences(self, engine2d, trial):
        rng = np.random.default_rng(200 + trial)
        st = SufficientStats(bag_id="b", n=7, phi_bar=rng.uniform(-0.4, 0.4, 8))
        lam = rng.uniform(-0.8, 0.8, 8)
        grad, hess = grad_hess(engine2d, st, lam)
        # The Hessian is symmetric positive semidefinite: the objective is convex.
        np.testing.assert_array_equal(hess, hess.T)
        assert np.linalg.eigvalsh(hess).min() >= -1e-10
        for j in range(8):
            e = np.zeros(8)
            e[j] = 1e-5
            fd = (objective(engine2d, st, lam + e) - objective(engine2d, st, lam - e)) / 2e-5
            assert fd == pytest.approx(grad[j], abs=1e-5 * max(1, abs(grad[j])))
        for j in range(8):
            e = np.zeros(8)
            e[j] = 1e-4
            gp, _ = grad_hess(engine2d, st, lam + e)
            gm, _ = grad_hess(engine2d, st, lam - e)
            np.testing.assert_allclose((gp - gm) / 2e-4, hess[:, j], atol=1e-4)


class TestFitSde:
    def test_uniform_fixed_point(self, spec2d, grid2d, engine2d):
        _, mean, _ = engine2d.moments(np.zeros(8))
        st = SufficientStats(bag_id="u", n=100, phi_bar=mean)
        fit = fit_sde(st, spec2d, grid2d, engine=engine2d)
        assert np.abs(fit.lam).max() <= 1e-6

    def test_objective_monotone(self, spec2d, grid2d, engine2d, rng):
        bag = rng.uniform(-2.5, 0.5, size=(300, 2))
        st = suff_stats(bag, spec2d, "b")
        history = []
        fit_sde(st, spec2d, grid2d, engine=engine2d, history=history)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_moment_matching_tolerance(self, spec2d, grid2d, engine2d, rng):
        bag = rng.uniform(-2, 2, size=(500, 2))
        st = suff_stats(bag, spec2d, "b")
        cfg = NewtonConfig(grad_tol=1e-8)
        fit = fit_sde(st, spec2d, grid2d, cfg, engine=engine2d)
        assert np.abs(fit.mean_phi - st.phi_bar).max() <= 10 * cfg.grad_tol / st.n

    def test_cache_consistency(self, spec2d, grid2d, engine2d, rng):
        bag = rng.uniform(-2, 2, size=(100, 2))
        fit = fit_sde(suff_stats(bag, spec2d, "b"), spec2d, grid2d, engine=engine2d)
        logz, mean, _ = engine2d.moments(fit.lam)
        assert fit.logZ == pytest.approx(logz, abs=1e-12)
        np.testing.assert_allclose(fit.mean_phi, mean, atol=1e-12)

    def test_density_normalized_on_grid(self, spec2d, grid2d, engine2d, rng):
        bag = rng.uniform(-1, 2, size=(150, 2))
        fit = fit_sde(suff_stats(bag, spec2d, "b"), spec2d, grid2d, engine=engine2d)
        logp = engine2d.phi @ fit.lam - fit.logZ
        assert (np.exp(logp) * grid2d.weights).sum() == pytest.approx(1.0, abs=1e-6)

    def test_budget_exhaustion_raises_with_grad_norm(self, spec2d, grid2d, engine2d, rng, monkeypatch):
        bag = rng.uniform(-2.9, 2.9, size=(400, 2))
        st = suff_stats(bag, spec2d, "b")
        monkeypatch.setattr(NewtonConfig, "max_iters", 1)
        with pytest.raises(ConvergenceError) as err:
            fit_sde(st, spec2d, grid2d, NewtonConfig(), engine=engine2d)
        assert err.value.grad_norm is not None and err.value.grad_norm > 0

    def test_relaxed_fit_note_names_best_gradient(self, spec2d, grid2d, engine2d, rng, monkeypatch):
        # Four Newton steps stop above grad_tol 1e-12: the fit returns the
        # best iterate fit_sde kept, and its note names that gradient.
        bag = rng.uniform(-2.9, 2.9, size=(400, 2))
        st = suff_stats(bag, spec2d, "b")
        monkeypatch.setattr(NewtonConfig, "max_iters", 4)
        base = NewtonConfig(grad_tol=1e-12)
        with pytest.raises(ConvergenceError) as err:
            fit_sde(st, spec2d, grid2d, base, engine=engine2d)
        best = err.value.best
        dens, notes = fit_sde_relaxed(st, spec2d, grid2d, base, engine=engine2d)
        assert notes == [
            f"bag 'b': Newton stopped at gradient {err.value.grad_norm:.2e}, "
            "above grad_tol 1.0e-12"
        ]
        np.testing.assert_array_equal(dens.lam, best.lam)
        assert dens.logZ == best.logZ
        np.testing.assert_array_equal(dens.mean_phi, best.mean_phi)
        grad_norm = float(np.abs(st.n * (dens.mean_phi - st.phi_bar)).max())
        assert base.grad_tol < grad_norm == err.value.grad_norm

    def test_relaxed_fit_is_one_newton_pass(self, spec2d, grid2d, engine2d, rng, monkeypatch):
        # A fit that misses grad_tol costs exactly what one strict attempt
        # costs: no second Newton pass. Both start from the engine's cached
        # lam = 0 point, so each pays one node pass per trial point.
        bag = rng.uniform(-2.9, 2.9, size=(400, 2))
        st = suff_stats(bag, spec2d, "b")
        monkeypatch.setattr(NewtonConfig, "max_iters", 4)
        base = NewtonConfig(grad_tol=1e-12)
        fit_sde_relaxed(st, spec2d, grid2d, base, engine=engine2d)  # caches the start
        calls = []
        original = engine2d.node_probs

        def counting(lam):
            calls.append(1)
            return original(lam)

        monkeypatch.setattr(engine2d, "node_probs", counting)
        with pytest.raises(ConvergenceError):
            fit_sde(st, spec2d, grid2d, base, engine=engine2d)
        strict = len(calls)
        calls.clear()
        _, notes = fit_sde_relaxed(st, spec2d, grid2d, base, engine=engine2d)
        assert notes
        assert len(calls) == strict >= 4

    def test_relaxed_fit_raises_beyond_limit(self, spec2d, grid2d, engine2d, rng, monkeypatch):
        # One Newton step leaves the gradient far above RELAX_LIMIT times
        # grad_tol: that is an error, not a note.
        bag = rng.uniform(-2.9, 2.9, size=(400, 2))
        st = suff_stats(bag, spec2d, "b")
        monkeypatch.setattr(NewtonConfig, "max_iters", 1)
        base = NewtonConfig(grad_tol=1e-12)
        with pytest.raises(ConvergenceError) as err:
            fit_sde_relaxed(st, spec2d, grid2d, base, engine=engine2d)
        assert err.value.grad_norm > RELAX_LIMIT * base.grad_tol

    def test_recovers_sampled_truth_moments(self, spec2d, grid2d, engine2d):
        from maxentmil.experiments import rejection_sample

        rng = np.random.default_rng(77)
        lam_true = rng.uniform(-0.8, 0.8, 8)
        truth = make_density(lam_true, engine2d, spec2d, "truth")
        samples, _ = rejection_sample(truth, spec2d, grid2d, 5000, seed=5)
        st = suff_stats(samples, spec2d, "bag")
        fit = fit_sde(st, spec2d, grid2d, engine=engine2d)
        assert np.abs(fit.mean_phi - truth.mean_phi).max() <= 0.05


def eager_fit_sde(stats, engine, cfg, counts):
    """fit_sde's Newton loop as it was before it evaluated lazily: every
    trial point builds logZ, mean and covariance (moments), from a lam = 0
    start computed afresh. Returns ("converged", lam, logZ, mean, history)
    or, on a spent budget, ("best", lam, logZ, mean, history, grad_norm);
    counts["steps"] gets the Newton steps, counts["trials"] the trial
    points."""
    lam = np.zeros(stats.m)
    logz, mean, cov = engine.moments(lam)
    obj = stats.n * (logz - float(lam @ stats.phi_bar))
    history, best = [obj], None
    for it in range(cfg.max_iters + 1):
        grad = stats.n * (mean - stats.phi_bar)
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= cfg.grad_tol:
            return "converged", lam, logz, mean, history
        if best is None or grad_norm < best[0]:
            best = (grad_norm, lam, logz, mean)
        if it == cfg.max_iters:
            break
        counts["steps"] += 1
        hess = stats.n * cov + maxent_mod.HESSIAN_RIDGE * np.eye(stats.m)
        step = np.linalg.solve(hess, -grad)
        slope = float(grad @ step)
        t = 1.0
        for _ in range(60):
            counts["trials"] += 1
            cand = lam + t * step
            logz_c, mean_c, cov_c = engine.moments(cand)
            obj_c = stats.n * (logz_c - float(cand @ stats.phi_bar))
            if obj_c <= obj + maxent_mod.ARMIJO_C * t * slope:
                break
            t *= maxent_mod.BACKTRACK_RHO
        lam, logz, mean, cov, obj = cand, logz_c, mean_c, cov_c, obj_c
        history.append(obj)
    grad_norm, lam, logz, mean = best
    return "best", lam, logz, mean, history, grad_norm


def lazy_fit_sde(stats, spec, grid, cfg, engine):
    """fit_sde's result in eager_fit_sde's layout."""
    history = []
    try:
        dens = fit_sde(stats, spec, grid, cfg, engine=engine, history=history)
    except ConvergenceError as exc:
        best = exc.best
        return "best", best.lam, best.logZ, best.mean_phi, history, exc.grad_norm
    return "converged", dens.lam, dens.logZ, dens.mean_phi, history


def same_bits(a, b):
    assert len(a) == len(b) and a[0] == b[0]
    for x, y in zip(a[1:], b[1:]):
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


def counted_engine(spec, grid, monkeypatch):
    """A fresh engine (no cached start) whose node passes, mean products
    and covariance products are counted."""
    engine = BasisGrid(spec, grid)
    counts = {"node_probs": 0, "feature_mean": 0, "feature_cov": 0}
    for name in counts:

        def counting(*args, original=getattr(engine, name), name=name):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(engine, name, counting)
    return engine, counts


def stalling_bag(rng):
    # test_maxent's stalling bag: 4 Newton steps stop above grad_tol 1e-12.
    return rng.uniform(-2.9, 2.9, size=(400, 2))


def rejecting_bag():
    # A tight cluster: one Newton step of its fit fails the Armijo test once.
    return np.random.default_rng(5).normal((2.0, 0.0), 0.2, size=(300, 2))


class TestLazyNewton:
    """fit_sde evaluates only what each test reads: logZ at every trial
    point, the mean at accepted points, the covariance where a step
    follows, and the lam = 0 start once per engine. Its results are those
    of the eager loop (eager_fit_sde), bit for bit."""

    def bags(self, spec, rng):
        out = [
            rng.uniform(-2, 2, size=(200, 2)),
            rng.normal((1.0, -1.0), 0.5, size=(300, 2)),
            rng.uniform(-1, 2, size=(150, 2)),
            rejecting_bag(),
        ]
        return [suff_stats(b, spec, f"b{i}") for i, b in enumerate(out)]

    def test_converging_bags_match_eager_bits(self, spec2d, grid2d, engine2d, rng):
        cfg = NewtonConfig()
        for st in self.bags(spec2d, rng):
            eager = eager_fit_sde(st, BasisGrid(spec2d, grid2d), cfg, {"steps": 0, "trials": 0})
            assert eager[0] == "converged"
            same_bits(lazy_fit_sde(st, spec2d, grid2d, cfg, engine2d), eager)

    @pytest.mark.parametrize("max_iters", [1, 4, 7])
    def test_stalling_bag_matches_eager_bits_and_best(self, spec2d, grid2d, engine2d, rng, monkeypatch, max_iters):
        st = suff_stats(stalling_bag(rng), spec2d, "b")
        monkeypatch.setattr(NewtonConfig, "max_iters", max_iters)
        cfg = NewtonConfig(grad_tol=1e-12)
        eager = eager_fit_sde(st, BasisGrid(spec2d, grid2d), cfg, {"steps": 0, "trials": 0})
        assert eager[0] == "best"
        same_bits(lazy_fit_sde(st, spec2d, grid2d, cfg, engine2d), eager)

    def test_rejecting_bag_matches_eager_bits(self, spec2d, grid2d, engine2d):
        st = suff_stats(rejecting_bag(), spec2d, "b")
        counts = {"steps": 0, "trials": 0}
        eager = eager_fit_sde(st, BasisGrid(spec2d, grid2d), NewtonConfig(), counts)
        assert counts["trials"] > counts["steps"]
        same_bits(lazy_fit_sde(st, spec2d, grid2d, NewtonConfig(), engine2d), eager)

    def test_bags_alternating_engines_match_eager_bits(self, grid2d, rng):
        # Two engines on one grid take turns: every fit starts from its own
        # engine's cached start.
        specs = [make_basis(2, 8, seed=s) for s in (21, 22)]
        engines = [BasisGrid(spec, grid2d) for spec in specs]
        bags = [rng.uniform(-2, 2, size=(200, 2)) for _ in range(6)]
        for i, bag in enumerate(bags):
            spec, engine = specs[i % 2], engines[i % 2]
            st = suff_stats(bag, spec, f"b{i}")
            eager = eager_fit_sde(st, BasisGrid(spec, grid2d), NewtonConfig(), {"steps": 0, "trials": 0})
            same_bits(lazy_fit_sde(st, spec, grid2d, NewtonConfig(), engine), eager)

    @pytest.mark.parametrize("case", ["converging", "rejecting", "stalling"])
    def test_exact_work_counts(self, spec2d, grid2d, rng, monkeypatch, case):
        # Cold engine: node passes = 1 + trial points, mean products = 1 +
        # accepted points (one per step), covariance products = steps. The
        # same bag again on the warm engine skips the start's three.
        bag = {"converging": rng.uniform(-2, 2, size=(200, 2)),
               "rejecting": rejecting_bag(), "stalling": stalling_bag(rng)}[case]
        cfg = NewtonConfig()
        if case == "stalling":
            monkeypatch.setattr(NewtonConfig, "max_iters", 4)
            cfg = NewtonConfig(grad_tol=1e-12)
        st = suff_stats(bag, spec2d, "b")
        expect = {"steps": 0, "trials": 0}
        eager_fit_sde(st, BasisGrid(spec2d, grid2d), cfg, expect)
        assert expect["steps"] > 0
        engine, counts = counted_engine(spec2d, grid2d, monkeypatch)
        for cached in (0, 1):
            for name in counts:
                counts[name] = 0
            lazy_fit_sde(st, spec2d, grid2d, cfg, engine)
            assert counts == {
                "node_probs": 1 - cached + expect["trials"],
                "feature_mean": 1 - cached + expect["steps"],
                "feature_cov": expect["steps"] - cached,
            }

    def test_returned_density_does_not_alias_the_cached_start(self, spec2d, grid2d):
        # A bag whose empirical mean is the uniform density's converges at
        # lam = 0: the density returned is the start, in arrays of its own.
        engine = BasisGrid(spec2d, grid2d)
        _, start_mean, start_cov = engine.uniform_start
        assert not start_mean.flags.writeable and not start_cov.flags.writeable
        st = SufficientStats(bag_id="u", n=50, phi_bar=np.clip(start_mean, -1, 1))
        dens = fit_sde(st, spec2d, grid2d, engine=engine)
        assert np.abs(dens.lam).max() == 0.0
        assert not np.shares_memory(dens.mean_phi, start_mean)
        assert not np.shares_memory(dens.lam, start_mean)
        assert engine.uniform_start[1] is start_mean


class TestEngineCheck:
    def test_engine_of_another_basis_rejected(self, spec2d, grid2d, rng):
        other = make_basis(2, 8, seed=8)
        st = suff_stats(rng.uniform(-2, 2, size=(100, 2)), spec2d, "b")
        with pytest.raises(ValueError) as err:
            fit_sde(st, spec2d, grid2d, engine=BasisGrid(other, grid2d))
        assert str(spec2d.key) in str(err.value) and str(other.key) in str(err.value)

    def test_engine_on_another_grid_rejected(self, spec2d, grid2d, box2d, rng):
        from maxentmil.basis import make_gauss_grid

        st = suff_stats(rng.uniform(-2, 2, size=(100, 2)), spec2d, "b")
        for other in (make_tensor_grid(box2d, 32), make_gauss_grid(box2d, 64)):
            with pytest.raises(ValueError) as err:
                fit_sde(st, spec2d, grid2d, engine=BasisGrid(spec2d, other))
            assert f"{other.kind} grid of {other.size} nodes" in str(err.value)
            assert f"{grid2d.kind} grid of {grid2d.size} nodes" in str(err.value)

    def test_engine_on_an_equal_grid_accepted(self, spec2d, grid2d, engine2d, rng):
        st = suff_stats(rng.uniform(-2, 2, size=(100, 2)), spec2d, "b")
        twin = make_tensor_grid(grid2d.domain, 64)
        assert twin is not grid2d
        a = fit_sde(st, spec2d, twin, engine=engine2d)
        b = fit_sde(st, spec2d, grid2d)
        assert a.lam.tobytes() == b.lam.tobytes()


class TestExpPass:
    def test_means_after_a_later_pass_raise(self, engine2d, rng):
        first = engine2d.exp_pass(rng.uniform(-1, 1, size=(8, 3)))
        first.means()
        later = engine2d.exp_pass(rng.uniform(-1, 1, size=(8, 3)))
        with pytest.raises(RuntimeError, match="later kernel pass"):
            first.means()
        later.means()
        engine2d.node_probs(np.zeros(8))  # a one-column pass retires it too
        with pytest.raises(RuntimeError):
            later.means()

    def test_means_on_another_thread_raise(self, engine2d, rng):
        import threading

        kernel_pass = engine2d.exp_pass(rng.uniform(-1, 1, size=(8, 3)))
        errors = []

        def read():
            try:
                kernel_pass.means()
            except RuntimeError as exc:
                errors.append(exc)

        thread = threading.Thread(target=read)
        thread.start()
        thread.join(timeout=60)
        assert len(errors) == 1
        kernel_pass.means()  # still this thread's latest pass

    def test_pass_matches_bundled_kernels(self, engine2d, rng):
        lambdas = rng.uniform(-2, 2, size=(8, 5))
        kernel_pass = engine2d.exp_pass(lambdas)
        means = kernel_pass.means()
        logz, ref_means = engine2d.logz_and_mean_many(lambdas)
        assert kernel_pass.logz.tobytes() == logz.tobytes()
        assert means.tobytes() == ref_means.tobytes()
        assert engine2d.log_partition_many(lambdas).tobytes() == logz.tobytes()


class TestKl:
    def test_self_kl_zero(self, spec2d, engine2d):
        p = make_density(np.full(8, 0.3), engine2d, spec2d)
        assert kl(p, p) == 0.0
        assert sym_kl(p, p) == 0.0

    def test_nonnegative_on_random_pairs(self, spec2d, engine2d):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = make_density(rng.uniform(-1, 1, 8), engine2d, spec2d)
            q = make_density(rng.uniform(-1, 1, 8), engine2d, spec2d)
            assert kl(p, q) >= -1e-9

    def test_matches_direct_quadrature(self, spec2d, grid2d, engine2d):
        rng = np.random.default_rng(4)
        fine = BasisGrid(spec2d, make_tensor_grid(grid2d.domain, 256))
        for _ in range(20):
            la, lb = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
            p = make_density(la, engine2d, spec2d)
            q = make_density(lb, engine2d, spec2d)
            _, pa = fine.node_probs(la)
            _, pb = fine.node_probs(lb)
            direct = float((pa * (np.log(pa) - np.log(pb))).sum())
            assert kl(p, q) == pytest.approx(direct, rel=2e-3, abs=1e-6)

    def test_sym_kl_identities(self, spec2d, engine2d):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = make_density(rng.uniform(-1, 1, 8), engine2d, spec2d)
            q = make_density(rng.uniform(-1, 1, 8), engine2d, spec2d)
            assert sym_kl(p, q) == sym_kl(q, p)
            assert sym_kl(p, q) == pytest.approx(kl(p, q) + kl(q, p), abs=1e-10)

    def test_basis_mismatch_rejected(self, spec2d, engine2d, grid2d):
        other_spec = make_basis(2, 8, seed=8)
        other_engine = BasisGrid(other_spec, grid2d)
        p = make_density(np.zeros(8), engine2d, spec2d)
        q = make_density(np.zeros(8), other_engine, other_spec)
        with pytest.raises(ValueError):
            kl(p, q)


class TestLogDensity:
    """The log density lam . phi(x) - logZ of a fitted density."""

    def test_uniform_everywhere(self, spec2d, engine2d):
        p = make_density(np.zeros(8), engine2d, spec2d)
        x = np.array([[0.0, 0.0], [1.0, -2.0]])
        np.testing.assert_allclose(spec2d.evaluate(x) @ p.lam - p.logZ, -LOG_VOL)

    def test_gaussian_closed_form(self):
        # Feature map [x, x^2] with weights (0, -1/2) is the standard
        # normal; its log-normalizer has the closed form
        # -l1^2/(4 l2) + log sqrt(pi / -l2).
        poly = PolyBasis()
        dom = Domain(lo=[-8.0], hi=[8.0])
        grid = make_tensor_grid(dom, 4096)
        engine = BasisGrid(poly, grid)
        lam = np.array([0.0, -0.5])
        logz, mean, _ = engine.moments(lam)
        closed_logz = -(lam[0] ** 2) / (4 * lam[1]) + np.log(
            np.sqrt(np.pi / -lam[1])
        )
        assert logz == pytest.approx(closed_logz, abs=1e-6)
        val = np.exp(poly.evaluate(np.zeros((1, 1)))[0] @ lam - logz)
        assert val == pytest.approx(0.3989422804014327, abs=1e-3)


class TestHoeffdingBound:
    def test_empirical_coverage(self, spec2d, grid2d, engine2d):
        # 500 resamples from one fixed density; the 95% deviation bound
        # sqrt(2 log(2m / eta)) / sqrt(n) should fail at most ~5% of the time
        # (3% slack).
        from maxentmil.experiments import rejection_sample

        lam = np.array([0.4, -0.2, 0.1, 0.3, -0.4, 0.2, 0.0, -0.1])
        dens = make_density(lam, engine2d, spec2d)
        n = 400
        bound = np.sqrt(2.0 * np.log(2.0 * 8 / 0.05)) / np.sqrt(n)
        exceed = 0
        for trial in range(500):
            samples, _ = rejection_sample(dens, spec2d, grid2d, n, seed=9000 + trial)
            phi_bar = spec2d.evaluate(samples).mean(axis=0)
            exceed += np.linalg.norm(phi_bar - dens.mean_phi) > bound
        assert exceed / 500 <= 0.05 + 0.03
