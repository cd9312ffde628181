import numpy as np
import pytest

from maxentmil.basis import Domain, make_basis, make_tensor_grid
from maxentmil.errors import ConvergenceError
from maxentmil.maxent import (
    BasisGrid,
    MEDensity,
    NewtonConfig,
    SufficientStats,
    density_moments,
    fit_sde,
    fit_sde_relaxed,
    hoeffding_delta_bound,
    kl,
    log_density,
    log_density_with_flag,
    log_partition,
    sde_grad_hess,
    sde_objective,
    suff_stats,
    sym_kl,
)

LOG_VOL = np.log(36.0)


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
    def test_uniform(self, spec2d, grid2d):
        assert log_partition(np.zeros(8), spec2d, grid2d) == pytest.approx(LOG_VOL)

    def test_logsumexp_lower_bound(self, spec2d, grid2d, engine2d, rng):
        lam = rng.uniform(-2, 2, 8)
        scores = engine2d.phi @ lam + engine2d.logw
        assert log_partition(lam, spec2d, grid2d) >= scores.max()

    def test_against_high_resolution_reference(self):
        # 1-d pair with unit frequency; 4096-node reference quadrature.
        from maxentmil.basis import BasisSpec

        spec = BasisSpec(d=1, m=2, seed=0, freqs=np.array([[1.0]]))
        dom = Domain(lo=[-3.0], hi=[3.0])
        lam = np.array([0.5, 0.0])
        coarse = log_partition(lam, spec, make_tensor_grid(dom, 64))
        ref = log_partition(lam, spec, make_tensor_grid(dom, 4096))
        assert coarse == pytest.approx(ref, abs=1e-3)

    def test_no_overflow_for_large_lambda(self, spec2d, grid2d):
        lam = np.full(8, 125.0)  # l1 norm 1000
        assert np.isfinite(log_partition(lam, spec2d, grid2d))

    def test_nonfinite_rejected(self, spec2d, grid2d):
        with pytest.raises(ValueError):
            log_partition(np.array([np.nan] + [0.0] * 7), spec2d, grid2d)


class TestDensityMoments:
    def test_sin_means_vanish_for_uniform(self, spec2d, grid2d):
        mean, _ = density_moments(np.zeros(8), spec2d, grid2d)
        assert np.abs(mean[0::2]).max() < 1e-12

    def test_variance_bounded_by_one(self, spec2d, grid2d, rng):
        lam = rng.uniform(-1, 1, 8)
        _, cov = density_moments(lam, spec2d, grid2d)
        assert np.diag(cov).max() <= 1.0

    def test_cov_psd(self, spec2d, grid2d, rng):
        lam = rng.uniform(-1, 1, 8)
        _, cov = density_moments(lam, spec2d, grid2d)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_mean_is_gradient_of_log_partition(self, spec2d, grid2d, rng):
        lam = rng.uniform(-0.5, 0.5, 8)
        mean, _ = density_moments(lam, spec2d, grid2d)
        step = 1e-5
        for j in range(8):
            e = np.zeros(8)
            e[j] = step
            fd = (
                log_partition(lam + e, spec2d, grid2d)
                - log_partition(lam - e, spec2d, grid2d)
            ) / (2 * step)
            assert fd == pytest.approx(mean[j], abs=1e-5)


def reference_log_partition_many(engine, lambdas):
    """The batched logZ written with one fresh array per step."""
    a = engine.phi @ lambdas + engine.logw[:, None]
    shift = a.max(axis=0)
    return shift + np.log(np.exp(a - shift).sum(axis=0))


def reference_logz_and_mean_many(engine, lambdas):
    a = engine.phi @ lambdas + engine.logw[:, None]
    shift = a.max(axis=0)
    e = np.exp(a - shift)
    totals = e.sum(axis=0)
    return shift + np.log(totals), engine.phi.T @ (e / totals)


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


class TestSdeObjectiveAndDerivatives:
    def test_objective_at_zero(self, spec2d, grid2d):
        st = SufficientStats(bag_id="b", n=17, phi_bar=np.zeros(8))
        assert sde_objective(np.zeros(8), st, spec2d, grid2d) == pytest.approx(
            17 * LOG_VOL
        )

    def test_fitted_not_worse_than_zero(self, spec2d, grid2d, engine2d, rng):
        bag = rng.uniform(-1, 1, size=(200, 2))
        st = suff_stats(bag, spec2d, "b")
        fit = fit_sde(st, spec2d, grid2d, engine=engine2d)
        assert sde_objective(fit.lam, st, spec2d, grid2d) <= sde_objective(
            np.zeros(8), st, spec2d, grid2d
        )

    def test_objective_difference_identity(self, spec2d, grid2d, rng):
        st = SufficientStats(bag_id="b", n=11, phi_bar=rng.uniform(-0.3, 0.3, 8))
        l1, l2 = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
        lhs = sde_objective(l1, st, spec2d, grid2d) - sde_objective(
            l2, st, spec2d, grid2d
        )
        rhs = 11 * (
            log_partition(l1, spec2d, grid2d)
            - log_partition(l2, spec2d, grid2d)
            - (l1 - l2) @ st.phi_bar
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_m_mismatch(self, spec2d, grid2d):
        st = SufficientStats(bag_id="b", n=3, phi_bar=np.zeros(6))
        with pytest.raises(ValueError):
            sde_objective(np.zeros(8), st, spec2d, grid2d)

    @pytest.mark.parametrize("trial", range(5))
    def test_grad_hess_match_finite_differences(self, spec2d, grid2d, trial):
        rng = np.random.default_rng(200 + trial)
        st = SufficientStats(bag_id="b", n=7, phi_bar=rng.uniform(-0.4, 0.4, 8))
        lam = rng.uniform(-0.8, 0.8, 8)
        grad, hess = sde_grad_hess(lam, st, spec2d, grid2d)
        for j in range(8):
            e = np.zeros(8)
            e[j] = 1e-5
            fd = (
                sde_objective(lam + e, st, spec2d, grid2d)
                - sde_objective(lam - e, st, spec2d, grid2d)
            ) / 2e-5
            assert fd == pytest.approx(grad[j], abs=1e-5 * max(1, abs(grad[j])))
        for j in range(8):
            e = np.zeros(8)
            e[j] = 1e-4
            gp, _ = sde_grad_hess(lam + e, st, spec2d, grid2d)
            gm, _ = sde_grad_hess(lam - e, st, spec2d, grid2d)
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

    def test_relaxed_ladder_reports_note(self, spec2d, grid2d, engine2d, rng, monkeypatch):
        bag = rng.uniform(-2.9, 2.9, size=(400, 2))
        st = suff_stats(bag, spec2d, "b")
        monkeypatch.setattr(NewtonConfig, "max_iters", 4)
        base = NewtonConfig(grad_tol=1e-12)
        dens, notes = fit_sde_relaxed(st, spec2d, grid2d, base, engine=engine2d)
        assert notes and "relaxed" in notes[0]

    def test_relaxed_ladder_is_one_newton_pass(self, spec2d, grid2d, engine2d, rng, monkeypatch):
        # The Newton path does not depend on the tolerance, so the ladder
        # costs exactly what one strict attempt costs.
        bag = rng.uniform(-2.9, 2.9, size=(400, 2))
        st = suff_stats(bag, spec2d, "b")
        monkeypatch.setattr(NewtonConfig, "max_iters", 4)
        base = NewtonConfig(grad_tol=1e-12)
        calls = []
        original = engine2d.moments

        def counting(lam):
            calls.append(1)
            return original(lam)

        monkeypatch.setattr(engine2d, "moments", counting)
        with pytest.raises(ConvergenceError):
            fit_sde(st, spec2d, grid2d, base, engine=engine2d)
        strict = len(calls)
        calls.clear()
        dens, notes = fit_sde_relaxed(st, spec2d, grid2d, base, engine=engine2d)
        assert notes
        assert len(calls) == strict
        tol = float(notes[0].rsplit(" ", 1)[1])  # "... relaxed to 1.0e-10"
        loose = fit_sde(st, spec2d, grid2d, NewtonConfig(grad_tol=tol), engine=engine2d)
        np.testing.assert_array_equal(dens.lam, loose.lam)
        assert dens.logZ == loose.logZ

    def test_recovers_sampled_truth_moments(self, spec2d, grid2d, engine2d):
        from maxentmil.experiments import rejection_sample

        rng = np.random.default_rng(77)
        lam_true = rng.uniform(-0.8, 0.8, 8)
        truth = make_density(lam_true, engine2d, spec2d, "truth")
        samples, _ = rejection_sample(truth, spec2d, grid2d, 5000, seed=5)
        st = suff_stats(samples, spec2d, "bag")
        fit = fit_sde(st, spec2d, grid2d, engine=engine2d)
        assert np.abs(fit.mean_phi - truth.mean_phi).max() <= 0.05


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
    def test_uniform_everywhere(self, spec2d, engine2d):
        p = make_density(np.zeros(8), engine2d, spec2d)
        for x in ([0.0, 0.0], [1.0, -2.0]):
            assert log_density(p, spec2d, np.array(x)) == pytest.approx(-LOG_VOL)

    def test_out_of_domain_flagged(self, spec2d, engine2d, box2d):
        p = make_density(np.zeros(8), engine2d, spec2d)
        val, inside = log_density_with_flag(p, spec2d, np.array([10.0, 0.0]), box2d)
        assert np.isfinite(val) and not inside
        _, inside = log_density_with_flag(p, spec2d, np.array([0.5, 0.5]), box2d)
        assert inside

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
        p = MEDensity(
            bag_id="gauss", lam=lam, logZ=logz, mean_phi=mean, basis_key=poly.key
        )
        val = np.exp(log_density(p, poly, np.array([0.0])))
        assert val == pytest.approx(0.3989422804014327, abs=1e-3)


class TestHoeffdingBound:
    def test_reference_value(self):
        # sqrt(2 log(2*10/0.05)) / sqrt(100), evaluated independently.
        assert hoeffding_delta_bound(100, 10, 0.05) == pytest.approx(
            0.3461636765204571, abs=1e-12
        )

    def test_quadrupling_n_halves(self):
        assert hoeffding_delta_bound(400, 10, 0.05) == pytest.approx(
            hoeffding_delta_bound(100, 10, 0.05) / 2
        )

    def test_monotone_in_m(self):
        vals = [hoeffding_delta_bound(100, m, 0.05) for m in (2, 5, 10, 50)]
        assert vals == sorted(vals)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            hoeffding_delta_bound(0, 10, 0.05)
        with pytest.raises(ValueError):
            hoeffding_delta_bound(10, 10, 1.5)

    def test_empirical_coverage(self, spec2d, grid2d, engine2d):
        # 500 resamples from one fixed density; the 95% bound should fail
        # at most ~5% of the time (3% slack).
        from maxentmil.experiments import rejection_sample

        lam = np.array([0.4, -0.2, 0.1, 0.3, -0.4, 0.2, 0.0, -0.1])
        dens = make_density(lam, engine2d, spec2d)
        n = 400
        bound = hoeffding_delta_bound(n, 8, 0.05)
        exceed = 0
        for trial in range(500):
            samples, _ = rejection_sample(dens, spec2d, grid2d, n, seed=9000 + trial)
            phi_bar = spec2d.evaluate(samples).mean(axis=0)
            exceed += np.linalg.norm(phi_bar - dens.mean_phi) > bound
        assert exceed / 500 <= 0.05 + 0.03
