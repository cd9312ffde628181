import numpy as np
import pytest

from maxentmil.errors import DegenerateDensityError
from maxentmil.lowrank import numeric_rank
from maxentmil.maxent import BasisGrid, MEDensity, hoeffding_delta_bound
from maxentmil.basis import make_basis
from maxentmil.experiments import (
    PhaseDiagramSpec,
    densities_from_matrix,
    derive_seed,
    markov_bound_trial,
    recovery_threshold,
    rejection_sample,
    run_phase_diagram,
    runtime_benchmark,
    synth_box_grid,
    synth_lowrank_lambda,
    synth_two_class_bags,
)
from maxentmil.solvers import LambdaMatrix


class TestSynthLowrank:
    def test_rank_one_columns_parallel(self):
        mat = synth_lowrank_lambda(10, 6, 1, seed=0)
        base = mat.data[:, 0] / np.linalg.norm(mat.data[:, 0])
        for j in range(1, 6):
            col = mat.data[:, j] / np.linalg.norm(mat.data[:, j])
            assert abs(abs(col @ base) - 1.0) < 1e-12

    def test_exact_rank(self):
        for t in (1, 2, 5):
            mat = synth_lowrank_lambda(12, 8, t, seed=t)
            assert numeric_rank(mat.data, 1e-10) == t

    def test_deterministic(self):
        a = synth_lowrank_lambda(10, 5, 2, seed=9)
        b = synth_lowrank_lambda(10, 5, 2, seed=9)
        np.testing.assert_array_equal(a.data, b.data)

    def test_densities_not_degenerate(self):
        # Seeded draws stay close to the uniform log-normalizer.
        grid = synth_box_grid()
        for m in (10, 30, 50):
            spec = make_basis(2, m, seed=100 + m)
            engine = BasisGrid(spec, grid)
            mat = synth_lowrank_lambda(m, 10, 3, seed=m)
            logz = engine.log_partition_many(mat.data)
            assert np.abs(logz - np.log(36.0)).max() <= 5.0

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            synth_lowrank_lambda(4, 3, 5, seed=0)


class TestRejectionSample:
    def test_uniform_case(self, spec2d, grid2d, engine2d):
        dens = densities_from_matrix(
            LambdaMatrix(data=np.zeros((8, 1)), bag_ids=("u",)),
            spec2d, grid2d, engine=engine2d,
        )[0]
        samples, rate = rejection_sample(dens, spec2d, grid2d, 20_000, seed=1)
        assert samples.shape == (20_000, 2)
        assert rate > 0.85  # envelope headroom is only 1.1 for the uniform
        # per-axis mean within 4 sigma / sqrt(n) of the center
        sigma = 6.0 / np.sqrt(12.0)
        assert np.abs(samples.mean(axis=0)).max() <= 4 * sigma / np.sqrt(20_000)

    def test_moments_within_hoeffding_bound(self, spec2d, grid2d, engine2d, rng):
        lam = rng.uniform(-0.8, 0.8, 8)
        dens = densities_from_matrix(
            LambdaMatrix(data=lam[:, None], bag_ids=("b",)),
            spec2d, grid2d, engine=engine2d,
        )[0]
        samples, _ = rejection_sample(dens, spec2d, grid2d, 100_000, seed=0)
        err = np.linalg.norm(spec2d.evaluate(samples).mean(axis=0) - dens.mean_phi)
        assert err <= hoeffding_delta_bound(100_000, 8, 0.05)

    def test_bit_identical_reruns(self, spec2d, grid2d, engine2d):
        dens = densities_from_matrix(
            LambdaMatrix(data=np.full((8, 1), 0.2), bag_ids=("b",)),
            spec2d, grid2d, engine=engine2d,
        )[0]
        a, ra = rejection_sample(dens, spec2d, grid2d, 500, seed=3)
        b, rb = rejection_sample(dens, spec2d, grid2d, 500, seed=3)
        np.testing.assert_array_equal(a, b)
        assert ra == rb

    def test_engine_serves_node_features(self, spec2d, grid2d, engine2d, monkeypatch):
        # With an engine the envelope reads its node features; the samples
        # and the rate are those of the call without one.
        from maxentmil.basis import BasisSpec

        dens = densities_from_matrix(
            LambdaMatrix(data=np.full((8, 1), 0.3), bag_ids=("b",)),
            spec2d, grid2d, engine=engine2d,
        )[0]
        plain, plain_rate = rejection_sample(dens, spec2d, grid2d, 500, seed=4)
        original = BasisSpec.evaluate
        node_calls = []

        def recording(self, x):
            node_calls.append(x is grid2d.nodes)
            return original(self, x)

        monkeypatch.setattr(BasisSpec, "evaluate", recording)
        samples, rate = rejection_sample(dens, spec2d, grid2d, 500, seed=4, engine=engine2d)
        np.testing.assert_array_equal(samples, plain)
        assert rate == plain_rate
        assert node_calls and not any(node_calls)

    def test_degenerate_density_raises(self):
        # A density peaked far below the grid resolution: the envelope
        # misses the spike and acceptance collapses under 1e-4.
        from maxentmil.basis import BasisSpec, Domain, make_tensor_grid

        spec = BasisSpec(d=1, m=2, seed=0, freqs=np.array([[3.0]]))
        grid = make_tensor_grid(Domain(lo=[-3.0], hi=[3.0]), 65536)
        engine = BasisGrid(spec, grid)
        lam = np.array([0.0, 1e7])
        dens = MEDensity(
            bag_id="peaky", lam=lam, logZ=engine.log_partition(lam),
            mean_phi=np.clip(engine.moments(lam)[1], -1, 1), basis_key=spec.key,
        )
        with pytest.raises(DegenerateDensityError):
            rejection_sample(dens, spec, grid, 100, seed=0)

    def test_moment_error_scales_as_root_n(self, spec2d, grid2d, engine2d):
        rng = np.random.default_rng(1)
        lam = rng.uniform(-0.8, 0.8, 8)
        dens = densities_from_matrix(
            LambdaMatrix(data=lam[:, None], bag_ids=("b",)),
            spec2d, grid2d, engine=engine2d,
        )[0]
        ns = [500, 5000, 50_000]
        errs = []
        for n in ns:
            trials = [
                np.linalg.norm(
                    spec2d.evaluate(
                        rejection_sample(dens, spec2d, grid2d, n, seed=s)[0]
                    ).mean(axis=0)
                    - dens.mean_phi
                )
                for s in range(8)
            ]
            errs.append(np.mean(trials))
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert -0.6 <= slope <= -0.4


class TestRecoveryThreshold:
    def test_constant_ensemble(self):
        mat = synth_lowrank_lambda(8, 5, 2, seed=0)
        assert recovery_threshold([mat, mat, mat]) == pytest.approx(
            np.linalg.svd(mat.data, compute_uv=False)[1]
        )

    def test_population_std_convention(self):
        # Values {1.0, 1.2}: mean 1.1 minus three population stds (0.1).
        a = LambdaMatrix(data=np.diag([1.0, 1.0]), bag_ids=("x", "y"))
        b = LambdaMatrix(data=np.diag([1.2, 1.2]), bag_ids=("x", "y"))
        assert recovery_threshold([a, b]) == pytest.approx(0.8)

    def test_floor_engages(self):
        mats = [
            LambdaMatrix(data=np.diag([1.0, s]), bag_ids=("x", "y"))
            for s in (0.01, 1.0)
        ]
        assert recovery_threshold(mats) == 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            recovery_threshold([])


class TestPhaseDiagram:
    @pytest.fixture(scope="class")
    @staticmethod
    def tiny_grid():
        pd = PhaseDiagramSpec(
            n_bags=6, m_values=(8, 10), t_values=(2, 3), n_per_bag=200,
            reps=2, base_seed=5, solver="cmen",
        )
        return pd, run_phase_diagram(pd)

    def test_grid_dimensions(self, tiny_grid):
        pd, cells = tiny_grid
        assert len(cells) == len(pd.m_values) * len(pd.t_values)
        assert [(c.m, c.t) for c in cells] == [
            (m, t) for m in pd.m_values for t in pd.t_values
        ]

    def test_probability_granularity(self, tiny_grid):
        pd, cells = tiny_grid
        allowed = {k / pd.reps for k in range(pd.reps + 1)}
        for c in cells:
            assert c.recovery_probability in allowed
            assert len(c.ranks) == pd.reps

    def test_reproducible_per_cell(self, tiny_grid):
        pd, cells = tiny_grid
        again = run_phase_diagram(pd)
        assert [c.ranks for c in again] == [c.ranks for c in cells]

    def test_skip_cells(self, tiny_grid):
        pd, cells = tiny_grid
        partial = run_phase_diagram(pd, skip_cells={(8, 2)})
        assert [(c.m, c.t) for c in partial] == [(8, 3), (10, 2), (10, 3)]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PhaseDiagramSpec(
                n_bags=5, m_values=(8,), t_values=(8,), n_per_bag=100, solver="cmen"
            )
        with pytest.raises(ValueError):
            PhaseDiagramSpec(
                n_bags=5, m_values=(8,), t_values=(2,), n_per_bag=100, solver="nope"
            )

    @pytest.mark.slow
    def test_worker_pool_matches_serial(self, tiny_grid):
        # Per-item RNG streams make results independent of scheduling.
        pd, cells = tiny_grid
        pooled = run_phase_diagram(
            PhaseDiagramSpec(
                n_bags=pd.n_bags, m_values=pd.m_values, t_values=pd.t_values,
                n_per_bag=pd.n_per_bag, reps=pd.reps, base_seed=pd.base_seed,
                solver=pd.solver, threads=2,
            )
        )
        assert [c.ranks for c in pooled] == [c.ranks for c in cells]


class TestMarkovBound:
    @pytest.fixture(scope="class")
    @staticmethod
    def trial():
        return markov_bound_trial(
            n_bags=3, m=8, n_per_bag=150, trials=60, a_values=[1.0, 2.0, 5.0], seed=0
        )

    def test_fractions_valid_and_monotone(self, trial):
        fractions, sums = trial
        vals = [fractions[a] for a in (1.0, 2.0, 5.0)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert vals == sorted(vals, reverse=True)
        assert sums.shape == (60,) and (sums >= 0).all()

    def test_markov_ceiling(self, trial):
        fractions, _ = trial
        assert fractions[2.0] <= 0.5 + 0.05
        assert fractions[5.0] <= 0.2 + 0.05

    def test_trial_count_validation(self):
        with pytest.raises(ValueError):
            markov_bound_trial(2, 4, 50, trials=10, a_values=[2.0], seed=0)


class TestTwoClassSynth:
    def test_structure(self):
        ds, truth = synth_two_class_bags(8, 50, 10, seed=4)
        assert len(ds.bags) == 8
        assert ds.class_set == ("a", "b")
        assert all(b.instances.shape == (50, 2) for b in ds.bags)
        cols = np.column_stack(
            [truth["lambda_columns"][b.bag_id] for b in ds.bags if b.label == "a"]
        )
        assert numeric_rank(cols, 1e-10) == 2

    def test_deterministic(self):
        a, _ = synth_two_class_bags(4, 30, 8, seed=1)
        b, _ = synth_two_class_bags(4, 30, 8, seed=1)
        for ba, bb in zip(a.bags, b.bags):
            np.testing.assert_array_equal(ba.instances, bb.instances)

    def test_odd_bag_count_rejected(self):
        with pytest.raises(ValueError):
            synth_two_class_bags(5, 30, 8, seed=0)


class TestRuntimeBenchmark:
    def test_table_shape(self):
        rows = runtime_benchmark(
            n_linear=(2000, 4000), n_quadratic=(300, 600),
            m=8, n_densities=10, seed=0, repeats=2,
        )
        ops = {(r["op"], r["n"]) for r in rows}
        assert ("suff_stats", 2000) in ops and ("suff_stats", 4000) in ops
        assert ("kl_matrix", 2000) in ops
        assert ("avg_hausdorff", 300) in ops and ("avg_hausdorff", 600) in ops
        assert all(r["seconds"] > 0 for r in rows)
