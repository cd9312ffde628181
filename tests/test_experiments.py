import numpy as np
import pytest

from maxentmil.errors import DegenerateDensityError, GridBudgetError
from maxentmil.lowrank import numeric_rank
from maxentmil.maxent import BasisGrid, MEDensity
from maxentmil.basis import make_basis
from maxentmil.experiments import (
    PhaseDiagramSpec,
    densities_from_matrix,
    derive_seed,
    markov_bound_trial,
    phase_cells,
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


def whole_chunk_sample(density, spec, grid, n, seed):
    """The sampler as it was before candidates were evaluated block by
    block: every chunk's features evaluated at once. Returns the samples
    and the accept flag of every candidate drawn."""
    from maxentmil.basis import node_features

    domain = grid.domain
    phi = node_features(spec, grid.envelope_nodes)
    log_env = np.log(1.1) + float((phi @ density.lam).max())
    rng = np.random.default_rng(seed)
    chunk = max(4 * n, 4096)
    accepted, flags = [], []
    n_kept = 0
    while n_kept < n:
        props = rng.uniform(domain.lo, domain.hi, size=(chunk, domain.d))
        logp = spec.evaluate(props) @ density.lam
        u = rng.uniform(size=chunk)
        keep = np.log(u) <= logp - log_env
        n_kept += int(keep.sum())
        accepted.append(props[keep])
        flags.append(keep)
    return np.concatenate(accepted, axis=0)[:n], np.concatenate(flags)


def assert_matches_whole_chunks(density, spec, grid, n, seed):
    """rejection_sample returns the whole-chunk sampler's samples and a rate
    of n over the position of the n-th acceptance; returns the accept flags."""
    samples, rate = rejection_sample(density, spec, grid, n, seed=seed)
    ref, flags = whole_chunk_sample(density, spec, grid, n, seed)
    np.testing.assert_array_equal(samples, ref)
    assert rate == len(samples) / (int(np.flatnonzero(flags)[n - 1]) + 1)
    return flags


def peaky_density():
    """A density peaked far below the grid resolution, with its grid: the
    envelope misses the spike and acceptance collapses under 1e-4."""
    from maxentmil.basis import BasisSpec, Domain, make_tensor_grid

    spec = BasisSpec(d=1, m=2, seed=0, freqs=np.array([[3.0]]))
    grid = make_tensor_grid(Domain(lo=[-3.0], hi=[3.0]), 65536)
    engine = BasisGrid(spec, grid)
    lam = np.array([0.0, 1e7])
    dens = MEDensity(
        bag_id="peaky", lam=lam, logZ=engine.log_partition(lam),
        mean_phi=np.clip(engine.moments(lam)[1], -1, 1), basis_key=spec.key,
    )
    return dens, spec, grid


def bound_check_densities(k):
    """Trial k's densities at bound-check's settings (m = 10, 5 bags on the
    64-per-axis midpoint grid), with their spec."""
    spec = make_basis(2, 10, derive_seed(0, k, "basis"))
    truth = synth_lowrank_lambda(10, 5, 5, derive_seed(0, k, "lambda"))
    return densities_from_matrix(truth, spec, synth_box_grid(3.0, 2, 64)), spec


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
        # Hoeffding's deviation bound sqrt(2 log(2m / eta)) / sqrt(n) at
        # m = 8, eta = 0.05, n = 100 000.
        assert err <= np.sqrt(2.0 * np.log(2.0 * 8 / 0.05)) / np.sqrt(100_000)

    def test_bit_identical_reruns(self, spec2d, grid2d, engine2d):
        dens = densities_from_matrix(
            LambdaMatrix(data=np.full((8, 1), 0.2), bag_ids=("b",)),
            spec2d, grid2d, engine=engine2d,
        )[0]
        a, ra = rejection_sample(dens, spec2d, grid2d, 500, seed=3)
        b, rb = rejection_sample(dens, spec2d, grid2d, 500, seed=3)
        np.testing.assert_array_equal(a, b)
        assert ra == rb

    def test_engine_serves_node_features(self, grid2d, monkeypatch):
        # On a midpoint grid the envelope features are the node features of
        # the engine just built for (spec, grid): sampling evaluates no node
        # and draws the samples and the rate of a sampler that evaluates them.
        from maxentmil.basis import BasisSpec, node_features

        spec = make_basis(2, 8, seed=7)  # fresh: no other test cached it
        engine = BasisGrid(spec, grid2d)
        assert node_features(spec, grid2d.envelope_nodes) is engine.phi
        dens = densities_from_matrix(
            LambdaMatrix(data=np.full((8, 1), 0.3), bag_ids=("b",)),
            spec, grid2d, engine=engine,
        )[0]
        original = BasisSpec.evaluate
        node_calls = []

        def recording(self, x):
            node_calls.append(x is grid2d.nodes)
            return original(self, x)

        monkeypatch.setattr(BasisSpec, "evaluate", recording)
        samples, rate = rejection_sample(dens, spec, grid2d, 500, seed=4)
        assert node_calls and not any(node_calls)
        monkeypatch.setattr(BasisSpec, "evaluate", original)
        plain, plain_rate = rejection_sample(dens, make_basis(2, 8, seed=7), grid2d, 500, seed=4)
        np.testing.assert_array_equal(samples, plain)
        assert rate == plain_rate

    def test_gauss_grid_draws_the_midpoint_samples(self, spec2d, box2d, rng):
        # A Gauss-Legendre grid takes its envelope on the 64-per-axis
        # midpoint lattice, so it draws the samples of that midpoint grid.
        from maxentmil.basis import make_gauss_grid, make_tensor_grid

        gauss, midpoint = make_gauss_grid(box2d, 32), make_tensor_grid(box2d, 64)
        for seed in range(3):
            lam = rng.uniform(-0.8, 0.8, 8)
            dens = densities_from_matrix(
                LambdaMatrix(data=lam[:, None], bag_ids=("b",)), spec2d, gauss
            )[0]
            a, ra = rejection_sample(dens, spec2d, gauss, 500, seed=seed)
            b, rb = rejection_sample(dens, spec2d, midpoint, 500, seed=seed)
            np.testing.assert_array_equal(a, b)
            assert ra == rb

    def test_columns_evaluate_envelope_once(self, monkeypatch):
        # Sampling a matrix evaluates the envelope lattice's features once,
        # not once per bag.
        from maxentmil.basis import BasisSpec
        from maxentmil.experiments import synth_bags_from_matrix

        spec2d = make_basis(2, 8, seed=7)  # fresh: no other test cached it
        grid = synth_box_grid()
        original = BasisSpec.evaluate
        lattice_calls = []

        def recording(self, x):
            lattice_calls.append(x is grid.envelope_nodes)
            return original(self, x)

        monkeypatch.setattr(BasisSpec, "evaluate", recording)
        matrix = LambdaMatrix(data=np.full((8, 4), 0.1), bag_ids=("a", "b", "c", "d"))
        ds = synth_bags_from_matrix(matrix, spec2d, grid, 50, seed=2)
        assert len(ds.bags) == 4
        assert sum(lattice_calls) == 1

    def test_bag_by_bag_evaluates_envelope_once(self, monkeypatch):
        # Bag after bag with one spec on a Gauss-Legendre grid, the public
        # sampler evaluates the envelope lattice once, not once per call.
        from maxentmil.basis import BasisSpec

        spec = make_basis(2, 8, seed=11)  # fresh: no other test cached it
        grid = synth_box_grid()
        dens = densities_from_matrix(
            LambdaMatrix(data=np.full((8, 1), 0.1), bag_ids=("b",)), spec, grid
        )[0]
        original = BasisSpec.evaluate
        lattice_calls = []

        def recording(self, x):
            lattice_calls.append(x is grid.envelope_nodes)
            return original(self, x)

        monkeypatch.setattr(BasisSpec, "evaluate", recording)
        for seed in range(5):
            rejection_sample(dens, spec, grid, 50, seed=seed)
        assert sum(lattice_calls) == 1

    def test_density_from_another_basis_rejected(self, spec2d, grid2d, engine2d, monkeypatch):
        # Same m, another seed: refused, naming both keys, before any
        # feature is evaluated.
        from maxentmil.basis import BasisSpec

        dens = densities_from_matrix(
            LambdaMatrix(data=np.full((8, 1), 0.1), bag_ids=("b",)),
            spec2d, grid2d, engine=engine2d,
        )[0]
        other = make_basis(2, 8, seed=8)

        def no_work(*args, **kwargs):
            raise AssertionError("features evaluated before the basis check")

        monkeypatch.setattr(BasisSpec, "evaluate", no_work)
        with pytest.raises(ValueError) as err:
            rejection_sample(dens, other, grid2d, 50, seed=0)
        assert str(spec2d.key) in str(err.value) and str(other.key) in str(err.value)

    def test_degenerate_density_raises(self):
        # Raised after whole chunks, as the whole-chunk sampler raised:
        # 13 chunks of 4096, the first count over the 50 000 probe.
        dens, spec, grid = peaky_density()
        with pytest.raises(DegenerateDensityError) as err:
            rejection_sample(dens, spec, grid, 100, seed=0)
        assert "after 53248 proposals" in str(err.value)

    @pytest.mark.parametrize("scale", [0.0, 0.8, 2.5])
    def test_same_samples_as_whole_chunks(self, spec2d, grid2d, engine2d, scale):
        # Block-by-block evaluation keeps the chunk's RNG stream, so it
        # returns the first n accepted candidates of the whole-chunk
        # sampler, for n below, across and off a block boundary.
        lam = scale * np.random.default_rng(5).uniform(-1.0, 1.0, 8)
        dens = densities_from_matrix(
            LambdaMatrix(data=lam[:, None], bag_ids=("b",)),
            spec2d, grid2d, engine=engine2d,
        )[0]
        for n in (1, 200, 300, 1000, 5000):
            for seed in range(3):
                assert_matches_whole_chunks(dens, spec2d, grid2d, n, seed)

    def test_second_chunk_same_samples(self, spec2d, grid2d, engine2d):
        # Acceptance under n / chunk: the n-th acceptance lies in a later
        # chunk, and the samples still match the whole-chunk sampler's.
        lam = 6.0 * np.random.default_rng(5).uniform(-1.0, 1.0, 8)
        dens = densities_from_matrix(
            LambdaMatrix(data=lam[:, None], bag_ids=("b",)),
            spec2d, grid2d, engine=engine2d,
        )[0]
        flags = assert_matches_whole_chunks(dens, spec2d, grid2d, 1500, 0)
        assert flags.size > max(4 * 1500, 4096)

    def test_bound_check_evaluates_under_one_chunk(self, monkeypatch):
        # At bound-check's settings (m = 10, n = 200) the candidates whose
        # features are evaluated stay under one 4096-row chunk, within one
        # block of the candidates examined (n over the rate).
        from maxentmil.basis import BasisSpec
        from maxentmil.experiments import _SAMPLE_BLOCK

        grid = synth_box_grid(3.0, 2, 64)
        original = BasisSpec.evaluate
        rows = []

        def counting(self, x):
            if x is not grid.envelope_nodes:
                rows.append(x.shape[0])
            return original(self, x)

        monkeypatch.setattr(BasisSpec, "evaluate", counting)
        for k in range(4):
            densities, spec = bound_check_densities(k)
            for i, dens in enumerate(densities):
                rows.clear()
                _, rate = rejection_sample(dens, spec, grid, 200, seed=i)
                examined = round(200 / rate)
                assert sum(rows) < 4096
                assert 0 <= sum(rows) - examined < _SAMPLE_BLOCK

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


class TestSynthBoxGrid:
    def test_one_grid_per_settings(self):
        grid = synth_box_grid(3.0, 2, 32)
        assert synth_box_grid(3.0, 2, 32) is grid
        assert synth_box_grid() is grid
        assert synth_box_grid(3.0, 2, 16) is not grid

    def test_shared_grid_is_immutable(self):
        import dataclasses

        grid = synth_box_grid(3.0, 2, 32)
        assert not grid.nodes.flags.writeable
        assert not grid.weights.flags.writeable
        with pytest.raises(ValueError):
            grid.nodes[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.nodes = np.zeros((1, 2))

    def test_envelope_lattice_built_once_across_repetitions(self, monkeypatch):
        import maxentmil.basis as basis
        import maxentmil.experiments as experiments

        original = basis.make_tensor_grid
        builds = []

        def counting(domain, points_per_axis, *args):
            builds.append(points_per_axis)
            return original(domain, points_per_axis, *args)

        monkeypatch.setattr(basis, "make_tensor_grid", counting)
        experiments._box_grid.cache_clear()
        pd = PhaseDiagramSpec(
            n_bags=4, m_values=(8,), t_values=(2,), n_per_bag=50, reps=2,
            base_seed=1, solver="cmen", grid_points=16,
        )
        (cell,) = run_phase_diagram(pd)
        assert len(cell.ranks) == 2 and min(cell.ranks) >= 0
        assert builds == [basis.ENVELOPE_POINTS]


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
        partial = list(phase_cells(pd, skip_cells={(8, 2)}))
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

    def test_feature_matrix_budget_checks_the_grid_built(self):
        # Above 3 dimensions the repetitions build a midpoint grid: 32^4
        # nodes pass the node budget, but their feature matrix at m = 40 is
        # refused before any repetition runs.
        with pytest.raises(GridBudgetError) as err:
            PhaseDiagramSpec(
                n_bags=20, m_values=(20, 40), t_values=(2,), n_per_bag=10, d=4
            )
        assert str(err.value) == (
            "the 32^4 grid's feature matrix needs 1048576 nodes x 40 features "
            "= 41943040 entries, over the budget of 16777216"
        )
        PhaseDiagramSpec(
            n_bags=20, m_values=(20, 40), t_values=(2,), n_per_bag=10, d=4, grid_points=8
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

    def test_nonpositive_a_rejected_before_any_draw(self, monkeypatch):
        import maxentmil.experiments as experiments

        def no_draw(*args, **kwargs):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(experiments, "make_basis", no_draw)
        with pytest.raises(ValueError, match="must be positive, got 2, 4 and -1.0"):
            markov_bound_trial(2, 4, 50, trials=50, a_values=[2.0, -1.0], seed=0)


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
