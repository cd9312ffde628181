import numpy as np
import pytest

from maxentmil.basis import (
    MAX_GAUSS_POINTS,
    MAX_GRID_NODES,
    BasisSpec,
    Domain,
    check_grid_resolution,
    domain_from_data,
    make_basis,
    make_gauss_grid,
    make_mc_grid,
    make_tensor_grid,
    node_features,
)
from maxentmil.errors import GridBudgetError


class TestMakeBasis:
    def test_shape_and_determinism(self):
        a = make_basis(2, 4, seed=7)
        b = make_basis(2, 4, seed=7)
        assert a.freqs.shape == (2, 2)
        np.testing.assert_array_equal(a.freqs, b.freqs)

    def test_single_pair_layout(self):
        spec = make_basis(1, 2, seed=0)
        g1 = spec.freqs[0, 0]
        x = np.array([0.37])
        np.testing.assert_allclose(
            spec.evaluate(x[None])[0], [np.sin(g1 * 0.37), np.cos(g1 * 0.37)]
        )

    def test_frequency_entries_are_standard_normal(self):
        # CLT check: 50 entries, mean within 3/sqrt(50) of zero.
        spec = make_basis(2, 50, seed=3)
        assert abs(spec.freqs.mean()) <= 3.0 / np.sqrt(50)

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            make_basis(2, 5, seed=0)

    def test_bad_d_rejected(self):
        with pytest.raises(ValueError):
            make_basis(0, 4, seed=0)


class TestEvalBasis:
    def test_at_origin(self, spec2d):
        out = spec2d.evaluate(np.zeros((1, 2)))[0]
        np.testing.assert_array_equal(out[0::2], np.zeros(4))
        np.testing.assert_array_equal(out[1::2], np.ones(4))

    def test_bounded_by_one(self, spec2d, rng):
        for _ in range(50):
            x = rng.uniform(-50, 50, size=(1, 2))
            assert np.abs(spec2d.evaluate(x)).max() <= 1.0

    def test_known_projection(self):
        spec = BasisSpec(d=2, m=2, seed=0, freqs=np.array([[1.0, 0.0]]))
        out = spec.evaluate(np.array([[np.pi / 2, 5.0]]))[0]
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)

    def test_batch_equals_contiguous_sin_cos(self, spec2d, rng):
        # The batch writes sin and cos straight into the interleaved
        # columns; the values are those of np.sin / np.cos of the
        # projections, bit for bit, for small and large batches.
        for n in (1, 7, 5000):
            x = rng.uniform(-50, 50, size=(n, 2))
            proj = x @ spec2d.freqs.T
            out = spec2d.evaluate(x)
            np.testing.assert_array_equal(out[:, 0::2], np.sin(proj))
            np.testing.assert_array_equal(out[:, 1::2], np.cos(proj))

    def test_dimension_mismatch(self, spec2d):
        with pytest.raises(ValueError):
            spec2d.evaluate(np.zeros((1, 3)))


class TestTensorGrid:
    def test_two_per_axis(self):
        grid = make_tensor_grid(Domain(lo=[0, 0], hi=[1, 1]), 2)
        assert grid.size == 4
        np.testing.assert_allclose(grid.weights, 0.25)

    def test_weights_sum_to_volume(self, box2d):
        grid = make_tensor_grid(box2d, 64)
        assert grid.weights.sum() == pytest.approx(36.0, rel=1e-14)

    def test_cosine_integral(self):
        grid = make_tensor_grid(Domain(lo=[-3.0], hi=[3.0]), 64)
        val = (np.cos(grid.nodes[:, 0]) * grid.weights).sum()
        assert val == pytest.approx(2 * np.sin(3.0), abs=1e-3)

    def test_budget_error_names_limit(self, monkeypatch):
        # 200^3 = 8 000 000 nodes, twice MAX_GRID_NODES: refused unbuilt.
        import maxentmil.basis as basis

        def no_nodes(*args, **kwargs):
            raise AssertionError("nodes built before the budget was checked")

        monkeypatch.setattr(basis, "_mesh", no_nodes)
        message = f"8000000 nodes, over the budget of {MAX_GRID_NODES}"
        with pytest.raises(GridBudgetError, match=message):
            make_tensor_grid(Domain(lo=[0, 0, 0], hi=[1, 1, 1]), 200)

    def test_doubling_reduces_cosine_error(self):
        # Convergence on frequencies up to |g| = 3.
        for g in (0.5, 1.7, 3.0):
            errors = []
            for points in (16, 32, 64, 128):
                grid = make_tensor_grid(Domain(lo=[-3.0], hi=[3.0]), points)
                val = (np.cos(g * grid.nodes[:, 0]) * grid.weights).sum()
                errors.append(abs(val - 2 * np.sin(3 * g) / g))
            assert errors == sorted(errors, reverse=True)

    def test_bit_identical_reruns(self, box2d):
        a = make_tensor_grid(box2d, 16)
        b = make_tensor_grid(box2d, 16)
        np.testing.assert_array_equal(a.nodes, b.nodes)
        np.testing.assert_array_equal(a.weights, b.weights)


class TestGaussGrid:
    def test_weights_sum_to_volume(self, box2d):
        grid = make_gauss_grid(box2d, 32)
        assert grid.kind == "gauss-legendre" and grid.size == 32**2
        assert grid.weights.sum() == pytest.approx(36.0, rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_polynomials_exact_to_degree_2n_minus_1(self, d):
        # The n-point rule integrates x_j^k exactly for k <= 2n - 1 on every
        # axis of an off-center box, and misses x_j^(2n).
        n = 4
        lo, hi = np.array([-1.0, 0.5, 2.0][:d]), np.array([2.0, 3.0, 2.5][:d])
        grid = make_gauss_grid(Domain(lo=lo, hi=hi), n)
        volume = np.prod(hi - lo)
        for j in range(d):
            rest = volume / (hi[j] - lo[j])
            for k in range(2 * n + 1):
                exact = rest * (hi[j] ** (k + 1) - lo[j] ** (k + 1)) / (k + 1)
                val = (grid.nodes[:, j] ** k * grid.weights).sum()
                if k <= 2 * n - 1:
                    assert val == pytest.approx(exact, rel=1e-12)
                else:
                    assert val != pytest.approx(exact, rel=1e-12)

    def test_weights_multiply_across_axes(self):
        # A product of per-axis monomials, each of degree <= 2n - 1, is exact.
        grid = make_gauss_grid(Domain(lo=[-1.0, 0.0, 1.0], hi=[1.0, 2.0, 4.0]), 3)
        x, y, z = grid.nodes.T
        val = ((x**4) * (y**5) * (z**3) * grid.weights).sum()
        assert val == pytest.approx((2 / 5) * (2**6 / 6) * (4**4 - 1) / 4, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8, 32, 64, 128])
    def test_rule_matches_numpy_leggauss(self, n):
        import maxentmil.basis as basis

        x, w = basis._legendre_rule(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(x, ref_x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w, ref_w, rtol=1e-10)

    def test_rule_computed_once_per_n(self, box2d, monkeypatch):
        import maxentmil.basis as basis

        calls = []
        original = basis._legendre

        def counting(n, x):
            calls.append(n)
            return original(n, x)

        basis._legendre_rule.cache_clear()
        monkeypatch.setattr(basis, "_legendre", counting)
        try:
            a = make_gauss_grid(box2d, 7)
            first = len(calls)
            b = make_gauss_grid(Domain(lo=[0.0], hi=[1.0]), 7)
            assert len(calls) == first and set(calls) == {7}
            make_gauss_grid(box2d, 9)
            assert set(calls[first:]) == {9}
        finally:
            basis._legendre_rule.cache_clear()
        np.testing.assert_array_equal(a.nodes[::7, 1], np.full(7, a.nodes[0, 1]))
        assert b.size == 7

    def test_points_per_axis_capped_before_any_rule(self):
        with pytest.raises(GridBudgetError, match=f"at most {MAX_GAUSS_POINTS} points per axis"):
            make_gauss_grid(Domain(lo=[0.0], hi=[1.0]), MAX_GAUSS_POINTS + 1)

    def test_envelope_is_midpoint_lattice_built_once(self, box2d):
        grid = make_gauss_grid(box2d, 32)
        np.testing.assert_array_equal(grid.envelope_nodes, make_tensor_grid(box2d, 64).nodes)
        assert grid.envelope_nodes is grid.envelope_nodes
        midpoint = make_tensor_grid(box2d, 16)
        assert midpoint.envelope_nodes is midpoint.nodes

    def test_log_weights_read_only_built_once_and_shared_by_engines(self, box2d):
        from maxentmil.maxent import BasisGrid

        grid = make_gauss_grid(box2d, 8)
        assert grid.log_weights.tobytes() == np.log(grid.weights).tobytes()
        assert grid.log_weights is grid.log_weights
        assert not grid.log_weights.flags.writeable
        engines = [BasisGrid(make_basis(2, 8, seed=s), grid) for s in (3, 4)]
        assert all(e.logw is grid.log_weights for e in engines)


class TestNodeFeatures:
    def test_values_read_only_and_kept_per_node_set(self, box2d):
        grid = make_gauss_grid(box2d, 8)
        spec = make_basis(2, 8, seed=3)  # fresh: no other test cached it
        phi = node_features(spec, grid.nodes)
        np.testing.assert_array_equal(phi, spec.evaluate(grid.nodes))
        assert not phi.flags.writeable
        with pytest.raises(ValueError):
            phi[0, 0] = 0.0
        assert node_features(spec, grid.nodes) is phi
        # Another node set, or an equal spec that is another object, is
        # evaluated afresh; the one entry then holds that pair.
        lattice = node_features(spec, grid.envelope_nodes)
        assert lattice.shape == (64 * 64, 8) and not lattice.flags.writeable
        twin = make_basis(2, 8, seed=3)
        again = node_features(twin, grid.envelope_nodes)
        assert again is not lattice
        np.testing.assert_array_equal(again, lattice)

    def test_engine_phi_is_read_only(self, box2d):
        from maxentmil.maxent import BasisGrid

        engine = BasisGrid(make_basis(2, 8, seed=3), make_tensor_grid(box2d, 8))
        assert not engine.phi.flags.writeable

    def test_writeable_nodes_refused(self, spec2d):
        with pytest.raises(ValueError, match="read-only node array"):
            node_features(spec2d, np.zeros((4, 2)))

    def test_threads_get_their_own_features(self, box2d):
        # Threads evaluating different specs on one grid, interleaved at a
        # short switch interval, each get their spec's reference bytes.
        import sys
        import threading

        grid = make_gauss_grid(box2d, 16)
        specs = [make_basis(2, 8, seed=s) for s in range(6)]
        refs = [spec.evaluate(grid.envelope_nodes).tobytes() for spec in specs]
        bad = []

        def work(i):
            for _ in range(20):
                for nodes in (grid.nodes, grid.envelope_nodes):
                    phi = node_features(specs[i], nodes)
                if phi.tobytes() != refs[i]:
                    bad.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(specs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []


class TestGridResolution:
    # One frequency row (2, 0.5): the limit on axis j is pi * ppa / |g_j|.
    spec = BasisSpec(d=2, m=2, seed=0, freqs=np.array([[2.0, 0.5]]))

    def test_fine_grid_accepted(self):
        box = Domain(lo=[0.0, 0.0], hi=[0.99 * np.pi * 8 / 2, 1.0])
        check_grid_resolution(self.spec, make_tensor_grid(box, 8))

    def test_coarse_axis_named_with_width_and_limit(self):
        box = Domain(lo=[0.0, 0.0], hi=[1.0, 60.0])
        message = r"8-point tensor grid .* axis 1 is 60 wide, over its limit of 50.27"
        with pytest.raises(ValueError, match=message):
            check_grid_resolution(self.spec, make_tensor_grid(box, 8))

    def test_monte_carlo_grid_not_checked(self):
        box = Domain(lo=[0.0, 0.0], hi=[1.0, 1e6])
        check_grid_resolution(self.spec, make_mc_grid(box, 10, seed=0))

    def test_gauss_legendre_limit_is_2n_over_frequency(self):
        # The 8-point rule: axis 0 (|g| = 2) is limited to 2 * 8 / 2 = 8 wide.
        inside = Domain(lo=[0.0, 0.0], hi=[7.99, 1.0])
        check_grid_resolution(self.spec, make_gauss_grid(inside, 8))
        message = (
            r"the 8-point Gauss-Legendre grid is too coarse for the basis: axis 0 is 8 wide, "
            r"over its limit of 8 \(largest \|frequency\| 2 times the axis width must stay "
            r"below 2 x 8 = 16\)"
        )
        with pytest.raises(ValueError, match=message):
            at_limit = Domain(lo=[0.0, 0.0], hi=[8.0, 1.0])
            check_grid_resolution(self.spec, make_gauss_grid(at_limit, 8))


class TestMcGrid:
    def test_single_node(self):
        grid = make_mc_grid(Domain(lo=[0, 0], hi=[2, 3]), 1, seed=0)
        assert grid.size == 1
        assert grid.weights[0] == pytest.approx(6.0)

    def test_weights_sum_to_volume(self):
        grid = make_mc_grid(Domain(lo=[0, 0], hi=[2, 3]), 1000, seed=5)
        assert grid.weights.sum() == pytest.approx(6.0, rel=1e-12)

    def test_moment_integral(self):
        grid = make_mc_grid(Domain(lo=[0, 0, 0], hi=[1, 1, 1]), 100_000, seed=1)
        val = (grid.nodes[:, 0] ** 2 * grid.weights).sum()
        assert val == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_deterministic(self):
        a = make_mc_grid(Domain(lo=[0.0], hi=[1.0]), 100, seed=3)
        b = make_mc_grid(Domain(lo=[0.0], hi=[1.0]), 100, seed=3)
        np.testing.assert_array_equal(a.nodes, b.nodes)


class TestDomainFromData:
    def test_margin_expansion(self):
        dom = domain_from_data(np.array([[0.0], [1.0]]), margin=0.1)
        np.testing.assert_allclose(dom.lo, [-0.1])
        np.testing.assert_allclose(dom.hi, [1.1])

    def test_constant_column_gets_width(self):
        dom = domain_from_data(np.full((5, 2), 3.0), margin=0.0)
        assert (dom.hi > dom.lo).all()
        assert dom.volume > 0

    def test_zero_margin_exact_box(self, rng):
        data = rng.uniform(0, 1, size=(100, 2))
        dom = domain_from_data(data, margin=0.0)
        np.testing.assert_allclose(dom.lo, data.min(axis=0))
        np.testing.assert_allclose(dom.hi, data.max(axis=0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            domain_from_data(np.zeros((0, 2)), margin=0.1)


def test_domain_requires_lo_below_hi():
    with pytest.raises(ValueError):
        Domain(lo=[0.0, 1.0], hi=[1.0, 1.0])

