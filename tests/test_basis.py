import numpy as np
import pytest

from maxentmil.basis import (
    BasisSpec,
    Domain,
    check_grid_resolution,
    domain_from_data,
    eval_basis,
    make_basis,
    make_mc_grid,
    make_tensor_grid,
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
            eval_basis(spec, x), [np.sin(g1 * 0.37), np.cos(g1 * 0.37)]
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
        out = eval_basis(spec2d, np.zeros(2))
        np.testing.assert_array_equal(out[0::2], np.zeros(4))
        np.testing.assert_array_equal(out[1::2], np.ones(4))

    def test_bounded_by_one(self, spec2d, rng):
        for _ in range(50):
            x = rng.uniform(-50, 50, size=2)
            assert np.abs(eval_basis(spec2d, x)).max() <= 1.0

    def test_known_projection(self):
        spec = BasisSpec(d=2, m=2, seed=0, freqs=np.array([[1.0, 0.0]]))
        out = eval_basis(spec, np.array([np.pi / 2, 5.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)

    def test_dimension_mismatch(self, spec2d):
        with pytest.raises(ValueError):
            eval_basis(spec2d, np.zeros(3))


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

    def test_budget_error_names_limit(self):
        with pytest.raises(GridBudgetError, match="100"):
            make_tensor_grid(Domain(lo=[0, 0, 0], hi=[1, 1, 1]), 64, max_nodes=100)

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
