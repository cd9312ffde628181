import numpy as np
import pytest
import scipy.linalg

from maxentmil.lowrank import (
    SvdFactors,
    nuclear_norm,
    numeric_rank,
    rank_ladder_svd,
    soft_threshold,
    svd,
)


def prox_objective(y, x, alpha):
    return alpha * nuclear_norm(y) + 0.5 * np.linalg.norm(x - y) ** 2


def independent_soft_threshold(x, alpha):
    """Oracle via a different LAPACK driver than the production path."""
    u, s, vt = scipy.linalg.svd(x, full_matrices=False, lapack_driver="gesvd")
    return (u * np.maximum(s - alpha, 0.0)) @ vt


class TestSvd:
    def test_diagonal(self):
        f = svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(f.s, [3.0, 1.0])

    def test_zero_matrix(self):
        f = svd(np.zeros((4, 3)))
        np.testing.assert_allclose(f.s, 0.0)

    def test_factors_invariants(self, rng):
        x = rng.standard_normal((8, 6))
        f = svd(x)
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(6), atol=1e-10)
        assert (np.diff(f.s) <= 1e-12).all() and (f.s >= 0).all()
        np.testing.assert_allclose(f.reconstruct(), x, atol=1e-8)

    def test_singulars_match_eigenvalues(self, rng):
        x = rng.standard_normal((8, 6))
        f = svd(x)
        eig = np.sqrt(np.sort(np.linalg.eigvalsh(x.T @ x))[::-1])
        np.testing.assert_allclose(f.s, eig, atol=1e-8)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.inf]]))


class TestNuclearNorm:
    def test_identity(self):
        assert nuclear_norm(np.eye(3)) == pytest.approx(3.0)

    def test_rank_one(self, rng):
        u = rng.standard_normal(5)
        v = rng.standard_normal(7)
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        assert nuclear_norm(np.outer(u, v)) == pytest.approx(1.0, abs=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(100):
            a = rng.standard_normal((5, 4))
            b = rng.standard_normal((5, 4))
            assert nuclear_norm(a + b) <= nuclear_norm(a) + nuclear_norm(b) + 1e-9


class TestSoftThreshold:
    def test_alpha_zero_identity(self, rng):
        x = rng.standard_normal((6, 5))
        np.testing.assert_allclose(soft_threshold(x, 0.0), x, atol=1e-10)

    def test_full_shrinkage(self, rng):
        x = rng.standard_normal((6, 5))
        top = np.linalg.svd(x, compute_uv=False)[0]
        np.testing.assert_allclose(soft_threshold(x, top + 1), 0.0, atol=1e-12)

    def test_tie_maps_to_zero(self):
        x = np.diag([2.0, 1.0])
        out = soft_threshold(x, 1.0)
        np.testing.assert_allclose(np.linalg.svd(out, compute_uv=False), [1.0, 0.0], atol=1e-12)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.eye(2), -0.1)

    def test_matches_independent_closed_form(self, rng):
        for _ in range(25):
            x = rng.standard_normal((8, 6))
            np.testing.assert_allclose(
                soft_threshold(x, 0.3), independent_soft_threshold(x, 0.3), atol=1e-10
            )

    def test_minimizes_prox_objective(self, rng):
        x = rng.standard_normal((8, 6))
        y = soft_threshold(x, 0.3)
        base = prox_objective(y, x, 0.3)
        for _ in range(200):
            pert = rng.standard_normal((8, 6))
            pert /= np.linalg.norm(pert)
            assert base <= prox_objective(y + 1e-3 * pert, x, 0.3) + 1e-12

    def test_nonexpansive(self, rng):
        for _ in range(50):
            a = rng.standard_normal((6, 4))
            b = rng.standard_normal((6, 4))
            lhs = np.linalg.norm(soft_threshold(a, 0.5) - soft_threshold(b, 0.5))
            assert lhs <= np.linalg.norm(a - b) + 1e-10

    def test_rank_nonincreasing_in_alpha(self, rng):
        x = rng.standard_normal((7, 5))
        ranks = [
            np.linalg.matrix_rank(soft_threshold(x, a), tol=1e-10)
            for a in (0.0, 0.2, 0.5, 1.0, 2.0)
        ]
        assert ranks == sorted(ranks, reverse=True)


class TestNumericRank:
    def test_diagonal(self):
        assert numeric_rank(np.diag([3.0, 1.0]), 2.0) == 1

    def test_zero(self):
        assert numeric_rank(np.zeros((3, 3)), 0.5) == 0

    def test_constructed_rank(self, rng):
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal((3, 6))
        assert numeric_rank(a @ b, 1e-8) == 3


def spectrum_matrix(values, rng, m=14, n=13):
    """Random orthogonal factors around a prescribed spectrum."""
    q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.zeros((m, n))
    for i, v in enumerate(values):
        s[i, i] = v
    return q1 @ s @ q2


class TestRankLadder:
    def test_all_below_cut(self, rng):
        x = 0.01 * rng.standard_normal((6, 5))
        top = np.linalg.svd(x, compute_uv=False)[0]
        f = rank_ladder_svd(x, cut=top + 1)
        assert f.rank == 0
        assert f.u.shape == (6, 0) and f.v.shape == (5, 0)

    def test_two_rounds_for_seven_above(self, rng):
        values = [10, 9, 8, 7, 6, 5, 4, 0.5, 0.4, 0.3, 0.2, 0.1]
        x = spectrum_matrix(values, rng)
        f = rank_ladder_svd(x, cut=1.0)
        assert f.rank == 7

    def test_single_round_when_first_batch_crosses(self, rng):
        values = [5, 4, 3, 0.2, 0.1, 0.05]
        x = spectrum_matrix(values, rng, m=8, n=7)
        assert rank_ladder_svd(x, cut=1.0).rank == 3

    def test_equals_filtered_full_svd(self, rng):
        for _ in range(20):
            x = rng.standard_normal((9, 7))
            cut = float(np.median(np.linalg.svd(x, compute_uv=False)))
            f = rank_ladder_svd(x, cut=cut)
            full = svd(x)
            r = int((full.s > cut).sum())
            assert f.rank == r
            np.testing.assert_allclose(f.s, full.s[:r], atol=1e-10)
            np.testing.assert_allclose(
                f.reconstruct(),
                (full.u[:, :r] * full.s[:r]) @ full.v[:, :r].T,
                atol=1e-10,
            )

    def test_cut_must_be_positive(self):
        with pytest.raises(ValueError):
            rank_ladder_svd(np.eye(3), cut=0.0)
