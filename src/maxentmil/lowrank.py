"""Spectral operators: SVD access, singular values, nuclear norm,
singular-value soft-thresholding, numeric rank, and the SVD truncated at a
cut."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD X = u @ diag(s) @ v.T with s sorted descending."""

    u: np.ndarray  # (m, r), column-orthonormal
    s: np.ndarray  # (r,), nonnegative, descending
    v: np.ndarray  # (n, r), column-orthonormal

    @property
    def rank(self) -> int:
        return self.s.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T


def _check_finite(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("matrix entries must be finite")
    return x


def svd(x: np.ndarray) -> SvdFactors:
    """Full thin SVD via the dense backend."""
    x = _check_finite(x)
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    return SvdFactors(u=u, s=s, v=vt.T)


def singular_values(x: np.ndarray) -> np.ndarray:
    """Singular values, descending, from the dense backend."""
    return np.linalg.svd(np.asarray(x, dtype=float), compute_uv=False)


def nuclear_norm(x: np.ndarray) -> float:
    """Sum of singular values."""
    return float(singular_values(_check_finite(x)).sum())


def soft_threshold(x: np.ndarray, alpha: float) -> np.ndarray:
    """Shrink singular values by alpha and truncate at zero.

    This is the proximal map of alpha * nuclear norm; a singular value
    exactly equal to alpha maps to zero.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    f = svd(x)
    shrunk = np.maximum(f.s - alpha, 0.0)
    return (f.u * shrunk) @ f.v.T


def numeric_rank(x: np.ndarray, threshold: float) -> int:
    """Number of singular values strictly above the threshold."""
    return int((singular_values(x) > threshold).sum())


def rank_ladder_svd(x: np.ndarray, cut: float) -> SvdFactors:
    """Exactly the singular triplets with value > cut: a dense SVD with the
    values at or below the cut filtered out."""
    if cut <= 0:
        raise ValueError("cut must be > 0")
    f = svd(x)
    r = int((f.s > cut).sum())
    return SvdFactors(u=f.u[:, :r], s=f.s[:r], v=f.v[:, :r])
