"""Bounded instance domain, random trigonometric feature map, and the
numerical-integration grids every density computation runs on.

The feature map pairs sin/cos of random projections: for frequency rows
g_1..g_{m/2} drawn i.i.d. standard normal, feature 2k (0-based) is
sin(g_{k+1}.x) and feature 2k+1 is cos(g_{k+1}.x). Every feature is bounded
by 1, which the density solvers rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridBudgetError

# Hard cap on integration-grid nodes; a 64^3 tensor grid fits comfortably.
MAX_GRID_NODES = 4_000_000

TENSOR_GRID = "tensor-grid"
MONTE_CARLO = "monte-carlo"


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box lo[j] <= x[j] <= hi[j] with finite positive volume."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-d vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("domain bounds must be finite")
        if not (lo < hi).all():
            raise ValueError("every axis needs lo < hi")
        object.__setattr__(self, "lo", _readonly(lo))
        object.__setattr__(self, "hi", _readonly(hi))

    @property
    def d(self) -> int:
        return self.lo.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool((x >= self.lo).all() and (x <= self.hi).all())


def check_feature_count(m: int) -> None:
    """The feature map pairs a sin with a cos per frequency row, so m must
    be even and >= 2."""
    if m % 2 != 0 or m < 2:
        raise ValueError(f"feature count m must be even and >= 2, got {m}")


@dataclass(frozen=True)
class BasisSpec:
    """Random trigonometric feature map of m paired sin/cos features.

    freqs holds the m/2 frequency rows; regenerating from (d, m, seed)
    reproduces freqs bit-exactly.
    """

    d: int
    m: int
    seed: int
    freqs: np.ndarray

    def __post_init__(self):
        check_feature_count(self.m)
        freqs = np.asarray(self.freqs, dtype=float)
        if freqs.shape != (self.m // 2, self.d):
            raise ValueError(
                f"freqs must be {(self.m // 2, self.d)}, got {freqs.shape}"
            )
        object.__setattr__(self, "freqs", _readonly(freqs))

    @property
    def key(self) -> tuple:
        """Provenance tag used to refuse mixing densities from different maps."""
        return ("trig", self.d, self.m, self.seed)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Feature matrix for a batch of points.

        Parameters
        ----------
        points : (n, d) array

        Returns
        -------
        (n, m) array with sin features at even columns, cos at odd columns.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.d:
            raise ValueError(f"expected points of shape (n, {self.d}), got {points.shape}")
        proj = points @ self.freqs.T
        out = np.empty((points.shape[0], self.m))
        out[:, 0::2] = np.sin(proj)
        out[:, 1::2] = np.cos(proj)
        return out


@dataclass(frozen=True)
class IntegrationGrid:
    """Quadrature nodes and positive weights over a Domain.

    Weights sum to the domain volume, so integrating the constant 1 is exact.
    kind is "tensor-grid" (midpoint rule) or "monte-carlo" (uniform nodes).
    The construction parameters are kept so a grid round-trips through the
    model-file format.
    """

    domain: Domain
    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    points_per_axis: int | None = None
    n_nodes: int | None = None
    seed: int | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or weights.ndim != 1 or nodes.shape[0] != weights.shape[0]:
            raise ValueError("nodes must be (Q, d) and weights (Q,)")
        if not (weights > 0).all():
            raise ValueError("all quadrature weights must be positive")
        object.__setattr__(self, "nodes", _readonly(nodes))
        object.__setattr__(self, "weights", _readonly(weights))

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


def make_basis(d: int, m: int, seed: int) -> BasisSpec:
    """Draw the m/2 frequency rows i.i.d. from N(0, I_d), deterministically."""
    if d < 1:
        raise ValueError(f"instance dimension d must be >= 1, got {d}")
    check_feature_count(m)
    freqs = np.random.default_rng(seed).standard_normal((m // 2, d))
    return BasisSpec(d=d, m=m, seed=seed, freqs=freqs)


def eval_basis(spec: BasisSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate the feature map at a single point; every entry is in [-1, 1]."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.d,):
        raise ValueError(f"expected a point of shape ({spec.d},), got {x.shape}")
    return spec.evaluate(x[None, :])[0]


def make_tensor_grid(
    domain: Domain, points_per_axis: int, max_nodes: int = MAX_GRID_NODES
) -> IntegrationGrid:
    """Midpoint-rule tensor grid; every node carries weight volume / Q."""
    if points_per_axis < 2:
        raise ValueError("points_per_axis must be >= 2")
    d = domain.d
    q = points_per_axis**d
    if q > max_nodes:
        raise GridBudgetError(
            f"tensor grid needs {points_per_axis}^{d} = {q} nodes, "
            f"over the budget of {max_nodes}"
        )
    axes = [
        domain.lo[j] + (np.arange(points_per_axis) + 0.5) * (domain.hi[j] - domain.lo[j]) / points_per_axis
        for j in range(d)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    weights = np.full(q, domain.volume / q)
    return IntegrationGrid(
        domain=domain,
        kind=TENSOR_GRID,
        nodes=nodes,
        weights=weights,
        points_per_axis=points_per_axis,
    )


def check_grid_resolution(spec: BasisSpec, grid: IntegrationGrid) -> None:
    """Reject a tensor grid too coarse for the basis.

    A midpoint grid with step h_j on axis j cannot resolve sin(g.x) once
    |g_kj| * h_j >= pi for some frequency row g_k: its quadrature then
    aliases the feature and the density fits fail far from the cause.
    Monte Carlo grids have no step and are not checked.
    """
    if grid.kind != TENSOR_GRID:
        return
    ppa = grid.points_per_axis
    widths = grid.domain.hi - grid.domain.lo
    gmax = np.abs(spec.freqs).max(axis=0)
    coarse = np.flatnonzero(gmax * widths / ppa >= np.pi)
    if coarse.size:
        j = coarse[0]
        raise ValueError(
            f"the {ppa}-point tensor grid is too coarse for the basis: axis {j} is "
            f"{widths[j]:.4g} wide, over its limit of {np.pi * ppa / gmax[j]:.4g} "
            f"(largest |frequency| {gmax[j]:.4g} times the grid step must stay below pi)"
        )


def make_mc_grid(domain: Domain, n_nodes: int, seed: int) -> IntegrationGrid:
    """Uniform Monte Carlo grid; deterministic given the seed."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    rng = np.random.default_rng(seed)
    nodes = rng.uniform(domain.lo, domain.hi, size=(n_nodes, domain.d))
    weights = np.full(n_nodes, domain.volume / n_nodes)
    return IntegrationGrid(
        domain=domain,
        kind=MONTE_CARLO,
        nodes=nodes,
        weights=weights,
        n_nodes=n_nodes,
        seed=seed,
    )


def domain_from_data(instances: np.ndarray, margin: float) -> Domain:
    """Bounding box of stacked instances, expanded by margin * width per side.

    Zero-width axes are expanded by max(margin, 1e-6) absolutely so the
    volume stays positive.
    """
    instances = np.asarray(instances, dtype=float)
    if instances.ndim != 2 or instances.shape[0] < 1:
        raise ValueError("need at least one instance, shaped (n, d)")
    if margin < 0:
        raise ValueError("margin must be >= 0")
    lo = instances.min(axis=0)
    hi = instances.max(axis=0)
    width = hi - lo
    pad = np.where(width > 0, margin * width, max(margin, 1e-6))
    return Domain(lo=lo - pad, hi=hi + pad)


def make_auto_grid(
    domain: Domain,
    points_per_axis: int = 64,
    mc_nodes: int = 20_000,
    mc_seed: int = 0,
) -> IntegrationGrid:
    """Tensor grid up to 3 dimensions, Monte Carlo above that."""
    if domain.d <= 3:
        return make_tensor_grid(domain, points_per_axis)
    return make_mc_grid(domain, mc_nodes, mc_seed)
