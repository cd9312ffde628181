"""Bounded instance domain, random trigonometric feature map, and the
numerical-integration grids every density computation runs on.

The feature map pairs sin/cos of random projections: for frequency rows
g_1..g_{m/2} drawn i.i.d. standard normal, feature 2k (0-based) is
sin(g_{k+1}.x) and feature 2k+1 is cos(g_{k+1}.x). Every feature is bounded
by 1, which the density solvers rely on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridBudgetError

# Hard cap on integration-grid nodes; a 64^3 tensor grid fits comfortably.
MAX_GRID_NODES = 4_000_000

# Points per axis of the tensor grid every command and harness builds by
# default (make_auto_grid, experiments.synth_box_grid).
DEFAULT_GRID_POINTS = 32

# Computing the n-point Gauss-Legendre rule costs O(n^2) (_legendre_rule),
# so it is capped; the node budget caps it lower from 2 dimensions on.
MAX_GAUSS_POINTS = 2048

# Rejection sampling's envelope over a Gauss-Legendre grid is taken on the
# midpoint lattice with this many points per axis (IntegrationGrid.envelope_nodes).
ENVELOPE_POINTS = 64

TENSOR_GRID = "tensor-grid"
GAUSS_LEGENDRE = "gauss-legendre"
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
        np.sin(proj, out=out[:, 0::2])
        np.cos(proj, out=out[:, 1::2])
        return out


@dataclass(frozen=True)
class IntegrationGrid:
    """Quadrature nodes and positive weights over a Domain.

    Weights sum to the domain volume, so integrating the constant 1 is exact.
    kind is "gauss-legendre" (tensor Gauss-Legendre rule), "tensor-grid"
    (midpoint rule) or "monte-carlo" (uniform nodes).
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

    @cached_property
    def envelope_nodes(self) -> np.ndarray:
        """The nodes rejection sampling takes its envelope over, built once
        per grid: the grid's own nodes, except for a Gauss-Legendre grid.
        Its few nodes crowd the box edges, so its envelope is taken on the
        ENVELOPE_POINTS-per-axis midpoint lattice of its domain, and the
        samples are those drawn with a midpoint grid of that size."""
        if self.kind != GAUSS_LEGENDRE:
            return self.nodes
        return make_tensor_grid(self.domain, ENVELOPE_POINTS).nodes


_features = threading.local()


def node_features(spec: BasisSpec, nodes: np.ndarray) -> np.ndarray:
    """spec.evaluate(nodes), read-only, for a grid's own node array
    (grid.nodes or grid.envelope_nodes). Each thread keeps its last
    (spec, nodes) pair, keyed by identity (both are frozen and read-only,
    and the entry's references keep the ids alive), with its features: an
    engine (maxent.BasisGrid) and the rejection envelopes drawn after it
    (experiments.rejection_sample) evaluate a node set once."""
    if nodes.flags.writeable:
        raise ValueError("node_features takes a grid's read-only node array")
    last = getattr(_features, "last", None)
    if last is not None and last[0] is spec and last[1] is nodes:
        return last[2]
    phi = spec.evaluate(nodes)
    phi.setflags(write=False)
    _features.last = (spec, nodes, phi)
    return phi


def check_dimension(d: int) -> None:
    """An instance has at least one coordinate."""
    if d < 1:
        raise ValueError(f"instance dimension d must be >= 1, got {d}")


def make_basis(d: int, m: int, seed: int) -> BasisSpec:
    """Draw the m/2 frequency rows i.i.d. from N(0, I_d), deterministically."""
    check_dimension(d)
    check_feature_count(m)
    freqs = np.random.default_rng(seed).standard_normal((m // 2, d))
    return BasisSpec(d=d, m=m, seed=seed, freqs=freqs)


def check_tensor_grid(d: int, points_per_axis: int) -> int:
    """The node count points_per_axis**d of a tensor grid, checked before
    any node is built: at least 2 points per axis, MAX_GRID_NODES at most."""
    if points_per_axis < 2:
        raise ValueError(f"grid_points (points per axis) must be >= 2, got {points_per_axis}")
    q = points_per_axis**d
    if q > MAX_GRID_NODES:
        raise GridBudgetError(
            f"tensor grid needs {points_per_axis}^{d} = {q} nodes, "
            f"over the budget of {MAX_GRID_NODES}"
        )
    return q


def check_gauss_grid(d: int, points_per_axis: int) -> int:
    """check_tensor_grid for a Gauss-Legendre grid, which also has at most
    MAX_GAUSS_POINTS points per axis."""
    q = check_tensor_grid(d, points_per_axis)
    if points_per_axis > MAX_GAUSS_POINTS:
        raise GridBudgetError(
            f"a Gauss-Legendre grid has at most {MAX_GAUSS_POINTS} points per axis, "
            f"got {points_per_axis}"
        )
    return q


def _mesh(axes: list[np.ndarray]) -> np.ndarray:
    """(Q, d) tensor product of per-axis values, the last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def make_tensor_grid(domain: Domain, points_per_axis: int) -> IntegrationGrid:
    """Midpoint-rule tensor grid; every node carries weight volume / Q."""
    d = domain.d
    q = check_tensor_grid(d, points_per_axis)
    axes = [
        domain.lo[j] + (np.arange(points_per_axis) + 0.5) * (domain.hi[j] - domain.lo[j]) / points_per_axis
        for j in range(d)
    ]
    weights = np.full(q, domain.volume / q)
    return IntegrationGrid(
        domain=domain,
        kind=TENSOR_GRID,
        nodes=_mesh(axes),
        weights=weights,
        points_per_axis=points_per_axis,
    )


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x), by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (x * p - p_prev) / ((x - 1) * (x + 1))


@lru_cache(maxsize=8)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1],
    read-only; computed once per n, since k-fold classification builds a
    grid of one size on each fold's own domain.

    The nodes are the roots of P_n, found by Newton's method from the
    asymptotic guesses cos(pi (k + 3/4) / (n + 1/2)). numpy's leggauss
    solves an n x n eigenproblem instead: it gives the same rule to
    rounding, but the LAPACK eigensolver it loads adds about 1 MB to the
    peak memory of a process that uses no other, and at n = 2048 it is
    nine times slower.
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= 1e-14:
            break
    _, dp = _legendre(n, x)
    w = 2 / ((1 - x) * (1 + x) * dp * dp)
    return _readonly(x[::-1]), _readonly(w[::-1])


def make_gauss_grid(domain: Domain, points_per_axis: int) -> IntegrationGrid:
    """Gauss-Legendre tensor grid: the n-point rule mapped to each axis,
    the weights multiplied. It integrates every polynomial of degree at
    most 2n - 1 in each coordinate exactly, and converges spectrally on the
    smooth densities of the trigonometric basis, so it needs far fewer
    nodes than the midpoint rule for the same accuracy."""
    check_gauss_grid(domain.d, points_per_axis)
    x, w = _legendre_rule(points_per_axis)
    half = (domain.hi - domain.lo) / 2
    mid = (domain.hi + domain.lo) / 2
    return IntegrationGrid(
        domain=domain,
        kind=GAUSS_LEGENDRE,
        nodes=_mesh([mid[j] + half[j] * x for j in range(domain.d)]),
        weights=_mesh([half[j] * w for j in range(domain.d)]).prod(axis=1),
        points_per_axis=points_per_axis,
    )


def check_grid_resolution(spec: BasisSpec, grid: IntegrationGrid) -> None:
    """Reject a tensor grid too coarse for the basis.

    A grid whose widest node gap on axis j is h_j cannot resolve sin(g.x)
    once |g_kj| * h_j >= pi for some frequency row g_k: its quadrature then
    aliases the feature and the density fits fail far from the cause. The
    midpoint rule's gap is W_j / n on an axis W_j wide; the n-point
    Gauss-Legendre rule's widest gap, at the middle of the axis, is about
    pi * W_j / (2n), so there the rule is |g_kj| * W_j < 2n. Monte Carlo
    grids have no step and are not checked.
    """
    if grid.kind == MONTE_CARLO:
        return
    ppa = grid.points_per_axis
    widths = grid.domain.hi - grid.domain.lo
    gmax = np.abs(spec.freqs).max(axis=0)
    if grid.kind == GAUSS_LEGENDRE:
        name, limit = "Gauss-Legendre", 2 * ppa
        rule = f"times the axis width must stay below 2 x {ppa} = {limit}"
    else:
        name, limit = "tensor", np.pi * ppa
        rule = "times the grid step must stay below pi"
    coarse = np.flatnonzero(gmax * widths >= limit)
    if coarse.size:
        j = coarse[0]
        raise ValueError(
            f"the {ppa}-point {name} grid is too coarse for the basis: axis {j} is "
            f"{widths[j]:.4g} wide, over its limit of {limit / gmax[j]:.4g} "
            f"(largest |frequency| {gmax[j]:.4g} {rule})"
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
    points_per_axis: int = DEFAULT_GRID_POINTS,
    mc_nodes: int = 20_000,
    mc_seed: int = 0,
) -> IntegrationGrid:
    """Gauss-Legendre tensor grid up to 3 dimensions, Monte Carlo above that."""
    if domain.d <= 3:
        return make_gauss_grid(domain, points_per_axis)
    return make_mc_grid(domain, mc_nodes, mc_seed)
