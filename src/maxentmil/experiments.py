"""Synthetic ground truth, rejection sampling, and the experiment harnesses:
rank-recovery phase diagrams, the Monte Carlo check of the confidence bound,
and runtime scaling benchmarks.

Every stochastic work item derives its RNG stream from the run's base seed
plus its own coordinates, so sweeps are reproducible cell by cell and
independent of scheduling order.
"""

from __future__ import annotations

import time
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

import numpy as np

from .basis import (
    DEFAULT_GRID_POINTS,
    Domain,
    IntegrationGrid,
    check_dimension,
    check_feature_count,
    check_gauss_grid,
    check_tensor_grid,
    make_basis,
    make_gauss_grid,
    make_tensor_grid,
    node_features,
)
from .errors import DegenerateDensityError, GridBudgetError
from .lowrank import numeric_rank
from .maxent import (
    BasisGrid,
    MEDensity,
    NewtonConfig,
    densities_from_columns,
    fit_sde_relaxed,
    kl,
    suff_stats,
)
from .solvers import (
    CmenaConfig,
    LambdaMatrix,
    epsilon_bound,
    fit_joint,
)

PHASE_SOLVERS = ("cmen", "rmde-continuation", "rmde-cv")

# Cap on the (grid nodes x m) feature matrix a phase worker or synth holds:
# 2^24 entries (128 MiB); the 32^4 midpoint grid at m = 40 needs 41.9 million.
MAX_FEATURE_ENTRIES = 2**24


def derive_seed(*parts) -> int:
    """Stable 32-bit seed from a mixed tuple of ints and strings."""
    words = [
        zlib.crc32(p.encode()) if isinstance(p, str) else int(p) & 0xFFFFFFFF
        for p in parts
    ]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint32)[0])


def synth_box_grid(
    halfwidth: float = 3.0, d: int = 2, points_per_axis: int = DEFAULT_GRID_POINTS
) -> IntegrationGrid:
    """The fixed synthetic-experiment domain: a centered box with a
    Gauss-Legendre tensor grid up to 3 dimensions, a midpoint one above.

    One grid per (halfwidth, d, points_per_axis) is built per process and
    shared: grids are frozen with read-only arrays, so a sweep's
    repetitions reuse its nodes and its envelope lattice
    (IntegrationGrid.envelope_nodes) instead of rebuilding them."""
    return _box_grid(halfwidth, d, points_per_axis)


@lru_cache(maxsize=8)
def _box_grid(halfwidth: float, d: int, points_per_axis: int) -> IntegrationGrid:
    domain = Domain(lo=np.full(d, -halfwidth), hi=np.full(d, halfwidth))
    if d <= 3:
        return make_gauss_grid(domain, points_per_axis)
    return make_tensor_grid(domain, points_per_axis)


def check_box_features(d: int, points_per_axis: int, m: int) -> None:
    """Check synth_box_grid(., d, points_per_axis)'s dimension, node count
    and (nodes x m) feature matrix against MAX_FEATURE_ENTRIES, unbuilt."""
    check_dimension(d)
    q = (check_gauss_grid if d <= 3 else check_tensor_grid)(d, points_per_axis)
    if q * m > MAX_FEATURE_ENTRIES:
        raise GridBudgetError(
            f"the {points_per_axis}^{d} grid's feature matrix needs {q} nodes x {m} "
            f"features = {q * m} entries, over the budget of {MAX_FEATURE_ENTRIES}"
        )


def synth_lowrank_lambda(
    m: int, n_bags: int, t: int, seed: int, scale: float | None = None
) -> LambdaMatrix:
    """Exact-rank-t parameter matrix from a Gaussian factor product.

    Both factors have i.i.d. N(0, scale^2) entries with scale defaulting to
    1/sqrt(m), which keeps every bag's log-density range O(1) so rejection
    sampling stays workable.
    """
    if t > min(m, n_bags) or t < 1:
        raise ValueError(f"rank t must be in [1, {min(m, n_bags)}], got {t}")
    if scale is None:
        scale = 1.0 / np.sqrt(m)
    rng = np.random.default_rng(seed)
    left = rng.normal(0.0, scale, size=(m, t))
    right = rng.normal(0.0, scale, size=(t, n_bags))
    return LambdaMatrix(
        data=left @ right, bag_ids=tuple(f"bag{i:03d}" for i in range(n_bags))
    )


def densities_from_matrix(
    matrix: LambdaMatrix, spec, grid, engine: BasisGrid | None = None
) -> list[MEDensity]:
    """Materialize per-column densities, caching logZ and feature means."""
    return densities_from_columns(matrix.data, matrix.bag_ids, spec, grid, engine)


# Candidates rejection_sample evaluates at a time, in proposal order: it
# stops at the block that holds the n-th acceptance.
_SAMPLE_BLOCK = 256


def rejection_sample(
    density: MEDensity, spec, grid: IntegrationGrid, n: int, seed: int
) -> tuple[np.ndarray, float]:
    """Draw n i.i.d. points from the density by rejection against a uniform
    proposal over the domain box.

    The envelope is 1.1x the largest unnormalized density over the grid's
    envelope nodes; the 10% headroom covers peaks falling between nodes.
    Their features come from basis.node_features, evaluated once for a run
    of bags with one spec. Proposals and their uniforms are drawn a chunk
    of max(4n, 4096) at a time, which fixes the RNG stream; the candidates
    are then evaluated and tested block by block, in order, up to the n-th
    acceptance, so the samples are the first n accepted candidates of that
    stream whatever the block size. Returns the samples and the acceptance
    rate, accepted over examined candidates (n over the position of the
    n-th acceptance). Raises ValueError for a density of another basis,
    and DegenerateDensityError if acceptance stays under 1e-4 on the probe
    batch of whole chunks (density too peaked for the grid resolution).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if density.basis_key != spec.key:
        raise ValueError(f"density basis {density.basis_key} is not {spec.key}")
    domain = grid.domain
    phi = node_features(spec, grid.envelope_nodes)
    log_env = np.log(1.1) + float((phi @ density.lam).max())
    rng = np.random.default_rng(seed)
    chunk = max(4 * n, 4096)
    probe = max(50_000, 10 * n)
    accepted: list[np.ndarray] = []
    n_kept = 0
    n_examined = 0
    while True:
        props = rng.uniform(domain.lo, domain.hi, size=(chunk, domain.d))
        u = rng.uniform(size=chunk)
        for start in range(0, chunk, _SAMPLE_BLOCK):
            block = props[start : start + _SAMPLE_BLOCK]
            log_u = np.log(u[start : start + _SAMPLE_BLOCK])
            keep = np.flatnonzero(log_u <= spec.evaluate(block) @ density.lam - log_env)
            if n_kept + keep.size >= n:
                keep = keep[: n - n_kept]
                accepted.append(block[keep])
                return np.concatenate(accepted, axis=0), n / (n_examined + int(keep[-1]) + 1)
            n_kept += keep.size
            n_examined += block.shape[0]
            accepted.append(block[keep])
        if n_examined >= probe and n_kept / n_examined < 1e-4:
            raise DegenerateDensityError(
                f"acceptance rate {n_kept / n_examined:.2e} after "
                f"{n_examined} proposals; envelope too loose or density too "
                "peaked for the grid resolution"
            )


def recovery_threshold(true_matrices: list[LambdaMatrix]) -> float:
    """Singular-value cut for exact-rank checks: over the ensemble of true
    matrices, mean minus three population standard deviations of each
    matrix's smallest nonzero singular value, floored at 1e-12."""
    if not true_matrices:
        raise ValueError("need at least one matrix")
    smallest = []
    for mat in true_matrices:
        s = np.linalg.svd(mat.data, compute_uv=False)
        nonzero = s[s > 1e-12]
        smallest.append(float(nonzero.min()) if nonzero.size else 0.0)
    arr = np.asarray(smallest)
    return max(float(arr.mean() - 3.0 * arr.std()), 1e-12)


@dataclass(frozen=True)
class PhaseDiagramSpec:
    """One rank-recovery sweep: a grid of (feature count, true rank) cells,
    each repeated `reps` times with derived seeds."""

    n_bags: int
    m_values: tuple[int, ...]
    t_values: tuple[int, ...]
    n_per_bag: int
    reps: int = 10
    base_seed: int = 0
    solver: str = "cmen"
    threads: int = 1
    d: int = 2
    domain_halfwidth: float = 3.0
    grid_points: int = DEFAULT_GRID_POINTS
    cmena: CmenaConfig = field(default_factory=CmenaConfig)
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.solver not in PHASE_SOLVERS:
            raise ValueError(f"solver must be one of {PHASE_SOLVERS}")
        if self.n_per_bag < 1:
            raise ValueError("n_per_bag must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not self.domain_halfwidth > 0:
            raise ValueError(f"domain_halfwidth must be positive, got {self.domain_halfwidth}")
        for t in self.t_values:
            if t < 1:
                raise ValueError(f"true rank {t} must be >= 1")
            if t > self.n_bags:
                raise ValueError(f"true rank {t} must be <= bag count {self.n_bags}")
        for m in self.m_values:
            check_feature_count(m)
            for t in self.t_values:
                if t >= m:
                    raise ValueError(f"true rank {t} must be < feature count {m}")
        check_box_features(self.d, self.grid_points, max(self.m_values, default=0))


@dataclass(frozen=True)
class PhaseCell:
    """One pixel of the diagram: empirical probability of exact recovery."""

    m: int
    t: int
    recovery_probability: float
    ranks: tuple[int, ...]
    threshold: float
    warnings: tuple[str, ...] = ()


def _sample_columns(matrix: LambdaMatrix, spec, grid, engine, n_per_bag, seed_parts):
    """Yield (density, rejection samples) per column of matrix, bag i drawn
    with seed derive_seed(*seed_parts, "instances", i)."""
    for i, dens in enumerate(densities_from_matrix(matrix, spec, grid, engine=engine)):
        seed = derive_seed(*seed_parts, "instances", i)
        yield dens, rejection_sample(dens, spec, grid, n_per_bag, seed)[0]


def _phase_rep(args) -> tuple[int, tuple[str, ...]]:
    """One (cell, rep) work item; returns (recovered rank, warnings)."""
    pd, m, t, rep, threshold = args
    warnings: list[str] = []
    try:
        truth = synth_lowrank_lambda(
            m, pd.n_bags, t, derive_seed(pd.base_seed, m, t, rep, "lambda")
        )
        spec = make_basis(pd.d, m, derive_seed(pd.base_seed, m, t, rep, "basis"))
        grid = synth_box_grid(pd.domain_halfwidth, pd.d, pd.grid_points)
        engine = BasisGrid(spec, grid)
        columns = _sample_columns(
            truth, spec, grid, engine, pd.n_per_bag, (pd.base_seed, m, t, rep)
        )
        stats = [suff_stats(samples, spec, dens.bag_id) for dens, samples in columns]
        sol, rep_report = fit_joint(
            pd.solver, stats, spec, grid, engine, pd.cmena, pd.newton,
            split_seed=derive_seed(pd.base_seed, m, t, rep, "cv-split"),
        )
        warnings.extend(rep_report.warnings)
        rank = numeric_rank(sol.data, threshold)
    except Exception as exc:  # record, never abort the sweep
        warnings.append(f"rep failed: {type(exc).__name__}: {exc}")
        rank = -1
    return rank, tuple(warnings)


def phase_cell_threshold(pd: PhaseDiagramSpec, m: int, t: int) -> float:
    """Recovery cut for one cell, from that cell's ensemble of true matrices."""
    truths = [
        synth_lowrank_lambda(
            m, pd.n_bags, t, derive_seed(pd.base_seed, m, t, rep, "lambda")
        )
        for rep in range(pd.reps)
    ]
    return recovery_threshold(truths)


def phase_cells(
    pd: PhaseDiagramSpec, skip_cells: set[tuple[int, int]] | None = None
) -> Iterator[PhaseCell]:
    """Run every (m, t) cell not in skip_cells, m-major, and yield each cell
    as soon as its last repetition finishes. Both the builtin and the pool's
    map return results in item order, so a cell is the next pd.reps results."""
    skip = skip_cells or set()
    cells = [
        (m, t, phase_cell_threshold(pd, m, t))
        for m in pd.m_values for t in pd.t_values if (m, t) not in skip
    ]
    items = [(pd, m, t, rep, thr) for m, t, thr in cells for rep in range(pd.reps)]
    pool = None
    if pd.threads > 1 and len(items) > 1:
        # Imported here so that commands without a pool do not load it.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=pd.threads)
    results = pool.map(_phase_rep, items, chunksize=1) if pool else map(_phase_rep, items)
    try:
        for m, t, threshold in cells:
            reps = list(islice(results, pd.reps))
            ranks = tuple(rank for rank, _ in reps)
            yield PhaseCell(
                m=m,
                t=t,
                recovery_probability=sum(1 for r in ranks if r == t) / pd.reps,
                ranks=ranks,
                threshold=threshold,
                warnings=tuple(w for _, warns in reps for w in warns),
            )
    finally:
        if pool:
            # An interrupted sweep stops now instead of running the rest.
            pool.shutdown(cancel_futures=True)


def run_phase_diagram(pd: PhaseDiagramSpec) -> list[PhaseCell]:
    """Run every (m, t) cell, m-major."""
    return list(phase_cells(pd))


def markov_bound_trial(
    n_bags: int,
    m: int,
    n_per_bag: int,
    trials: int,
    a_values: list[float],
    seed: int,
    d: int = 2,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> tuple[dict[float, float], np.ndarray]:
    """Monte Carlo check of the confidence bound.

    Each trial draws a true parameter matrix, samples every bag, refits the
    columns by maximum likelihood, and records the total weighted KL from
    the refits to the truth. Returns, per multiplier a, the fraction of
    trials at or above the radius a*N*m/2, plus the raw totals.
    """
    if trials < 50:
        raise ValueError("need at least 50 trials")
    # Checks n_bags, m and every a before the first draw.
    radii = {float(a): epsilon_bound(n_bags, m, a) for a in a_values}
    check_box_features(d, grid_points, m)
    grid = synth_box_grid(3.0, d, grid_points)
    sums = np.empty(trials)
    for trial in range(trials):
        spec = make_basis(d, m, derive_seed(seed, trial, "basis"))
        engine = BasisGrid(spec, grid)
        truth = synth_lowrank_lambda(
            m, n_bags, min(m, n_bags), derive_seed(seed, trial, "lambda")
        )
        total = 0.0
        for dens, samples in _sample_columns(
            truth, spec, grid, engine, n_per_bag, (seed, trial)
        ):
            stats = suff_stats(samples, spec, dens.bag_id)
            fitted, _ = fit_sde_relaxed(stats, spec, grid, engine=engine)
            total += stats.n * kl(fitted, dens)
        sums[trial] = total
    fractions = {a: float((sums >= eps).mean()) for a, eps in radii.items()}
    return fractions, sums


def synth_bags_from_matrix(
    matrix: LambdaMatrix,
    spec,
    grid,
    n_per_bag: int,
    seed: int,
    labels=None,
):
    """Sample one bag of instances per column of a parameter matrix."""
    from .mil import Bag, LabeledBagDataset

    columns = _sample_columns(
        matrix, spec, grid, BasisGrid(spec, grid), n_per_bag, (seed,)
    )
    return LabeledBagDataset(
        bags=tuple(
            Bag(
                bag_id=dens.bag_id,
                label=None if labels is None else labels[i],
                instances=samples,
            )
            for i, (dens, samples) in enumerate(columns)
        )
    )


def synth_two_class_bags(
    n_bags: int,
    n_per_bag: int,
    m: int,
    seed: int,
    d: int = 2,
    separation: float = 1.5,
    within: float = 0.2,
    grid_points: int = DEFAULT_GRID_POINTS,
    halfwidth: float = 3.0,
):
    """Two-class bag dataset with rank-2 structure per class.

    Each class owns a random m x 2 factor; a bag's parameter vector is that
    factor applied to a class-center coefficient pair plus small Gaussian
    jitter, so the two classes form well-separated clusters of densities
    while every class's parameters stay rank 2. Returns the dataset and a
    truth record (per-bag parameters, class factors, seeds).
    """
    if n_bags % 2 != 0:
        raise ValueError("n_bags must be even (balanced classes)")
    if within < 0:
        raise ValueError(f"within must be >= 0, got {within}")
    rng = np.random.default_rng(derive_seed(seed, "structure"))
    spec = make_basis(d, m, derive_seed(seed, "basis"))
    grid = synth_box_grid(halfwidth, d, grid_points)
    # Factor columns have roughly unit norm, so |A w| tracks |w|.
    scale = 1.0 / np.sqrt(m)
    factors = {
        "a": rng.normal(0.0, scale, size=(m, 2)),
        "b": rng.normal(0.0, scale, size=(m, 2)),
    }
    centers = {
        "a": np.array([separation, 0.0]),
        "b": np.array([0.0, separation]),
    }
    columns, labels, ids = [], [], []
    per_class = n_bags // 2
    for label in ("a", "b"):
        for j in range(per_class):
            w = centers[label] + within * rng.standard_normal(2)
            columns.append(factors[label] @ w)
            ids.append(f"{label}{j:03d}")
            labels.append(label)
    matrix = LambdaMatrix(data=np.column_stack(columns), bag_ids=tuple(ids))
    dataset = synth_bags_from_matrix(
        matrix, spec, grid, n_per_bag, derive_seed(seed, "sampling"), labels=labels
    )
    truth = {
        "m": m,
        "d": d,
        "seed": seed,
        "separation": separation,
        "within": within,
        "labels": {ids[i]: labels[i] for i in range(n_bags)},
        "lambda_columns": {ids[i]: matrix.data[:, i].tolist() for i in range(n_bags)},
    }
    return dataset, truth


def _interleaved_best(tasks: dict, repeats: int) -> dict:
    """Best-of-`repeats` timing per task, with the tasks interleaved inside
    every repeat so slow system drift cancels out of timing ratios."""
    best = {key: np.inf for key in tasks}
    for _ in range(repeats):
        for key, (fn, inner_iters) in tasks.items():
            t0 = time.perf_counter()
            for _ in range(inner_iters):
                fn()
            best[key] = min(best[key], (time.perf_counter() - t0) / inner_iters)
    return best


def runtime_benchmark(
    n_linear: tuple[int, int] = (20_000, 40_000),
    n_quadratic: tuple[int, int] = (600, 1_200),
    m: int = 20,
    n_densities: int = 100,
    seed: int = 0,
    repeats: int = 5,
) -> list[dict]:
    """Scaling probes behind the complexity claims.

    Measures, per bag size: summarizing one bag (expected linear in n), the
    pairwise symmetric-KL matrix over fitted densities (expected
    independent of n, since it reads only m-vectors), and one average
    Hausdorff distance between two bags (expected quadratic in n, so it
    runs on smaller sizes). Each timing is the best of `repeats` runs.
    Returns machine-readable rows {op, n, seconds}.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    from .mil import avg_hausdorff, sym_kl_matrix

    d = 2
    grid = synth_box_grid(3.0, d)
    tasks: dict = {}
    for n in n_linear:
        rng = np.random.default_rng(derive_seed(seed, n))
        spec = make_basis(d, m, derive_seed(seed, n, "basis"))
        bag = rng.uniform(-3.0, 3.0, size=(n, d))
        tasks[("suff_stats", n)] = (
            lambda bag=bag, spec=spec: suff_stats(bag, spec, "bench"),
            3,
        )
        engine = BasisGrid(spec, grid)
        densities = []
        for i in range(n_densities):
            sub = bag[rng.integers(0, n, size=min(n, 500))]
            densities.append(
                fit_sde_relaxed(suff_stats(sub, spec, f"d{i}"), spec, grid, engine=engine)[0]
            )
        tasks[("kl_matrix", n)] = (
            lambda densities=densities: sym_kl_matrix(densities),
            3,
        )
    for n in n_quadratic:
        rng = np.random.default_rng(derive_seed(seed, n, "haus"))
        bag_a = rng.uniform(-3.0, 3.0, size=(n, d))
        bag_b = rng.uniform(-3.0, 3.0, size=(n, d))
        tasks[("avg_hausdorff", n)] = (
            lambda a=bag_a, b=bag_b: avg_hausdorff(a, b),
            2,
        )
    best = _interleaved_best(tasks, repeats)
    return [
        {"op": op, "n": n, "seconds": best[(op, n)]} for op, n in tasks
    ]
