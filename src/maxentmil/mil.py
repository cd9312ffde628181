"""Bag-level similarity and classification.

Pipelines here turn labeled multi-instance data into predictions: PCA and
standardization fitted on training folds, a distance between bags (closed
form symmetric KL of fitted densities, KDE-based KL, or average Hausdorff),
a citation-style nearest-neighbor vote, and stratified k-fold evaluation.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import (
    DEFAULT_GRID_POINTS,
    check_grid_resolution,
    domain_from_data,
    make_auto_grid,
    make_basis,
)
from .maxent import (
    BasisGrid,
    MEDensity,
    NewtonConfig,
    densities_from_columns,
    fit_sde_relaxed,
    suff_stats,
    sym_kl,
)
from .solvers import CmenaConfig, fit_joint

DISTANCES = ("kl-cmen", "kl-rmde", "kl-mde", "kl-kde", "hausdorff")

# The joint solver behind each fitted-density distance.
_JOINT_SOLVER = {"kl-cmen": "cmen", "kl-rmde": "rmde-continuation", "kl-mde": "mde"}


@dataclass(frozen=True)
class Bag:
    bag_id: str
    label: str | None
    instances: np.ndarray  # (n_i, d)

    def __post_init__(self):
        instances = np.asarray(self.instances, dtype=float)
        if instances.ndim != 2 or instances.shape[0] < 1:
            raise ValueError(f"bag {self.bag_id!r} needs a nonempty (n, d) matrix")
        object.__setattr__(self, "instances", instances)


@dataclass(frozen=True)
class LabeledBagDataset:
    bags: tuple[Bag, ...]

    def __post_init__(self):
        bags = tuple(self.bags)
        if not bags:
            raise ValueError("dataset needs at least one bag")
        seen, d = set(), bags[0].instances.shape[1]
        for b in bags:
            if b.instances.shape[1] != d:
                raise ValueError(
                    f"bag {b.bag_id!r} has dimension {b.instances.shape[1]}, "
                    f"bag {bags[0].bag_id!r} has {d}"
                )
            if b.bag_id in seen:
                raise ValueError(f"bag id {b.bag_id!r} is repeated")
            seen.add(b.bag_id)
        object.__setattr__(self, "bags", bags)

    @property
    def d(self) -> int:
        return self.bags[0].instances.shape[1]

    @property
    def labels(self) -> tuple:
        return tuple(b.label for b in self.bags)

    @property
    def bag_ids(self) -> tuple[str, ...]:
        return tuple(b.bag_id for b in self.bags)

    @property
    def class_set(self) -> tuple[str, ...]:
        return tuple(sorted({b.label for b in self.bags if b.label is not None}))

    def pooled_instances(self) -> np.ndarray:
        return np.vstack([b.instances for b in self.bags])

    def subset(self, indices) -> "LabeledBagDataset":
        return LabeledBagDataset(bags=tuple(self.bags[i] for i in indices))


@dataclass(frozen=True)
class PcaModel:
    """Mean and top-r covariance eigenvectors (columns, descending)."""

    mean: np.ndarray  # (d,)
    components: np.ndarray  # (d, r)

    @property
    def r(self) -> int:
        return self.components.shape[1]


def pca_fit(pooled: np.ndarray, r: int) -> PcaModel:
    """Top-r principal directions of the pooled instances.

    Eigenvalues descend; each component's sign is fixed so its
    largest-magnitude entry is positive, making the projection
    reproducible.
    """
    pooled = np.asarray(pooled, dtype=float)
    if pooled.ndim != 2:
        raise ValueError("pooled instances must be (n, d)")
    n, d = pooled.shape
    if r > d:
        raise ValueError(f"r={r} exceeds dimension {d}")
    if r < 1 or n <= r:
        raise ValueError("need r >= 1 and more pooled instances than r")
    mean = pooled.mean(axis=0)
    centered = pooled - mean
    cov = centered.T @ centered / max(n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:r]
    comps = eigvecs[:, order]
    for j in range(comps.shape[1]):
        peak = np.argmax(np.abs(comps[:, j]))
        if comps[peak, j] < 0:
            comps[:, j] = -comps[:, j]
    return PcaModel(mean=mean, components=comps)


def pca_apply_instances(model: PcaModel, instances: np.ndarray) -> np.ndarray:
    return (np.asarray(instances, dtype=float) - model.mean) @ model.components


def pca_apply(model: PcaModel, dataset: LabeledBagDataset) -> LabeledBagDataset:
    return LabeledBagDataset(
        bags=tuple(
            replace(b, instances=pca_apply_instances(model, b.instances))
            for b in dataset.bags
        )
    )


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray  # per-axis std, degenerate axes left at 1


def standardize_fit(pooled: np.ndarray) -> Standardizer:
    """Per-axis mean and spread of the pooled instances. Raises ValueError
    naming the first axis whose spread is not finite: deviations beyond
    about 1e154 square past the float range."""
    pooled = np.asarray(pooled, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = pooled.mean(axis=0)
        std = pooled.std(axis=0)
    bad = np.flatnonzero(~np.isfinite(std))
    if bad.size:
        raise ValueError(
            f"axis {bad[0]} of the training instances is too wide to standardize: "
            "its spread overflows the float range"
        )
    scale = np.where(std > 1e-12, std, 1.0)
    return Standardizer(mean=mean, scale=scale)


def standardize_apply(std: Standardizer, dataset: LabeledBagDataset) -> LabeledBagDataset:
    return LabeledBagDataset(
        bags=tuple(
            replace(b, instances=(b.instances - std.mean) / std.scale)
            for b in dataset.bags
        )
    )


def _directed_min_sum(a: np.ndarray, b: np.ndarray) -> float:
    """Sum over rows of a of the Euclidean distance to the nearest row of b.

    Squared distances accumulate one coordinate at a time, in order, as in
    scipy's cdist, whose distances this matches bit for bit. Rows go in
    chunks whose (rows, len(b)) block and scratch (512 KB together) stay in
    a core's cache, so the time grows as len(a) * len(b). The square root
    is taken of each row's minimum only (it is monotone, so the result is
    the same), and the minima are summed once, so the total does not
    depend on the chunks.
    """
    rows_per_chunk = max(1, 32_768 // max(b.shape[0], 1))
    cols = np.ascontiguousarray(b.T)
    nearest = np.empty(a.shape[0])
    # One allocation for block and scratch: freeing two could trim the heap
    # and make every call fault its pages in again.
    block, diff = np.empty((2, min(rows_per_chunk, a.shape[0]), b.shape[0]))
    for start in range(0, a.shape[0], rows_per_chunk):
        rows = a[start : start + rows_per_chunk]
        sq, tmp = block[: rows.shape[0]], diff[: rows.shape[0]]
        np.subtract(rows[:, 0, None], cols[0], out=sq)
        sq *= sq
        for k in range(1, a.shape[1]):
            np.subtract(rows[:, k, None], cols[k], out=tmp)
            tmp *= tmp
            sq += tmp
        sq.min(axis=1, out=nearest[start : start + rows.shape[0]])
    return float(np.sqrt(nearest, out=nearest).sum())


def avg_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Average Hausdorff distance: mean of all directed nearest-point
    distances, symmetric in the two point sets."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] < 1 or b.shape[0] < 1:
        raise ValueError("both bags must be nonempty (n, d) matrices")
    return (_directed_min_sum(a, b) + _directed_min_sum(b, a)) / (
        a.shape[0] + b.shape[0]
    )


@dataclass(frozen=True)
class KdeModel:
    """Gaussian product-kernel density over a bag's instances."""

    points: np.ndarray  # (n, d)
    bandwidths: np.ndarray  # (d,)

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n, d = self.points.shape
        const = -np.log(n) - np.log(self.bandwidths).sum() - 0.5 * d * np.log(2 * np.pi)
        out = np.empty(x.shape[0])
        rows_per_chunk = max(1, 2_000_000 // max(n, 1))
        for start in range(0, x.shape[0], rows_per_chunk):
            block = x[start : start + rows_per_chunk]
            z = (block[:, None, :] - self.points[None, :, :]) / self.bandwidths
            expo = -0.5 * (z**2).sum(axis=2)
            shift = expo.max(axis=1)
            out[start : start + block.shape[0]] = (
                shift + np.log(np.exp(expo - shift[:, None]).sum(axis=1)) + const
            )
        return out


def kde_fit(bag: np.ndarray) -> KdeModel:
    """Kernel density with the maximal-smoothing bandwidth
    1.144 * sigma_axis * n^(-1/5) per axis."""
    bag = np.asarray(bag, dtype=float)
    if bag.ndim != 2 or bag.shape[0] < 1:
        raise ValueError("bag must be a nonempty (n, d) matrix")
    n, d = bag.shape
    sigma = bag.std(axis=0, ddof=1) if n > 1 else np.ones(d)
    h = np.maximum(1.144 * sigma * n ** (-0.2), 1e-6)
    return KdeModel(points=bag, bandwidths=h)


def _grid_log_probs(log_pdf: np.ndarray, logw: np.ndarray) -> np.ndarray:
    a = log_pdf + logw
    shift = a.max()
    return a - (shift + np.log(np.exp(a - shift).sum()))


def _discrete_sym_kl(la: np.ndarray, lb: np.ndarray) -> float:
    return float(((np.exp(la) - np.exp(lb)) * (la - lb)).sum())


def _bag_metric(items, kind: str, grid=None) -> tuple:
    """The one place a distance kind picks its metric: returns the items
    prepared for it and the pair distance over prepared items. items must
    match kind (fitted densities for kl-*, KdeModel for kl-kde, instance
    arrays for hausdorff). A kl-kde item becomes its KDE's log-probabilities
    on the grid, normalized there, so each KDE is evaluated once; the
    divergence of two such items is the discrete symmetric KL (no closed
    form exists for KDE pairs)."""
    items = list(items)
    if kind in _JOINT_SOLVER:
        if not all(isinstance(x, MEDensity) for x in items):
            raise ValueError(f"kind {kind!r} expects fitted densities")
        return items, sym_kl
    if kind == "kl-kde":
        if grid is None or not all(isinstance(x, KdeModel) for x in items):
            raise ValueError("kind 'kl-kde' expects KdeModel items and a grid")
        logw = np.log(grid.weights)
        log_probs = [_grid_log_probs(k.log_pdf(grid.nodes), logw) for k in items]
        return log_probs, _discrete_sym_kl
    if kind == "hausdorff":
        arrays = [np.asarray(x, dtype=float) for x in items]
        if any(a.ndim != 2 for a in arrays):
            raise ValueError("kind 'hausdorff' expects (n, d) instance arrays")
        return arrays, avg_hausdorff
    raise ValueError(f"unknown distance kind {kind!r}; expected one of {DISTANCES}")


def _pairwise(items, dist) -> np.ndarray:
    """Symmetric matrix of dist(items[i], items[j]) over i < j, zero diagonal."""
    n = len(items)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = dist(items[i], items[j])
    return out


def sym_kl_matrix(densities: list[MEDensity]) -> np.ndarray:
    return _pairwise(densities, sym_kl)


@dataclass(frozen=True)
class CitationKnnConfig:
    k: int = 5
    k_prime: int = 5

    def __post_init__(self):
        if self.k < 1 or self.k_prime < 0:
            raise ValueError("need k >= 1 and k_prime >= 0")


def citation_knn_precomputed(
    d_train: np.ndarray,
    d_query: np.ndarray,
    labels,
    ids,
    cfg: CitationKnnConfig,
) -> str:
    """Vote of the k nearest references plus the citers of the query.

    References are the k training bags nearest the query (ties broken by
    bag id). Bag t is a citer when the query ranks among t's k_prime
    nearest neighbors over the other training bags plus the query; the
    rank counts strictly closer items, so the outcome does not depend on
    training-bag order. Label ties break by smaller summed voter distance,
    then lexicographically.
    """
    n = len(labels)
    if cfg.k > n:
        raise ValueError(f"k={cfg.k} exceeds the {n} training bags")
    order = sorted(range(n), key=lambda i: (d_query[i], ids[i]))
    voters = [(labels[i], float(d_query[i])) for i in order[: cfg.k]]
    if cfg.k_prime > 0:
        for t in range(n):
            others = np.delete(d_train[t], t)
            closer = int((others < d_query[t]).sum())
            if closer < cfg.k_prime:
                voters.append((labels[t], float(d_query[t])))
    tally: dict[str, list] = {}
    for label, dist in voters:
        entry = tally.setdefault(label, [0, 0.0])
        entry[0] += 1
        entry[1] += dist
    best = min(tally.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))
    return best[0]


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a classification run needs: preprocessing, distance
    family, basis/grid sizes, and the vote parameters."""

    distance: str = "kl-cmen"
    m: int = 16
    basis_seed: int = 0
    pca_dims: int | None = None
    margin: float = 0.1
    grid_points: int = DEFAULT_GRID_POINTS
    mc_nodes: int = 20_000
    knn: CitationKnnConfig = field(default_factory=CitationKnnConfig)
    cmena: CmenaConfig = field(default_factory=CmenaConfig)
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        if self.distance not in DISTANCES:
            raise ValueError(f"distance must be one of {DISTANCES}")


def _preprocess(train: LabeledBagDataset, test: LabeledBagDataset, cfg):
    if cfg.pca_dims is not None:
        pca = pca_fit(train.pooled_instances(), cfg.pca_dims)
        train, test = pca_apply(pca, train), pca_apply(pca, test)
    std = standardize_fit(train.pooled_instances())
    return standardize_apply(std, train), standardize_apply(std, test)


def _train_densities(train: LabeledBagDataset, spec, grid, engine, cfg):
    stats = [suff_stats(b.instances, spec, b.bag_id) for b in train.bags]
    sol, _ = fit_joint(
        _JOINT_SOLVER[cfg.distance], stats, spec, grid, engine, cfg.cmena, cfg.newton
    )
    return densities_from_columns(sol.data, sol.bag_ids, spec, grid, engine=engine)


def evaluate_split(
    train: LabeledBagDataset, test: LabeledBagDataset, cfg: PipelineConfig
) -> list[dict]:
    """Fit preprocessing and bag representations on the training bags only,
    then classify every test bag. Returns one record per test bag."""
    train, test = _preprocess(train, test, cfg)
    labels = list(train.labels)
    ids = list(train.bag_ids)
    domain = domain_from_data(train.pooled_instances(), cfg.margin)
    grid = make_auto_grid(domain, cfg.grid_points, cfg.mc_nodes, cfg.basis_seed)
    bags = train.bags + test.bags
    if cfg.distance == "hausdorff":
        items = [b.instances for b in bags]
    elif cfg.distance == "kl-kde":
        items = [kde_fit(b.instances) for b in bags]
    else:
        spec = make_basis(train.d, cfg.m, cfg.basis_seed)
        check_grid_resolution(spec, grid)
        engine = BasisGrid(spec, grid)
        items = _train_densities(train, spec, grid, engine, cfg) + [
            fit_sde_relaxed(
                suff_stats(tb.instances, spec, tb.bag_id), spec, grid, cfg.newton,
                engine=engine,
            )[0]
            for tb in test.bags
        ]
    items, dist = _bag_metric(items, cfg.distance, grid)
    train_items = items[: len(train.bags)]
    # The training pairs, then one row per test bag: no test x test pair.
    d_train = _pairwise(train_items, dist)
    out = []
    for tb, query in zip(test.bags, items[len(train.bags) :]):
        d_query = np.array([dist(query, item) for item in train_items])
        pred = citation_knn_precomputed(d_train, d_query, labels, ids, cfg.knn)
        out.append({"bag_id": tb.bag_id, "true": tb.label, "predicted": pred})
    return out


def stratified_folds(dataset: LabeledBagDataset, folds: int, seed: int) -> list[list[int]]:
    """Deal each class's shuffled bags round-robin so folds stay balanced;
    every bag lands in exactly one fold."""
    if folds < 2 or folds > len(dataset.bags):
        raise ValueError("need 2 <= folds <= number of bags")
    rng = np.random.default_rng(seed)
    assignment: list[list[int]] = [[] for _ in range(folds)]
    cursor = 0
    for label in dataset.class_set + ((None,) if None in dataset.labels else ()):
        idx = [i for i, b in enumerate(dataset.bags) if b.label == label]
        rng.shuffle(idx)
        for i in idx:
            assignment[cursor % folds].append(i)
            cursor += 1
    return [sorted(fold) for fold in assignment]


@dataclass(frozen=True)
class KfoldResult:
    mean_accuracy: float
    std_accuracy: float
    fold_accuracies: tuple[float, ...]
    predictions: tuple[dict, ...]


def kfold_evaluate(
    dataset: LabeledBagDataset,
    folds: int = 10,
    cfg: PipelineConfig = PipelineConfig(),
    seed: int = 0,
) -> KfoldResult:
    """Stratified k-fold accuracy of the configured pipeline.

    Preprocessing and densities are fitted on the training folds only. A
    class missing from some training fold triggers a warning but the fold
    is still scored.
    """
    fold_sets = stratified_folds(dataset, folds, seed)
    all_classes = set(dataset.class_set)
    accuracies = []
    predictions: list[dict] = []
    for f, test_idx in enumerate(fold_sets):
        if not test_idx:
            continue
        train_idx = [i for i in range(len(dataset.bags)) if i not in set(test_idx)]
        train, test = dataset.subset(train_idx), dataset.subset(test_idx)
        missing = all_classes - set(train.class_set)
        if missing:
            _warnings.warn(
                f"fold {f}: classes absent from training data: {sorted(missing)}"
            )
        records = evaluate_split(train, test, cfg)
        predictions.extend(records)
        accuracies.append(
            float(np.mean([r["predicted"] == r["true"] for r in records]))
        )
    acc = np.asarray(accuracies)
    return KfoldResult(
        mean_accuracy=float(acc.mean()),
        std_accuracy=float(acc.std()),
        fold_accuracies=tuple(accuracies),
        predictions=tuple(predictions),
    )
