"""File formats: bag datasets (JSON Lines or CSV), fitted model files,
sufficient-statistics files, distance matrices and prediction records.

All writers are deterministic (sorted keys, fixed separators) so identical
runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .basis import (
    MONTE_CARLO,
    TENSOR_GRID,
    BasisSpec,
    Domain,
    IntegrationGrid,
    make_mc_grid,
    make_tensor_grid,
)
from .maxent import MEDensity
from .mil import Bag, LabeledBagDataset

FORMAT_VERSION = 1


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path, obj):
    Path(path).write_text(dumps_canonical(obj))


def read_json(path):
    return json.loads(Path(path).read_text())


def read_bags_jsonl(path) -> LabeledBagDataset:
    """One bag per line: {"bag_id": str, "label": optional str,
    "instances": [[...], ...]}. Errors carry the offending line number."""
    bags = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            try:
                bag_id = rec["bag_id"]
                instances = np.asarray(rec["instances"], dtype=float)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: bad bag record: {exc}") from exc
            if instances.size == 0:
                raise ValueError(
                    f"{path}: line {lineno}: bag {bag_id!r} has no instances"
                )
            if not np.isfinite(instances).all():
                raise ValueError(
                    f"{path}: line {lineno}: bag {bag_id!r} has a non-finite instance"
                )
            try:
                bag = Bag(bag_id=str(bag_id), label=rec.get("label"), instances=instances)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            bags.append(bag)
    if not bags:
        raise ValueError(f"{path}: no bags found")
    try:
        return LabeledBagDataset(bags=tuple(bags))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write_jsonl(path, records):
    """One canonical JSON record per line."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(dumps_canonical(rec))


def write_bags_jsonl(dataset: LabeledBagDataset, path):
    _write_jsonl(path, (
        {"bag_id": bag.bag_id, "instances": bag.instances.tolist()}
        | ({} if bag.label is None else {"label": bag.label})
        for bag in dataset.bags
    ))


def read_bags_csv(path) -> LabeledBagDataset:
    """Columns bag_id, label, x1..xd; one instance per row; empty label
    column means unlabeled."""
    by_bag: dict[str, dict] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 3 or header[:2] != ["bag_id", "label"]:
            raise ValueError(f"{path}: line 1: expected header bag_id,label,x1..xd")
        d = len(header) - 2
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise ValueError(f"{path}: line {lineno}: expected {d + 2} columns")
            bag_id, label = row[0], row[1] or None
            try:
                values = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, values)):
                raise ValueError(
                    f"{path}: line {lineno}: bag {bag_id!r} has a non-finite instance"
                )
            entry = by_bag.setdefault(bag_id, {"label": label, "rows": []})
            if entry["label"] != label:
                raise ValueError(
                    f"{path}: line {lineno}: bag {bag_id!r} has conflicting labels"
                )
            entry["rows"].append(values)
    if not by_bag:
        raise ValueError(f"{path}: no instances found")
    bags = tuple(
        Bag(bag_id=bid, label=entry["label"], instances=np.asarray(entry["rows"]))
        for bid, entry in by_bag.items()
    )
    return LabeledBagDataset(bags=bags)


def read_bags(path) -> LabeledBagDataset:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return read_bags_csv(path)
    return read_bags_jsonl(path)


def _grid_to_dict(grid: IntegrationGrid) -> dict:
    if grid.kind == TENSOR_GRID:
        return {"kind": grid.kind, "points_per_axis": grid.points_per_axis}
    return {"kind": grid.kind, "Q": grid.n_nodes, "seed": grid.seed}


def _grid_from_dict(rec: dict, domain: Domain) -> IntegrationGrid:
    if rec["kind"] == TENSOR_GRID:
        return make_tensor_grid(domain, rec["points_per_axis"])
    if rec["kind"] == MONTE_CARLO:
        return make_mc_grid(domain, rec["Q"], rec["seed"])
    raise ValueError(f"unknown grid kind {rec['kind']!r}")


def model_to_dict(
    spec: BasisSpec,
    domain: Domain,
    grid: IntegrationGrid,
    densities: list[MEDensity],
    ns: list[int],
    solver: str,
) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "solver": solver,
        "basis": {
            "d": spec.d,
            "m": spec.m,
            "seed": spec.seed,
            "freqs": spec.freqs.ravel().tolist(),
        },
        "domain": {"lo": domain.lo.tolist(), "hi": domain.hi.tolist()},
        "grid": _grid_to_dict(grid),
        "bags": [
            {
                "bag_id": dens.bag_id,
                "n": int(n),
                "lambda": dens.lam.tolist(),
                "logZ": dens.logZ,
                "mean_phi": dens.mean_phi.tolist(),
            }
            for dens, n in zip(densities, ns)
        ],
    }


def load_model(path):
    """Returns (spec, domain, grid, densities, ns, raw dict)."""
    rec = read_json(path)
    b = rec["basis"]
    spec = BasisSpec(
        d=b["d"],
        m=b["m"],
        seed=b["seed"],
        freqs=np.asarray(b["freqs"], dtype=float).reshape(b["m"] // 2, b["d"]),
    )
    domain = Domain(lo=np.asarray(rec["domain"]["lo"]), hi=np.asarray(rec["domain"]["hi"]))
    grid = _grid_from_dict(rec["grid"], domain)
    densities = [
        MEDensity(
            bag_id=bag["bag_id"],
            lam=np.asarray(bag["lambda"], dtype=float),
            logZ=float(bag["logZ"]),
            mean_phi=np.asarray(bag["mean_phi"], dtype=float),
            basis_key=spec.key,
        )
        for bag in rec["bags"]
    ]
    ns = [bag["n"] for bag in rec["bags"]]
    return spec, domain, grid, densities, ns, rec


def write_stats_jsonl(stats_list, path):
    _write_jsonl(path, (
        {"bag_id": s.bag_id, "n": s.n, "phi_bar": s.phi_bar.tolist()} for s in stats_list
    ))


def write_matrix_csv(matrix: np.ndarray, bag_ids, path):
    """Square matrix with bag ids as header row and leading column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bag_id", *bag_ids])
        for bid, row in zip(bag_ids, np.asarray(matrix)):
            writer.writerow([bid, *[repr(float(v)) for v in row]])


def write_csv_table(path, columns, rows):
    """Header of the column names, then each dict row's values in column
    order: str() of each, comma-separated, unquoted, LF line endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")


def read_matrix_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ids = header[1:]
        rows = [[float(v) for v in row[1:]] for row in reader]
    return np.asarray(rows), ids


def write_predictions_jsonl(records, path):
    _write_jsonl(path, records)
