"""Command-line surface.

Subcommands: fit, phase-diagram, kl-matrix, classify, bound-check, synth,
bench. Each run takes an optional JSON config file plus flag overrides
(flags win), checks them, writes its outputs plus a resolved-config copy into
--out, and exits 0 on success, 2 when a solver finished with warnings, 1 on
any error, usage errors included. Unknown config keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .basis import check_grid_resolution, domain_from_data, make_auto_grid, make_basis
from .maxent import BasisGrid, NewtonConfig, densities_from_columns, suff_stats
from .mil import DISTANCES, CitationKnnConfig, PipelineConfig, evaluate_split, sym_kl_matrix
from .modelio import (
    load_model,
    model_to_dict,
    read_bags,
    write_bags_jsonl,
    write_csv_table,
    write_json,
    write_matrix_csv,
    write_predictions_jsonl,
    write_stats_jsonl,
)
from .experiments import (
    PHASE_SOLVERS,
    PhaseDiagramSpec,
    markov_bound_trial,
    phase_cells,
    runtime_benchmark,
    synth_bags_from_matrix,
    synth_box_grid,
    synth_lowrank_lambda,
    synth_two_class_bags,
)
from .solvers import DEFAULT_CV_ETAS, JOINT_SOLVERS, CmenaConfig, epsilon_bound, fit_joint


def _check_keys(rec: dict, allowed: set, context: str):
    unknown = sorted(set(rec) - allowed)
    if unknown:
        raise ValueError(f"unknown config keys in {context}: {', '.join(unknown)}")


def _params(args, defaults: dict, newton_block: bool = False) -> dict:
    """A command's resolved parameters. Precedence: the flag named like a
    default > the --config file > the default. The config file may hold
    exactly the default keys, plus (with newton_block) a "newton" block of
    NewtonConfig fields, passed through as given. A flag left out, or a
    list flag given as "", is not given."""
    blocks = {"newton": {}} if newton_block else {}
    config = {}
    if args.config is not None:
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        _check_keys(config, {*defaults, *blocks}, f"{args.config} ({args.command})")
        if "newton" in config:
            if not isinstance(config["newton"], dict):
                raise ValueError(f"{args.config}: newton must be a JSON object")
            allowed = {f.name for f in fields(NewtonConfig)}
            _check_keys(config["newton"], allowed, f"{args.config} (newton)")
    flags = {
        k: v for k, v in vars(args).items()
        if k in defaults and v is not None and v != []
    }
    return {**defaults, **blocks, **config, **flags}


def _prepare_out(out_dir, command: str, resolved: dict) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(
        out / "resolved_config.json",
        {"version": __version__, "command": command, "params": resolved},
    )
    return out


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def cmd_fit(args) -> int:
    params = _params(args, {
        "seed": 0, "m": 20, "solver": "cmen", "eta": 1.0, "etas": list(DEFAULT_CV_ETAS),
        "a": CmenaConfig.a, "margin": 0.1, "grid_points": 64, "mc_nodes": 20_000,
        "cv_split_seed": 0,
    }, newton_block=True)
    if params["solver"] not in JOINT_SOLVERS:
        raise ValueError(f"solver must be one of {JOINT_SOLVERS}")
    dataset = read_bags(args.dataset)
    newton = NewtonConfig(**params["newton"])
    cmena = CmenaConfig(a=params["a"])
    spec = make_basis(dataset.d, params["m"], params["seed"])
    domain = domain_from_data(dataset.pooled_instances(), params["margin"])
    grid = make_auto_grid(domain, params["grid_points"], params["mc_nodes"], params["seed"])
    check_grid_resolution(spec, grid)
    out = _prepare_out(args.out, "fit", params)
    engine = BasisGrid(spec, grid)
    stats = [suff_stats(b.instances, spec, b.bag_id) for b in dataset.bags]
    name = params["solver"]
    matrix, report = fit_joint(
        name, stats, spec, grid, engine, cmena, newton,
        eta=params["eta"], etas=params["etas"], split_seed=params["cv_split_seed"],
    )
    densities = densities_from_columns(matrix.data, matrix.bag_ids, spec, grid, engine)
    write_json(
        out / "model.json",
        model_to_dict(spec, domain, grid, densities, [s.n for s in stats], name),
    )
    write_json(out / "report.json", report.to_dict())
    write_stats_jsonl(stats, out / "stats.jsonl")
    return 2 if report.warnings else 0


def cmd_kl_matrix(args) -> int:
    if args.gamma is not None and args.gamma <= 0:
        raise ValueError("gamma must be positive")
    spec, _domain, _grid, densities, _ns, _raw = load_model(args.model)
    out = _prepare_out(
        args.out, "kl-matrix", {"model": str(args.model), "gamma": args.gamma}
    )
    matrix = sym_kl_matrix(densities)
    ids = [d.bag_id for d in densities]
    write_matrix_csv(matrix, ids, out / "kl_matrix.csv")
    if args.gamma is not None:
        write_matrix_csv(np.exp(-args.gamma * matrix), ids, out / "kernel_matrix.csv")
    return 0


def cmd_classify(args) -> int:
    params = _params(args, {
        "seed": 0, "distance": "kl-cmen", "m": 16, "pca_dims": None, "k": 5,
        "k_prime": 5, "margin": 0.1, "grid_points": 64, "mc_nodes": 20_000,
        "a": CmenaConfig.a,
    }, newton_block=True)
    train = read_bags(args.train)
    test = read_bags(args.test)
    pipe = PipelineConfig(
        distance=params["distance"],
        m=params["m"],
        basis_seed=params["seed"],
        pca_dims=params["pca_dims"],
        margin=params["margin"],
        grid_points=params["grid_points"],
        mc_nodes=params["mc_nodes"],
        knn=CitationKnnConfig(k=params["k"], k_prime=params["k_prime"]),
        cmena=CmenaConfig(a=params["a"]),
        newton=NewtonConfig(**params["newton"]),
    )
    out = _prepare_out(args.out, "classify", params)
    records = evaluate_split(train, test, pipe)
    write_predictions_jsonl(records, out / "predictions.jsonl")
    labeled = [r for r in records if r["true"] is not None]
    accuracy = (
        float(np.mean([r["predicted"] == r["true"] for r in labeled]))
        if labeled
        else None
    )
    write_json(out / "accuracy.json", {"accuracy": accuracy, "n_test": len(records)})
    return 0


def _phase_cell_path(out: Path, solver: str, m: int, t: int) -> Path:
    return out / "cells" / f"{solver}_m{m}_T{t}.json"


def _run_phase_for_solver(pd: PhaseDiagramSpec, out: Path, solver: str) -> list[dict]:
    pd = replace(pd, solver=solver)
    (out / "cells").mkdir(exist_ok=True)
    rows: dict[tuple[int, int], dict] = {}
    for m in pd.m_values:
        for t in pd.t_values:
            path = _phase_cell_path(out, solver, m, t)
            if path.exists():
                rows[(m, t)] = json.loads(path.read_text())
    # Each cell is written as it finishes, so a rerun resumes per cell.
    for cell in phase_cells(pd, skip_cells=set(rows)):
        rec = {
            "m": cell.m,
            "T": cell.t,
            "recovery_probability": cell.recovery_probability,
            "ranks": list(cell.ranks),
            "threshold": cell.threshold,
            "warnings": list(cell.warnings),
        }
        write_json(_phase_cell_path(out, solver, cell.m, cell.t), rec)
        rows[(cell.m, cell.t)] = rec
    ordered = [rows[(m, t)] for m in pd.m_values for t in pd.t_values]
    write_json(out / f"grid_{solver}.json", ordered)
    write_csv_table(
        out / f"grid_{solver}.csv",
        ("m", "T", "recovery_probability", "ranks"),
        [{**rec, "ranks": ";".join(str(r) for r in rec["ranks"])} for rec in ordered],
    )
    return ordered


def cmd_phase_diagram(args) -> int:
    params = _params(args, {
        "seed": 0, "n_bags": 20, "m_values": [20, 30, 40], "t_values": [2, 5, 10],
        "n_per_bag": 1000, "reps": 10, "solver": "cmen", "threads": os.cpu_count() or 1,
        "d": 2, "domain_halfwidth": 3.0, "grid_points": 64, "a": CmenaConfig.a,
    }, newton_block=True)
    if params["solver"] == "both":
        solvers = ["cmen", "rmde-continuation"]
    else:
        solvers = [params["solver"]]
    pd = PhaseDiagramSpec(
        n_bags=params["n_bags"],
        m_values=tuple(params["m_values"]),
        t_values=tuple(params["t_values"]),
        n_per_bag=params["n_per_bag"],
        reps=params["reps"],
        base_seed=params["seed"],
        solver=solvers[0],
        threads=params["threads"],
        d=params["d"],
        domain_halfwidth=params["domain_halfwidth"],
        grid_points=params["grid_points"],
        cmena=CmenaConfig(a=params["a"]),
        newton=NewtonConfig(**params["newton"]),
    )
    out = _prepare_out(args.out, "phase-diagram", params)
    warned = False
    for solver in solvers:
        rows = _run_phase_for_solver(pd, out, solver)
        warned = warned or any(rec["warnings"] for rec in rows)
    return 2 if warned else 0


def cmd_bound_check(args) -> int:
    params = _params(args, {
        "seed": 0, "n_bags": 5, "m": 10, "n_per_bag": 200, "trials": 200,
        "a_values": [2.0, 5.0], "grid_points": 64,
    })
    fractions, sums = markov_bound_trial(
        params["n_bags"], params["m"], params["n_per_bag"], params["trials"],
        params["a_values"], params["seed"], grid_points=params["grid_points"],
    )
    out = _prepare_out(args.out, "bound-check", params)
    table = [
        {
            "a": a,
            "epsilon": epsilon_bound(params["n_bags"], params["m"], a),
            "exceedance_fraction": frac,
            "markov_ceiling": 1.0 / a,
        }
        for a, frac in sorted(fractions.items())
    ]
    write_json(out / "exceedance.json", {"table": table, "sums": sums.tolist()})
    write_csv_table(
        out / "exceedance.csv",
        ("a", "epsilon", "exceedance_fraction", "markov_ceiling"),
        table,
    )
    return 0


def cmd_synth(args) -> int:
    params = _params(args, {
        "seed": 0, "mode": "lowrank", "m": 20, "n_bags": 20, "t": 2, "n_per_bag": 1000,
        "d": 2, "separation": 1.5, "within": 0.2, "grid_points": 64,
    })
    if params["mode"] not in ("lowrank", "two-class"):
        raise ValueError("mode must be 'lowrank' or 'two-class'")
    out = _prepare_out(args.out, "synth", params)
    if params["mode"] == "two-class":
        dataset, truth = synth_two_class_bags(
            params["n_bags"], params["n_per_bag"], params["m"], params["seed"],
            d=params["d"], separation=params["separation"], within=params["within"],
            grid_points=params["grid_points"],
        )
    else:
        matrix = synth_lowrank_lambda(
            params["m"], params["n_bags"], params["t"], params["seed"]
        )
        spec = make_basis(params["d"], params["m"], params["seed"])
        grid = synth_box_grid(3.0, params["d"], params["grid_points"])
        dataset = synth_bags_from_matrix(
            matrix, spec, grid, params["n_per_bag"], params["seed"]
        )
        truth = {
            "m": params["m"],
            "t": params["t"],
            "seed": params["seed"],
            "lambda_columns": {
                bid: matrix.data[:, i].tolist()
                for i, bid in enumerate(matrix.bag_ids)
            },
        }
    write_bags_jsonl(dataset, out / "dataset.jsonl")
    write_json(out / "truth.json", truth)
    return 0


def cmd_bench(args) -> int:
    params = _params(args, {
        "seed": 0, "n_linear": [20_000, 40_000], "n_quadratic": [600, 1_200],
        "m": 20, "repeats": 5,
    })
    out = _prepare_out(args.out, "bench", params)
    rows = runtime_benchmark(
        n_linear=tuple(params["n_linear"]),
        n_quadratic=tuple(params["n_quadratic"]),
        m=params["m"],
        seed=params["seed"],
        repeats=params["repeats"],
    )
    write_json(out / "bench.json", rows)
    write_csv_table(out / "bench.csv", ("op", "n", "seconds"), rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxentmil",
        description="Max-entropy bag densities, low-rank joint estimation, "
        "and multi-instance classification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit bag densities and write a model file")
    p.add_argument("dataset", help="bags file (.jsonl or .csv)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--solver", choices=JOINT_SOLVERS)
    p.add_argument("--m", type=int, help="feature count (even)")
    p.add_argument("--seed", type=int)
    p.add_argument("--eta", type=float, help="penalty weight for solver=rmde")
    p.add_argument("--a", type=float, help="confidence multiplier for solver=cmen")
    p.add_argument("--margin", type=float, help="domain margin fraction")
    p.add_argument("--grid-points", type=int, dest="grid_points")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("phase-diagram", help="rank-recovery sweep over (m, T)")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--solver", choices=(*PHASE_SOLVERS, "both"))
    p.add_argument("--n-bags", type=int, dest="n_bags")
    p.add_argument(
        "--m-values", type=_int_list, dest="m_values", help="comma list, e.g. 20,30,40"
    )
    p.add_argument(
        "--t-values", type=_int_list, dest="t_values", help="comma list, e.g. 2,5,10"
    )
    p.add_argument("--n-per-bag", type=int, dest="n_per_bag")
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.set_defaults(handler=cmd_phase_diagram)

    p = sub.add_parser("kl-matrix", help="pairwise symmetric KL of a fitted model")
    p.add_argument("model", help="model.json from fit")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--gamma", type=float,
        help="also export the kernel exp(-gamma * distance) for external use",
    )
    p.set_defaults(handler=cmd_kl_matrix)

    p = sub.add_parser("classify", help="train on one bag file, predict another")
    p.add_argument("train")
    p.add_argument("test")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--distance", choices=DISTANCES)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--pca-dims", type=int, dest="pca_dims")
    p.add_argument("--k", type=int)
    p.add_argument("--k-prime", type=int, dest="k_prime")
    p.add_argument("--margin", type=float)
    p.add_argument("--grid-points", type=int, dest="grid_points")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("bound-check", help="Monte Carlo check of the KL radius")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--n-bags", type=int, dest="n_bags")
    p.add_argument("--m", type=int)
    p.add_argument("--n-per-bag", type=int, dest="n_per_bag")
    p.add_argument("--trials", type=int)
    p.add_argument(
        "--a-values", type=_float_list, dest="a_values", help="comma list, e.g. 2,5"
    )
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=cmd_bound_check)

    p = sub.add_parser("synth", help="generate synthetic bag datasets")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--mode", choices=("lowrank", "two-class"))
    p.add_argument("--m", type=int)
    p.add_argument("--n-bags", type=int, dest="n_bags")
    p.add_argument("--t", type=int)
    p.add_argument("--n-per-bag", type=int, dest="n_per_bag")
    p.add_argument("--d", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("bench", help="runtime scaling probes")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help or --version and 2 on a usage
        # error; 2 means "finished with warnings" here, so usage errors exit 1.
        if not exc.code:
            raise
        return 1
    try:
        return args.handler(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver/runtime failures also map to exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
