"""Command-line surface.

Subcommands: fit, phase-diagram, kl-matrix, classify, bound-check, synth,
bench. Each run takes an optional JSON config file plus flag overrides
(flags win), checks them, does its work, and only then writes its outputs
plus a resolved-config copy into --out (phase-diagram alone creates --out
first, to write each finished cell so that a rerun resumes), and exits 0 on
success, 2 when a solver finished with warnings, 1 on any error, usage
errors included. Every command but kl-matrix declares its settings once, in
SETTINGS: each is a config key and a flag spelled like it. Unknown config
keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .basis import (
    DEFAULT_GRID_POINTS,
    check_grid_resolution,
    domain_from_data,
    make_auto_grid,
    make_basis,
)
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
    check_box_features,
    markov_bound_trial,
    phase_cells,
    runtime_benchmark,
    synth_bags_from_matrix,
    synth_box_grid,
    synth_lowrank_lambda,
    synth_two_class_bags,
)
from .solvers import DEFAULT_CV_ETAS, JOINT_SOLVERS, CmenaConfig, epsilon_bound, fit_joint


# Every setting of every command but kl-matrix, by name and default. The
# name is the config key and, spelled --name-with-dashes, the flag; the
# default's type decides how both are checked. A setting with a fixed set
# of strings is (default, allowed strings). The "newton" block is
# config-only and holds NewtonConfig's fields.
SETTINGS = {
    "fit": {
        "seed": 0, "m": 20, "solver": ("cmen", JOINT_SOLVERS), "eta": 1.0,
        "etas": list(DEFAULT_CV_ETAS), "a": CmenaConfig.a, "margin": 0.1,
        "grid_points": DEFAULT_GRID_POINTS, "mc_nodes": 20_000, "cv_split_seed": 0,
        "newton": {},
    },
    "phase-diagram": {
        "seed": 0, "n_bags": 20, "m_values": [20, 30, 40], "t_values": [2, 5, 10],
        "n_per_bag": 1000, "reps": 10, "solver": ("cmen", (*PHASE_SOLVERS, "both")),
        "threads": os.cpu_count() or 1, "d": 2, "domain_halfwidth": 3.0,
        "grid_points": DEFAULT_GRID_POINTS, "a": CmenaConfig.a, "newton": {},
    },
    "classify": {
        "seed": 0, "distance": ("kl-cmen", DISTANCES), "m": 16, "pca_dims": None,
        "k": 5, "k_prime": 5, "margin": 0.1, "grid_points": DEFAULT_GRID_POINTS,
        "mc_nodes": 20_000, "a": CmenaConfig.a, "newton": {},
    },
    "bound-check": {
        "seed": 0, "n_bags": 5, "m": 10, "n_per_bag": 200, "trials": 200,
        "a_values": [2.0, 5.0], "grid_points": DEFAULT_GRID_POINTS,
    },
    "synth": {
        "seed": 0, "mode": ("lowrank", ("lowrank", "two-class")), "m": 20, "n_bags": 20,
        "t": 2, "n_per_bag": 1000, "d": 2, "separation": 1.5, "within": 0.2,
        "grid_points": DEFAULT_GRID_POINTS,
    },
    "bench": {
        "seed": 0, "n_linear": [20_000, 40_000], "n_quadratic": [600, 1_200],
        "m": 20, "repeats": 5,
    },
}
_NEWTON = {f.name: f.default for f in fields(NewtonConfig)}


def _default_and_choices(entry):
    return entry if isinstance(entry, tuple) else (entry, None)


# The JSON types a config value may have, by the type of its default: an
# int default takes an int and a float default any number (a bool is
# neither); the None default (pca_dims) takes an int or null.
_VALUE_TYPES = {
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    str: ("a string", (str,)),
    dict: ("a JSON object", (dict,)),
    type(None): ("an integer or null", (int, type(None))),
}


def _check_value(key: str, value, context: str):
    """The rule for flag and file values alike: a number must be finite and
    a list non-empty."""
    if isinstance(value, list) and not value:
        raise ValueError(f"{context}: {key} must be a non-empty list")
    for v in value if isinstance(value, list) else [value]:
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{context}: {key} must be finite, got {json.dumps(v)}")


def _check_config(rec: dict, table: dict, context: str):
    """Reject a key not in table, a value whose JSON type does not fit its
    default's (a list default takes a list of values that fit its items),
    a string outside its allowed strings, and a value _check_value rejects."""
    unknown = sorted(set(rec) - set(table))
    if unknown:
        raise ValueError(f"unknown config keys in {context}: {', '.join(unknown)}")
    for key, value in rec.items():
        default, choices = _default_and_choices(table[key])
        if isinstance(default, list):
            name, types = _VALUE_TYPES[type(default[0])]
            name = f"a list of {name.split(' ', 1)[1]}s"
            ok = type(value) is list and all(type(v) in types for v in value)
        else:
            name, types = _VALUE_TYPES[type(default)]
            ok = type(value) in types
        if not ok:
            raise ValueError(f"{context}: {key} must be {name}, got {json.dumps(value)}")
        if choices is not None and value not in choices:
            raise ValueError(
                f"{context}: {key} must be one of {', '.join(choices)}, got {json.dumps(value)}"
            )
        _check_value(key, value, context)


def _params(args) -> dict:
    """The command's resolved SETTINGS. Precedence: the flag > the --config
    file > the default. The config file may hold the command's settings
    only, each checked by _check_config. A flag left out, or a list flag
    given as "", is not given."""
    table = SETTINGS[args.command]
    config = {}
    if args.config is not None:
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        _check_config(config, table, f"{args.config} ({args.command})")
        if "newton" in config:
            _check_config(config["newton"], _NEWTON, f"{args.config} (newton)")
    defaults = {k: _default_and_choices(entry)[0] for k, entry in table.items()}
    flags = {
        k: v for k, v in vars(args).items()
        if k in table and v is not None and v != []
    }
    for key, value in flags.items():
        _check_value(key, value, args.command)
    return {**defaults, **config, **flags}


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
    params = _params(args)
    dataset = read_bags(args.dataset)
    newton = NewtonConfig(**params["newton"])
    cmena = CmenaConfig(a=params["a"])
    spec = make_basis(dataset.d, params["m"], params["seed"])
    domain = domain_from_data(dataset.pooled_instances(), params["margin"])
    grid = make_auto_grid(domain, params["grid_points"], params["mc_nodes"], params["seed"])
    check_grid_resolution(spec, grid)
    engine = BasisGrid(spec, grid)
    stats = [suff_stats(b.instances, spec, b.bag_id) for b in dataset.bags]
    name = params["solver"]
    matrix, report = fit_joint(
        name, stats, spec, grid, engine, cmena, newton,
        eta=params["eta"], etas=params["etas"], split_seed=params["cv_split_seed"],
    )
    densities = densities_from_columns(matrix.data, matrix.bag_ids, spec, grid, engine)
    out = _prepare_out(args.out, "fit", params)
    write_json(
        out / "model.json",
        model_to_dict(spec, domain, grid, densities, [s.n for s in stats], name),
    )
    write_json(out / "report.json", report.to_dict())
    write_stats_jsonl(stats, out / "stats.jsonl")
    return 2 if report.warnings else 0


def cmd_kl_matrix(args) -> int:
    if args.gamma is not None:
        _check_value("gamma", args.gamma, "kl-matrix")
        if args.gamma <= 0:
            raise ValueError("gamma must be positive")
    spec, _domain, _grid, densities, _ns, _raw = load_model(args.model)
    matrix = sym_kl_matrix(densities)
    out = _prepare_out(
        args.out, "kl-matrix", {"model": str(args.model), "gamma": args.gamma}
    )
    ids = [d.bag_id for d in densities]
    write_matrix_csv(matrix, ids, out / "kl_matrix.csv")
    if args.gamma is not None:
        write_matrix_csv(np.exp(-args.gamma * matrix), ids, out / "kernel_matrix.csv")
    return 0


def cmd_classify(args) -> int:
    params = _params(args)
    train = read_bags(args.train)
    test = read_bags(args.test)
    if params["k"] > len(train.bags):
        raise ValueError(f"k={params['k']} exceeds the {len(train.bags)} training bags")
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
    records = evaluate_split(train, test, pipe)
    out = _prepare_out(args.out, "classify", params)
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
    params = _params(args)
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
    params = _params(args)
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
    params = _params(args)
    check_box_features(params["d"], params["grid_points"], params["m"])
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
    out = _prepare_out(args.out, "synth", params)
    write_bags_jsonl(dataset, out / "dataset.jsonl")
    write_json(out / "truth.json", truth)
    return 0


def cmd_bench(args) -> int:
    params = _params(args)
    rows = runtime_benchmark(
        n_linear=tuple(params["n_linear"]),
        n_quadratic=tuple(params["n_quadratic"]),
        m=params["m"],
        seed=params["seed"],
        repeats=params["repeats"],
    )
    out = _prepare_out(args.out, "bench", params)
    write_json(out / "bench.json", rows)
    write_csv_table(out / "bench.csv", ("op", "n", "seconds"), rows)
    return 0


def _add_setting(parser, name: str, entry):
    """The flag --name-with-dashes of one SETTINGS entry, parsed by its
    default's type: a comma list for a list default, an int for None."""
    default, choices = _default_and_choices(entry)
    if isinstance(default, dict):  # the config-only newton block
        return
    kwargs = {"choices": choices, "help": f"default: {default}"}
    if isinstance(default, list):
        kwargs["type"] = _int_list if type(default[0]) is int else _float_list
        kwargs["help"] = f"comma list, default: {','.join(map(str, default))}"
    elif choices is None:
        kwargs["type"] = int if default is None else type(default)
    parser.add_argument("--" + name.replace("_", "-"), dest=name, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxentmil",
        description="Max-entropy bag densities, low-rank joint estimation, "
        "and multi-instance classification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("fit", cmd_fit, "fit bag densities and write a model file",
         {"dataset": "bags file (.jsonl or .csv)"}),
        ("phase-diagram", cmd_phase_diagram, "rank-recovery sweep over (m, T)", {}),
        ("kl-matrix", cmd_kl_matrix, "pairwise symmetric KL of a fitted model",
         {"model": "model.json from fit"}),
        ("classify", cmd_classify, "train on one bag file, predict another",
         {"train": "training bags file", "test": "bags file to classify"}),
        ("bound-check", cmd_bound_check, "Monte Carlo check of the KL radius", {}),
        ("synth", cmd_synth, "generate synthetic bag datasets", {}),
        ("bench", cmd_bench, "runtime scaling probes", {}),
    ]
    for command, handler, help_text, positionals in commands:
        p = sub.add_parser(command, help=help_text)
        for name, text in positionals.items():
            p.add_argument(name, help=text)
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(handler=handler)
        if command == "kl-matrix":
            p.add_argument(
                "--gamma", type=float,
                help="also export the kernel exp(-gamma * distance) for external use",
            )
            continue
        p.add_argument("--config", help="JSON config file")
        for name, entry in SETTINGS[command].items():
            _add_setting(p, name, entry)
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
