"""Benchmark of maxentmil, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One process runs one workload in a closed
loop (the next operation starts when the previous one has finished) for S
seconds, with BLAS and OpenMP pinned to one thread, and checks the
outputs. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
line before it holds the details (machine block, outcome, output checks,
per-operation solver counters). With --trace 1 operation 0 first runs
once untraced to warm the process up, then each of the workload's first
`trace_ops` operations runs twice, untraced and with the package's public
functions wrapped (see tracer.py), before untraced operations fill the
rest of the time; the spans go to
.perfbench-out/spans-<workload>-seed<N>.jsonl at exit. Every result goes
to .perfbench-out/result-<workload>-seed<N>-trace<T>.json.
"""

import time

_T_START = time.perf_counter()

import os

# Pin every BLAS/OpenMP pool before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3


def _import_package():
    """Import maxentmil from this checkout's src/ and nowhere else."""
    if not (SRC / "maxentmil" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC}/maxentmil not found; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    import maxentmil

    if Path(maxentmil.__file__).resolve().parent != SRC / "maxentmil":
        raise SystemExit(f"error: imported maxentmil from {maxentmil.__file__}, not {SRC}")


_import_package()

import numpy as np
import scipy

import maxentmil.cli  # noqa: F401  (imports every module of the package)
from tracer import Tracer, patched
from workloads import WORKLOADS

IMPORT_S = time.perf_counter() - _T_START


def _flops_bytes(mean_pass: bool):
    """Computed work of one batched quadrature call on an (m, N) parameter
    matrix over Q nodes, from the array shapes: the (Q,m)@(m,N) products,
    five elementwise passes over the (Q,N) scores (log-weights, max,
    shift, exp, sum) and, for the mean, a division pass and a second
    product. Bytes count 8 per element read or written by each numpy
    operation, ignoring caches."""

    def measure(args, _kwargs, _result):
        engine, lambdas = args[0], args[1]
        q, m = engine.phi.shape
        n = lambdas.shape[1]
        flop = 2 * q * m * n + 5 * q * n
        elems = q * m + m * n + 9 * q * n
        if mean_pass:
            flop += 2 * q * m * n + q * n
            elems += q * m + m * n + 3 * q * n
        return {"cols": n, "flop": flop, "bytes": 8 * elems}

    return measure


def _file_bytes(pos):
    return lambda args, kwargs, _result: {"bytes": os.path.getsize(args[pos])}


def _cmen_counts(_args, _kwargs, result):
    report = result[1]
    return {"outer": len(report.z_trace), "inner": int(sum(report.inner_iters))}


# (span name, function under maxentmil, measure hook)
TRACE_TARGETS = (
    ("basis.evaluate", "basis.BasisSpec.evaluate",
     lambda args, kwargs, result: {"rows": result.shape[0]}),
    ("maxent.log_partition_many", "maxent.BasisGrid.log_partition_many", _flops_bytes(False)),
    ("maxent.logz_and_mean_many", "maxent.BasisGrid.logz_and_mean_many", _flops_bytes(True)),
    ("maxent.moments", "maxent.BasisGrid.moments", None),
    ("maxent.fit_sde", "maxent.fit_sde", None),
    ("maxent.fit_sde_relaxed", "maxent.fit_sde_relaxed",
     lambda args, kwargs, result: {"relaxed": int(bool(result[1]))}),
    ("lowrank.svd", "lowrank.svd", None),
    ("lowrank.soft_threshold", "lowrank.soft_threshold", None),
    ("lowrank.nuclear_norm", "lowrank.nuclear_norm", None),
    ("lowrank.numeric_rank", "lowrank.numeric_rank", None),
    ("solvers.fit_cmen", "solvers.fit_cmen", _cmen_counts),
    ("solvers.line_search", "solvers.line_search", None),
    ("solvers.rmde_continuation", "solvers.rmde_continuation", None),
    ("experiments.rejection_sample", "experiments.rejection_sample",
     lambda args, kwargs, result: {"accept_sum": result[1]}),
    ("mil.evaluate_split", "mil.evaluate_split", None),
    ("mil.sym_kl_matrix", "mil.sym_kl_matrix", None),
    ("mil.citation_knn", "mil.citation_knn_precomputed", None),
    ("modelio.read_bags", "modelio.read_bags", _file_bytes(0)),
    ("modelio.write", "modelio.write_json", _file_bytes(0)),
    ("modelio.write", "modelio.write_predictions_jsonl", _file_bytes(1)),
    ("cli.main", "cli.main", None),
)

# Outcome metrics: 0 where the workload has no such operation.
OUTCOME_KEYS = ("fail_rate", "nonconverged_rate", "recovery_rate", "rank_error",
                "lambda_rel_err", "accuracy")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from the spans of the traced operations."""
    s = tracer.summary()

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    out = {}
    for name in ("basis.evaluate", "maxent.log_partition_many", "maxent.logz_and_mean_many",
                 "maxent.moments", "maxent.fit_sde", "lowrank.soft_threshold",
                 "lowrank.nuclear_norm", "lowrank.numeric_rank", "solvers.fit_cmen",
                 "solvers.line_search", "solvers.rmde_continuation",
                 "experiments.rejection_sample", "mil.evaluate_split", "mil.sym_kl_matrix",
                 "mil.citation_knn"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    out["basis.evaluate.rows"] = get("basis.evaluate", "rows")
    kernels = ("maxent.log_partition_many", "maxent.logz_and_mean_many")
    for name in kernels:
        out[f"{name}.cols"] = get(name, "cols")
    out["maxent.kernel.gflop_computed"] = sum(get(k, "flop") for k in kernels) / 1e9
    out["maxent.kernel.gbyte_computed"] = sum(get(k, "bytes") for k in kernels) / 1e9
    out["maxent.fit_sde.relaxed"] = get("maxent.fit_sde_relaxed", "relaxed")
    # One dense SVD runs in each call of svd (soft_threshold goes through
    # it), nuclear_norm and numeric_rank.
    out["lowrank.svd_calls"] = sum(
        get(n, "calls") for n in ("lowrank.svd", "lowrank.nuclear_norm", "lowrank.numeric_rank")
    )
    out["solvers.cmen.outer"] = get("solvers.fit_cmen", "outer")
    out["solvers.cmen.inner"] = get("solvers.fit_cmen", "inner")
    in_cmen = tracer.inside("solvers.fit_cmen")
    nll_in_cmen = sum(
        1 for name, flag in zip(tracer.names, in_cmen)
        if flag and name == "maxent.log_partition_many"
    )
    inner = out["solvers.cmen.inner"]
    out["solvers.nll_per_inner"] = nll_in_cmen / inner if inner else 0.0
    calls = get("experiments.rejection_sample", "calls")
    out["experiments.rejection_sample.accept_rate"] = (
        get("experiments.rejection_sample", "accept_sum") / calls if calls else 0.0
    )
    for name in ("modelio.read_bags", "modelio.write"):
        out[f"{name}.self_s"] = get(name, "self_s")
        out[f"{name}.bytes"] = get(name, "bytes")
    out["cli.main.self_s"] = get("cli.main", "self_s")
    return out


def machine_block(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_THREADS") or k.endswith("_NUM_THREADS")
                       or k == "VECLIB_MAXIMUM_THREADS"},
        "seed": seed,
    }


def machine_steal_s() -> float:
    """Seconds the hypervisor took from this machine's CPUs (the steal
    column of /proc/stat, summed over CPUs); NaN where it is not readable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond). With ten samples or fewer no such
    percentile exists and the maximum is reported, with 0 beyond."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import maxentmil.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def run_op(workload, k: int) -> dict:
    """Operation k's record with its wall, user and system seconds; an
    operation that raises counts as failed."""
    t0, c0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    try:
        rec = workload.op(k)
    except Exception as exc:  # a failed operation is a result, not a crash
        rec = {"failed": True, "error": f"operation {k}: {type(exc).__name__}: {exc}"}
    rec.setdefault("failed", False)
    rec["seconds"] = time.perf_counter() - t0
    c1 = resource.getrusage(resource.RUSAGE_SELF)
    rec["user_s"], rec["sys_s"] = c1.ru_utime - c0.ru_utime, c1.ru_stime - c0.ru_stime
    return rec


def public(value):
    """A record without its in-memory entries (keys starting with "_")."""
    if isinstance(value, dict):
        return {k: public(v) for k, v in value.items() if not k.startswith("_")}
    if isinstance(value, list):
        return [public(v) for v in value]
    return value


def closed_loop(workload, seconds: float) -> tuple[list[dict], float]:
    """Run op(0), op(1), ... back to back until `seconds` have passed."""
    records = []
    start = time.perf_counter()
    while True:
        records.append(run_op(workload, len(records)))
        if time.perf_counter() - start >= seconds:
            return records, time.perf_counter() - start


def traced_loop(workload, seconds: float) -> tuple[list[dict], list[dict], list[dict], Tracer]:
    """Run operation 0 once untraced to warm the process up, then each of
    the first `trace_ops` operations twice back to back, untraced and
    traced (the order alternates, so that neither side always runs
    second), then untraced operations until `seconds` have passed.
    Pairing the same inputs close in time keeps drift in the machine's
    speed out of the tracing overhead; the warm-up keeps out the first
    operation's one-off costs (first page faults, first calls), which
    would otherwise land on one side of a single pair."""
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    warmup = [run_op(workload, 0)]
    for k in range(workload.trace_ops):
        for tracing in ((False, True) if k % 2 == 0 else (True, False)):
            if tracing:
                with patched(TRACE_TARGETS, tracer.wrap):
                    traced.append(run_op(workload, k))
            else:
                untraced.append(run_op(workload, k))
    while time.perf_counter() - start < seconds:
        untraced.append(run_op(workload, len(untraced)))
    return warmup, untraced, traced, tracer


def execute(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Set up, run and check one workload; returns the full result record
    whose "line" entry is the object printed last."""
    name = workload.name
    work = out_dir / f"work-{name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # Set up several times: this process's import and fresh-interpreter
        # imports, each with one preparation of the inputs.
        import_times = [IMPORT_S] + [import_seconds() for _ in range(SETUP_REPEATS - 1)]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(seed, work)
            setup_times.append(time.perf_counter() - t0)

        before = resource.getrusage(resource.RUSAGE_SELF)
        steal_before = machine_steal_s()
        if trace:
            warmup, records, traced, tracer = traced_loop(workload, seconds)
            tracer.write(out_dir / f"spans-{name}-seed{seed}.jsonl")
        else:
            records, elapsed = closed_loop(workload, seconds)
            warmup, traced = [], []
        after = resource.getrusage(resource.RUSAGE_SELF)
        steal = machine_steal_s() - steal_before
        op_s = [r["seconds"] for r in records]
        tail_s, tail_pct, tail_beyond = tail(op_s)
        end_to_end = None if trace else {
            "setup_s": statistics.median(i + s for i, s in zip(import_times, setup_times)),
            "ops_per_s": len(records) / elapsed,
            "op_p50_s": statistics.median(op_s),
            "peak_rss_mb": after.ru_maxrss / 1024.0,
        }

        everything = warmup + records + traced
        failed = sum(r["failed"] for r in everything)
        problems = [r["error"] for r in everything if "error" in r]
        problems += workload.check([r for r in everything if not r["failed"]])
        outcome = {key: 0.0 for key in OUTCOME_KEYS}
        outcome.update(workload.outcome(records))
        outcome["fail_rate"] = failed / len(everything)

        if trace:
            # Gap between traced and untraced ops_per_s over the same ops,
            # from user CPU time, which leaves out the system time of page
            # faults that varies from one operation to the next.
            untraced_s = sum(r["user_s"] for r in records[: len(traced)])
            traced_s = sum(r["user_s"] for r in traced)
            metrics = dict(layer_metrics(tracer))
            metrics["op_tail_s"] = tail_s
            metrics["trace.overhead_pct"] = 100.0 * (1.0 - untraced_s / traced_s)
            metrics.update({k: outcome[k] for k in OUTCOME_KEYS})
        else:
            metrics = end_to_end
        line = {
            "correct": not problems,
            "attempted": len(everything),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        }
        detail = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "machine": machine_block(seed),
            "loop": "closed, one client",
            "setup_runs_s": {"import": import_times, "inputs": setup_times},
            "loop_cpu_s": {"user": after.ru_utime - before.ru_utime,
                           "sys": after.ru_stime - before.ru_stime,
                           "machine_steal": steal},
            "end_to_end": end_to_end,
            "op_tail": {"percentile": tail_pct, "samples_beyond": tail_beyond,
                        "samples": len(op_s)},
            "outcome": outcome,
            "problems": problems,
            "ops": public(records),
            "traced_ops": public(traced),
            "warmup_ops": public(warmup),
        }
        return {"line": line, "detail": detail}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


UNITS = _load_units() if (ROOT / "BENCHMARK.json").is_file() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not UNITS:
        parser.error(f"{ROOT / 'BENCHMARK.json'} not found")
    OUT.mkdir(exist_ok=True)
    result = execute(WORKLOADS[args.workload](), args.seed, args.seconds,
                     bool(args.trace), OUT)
    detail, line = result["detail"], result["line"]
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**detail, "result": line}, indent=1) + "\n"
    )
    for problem in detail["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({k: detail[k] for k in ("workload", "seed", "trace", "machine",
                                               "end_to_end", "op_tail", "outcome")}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
