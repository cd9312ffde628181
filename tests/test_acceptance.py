"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. The heavy fixtures (the rank-recovery grids and
the classification fixture) are module-scoped and reused across criteria.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg

import maxentmil.solvers as solvers_mod
from maxentmil.basis import Domain, make_basis, make_tensor_grid
from maxentmil.cli import main as cli_main
from maxentmil.experiments import (
    PhaseDiagramSpec,
    densities_from_matrix,
    derive_seed,
    markov_bound_trial,
    rejection_sample,
    run_phase_diagram,
    runtime_benchmark,
    synth_lowrank_lambda,
    synth_two_class_bags,
)
from maxentmil.lowrank import nuclear_norm, rank_ladder_svd, soft_threshold, svd
from maxentmil.maxent import (
    BasisGrid,
    MEDensity,
    NewtonConfig,
    SufficientStats,
    fit_sde_relaxed,
    kl,
    suff_stats,
    sym_kl,
)
from maxentmil.mil import CitationKnnConfig, PipelineConfig, kfold_evaluate
from maxentmil.modelio import write_bags_jsonl
from maxentmil.solvers import (
    CmenaConfig,
    LambdaMatrix,
    epsilon_bound,
    fit_cmen,
    g_and_grad,
    lipschitz_tau,
    psi_basis,
    rmde_continuation,
)

pytestmark = pytest.mark.acceptance

GRID_SPEC = dict(
    n_bags=20, m_values=(20, 30, 40), t_values=(2, 5, 10),
    n_per_bag=1000, reps=10, base_seed=0,
)


def check(criterion: str, ok: bool, detail: str = ""):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def cmen_grid():
    t0 = time.perf_counter()
    cells = run_phase_diagram(PhaseDiagramSpec(solver="cmen", **GRID_SPEC))
    return cells, time.perf_counter() - t0


@pytest.fixture(scope="module")
def rmde_grid():
    cells = run_phase_diagram(
        PhaseDiagramSpec(solver="rmde-continuation", **GRID_SPEC)
    )
    return cells


@pytest.fixture(scope="module")
def two_class_dataset():
    return synth_two_class_bags(40, 500, 16, seed=0)[0]


def test_c01_moment_matching():
    # 20 seeded 2-d single-bag problems at m <= 12; fitted feature means
    # match the empirical ones to 1e-6 in under a second each.
    worst_err, worst_time = 0.0, 0.0
    grid = make_tensor_grid(Domain(lo=[-3.0, -3.0], hi=[3.0, 3.0]), 64)
    count = 0
    for m in (4, 6, 8, 10, 12):
        for trial in range(4):
            spec = make_basis(2, m, seed=derive_seed(1, m, trial))
            engine = BasisGrid(spec, grid)
            rng = np.random.default_rng(derive_seed(2, m, trial))
            lam = rng.uniform(-0.7, 0.7, m)
            truth = densities_from_matrix(
                LambdaMatrix(data=lam[:, None], bag_ids=("t",)), spec, grid, engine
            )[0]
            samples, _ = rejection_sample(
                truth, spec, grid, 400, derive_seed(3, m, trial)
            )
            stats = suff_stats(samples, spec, f"bag-{m}-{trial}")
            t0 = time.perf_counter()
            dens, _ = fit_sde_relaxed(stats, spec, grid, engine=engine)
            dt = time.perf_counter() - t0
            err = float(np.abs(dens.mean_phi - stats.phi_bar).max())
            worst_err, worst_time = max(worst_err, err), max(worst_time, dt)
            count += 1
    assert count == 20
    check(
        "01 moment matching",
        worst_err <= 1e-6 and worst_time < 1.0,
        f"worst moment gap {worst_err:.2e}, worst fit time {worst_time:.3f}s",
    )


def test_c02_derivative_correctness():
    # The derivatives fit_sde's Newton step uses, from the calls it makes:
    # the objective n * (logZ - lam . phi_bar) from a node pass, the
    # gradient n * (mean - phi_bar) from its mean product and the Hessian
    # n * Cov from its covariance product.
    spec = make_basis(2, 8, seed=7)
    grid = make_tensor_grid(Domain(lo=[-3.0, -3.0], hi=[3.0, 3.0]), 64)
    engine = BasisGrid(spec, grid)

    def objective(lam, stats):
        return stats.n * (engine.node_probs(lam)[0] - float(lam @ stats.phi_bar))

    def grad_hess(lam, stats):
        _, probs = engine.node_probs(lam)
        mean = engine.feature_mean(probs)
        return stats.n * (mean - stats.phi_bar), stats.n * engine.feature_cov(probs, mean)

    worst_g, worst_h = 0.0, 0.0
    for trial in range(20):
        rng = np.random.default_rng(500 + trial)
        stats = SufficientStats(
            bag_id="b", n=7, phi_bar=engine.moments(rng.uniform(-0.5, 0.5, 8))[1]
        )
        lam = rng.uniform(-0.8, 0.8, 8)
        grad, hess = grad_hess(lam, stats)
        for j in range(8):
            e = np.zeros(8)
            e[j] = 1e-5
            fd = (objective(lam + e, stats) - objective(lam - e, stats)) / 2e-5
            worst_g = max(worst_g, abs(fd - grad[j]))
        for j in range(8):
            e = np.zeros(8)
            e[j] = 1e-4
            gp, _ = grad_hess(lam + e, stats)
            gm, _ = grad_hess(lam - e, stats)
            worst_h = max(worst_h, float(np.abs((gp - gm) / 2e-4 - hess[:, j]).max()))
    check(
        "02 derivative correctness",
        worst_g <= 1e-5 and worst_h <= 1e-4,
        f"worst gradient gap {worst_g:.2e}, worst Hessian gap {worst_h:.2e}",
    )


def test_c03_prox_operator_oracle():
    rng = np.random.default_rng(42)
    alpha = 0.3
    worst_gap = 0.0
    beaten = True
    for _ in range(100):
        x = rng.standard_normal((8, 6))
        out = soft_threshold(x, alpha)
        u, s, vt = scipy.linalg.svd(x, full_matrices=False, lapack_driver="gesvd")
        oracle = (u * np.maximum(s - alpha, 0.0)) @ vt
        worst_gap = max(worst_gap, float(np.abs(out - oracle).max()))
        base = alpha * nuclear_norm(out) + 0.5 * np.linalg.norm(x - out) ** 2
        for _ in range(200):
            pert = rng.standard_normal((8, 6))
            pert /= np.linalg.norm(pert)
            trial = out + 1e-3 * pert
            obj = alpha * nuclear_norm(trial) + 0.5 * np.linalg.norm(x - trial) ** 2
            beaten = beaten and base <= obj + 1e-12
    check(
        "03 prox operator oracle",
        worst_gap <= 1e-10 and beaten,
        f"worst closed-form gap {worst_gap:.2e}; perturbations beaten: {beaten}",
    )


def test_c04_rank_ladder_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        q1, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        q2, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        spectrum = np.sort(rng.uniform(0.0, 2.0, 10))[::-1]
        x = q1[:, :10] @ np.diag(spectrum) @ q2.T
        cut = 1.0  # spectra straddle the cut by construction
        ladder = rank_ladder_svd(x, cut=cut)
        full = svd(x)
        r = int((full.s > cut).sum())
        assert ladder.rank == r
        worst = max(worst, float(np.abs(ladder.s - full.s[:r]).max()) if r else 0.0)
        worst = max(
            worst,
            float(
                np.abs(
                    ladder.reconstruct()
                    - (full.u[:, :r] * full.s[:r]) @ full.v[:, :r].T
                ).max()
            ),
        )
    check("04 rank ladder equivalence", worst <= 1e-10, f"worst gap {worst:.2e}")


def test_c05_lipschitz_bound():
    spec = make_basis(2, 10, seed=13)
    grid = make_tensor_grid(Domain(lo=[-3.0, -3.0], hi=[3.0, 3.0]), 64)
    engine = BasisGrid(spec, grid)
    rng = np.random.default_rng(5)
    ns = [40, 10, 25, 5, 60]
    stats = [
        SufficientStats(
            bag_id=f"b{i}", n=n, phi_bar=engine.moments(rng.uniform(-0.5, 0.5, 10))[1]
        )
        for i, n in enumerate(ns)
    ]
    prob = solvers_mod._JointProblem(engine, stats)
    tau = lipschitz_tau(stats, 10)
    worst_ratio = 0.0
    for _ in range(100):
        a = rng.uniform(-1.5, 1.5, (10, 5))
        b = rng.uniform(-1.5, 1.5, (10, 5))
        _, ga = prob.nll_and_grad(a)
        _, gb = prob.nll_and_grad(b)
        worst_ratio = max(
            worst_ratio, float(np.linalg.norm(ga - gb) / np.linalg.norm(a - b))
        )
    check(
        "05 Lipschitz bound",
        worst_ratio <= tau,
        f"max empirical ratio {worst_ratio:.2f} vs bound {tau:.0f}",
    )


def test_c06_markov_bound():
    t0 = time.perf_counter()
    fractions, _ = markov_bound_trial(
        n_bags=5, m=10, n_per_bag=200, trials=200, a_values=[2.0, 5.0], seed=6
    )
    dt = time.perf_counter() - t0
    ok = (
        fractions[2.0] <= 0.5 + 0.05
        and fractions[5.0] <= 0.2 + 0.05
        and dt < 600
    )
    check(
        "06 Markov bound",
        ok,
        f"exceedance a=2: {fractions[2.0]:.3f} (<=0.55), "
        f"a=5: {fractions[5.0]:.3f} (<=0.25), runtime {dt:.0f}s",
    )


def test_c07_kl_closed_form():
    spec = make_basis(2, 8, seed=17)
    dom = Domain(lo=[-3.0, -3.0], hi=[3.0, 3.0])
    fit_engine = BasisGrid(spec, make_tensor_grid(dom, 128))
    oracle_engine = BasisGrid(spec, make_tensor_grid(dom, 512))
    rng = np.random.default_rng(7)
    worst_rel, worst_sym = 0.0, 0.0
    for _ in range(50):
        la, lb = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
        za, ma, _ = fit_engine.moments(la)
        zb, mb, _ = fit_engine.moments(lb)
        p = MEDensity("a", la, za, ma, spec.key)
        q = MEDensity("b", lb, zb, mb, spec.key)
        _, pa = oracle_engine.node_probs(la)
        _, pb = oracle_engine.node_probs(lb)
        direct = float((pa * (np.log(pa) - np.log(pb))).sum())
        worst_rel = max(worst_rel, abs(kl(p, q) - direct) / abs(direct))
        worst_sym = max(worst_sym, abs(sym_kl(p, q) - (kl(p, q) + kl(q, p))))
    check(
        "07 KL closed form",
        worst_rel <= 1e-3 and worst_sym <= 1e-10,
        f"worst relative gap {worst_rel:.2e}; worst symmetry gap {worst_sym:.2e}",
    )


def test_c08_phase_diagram(cmen_grid):
    cells, elapsed = cmen_grid
    by_cell = {(c.m, c.t): c.recovery_probability for c in cells}
    lines = "; ".join(
        f"(m={m},T={t}): {by_cell[(m, t)]:.1f}"
        for m in GRID_SPEC["m_values"]
        for t in GRID_SPEC["t_values"]
    )
    print(f"\n[criterion 08] recovery grid: {lines} ({elapsed:.0f}s)")
    monotone = all(
        by_cell[(m, 2)] >= by_cell[(m, 5)] >= by_cell[(m, 10)]
        for m in GRID_SPEC["m_values"]
    )
    easy = by_cell[(40, 2)]
    check(
        "08 desk-scale phase diagram",
        easy >= 0.8 and monotone and elapsed < 1800,
        f"recovery at (m=40,T=2) = {easy:.1f} (need >= 0.8); "
        f"monotone in T: {monotone}; runtime {elapsed:.0f}s (< 1800s)",
    )


def test_c09_cmen_vs_rmde(cmen_grid, rmde_grid):
    cmen_mean = float(np.mean([c.recovery_probability for c in cmen_grid[0]]))
    rmde_mean = float(np.mean([c.recovery_probability for c in rmde_grid]))
    check(
        "09 CMEN vs RMDE direction",
        cmen_mean >= rmde_mean - 0.05,
        f"mean recovery cmen={cmen_mean:.3f} vs rmde-continuation={rmde_mean:.3f}",
    )


def test_c10_constraint_satisfaction():
    spec = make_basis(2, 8, seed=7)
    grid = make_tensor_grid(Domain(lo=[-3.0, -3.0], hi=[3.0, 3.0]), 64)
    engine = BasisGrid(spec, grid)
    newton = NewtonConfig(grad_tol=1e-5)
    cfg = CmenaConfig()
    ok = True
    details = []
    for seed in (0, 1, 2):
        truth = synth_lowrank_lambda(8, 6, 2, seed=derive_seed(10, seed))
        densities = densities_from_matrix(truth, spec, grid, engine=engine)
        stats = []
        for i, dens in enumerate(densities):
            samples, _ = rejection_sample(
                dens, spec, grid, 300, derive_seed(10, seed, i)
            )
            stats.append(suff_stats(samples, spec, truth.bag_ids[i]))
        sol, report = fit_cmen(stats, spec, grid, cfg, newton, engine=engine)
        hat = solvers_mod.fit_columns_relaxed(stats, spec, grid, newton, engine=engine)[0]
        gval, _ = g_and_grad(sol, hat, stats, spec, grid, engine=engine)
        eps = epsilon_bound(len(stats), 8, cfg.a)
        feasible = gval <= eps + cfg.cons_tol
        majorized = not any("majorization" in w for w in report.warnings)
        ok = ok and feasible and majorized
        details.append(f"seed {seed}: g-eps={gval - eps:.3f}, majorized={majorized}")
    check("10 constraint satisfaction", ok, "; ".join(details))


def test_c11_continuation_schedule():
    spec = make_basis(2, 8, seed=7)
    grid = make_tensor_grid(Domain(lo=[-3.0, -3.0], hi=[3.0, 3.0]), 64)
    engine = BasisGrid(spec, grid)
    newton = NewtonConfig(grad_tol=1e-5)
    rng = np.random.default_rng(11)
    stats = [
        suff_stats(rng.uniform(-2, 2, (150, 2)), spec, f"b{i}") for i in range(5)
    ]
    hat = solvers_mod.fit_columns_relaxed(stats, spec, grid, newton, engine=engine)[0]
    _, report = rmde_continuation(
        stats, spec, grid, newton=newton, engine=engine, lambda_hat=hat
    )
    eta0 = float(np.linalg.norm(hat.data) ** 2)
    ladder_ok = len(report.etas) == 4 and np.allclose(
        report.etas, [eta0, 0.1 * eta0, 0.01 * eta0, 1e-3 * eta0], rtol=1e-9
    )
    trace_ok = len(report.rank_trace) == 4 and len(report.inner_iters) == 4
    check(
        "11 continuation schedule",
        ladder_ok and trace_ok,
        f"etas={['%.3g' % e for e in report.etas]}, rank trace={report.rank_trace}",
    )


def test_c12_synthetic_classification(two_class_dataset):
    knn = CitationKnnConfig(k=5, k_prime=5)
    cmen_cfg = PipelineConfig(distance="kl-cmen", m=16, knn=knn)
    t0 = time.perf_counter()
    cmen_result = kfold_evaluate(two_class_dataset, folds=10, cfg=cmen_cfg, seed=0)
    haus_cfg = PipelineConfig(distance="hausdorff", knn=knn)
    haus_result = kfold_evaluate(two_class_dataset, folds=10, cfg=haus_cfg, seed=0)
    dt = time.perf_counter() - t0
    check(
        "12 synthetic classification",
        cmen_result.mean_accuracy >= 0.90,
        f"sym-kl (cmen densities) accuracy {cmen_result.mean_accuracy:.3f} "
        f"+- {cmen_result.std_accuracy:.3f}; hausdorff baseline "
        f"{haus_result.mean_accuracy:.3f} +- {haus_result.std_accuracy:.3f} "
        f"({dt:.0f}s)",
    )


def test_c13_complexity_scaling():
    rows = runtime_benchmark(repeats=7)
    by = {(r["op"], r["n"]): r["seconds"] for r in rows}
    suff = by[("suff_stats", 40_000)] / by[("suff_stats", 20_000)]
    klr = by[("kl_matrix", 40_000)] / by[("kl_matrix", 20_000)]
    haus = by[("avg_hausdorff", 1_200)] / by[("avg_hausdorff", 600)]
    check(
        "13 complexity scaling",
        1.6 <= suff <= 2.6 and 0.8 <= klr <= 1.3 and 3.0 <= haus <= 5.5,
        f"suff_stats doubling ratio {suff:.2f} (in [1.6, 2.6]); "
        f"kl matrix {klr:.2f} (in [0.8, 1.3]); hausdorff {haus:.2f} (in [3.0, 5.5])",
    )


def test_c14_psi_reconstruction():
    spec = make_basis(2, 12, seed=14)
    truth = synth_lowrank_lambda(12, 8, 2, seed=21)
    beta, psi = psi_basis(truth, spec, 2)
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-3, 3, 2)
        feats = spec.evaluate(x[None, :])[0]
        worst = max(
            worst, float(np.abs(beta.T @ psi.evaluate(x) - truth.data.T @ feats).max())
        )
    check("14 psi-basis reconstruction", worst <= 1e-6, f"worst gap {worst:.2e}")


def strip_timing(rec):
    if isinstance(rec, dict):
        return {k: strip_timing(v) for k, v in rec.items() if "wall_time" not in k}
    if isinstance(rec, list):
        return [strip_timing(v) for v in rec]
    return rec


def test_c15_determinism(tmp_path, two_class_dataset):
    data_path = tmp_path / "bags.jsonl"
    write_bags_jsonl(two_class_dataset.subset(range(8)), data_path)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = cli_main([
            "fit", str(data_path), "--out", str(out), "--solver", "rmde",
            "--eta", "0.5", "--m", "8", "--seed", "3",
        ])
        assert code in (0, 2)  # warning-flagged convergence is fine here
        outs.append(out)
    model_same = (outs[0] / "model.json").read_bytes() == (
        outs[1] / "model.json"
    ).read_bytes()
    reports = [
        strip_timing(json.loads((o / "report.json").read_text())) for o in outs
    ]
    config_same = (outs[0] / "resolved_config.json").read_bytes() == (
        outs[1] / "resolved_config.json"
    ).read_bytes()
    check(
        "15 determinism",
        model_same and reports[0] == reports[1] and config_same,
        f"model bytes identical: {model_same}; reports (minus timing) equal: "
        f"{reports[0] == reports[1]}; resolved config identical: {config_same}",
    )
