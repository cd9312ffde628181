import argparse
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import maxentmil.cli as cli
from maxentmil.cli import build_parser, main
from maxentmil.experiments import synth_two_class_bags
from maxentmil.mil import (
    CitationKnnConfig,
    LabeledBagDataset,
    PipelineConfig,
    evaluate_split,
)
from maxentmil.modelio import load_model, read_bags_jsonl, read_matrix_csv, write_bags_jsonl
from maxentmil.solvers import CmenaConfig


@pytest.fixture(scope="module")
def bag_file(tmp_path_factory):
    ds, _ = synth_two_class_bags(8, 60, 8, seed=2)
    path = tmp_path_factory.mktemp("data") / "bags.jsonl"
    write_bags_jsonl(ds, path)
    return path, ds


class _Stop(Exception):
    """Raised by a stub to end a command once it has what the test needs."""


def _stop_with(seen: dict, key):
    def stub(*args, **kwargs):
        seen[key] = (args, kwargs)
        raise _Stop
    return stub


def strip_timing(rec):
    if isinstance(rec, dict):
        return {k: strip_timing(v) for k, v in rec.items() if "wall_time" not in k}
    if isinstance(rec, list):
        return [strip_timing(v) for v in rec]
    return rec


class TestFitCommand:
    def test_fit_writes_model_and_report(self, bag_file, tmp_path):
        path, _ = bag_file
        out = tmp_path / "run"
        code = main(["fit", str(path), "--out", str(out), "--solver", "mde", "--m", "8"])
        assert code == 0
        assert (out / "model.json").exists()
        assert (out / "report.json").exists()
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["version"] and resolved["command"] == "fit"
        spec, _, _, densities, ns, raw = load_model(out / "model.json")
        assert len(densities) == 8 and raw["solver"] == "mde"

    def test_rerun_byte_identical(self, bag_file, tmp_path):
        path, _ = bag_file
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main([
                "fit", str(path), "--out", str(out), "--solver", "rmde",
                "--eta", "0.5", "--m", "8", "--seed", "3",
            ]) == 0
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert strip_timing(r1) == strip_timing(r2)

    def test_empty_bag_exits_1_naming_bag(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"bag_id": "ghost", "instances": []}\n')
        code = main(["fit", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "ghost" in capsys.readouterr().err

    def test_warning_flagged_convergence_exits_2(self, bag_file, tmp_path, monkeypatch):
        path, _ = bag_file
        monkeypatch.setattr(CmenaConfig, "max_inner", 1)
        monkeypatch.setattr(CmenaConfig, "max_outer", 1)
        code = main([
            "fit", str(path), "--out", str(tmp_path / "o"), "--solver", "cmen", "--m", "8",
        ])
        assert code == 2

    def test_unknown_config_key_rejected(self, bag_file, tmp_path, capsys):
        path, _ = bag_file
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"not_a_key": 1}))
        code = main([
            "fit", str(path), "--out", str(tmp_path / "o"), "--config", str(cfgfile)
        ])
        assert code == 1
        assert "not_a_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block, key, unknown",
        [
            # CMEN's one setting is the top-level "a"; there is no cmena block.
            ("cmena", "ls_alpha", "(fit): cmena"),
            ("cmena", "a", "(fit): cmena"),
            ("newton", "hessian_ridge", "(newton): hessian_ridge"),
            ("newton", "max_iters", "(newton): max_iters"),
        ],
        ids=["cmena-ls_alpha", "cmena-a", "newton-hessian_ridge", "newton-max_iters"],
    )
    def test_fixed_solver_constant_is_unknown_key(
        self, bag_file, tmp_path, capsys, block, key, unknown
    ):
        path, _ = bag_file
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({block: {key: 0.5}}))
        out = tmp_path / "o"
        code = main([
            "fit", str(path), "--out", str(out), "--solver", "mde",
            "--m", "8", "--config", str(cfgfile),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"unknown config keys in {cfgfile} {unknown}" in err
        assert not out.exists()

    def test_cmen_report_counts_work(self, bag_file, tmp_path, monkeypatch):
        # report.json carries CMEN's work counters: every probe is one
        # kernel call, plus one each at the two anchors (zero and the ML
        # matrix); solvers that do not count them write null.
        path, _ = bag_file
        monkeypatch.setattr(CmenaConfig, "max_outer", 3)
        out = tmp_path / "cmen"
        assert main([
            "fit", str(path), "--out", str(out), "--solver", "cmen", "--m", "8",
        ]) in (0, 2)
        report = json.loads((out / "report.json").read_text())
        assert report["probes"] >= sum(report["inner_iters"]) > 0
        assert report["kernel_calls"] == report["probes"] + 2
        out = tmp_path / "mde"
        assert main(["fit", str(path), "--out", str(out), "--solver", "mde", "--m", "8"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["probes"] is None and report["kernel_calls"] is None

    def test_fit_load_ranks_agree_with_inprocess(self, bag_file, tmp_path):
        from maxentmil.lowrank import numeric_rank
        from maxentmil.basis import domain_from_data, make_auto_grid, make_basis
        from maxentmil.maxent import BasisGrid, suff_stats
        from maxentmil.solvers import fit_rmde

        path, ds = bag_file
        out = tmp_path / "run"
        assert main([
            "fit", str(path), "--out", str(out), "--solver", "rmde",
            "--eta", "0.5", "--m", "8", "--seed", "3",
        ]) == 0
        spec, domain, grid, densities, ns, _ = load_model(out / "model.json")
        file_matrix = np.column_stack([d.lam for d in densities])
        spec2 = make_basis(ds.d, 8, 3)
        domain2 = domain_from_data(ds.pooled_instances(), 0.1)
        grid2 = make_auto_grid(domain2, 64, 20_000, 3)
        engine = BasisGrid(spec2, grid2)
        stats = [suff_stats(b.instances, spec2, b.bag_id) for b in ds.bags]
        sol, _ = fit_rmde(stats, spec2, grid2, 0.5, engine=engine)
        assert numeric_rank(file_matrix, 1e-8) == numeric_rank(sol.data, 1e-8)
        np.testing.assert_allclose(file_matrix, sol.data, atol=1e-12)


    @pytest.mark.parametrize(
        "config, flags, expected",
        [
            ({}, [], 1.0),
            ({"a": 50}, [], 50),
            ({}, ["--a", "7"], 7),
            ({"a": 7}, ["--a", "3"], 3.0),
        ],
    )
    def test_confidence_multiplier_precedence(
        self, bag_file, tmp_path, monkeypatch, config, flags, expected
    ):
        # --a > config "a" > 1.0, and the resolved config records the value
        # the solver received.
        path, _ = bag_file
        seen = {}
        monkeypatch.setattr(cli, "fit_joint", _stop_with(seen, "fit_joint"))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        out = tmp_path / "o"
        main([
            "fit", str(path), "--out", str(out), "--solver", "cmen", "--m", "8",
            "--config", str(cfgfile), *flags,
        ])
        args, _ = seen["fit_joint"]
        assert args[5].a == expected
        resolved = json.loads((out / "resolved_config.json").read_text())["params"]
        assert resolved["a"] == expected

    def test_rmde_cv_fits_each_bag_once(self, bag_file, tmp_path, monkeypatch):
        import maxentmil.maxent as maxent

        path, ds = bag_file
        fitted = []
        original = maxent.fit_sde

        def counting(stats, *args, **kwargs):
            fitted.append(stats.bag_id)
            return original(stats, *args, **kwargs)

        monkeypatch.setattr(maxent, "fit_sde", counting)
        assert main([
            "fit", str(path), "--out", str(tmp_path / "o"), "--solver", "rmde-cv",
            "--m", "8",
        ]) == 0
        assert sorted(fitted) == sorted(ds.bag_ids)

    def test_rmde_cv_reports_its_refit(self, tmp_path):
        # On this set the final refit stops at its step cap; the report is
        # the refit's, so the run says so and exits 2.
        ds, _ = synth_two_class_bags(16, 200, 8, seed=1)
        path = tmp_path / "bags.jsonl"
        write_bags_jsonl(ds, path)
        out = tmp_path / "o"
        code = main(["fit", str(path), "--out", str(out), "--solver", "rmde-cv", "--m", "8"])
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert report["solver"] == "rmde-cv" and report["converged"] is False
        assert len(report["warnings"]) == 1
        assert report["warnings"][0].startswith("prox residual still above obj_tol")
        assert len(report["etas"]) == 1 and report["inner_iters"] == [100]


class TestKlMatrixCommand:
    def test_diagonal_zero(self, bag_file, tmp_path):
        path, _ = bag_file
        run = tmp_path / "fit"
        assert main(["fit", str(path), "--out", str(run), "--solver", "mde", "--m", "8"]) == 0
        out = tmp_path / "kl"
        assert main(["kl-matrix", str(run / "model.json"), "--out", str(out)]) == 0
        mat, ids = read_matrix_csv(out / "kl_matrix.csv")
        assert len(ids) == 8
        np.testing.assert_allclose(np.diag(mat), 0.0)
        np.testing.assert_allclose(mat, mat.T, atol=1e-12)
        assert (run / "stats.jsonl").exists()

    def test_kernel_export(self, bag_file, tmp_path):
        path, _ = bag_file
        run = tmp_path / "fit"
        main(["fit", str(path), "--out", str(run), "--solver", "mde", "--m", "8"])
        out = tmp_path / "kl"
        assert main([
            "kl-matrix", str(run / "model.json"), "--out", str(out), "--gamma", "0.5"
        ]) == 0
        dist, _ = read_matrix_csv(out / "kl_matrix.csv")
        kern, _ = read_matrix_csv(out / "kernel_matrix.csv")
        np.testing.assert_allclose(kern, np.exp(-0.5 * dist), atol=1e-12)
        np.testing.assert_allclose(np.diag(kern), 1.0)


    def test_nonpositive_gamma_writes_nothing(self, bag_file, tmp_path, capsys):
        path, _ = bag_file
        run = tmp_path / "fit"
        assert main(["fit", str(path), "--out", str(run), "--solver", "mde", "--m", "8"]) == 0
        out = tmp_path / "kl"
        code = main(["kl-matrix", str(run / "model.json"), "--out", str(out), "--gamma", "0"])
        assert code == 1
        assert "gamma must be positive" in capsys.readouterr().err
        assert not out.exists()


class TestClassifyCommand:
    def test_matches_inprocess_evaluation(self, bag_file, tmp_path):
        _, ds = bag_file
        train = ds.subset(range(6))
        test = ds.subset(range(6, 8))
        train_path = tmp_path / "train.jsonl"
        test_path = tmp_path / "test.jsonl"
        write_bags_jsonl(train, train_path)
        write_bags_jsonl(test, test_path)
        out = tmp_path / "cls"
        code = main([
            "classify", str(train_path), str(test_path), "--out", str(out),
            "--distance", "hausdorff", "--k", "3", "--k-prime", "2",
        ])
        assert code == 0
        got = [json.loads(line) for line in (out / "predictions.jsonl").read_text().splitlines()]
        cfg = PipelineConfig(
            distance="hausdorff", knn=CitationKnnConfig(k=3, k_prime=2)
        )
        expected = evaluate_split(train, test, cfg)
        assert got == expected
        acc = json.loads((out / "accuracy.json").read_text())
        assert acc["n_test"] == 2


class TestPhaseDiagramCommand:
    def run_args(self, out, extra=()):
        return [
            "phase-diagram", "--out", str(out),
            "--n-bags", "6", "--m-values", "8", "--t-values", "2",
            "--n-per-bag", "150", "--reps", "2", "--seed", "5", "--threads", "1",
            *extra,
        ]

    def test_grid_files(self, tmp_path):
        out = tmp_path / "phase"
        assert main(self.run_args(out, ("--solver", "cmen"))) == 0
        rows = json.loads((out / "grid_cmen.json").read_text())
        assert len(rows) == 1 and rows[0]["m"] == 8 and rows[0]["T"] == 2
        assert len(rows[0]["ranks"]) == 2
        csv_lines = (out / "grid_cmen.csv").read_text().splitlines()
        assert csv_lines[0] == "m,T,recovery_probability,ranks"
        assert len(csv_lines) == 2

    def test_solver_both_emits_aligned_grids(self, tmp_path):
        out = tmp_path / "both"
        main(self.run_args(out, ("--solver", "both")))
        a = json.loads((out / "grid_cmen.json").read_text())
        b = json.loads((out / "grid_rmde-continuation.json").read_text())
        assert [(r["m"], r["T"]) for r in a] == [(r["m"], r["T"]) for r in b]

    def test_resume_skips_completed_cells(self, tmp_path):
        out = tmp_path / "resume"
        (out / "cells").mkdir(parents=True)
        sentinel = {
            "m": 8, "T": 2, "recovery_probability": 0.75,
            "ranks": [2, 2], "threshold": 0.123, "warnings": [],
        }
        (out / "cells" / "cmen_m8_T2.json").write_text(json.dumps(sentinel))
        assert main(self.run_args(out, ("--solver", "cmen"))) == 0
        rows = json.loads((out / "grid_cmen.json").read_text())
        assert rows[0]["recovery_probability"] == 0.75  # planted cell survived


    def test_interrupted_sweep_keeps_finished_cells(self, tmp_path, monkeypatch):
        import maxentmil.experiments as experiments

        args = ("--m-values", "8,10", "--solver", "cmen")
        whole = tmp_path / "whole"
        assert main(self.run_args(whole, args)) == 0

        real_rep = experiments._phase_rep

        def fail_in_second_cell(item):
            if item[1] == 10:
                raise KeyboardInterrupt
            return real_rep(item)

        out = tmp_path / "resumed"
        monkeypatch.setattr(experiments, "_phase_rep", fail_in_second_cell)
        with pytest.raises(KeyboardInterrupt):
            main(self.run_args(out, args))
        assert (out / "cells" / "cmen_m8_T2.json").exists()
        assert not (out / "cells" / "cmen_m10_T2.json").exists()

        monkeypatch.setattr(experiments, "_phase_rep", real_rep)
        assert main(self.run_args(out, args)) == 0
        for name in ("grid_cmen.json", "grid_cmen.csv"):
            assert (out / name).read_bytes() == (whole / name).read_bytes()

    def test_flag_over_config_over_default(self, tmp_path, monkeypatch):
        from maxentmil.maxent import NewtonConfig

        seen = {}
        monkeypatch.setattr(cli, "phase_cells", _stop_with(seen, "spec"))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "m_values": [8], "t_values": [3], "reps": 4, "newton": {"grad_tol": 1e-6},
        }))
        out = tmp_path / "phase"
        main([
            "phase-diagram", "--out", str(out), "--config", str(cfgfile),
            "--m-values", "12,16", "--t-values", "", "--solver", "cmen",
        ])
        resolved = json.loads((out / "resolved_config.json").read_text())["params"]
        assert resolved["m_values"] == [12, 16]  # flag over config
        assert resolved["t_values"] == [3]  # an empty list flag is not given
        assert resolved["reps"] == 4  # config over default
        assert resolved["n_bags"] == 20  # default
        assert resolved["newton"] == {"grad_tol": 1e-6}
        assert resolved["a"] == 1.0  # default
        (pd,), _ = seen["spec"]
        assert (pd.m_values, pd.t_values, pd.reps, pd.n_bags) == ((12, 16), (3,), 4, 20)
        assert pd.newton == NewtonConfig(grad_tol=1e-6)
        assert pd.cmena == CmenaConfig()


@pytest.mark.parametrize(
    "command, target, config_arg",
    # evaluate_split(train, test, pipe) and phase_cells(pd, skip_cells=...)
    [("classify", "evaluate_split", 2), ("phase-diagram", "phase_cells", 0)],
)
def test_default_newton_is_the_library_default(
    bag_file, tmp_path, monkeypatch, command, target, config_arg
):
    # At their defaults, classify and phase-diagram fit bags with the
    # library's NewtonConfig(), the one the pipeline and the sweep default to.
    from maxentmil.experiments import PhaseDiagramSpec
    from maxentmil.maxent import NewtonConfig

    path, _ = bag_file
    seen = {}
    monkeypatch.setattr(cli, target, _stop_with(seen, "args"))
    positionals = [str(path), str(path)] if command == "classify" else []
    main([command, *positionals, "--out", str(tmp_path / "o")])
    args, _ = seen["args"]
    cfg = args[config_arg]
    pd_default = PhaseDiagramSpec(n_bags=2, m_values=(8,), t_values=(2,), n_per_bag=10)
    assert cfg.newton == NewtonConfig() == PipelineConfig().newton == pd_default.newton


@pytest.mark.parametrize(
    "command, target, config_arg",
    [("classify", "evaluate_split", 2), ("phase-diagram", "phase_cells", 0)],
)
def test_top_level_a_reaches_the_solver(
    bag_file, tmp_path, monkeypatch, command, target, config_arg
):
    # classify and phase-diagram take CMEN's confidence multiplier as the
    # top-level key "a", spelled as fit spells it.
    path, _ = bag_file
    seen = {}
    monkeypatch.setattr(cli, target, _stop_with(seen, "args"))
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"a": 4}))
    positionals = [str(path), str(path)] if command == "classify" else []
    out = tmp_path / "o"
    main([command, *positionals, "--out", str(out), "--config", str(cfgfile)])
    args, _ = seen["args"]
    assert args[config_arg].cmena == CmenaConfig(a=4)
    resolved = json.loads((out / "resolved_config.json").read_text())["params"]
    assert resolved["a"] == 4 and "cmena" not in resolved


class TestBoundCheckCommand:
    def test_table_written(self, tmp_path):
        out = tmp_path / "bound"
        code = main([
            "bound-check", "--out", str(out), "--n-bags", "2", "--m", "4",
            "--n-per-bag", "80", "--trials", "50", "--a-values", "2,5",
        ])
        assert code == 0
        table = json.loads((out / "exceedance.json").read_text())["table"]
        assert [row["a"] for row in table] == [2.0, 5.0]
        assert all(0 <= row["exceedance_fraction"] <= 1 for row in table)
        assert table[0]["epsilon"] == 2.0 * 2 * 4 / 2


class TestSynthCommand:
    def test_lowrank_mode(self, tmp_path):
        out = tmp_path / "synth"
        code = main([
            "synth", "--out", str(out), "--mode", "lowrank", "--m", "8",
            "--n-bags", "4", "--t", "2", "--n-per-bag", "50",
        ])
        assert code == 0
        ds = read_bags_jsonl(out / "dataset.jsonl")
        assert len(ds.bags) == 4
        truth = json.loads((out / "truth.json").read_text())
        assert truth["t"] == 2 and len(truth["lambda_columns"]) == 4

    def test_two_class_mode_feeds_classify(self, tmp_path):
        out = tmp_path / "synth2"
        assert main([
            "synth", "--out", str(out), "--mode", "two-class", "--m", "8",
            "--n-bags", "6", "--n-per-bag", "60",
        ]) == 0
        ds = read_bags_jsonl(out / "dataset.jsonl")
        assert ds.class_set == ("a", "b")


class TestBenchCommand:
    def test_bench_table(self, tmp_path):
        out = tmp_path / "bench"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_linear": [1000, 2000], "n_quadratic": [200, 400],
            "m": 6, "repeats": 2,
        }))
        assert main(["bench", "--out", str(out), "--config", str(cfg)]) == 0
        rows = json.loads((out / "bench.json").read_text())
        assert {r["op"] for r in rows} == {"suff_stats", "kl_matrix", "avg_hausdorff"}


def test_every_option_is_a_resolved_parameter(bag_file, tmp_path, monkeypatch):
    # An option that is not among its command's resolved parameters would
    # be parsed and then silently ignored.
    path, _ = bag_file
    run = tmp_path / "fit"
    assert main(["fit", str(path), "--out", str(run), "--solver", "mde", "--m", "8"]) == 0
    positionals = {
        "fit": [str(path)],
        "classify": [str(path), str(path)],
        "kl-matrix": [str(run / "model.json")],
    }
    seen = {}
    monkeypatch.setattr(cli, "_prepare_out", _stop_with(seen, "resolved"))
    # bound-check resolves its output only after its trials; skip them
    monkeypatch.setattr(cli, "markov_bound_trial", lambda *args, **kwargs: ({}, None))
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for command, parser in sub.choices.items():
        options = {
            a.dest for a in parser._actions
            if a.option_strings and a.dest not in ("help", "out", "config")
        }
        seen.clear()
        main([command, *positionals.get(command, []), "--out", str(tmp_path / "o")])
        (_, resolved_command, params), _ = seen["resolved"]
        assert resolved_command == command
        assert options <= set(params), (command, sorted(options - set(params)))


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("fit", {"a": 0}, "a must be positive"),
        ("classify", {"distance": "bogus"}, "distance must be one of"),
        ("phase-diagram", {"reps": 0}, "reps must be >= 1"),
        ("synth", {"mode": "bogus"}, "mode must be"),
        ("phase-diagram", {"m_values": [9], "t_values": [2]}, "feature count m must be even"),
        ("bound-check", {"trials": 10}, "need at least 50 trials"),
    ],
    ids=["fit", "classify", "phase-diagram", "synth", "phase-diagram-odd-m", "bound-check"],
)
def test_bad_parameter_writes_nothing(bag_file, tmp_path, capsys, command, config, message):
    path, _ = bag_file
    positionals = {"fit": [str(path)], "classify": [str(path), str(path)]}
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    out = tmp_path / "o"
    code = main([
        command, *positionals.get(command, []), "--out", str(out), "--config", str(cfgfile)
    ])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "lines, config, message",
    [
        (
            ['{"bag_id": "a", "instances": [[0, 1]]}', '{"bag_id": "b", "instances": [[0, 1, 2]]}'],
            {}, "{bags}: bag 'b' has dimension 3, bag 'a' has 2",
        ),
        (
            ['{"bag_id": "a", "instances": [[0, 1]]}', '{"bag_id": "a", "instances": [[1, 0]]}'],
            {}, "{bags}: bag id 'a' is repeated",
        ),
        (
            ['{"bag_id": "z", "instances": [[0, 1]]}', '{"bag_id": "a", "instances": [0, 1]}'],
            {}, "{bags}: line 2: bag 'a' needs a nonempty (n, d) matrix",
        ),
        (
            ['{"bag_id": "a", "instances": [[0, 1]]}'],
            {"newton": 5}, "{cfg}: newton must be a JSON object",
        ),
    ],
    ids=["dimension", "repeated-id", "flat-instances", "newton-not-object"],
)
def test_input_error_names_file_line_and_bag(tmp_path, capsys, lines, config, message):
    bags = tmp_path / "bags.jsonl"
    bags.write_text("\n".join(lines) + "\n")
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    out = tmp_path / "o"
    code = main(["fit", str(bags), "--out", str(out), "--m", "8", "--config", str(cfgfile)])
    assert code == 1
    assert message.format(bags=bags, cfg=cfgfile) in capsys.readouterr().err
    assert not out.exists()


def test_fit_rejects_grid_too_coarse_for_basis(bag_file, tmp_path, capsys):
    # One finite but huge coordinate stretches the data-derived grid far
    # past what the basis can resolve.
    path, _ = bag_file
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["instances"][0][1] = 1e300
    far = tmp_path / "far.jsonl"
    far.write_text("\n".join([json.dumps(rec), *lines[1:]]) + "\n")
    out = tmp_path / "o"
    assert main(["fit", str(far), "--out", str(out), "--solver", "mde", "--m", "8"]) == 1
    assert (
        "the 64-point tensor grid is too coarse for the basis: axis 1 is 1.2e+300 wide, "
        "over its limit of 212.3" in capsys.readouterr().err
    )
    assert not out.exists()


def test_classify_rejects_grid_too_coarse_for_basis(bag_file, tmp_path, capsys):
    # classify standardizes the bags first, so a too-coarse grid comes from
    # --grid-points here.
    path, _ = bag_file
    code = main([
        "classify", str(path), str(path), "--out", str(tmp_path / "o"),
        "--m", "16", "--grid-points", "3",
    ])
    assert code == 1
    assert (
        "the 3-point tensor grid is too coarse for the basis: axis 0 is 4.953 wide, "
        "over its limit of 4.054" in capsys.readouterr().err
    )


def test_classify_rejects_axis_too_wide_to_standardize(bag_file, tmp_path, capsys):
    # The spread of an axis holding 1e300 overflows; the axis must not
    # silently standardize to 0.
    path, _ = bag_file
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["instances"][0][1] = 1e300
    far = tmp_path / "far.jsonl"
    far.write_text("\n".join([json.dumps(rec), *lines[1:]]) + "\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["classify", str(far), str(path), "--out", str(out), "--m", "8"])
    assert code == 1
    assert (
        "axis 1 of the training instances is too wide to standardize"
        in capsys.readouterr().err
    )
    assert not (out / "predictions.jsonl").exists()


@pytest.mark.parametrize(
    "argv",
    [["bound-check", "--out", "o", "--a-values", "2,x"], ["fit"]],
    ids=["malformed-list", "missing-arguments"],
)
def test_usage_error_exits_1(argv, capsys):
    # 2 is the "finished with warnings" code, so a usage error must not
    # exit with argparse's 2.
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.slow
def test_synth_fit_bound_check_end_to_end(tmp_path):
    # The full operational pipeline at a reduced desk scale, well under the
    # five-minute budget.
    import time

    t0 = time.perf_counter()
    synth_out = tmp_path / "synth"
    assert main([
        "synth", "--out", str(synth_out), "--mode", "lowrank", "--m", "12",
        "--n-bags", "10", "--t", "2", "--n-per-bag", "400", "--seed", "1",
    ]) == 0
    fit_out = tmp_path / "fit"
    code = main([
        "fit", str(synth_out / "dataset.jsonl"), "--out", str(fit_out),
        "--solver", "cmen", "--m", "12", "--seed", "1",
    ])
    assert code in (0, 2)
    kl_out = tmp_path / "kl"
    assert main(["kl-matrix", str(fit_out / "model.json"), "--out", str(kl_out)]) == 0
    bound_out = tmp_path / "bound"
    assert main([
        "bound-check", "--out", str(bound_out), "--n-bags", "3", "--m", "8",
        "--n-per-bag", "120", "--trials", "50", "--a-values", "2,5",
    ]) == 0
    assert time.perf_counter() - t0 < 300


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: a fresh interpreter that
    # imports the command line (and with it every module of the package)
    # loads no scipy module.
    import subprocess
    import sys

    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import maxentmil.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"

