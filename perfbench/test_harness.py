"""Fast self-test of the benchmark harness (a few seconds).

    python3 perfbench/test_harness.py      (or: python3 -m pytest perfbench)

Checks the self-time arithmetic on nested spans, that the tracing wrappers
put every original function back, that the metric names a run prints are
exactly those of BENCHMARK.json, and that the workloads composed from
public functions reproduce the package's own harnesses.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run  # pins threads and imports maxentmil from this checkout's src/
from tracer import Tracer, patched
from workloads import BoundCheck, PhaseCmen, PhaseRmde

import maxentmil.experiments as ex

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_bound_check():
    wl = BoundCheck(n_bags=2, m=4, n_per_bag=50, grid_points=16)
    wl.trace_ops = 3
    return wl


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        t = Tracer()
        root = t.record("root", 0.0, 10.0)
        a = t.record("a", 1.0, 4.0, root)
        t.record("a.inner", 2.0, 3.0, a)
        t.record("b", 5.0, 6.5, root)
        self.assertEqual(t.self_times(), [5.5, 2.0, 1.0, 1.5])
        summary = t.summary()
        self.assertEqual(summary["root"]["total_s"], 10.0)
        self.assertEqual(summary["a"]["self_s"], 2.0)

    def test_wrapped_calls_record_parents_and_self_time(self):
        ticks = iter(range(100))
        t = Tracer(clock=lambda: float(next(ticks)))
        leaf = t.wrap("leaf", lambda: None)
        outer = t.wrap("outer", lambda: (leaf(), leaf()))
        outer()
        self.assertEqual(t.names, ["outer", "leaf", "leaf"])
        self.assertEqual(t.parents, [-1, 0, 0])
        # outer spans ticks 0..5, each leaf one tick: self time 5 - 2.
        self.assertEqual(t.self_times(), [3.0, 1.0, 1.0])
        self.assertEqual(t.inside("outer"), [True, True, True])


def package_bindings():
    """Every attribute of every maxentmil module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "maxentmil" or name.startswith("maxentmil."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


class Restore(unittest.TestCase):
    def test_wrappers_are_installed_then_removed(self):
        import maxentmil.maxent as maxent
        import maxentmil.solvers as solvers

        before = package_bindings()
        with self.assertRaises(RuntimeError):
            with patched(run.TRACE_TARGETS, Tracer().wrap):
                # Every alias of a wrapped function is replaced, including
                # the names other modules imported.
                self.assertIsNot(solvers.fit_sde, before[("maxentmil.maxent", "fit_sde")])
                self.assertIs(solvers.fit_sde, maxent.fit_sde)
                self.assertIsNot(
                    maxent.BasisGrid.__dict__["moments"],
                    before[("maxentmil.maxent", "BasisGrid", "moments")],
                )
                raise RuntimeError("leave the block by an exception")
        after = package_bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])


class MetricNames(unittest.TestCase):
    def test_traced_and_untraced_names_match_benchmark_json(self):
        with tempfile.TemporaryDirectory() as tmp:
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                line = run.execute(tiny_bound_check(), 1, 0.2, trace, Path(tmp))["line"]
                self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(line["correct"])
                names = [m["name"] for m in SPEC[section]]
                self.assertEqual(sorted(line["metrics"]), sorted(names))
                for m in SPEC[section]:
                    self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])

    def test_printed_last_line(self):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "bound-check",
             "--seed", "0", "--seconds", "0.3", "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(line["metrics"]), sorted(m["name"] for m in SPEC["end_to_end"]))

    def test_benchmark_json_workloads_exist(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))


class Mirrors(unittest.TestCase):
    """The composed operations give the results of the package's own
    harnesses on small settings."""

    def test_bound_check_trial_matches_markov_bound_trial(self):
        _, sums = ex.markov_bound_trial(2, 4, 50, 50, [2.0], 3, grid_points=16)
        wl = BoundCheck(n_bags=2, m=4, n_per_bag=50, grid_points=16)
        wl.setup(3, None)
        self.assertEqual([wl.op(k)["total"] for k in range(50)], list(sums))

    def test_phase_repetitions_match_run_phase_diagram(self):
        small = dict(n_bags=6, n_per_bag=100, grid_points=16, reps=2)
        for workload in (PhaseCmen, PhaseRmde):
            cells = ex.run_phase_diagram(ex.PhaseDiagramSpec(
                m_values=(8, 10), t_values=(2, 3), base_seed=3, solver=workload.solver,
                **small))
            wl = workload(cells=[(c.m, c.t) for c in cells], **small)
            wl.setup(3, None)
            ops = [wl.op(k)["cells"] for k in range(2)]
            self.assertEqual([[c["rank"] for c in op] for op in ops],
                             [list(ranks) for ranks in zip(*(c.ranks for c in cells))])


if __name__ == "__main__":
    unittest.main()
