"""Self-tests of the benchmark (not of the package).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import gen  # noqa: E402
import traced  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def ladder_specs(seed):
    return [gen.make_spec(seed, f, d, n, index=i, scale=s)
            for (f, d, n, s) in workloads.LADDER for i in range(2)]


def test_same_seed_gives_identical_problem_files():
    first = [s.text() for s in ladder_specs(7)]
    again = [s.text() for s in ladder_specs(7)]
    assert first == again
    assert first != [s.text() for s in ladder_specs(8)]
    assert len(set(first)) == len(first)


def test_generated_problem_loads_with_expected_energy(tmp_path):
    from noether_lcs.problem import load_problem

    for family in gen.FAMILIES:
        spec = gen.make_spec(3, family, 3, 20)
        path = tmp_path / "p.json"
        path.write_text(spec.text())
        prob = load_problem(path)
        x, v = np.array([0.3, -0.2, 0.5]), np.array([0.7, 0.1, -0.4])
        L, E = prob.lagrangian, prob.integrals["energy"]
        assert E(0.0, x, v) == pytest.approx(v @ L.partial("v", 0.0, x, v) - L(0.0, x, v))


# -- tracer -------------------------------------------------------------


def test_tracer_binds_every_namespace_and_restores():
    import noether_lcs
    from noether_lcs import dsl, euler_lagrange, fields

    original = euler_lagrange.solve_extremal
    with tracer.Tracer():
        assert noether_lcs.solve_extremal is euler_lagrange.solve_extremal
        assert euler_lagrange.solve_extremal is not original
        assert noether_lcs.evaluate is dsl.evaluate
        assert fields.ScalarField.partial.__wrapped__ is not None
    assert euler_lagrange.solve_extremal is original
    assert noether_lcs.solve_extremal is original
    assert not hasattr(fields.ScalarField.partial, "__wrapped__")


def test_self_time_subtracts_children():
    spans = [tracer.Span("a", 0.0, 10.0), tracer.Span("b", 1.0, 4.0, parent=0),
             tracer.Span("c", 5.0, 6.0, parent=0), tracer.Span("d", 2.0, 3.0, parent=1)]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def _small(monkeypatch):
    monkeypatch.setattr(workloads, "LADDER", (
        ("oscillator", 1, 20, 1.0), ("anharmonic", 3, 20, 1.0), ("oscillator", 1, 20, 1e3)))
    monkeypatch.setattr(workloads.Analyze, "N", 20)


def _traced_pass(wl):
    wl.setup()
    tr = tracer.Tracer()
    with tr:
        outcomes = workloads.run_pass(wl, 0)
    wl.before_checks()
    workloads.check_outcomes(outcomes)
    return tr.spans, outcomes


def test_every_wrapped_function_records_on_its_workload(tmp_path, monkeypatch):
    _small(monkeypatch)
    names = {}
    for cls in (workloads.SolveLadder, workloads.Analyze):
        wl = cls(seed=1, work=tmp_path)
        spans, outcomes = _traced_pass(wl)
        assert all(oc.ok or "line search stalled" in oc.error for oc in outcomes)
        names[wl.name] = {s.name for s in spans}
    child = traced.run_cli_child(tmp_path, [workloads.cli_argv(
        workloads.SHIPPED["free_particle"], ["solve"], tmp_path / "out")], "t")
    assert child["codes"] == [0] and child["import_s"] > 0
    assert child["split"]["scipy.integrate"] > 0
    names["cli-cold"] = {s.name for s in child["spans"]}

    missing = [n for n, w in tracer.EXPECTED_ON.items() if n not in names[w]]
    assert not missing


BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_layer_metrics_cover_the_per_layer_list():
    assert [n for n, _, _ in traced.PER_LAYER] == [m["name"] for m in BENCH["per_layer"]]


def test_timed_run_reports_the_end_to_end_metrics_and_counts_failures(monkeypatch, tmp_path):
    import run

    monkeypatch.setattr(workloads, "child_import_seconds", lambda statement: 0.0)

    class Stub(workloads.Workload):
        name = "stub"

        def setup(self):
            pass

        def ops(self, index):
            return [workloads.Op("ok", 1, run=lambda: 1, check=lambda r: None),
                    workloads.Op("raises", 3, run=lambda: 1 / 0, check=lambda r: None)]

    result = run.timed_run(Stub(seed=0, work=tmp_path), seconds=0.01)
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert result["correct"] and result["failed"] * 2 == result["attempted"] >= 2
    assert result["metrics"]["ok_ratio"]["value"] == 0.5


def test_run_pass_brackets_each_operation_with_the_host_probe(tmp_path):
    import hostspeed

    class Stub(workloads.Workload):
        def ops(self, index):
            return [workloads.Op("a", 1, run=lambda: 1, check=lambda r: None),
                    workloads.Op("b", 1, run=lambda: 1 / 0, check=lambda r: None)]

    probes = iter([1.0, 3.0, 7.0])
    outcomes = workloads.run_pass(Stub(seed=0, work=tmp_path), 0, probe=lambda: next(probes))
    assert [oc.probe_s for oc in outcomes] == [2.0, 5.0]
    assert [oc.ok for oc in outcomes] == [True, False]
    assert next(probes, None) is None
    assert hostspeed.reference_seconds(3.0, 2 * hostspeed.REF_S) == pytest.approx(1.5)
    assert hostspeed.probe() > 0.0


def test_importtime_split_reads_outermost_line():
    err = ("import time: self [us] | cumulative | imported package\n"
           "import time:       120 |        500 |     scipy.linalg\n"
           "import time:       300 |      9000 |   scipy.integrate\n"
           "import time:        10 |         10 | scipy.linalg\n")
    split = traced.importtime_split(err)
    assert split == {"scipy.integrate": 9000e-6, "scipy.stats": 0.0, "scipy.linalg": 500e-6}


# -- output checks reject wrong outputs ---------------------------------


def _loaded(tmp_path, family, dim, n, scale=1.0):
    from noether_lcs.problem import load_problem

    spec = gen.make_spec(5, family, dim, n, scale=scale)
    path = tmp_path / f"{family}{dim}.json"
    path.write_text(spec.text())
    return spec, load_problem(path)


def test_solve_checks_reject_perturbed_curves(tmp_path):
    from noether_lcs import Curve

    for family in gen.FAMILIES:
        spec, prob = _loaded(tmp_path, family, 1, 40)
        result = workloads.SolveLadder.run_one(None, prob)
        workloads.SolveLadder.check_one(spec, prob, result)
        curve = result[0]
        bent = curve.values.copy()
        bent[20] += 1e-2
        wrong = Curve(curve.space, curve.grid, bent)
        with pytest.raises(checks.CheckError):
            workloads.SolveLadder.check_one(spec, prob, workloads.SolveLadder.summarize(prob, wrong))


def test_legendre_check_rejects_concave_velocity_term(tmp_path):
    from noether_lcs import compile_field

    spec, prob = _loaded(tmp_path, "anharmonic", 1, 40)
    curve, res, act = workloads.SolveLadder.run_one(None, prob)
    concave = dataclasses.replace(prob, lagrangian=compile_field("-v1^2/2", 1))
    with pytest.raises(checks.CheckError):
        workloads.SolveLadder.check_one(spec, concave, (curve, res, act))


def test_closed_form_check_rejects_a_curve_off_by_more_than_h2():
    with pytest.raises(checks.CheckError):
        checks.closed_form([[0.0], [1.0]], [[0.0], [1.01]], h=0.01, amplitude=1.0)


def test_analyze_checks_reject_each_wrong_field(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.Analyze, "N", 40)
    wl = workloads.Analyze(seed=2, work=tmp_path)
    wl.setup()
    spec, bundle = wl.load(0)[1]
    suite = workloads.Analyze.run_one(spec, bundle)
    workloads.Analyze.check_one(spec, bundle, suite)
    flipped = dict(suite.verdicts, **{"dilation": True})
    drift = dataclasses.replace(suite.conservation, relative_deviation=1.0)
    failed_audit = dataclasses.replace(suite.audit, verdicts={(1, 1): False})
    for wrong in (
        dataclasses.replace(suite, eigen=[suite.eigen[0] * (1 + 1e-6)] + suite.eigen[1:]),
        dataclasses.replace(suite, verdicts=flipped),
        dataclasses.replace(suite, found=suite.found + 1),
        dataclasses.replace(suite, conservation=drift),
        dataclasses.replace(suite, audit=failed_audit),
    ):
        with pytest.raises(checks.CheckError):
            workloads.Analyze.check_one(spec, bundle, wrong)


def test_cli_checks_reject_wrong_exit_code_and_report(tmp_path):
    wl = workloads.CliCold(seed=1, work=tmp_path)
    wl.reference = {0: b"{}\n"}
    wl.check_one(0, 0, (0, b"{}\n"))
    with pytest.raises(checks.CheckError):
        wl.check_one(0, 0, (2, b"{}\n"))
    with pytest.raises(checks.CheckError):
        wl.check_one(0, 0, (0, b"{ }\n"))


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
