import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from noether_lcs import cli
from noether_lcs.cli import main
from noether_lcs.euler_lagrange import SolverConfig
from noether_lcs.problem import DEFAULT_TOLERANCES, load_problem
from noether_lcs.symmetry import SamplingConfig

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture
def free_particle_json(tmp_path):
    dst = tmp_path / "free_particle.json"
    shutil.copy(PROBLEMS / "free_particle.json", dst)
    return dst


@pytest.fixture
def oscillator_json(tmp_path):
    dst = tmp_path / "oscillator.json"
    shutil.copy(PROBLEMS / "oscillator.json", dst)
    return dst


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    reports = sorted(out.glob("*_report.json")) if out.exists() else []
    report = json.loads(reports[0].read_text()) if reports else None
    return code, report, out


def test_solve_free_particle(tmp_path, free_particle_json):
    code, report, out = run(tmp_path, "solve", str(free_particle_json))
    assert code == 0
    assert report["verdicts"]["converged"]
    assert report["residual_max"] <= 1e-9
    assert abs(report["action_value"] - 0.5) <= 1e-9
    csv = out / "extremal.csv"
    assert csv.exists()
    assert csv.read_text().splitlines()[0] == "t,x1"


def test_solve_emit_velocity(tmp_path, free_particle_json):
    _, _, out = run(tmp_path, "solve", str(free_particle_json), "--emit-velocity")
    header = (out / "extremal.csv").read_text().splitlines()[0]
    assert header == "t,x1,v1"


def test_solve_grid_override(tmp_path, free_particle_json):
    code, report, out = run(
        tmp_path, "solve", str(free_particle_json), "--grid-n", "60"
    )
    assert code == 0
    assert report["grid"]["n"] == 60
    assert len((out / "extremal.csv").read_text().splitlines()) == 62


def test_solve_rejects_odd_grid(tmp_path, free_particle_json, capsys):
    code = main(
        ["solve", str(free_particle_json), "--grid-n", "61", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_legendre(tmp_path, free_particle_json):
    code, report, _ = run(tmp_path, "legendre", str(free_particle_json))
    assert code == 0
    assert report["verdicts"]["legendre"]
    assert abs(report["min_eigenvalue"] - 1.0) <= 1e-9


def test_legendre_violation_exit_code(tmp_path):
    doc = {
        "space": {"dim": 1},
        "interval": {"a": 0.0, "b": 1.0, "n": 40},
        "lagrangian": "-v1^2/2",
        "boundary": {"xa": [0.0], "xb": [0.0]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run(tmp_path, "legendre", str(path))
    assert code == 2
    assert not report["verdicts"]["legendre"]


def test_explicit_generator_matches_its_catalog_twin(tmp_path):
    doc = {
        "space": {"dim": 2},
        "interval": {"a": 0.0, "b": 1.0, "n": 200},
        "lagrangian": "(v1^2 + v2^2 - x1^2 - x2^2)/2",
        "boundary": {"xa": [1.0, 0.0], "xb": [0.5, 0.8]},
        "generators": {"rot": {"T": "0", "X": ["-x2", "x1"]}, "rot12": "rotation-12"},
    }
    path = tmp_path / "isotropic.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run(tmp_path / "inv", "check-invariance", str(path))
    assert code == 0 and report["verdicts"] == {"rot": True, "rot12": True}
    reports = {}
    for name in ("rot", "rot12"):
        code, reports[name], _ = run(tmp_path / name, "noether", str(path), "--generator", name)
        assert code == 0
        reports[name].pop("generator")
    assert reports["rot"] == reports["rot12"]


def test_problem_sections_pass_on_only_the_keys_the_file_sets(tmp_path):
    doc = json.loads((PROBLEMS / "oscillator.json").read_text())
    prob = load_problem(PROBLEMS / "oscillator.json")
    assert prob.solver == SolverConfig()
    assert prob.tolerances == DEFAULT_TOLERANCES
    t_range = (0.0, doc["interval"]["b"])
    assert prob.sampling == SamplingConfig(t_range=t_range)
    doc["solver"] = {"max_iter": 7}
    doc["tolerances"] = {"audit": 0.5}
    doc["sampling"] = {"count": 9, "v_radius": 3.0}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    prob = load_problem(path)
    assert prob.solver == SolverConfig(max_iter=7)
    assert prob.tolerances == {**DEFAULT_TOLERANCES, "audit": 0.5}
    assert prob.sampling == SamplingConfig(t_range=t_range, count=9, v_radius=3.0)


def test_jacobi(tmp_path, free_particle_json):
    code, report, out = run(tmp_path, "jacobi", str(free_particle_json), "--k", "2")
    assert code == 0
    ev = report["eigenvalues"]
    assert len(ev) == 2
    assert abs(ev[0] - np.pi**2) <= 0.01 * np.pi**2
    assert (out / "jacobi_mode_1.csv").exists()
    assert (out / "jacobi_mode_2.csv").exists()


def test_check_invariance_all_generators(tmp_path, free_particle_json):
    code, report, _ = run(tmp_path, "check-invariance", str(free_particle_json))
    # the boost generator is not a strict symmetry, so the overall verdict fails
    assert code == 2
    assert report["verdicts"]["time"]
    assert report["verdicts"]["shift"]
    assert not report["verdicts"]["boost"]


def test_check_invariance_single_generator(tmp_path, free_particle_json):
    code, report, _ = run(
        tmp_path, "check-invariance", str(free_particle_json), "--generator", "shift"
    )
    assert code == 0
    assert report["verdicts"] == {"shift": True}


def test_check_invariance_unknown_generator(tmp_path, free_particle_json, capsys):
    code = main(
        [
            "check-invariance",
            str(free_particle_json),
            "--generator",
            "nonesuch",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "unknown generator" in capsys.readouterr().err


def test_noether_momentum(tmp_path, free_particle_json):
    code, report, _ = run(
        tmp_path, "noether", str(free_particle_json), "--generator", "shift"
    )
    assert code == 0
    assert report["verdicts"] == {
        "invariance": True,
        "extremal": True,
        "conservation": True,
    }
    assert abs(report["conserved_mean"] - 1.0) <= 1e-8


def test_noether_boost_fails(tmp_path, free_particle_json):
    code, report, _ = run(
        tmp_path, "noether", str(free_particle_json), "--generator", "boost"
    )
    assert code == 2
    assert not report["verdicts"]["invariance"]


def test_noether_accepts_a_curve_stopped_at_the_roundoff_floor(tmp_path):
    # boundary values x1e4 put the residual's roundoff floor above 10 * tol;
    # the solver stops there, and the extremal verdict accepts its curve
    prob = json.loads((PROBLEMS / "oscillator.json").read_text())
    prob["boundary"]["xb"] = [1e4]
    path = tmp_path / "oscillator_1e4.json"
    path.write_text(json.dumps(prob))
    code, report, _ = run(tmp_path, "noether", str(path), "--generator", "time")
    assert report["extremal_residual_max"] > 1e-9
    assert report["verdicts"]["extremal"] is True
    assert code == 0


def test_noether_rejects_a_curve_above_tol_and_above_its_floor(tmp_path, oscillator_json):
    # one node of the solved oscillator moved by d = 1e-9 h^2 lifts its
    # residual row by d / (2h^2) = 5e-10, between tol and 10 * tol and far
    # above the row's roundoff floor, so the curve is not an extremal
    import noether_lcs as nl

    solved = tmp_path / "solved"
    assert main(["solve", str(oscillator_json), "--out", str(solved)]) == 0
    space = nl.make_space(1, [1.0], 1)
    curve = nl.read_curve_csv(space, solved / "extremal.csv")
    values = curve.values.copy()
    values[100, 0] += 1e-9 * curve.grid.h**2
    moved = tmp_path / "moved.csv"
    nl.write_curve_csv(nl.Curve(space, curve.grid, values), moved)
    code, report, _ = run(
        tmp_path, "noether", str(oscillator_json), "--generator", "time",
        "--seed-curve", str(moved),
    )
    assert 1e-10 < report["extremal_residual_max"] <= 1e-9
    assert report["verdicts"]["extremal"] is False
    assert code == 2


def test_verify_energy(tmp_path, oscillator_json):
    code, report, _ = run(
        tmp_path, "verify", str(oscillator_json), "--integral", "energy"
    )
    assert code == 0
    assert abs(report["conserved_mean"] + 0.5) <= 1e-3


def test_verify_unknown_integral(tmp_path, oscillator_json, capsys):
    code = main(
        [
            "verify",
            str(oscillator_json),
            "--integral",
            "nonesuch",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "unknown integral" in capsys.readouterr().err


def test_find_symmetries(tmp_path, free_particle_json):
    code, report, _ = run(tmp_path, "find-symmetries", str(free_particle_json))
    assert code == 0
    assert report["count"] >= 3


def test_audit_diff(tmp_path, free_particle_json):
    code, report, _ = run(tmp_path, "audit-diff", str(free_particle_json))
    assert code == 0
    assert report["verdicts"]["differentiable"]


def test_report_is_byte_identical_across_runs(tmp_path, free_particle_json):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["solve", str(free_particle_json), "--out", str(out_a)]) == 0
    assert main(["solve", str(free_particle_json), "--out", str(out_b)]) == 0
    ra = (out_a / "solve_report.json").read_bytes()
    rb = (out_b / "solve_report.json").read_bytes()
    assert ra == rb
    ca = (out_a / "extremal.csv").read_bytes()
    cb = (out_b / "extremal.csv").read_bytes()
    assert ca == cb


def test_seed_curve_round_trip(tmp_path, free_particle_json):
    out = tmp_path / "first"
    assert main(["solve", str(free_particle_json), "--out", str(out)]) == 0
    code, report, _ = run(
        tmp_path,
        "legendre",
        str(free_particle_json),
        "--seed-curve",
        str(out / "extremal.csv"),
    )
    assert code == 0
    assert report["verdicts"]["legendre"]


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 1


def test_malformed_json_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["solve", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_problem_file_that_is_not_text_gives_one_error_line(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")  # a UTF-16 byte order mark, then half a character
    code = main(["solve", str(path), "--out", str(tmp_path)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1
    assert lines[0].startswith(f"error: {path}: solve: not valid JSON")


def test_bad_lagrangian_exit_code(tmp_path, capsys):
    doc = {
        "space": {"dim": 1},
        "interval": {"a": 0.0, "b": 1.0, "n": 10},
        "lagrangian": "v1^^2",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", str(path), "--out", str(tmp_path)])
    assert code == 1


def test_generator_using_velocity_is_rejected(tmp_path, capsys):
    # a generator is a field of (t, x); a component in v has no meaning
    doc = {
        "space": {"dim": 2},
        "interval": {"a": 0.0, "b": 1.0, "n": 10},
        "lagrangian": "(v1^2 + v2^2)/2",
        "generators": {"odd": {"T": "1", "X": ["x2", "t*v2"]}},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["check-invariance", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "generator 'odd': T and X are fields of (t, x)" in capsys.readouterr().err

def test_report_contains_provenance(tmp_path, free_particle_json):
    _, report, _ = run(tmp_path, "solve", str(free_particle_json))
    assert report["schema_version"] == 1
    assert report["command"] == "solve"
    assert len(report["input_digest"]) == 64


def test_jacobi_modes_are_byte_identical_across_runs(tmp_path, oscillator_json):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["jacobi", str(oscillator_json), "--k", "4", "--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert len([n for n in names if n.startswith("jacobi_mode_")]) == 4
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{problem}", "--frobnicate"],
        ["verify", "{problem}"],  # --integral is required
        ["check-invariance", "{problem}", "--seed-curve", "x.csv"],
        ["find-symmetries", "{problem}", "--emit-velocity"],
        ["legendre", "{problem}", "--tol", "2"],  # the problem file sets each tolerance
    ],
    ids=["unknown-flag", "missing-required-flag", "seed-curve-not-read", "emit-velocity-not-read",
         "no-tol-flag"],
)
def test_usage_errors_exit_1(tmp_path, oscillator_json, capsys, argv):
    argv = [a.format(problem=oscillator_json) for a in argv]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_report.json"))


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_exit_0(flag, capsys):
    assert main([flag]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("verdicts,code", [({"a": True, "b": False}, 2), ({"a": True}, 0)])
def test_main_derives_the_exit_code_from_the_verdicts(
    tmp_path, free_particle_json, monkeypatch, verdicts, code
):
    # a command returns its own fields; main puts the common frame first
    monkeypatch.setitem(cli._COMMANDS, "legendre", lambda prob, args: {"verdicts": verdicts})
    got, report, _ = run(tmp_path, "legendre", str(free_particle_json))
    assert got == code
    assert list(report) == [
        "schema_version", "command", "input", "input_digest", "grid", "tolerances", "verdicts"
    ]
    assert report["verdicts"] == verdicts


def _malformed(doc, case):
    if case == "boundary-without-xb":
        del doc["boundary"]["xb"]
    elif case == "n":
        doc["interval"]["n"] = "abc"
    elif case == "tol":
        doc["solver"] = {"tol": "x"}
    elif case == "count":
        doc["sampling"] = {"count": "many"}
    elif case == "count-zero":
        doc["sampling"] = {"count": 0}
    elif case == "count-negative":
        doc["sampling"] = {"count": -3}
    elif case == "seed-negative":
        doc["sampling"] = {"seed": -1}
    elif case == "audit":
        doc["tolerances"] = {"audit": "big"}
    elif case == "galilean-x":
        doc["generators"]["boost"] = "galilean-x"
    elif case in ("galilean2", "space-translation2"):
        doc["generators"]["g"] = case
    elif case == "solver-not-an-object":
        doc["solver"] = 5
    elif case == "weights":
        doc["space"]["weights"] = ["heavy"]
    elif case == "generator-not-an-object":
        doc["generators"]["g"] = 5
    elif case == "generator-x-not-a-list":
        doc["generators"]["g"] = {"T": "1", "X": "x1"}
    elif case == "generator-folds-outside-its-domain":
        doc["generators"]["g"] = {"T": "x1^(log(0-1))", "X": ["0"]}
    elif case == "integral-not-a-string":
        doc["integrals"]["momentum"] = [1]
    elif case == "integral-folds-outside-its-domain":
        doc["integrals"]["momentum"] = "v1^(log(0-1))"
    elif case == "tolerance-nan":
        doc["tolerances"] = {"legendre": float("nan")}
    elif case == "b-infinite":
        doc["interval"]["b"] = float("inf")
    elif case == "n-infinite":
        doc["interval"]["n"] = float("inf")
    elif case == "n-odd":
        doc["interval"]["n"] = 5
    elif case == "n-fraction":
        doc["interval"]["n"] = 40.9
    elif case == "n-string":
        doc["interval"]["n"] = "200"
    elif case == "dim-fraction":
        doc["space"]["dim"] = 1.7
        doc["interval"]["n"] = 40.9
    elif case == "seminorms-fraction":
        doc["space"]["seminorms"] = 1.5
    elif case == "boundary-nan":
        doc["boundary"]["xa"] = [float("nan")]
    elif case == "solver-tol-negative":
        doc["solver"] = {"tol": -1}
    elif case == "max-iter-zero":
        doc["solver"] = {"max_iter": 0}
    elif case == "radius-infinite":
        doc["sampling"] = {"x_radius": float("inf")}
    elif case == "unknown-tolerance":
        doc["tolerances"] = {"invariant": 1e-3}
    elif case == "unknown-solver-key":
        doc["solver"] = {"damping": 3.0}
    elif case == "unknown-sampling-key":
        doc["sampling"] = {"radius": 1.0}
    elif case == "not-an-object":
        doc = [doc]
    elif case.endswith("-pairs"):  # an object written as an array of [key, value]
        key = case.removesuffix("-pairs")
        doc[key] = [list(item) for item in doc.get(key, {"tol": 1e-9}).items()]
    elif case.endswith(("-true", "-false")):  # a JSON bool where a number goes
        section, key, value = case.split("-")
        flag = value == "true"
        doc.setdefault(section, {})[key] = [flag] if key in ("weights", "xa") else flag
    return doc


@pytest.mark.parametrize(
    "case,named",
    [
        ("boundary-without-xb", "'xb'"),
        ("n", "'n'"),
        ("tol", "'tol'"),
        ("count", "'count'"),
        ("count-zero", "'count'"),
        ("count-negative", "'count'"),
        ("seed-negative", "'seed'"),
        ("audit", "'audit'"),
        ("galilean-x", "'boost'"),
        ("galilean2", "generator 'g': unknown catalog generator 'galilean2'"),
        ("space-translation2", "generator 'g': unknown catalog generator 'space-translation2'"),
        ("solver-not-an-object", "'solver'"),
        ("weights", "'weights'"),
        ("generator-not-an-object", "generator 'g'"),
        ("generator-x-not-a-list", "generator 'g'"),
        ("generator-folds-outside-its-domain", "generator 'g': log of non-positive value -1.0"),
        ("integral-not-a-string", "integral 'momentum'"),
        ("integral-folds-outside-its-domain", "integral 'momentum': log of non-positive value"),
        ("tolerance-nan", "'legendre'"),
        ("b-infinite", "'b'"),
        ("n-infinite", "'n'"),
        ("n-odd", "interval n must be even"),
        ("n-fraction", "malformed value 40.9 for key 'n'"),
        ("n-string", "malformed value '200' for key 'n'"),
        ("dim-fraction", "malformed value 1.7 for key 'dim'"),
        ("seminorms-fraction", "malformed value 1.5 for key 'seminorms'"),
        ("boundary-nan", "'xa'"),
        ("solver-tol-negative", "'tol'"),
        ("max-iter-zero", "'max_iter'"),
        ("radius-infinite", "'x_radius'"),
        ("unknown-tolerance", "unknown key 'invariant' in 'tolerances'"),
        ("unknown-solver-key", "unknown key 'damping' in 'solver'"),
        ("unknown-sampling-key", "unknown key 'radius' in 'sampling'"),
        ("not-an-object", "a problem file is a JSON object"),
        ("space-pairs", "for key 'space'"),
        ("interval-pairs", "for key 'interval'"),
        ("boundary-pairs", "for key 'boundary'"),
        ("solver-pairs", "malformed value [['tol', 1e-09]] for key 'solver'"),
        ("generators-pairs", "for key 'generators'"),
        ("integrals-pairs", "for key 'integrals'"),
        ("space-dim-true", "malformed value True for key 'dim'"),
        ("space-seminorms-true", "malformed value True for key 'seminorms'"),
        ("space-weights-true", "malformed value [True] for key 'weights'"),
        ("interval-a-false", "malformed value False for key 'a'"),
        ("interval-b-true", "malformed value True for key 'b'"),
        ("boundary-xa-false", "malformed value [False] for key 'xa'"),
        ("solver-tol-true", "malformed value True for key 'tol'"),
        ("tolerances-legendre-true", "malformed value True for key 'legendre'"),
        ("sampling-count-true", "malformed value True for key 'count'"),
        ("sampling-seed-false", "malformed value False for key 'seed'"),
    ],
)
def test_malformed_problem_values_give_one_error_line(tmp_path, capsys, case, named):
    doc = _malformed(json.loads((PROBLEMS / "free_particle.json").read_text()), case)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["check-invariance", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(path) in lines[0] and named in lines[0]


AT_SAMPLE_1 = "failed at sample 1 (seed 0): non-finite field value at point 1 (t="


@pytest.mark.parametrize(
    ("argv", "what"),
    [
        (["check-invariance"], f"invariance check {AT_SAMPLE_1}"),
        (["noether", "--generator", "time"], f"invariance check {AT_SAMPLE_1}"),
        (["find-symmetries"], f"symmetry search {AT_SAMPLE_1}"),
        (["audit-diff"], "candidate derivative failed at base point 1 (["),
    ],
    ids=["check-invariance", "noether", "find-symmetries", "audit-diff"],
)
def test_non_finite_lagrangian_gives_one_error_line(tmp_path, capsys, argv, what):
    # exp(exp(10*x1)) overflows at the sampled points with x1 > 0.66; the
    # audit's base points are the first of them.  A row of a sample set is
    # named with the phase that drew the set and the set's seed
    doc = json.loads((PROBLEMS / "free_particle.json").read_text())
    doc["lagrangian"] = "v1^2/2 + exp(exp(10*x1))"
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    code = main([argv[0], str(path), *argv[1:], "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    # the line names the problem file and the command, as every input error does
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {path}: {argv[0]}: {what}")
    assert not list(tmp_path.glob("*_report.json"))


@pytest.mark.parametrize("command", ["check-invariance", "find-symmetries", "audit-diff"])
@pytest.mark.parametrize("exponent", ["0*1e400", "1e400", "-1e400"])
def test_an_exponent_that_folds_to_inf_or_nan_gives_one_error_line(
    tmp_path, capsys, command, exponent
):
    doc = json.loads((PROBLEMS / "free_particle.json").read_text())
    doc["lagrangian"] = f"v1^2/2 + x1^({exponent})"
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: {command}: ")


def test_jacobi_accepts_a_gyroscopic_term_that_varies_in_time(tmp_path):
    # L_vx = t at one off-diagonal entry, so no stencil derivative of it is
    # needed and no symmetry of it is assumed
    doc = {
        "space": {"dim": 2, "weights": [1.0, 1.0], "seminorms": 2},
        "interval": {"a": 0.0, "b": 1.0, "n": 100},
        "lagrangian": "(v1^2+v2^2)/2 + t*x1*v2",
        "boundary": {"xa": [0.0, 0.0], "xb": [1.0, 0.5]},
    }
    path = tmp_path / "gyroscopic.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run(tmp_path, "jacobi", str(path))
    assert code == 0
    assert len(report["eigenvalues"]) == 3


@pytest.mark.parametrize("src", ["v1^2/2*exp(1000*x1)", "v1^2/2 + x1^(0*1e400)"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["noether", "--generator", "time"],
        ["verify", "--integral", "energy"],
        ["legendre", "--seed-curve"],
        ["jacobi", "--seed-curve"],
    ],
    ids=["solve", "noether", "verify", "legendre", "jacobi"],
)
def test_lagrangian_that_is_not_finite_on_the_curve_gives_one_error_line(
    tmp_path, capsys, src, argv
):
    # the seed curve runs on the file's grid from x1 = 0.5 to 2.0, where
    # exp(1000*x1) overflows and x1^nan is NaN; no verdict is vacuous
    import warnings

    import noether_lcs as nl

    doc = json.loads((PROBLEMS / "oscillator.json").read_text())
    doc["lagrangian"] = src
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    space = nl.make_space(1, [1.0], 1)
    grid = nl.Grid(doc["interval"]["a"], doc["interval"]["b"], doc["interval"]["n"])
    seed = tmp_path / "seed.csv"
    nl.write_curve_csv(nl.Curve.from_function(space, grid, lambda t: [0.5 + 1.5 * t / grid.b]), seed)
    if argv[-1] == "--seed-curve":
        argv = argv + [str(seed)]
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([argv[0], str(path), *argv[1:], "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err and "Warning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: {argv[0]}: ")
    assert not list(out.glob("*_report.json"))


@pytest.mark.parametrize("command", ["solve", "legendre"])
def test_abs_at_zero_on_the_curve_gives_one_error_line(tmp_path, capsys, command):
    # x(a) = 0, so abs(x1) has no partials at the first node of the initial
    # curve; no verdict is made from a derivative that does not exist
    doc = json.loads((PROBLEMS / "free_particle.json").read_text())
    doc["lagrangian"] = "v1^2/2 + abs(x1)"
    path = tmp_path / "abs.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main([command, str(path), "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert lines == [
        f"error: {path}: {command}: abs not differentiable at 0 at point 0 (t=0.0, x=[0.], v=[1.])"
    ]
    assert not list(out.glob("*_report.json"))


def test_a_solver_error_names_the_file_and_the_command(tmp_path, capsys):
    # the kink at x1 = 0.3001 lies between nodes, so no jet raises there and
    # Newton stalls: the SolverError is one error line like any other
    doc = json.loads((PROBLEMS / "free_particle.json").read_text())
    doc["lagrangian"] = "v1^2/2 + abs(x1 - 0.3001)"
    path = tmp_path / "kink.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["solve", str(path), "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1
    assert lines[0].startswith(f"error: {path}: solve: line search stalled at residual ")
    assert not list(out.glob("*_report.json"))


def test_a_lagrangian_outside_its_domain_names_the_phase_the_seed_and_the_point(
    tmp_path, capsys
):
    # log(x1) at the first sample, x1 < 0: the same phase and seed an
    # overflow there is named with
    doc = json.loads((PROBLEMS / "free_particle.json").read_text())
    doc["lagrangian"] = "v1^2/2 + log(x1)"
    path = tmp_path / "log.json"
    path.write_text(json.dumps(doc))
    code = main(["check-invariance", str(path), "--out", str(tmp_path)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1
    assert lines[0].startswith(
        f"error: {path}: check-invariance: invariance check failed at sample 0 (seed 0): "
        "log of non-positive value -1.78434495258544"
    )
    assert "at point 0 (t=0.0991217798843752, x=[-1.78434495], v=" in lines[0]


def test_integral_that_is_not_finite_on_the_curve_gives_one_error_line(tmp_path, capsys):
    # exp(1000*x1) overflows where the oscillator's extremal passes x1 = 0.7098
    doc = json.loads((PROBLEMS / "oscillator.json").read_text())
    doc["integrals"]["blow-up"] = "exp(1000*x1)"
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["verify", str(path), "--integral", "blow-up", "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1
    assert lines[0].startswith(
        f"error: {path}: verify: first integral failed at node 101 (t=0.79325"
    )
    assert "non-finite field value at point 101" in lines[0]
    assert not list(out.glob("*_report.json"))


def test_numeric_problem_file_integral_is_a_constant(tmp_path):
    doc = json.loads((PROBLEMS / "free_particle.json").read_text())
    doc["integrals"]["five"] = 5
    path = tmp_path / "five.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run(tmp_path, "verify", str(path), "--integral", "five")
    assert code == 0
    assert report["conserved_mean"] == 5.0 and report["conserved_max_deviation"] == 0.0


@pytest.mark.parametrize(
    "text,where",
    [
        ("", "line 1: empty file, expected a CSV header"),
        ("t,x1\n", "no rows after the header"),
        ("t,x1\n0.0,0.0\n0.5,abc\n", "line 3: could not convert string to float: 'abc'"),
        ("t,x1\n0.0,0.0\n0.5\n1.0,1.0\n", "line 3: 1 cells, need t and 1 coordinates"),
    ],
    ids=["empty", "header-only", "not-a-number", "short-row"],
)
def test_malformed_seed_curve_gives_one_error_line(tmp_path, capsys, text, where):
    seed = tmp_path / "seed.csv"
    seed.write_text(text)
    code = main(["legendre", str(PROBLEMS / "free_particle.json"), "--seed-curve", str(seed),
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"error: {PROBLEMS / 'free_particle.json'}: legendre: {seed}: {where}"]
    assert not list(tmp_path.glob("*_report.json"))


@pytest.fixture(scope="module")
def coarse_oscillator_curve(tmp_path_factory):
    """The oscillator's extremal solved on 100 intervals, not the file's 200."""
    out = tmp_path_factory.mktemp("coarse")
    assert main(["solve", str(PROBLEMS / "oscillator.json"), "--grid-n", "100",
                 "--out", str(out)]) == 0
    return out / "extremal.csv"


@pytest.mark.parametrize(
    "argv",
    [
        ["legendre"],
        ["jacobi"],
        ["noether", "--generator", "time"],
        ["verify", "--integral", "energy"],
        ["solve"],
    ],
    ids=["legendre", "jacobi", "noether", "verify", "solve"],
)
def test_seed_curve_on_another_grid_is_an_error(
    tmp_path, capsys, coarse_oscillator_curve, argv
):
    code = main([argv[0], str(PROBLEMS / "oscillator.json"), *argv[1:],
                 "--seed-curve", str(coarse_oscillator_curve), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [
        f"error: {PROBLEMS / 'oscillator.json'}: {argv[0]}: seed curve does not match the grid: "
        "n=100 on [0.0, 1.5707963267948968], problem n=200 on [0.0, 1.5707963267948966]"
    ]
    assert not list(tmp_path.glob("*_report.json"))


def test_seed_curve_on_another_interval_is_an_error(tmp_path, capsys):
    doc = json.loads((PROBLEMS / "free_particle.json").read_text())
    doc["interval"]["b"] = 2.0
    longer = tmp_path / "longer.json"
    longer.write_text(json.dumps(doc))
    assert main(["solve", str(longer), "--out", str(tmp_path / "first")]) == 0
    capsys.readouterr()
    for command in ("legendre", "solve"):
        code = main([command, str(PROBLEMS / "free_particle.json"), "--seed-curve",
                     str(tmp_path / "first" / "extremal.csv"), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {PROBLEMS / 'free_particle.json'}: {command}: seed curve does not match "
            "the grid: n=200 on [0.0, 2.0], problem n=200 on [0.0, 1.0]"
        ]
