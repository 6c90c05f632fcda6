"""The three benchmark workloads.

Each workload is a closed loop with one client: an operation starts only
after the previous one returned.  A workload yields, per pass, a fixed list
of operations; the problems behind them come from ``gen`` and the run seed
only.  Output checks run after the pass, outside the timed (and traced)
region.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SOLVER_TOL = 1e-10  # the package default, which the generated files keep


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def child_import_seconds(statement: str) -> float:
    """In-process time of ``statement`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        f"{statement}; print(repr(time.perf_counter() - t))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True,
        text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class Op:
    """One timed operation.  ``run`` returns what ``check`` verifies."""

    label: str
    dim: int
    run: Callable
    check: Callable


@dataclass
class Outcome:
    op: Op
    seconds: float
    index: int = 0  # the pass it belongs to
    probe_s: float = 0.0  # reference-kernel time around it (0: not probed)
    error: str = ""
    check_error: str = ""
    result: object = None

    @property
    def ok(self) -> bool:
        return not self.error and not self.check_error


@dataclass
class Workload:
    seed: int
    work: Path  # scratch directory inside the checkout

    def before_checks(self):
        pass

    def write(self, spec: gen.Spec, index: int) -> Path:
        path = self.work / f"{spec.family}-d{spec.dim}-n{spec.n}-s{spec.scale:g}-i{index}.json"
        path.write_text(spec.text())
        return path


@dataclass
class InProcess(Workload):
    """A workload that calls the package's functions in this process.

    Subclasses give the problems of a pass (``specs``), the operation's input
    built from a loaded problem (``inputs``), the operation (``run_one``) and
    its output check (``check_one``)."""

    _files: dict = field(default_factory=dict)

    def setup(self):
        self._files.clear()
        self.load(0)
        warm = self.warm_spec()
        self.run_one(warm, self.inputs(warm, self._load_problem(self.write(warm, -1))))

    @staticmethod
    def _load_problem(path):
        from noether_lcs.problem import load_problem

        return load_problem(path)

    def load(self, index: int):
        """Write, load and compile the problems of pass ``index``."""
        if index not in self._files:
            self._files[index] = [(s, self.write(s, index)) for s in self.specs(index)]
        return [(s, self.inputs(s, self._load_problem(p))) for s, p in self._files[index]]

    def inputs(self, spec, prob):
        return prob

    def ops(self, index: int):
        return [
            Op(label=self.label(spec), dim=spec.dim,
               run=functools.partial(self.run_one, spec, inp),
               check=functools.partial(self.check_one, spec, inp))
            for spec, inp in self.load(index)
        ]


# -- solve-ladder -------------------------------------------------------

# (family, dim, n, boundary scale).  The last rung multiplies the boundary
# values by 1e3: the residual's roundoff floor grows like eps*|x|/h^2, so the
# absolute 1e-10 Newton stop cannot be met there.  It fails at the seed
# commit on purpose, cheaply and on every seed.
LADDER = (
    ("oscillator", 1, 200, 1.0),
    ("oscillator", 1, 400, 1.0),
    ("oscillator", 3, 200, 1.0),
    ("oscillator", 3, 400, 1.0),
    ("anharmonic", 1, 200, 1.0),
    ("anharmonic", 1, 400, 1.0),
    ("anharmonic", 3, 200, 1.0),
    ("oscillator", 1, 200, 1e3),
)


class SolveLadder(InProcess):
    name = "solve-ladder"

    def specs(self, index: int):
        return [gen.make_spec(self.seed, f, d, n, index=index, scale=s) for f, d, n, s in LADDER]

    def warm_spec(self):
        return gen.make_spec(self.seed, "anharmonic", 1, 40)

    @staticmethod
    def label(spec) -> str:
        scale = "" if spec.scale == 1.0 else f".x{spec.scale:g}"
        return f"d{spec.dim}.n{spec.n}{scale}.{spec.family}"

    @staticmethod
    def run_one(spec, prob):
        from noether_lcs import solve_extremal

        curve = solve_extremal(prob.lagrangian, prob.boundary, prob.grid, prob.space, prob.solver)
        return SolveLadder.summarize(prob, curve)

    @staticmethod
    def summarize(prob, curve):
        from noether_lcs import action, el_residual

        return curve, el_residual(prob.lagrangian, curve), action(prob.lagrangian, curve)

    @staticmethod
    def check_one(spec, prob, result):
        from noether_lcs import legendre_check

        curve, res, _ = result
        checks.residual(res.max_norm, 10.0 * spec.dim * spec.amplitude * SOLVER_TOL)
        if spec.family == "oscillator":
            exact = [spec.exact(t) for t in prob.grid.nodes]
            checks.closed_form(curve.values, exact, prob.grid.h, spec.amplitude)
        else:
            rep = legendre_check(prob.lagrangian, curve)
            checks.legendre(rep.passed, rep.global_min)


# -- analyze ------------------------------------------------------------


def catalog_names(dim: int) -> list:
    names = ["time-translation", "dilation"]
    names += [f"space-translation-{j}" for j in range(1, dim + 1)]
    names += [f"galilean-{j}" for j in range(1, dim + 1)]
    names += [f"rotation-{i}{j}" for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    return names


def expected_verdicts(spec: gen.Spec) -> dict:
    """Strict invariance of the oscillator chain: time translation always;
    a rotation only between two oscillators with equal c and k."""
    out = {}
    for name in catalog_names(spec.dim):
        ok = name == "time-translation"
        if name.startswith("rotation-"):
            i, j = int(name[-2]) - 1, int(name[-1]) - 1
            ok = spec.c[i] == spec.c[j] and spec.k[i] == spec.k[j]
        out[name] = ok
    return out


def audit_lagrangian(prob):
    """The normal-differentiability audit of L on the stacked (x, v) space,
    as ``noether-lcs audit-diff`` sets it up."""
    import numpy as np
    from noether_lcs import check_normal_differentiability, make_space

    m = prob.space.dim
    L = prob.lagrangian
    t_mid = 0.5 * (prob.grid.a + prob.grid.b)
    stacked = make_space(dim=2 * m, weights=np.concatenate([prob.space.weights] * 2),
                         num_seminorms=2 * m)
    scalar = make_space(dim=1, weights=[1.0], num_seminorms=1)

    def g(z):
        return np.array([L(t_mid, z[:m], z[m:])])

    def deriv(z):
        row = np.concatenate([L.partial("x", t_mid, z[:m], z[m:]),
                              L.partial("v", t_mid, z[:m], z[m:])])
        return row.reshape(1, 2 * m)

    ts, xs, vs = prob.sampling.samples(m)
    bases = [np.concatenate([xs[i], vs[i]]) for i in range(min(5, len(ts)))]
    return check_normal_differentiability(g, deriv, stacked, scalar, bases,
                                          tol=prob.tolerances["audit"])


@dataclass
class Suite:
    legendre: object
    eigen: list
    verdicts: dict
    conservation: object
    found: int
    audit: object


@dataclass
class Bundle:
    """A loaded problem with its closed-form curve and catalog generators."""

    prob: object
    curve: object
    generators: dict


class Analyze(InProcess):
    name = "analyze"
    DIMS = (1, 3)
    N = 800

    def specs(self, index: int):
        return [gen.make_spec(self.seed, "oscillator", d, self.N, index=index) for d in self.DIMS]

    def warm_spec(self):
        return gen.make_spec(self.seed, "oscillator", 1, 40)

    @staticmethod
    def label(spec) -> str:
        return f"d{spec.dim}.n{spec.n}"

    def inputs(self, spec, prob) -> Bundle:
        from noether_lcs import Curve, catalog_generator

        return Bundle(prob, Curve.from_function(prob.space, prob.grid, spec.exact),
                      {name: catalog_generator(name, spec.dim) for name in catalog_names(spec.dim)})

    def ops(self, index: int):
        """One operation per step of the suite, so that no timed interval is
        longer than a second or two and the host probes around it are close
        to it in time (the whole d3 suite takes about 5 s)."""
        return [
            Op(label=f"{self.label(spec)}.{step}", dim=spec.dim,
               run=functools.partial(run, spec, b), check=functools.partial(check, spec, b))
            for spec, b in self.load(index) for step, (run, check) in ANALYSIS_STEPS.items()
        ]

    @staticmethod
    def run_one(spec, b: Bundle) -> Suite:
        return Suite(**{step: run(spec, b) for step, (run, _) in ANALYSIS_STEPS.items()})

    @staticmethod
    def check_one(spec, b: Bundle, suite: Suite):
        for step, (_, check) in ANALYSIS_STEPS.items():
            check(spec, b, getattr(suite, step))


def _legendre(spec, b: Bundle):
    from noether_lcs import legendre_check

    return legendre_check(b.prob.lagrangian, b.curve, tol=b.prob.tolerances["legendre"])


def _eigen(spec, b: Bundle) -> list:
    from noether_lcs import jacobi_eigen, jacobi_operators

    ops = jacobi_operators(b.prob.lagrangian, b.curve)
    return [ev for ev, _ in jacobi_eigen(ops, b.prob.grid, k=3)]


def _verdicts(spec, b: Bundle) -> dict:
    from noether_lcs import check_invariance

    tol = b.prob.tolerances["invariance"]
    return {name: check_invariance(b.prob.lagrangian, g, b.prob.sampling, tol=tol).passed
            for name, g in b.generators.items()}


def _conservation(spec, b: Bundle):
    from noether_lcs import noether_first_integral, verify_conservation

    integral = noether_first_integral(b.prob.lagrangian, b.generators["time-translation"])
    return verify_conservation(integral, b.curve, tol=b.prob.tolerances["conservation"])


def _found(spec, b: Bundle) -> int:
    from noether_lcs import find_affine_symmetries

    return len(find_affine_symmetries(b.prob.lagrangian, b.prob.sampling))


# Suite field -> (run, check), in the order the suite runs.
ANALYSIS_STEPS = {
    "legendre": (_legendre, lambda spec, b, r: checks.legendre(r.passed, r.global_min)),
    "eigen": (_eigen, lambda spec, b, r: checks.spectrum(r, spec.jacobi_spectrum(3))),
    "verdicts": (_verdicts, lambda spec, b, r: checks.verdicts(r, expected_verdicts(spec))),
    "conservation": (_conservation, lambda spec, b, r: checks.conservation(
        r.relative_deviation, 10.0 * b.prob.grid.h**2)),
    # affine symmetries: time translation plus one rotation per equal pair
    "found": (_found, lambda spec, b, r: checks.symmetry_count(
        r, sum(expected_verdicts(spec).values()))),
    "audit": (lambda spec, b: audit_lagrangian(b.prob), lambda spec, b, r: checks.audit(r.passed)),
}


# -- cli-cold -----------------------------------------------------------

# (problem key, command arguments, expected exit code).  The shipped
# free-particle file lists the Galilean boost, which fails the strict
# invariance test by design, and the generated file lists a translation and
# a rotation that the oscillator chain does not have: those two
# check-invariance calls exit 2.
CLI_OPS = (
    ("free_particle", ["solve"], 0),
    ("free_particle", ["check-invariance"], 2),
    ("free_particle", ["noether", "--generator", "shift"], 0),
    ("free_particle", ["audit-diff"], 0),
    ("oscillator", ["legendre"], 0),
    ("oscillator", ["jacobi"], 0),
    ("oscillator", ["verify", "--integral", "energy"], 0),
    ("oscillator", ["find-symmetries"], 0),
    ("generated", ["solve"], 0),
    ("generated", ["legendre"], 0),
    ("generated", ["jacobi"], 0),
    ("generated", ["check-invariance"], 2),
    ("generated", ["noether", "--generator", "time"], 0),
    ("generated", ["verify", "--integral", "energy"], 0),
    ("generated", ["find-symmetries"], 0),
    ("generated", ["audit-diff"], 0),
)
CLI_DIM = {"free_particle": 1, "oscillator": 1, "generated": 3}
SHIPPED = {key: ROOT / "problems" / f"{key}.json" for key in ("free_particle", "oscillator")}
WARM_OP = 1  # the operation each set-up runs once


def cli_argv(problem: Path, args: list, out: Path) -> list:
    return [args[0], str(problem)] + args[1:] + ["--out", str(out)]


def report_name(args: list) -> str:
    return f"{args[0].replace('-', '_')}_report.json"


class CliCold(Workload):
    name = "cli-cold"

    def setup(self):
        spec = gen.make_spec(self.seed, "oscillator", 3, 200)
        self.problems = dict(SHIPPED, generated=self.write(spec, 0))
        self.invoke(*CLI_OPS[WARM_OP][:2], self.work / "warm")

    def invoke(self, key, args, out: Path):
        cmd = [sys.executable, "-m", "noether_lcs.cli"] + cli_argv(self.problems[key], args, out)
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=170)
        report = out / report_name(args)
        return proc.returncode, report.read_bytes() if report.exists() else b"", proc.stderr

    def ops(self, index: int):
        out = []
        for i, (key, args, expected) in enumerate(CLI_OPS):
            out_dir = self.work / f"out-{index}-{i}"

            def run(key=key, args=args, out_dir=out_dir):
                code, report, err = self.invoke(key, args, out_dir)
                if code not in (0, 2):
                    raise RuntimeError(f"exit {code}: {err.strip()[-300:]}")
                return code, report

            out.append(Op(label=f"{key}.{args[0]}", dim=CLI_DIM[key], run=run,
                          check=functools.partial(self.check_one, i, expected)))
        return out

    def check_one(self, i, expected, result):
        code, report = result
        checks.exit_code(code, expected)
        checks.same_report(report, self.reference[i])

    def before_checks(self):
        """Run every operation once in this process, untimed; the reports of
        the timed subprocesses must match these byte for byte."""
        import contextlib
        import io

        from noether_lcs import cli

        self.reference = {}
        for i, (key, args, _) in enumerate(CLI_OPS):
            out_dir = self.work / f"ref-{i}"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(cli_argv(self.problems[key], args, out_dir))
            self.reference[i] = (out_dir / report_name(args)).read_bytes()


WORKLOADS = {w.name: w for w in (CliCold, SolveLadder, Analyze)}


def run_pass(workload, index: int, probe: Callable | None = None):
    """Time each operation of one pass; return the outcomes, unchecked.
    Inputs are built before the first operation starts.  With ``probe``,
    each operation also gets the mean of the probe times just before and
    just after it."""
    outcomes = []
    before = probe() if probe else 0.0
    for op in workload.ops(index):
        t0 = time.perf_counter()
        try:
            oc = Outcome(op, 0.0, index, result=op.run())
        except Exception as err:  # an operation that raises counts as failed
            oc = Outcome(op, 0.0, index, error=f"{type(err).__name__}: {err}")
        oc.seconds = time.perf_counter() - t0
        if probe:
            after = probe()
            oc.probe_s, before = 0.5 * (before + after), after
        outcomes.append(oc)
    return outcomes


def check_outcomes(outcomes) -> None:
    for oc in outcomes:
        if oc.error:
            continue
        try:
            oc.op.check(oc.result)
        except checks.CheckError as err:
            oc.check_error = str(err)
        oc.result = None
