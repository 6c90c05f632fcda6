"""Command-line front end.

One structured problem file per run, given as the single positional argument;
of the file's settings, flags override only the grid (--grid-n).  Reports are
deterministic JSON (fixed key order, each float as Python's shortest
round-trip repr); curves travel as CSV with columns t, x1..xm (velocities
appended with --emit-velocity).

Each command returns only its own report fields, its ``verdicts`` among
them; ``main`` puts the common frame (schema, command, input, grid,
tolerances) in front, writes the report, and derives the exit code from the
verdicts.  Exit codes: 0 all verdicts passed (and after --help or
--version), 2 a mathematical verdict failed, 1 a usage, input, evaluation or
solver error, printed as one line ``error: <file>: <command>: <message>``.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .curves import Curve, _check_grid, action, read_curve_csv, write_curve_csv
from .euler_lagrange import SolverError, el_residual, meets_stopping_rule, solve_extremal
from .fields import EvaluationError, check_normal_differentiability
from .legendre_jacobi import (
    jacobi_eigen,
    jacobi_operators,
    legendre_check,
)
from .problem import ProblemFile, load_problem
from .spaces import Space, ValidationError
from .symmetry import (
    check_invariance,
    noether_first_integral,
    verify_conservation,
)

SCHEMA_VERSION = 1


def _format_value(obj):
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return ("inf" if obj > 0 else "-inf") if math.isinf(obj) else obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_format_value(z) for z in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _format_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_format_value(z) for z in obj]
    return obj


def canonical_json(report: dict) -> str:
    import json

    return json.dumps(_format_value(report), indent=2) + "\n"


def _base_report(command: str, prob: ProblemFile) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": str(prob.path),
        "input_digest": prob.digest,
        "grid": {"a": prob.grid.a, "b": prob.grid.b, "n": prob.grid.n},
        "tolerances": dict(sorted(prob.tolerances.items())),
    }


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seed_curve(prob: ProblemFile, args) -> Curve:
    curve = read_curve_csv(prob.space, args.seed_curve)
    _check_grid(curve.grid, prob.grid)
    return curve


def _load_curve(prob: ProblemFile, args) -> Curve:
    if args.seed_curve:
        return _seed_curve(prob, args)
    bc = prob.require_boundary()
    return solve_extremal(prob.lagrangian, bc, prob.grid, prob.space, prob.solver)


def cmd_solve(prob: ProblemFile, args):
    bc = prob.require_boundary()
    cfg = prob.solver
    if args.seed_curve:
        from dataclasses import replace

        cfg = replace(cfg, seed_curve=_seed_curve(prob, args))
    curve = solve_extremal(prob.lagrangian, bc, prob.grid, prob.space, cfg)
    res = el_residual(prob.lagrangian, curve)
    act = action(prob.lagrangian, curve)
    out = _outdir(args)
    csv_path = out / "extremal.csv"
    write_curve_csv(curve, csv_path, velocities=args.emit_velocity)
    return {
        "residual_max": res.max_norm,
        "action_value": act,
        "quadrature": "simpson",
        "outputs": {"extremal_csv": csv_path.name},
        "verdicts": {"converged": True},
    }


def cmd_legendre(prob: ProblemFile, args):
    curve = _load_curve(prob, args)
    rep = legendre_check(prob.lagrangian, curve, tol=prob.tolerances["legendre"])
    return {
        "min_eigenvalue": rep.global_min,
        "per_node_min": rep.min_eigenvalues,
        "violating_nodes": list(rep.violating_nodes),
        "verdicts": {"legendre": rep.passed},
    }


def cmd_jacobi(prob: ProblemFile, args):
    curve = _load_curve(prob, args)
    ops = jacobi_operators(prob.lagrangian, curve)
    pairs = jacobi_eigen(ops, prob.grid, k=args.k)
    out = _outdir(args)
    paths = []
    for idx, (_, fn) in enumerate(pairs, start=1):
        p = out / f"jacobi_mode_{idx}.csv"
        write_curve_csv(fn, p)
        paths.append(p.name)
    return {
        "k": args.k,
        "eigenvalues": [ev for ev, _ in pairs],
        "outputs": {"modes_csv": paths},
        "verdicts": {"computed": True},
    }


def _entry(table: dict, kind: str, name: str):
    """``table[name]``, the file's generator or integral (``kind``) called
    ``name``, or a ValidationError naming the ones the file defines."""
    if name not in table:
        raise ValidationError(f"unknown {kind} {name!r}; file defines {sorted(table)}")
    return table[name]


def cmd_check_invariance(prob: ProblemFile, args):
    verdicts = {}
    details = {}
    names = [args.generator] if args.generator else sorted(prob.generators)
    if not names:
        raise ValidationError("problem file defines no generators")
    for name in names:
        g = _entry(prob.generators, "generator", name)
        inv = check_invariance(
            prob.lagrangian, g, prob.sampling, tol=prob.tolerances["invariance"]
        )
        verdicts[name] = inv.passed
        details[name] = {"max_residual": inv.max_residual, "samples": prob.sampling.count}
    return {"generators": details, "verdicts": verdicts}


def cmd_noether(prob: ProblemFile, args):
    g = _entry(prob.generators, "generator", args.generator)
    inv = check_invariance(
        prob.lagrangian, g, prob.sampling, tol=prob.tolerances["invariance"]
    )
    integral = noether_first_integral(prob.lagrangian, g)
    curve = _load_curve(prob, args)
    res = el_residual(prob.lagrangian, curve)
    # a curve the solver returns always passes through its own stopping rule
    extremal = meets_stopping_rule(prob.lagrangian, curve, prob.solver.tol)
    cons = verify_conservation(integral, curve, tol=prob.tolerances["conservation"])
    return {
        "generator": args.generator,
        "invariance_max_residual": inv.max_residual,
        "extremal_residual_max": res.max_norm,
        "conserved_mean": cons.mean,
        "conserved_max_deviation": cons.max_deviation,
        "conserved_relative_deviation": cons.relative_deviation,
        "verdicts": {
            "invariance": inv.passed,
            "extremal": extremal,
            "conservation": cons.passed,
        },
    }


def cmd_verify(prob: ProblemFile, args):
    integral = _entry(prob.integrals, "integral", args.integral)
    curve = _load_curve(prob, args)
    cons = verify_conservation(integral, curve, tol=prob.tolerances["conservation"])
    return {
        "integral": args.integral,
        "conserved_mean": cons.mean,
        "conserved_max_deviation": cons.max_deviation,
        "conserved_relative_deviation": cons.relative_deviation,
        "verdicts": {"conservation": cons.passed},
    }


def cmd_find_symmetries(prob: ProblemFile, args):
    from .symmetry import find_affine_symmetries

    found = find_affine_symmetries(prob.lagrangian, prob.sampling)
    return {
        "count": len(found),
        "generators": [{"coefficients": g.coefficients} for g in found],
        "verdicts": {"searched": True},
    }


def cmd_audit_diff(prob: ProblemFile, args):
    m = prob.space.dim
    L = prob.lagrangian
    t_mid = 0.5 * (prob.grid.a + prob.grid.b)
    stacked = Space(
        dim=2 * m,
        weights=np.concatenate([prob.space.weights, prob.space.weights]),
        num_seminorms=2 * m,
    )
    scalar = Space(dim=1, weights=[1.0], num_seminorms=1)

    def g(z):
        return np.array([L(t_mid, z[:m], z[m:])])

    def deriv(z):
        jet = L.jet(t_mid, z[:m], z[m:], 1)
        return np.concatenate([jet["x"], jet["v"]]).reshape(1, 2 * m)

    ts, xs, vs = prob.sampling.samples(m)
    bases = [np.concatenate([xs[i], vs[i]]) for i in range(min(5, len(ts)))]
    audit = check_normal_differentiability(
        g, deriv, stacked, scalar, bases, tol=prob.tolerances["audit"]
    )
    return {
        "radii": audit.radii,
        "pairs": {
            f"s{s}_m{mm}": {
                "worst_ratios": audit.ratios[(s, mm)],
                "passed": audit.verdicts[(s, mm)],
            }
            for (s, mm) in sorted(audit.ratios)
        },
        "verdicts": {"differentiable": audit.passed},
    }


_COMMANDS = {
    "solve": cmd_solve,
    "legendre": cmd_legendre,
    "jacobi": cmd_jacobi,
    "check-invariance": cmd_check_invariance,
    "noether": cmd_noether,
    "verify": cmd_verify,
    "find-symmetries": cmd_find_symmetries,
    "audit-diff": cmd_audit_diff,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noether-lcs",
        description="Variational analysis driven by a structured problem file",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("problem", help="path to the JSON problem file")
        p.add_argument("--out", default=".", help="output directory for reports/CSV")
        p.add_argument("--grid-n", type=int, default=None, help="override interval count")
        if name in ("solve", "legendre", "jacobi", "noether", "verify"):  # read a curve
            p.add_argument("--seed-curve", default=None, help="CSV curve to start from / analyze")
        if name == "solve":
            p.add_argument("--emit-velocity", action="store_true")
        if name == "jacobi":
            p.add_argument("--k", type=int, default=3, help="number of eigenpairs")
        if name in ("check-invariance", "noether"):
            required = name == "noether"
            p.add_argument("--generator", required=required, default=None)
        if name == "verify":
            p.add_argument("--integral", required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as done:  # 0 after --help and --version, 2 on a usage error
        return 1 if done.code else 0
    started = time.perf_counter()
    try:
        prob = load_problem(args.problem, grid_n=args.grid_n)
        report = {**_base_report(args.command, prob), **_COMMANDS[args.command](prob, args)}
    except (ValidationError, SolverError, EvaluationError, OSError) as err:
        print(f"error: {args.problem}: {args.command}: {err}", file=sys.stderr)
        return 1
    out = _outdir(args)
    path = out / f"{args.command.replace('-', '_')}_report.json"
    text = canonical_json(report)
    path.write_text(text)
    sys.stdout.write(text)
    elapsed = time.perf_counter() - started
    print(f"[{args.command}] wall time {elapsed:.3f}s -> {path}", file=sys.stderr)
    return 0 if all(report["verdicts"].values()) else 2


if __name__ == "__main__":
    sys.exit(main())
