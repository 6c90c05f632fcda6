"""Output checks.  Each raises ``CheckError`` when the program's output is
wrong; a passing check returns nothing."""

from __future__ import annotations

import math


class CheckError(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def closed_form(values, exact_values, h: float, amplitude: float, const: float = 2.0) -> None:
    """Max nodal error against the closed form is at most const * amplitude * h^2."""
    err = max(abs(a - b) for row, ref in zip(values, exact_values) for a, b in zip(row, ref))
    bound = const * amplitude * h * h
    _require(err <= bound, f"max error {err:.3e} against the closed form exceeds {bound:.3e}")


def residual(max_norm: float, bound: float) -> None:
    _require(math.isfinite(max_norm) and max_norm <= bound,
             f"Euler-Lagrange residual {max_norm:.3e} exceeds {bound:.3e}")


def legendre(passed: bool, global_min: float) -> None:
    _require(passed, f"Legendre check failed (min eigenvalue {global_min:.3e})")


def spectrum(eigenvalues, expected, rtol: float = 1e-8) -> None:
    _require(len(eigenvalues) == len(expected),
             f"{len(eigenvalues)} eigenvalues returned, {len(expected)} expected")
    scale = max(abs(e) for e in expected)
    for got, want in zip(eigenvalues, expected):
        _require(abs(got - want) <= rtol * scale,
                 f"Jacobi eigenvalue {got!r} != exact {want!r}")


def verdicts(got: dict, expected: dict) -> None:
    _require(got == expected, f"invariance verdicts {got} != expected {expected}")


def symmetry_count(found: int, expected: int) -> None:
    _require(found == expected, f"found {found} affine symmetries, expected {expected}")


def conservation(relative_deviation: float, bound: float) -> None:
    _require(relative_deviation <= bound,
             f"first integral drifts by {relative_deviation:.3e} (bound {bound:.3e})")


def audit(passed: bool) -> None:
    _require(passed, "normal-differentiability audit failed on a smooth Lagrangian")


def exit_code(code: int, expected: int) -> None:
    _require(code == expected, f"exit code {code}, expected {expected}")


def same_report(got: bytes, reference: bytes) -> None:
    _require(got == reference, "report differs from the reference run")
