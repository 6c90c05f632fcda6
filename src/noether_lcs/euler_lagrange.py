"""First variation, pointwise Euler-Lagrange residual, and a Newton
collocation solver for two-point boundary value extremals.

The residual at interior node i is dL/dx(t_i, x_i, x'_i) minus the stencil
time derivative of the momentum covector dL/dv along the curve; the solver
drives the stacked interior residual to zero with a damped Newton iteration
whose Jacobian is assembled exactly from the second-partial blocks of L.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _lapack
from .curves import (Curve, Grid, _check_grid, band_matvec, block_band, derivative_all,
                     simpson, stencil_derivative)
from .fields import EvaluationError, ScalarField
from .spaces import Space, ValidationError, dual_seminorm

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class BoundaryConditions:
    xa: np.ndarray
    xb: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xa", np.atleast_1d(np.asarray(self.xa, dtype=float)))
        object.__setattr__(self, "xb", np.atleast_1d(np.asarray(self.xb, dtype=float)))
        if not (np.all(np.isfinite(self.xa)) and np.all(np.isfinite(self.xb))):
            raise ValidationError("boundary values must be finite")


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iter: int = 50
    seed_curve: Optional[Curve] = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValidationError("solver tolerance must be positive")
        if self.max_iter < 1:
            raise ValidationError("need at least one Newton iteration")


class SolverError(RuntimeError):
    def __init__(self, message: str, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history or []


def _covectors(L: ScalarField, grid: Grid, xs: np.ndarray):
    """Node velocities of the node array xs, and the covectors dL/dx and
    dL/dv at every node, both read from one order-1 jet."""
    xd = stencil_derivative(xs, grid.h, 1)
    return (xd, *L.partial(("x", "v"), grid.nodes, xs, xd))


def _residual(grid: Grid, lx: np.ndarray, lv: np.ndarray) -> np.ndarray:
    """The Euler-Lagrange residual dL/dx - d/dt dL/dv at the interior nodes,
    with the momentum derivative by the central stencil."""
    return lx[1:-1] - (lv[2:] - lv[:-2]) / (2.0 * grid.h)


def first_variation(L: ScalarField, x: Curve, h: Curve) -> float:
    """Simpson quadrature of dL/dx . h + dL/dv . h' along the curve."""
    if x.grid != h.grid or x.space.dim != h.space.dim:
        raise ValidationError("curve and variation must share grid and space")
    _, lx, lv = _covectors(L, x.grid, x.values)
    hd = derivative_all(h, 1)
    f = np.einsum("ni,ni->n", lx, h.values) + np.einsum("ni,ni->n", lv, hd)
    return simpson(f, x.grid)


@dataclass(frozen=True)
class ELResidual:
    """Per-interior-node residual covectors and their dual-seminorm summary."""

    residuals: np.ndarray  # (N-1, dim)
    max_norm: float


def el_residual(L: ScalarField, x: Curve) -> ELResidual:
    """Pointwise Euler-Lagrange residual dL/dx - d/dt dL/dv at interior nodes.

    The time derivative of the momentum uses the same central stencils as the
    curve derivative reconstruction; the summary norm is the max over nodes of
    the dual seminorm at the strongest index.
    """
    _, lx, lv = _covectors(L, x.grid, x.values)
    res = _residual(x.grid, lx, lv)
    return ELResidual(
        residuals=res,
        max_norm=float(np.max(dual_seminorm(x.space, x.space.num_seminorms, res))),
    )


def _interior_jacobian(L, grid, xs, xd):
    """Exact Jacobian of the stacked residual with respect to the interior
    nodes, in band storage (see ``block_band``), from one order-2 jet.  It is
    block-pentadiagonal, scalar half-bandwidth 3m - 1: row i reads x_i's jet
    directly and, through the momentum stencil, the jets at nodes i -+ 1,
    whose velocity stencils reach nodes i -+ 2 (one-sided at the endpoints,
    weights -3, 4, -1)."""
    lxx, lxv, lvv = L.second_partial(("xx", "xv", "vv"), grid.nodes, xs, xd)
    lvx = np.swapaxes(lxv, 1, 2)  # dp_j/dx_j for the momentum p_j = dL/dv
    c = 1.0 / (2.0 * grid.h)
    q = c * c
    diag = lxx[1:-1] + q * (lvv[2:] + lvv[:-2])
    up = c * (lxv[1:-2] - lvx[2:-1])
    down = c * (lvx[1:-2] - lxv[2:-1])
    # the endpoint momenta p_0 and p_n read x_1 and x_{n-1} with weight 4c
    # (not c) and x_2 and x_{n-2} with weight -c (not 0)
    diag[0] += 3.0 * q * lvv[0]
    diag[-1] += 3.0 * q * lvv[-1]
    up[0] -= q * lvv[0]
    down[-1] -= q * lvv[-1]
    far = -q * lvv[2:-2]  # x_{i -+ 2} through the momentum at i -+ 1
    return block_band({-2: far, -1: down, 0: diag, 1: up, 2: far})


def _solve_band(ab, res):
    """The full Newton step -J^{-1} res for the Jacobian J in band storage
    ab, by one banded LU solve, LAPACK gbsv (from ``_lapack``) as
    ``scipy.linalg.solve_banded`` calls it; None when J is singular."""
    u = len(ab) // 2
    lu = np.zeros((3 * u + 1, ab.shape[1]), order="F")  # u fill rows above ab
    lu[u:] = ab
    (gbsv,) = _lapack.routines("gbsv")
    step, info = gbsv(u, u, lu, -res.reshape(-1), overwrite_ab=1, overwrite_b=1)[2:]
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gbsv")
    return None if info else step.reshape(res.shape)


# the stall rule: an interior residual row at most this many eps times the
# size of the terms that form it is at its roundoff floor
_FLOOR = 32.0


def _floor_ratios(grid, xs, lx, lv, res, abs_ab) -> np.ndarray:
    """|r_i| / (eps s_i) per interior row, a componentwise backward error:
    s_i = (|J| |x|)_i + |L_x,i| + (|p_{i+1}| + |p_{i-1}|) / (2h), with |J| the
    absolute Newton Jacobian in band storage abs_ab and p = dL/dv; the three
    terms bound the change of r_i when x, L_x and p are each rounded."""
    jx = band_matvec(abs_ab, np.abs(xs[1:-1]).reshape(-1)).reshape(res.shape)
    s = jx + np.abs(lx[1:-1]) + (np.abs(lv[2:]) + np.abs(lv[:-2])) / (2.0 * grid.h)
    # s_i = 0 only where L_x,i and both momenta are 0, and then r_i = 0
    return np.divide(np.abs(res), _EPS * s, out=np.zeros(res.shape), where=res != 0.0)


def meets_stopping_rule(L: ScalarField, x: Curve, tol: float) -> bool:
    """Whether ``solve_extremal`` with tolerance ``tol`` stops at the curve
    x: its residual max-norm is at most ``tol``, or every interior residual
    row has |r_i| <= 32 eps s_i (see ``_floor_ratios``), its roundoff floor.
    It reads one order-1 and, past ``tol``, one order-2 jet of L, and makes
    no linear solve."""
    xd, lx, lv = _covectors(L, x.grid, x.values)
    res = _residual(x.grid, lx, lv)
    if float(np.max(np.abs(res))) <= tol:
        return True
    ab = _interior_jacobian(L, x.grid, x.values, xd)
    return bool(np.max(_floor_ratios(x.grid, x.values, lx, lv, res, np.abs(ab))) <= _FLOOR)


def _line_search(L, grid, xs, step, abs_ab, worst):
    """The first trial xs + 2^-k step, k = 0, 1, ..., 29, whose
    largest |r_i| / (eps s_i) (see ``_floor_ratios``; its own s, with the
    iterate's |J| abs_ab) is below ``worst``, the iterate's, with its
    velocities, covectors and residual; None when no trial is.  It stops at
    the first trial that rounds to xs: rounding is monotone, so every smaller
    step rounds to xs too, and each such trial has xs's own ratios.  A trial
    where a jet read fails, not finite or outside L's domain (an
    EvaluationError), is refused like one with larger ratios."""
    for k in range(30):
        trial = xs.copy()
        trial[1:-1] += 0.5**k * step
        if np.array_equal(trial, xs):
            return None
        try:
            xd, lx, lv = _covectors(L, grid, trial)
        except EvaluationError:  # L or a partial fails there: refused
            continue
        res = _residual(grid, lx, lv)
        if float(np.max(_floor_ratios(grid, trial, lx, lv, res, abs_ab))) < worst:
            return trial, xd, lx, lv, res
    return None


def solve_extremal(
    L: ScalarField,
    bc: BoundaryConditions,
    grid: Grid,
    space: Space,
    cfg: SolverConfig = SolverConfig(),
) -> Curve:
    """Damped Newton iteration on the discretized Euler-Lagrange system, its
    line search judged by the componentwise backward error (see
    ``_floor_ratios``).  It stops at residual max-norm ``cfg.tol``, or where
    the line search stalls with every row at its roundoff floor (see
    ``meets_stopping_rule``; the floor grows like eps |x| / h^2).  Each
    residual is one order-1 jet of L and each Jacobian one order-2 jet."""
    if grid.n % 2 != 0:
        raise ValidationError(f"grid N must be even, got {grid.n}")
    m = space.dim
    if bc.xa.shape != (m,) or bc.xb.shape != (m,):
        raise ValidationError("boundary values do not match the space dimension")

    if cfg.seed_curve is not None:
        _check_grid(cfg.seed_curve.grid, grid)
        xs = cfg.seed_curve.values.copy()
        if xs.shape != (grid.n + 1, m):
            raise ValidationError("seed curve does not match the grid")
    else:
        frac = np.linspace(0.0, 1.0, grid.n + 1)[:, None]
        xs = bc.xa[None, :] * (1.0 - frac) + bc.xb[None, :] * frac
    xs[0] = bc.xa
    xs[-1] = bc.xb

    history = []
    xd, lx, lv = _covectors(L, grid, xs)
    res = _residual(grid, lx, lv)
    for _ in range(cfg.max_iter):
        norm = float(np.max(np.abs(res)))
        history.append(norm)
        if norm <= cfg.tol:
            return Curve(space, grid, xs)
        ab = _interior_jacobian(L, grid, xs, xd)
        step = _solve_band(ab, res)
        if step is None:
            worst = int(np.argmax(np.max(np.abs(res), axis=1))) + 1
            raise SolverError(
                f"singular Newton Jacobian near node {worst} "
                f"(t={grid.nodes[worst]:.6g}); the velocity Hessian of the "
                "Lagrangian may fail the Legendre condition there",
                history,
            )
        # backtracking on the largest componentwise backward error (|J| taken
        # once per iterate); the accepted trial's reads carry into the next one
        ratios = np.max(_floor_ratios(grid, xs, lx, lv, res, abs_ab := np.abs(ab)), axis=1)
        accepted = _line_search(L, grid, xs, step, abs_ab, float(np.max(ratios)))
        if accepted is None:
            if np.max(ratios) <= _FLOOR:
                return Curve(space, grid, xs)
            worst = int(np.argmax(ratios)) + 1
            raise SolverError(
                f"line search stalled at residual {norm:.3e}; worst at node "
                f"{worst} (t={grid.nodes[worst]:.6g}), |r_i|/(eps s_i) = "
                f"{ratios[worst - 1]:.3g}, above the roundoff floor {_FLOOR:g}",
                history,
            )
        xs, xd, lx, lv, res = accepted
    norm = float(np.max(np.abs(res)))
    if norm <= cfg.tol:
        return Curve(space, grid, xs)
    raise SolverError(
        f"Newton did not converge in {cfg.max_iter} iterations "
        f"(residual {norm:.3e}); history {['%.3e' % r for r in history]}",
        history,
    )
