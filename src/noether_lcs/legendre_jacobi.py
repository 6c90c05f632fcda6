"""Second variation, Legendre condition audit, and the Sturm-Liouville form
of the accessory (Jacobi) eigenvalue problem along a candidate curve.

The coefficient operators along the curve are R(t) = d2L/dvdv and
P(t) = d2L/dxdx - d/dt d2L/dvdx, with the time derivative taken by the same
stencils used for curve reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import eigh

from .curves import Curve, Grid, derivative_all, stencil_derivative
from .fields import ScalarField
from .spaces import Space, ValidationError


@dataclass(frozen=True)
class JacobiOperators:
    """Per-node coefficient matrices of the accessory problem."""

    grid: Grid
    R: np.ndarray  # (N+1, dim, dim)
    P: np.ndarray  # (N+1, dim, dim)


def jacobi_operators(L: ScalarField, x: Curve) -> JacobiOperators:
    grid = x.grid
    jet = L.jet(grid.nodes, x.values, derivative_all(x, 1), 2)
    P = jet["xx"] - stencil_derivative(jet["vx"], grid.h, 1)
    return JacobiOperators(grid=grid, R=jet["vv"], P=P)


def second_variation(L: ScalarField, x: Curve, h: Curve) -> float:
    """Simpson quadrature of R h'.h' + P h.h for an endpoint-vanishing h."""
    if x.grid != h.grid:
        raise ValidationError("curve and variation must share the grid")
    scale = float(np.max(np.abs(h.values))) or 1.0
    if np.max(np.abs(h.values[[0, -1]])) > 1e-12 * scale:
        raise ValidationError("variation must vanish at both endpoints")
    ops = jacobi_operators(L, x)
    hd = derivative_all(h, 1)
    f = np.einsum("ni,nij,nj->n", hd, ops.R, hd) + np.einsum(
        "ni,nij,nj->n", h.values, ops.P, h.values
    )
    return float(simpson(f, dx=x.grid.h))


@dataclass(frozen=True)
class LegendreReport:
    """Smallest eigenvalue of the symmetrized velocity Hessian per node."""

    min_eigenvalues: np.ndarray  # (N+1,)
    tol: float
    violating_nodes: tuple

    @property
    def passed(self) -> bool:
        return len(self.violating_nodes) == 0

    @property
    def global_min(self) -> float:
        return float(np.min(self.min_eigenvalues))


def legendre_check(L: ScalarField, x: Curve, tol: float = 1e-10) -> LegendreReport:
    """Positive semidefiniteness of the symmetrized vv-Hessian at every node."""
    hess = L.second_partial("vv", x.grid.nodes, x.values, derivative_all(x, 1))
    sym = 0.5 * (hess + np.swapaxes(hess, 1, 2))
    mins = np.min(np.linalg.eigvalsh(sym), axis=1)
    bad = tuple(int(i) for i in np.flatnonzero(mins < -tol))
    return LegendreReport(min_eigenvalues=mins, tol=tol, violating_nodes=bad)


def spike_variation(x: Curve, node: int, direction=None) -> Curve:
    """Hat-function variation 4 grid cells wide centered near ``node``,
    normalized so sup|h| equals the grid spacing.

    This realizes the classical witness for a strict Legendre violation: the
    slope stays O(1) while the amplitude shrinks with the mesh, so the R-term
    dominates the second variation.
    """
    grid = x.grid
    m = x.space.dim
    center = int(np.clip(node, 2, grid.n - 2))
    if direction is None:
        direction = np.zeros(m)
        direction[0] = 1.0
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.max(np.abs(direction))
    prof = np.zeros(grid.n + 1)
    prof[center - 2 : center + 3] = [0.0, 0.5, 1.0, 0.5, 0.0]
    vals = grid.h * prof[:, None] * direction[None, :]
    return Curve(x.space, grid, vals)


def negative_second_variation_witness(
    L: ScalarField, x: Curve, report: LegendreReport
) -> Tuple[Curve, float]:
    """Construct a spike variation with negative second variation from a
    strict Legendre violation."""
    if report.passed:
        raise ValidationError("Legendre report shows no violation to witness")
    worst = int(np.argmin(report.min_eigenvalues))
    xd = derivative_all(x, 1)
    hess = L.second_partial("vv", x.grid.nodes[worst], x.values[worst], xd[worst])
    sym = 0.5 * (hess + hess.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    h = spike_variation(x, worst, direction=eigvecs[:, 0])
    return h, second_variation(L, x, h)


def jacobi_eigen(
    ops: JacobiOperators, grid: Grid, k: int, symmetry_tol: float = 1e-6
) -> List[Tuple[float, Curve]]:
    """k smallest eigenpairs of -d/dt(R h') + P h = lambda h with Dirichlet
    conditions, by the three-point conservative stencil.

    Eigenfunction curves are normalized to unit discrete L2 norm.
    """
    n = grid.n
    m = ops.R.shape[1]
    size = (n - 1) * m
    if not 1 <= k <= size:
        raise ValidationError(f"k must be in 1..{size}, got {k}")
    h = grid.h
    A = np.zeros((n - 1, m, n - 1, m))
    for i in range(1, n):
        r_minus = 0.5 * (ops.R[i] + ops.R[i - 1])
        r_plus = 0.5 * (ops.R[i] + ops.R[i + 1])
        A[i - 1, :, i - 1, :] += (r_minus + r_plus) / h**2 + ops.P[i]
        if i - 1 >= 1:
            A[i - 1, :, i - 2, :] -= r_minus / h**2
        if i + 1 <= n - 1:
            A[i - 1, :, i, :] -= r_plus / h**2
    A = A.reshape(size, size)
    asym = float(np.max(np.abs(A - A.T)))
    scale = float(np.max(np.abs(A))) or 1.0
    if asym > symmetry_tol * scale:
        raise ValidationError(
            f"assembled accessory matrix is not symmetric (deviation {asym:.3e}); "
            "the Lagrangian does not look twice continuously differentiable"
        )
    A = 0.5 * (A + A.T)
    eigvals, eigvecs = eigh(A, subset_by_index=(0, k - 1))
    space = Space(dim=m, weights=np.ones(m), num_seminorms=m)
    out = []
    for idx in range(k):
        vec = eigvecs[:, idx].reshape(n - 1, m)
        vals = np.zeros((n + 1, m))
        vals[1:-1] = vec
        norm = np.sqrt(h * float(np.sum(vals**2)))
        vals /= norm
        out.append((float(eigvals[idx]), Curve(space, grid, vals)))
    return out


def constant_operators(grid: Grid, r: float, p: float, dim: int = 1) -> JacobiOperators:
    """Convenience constructor for constant scalar R and P coefficients."""
    eye = np.eye(dim)
    R = np.repeat(r * eye[None], grid.n + 1, axis=0)
    P = np.repeat(p * eye[None], grid.n + 1, axis=0)
    return JacobiOperators(grid=grid, R=R, P=P)
