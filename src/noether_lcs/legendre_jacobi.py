"""Second variation, Legendre condition audit, and the accessory (Jacobi)
eigenvalue problem along a candidate curve.

Both read one quadratic form, the second variation: the integral of
h'.R h' + 2 h'.Q h + h.S h, with R = L_vv, Q = L_vx (rows v, columns x) and
S = L_xx from one order-2 jet of L.  The accessory matrix is the form's cell
discretization, in band storage; its k smallest eigenpairs come from a block
subspace iteration on one banded Cholesky factor, at a cost linear in the
number of nodes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import _lapack
from .curves import Curve, Grid, _check_grid, band_matvec, block_band, derivative_all, simpson
from .euler_lagrange import SolverError
from .fields import ScalarField
from .spaces import Space, ValidationError

_EPS = np.finfo(float).eps
_BLOCK_EXTRA = 8  # Jacobi eigensolve block size: min(2k, k + _BLOCK_EXTRA)
_RESIDUAL_TOL = 64.0  # converged: each wanted |Aq - theta q| <= this eps max|A|
_MAX_SWEEPS = 100  # then the eigensolve raises SolverError
_SHIFT_TOL = 2.0**-30  # first shift below the Gershgorin bound, in units of max|A|


@dataclass(frozen=True)
class JacobiOperators:
    """Per-node Hessian blocks of L, the coefficients of the second variation."""

    grid: Grid
    R: np.ndarray  # (N+1, dim, dim), L_vv
    Q: np.ndarray  # (N+1, dim, dim), L_vx: rows v, columns x
    S: np.ndarray  # (N+1, dim, dim), L_xx


def jacobi_operators(L: ScalarField, x: Curve) -> JacobiOperators:
    grid = x.grid
    jet = L.jet(grid.nodes, x.values, derivative_all(x, 1), 2)
    return JacobiOperators(grid=grid, R=jet["vv"], Q=jet["vx"], S=jet["xx"])


def second_variation(L: ScalarField, x: Curve, h: Curve) -> float:
    """Simpson quadrature of h'.R h' + 2 h'.Q h + h.S h for an
    endpoint-vanishing h: the second derivative of ``action`` along h."""
    if x.grid != h.grid:
        raise ValidationError("curve and variation must share the grid")
    scale = float(np.max(np.abs(h.values))) or 1.0
    if np.max(np.abs(h.values[[0, -1]])) > 1e-12 * scale:
        raise ValidationError("variation must vanish at both endpoints")
    ops = jacobi_operators(L, x)
    hd, hv = derivative_all(h, 1), h.values
    f = np.einsum("ni,nij,nj->n", hd, ops.R, hd) + 2.0 * np.einsum("ni,nij,nj->n", hd, ops.Q, hv)
    f += np.einsum("ni,nij,nj->n", hv, ops.S, hv)
    return simpson(f, x.grid)


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


def spike_variation(x: Curve, node: int, direction) -> Curve:
    """Hat-function variation 4 grid cells wide centered near ``node``, along
    the vector ``direction``, normalized so sup|h| equals the grid spacing.

    This realizes the classical witness for a strict Legendre violation: the
    slope stays O(1) while the amplitude shrinks with the mesh, so the R-term
    dominates the second variation.
    """
    grid = x.grid
    center = int(np.clip(node, 2, grid.n - 2))
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


def _qr_step(lapack, size, p):
    """Q and R^-1 of (size, p) blocks a, overwritten, by the calls of ``lapack``
    = (geqrf, orgqr, trtrs) that ``scipy.linalg.qr(a, mode="economic")`` and
    ``solve_triangular(R, I)`` make, so with their bits; qr's work sizes
    depend on (size, p) alone, so they are queried once."""
    geqrf, orgqr, trtrs = lapack
    z, eye = np.zeros((size, p)), np.eye(p)
    lwork = int(geqrf(z, lwork=-1)[-2][0]), int(orgqr(z, z[0], lwork=-1)[-2][0])

    def qr(a):
        f, tau = geqrf(a, lwork=lwork[0], overwrite_a=1)[:2]
        # R = triu(f[:p]) is C-ordered, so solve_triangular hands trtrs R.T
        r_inv = trtrs(np.triu(f[:p]).T, eye, lower=1, trans=1)[0]
        return orgqr(f, tau, lwork=lwork[1], overwrite_a=1)[0], r_inv

    return qr


def _lowest_eigenpairs(ab, k) -> Tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenvalues, ascending, and unit eigenvectors (columns)
    of the symmetric band matrix ab (see ``block_band``): block subspace
    iteration with Rayleigh-Ritz on a banded Cholesky factor of A - sigma I
    (LAPACK pbtrf/pbtrs from ``_lapack``, and ``_qr_step``), from a seeded
    block of min(2k, k + 8) columns (Bathe), so equal eigenvalues get the same
    orthonormal basis of their eigenspace on every run.  sigma starts just
    below a Gershgorin bound and, until the lowest pair converges, each sweep
    moves it up to the lowest Ritz value less its residual, a lower bound of
    some eigenvalue.  "A - sigma I factors" (the Sturm test) certifies
    sigma < lambda_1, and a move that does not factor is halved, down to
    16 eps max|A|.  Each pair has |Aq - theta q| <= _RESIDUAL_TOL eps max|A|,
    checked with a product by A."""
    ab = np.asarray_chkfinite(ab)
    u, size = len(ab) // 2, ab.shape[1]
    scale = float(np.max(np.abs(ab))) or 1.0
    tol = _RESIDUAL_TOL * _EPS * scale
    pbtrf, pbtrs, *lapack = _lapack.routines("pbtrf", "pbtrs", "geqrf", "orgqr", "trtrs")
    band = np.array(ab[u:], order="F")  # A's lower band; each shift rewrites row 0

    def factor(sigma):  # lower band Cholesky factor of A - sigma I, or None
        band[0] = ab[u] - sigma
        chol, info = pbtrf(band, lower=1)
        return chol if info == 0 else None

    radius = np.sum(np.abs(ab), axis=0) - np.abs(ab[u])  # column c of ab is A's column c
    sigma = float(np.min(ab[u] - radius)) - _SHIFT_TOL * scale
    chol = factor(sigma)
    p = min(size, 2 * k, k + _BLOCK_EXTRA)
    qr = _qr_step(lapack, size, p)
    q = qr(np.random.default_rng(0).uniform(-1.0, 1.0, (size, p)))[0]
    for sweep in range(1, _MAX_SWEEPS + 1):
        v, r_inv = qr(pbtrs(chol, q, lower=1)[0])
        av = q @ r_inv  # (A - sigma I) v, with no product by A
        theta, y = np.linalg.eigh(v.T @ av)
        q = v @ y
        res = np.linalg.norm(av @ y[:, :k] - q[:, :k] * theta[:k], axis=0)
        worst = float(np.max(res))
        if worst <= tol:  # av is an estimate: confirm with a product by A
            lam = sigma + theta[:k]
            q_k = q[:, :k]
            worst = float(np.max(np.linalg.norm(band_matvec(ab, q_k) - q_k * lam, axis=0)))
            if worst <= tol:
                return lam, q_k
        # sigma stays once pair 1 has converged: nearer lambda_1 the others stall
        move = float(theta[0] - res[0]) if res[0] > tol else 0.0
        while move > tol / 4:
            trial = factor(sigma + move)
            if trial is not None:
                sigma, chol = sigma + move, trial
                break
            move /= 2
    raise SolverError(
        f"Jacobi eigensolve for k={k} did not converge in {sweep} sweeps "
        f"(worst Ritz residual {worst:.3e}, max|A| {scale:.3e})"
    )


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def jacobi_eigen(ops: JacobiOperators, grid: Grid, k: int) -> List[Tuple[float, Curve]]:
    """k smallest eigenpairs, with Dirichlet conditions, of the symmetric
    block-tridiagonal A (scalar half-bandwidth 2m - 1) for which u.A u is the
    second variation's cell discretization divided by h: each cell carries
    the averages of R and Q over its two nodes, the difference quotient and
    the mean of u; each node carries S.  So R and S enter through their
    symmetric parts, Q through its symmetric part on the diagonal and its
    skew part in the couplings.

    Eigenfunction curves are normalized to unit discrete L2 norm and signed
    so that the largest-magnitude value (the first within 1e-6 relative of
    it, so that near-ties do not flip with roundoff) is positive.  An
    eigensolve that does not converge raises SolverError.  ``grid``, which
    gives h, must be ops.grid up to the tolerance of a grid read from CSV.
    """
    _check_grid(ops.grid, grid, "operators' grid", "jacobi_eigen grid")
    n = grid.n
    m = ops.R.shape[1]
    size = (n - 1) * m
    if not 1 <= k <= size:
        raise ValidationError(f"k must be in 1..{size}, got {k}")
    h, h2 = grid.h, grid.h**2
    rbar = _sym(0.5 * (ops.R[1:] + ops.R[:-1]))  # per cell
    qbar = 0.5 * (ops.Q[1:] + ops.Q[:-1])
    qsym = _sym(qbar)
    diag = (rbar[:-1] + rbar[1:]) / h2 + _sym(ops.S[1:-1]) + (qsym[:-1] - qsym[1:]) / h
    coupling = -(rbar[1:-1] / h2) - (qbar - qsym)[1:-1] / h  # node i to node i + 1
    band = block_band({-1: np.swapaxes(coupling, 1, 2), 0: diag, 1: coupling})
    eigvals, eigvecs = _lowest_eigenpairs(band, k)
    space = Space(dim=m, weights=np.ones(m), num_seminorms=m)
    out = []
    for lam, vec in zip(eigvals, eigvecs.T):
        mag = np.abs(vec)
        sign = np.sign(vec[np.argmax(mag >= (1.0 - 1e-6) * np.max(mag))])
        vals = np.zeros((n + 1, m))
        vals[1:-1] = sign * vec.reshape(n - 1, m)
        vals /= np.sqrt(grid.h * float(np.sum(vals**2)))
        out.append((float(lam), Curve(space, grid, vals)))
    return out


def constant_operators(grid: Grid, r: float, p: float, dim: int = 1) -> JacobiOperators:
    """Operators of the form r h'.h' + p h.h: R = rI, Q = 0 and S = pI."""
    eye = np.repeat(np.eye(dim)[None], grid.n + 1, axis=0)
    return JacobiOperators(grid=grid, R=r * eye, Q=np.zeros_like(eye), S=p * eye)
