"""Variations of a curve: the references the commands' verdicts are tested
against.

``first_variation`` and ``second_variation`` are the first and second
derivatives of ``action`` along an endpoint-vanishing variation h, each by
Simpson quadrature of its integrand; a solved extremal makes the first vanish
to O(h^2) (criterion 2), and the second matches a difference of actions
(criterion 6).  ``negative_second_variation_witness`` turns a Legendre
violation into a spike variation with a negative second variation (criterion
5).  ``constant_operators`` builds the Jacobi operators of r h'.h' + p h.h,
whose spectrum is known (criterion 7), and ``unit_ball_vertices`` lists the
extreme points of a truncated unit ball, over which the operator seminorm is
a maximum.
"""

import itertools

import numpy as np

import noether_lcs as nl
from noether_lcs.curves import simpson


def first_variation(L, x, h) -> float:
    """Simpson quadrature of dL/dx . h + dL/dv . h' along the curve."""
    if x.grid != h.grid or x.space.dim != h.space.dim:
        raise nl.ValidationError("curve and variation must share grid and space")
    lx, lv = L.partial(("x", "v"), x.grid.nodes, x.values, nl.derivative_all(x))
    hd = nl.derivative_all(h)
    f = np.einsum("ni,ni->n", lx, h.values) + np.einsum("ni,ni->n", lv, hd)
    return simpson(f, x.grid)


def second_variation(L, x, h) -> float:
    """Simpson quadrature of h'.R h' + 2 h'.Q h + h.S h for an
    endpoint-vanishing h: the second derivative of ``action`` along h."""
    if x.grid != h.grid:
        raise nl.ValidationError("curve and variation must share the grid")
    scale = float(np.max(np.abs(h.values))) or 1.0
    if np.max(np.abs(h.values[[0, -1]])) > 1e-12 * scale:
        raise nl.ValidationError("variation must vanish at both endpoints")
    ops = nl.jacobi_operators(L, x)
    hd, hv = nl.derivative_all(h), h.values
    f = np.einsum("ni,nij,nj->n", hd, ops.R, hd) + 2.0 * np.einsum("ni,nij,nj->n", hd, ops.Q, hv)
    f += np.einsum("ni,nij,nj->n", hv, ops.S, hv)
    return simpson(f, x.grid)


def spike_variation(x, node: int, direction):
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
    return nl.Curve(x.space, grid, vals)


def negative_second_variation_witness(L, x, report):
    """A spike variation with negative second variation, and that second
    variation, from a strict Legendre violation."""
    if report.passed:
        raise nl.ValidationError("Legendre report shows no violation to witness")
    worst = int(np.argmin(report.min_eigenvalues))
    xd = nl.derivative_all(x)
    hess = L.second_partial("vv", x.grid.nodes[worst], x.values[worst], xd[worst])
    sym = 0.5 * (hess + hess.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    h = spike_variation(x, worst, direction=eigvecs[:, 0])
    return h, second_variation(L, x, h)


def constant_operators(grid, r: float, p: float, dim: int = 1):
    """Operators of the form r h'.h' + p h.h: R = rI, Q = 0 and S = pI."""
    eye = np.repeat(np.eye(dim)[None], grid.n + 1, axis=0)
    return nl.JacobiOperators(grid=grid, R=r * eye, Q=np.zeros_like(eye), S=p * eye)


def unit_ball_vertices(space, p: int):
    """Extreme points of the truncated p-unit ball; only complete when p >= dim."""
    space.check_index(p)
    k = min(p, space.dim)
    bounds = 1.0 / space.weights[:k]
    for signs in itertools.product((-1.0, 1.0), repeat=k):
        y = np.zeros(space.dim)
        y[:k] = np.array(signs) * bounds
        yield y
