"""Discretized curves on a uniform grid with stencil derivative reconstruction.

First and second derivatives use second-order central stencils at interior
nodes and second-order one-sided stencils at the endpoints, so polynomial
curves of degree <= 2 are reconstructed exactly at interior nodes.  ``simpson``
is the one quadrature rule: the action and the first and second variations
all integrate with it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import ScalarField, EvaluationError
from .spaces import Space, ValidationError, seminorm


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [a, b] with N intervals."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.a < self.b:
            raise ValidationError(f"need a < b, got [{self.a}, {self.b}]")
        if self.n < 4:
            raise ValidationError(f"need N >= 4 intervals, got {self.n}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.n + 1)


@dataclass(frozen=True)
class Curve:
    """Node values of a curve [a, b] -> Space; the curve keeps a read-only
    copy of the values it is given."""

    space: Space
    grid: Grid
    values: np.ndarray  # (N+1, dim)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.n + 1, self.space.dim):
            raise ValidationError(
                f"curve values shape {vals.shape} != "
                f"({self.grid.n + 1}, {self.space.dim})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("curve has non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_function(space: Space, grid: Grid, f: Callable) -> "Curve":
        vals = np.array([np.atleast_1d(np.asarray(f(t), dtype=float)) for t in grid.nodes])
        return Curve(space, grid, vals)


def stencil_derivative(values: np.ndarray, h: float, order: int) -> np.ndarray:
    """Nodewise derivative of a sampled sequence (works on vectors and matrices
    stacked along axis 0)."""
    v = np.asarray(values, dtype=float)
    d = np.empty_like(v)
    if order == 1:
        d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    elif order == 2:
        d[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
        d[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
        d[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    else:
        raise ValidationError(f"derivative order must be 1 or 2, got {order}")
    return d


def block_band(diagonals: dict) -> np.ndarray:
    """LAPACK band storage ab[u + r - c, c] = A[r, c] of a square matrix of
    m x m blocks, read by gbsv below u fill rows, as in the Newton step and
    ``scipy.linalg.solve_banded((u, u), ab, b)``.  ``diagonals[d]`` stacks
    the blocks of block diagonal d in order (block row I holds one at block
    column I + d); the scalar half-bandwidth is
    u = (max |d| + 1) m - 1 = (len(ab) - 1) / 2."""
    nb, m = len(diagonals[0]), diagonals[0].shape[1]
    u = (max(abs(d) for d in diagonals) + 1) * m - 1
    ab = np.zeros((2 * u + 1, nb * m))
    a = np.arange(m)
    rows = u + a[:, None] - a[None, :]
    for d, blocks in diagonals.items():
        cols = (m * np.arange(max(d, 0), nb + min(d, 0)))[:, None, None] + a
        ab[rows - d * m, cols] = blocks
    return ab


def band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for the square matrix A in band storage ab (see ``block_band``),
    x a vector or an (N, k) stack of columns; the diagonal first, then each
    pair of off-diagonals d = 1..u, the upper one before the lower.  A stack
    is multiplied one contiguous column at a time, so each column has the
    bits of the vector's product."""
    if x.ndim == 2:
        return np.array([band_matvec(ab, col) for col in np.ascontiguousarray(x.T)]).T
    u = len(ab) // 2
    y = ab[u] * x
    for d in range(1, u + 1):
        y[:-d] += ab[u - d, d:] * x[d:]
        y[d:] += ab[u + d, :-d] * x[:-d]
    return y


def derivative(curve: Curve, i: int, order: int) -> np.ndarray:
    """Reconstructed derivative of the given order at node i."""
    if not 0 <= i <= curve.grid.n:
        raise ValidationError(f"node index {i} out of range 0..{curve.grid.n}")
    return stencil_derivative(curve.values, curve.grid.h, order)[i]


def derivative_all(curve: Curve, order: int) -> np.ndarray:
    return stencil_derivative(curve.values, curve.grid.h, order)


def curve_seminorm_c1(curve: Curve, p: int) -> float:
    """sup |x(t)|_p + sup |x'(t)|_p, with sups taken over the grid nodes."""
    sup_x = np.max(seminorm(curve.space, p, curve.values))
    sup_v = np.max(seminorm(curve.space, p, derivative_all(curve, 1)))
    return float(sup_x + sup_v)


def curve_seminorm_c2(curve: Curve, p: int) -> float:
    """C1 seminorm plus the sup of the reconstructed second derivative."""
    acc = curve_seminorm_c1(curve, p)
    sup_a = np.max(seminorm(curve.space, p, derivative_all(curve, 2)))
    return float(acc + sup_a)


def simpson(f: np.ndarray, grid: Grid) -> float:
    """Composite Simpson quadrature over the grid of the node values f,
    which needs an even N."""
    from scipy.integrate import simpson as scipy_simpson

    if grid.n % 2 != 0:
        raise ValidationError(f"Simpson quadrature needs an even N, got {grid.n}")
    return float(scipy_simpson(f, dx=grid.h))


def along(f: ScalarField, curve: Curve, phase: str):
    """f(t, x, x') at every node of the curve in one call on the stack; an
    EvaluationError there is re-raised, its type, rows and index kept,
    naming the phase and the node."""
    grid = curve.grid
    try:
        return f(grid.nodes, curve.values, derivative_all(curve, 1))
    except EvaluationError as err:
        i = err.index
        raise err.prefixed(f"{phase} failed at node {i} (t={grid.nodes[i]}): ")


def action(L: ScalarField, curve: Curve) -> float:
    """Simpson quadrature of L(t, x, x') along the curve."""
    return simpson(along(L, curve, "integrand"), curve.grid)


# -- CSV interchange ----------------------------------------------------


def write_curve_csv(curve: Curve, path, velocities: bool = False) -> None:
    dim = curve.space.dim
    header = ["t"] + [f"x{i}" for i in range(1, dim + 1)]
    if velocities:
        header += [f"v{i}" for i in range(1, dim + 1)]
        vels = derivative_all(curve, 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, t in enumerate(curve.grid.nodes):
            row = [repr(float(t))] + [repr(float(y)) for y in curve.values[i]]
            if velocities:
                row += [repr(float(y)) for y in vels[i]]
            writer.writerow(row)


def read_curve_csv(space: Space, path) -> Curve:
    """The curve in a CSV of columns t, x1..xm and any more after them; a file
    that is not such a table is a ValidationError naming the path and the
    line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: line 1: empty file, expected a CSV header")
        cols = [name for name in header if name.startswith("x")]
        if len(cols) != space.dim:
            raise ValidationError(
                f"CSV has {len(cols)} coordinate columns, space has dim {space.dim}"
            )
        ts, rows = [], []
        for row in reader:
            try:
                if len(row) <= space.dim:
                    raise ValueError(f"{len(row)} cells, need t and {space.dim} coordinates")
                ts.append(float(row[0]))
                rows.append([float(z) for z in row[1 : space.dim + 1]])
            except ValueError as err:
                raise ValidationError(f"{path}: line {reader.line_num}: {err}") from None
    if not ts:
        raise ValidationError(f"{path}: no rows after the header")
    ts = np.asarray(ts)
    n = len(ts) - 1
    grid = Grid(a=float(ts[0]), b=float(ts[-1]), n=n)
    if not np.allclose(ts, grid.nodes, rtol=0, atol=1e-9 * (1 + abs(grid.b))):
        raise ValidationError("CSV nodes are not a uniform grid")
    return Curve(space, grid, np.asarray(rows))


def _check_grid(c: Grid, p: Grid, what: str = "seed curve", of: str = "problem") -> None:
    near = 1e-9 * (1 + abs(p.b))  # read_curve_csv's tolerance on the nodes
    if c.n != p.n or abs(c.a - p.a) > near or abs(c.b - p.b) > near:
        raise ValidationError(
            f"{what} does not match the grid: n={c.n} on [{c.a}, {c.b}], "
            f"{of} n={p.n} on [{p.a}, {p.b}]"
        )
