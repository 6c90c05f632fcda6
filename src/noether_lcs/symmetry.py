"""Lie point symmetry generators, the infinitesimal invariance test, and
construction/verification of Noether first integrals.

A generator is a pair (T, X): a scalar field and a vector field of (t, x),
with an optional gauge F, a scalar field of (t, x).  Invariance of the
variational problem is checked through the residual

    dL/dt T + dL/dx . X + dL/dv . (X' - v T') + L T' - F'

with primes the total time derivatives along the curve; a vanishing residual
is equivalent to invariance up to the total derivative F' (a divergence
symmetry, Noether-Bessel-Hagen) and yields the conserved quantity

    C = [L - dL/dv . v] T + dL/dv . X - F.

Without a gauge (F = None) both are the strict forms, and ``check_invariance``
is the strict test: a boost of v^2/2, which changes L by a total derivative,
fails it.  ``fit_gauge`` reaches such divergence symmetries by fitting F over
the monomials of degree 1-2 in (t, x), from the one monomial list that also
spans the affine generators; the check then reports the gauged residual
beside the strict one.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from .curves import Curve, along
from .fields import EvalResult, EvaluationError, ScalarField
from .spaces import ValidationError


@dataclass(frozen=True)
class SymmetryGenerator:
    """Pair (T, X) of a scalar and a vector field of (t, x), with an optional
    gauge F of (t, x); F = None is the strict generator.  An affine generator
    and a fitted gauge are polynomials (``_Polynomial``), and a generator a
    problem file writes as expressions has compiled fields."""

    dim: int
    T: ScalarField
    X: tuple  # dim ScalarFields, one per component
    name: str = ""
    F: Optional[ScalarField] = None
    # the coefficient vector of an affine generator (layout of ``affine_generator``)
    coefficients: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.X) != self.dim:
            raise ValidationError(
                f"generator has {len(self.X)} X components for dim {self.dim}"
            )
        if self.F is not None and self.F.dim != self.dim:
            raise ValidationError(
                f"gauge has dim {self.F.dim} for a generator of dim {self.dim}"
            )


# -- polynomials in z = (t, x) -------------------------------------------


@lru_cache
def _monomials(dim: int, degrees: tuple) -> tuple:
    """The monomials z_i z_j of z = (t, x1..x<dim>, 1) of the given degrees
    (0, 1, 2) as index pairs (i, j) into z, with -1 for its last entry 1: by
    degree and then row-major with i <= j.  Degrees 0-1 span the affine
    generators, degrees 1-2 the gauge of ``fit_gauge``; a coefficient vector
    over this table is a polynomial (``_Polynomial``).  Cached, so every
    generator of a search shares one table: the table is a tuple."""
    n = dim + 1
    table = []
    for d in degrees:
        if d == 0:
            table.append((-1, -1))
        elif d == 1:
            table += [(i, -1) for i in range(n)]
        else:
            table += [(i, j) for i in range(n) for j in range(i, n)]
    return tuple(table)


def _monomial_columns(monomials, ts, xs, vs) -> np.ndarray:
    """The values of the monomials at a stack of samples and their total time
    derivatives along the curve (z' = (1, v, 0) and the product rule): two
    (N, len(monomials)) arrays."""
    z = np.column_stack([ts, xs, np.ones_like(ts)])
    w = np.column_stack([np.ones_like(ts), vs, np.zeros_like(ts)])
    i, j = np.array(monomials).T
    return np.stack([z[:, i] * z[:, j], w[:, i] * z[:, j] + z[:, i] * w[:, j]])


class _Polynomial:
    """The ``ScalarField.jets`` engine of sum c_k z_i z_j over a
    ``_monomials`` table.  Each nonzero term is formed as (c z_i) z_j, where a
    factor 1 changes no bit, and the terms are added from the left, as the
    compiled tree of the sum did; the gradient is the product rule's and the
    Hessian is constant.  The entry 1 of z has a slot past the last, dropped."""

    __slots__ = ("coeffs", "pairs")  # module-level and slotted: it pickles

    def __init__(self, coeffs, monomials):
        keep = np.flatnonzero(coeffs)
        self.coeffs = tuple(np.asarray(coeffs, dtype=float)[keep].tolist())
        self.pairs = tuple(monomials[k] for k in keep.tolist())

    def __call__(self, t, x, v, order: int) -> EvalResult:
        x = np.asarray(x, dtype=float)
        z = (np.asarray(t, dtype=float) if x.ndim == 2 else np.float64(t), *x.T, 1.0)
        shape, val = z[0].shape, np.float64(0.0)
        grad = np.zeros(shape + (2 * x.shape[-1] + 2,)) if order else None
        hess = np.zeros(grad.shape[-1:] * 2) if order > 1 else None
        for k, (c, (i, j)) in enumerate(zip(self.coeffs, self.pairs)):
            term = (ci := c * z[i]) * z[j]
            val = term if k == 0 else val + term
            if order:
                grad[..., i] += ci + ci if i == j else c * z[j]
                if i != j:
                    grad[..., j] += ci
            if order > 1:
                np.add.at(hess, ([i, j], [j, i]), c)  # unbuffered: c + c on the diagonal
        val = np.full(shape, val) if shape else float(val)
        if order > 1:
            hess = np.full(shape + hess[:-1, :-1].shape, hess[:-1, :-1])
        return EvalResult(val, None if grad is None else grad[..., :-1], hess)


def affine_generator(
    dim: int, t_coeffs: Sequence[float], x_coeffs, name: str = ""
) -> SymmetryGenerator:
    """Generator with affine components.

    ``t_coeffs`` = (a0, a1, b1..bm) gives T = a0 + a1 t + sum b_i x_i;
    ``x_coeffs`` is a (dim, dim+2) array with the same layout per component.
    """
    t_coeffs = np.asarray(t_coeffs, dtype=float)
    if t_coeffs.shape != (dim + 2,):
        raise ValidationError(f"T coefficient vector must have length {dim + 2}")
    x_coeffs = np.asarray(x_coeffs, dtype=float)
    if x_coeffs.shape != (dim, dim + 2):
        raise ValidationError(f"X coefficient table must have shape ({dim}, {dim + 2})")
    affine = _monomials(dim, (0, 1))
    return SymmetryGenerator(
        dim=dim,
        T=ScalarField(dim, _Polynomial(t_coeffs, affine)),
        X=tuple(ScalarField(dim, _Polynomial(row, affine)) for row in x_coeffs),
        name=name,
        coefficients=np.concatenate([t_coeffs, x_coeffs.ravel()]),
    )


def catalog_generator(name: str, dim: int) -> SymmetryGenerator:
    """Named generators: time-translation, space-translation[-j],
    rotation-ij, dilation, galilean[-j]."""
    t, x = np.zeros(dim + 2), np.zeros((dim, dim + 2))
    if name == "time-translation":
        t[0] = 1.0
    elif name == "dilation":
        t[1] = 1.0
    elif name == "space-translation" or name.startswith("space-translation-"):
        x[_axis(name, "space-translation", "translation", dim) - 1, 0] = 1.0
    elif name == "galilean" or name.startswith("galilean-"):
        x[_axis(name, "galilean", "boost", dim) - 1, 1] = 1.0  # X_axis = t
    elif name.startswith("rotation-"):
        digits = name[len("rotation-"):]
        if len(digits) != 2 or not digits.isdecimal():
            raise ValidationError(f"rotation name must look like rotation-12, got {name}")
        i, j = int(digits[0]), int(digits[1])
        if not (1 <= i <= dim and 1 <= j <= dim and i != j):
            raise ValidationError(f"rotation axes {i},{j} invalid for dim {dim}")
        x[i - 1, 2 + (j - 1)] = -1.0  # X_i = -x_j
        x[j - 1, 2 + (i - 1)] = 1.0  # X_j = x_i
    else:
        raise ValidationError(f"unknown catalog generator {name!r}")
    return affine_generator(dim, t, x, name=name)


def _axis(name: str, family: str, kind: str, dim: int) -> int:
    """The axis j of ``<family>-j`` (1 for a bare ``<family>``)."""
    digits = name.rsplit("-", 1)[1] if name[len(family):] else "1"
    if not digits.isdecimal():
        raise ValidationError(f"{kind} axis {digits!r} of {name!r} is not an integer")
    axis = int(digits)
    if not 1 <= axis <= dim:
        raise ValidationError(f"{kind} axis {axis} out of range for dim {dim}")
    return axis


# -- generator calculus -------------------------------------------------


def _dot(a, b):
    """Dot product over the last axis, per point of a stack."""
    return np.einsum("...i,...i->...", a, b)


def _time_derivative(jet, v):
    """f' = df/dt + df/dx . v from an order-1 jet of f."""
    return jet["t"] + _dot(jet["x"], v)


def _field_jets(g: SymmetryGenerator, t, x, v):
    """T, T', X and X' from one order-1 jet of each generator field."""
    tj, xj = g.T.jet(t, x, v, 1), [c.jet(t, x, v, 1) for c in g.X]
    X = np.stack([j["value"] for j in xj], axis=-1)
    xp = np.stack([_time_derivative(j, v) for j in xj], axis=-1)
    return tj["value"], _time_derivative(tj, v), X, xp


def _residual(lj, v, T, tp, X, xp):
    """dL/dt T + dL/dx . X + dL/dv . (X' - v T') + L T' from an order-1 jet
    of L and the generator's T, T', X and X'.  ``_search_matrix`` broadcasts
    it over an axis of generators; a reordered sum moves that matrix at
    roundoff."""
    vel = xp - v * np.asarray(tp)[..., None]
    return lj["t"] * T + _dot(lj["x"], X) + _dot(lj["v"], vel) + lj["value"] * tp


def invariance_residual(L: ScalarField, g: SymmetryGenerator, t, x, v):
    """The (gauged) invariance residual at one point (a float) or at a stack
    of sample points (an (N,) array), from one order-1 jet of L and of each
    generator field."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    res = _residual(L.jet(t, x, v, 1), v, *_field_jets(g, t, x, v))
    if g.F is not None:
        res = res - _time_derivative(g.F.jet(t, x, v, 1), v)
    return float(res) if x.ndim == 1 else res


def _primes(count: int) -> list:
    """The first ``count`` primes."""
    out, c = [], 2
    while len(out) < count:
        if all(c % p for p in out if p * p <= c):
            out.append(c)
        c += 1
    return out


@lru_cache
def _halton(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the d-dimensional Halton sequence with Owen's
    random digit permutations (A. B. Owen, "A randomized Halton algorithm in
    R", arXiv:1706.02808): coordinate j is the radical inverse in the j-th
    prime b, each base-b digit sent through its own permutation of
    0..b-1, for the ceil(54 / log2 b) - 1 digits a double resolves.  The
    permutations are drawn from ``np.random.default_rng(seed)`` in the order
    of ``scipy.stats.qmc.Halton``, so the points equal
    ``qmc.Halton(d=d, seed=seed).random(n)`` bit for bit.  Cached, because
    the checks ask for the same box again and again: the array is
    read-only."""
    rng = np.random.default_rng(seed)
    out = np.empty((n, d))
    for col, b in enumerate(_primes(d)):
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        k = np.arange(n)
        seq = np.zeros(n)
        b2r = 1.0 / b
        for perm in perms:
            seq += perm[k % b] * b2r
            b2r /= b
            k //= b
        out[:, col] = seq
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SamplingConfig:
    """Quasi-random sampling box for (t, x, v) triples: scrambled Halton
    points (see ``_halton``) for the given ``seed``, mapped onto the box."""

    t_range: tuple = (0.0, 1.0)
    x_radius: float = 2.0
    v_radius: float = 2.0
    count: int = 200
    seed: int = 0

    def samples(self, dim: int):
        u = _halton(1 + 2 * dim, self.count, self.seed)
        a, b = self.t_range
        ts = a + (b - a) * u[:, 0]
        xs = self.x_radius * (2.0 * u[:, 1 : dim + 1] - 1.0)
        vs = self.v_radius * (2.0 * u[:, dim + 1 :] - 1.0)
        return ts, xs, vs


@contextmanager
def _naming_samples(phase: str, seed: int):
    """Name the phase, the sample row and the set's seed in an
    EvaluationError, re-raised with its type, rows and index."""
    try:
        yield
    except EvaluationError as err:
        raise err.prefixed(f"{phase} failed at sample {err.index} (seed {seed}): ")


@dataclass(frozen=True)
class InvarianceReport:
    """``residuals`` and ``max_residual`` include the generator's gauge;
    ``strict_max_residual`` is the sup of the residual without it (the two
    agree for a generator without a gauge)."""

    residuals: np.ndarray
    max_residual: float
    tol: float
    strict_max_residual: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def check_invariance(
    L: ScalarField,
    g: SymmetryGenerator,
    samples: SamplingConfig = SamplingConfig(),
    tol: float = 1e-8,
) -> InvarianceReport:
    ts, xs, vs = samples.samples(g.dim)
    with _naming_samples("invariance check", samples.seed):
        strict_res = invariance_residual(L, replace(g, F=None), ts, xs, vs)
        res = strict_res
        if g.F is not None:
            res = strict_res - _time_derivative(g.F.jet(ts, xs, vs, 1), vs)
    return InvarianceReport(
        residuals=res,
        max_residual=float(np.max(np.abs(res))),
        tol=tol,
        strict_max_residual=float(np.max(np.abs(strict_res))),
    )


def fit_gauge(
    L: ScalarField, g: SymmetryGenerator, samples: SamplingConfig = SamplingConfig()
) -> SymmetryGenerator:
    """Return ``g`` with the gauge F that best cancels its strict residual.

    F ranges over the monomials of degree 1-2 in z = (t, x); the constant is
    left out because F matters only up to a constant.  The residual is linear
    in F, so F is the linear least-squares fit of the strict residual by the
    total derivatives of the monomials.  The fit samples with ``seed + 1``, so
    ``check_invariance`` on ``samples`` judges the gauged generator on points
    the fit did not see.  A residual that no such F' cancels is left in the
    gauged residual, so non-symmetries still fail the check.
    """
    gauge = _monomials(g.dim, (1, 2))
    cfg = replace(
        samples, count=max(samples.count, 3 * len(gauge)), seed=samples.seed + 1
    )
    ts, xs, vs = cfg.samples(g.dim)
    with _naming_samples("gauge fit", cfg.seed):
        r = invariance_residual(L, replace(g, F=None), ts, xs, vs)
    _, A = _monomial_columns(gauge, ts, xs, vs)
    coeffs, *_ = np.linalg.lstsq(A, r, rcond=None)
    return replace(g, F=ScalarField(g.dim, _Polynomial(coeffs, gauge)))


# -- first integrals ----------------------------------------------------


def noether_first_integral(L: ScalarField, g: SymmetryGenerator) -> ScalarField:
    """C = [L - dL/dv . v] T + dL/dv . X - F, without the F term when the
    generator has no gauge: a field whose engine answers order 0 only, so
    with values and no partials (a TypeError).  Its value is one order-1 jet
    of L and one value of each generator field, a float at one point and an
    (N,) array on a stack."""

    def jets(t, x, v, order):
        if order:
            raise TypeError("a first integral has no partials")
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        lj = L.jet(t, x, v, 1)
        lv = lj["v"]
        X = np.stack([comp(t, x, v) for comp in g.X], axis=-1)
        c = (lj["value"] - _dot(lv, v)) * g.T(t, x, v) + _dot(lv, X)
        if g.F is not None:
            c -= g.F(t, x, v)
        return EvalResult(float(c) if x.ndim == 1 else c)

    return ScalarField(g.dim, jets)


@dataclass(frozen=True)
class ConservationReport:
    values: np.ndarray
    mean: float
    max_deviation: float
    relative_deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.relative_deviation <= self.tol


def verify_conservation(C: ScalarField, x: Curve, tol: float) -> ConservationReport:
    """Evaluate C along the curve with reconstructed velocities, in one call
    on the stack of nodes, and measure the spread around the mean.  C's
    engine must give an (N,) value on a stack, or ValidationError names the
    shape; an EvaluationError is re-raised naming the node (see ``along``)."""
    vals = np.asarray(along(C, x, "first integral"), dtype=float)
    if vals.shape != (x.grid.n + 1,):
        raise ValidationError(
            f"first integral gave shape {vals.shape} on a stack of "
            f"{x.grid.n + 1} nodes, expected ({x.grid.n + 1},): its engine "
            f"must take t (N,), x and v (N, {C.dim}) and give a value (N,)"
        )
    mean = float(np.mean(vals))
    max_dev = float(np.max(np.abs(vals - mean)))
    rel = max_dev / (1.0 + abs(mean))
    return ConservationReport(
        values=vals, mean=mean, max_deviation=max_dev, relative_deviation=rel, tol=tol
    )


# -- affine symmetry search ---------------------------------------------


def _search_matrix(L: ScalarField, ts, xs, vs) -> np.ndarray:
    """The residuals at the samples of the affine generators with one unit
    coefficient, a column each in the layout of ``affine_generator``: one
    order-1 jet of L, with the degree 0-1 monomials in the T slot and then in
    each X slot."""
    mono, dmono = _monomial_columns(_monomials(L.dim, (0, 1)), ts, xs, vs)
    jet = L.jet(ts, xs, vs, 1)
    lj = {block: jet[block][:, None] for block in ("value", "t", "x", "v")}
    v, zero = vs[:, None, :], np.zeros_like(mono)
    cols = [_residual(lj, v, mono, dmono, np.zeros(L.dim), np.zeros(L.dim))]
    for e in np.eye(L.dim):
        cols.append(_residual(lj, v, zero, zero, mono[..., None] * e, dmono[..., None] * e))
    return np.hstack(cols)


def find_affine_symmetries(
    L: ScalarField, samples: SamplingConfig = SamplingConfig()
) -> List[SymmetryGenerator]:
    """Null-space search over the affine generator ansatz
    T = a0 + a1 t + sum b_i x_i, X_j likewise.

    The invariance residual is linear in the generator, so symmetries are the
    null space of the residual matrix sampled at quasi-random points: the
    right singular vectors with singular values at most 1e-8 of the largest,
    each scaled to max-abs 1.  The same matrix on the 500 fresh samples
    (``seed + 1``) of ``check_invariance`` checks every candidate in one
    product; each vector whose residual there is at most 1e-6 is returned as
    a generator over its coefficients, with nothing compiled.
    """
    dim = L.dim
    per = dim + 2
    cfg = replace(samples, count=max(samples.count, 3 * per * (dim + 1)))
    with _naming_samples("symmetry search", cfg.seed):
        _, sing, vt = np.linalg.svd(_search_matrix(L, *cfg.samples(dim)), full_matrices=False)
    null = vt[sing <= 1e-8 * (sing[0] or 1.0)]
    null /= np.max(np.abs(null), axis=1, keepdims=True)
    fresh = replace(samples, count=500, seed=samples.seed + 1)
    with _naming_samples("symmetry search check", fresh.seed):
        residual = np.max(np.abs(_search_matrix(L, *fresh.samples(dim)) @ null.T), axis=0)
    return [
        affine_generator(dim, vec[:per], vec[per:].reshape(dim, per))
        for vec in null[residual <= 1e-6]
    ]
