"""Scalar fields on [a,b] x E x E and their numeric differentiation.

A ScalarField wraps an evaluator ``L(t, x, v)`` together with optional analytic
partials.  Missing partials fall back to central finite differences with one
Richardson extrapolation level.  Values and partials are asked for at one
point (scalar t, x and v of shape (m,)) or at a stack of N points (t of shape
(N,), x and v of shape (N, m)); a stack gets results with a leading N axis.
A field built with ``stacks=True`` (every compiled field is) hands the whole
stack to its callables in one call; any other field loops over the points.
The module also hosts a numeric audit of the normal-differentiability
remainder criterion for maps between truncations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .spaces import Space, LinearOperator, normal_index, seminorm

_EPS = np.finfo(float).eps


class EvaluationError(RuntimeError):
    """A field produced a non-finite value at the reported point; ``index``
    is that point's row when a stack was evaluated."""

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference configuration.

    Steps are scaled per coordinate by (1 + |coordinate|); the base steps
    balance truncation against roundoff for first and second derivatives.
    """

    step: float = _EPS ** (1.0 / 3.0)
    second_step: float = _EPS**0.25
    richardson: bool = True


DEFAULT_FD = FDConfig()


def directional_derivative(f, base, h, cfg: FDConfig = DEFAULT_FD):
    """Derivative of f at ``base`` along ``h`` by Richardson-extrapolated
    central differences; works for scalar- and vector-valued f."""
    base = np.asarray(base, dtype=float)
    h = np.asarray(h, dtype=float)
    eps = cfg.step * (1.0 + float(np.max(np.abs(base))))

    def probe(e):
        val = np.asarray(f(base + e * h), dtype=float)
        if not np.all(np.isfinite(val)):
            raise EvaluationError(f"non-finite evaluation at {base + e * h}")
        return val

    d1 = (probe(eps) - probe(-eps)) / (2.0 * eps)
    if cfg.richardson:
        d2 = (probe(eps / 2.0) - probe(-eps / 2.0)) / eps
        d1 = (4.0 * d2 - d1) / 3.0
    if d1.ndim == 0:
        return float(d1)
    return d1


@dataclass(frozen=True, slots=True)
class ScalarField:
    """Evaluator on (t, x, v) with optional analytic first/second partials.

    ``d2`` maps block names 'tt', 'xx', 'xv', 'vx', 'vv' to callables.  The
    'xv' block has rows indexed by x and columns by v; 'vx' is its transpose
    layout.  With ``stacks=True``, ``func`` and the partial callables also
    take a stack of points and answer with a leading N axis.
    """

    dim: int
    func: Callable
    d_t: Optional[Callable] = None
    d_x: Optional[Callable] = None
    d_v: Optional[Callable] = None
    d2: Optional[Mapping[str, Callable]] = None
    fd: FDConfig = field(default=DEFAULT_FD)
    stacks: bool = False

    def __call__(self, t, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.ndim == 1:
            val = float(self.func(t, x, v))
            if not math.isfinite(val):
                raise EvaluationError(f"non-finite field value at t={t}, x={x}, v={v}")
            return val
        if self.stacks:
            vals = np.asarray(self.func(t, x, v), dtype=float)
        else:
            vals = np.array([float(self.func(*p)) for p in zip(t, x, v)])
        bad = np.flatnonzero(~np.isfinite(vals))
        if len(bad):
            i = int(bad[0])
            raise EvaluationError(
                f"non-finite field value at point {i}: t={t[i]}, x={x[i]}, v={v[i]}",
                index=i,
            )
        return vals

    # -- first partials -------------------------------------------------

    def partial(self, which: str, t, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        exact = {"t": self.d_t, "x": self.d_x, "v": self.d_v}
        if which not in exact:
            raise ValueError(f"unknown partial {which!r}")
        fn = exact[which]
        if x.ndim == 2 and not (self.stacks and fn is not None):
            return np.array([self.partial(which, *p) for p in zip(t, x, v)])
        if fn is not None:
            out = np.asarray(fn(t, x, v), dtype=float)
            return float(out) if which == "t" and x.ndim == 1 else out
        if which == "t":
            return directional_derivative(lambda s: self(s, x, v), t, 1.0, self.fd)
        return self._fd_grad(t, x, v, which)

    def _fd_grad(self, t, x, v, wrt: str) -> np.ndarray:
        base = x if wrt == "x" else v
        out = np.empty(self.dim)
        for i in range(self.dim):

            def probe(s, i=i):
                z = base.copy()
                z[i] = s
                return self(t, z, v) if wrt == "x" else self(t, x, z)

            out[i] = directional_derivative(probe, base[i], 1.0, self.fd)
        return out

    # -- second partials ------------------------------------------------

    def second_partial(self, pair: str, t, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        fn = None if self.d2 is None else self.d2.get(pair)
        if x.ndim == 2 and not (self.stacks and fn is not None):
            return np.array([self.second_partial(pair, *p) for p in zip(t, x, v)])
        if fn is not None:
            out = np.asarray(fn(t, x, v), dtype=float)
            return float(out) if pair == "tt" and x.ndim == 1 else out
        if pair == "tt":
            eps = self.fd.second_step * (1.0 + abs(t))
            f0 = self(t, x, v)
            return (self(t + eps, x, v) - 2.0 * f0 + self(t - eps, x, v)) / eps**2
        if pair in ("xx", "vv"):
            wrt = pair[0]
            return self._fd_hess_same(t, x, v, wrt)
        if pair in ("xv", "vx"):
            h = self._fd_hess_mixed(t, x, v)  # rows x, cols v
            return h if pair == "xv" else h.T
        raise ValueError(f"unknown second partial {pair!r}")

    def _fd_hess_same(self, t, x, v, wrt: str) -> np.ndarray:
        base = x if wrt == "x" else v

        def at(z):
            return self(t, z, v) if wrt == "x" else self(t, x, z)

        n = self.dim
        h = np.empty((n, n))
        steps = self.fd.second_step * (1.0 + np.abs(base))
        f0 = at(base)
        for i in range(n):
            zi = base.copy()
            zi[i] += steps[i]
            zmi = base.copy()
            zmi[i] -= steps[i]
            h[i, i] = (at(zi) - 2.0 * f0 + at(zmi)) / steps[i] ** 2
            for j in range(i + 1, n):
                zpp = base.copy()
                zpp[[i, j]] += [steps[i], steps[j]]
                zpm = base.copy()
                zpm[[i, j]] += [steps[i], -steps[j]]
                zmp = base.copy()
                zmp[[i, j]] += [-steps[i], steps[j]]
                zmm = base.copy()
                zmm[[i, j]] += [-steps[i], -steps[j]]
                val = (at(zpp) - at(zpm) - at(zmp) + at(zmm)) / (
                    4.0 * steps[i] * steps[j]
                )
                h[i, j] = h[j, i] = val
        return h

    def _fd_hess_mixed(self, t, x, v) -> np.ndarray:
        n = self.dim
        h = np.empty((n, n))
        sx = self.fd.second_step * (1.0 + np.abs(x))
        sv = self.fd.second_step * (1.0 + np.abs(v))
        for i in range(n):
            for j in range(n):
                xp = x.copy()
                xp[i] += sx[i]
                xm = x.copy()
                xm[i] -= sx[i]
                vp = v.copy()
                vp[j] += sv[j]
                vm = v.copy()
                vm[j] -= sv[j]
                h[i, j] = (
                    self(t, xp, vp) - self(t, xp, vm) - self(t, xm, vp) + self(t, xm, vm)
                ) / (4.0 * sx[i] * sv[j])
        return h


# -- normal-differentiability audit -------------------------------------


def default_probe_radii() -> np.ndarray:
    return np.logspace(-1, -6, 6)


@dataclass(frozen=True)
class DifferentiabilityAudit:
    """Remainder-ratio trajectories per seminorm pair over shrinking probes."""

    base_points: tuple
    radii: np.ndarray
    ratios: dict  # (s, m) -> array of worst ratios, one per radius
    verdicts: dict  # (s, m) -> bool
    tol: float

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def check_normal_differentiability(
    g: Callable,
    candidate_derivative: Callable,
    space_src: Space,
    space_dst: Space,
    base_points,
    tol: float,
    radii=None,
    num_directions: int = 8,
    seed: int = 0,
) -> DifferentiabilityAudit:
    """Probe the remainder ratio |g(x+h) - g(x) - g'(x)h|^s / |h|_m over a
    finite sample cloud and shrinking radii.

    The (s, m) pairs audited are those with m in the finiteness set of the
    candidate derivative at every base point.  A failed audit is a verdict,
    not an error.
    """
    base_points = [space_src.check_vector(b) for b in base_points]
    if not base_points:
        raise ValueError("need at least one base point")
    if radii is None:
        radii = default_probe_radii()
    radii = np.asarray(radii, dtype=float)

    # candidate index pairs: intersection of the finiteness sets over the cloud
    pairs = None
    derivs = []
    for b in base_points:
        A = candidate_derivative(b)
        A = A if isinstance(A, LinearOperator) else LinearOperator(np.atleast_2d(A))
        derivs.append(A)
        rep = normal_index(space_src, space_dst, A)
        here = {
            (s, m)
            for s in range(1, space_dst.num_seminorms + 1)
            for m in rep.finite_sources[s]
        }
        pairs = here if pairs is None else pairs & here

    rng = np.random.default_rng(seed)
    ratios = {}
    verdicts = {}
    for (s, m) in sorted(pairs):
        k = min(m, space_src.dim)
        dirs = []
        for i in range(k):
            e = np.zeros(space_src.dim)
            e[i] = 1.0
            dirs.extend([e, -e])
        for _ in range(num_directions):
            u = np.zeros(space_src.dim)
            u[:k] = rng.standard_normal(k)
            dirs.append(u)
        worst = np.zeros(len(radii))
        for ir, r in enumerate(radii):
            for b, A in zip(base_points, derivs):
                gb = np.atleast_1d(np.asarray(g(b), dtype=float))
                for u in dirs:
                    nu = seminorm(space_src, m, u)
                    if nu == 0.0:
                        continue
                    h = (r / nu) * u
                    rem = (
                        np.atleast_1d(np.asarray(g(b + h), dtype=float))
                        - gb
                        - A.matrix @ h
                    )
                    num = seminorm(space_dst, s, rem)
                    worst[ir] = max(worst[ir], num / r)
        ratios[(s, m)] = worst
        verdicts[(s, m)] = bool(worst[-1] <= tol and worst[-1] <= worst[0] + tol)
    return DifferentiabilityAudit(
        base_points=tuple(base_points),
        radii=radii,
        ratios=ratios,
        verdicts=verdicts,
        tol=tol,
    )
