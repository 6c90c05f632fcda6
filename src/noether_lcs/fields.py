"""Scalar fields on [a,b] x E x E and their exact partials.

A ScalarField is its exact-jet engine ``jets(t, x, v, order)``, which
returns an ``EvalResult``: the value and every partial up to ``order``.
``jet(t, x, v, order)`` reads that one engine call block by block;
``__call__`` is the engine's value at order 0, and ``partial`` and
``second_partial`` read one block, or a tuple of blocks
(``L.partial(("x", "v"), ...)``) from one jet.  ``BLOCKS`` names the blocks
and ``slots`` places them in z = (t, x1..xm, v1..vm): a block is read from
the engine's gradient or Hessian at its slots.  Every block handed out is
finite, or EvaluationError names it and the point; a failure at a point is
an EvaluationError (``dsl.DomainError`` is one), and ``_where`` writes the
point into its message.  Points are one point (scalar t, x and v of shape
(m,)) or a stack of N points (t (N,), x and v (N, m)), which gets results
with a leading N axis; every engine answers both.  The module also hosts a
numeric audit of the normal-differentiability remainder criterion for maps
between truncations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .spaces import Space, normal_index, seminorm


class EvaluationError(RuntimeError):
    """A field failed at a point: its value or a partial is not finite, or
    (``dsl.DomainError``) an argument is outside a function's domain;
    ``index`` is the failing row when a stack was evaluated, else None."""

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index

    def prefixed(self, prefix: str) -> "EvaluationError":
        """This error, its type, rows and index kept, with ``prefix`` (the
        phase and the point the caller knows) before its message."""
        self.args = (prefix + str(self),)
        return self


def _where(t, x, v, i: Optional[int] = None) -> str:
    """The text naming a failing point: `` at t=.., x=.., v=..`` for one
    point, `` at point i (t=.., x=.., v=..)`` for row i of a stack."""
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    if i is None:
        return f" at t={t}, x={x}, v={v}"
    return f" at point {i} (t={t[i]}, x={x[i]}, v={v[i]})"


# The blocks of a jet by name, and the order of the jet that holds each: the
# value, a one-letter block the slots of that coordinate (``slots``) in the
# gradient, a two-letter block rows and columns of the Hessian ('xv' has rows
# indexed by x and columns by v, and 'vx' is its transpose).
BLOCKS = {"value": 0, "t": 1, "x": 1, "v": 1, "tt": 2, "xx": 2, "xv": 2, "vx": 2, "vv": 2}


def slots(kind: str, m: int) -> range:
    """The slots of ``kind`` ('t', 'x' or 'v') in z = (t, x1..xm, v1..vm)."""
    return range(1) if kind == "t" else range(1, m + 1) if kind == "x" else range(m + 1, 2 * m + 1)


@dataclass(slots=True)
class EvalResult:
    """What an engine returns: a float value, ``grad`` (1+2m,) from order 1
    and ``hess`` (1+2m, 1+2m) at order 2 over the slots z of ``slots``, with
    a leading axis on a stack."""

    value: float
    grad: Optional[np.ndarray] = None
    hess: Optional[np.ndarray] = None


def _read(block: str, m: int, grad, hess):
    """Partial ``block`` of grad or hess at its slots (a leading axis on a
    stack), copied: a contiguous block is quicker to check and to compute
    with.  t's axis drops out, so 't' and 'tt' are floats at one point."""
    axes = [(kind, slots(kind, m)) for kind in block]
    axes = [s[0] if kind == "t" else slice(s.start, s.stop) for kind, s in axes]
    out = (grad if len(block) == 1 else hess)[(..., *axes)]
    return float(out) if out.ndim == 0 else np.array(out)


def _check_finite(out, block: str, t, x, v):
    """``out``, or EvaluationError naming the block and the first point where
    it is not finite."""
    if math.isfinite(out) if type(out) is float else np.isfinite(out).all():
        return out
    what = "value" if block == "value" else f"partial {block!r}"
    i = None
    if np.ndim(x) == 2:
        i = int(np.flatnonzero(~np.isfinite(out).reshape(len(out), -1).all(axis=1))[0])
    raise EvaluationError(f"non-finite field {what}{_where(t, x, v, i)}", index=i)


class Jet:
    """The value and partials of a field up to ``order`` at one point or a
    stack, from one engine call; ``jet[block]`` reads one block (see
    ``BLOCKS``).  The value is checked when the jet is made and each block
    when it is read: EvaluationError names the first point not finite."""

    __slots__ = ("field", "t", "x", "v", "order", "exact")

    def __init__(self, field, t, x, v, order: int, exact):
        self.field, self.t, self.x, self.v = field, t, x, v
        self.order, self.exact = order, exact

    def __getitem__(self, block: str):
        if BLOCKS[block] > self.order:
            raise KeyError(block)
        r = self.exact
        if block == "value":  # checked when the jet was made
            return r.value
        out = _read(block, self.field.dim, r.grad, r.hess)
        return _check_finite(out, block, self.t, self.x, self.v)


@dataclass(frozen=True, slots=True)
class ScalarField:
    """A field of (t, x, v) given by its exact-jet engine: ``jets(t, x, v,
    order)`` returns an ``EvalResult``, the value and every partial up to
    ``order`` (0, 1 or 2) at one point or a whole stack.  An engine may
    answer only order 0 and raise TypeError above it, as a first integral's
    does: such a field has values and no partials."""

    dim: int
    jets: Callable

    def jet(self, t, x, v, order: int) -> Jet:
        """The value and every partial up to ``order`` from one engine call."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        exact = self.jets(t, x, v, order)
        _check_finite(exact.value, "value", t, x, v)
        return Jet(self, t, x, v, order, exact)

    def __call__(self, t, x, v):
        return _check_finite(self.jets(t, x, v, 0).value, "value", t, x, v)

    def _blocks(self, names, order: int, kind: str, t, x, v):
        """The named blocks of one jet of ``order``: one block for a name,
        a tuple of blocks for a tuple of names."""
        single = isinstance(names, str)
        wanted = (names,) if single else tuple(names)
        for name in wanted:
            if BLOCKS.get(name) != order:
                raise ValueError(f"unknown {kind} {name!r}")
        jet = self.jet(t, x, v, order)
        return jet[names] if single else tuple(jet[name] for name in wanted)

    def partial(self, which, t, x, v):
        """One first partial, 't' (a float at one point), 'x' or 'v'; or, for
        a tuple of these names, a tuple of the blocks from one jet."""
        return self._blocks(which, 1, "partial", t, x, v)

    def second_partial(self, pair, t, x, v):
        """One second-partial block, 'tt', 'xx', 'xv', 'vx' or 'vv'; or, for
        a tuple of these names, a tuple of the blocks from one jet."""
        return self._blocks(pair, 2, "second partial", t, x, v)


# -- normal-differentiability audit -------------------------------------


# the probe radii of the audit, read-only because every audit hands them out;
# written out, because np.logspace's SIMD power rounds 1e-5 differently by host
_PROBE_RADII = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
_PROBE_RADII.flags.writeable = False
# random directions per seminorm pair, beside the 2k signed unit vectors
_RANDOM_DIRECTIONS = 8


@dataclass(frozen=True)
class DifferentiabilityAudit:
    """Remainder-ratio trajectories per seminorm pair over shrinking probes."""

    radii: np.ndarray
    ratios: dict  # (s, m) -> array of worst ratios, one per radius
    verdicts: dict  # (s, m) -> bool

    @property
    def passed(self) -> bool:
        return bool(self.verdicts) and all(self.verdicts.values())


def check_normal_differentiability(
    g: Callable,
    candidate_derivative: Callable,
    space_src: Space,
    space_dst: Space,
    base_points,
    tol: float,
) -> DifferentiabilityAudit:
    """Probe the remainder ratio |g(x+h) - g(x) - g'(x)h|^s / |h|_m at
    every base point and the radii |h|_m = 1e-1 .. 1e-6.

    ``candidate_derivative(x)`` returns g'(x) as a matrix of shape
    (space_dst.dim, space_src.dim), or a 1-D row when the target is scalar.
    The (s, m) pairs audited are those with m in the finiteness set of the
    candidate derivative at every base point.  Each pair probes along the 2k
    signed unit vectors of its first k = min(m, dim) coordinates and 8
    seeded random directions in them, at the 6 radii and every base point;
    ``g`` is called once per base point and once per probe, one point each.
    An audit with no pair fails.  A failed audit is a verdict, not an error;
    a non-finite candidate derivative raises EvaluationError naming the base
    point, as does an EvaluationError raised inside the candidate, re-raised
    with the base point before its message; a non-finite value or remainder
    names the base point, radius and probe.
    """
    base_points = [space_src.check_vector(b) for b in base_points]
    if not base_points:
        raise ValueError("need at least one base point")

    # candidate index pairs: intersection of the finiteness sets over the cloud
    pairs = None
    derivs = []
    for j, b in enumerate(base_points):
        try:  # a field read inside the candidate fails at a point
            A = candidate_derivative(b)
        except EvaluationError as err:
            raise err.prefixed(f"candidate derivative failed at base point {j} ({b}): ")
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if not np.all(np.isfinite(A)):
            raise EvaluationError(f"non-finite candidate derivative at base point {j}: {b}", index=j)
        derivs.append(A)
        here = {(s, m) for s, ms in normal_index(space_src, space_dst, A).items() for m in ms}
        pairs = here if pairs is None else pairs & here

    def values(points):  # g at each point, one call each: rows of g's values
        return np.array([g(z) for z in points], dtype=float).reshape(len(points), -1)

    g_base = values(base_points) if pairs else []
    rng = np.random.default_rng(0)
    ratios = {}
    verdicts = {}
    for (s, m) in sorted(pairs):
        k = min(m, space_src.dim)
        dirs = np.zeros((2 * k + _RANDOM_DIRECTIONS, space_src.dim))
        dirs[0 : 2 * k : 2, :k] = np.eye(k)
        dirs[1 : 2 * k : 2] = -dirs[0 : 2 * k : 2]
        dirs[2 * k :, :k] = rng.standard_normal((_RANDOM_DIRECTIONS, k))
        # every direction scaled to each radius in turn, leaving out the null directions
        nus = seminorm(space_src, m, dirs)
        dirs, nus = dirs[nus != 0.0], nus[nus != 0.0]
        H = ((_PROBE_RADII[:, None] / nus)[..., None] * dirs).reshape(-1, space_src.dim)
        worst = np.zeros(len(_PROBE_RADII))
        for j, (b, gb, A) in enumerate(zip(base_points, g_base, derivs)):
            points = b + H
            # stacked matmul, not H @ A.T or einsum: it rounds as A @ h per probe
            rem = (values(points) - gb) - np.matmul(A, H[..., None])[..., 0]
            bad = np.flatnonzero(~np.isfinite(rem).all(axis=1))
            if len(bad):
                i = int(bad[0])
                raise EvaluationError(
                    f"non-finite value or remainder of g at base point {j}, "
                    f"radius {_PROBE_RADII[i // len(dirs)]}: probe point {points[i]}",
                    index=j,
                )
            nums = seminorm(space_dst, s, rem).reshape(len(_PROBE_RADII), -1)
            with np.errstate(over="ignore"):  # a ratio past the float range is inf
                worst = np.maximum(worst, (nums / _PROBE_RADII[:, None]).max(axis=1))
        ratios[(s, m)] = worst
        verdicts[(s, m)] = bool(worst[-1] <= tol and worst[-1] <= worst[0] + tol)
    return DifferentiabilityAudit(radii=_PROBE_RADII, ratios=ratios, verdicts=verdicts)
