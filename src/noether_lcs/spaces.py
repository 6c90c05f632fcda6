"""Finite truncation of a seminormed space with weighted-sup seminorm families.

The model space is R^m equipped with an ordered family of seminorms
``|y|_p = max_{1 <= i <= min(p, m)} w_i |y_i|`` for p = 1..P.  Larger indices
dominate by construction, so the family is inductively ordered.  A linear
operator between two such truncations is its matrix, a plain 2-D array, and
gets an exact operator seminorm (dual weighted-l1 row sums), which may be
infinite: the p-unit ball is unbounded in every coordinate beyond p.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """Raised when a constructor argument violates a structural precondition."""


@dataclass(frozen=True)
class Space:
    """Truncated model space: dimension, coordinate weights, seminorm count.
    The p-th seminorm sups over the first min(p, dim) coordinates; the space
    keeps a read-only copy of the first ``dim`` weights."""

    dim: int
    weights: np.ndarray
    num_seminorms: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"dimension must be positive, got {self.dim}")
        if self.num_seminorms < 1:
            raise ValidationError(f"need at least one seminorm, got {self.num_seminorms}")
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or len(w) < self.dim:
            raise ValidationError(f"need >= {self.dim} weights, got shape {w.shape}")
        w = w[: self.dim].copy()
        if not np.all(w > 0) or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be strictly positive and finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def check_index(self, p: int) -> None:
        if not 1 <= p <= self.num_seminorms:
            raise ValidationError(
                f"seminorm index {p} out of range 1..{self.num_seminorms}"
            )

    def check_vector(self, y: np.ndarray, stack: bool = False) -> np.ndarray:
        """y as a finite float array of shape (dim,), or with ``stack`` also
        an (N, dim) stack of vectors."""
        y = np.asarray(y, dtype=float)
        if y.ndim not in ((1, 2) if stack else (1,)) or y.shape[-1] != self.dim:
            also = f" or (N, {self.dim})" if stack else ""
            raise ValidationError(f"vector shape {y.shape} != ({self.dim},){also}")
        if not np.all(np.isfinite(y)):
            raise ValidationError("vector has non-finite entries")
        return y


# the constructor's older name, which callers still import
make_space = Space


def seminorm(space: Space, p: int, y):
    """Value of |y|_p = max_{i <= min(p, dim)} w_i |y_i|, inf where it
    overflows.  An (N, dim) stack of vectors gives an (N,) array."""
    space.check_index(p)
    y = space.check_vector(y, stack=True)
    k = min(p, space.dim)
    with np.errstate(over="ignore"):
        norms = np.max(space.weights[:k] * np.abs(y[..., :k]), axis=-1)
    return float(norms) if y.ndim == 1 else norms


def dual_seminorm(space: Space, p: int, r):
    """Dual norm of a covector r against |.|_p: weighted l1 sum, inf off
    support or where it overflows.  An (N, dim) stack of covectors gives an
    (N,) array."""
    space.check_index(p)
    r = np.asarray(r, dtype=float)
    if r.ndim not in (1, 2) or r.shape[-1] != space.dim:
        raise ValidationError(
            f"covector shape {r.shape} is neither ({space.dim},) nor (N, {space.dim})"
        )
    k = min(p, space.dim)
    with np.errstate(over="ignore"):
        norms = np.sum(np.abs(r[..., :k]) / space.weights[:k], axis=-1)
    norms = np.where(np.any(r[..., k:] != 0.0, axis=-1), math.inf, norms)
    return float(norms) if r.ndim == 1 else norms


def operator_seminorm(space_src: Space, space_dst: Space, A, p: int, q: int) -> float:
    """Exact sup of |Ay|^q over the p-unit ball for the (dst.dim, src.dim)
    matrix A; inf when the ball is unbounded in a direction the q-seminorm
    sees, or where the sup overflows."""
    space_src.check_index(p)
    space_dst.check_index(q)
    m = np.asarray(A, dtype=float)
    if m.shape != (space_dst.dim, space_src.dim):
        raise ValidationError(
            f"operator shape {m.shape} incompatible with spaces "
            f"({space_dst.dim}, {space_src.dim})"
        )
    ka = min(p, space_src.dim)
    kb = min(q, space_dst.dim)
    if np.any(m[:kb, ka:] != 0.0):
        return math.inf
    # dual of the weighted sup norm: per-row weighted l1 sums
    with np.errstate(over="ignore"):
        rows = np.abs(m[:kb, :ka]) / space_src.weights[:ka]
        return float(np.max(space_dst.weights[:kb] * np.sum(rows, axis=1)))


def normal_index(space_src: Space, space_dst: Space, A) -> dict:
    """For every target index q, the frozenset of source indices p at which
    the matrix A has a finite operator seminorm."""
    return {
        q: frozenset(
            p
            for p in range(1, space_src.num_seminorms + 1)
            if math.isfinite(operator_seminorm(space_src, space_dst, A, p, q))
        )
        for q in range(1, space_dst.num_seminorms + 1)
    }

def unit_ball_vertices(space: Space, p: int):
    """Extreme points of the truncated p-unit ball; only complete when p >= dim."""
    space.check_index(p)
    k = min(p, space.dim)
    bounds = 1.0 / space.weights[:k]
    for signs in itertools.product((-1.0, 1.0), repeat=k):
        y = np.zeros(space.dim)
        y[:k] = np.array(signs) * bounds
        yield y
