"""Finite truncation of a seminormed space with weighted-sup seminorm families.

The model space is R^m equipped with an ordered family of seminorms
``|y|_p = max_{1 <= i <= min(p, m)} w_i |y_i|`` for p = 1..P.  Larger indices
dominate by construction, so the family is inductively ordered.  Linear
operators between two such truncations get an exact operator seminorm
(dual weighted-l1 row sums), which may be infinite: the p-unit ball is
unbounded in every coordinate beyond p.
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
    """Truncated model space: dimension, coordinate weights, seminorm count."""

    dim: int
    weights: np.ndarray
    num_seminorms: int

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        self.weights.setflags(write=False)

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


def make_space(dim: int, weights, num_seminorms: int) -> Space:
    """Build a Space whose p-th seminorm sups over the first min(p, dim) coordinates."""
    if dim < 1:
        raise ValidationError(f"dimension must be positive, got {dim}")
    if num_seminorms < 1:
        raise ValidationError(f"need at least one seminorm, got {num_seminorms}")
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or len(w) < dim:
        raise ValidationError(f"need >= {dim} weights, got shape {w.shape}")
    w = w[:dim]
    if not np.all(w > 0) or not np.all(np.isfinite(w)):
        raise ValidationError("weights must be strictly positive and finite")
    return Space(dim=dim, weights=w, num_seminorms=num_seminorms)


def seminorm(space: Space, p: int, y):
    """Value of |y|_p = max_{i <= min(p, dim)} w_i |y_i|.  An (N, dim) stack
    of vectors gives an (N,) array."""
    space.check_index(p)
    y = space.check_vector(y, stack=True)
    k = min(p, space.dim)
    norms = np.max(space.weights[:k] * np.abs(y[..., :k]), axis=-1)
    return float(norms) if y.ndim == 1 else norms


def dual_seminorm(space: Space, p: int, r):
    """Dual norm of a covector r against |.|_p: weighted l1 sum, inf off
    support.  An (N, dim) stack of covectors gives an (N,) array."""
    space.check_index(p)
    r = np.asarray(r, dtype=float)
    if r.ndim not in (1, 2) or r.shape[-1] != space.dim:
        raise ValidationError(
            f"covector shape {r.shape} is neither ({space.dim},) nor (N, {space.dim})"
        )
    k = min(p, space.dim)
    norms = np.sum(np.abs(r[..., :k]) / space.weights[:k], axis=-1)
    norms = np.where(np.any(r[..., k:] != 0.0, axis=-1), math.inf, norms)
    return float(norms) if r.ndim == 1 else norms


@dataclass(frozen=True)
class LinearOperator:
    """Matrix representative of a linear map between truncations."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValidationError("operator matrix must be 2-dimensional")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def operator_seminorm(
    space_src: Space, space_dst: Space, A: LinearOperator, p: int, q: int
) -> float:
    """Exact sup of |Ay|^q over the p-unit ball; inf when the ball is unbounded
    in a direction the q-seminorm sees."""
    space_src.check_index(p)
    space_dst.check_index(q)
    m = A.matrix
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
    rows = np.abs(m[:kb, :ka]) / space_src.weights[:ka]
    return float(np.max(space_dst.weights[:kb] * np.sum(rows, axis=1)))


@dataclass(frozen=True)
class NormalIndexReport:
    """Finiteness classification of an operator across all seminorm index pairs."""

    finite_sources: dict  # q -> frozenset of p with finite operator seminorm
    values: dict  # (p, q) -> finite operator seminorm value


def normal_index(
    space_src: Space, space_dst: Space, A: LinearOperator
) -> NormalIndexReport:
    """For every target index q, collect the source indices p with a finite bound."""
    finite = {}
    values = {}
    for q in range(1, space_dst.num_seminorms + 1):
        members = []
        for p in range(1, space_src.num_seminorms + 1):
            val = operator_seminorm(space_src, space_dst, A, p, q)
            if math.isfinite(val):
                members.append(p)
                values[(p, q)] = val
        finite[q] = frozenset(members)
    return NormalIndexReport(finite_sources=finite, values=values)


def unit_ball_vertices(space: Space, p: int):
    """Extreme points of the truncated p-unit ball; only complete when p >= dim."""
    space.check_index(p)
    k = min(p, space.dim)
    bounds = 1.0 / space.weights[:k]
    for signs in itertools.product((-1.0, 1.0), repeat=k):
        y = np.zeros(space.dim)
        y[:k] = np.array(signs) * bounds
        yield y
