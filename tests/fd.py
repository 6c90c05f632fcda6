"""Finite differences of a field's values: the reference the exact jets are
tested against.

``directional_derivative`` is a Richardson-extrapolated central difference
along a direction; ``block`` makes one block of a field's jet (see
``fields.BLOCKS``) from the field's values alone, over the slots of
z = (t, x1..xm, v1..vm): a first partial by ``directional_derivative`` per
slot, a second partial by three- or four-point second differences.
"""

import numpy as np

from noether_lcs.fields import EvaluationError, _read, slots

_EPS = np.finfo(float).eps

# the base step of a second difference, scaled per slot by (1 + |z_k|)
SECOND_STEP = _EPS**0.25


def directional_derivative(f, base, h, step: float = _EPS ** (1.0 / 3.0)):
    """Derivative of f at ``base`` along ``h`` by Richardson-extrapolated
    central differences; works for scalar- and vector-valued f.  The base
    ``step``, scaled by (1 + max |base|), balances truncation against
    roundoff for a first derivative."""
    base = np.asarray(base, dtype=float)
    h = np.asarray(h, dtype=float)
    eps = step * (1.0 + float(np.max(np.abs(base))))

    def probe(e):
        val = np.asarray(f(base + e * h), dtype=float)
        if not np.all(np.isfinite(val)):
            raise EvaluationError(f"non-finite evaluation at {base + e * h}")
        return val

    d1 = (probe(eps) - probe(-eps)) / (2.0 * eps)
    d2 = (probe(eps / 2.0) - probe(-eps / 2.0)) / eps
    d1 = (4.0 * d2 - d1) / 3.0
    if d1.ndim == 0:
        return float(d1)
    return d1


def block(field, name: str, t, x, v):
    """Block ``name`` of ``field``'s jet from values of the field alone, in
    the shape the field's own read gives: at one point, or point by point on
    a stack.  Each unordered slot pair of a second partial is differenced
    once, so 'vx' is 'xv'.T and 'xx', 'vv' are symmetric exactly."""
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    if x.ndim == 2:
        return np.array([block(field, name, *p) for p in zip(t, x, v)])
    m = field.dim
    z = np.concatenate([[t], x, v])

    def at(*slot_values):
        zs = z.copy()
        for k, value in slot_values:
            zs[k] = value
        return field(zs[0], zs[1 : m + 1], zs[m + 1 :])

    rows = slots(name[0], m)
    if len(name) == 1:
        grad = np.zeros(len(z))
        for k in rows:
            grad[k] = directional_derivative(lambda s: at((k, s)), z[k], 1.0)
        return _read(name, m, grad, None)
    cols = slots(name[1], m)
    e = SECOND_STEP * (1.0 + np.abs(z))
    up, down = z + e, z - e
    f0 = at() if rows == cols else None

    def second(i, j):
        if i == j:
            return (at((i, up[i])) - 2.0 * f0 + at((i, down[i]))) / e[i] ** 2
        return (
            at((i, up[i]), (j, up[j]))
            - at((i, up[i]), (j, down[j]))
            - at((i, down[i]), (j, up[j]))
            + at((i, down[i]), (j, down[j]))
        ) / (4.0 * e[i] * e[j])

    hess = np.zeros((len(z), len(z)))
    for i, j in {(min(i, j), max(i, j)) for i in rows for j in cols}:
        hess[i, j] = hess[j, i] = second(i, j)
    return _read(name, m, None, hess)
