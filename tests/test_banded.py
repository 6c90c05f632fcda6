"""Banded Newton steps and Jacobi eigenpairs against dense references.

The dense matrices are assembled here, entry by entry from the stencils, and
solved with numpy's dense routines; the package itself only builds bands.
The package's direct LAPACK calls are checked bit for bit against the scipy
wrappers that make the same calls.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import LinAlgError, solve_banded, solve_triangular
from scipy.linalg import qr as scipy_qr

import noether_lcs as nl
from noether_lcs import _lapack
from noether_lcs.curves import band_matvec, block_band, stencil_derivative
from noether_lcs.euler_lagrange import _interior_jacobian, _point, _residual, _solve_band
from noether_lcs.legendre_jacobi import _qr_step

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def dense_jacobian(L, grid, xs, xd):
    """Jacobian of the interior residual by the stencil dicts, one node at a
    time."""
    n, m = grid.n, xs.shape[1]
    lxx = L.second_partial("xx", grid.nodes, xs, xd)
    lxv = L.second_partial("xv", grid.nodes, xs, xd)
    lvv = L.second_partial("vv", grid.nodes, xs, xd)
    h2 = 2.0 * grid.h

    def stencil(j):
        if j == 0:
            return {0: -3.0 / h2, 1: 4.0 / h2, 2: -1.0 / h2}
        if j == n:
            return {n: 3.0 / h2, n - 1: -4.0 / h2, n - 2: 1.0 / h2}
        return {j - 1: -1.0 / h2, j + 1: 1.0 / h2}

    jac = np.zeros((n - 1, m, n - 1, m))

    def add(i, k, block):
        if 1 <= k <= n - 1:
            jac[i - 1, :, k - 1, :] += block

    for i in range(1, n):
        add(i, i, lxx[i])
        for k, c in stencil(i).items():
            add(i, k, c * lxv[i])
        for j, d in ((i + 1, 1.0 / h2), (i - 1, -1.0 / h2)):
            add(i, j, -d * lxv[j].T)
            for k, c in stencil(j).items():
                add(i, k, -d * c * lvv[j])
    return jac.reshape((n - 1) * m, (n - 1) * m)


def dense_accessory(R, Q, S, grid):
    """The matrix A of the discrete second variation divided by h, one cell
    at a time: u.A u is the sum over cells of d.R d + 2 d.Q w, with R and Q
    the averages over the cell's two nodes, d = (u_{i+1} - u_i)/h and
    w = (u_i + u_{i+1})/2, plus u_i.S_i u_i over the nodes; u vanishes at
    both ends."""
    n, m = grid.n, R.shape[1]
    eye = np.eye(m)
    D = np.hstack([-eye, eye]) / grid.h  # d from (u_i, u_{i+1})
    W = np.hstack([eye, eye]) / 2.0  # w from (u_i, u_{i+1})
    A = np.zeros(((n + 1) * m, (n + 1) * m))
    for i in range(n):
        r = 0.5 * (R[i] + R[i + 1])
        q = 0.5 * (Q[i] + Q[i + 1])
        cell = slice(i * m, (i + 2) * m)
        A[cell, cell] += D.T @ r @ D + D.T @ q @ W + W.T @ q.T @ D
    for i in range(n + 1):
        A[i * m : (i + 1) * m, i * m : (i + 1) * m] += S[i]
    A = A[m:-m, m:-m]
    return 0.5 * (A + A.T)


def lagrangian_source(dim, kin, pot, coupling, gyro, quartic, drift):
    """A catalog Lagrangian: weighted kinetic energy, a softening potential,
    a coordinate coupling, a gyroscopic term, a quartic velocity term and an
    explicit time dependence."""
    terms = [f"{kin[k]!r}*v{k + 1}^2/2 - {pot!r}*x{k + 1}^2/2" for k in range(dim)]
    terms += [
        f"{coupling!r}*x1*x{dim}",
        f"{gyro!r}*x1*v{dim}",
        f"{quartic!r}*v1^4/12",
        f"{drift!r}*t*x{dim}",
    ]
    return " + ".join(terms)


coefficient = st.floats(-1.0, 1.0)


@PROPERTY
@given(
    n=st.integers(4, 40),
    dim=st.sampled_from([1, 2, 3]),
    data=st.data(),
)
def test_banded_newton_step_matches_the_dense_solve(n, dim, data):
    kin = data.draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim))
    pot, quartic = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0))
    coupling, gyro, drift = (data.draw(coefficient) for _ in range(3))
    src = lagrangian_source(dim, kin, pot, coupling, gyro, quartic, drift)
    L = nl.compile_field(src, dim)
    grid = nl.Grid(0.0, 1.0, n)
    vector = st.lists(coefficient, min_size=dim, max_size=dim).map(np.array)
    xa, xb, bump = (data.draw(vector) for _ in range(3))
    t = grid.nodes[:, None]
    xs = xa + (xb - xa) * t + bump * np.sin(np.pi * t)
    # the step as solve_extremal takes it
    lx, lv, hess = _point(L, grid, xs)
    res = _residual(grid, lx, lv)
    step = _solve_band(_interior_jacobian(grid, *hess), res)
    xd = stencil_derivative(xs, grid.h)
    want = np.linalg.solve(dense_jacobian(L, grid, xs, xd), -res.reshape(-1))
    scale = float(np.max(np.abs(want)))
    assert np.max(np.abs(step.reshape(-1) - want)) <= 1e-12 * scale


def scattered_band(diagonals):
    """Band storage of a block matrix by one 2-D fancy scatter per block
    diagonal, its index arrays built on every call: the reference that
    ``block_band``'s cached flat plan must match byte for byte."""
    nb, m = len(diagonals[0]), diagonals[0].shape[1]
    u = (max(abs(d) for d in diagonals) + 1) * m - 1
    ab = np.zeros((2 * u + 1, nb * m))
    a = np.arange(m)
    rows = u + a[:, None] - a[None, :]
    for d, blocks in diagonals.items():
        cols = (m * np.arange(max(d, 0), nb + min(d, 0)))[:, None, None] + a
        ab[rows - d * m, cols] = blocks
    return ab


@pytest.mark.parametrize("offsets", [(-1, 0, 1), (-2, -1, 0, 1, 2)])
@pytest.mark.parametrize("nb", [3, 4, 200])
@pytest.mark.parametrize("m", [1, 2, 3, 16])
def test_block_band_is_the_scattered_band_byte_for_byte(m, nb, offsets):
    # nb = 3 is the interior of the N = 4 grid: its +-2 diagonals hold one
    # block each; the -1 diagonal is a transposed view, as jacobi_eigen's is
    rng = np.random.default_rng(1000 * m + nb + len(offsets))
    diagonals = {d: rng.normal(size=(nb - abs(d), m, m)) for d in offsets}
    diagonals[-1] = np.swapaxes(diagonals[1], 1, 2)
    for _ in range(2):  # the second call reads the cached plan
        ab = block_band(diagonals)
        assert ab.tobytes() == scattered_band(diagonals).tobytes()


@PROPERTY
@given(
    u=st.integers(0, 6),
    size=st.integers(1, 40),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_column_of_a_stacked_band_product_is_the_vector_product(u, size, k, seed):
    # the stack is a column slice of a wider block, as the eigensolve hands it
    rng = np.random.default_rng(seed)
    ab = rng.normal(size=(2 * u + 1, size)) * 10.0 ** rng.integers(-3, 4, (2 * u + 1, size))
    x = rng.normal(size=(size, k + 2))[:, 1 : k + 1]
    y = band_matvec(ab, x)
    assert y.shape == x.shape
    for j in range(k):
        assert y[:, j].tobytes() == band_matvec(ab, np.array(x[:, j])).tobytes()


def random_operators(rng, grid, dim, equal_oscillators):
    """SPD R, a non-symmetric Q and a symmetric S per node; with
    equal_oscillators every block is a multiple of the identity, so every
    eigenvalue is repeated dim times."""
    count = grid.n + 1
    if equal_oscillators:
        eye = np.eye(dim)
        R = rng.uniform(0.5, 2.0, count)[:, None, None] * eye
        S = rng.uniform(-3.0, 3.0, count)[:, None, None] * eye
        Q = rng.uniform(-3.0, 3.0, count)[:, None, None] * eye
        return R, Q, S
    A = rng.normal(size=(count, dim, dim))
    B = rng.normal(size=(count, dim, dim))
    R = A @ np.swapaxes(A, 1, 2) + 0.5 * np.eye(dim)
    return R, 3.0 * rng.normal(size=(count, dim, dim)), B + np.swapaxes(B, 1, 2)


@PROPERTY
@given(
    n=st.integers(4, 40),
    dim=st.sampled_from([1, 2, 3]),
    equal_oscillators=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    p_shift=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
    data=st.data(),
)
def test_banded_jacobi_matches_the_dense_eigensolve(
    n, dim, equal_oscillators, seed, p_shift, data
):
    k = data.draw(st.integers(1, min((n - 1) * dim, 6)))
    assert_jacobi_matches_the_dense_eigensolve(n, dim, equal_oscillators, seed, p_shift, k)


@pytest.mark.parametrize(
    ("n", "dim", "equal_oscillators", "seed", "k"),
    [(8, 3, False, 3581604948, 5), (8, 2, True, 3686712448, 6)],
)
def test_a_shift_within_roundoff_of_lambda_1_does_not_stall_the_eigensolve(
    n, dim, equal_oscillators, seed, k
):
    # draws on which a shift that kept following the lowest Ritz value after
    # it converged came within roundoff of lambda_1: A - sigma I was then
    # singular to roundoff, and the other pairs stalled above the tolerance
    assert_jacobi_matches_the_dense_eigensolve(n, dim, equal_oscillators, seed, 0.0, k)


def assert_jacobi_matches_the_dense_eigensolve(n, dim, equal_oscillators, seed, p_shift, k):
    grid = nl.Grid(0.0, 1.0, n)
    R, Q, S = random_operators(np.random.default_rng(seed), grid, dim, equal_oscillators)
    # S shifted by up to (pi/h)^2: down, many draws are indefinite; up, S
    # dominates and the wanted eigenvalues sit far from 0 but close together
    S = S + p_shift * (np.pi / grid.h) ** 2 * np.eye(dim)
    size = (n - 1) * dim
    ops = nl.JacobiOperators(grid=grid, R=R, Q=Q, S=S)
    pairs = nl.jacobi_eigen(ops, grid, k)
    A = dense_accessory(R, Q, S, grid)
    scale = float(np.max(np.abs(A)))
    want, vecs = np.linalg.eigh(A)
    got = np.array([lam for lam, _ in pairs])
    assert np.max(np.abs(got - want[:k])) <= 1e-12 * scale
    V = np.array([mode.values[1:-1].reshape(-1) for _, mode in pairs]).T
    V /= np.linalg.norm(V, axis=0)
    assert np.max(np.abs(V.T @ V - np.eye(k))) <= 1e-12
    residual = np.linalg.norm(A @ V - V * got, axis=0)
    # the eigensolve stops at 64 eps max|A| by its band product; the rest is
    # room for the roundoff of the dense product
    assert np.max(residual) <= 80 * np.finfo(float).eps * scale
    # clusters of the dense spectrum: the banded vectors of a cluster must
    # span the dense vectors' subspace (or lie in it, if k cuts the cluster)
    cuts = np.flatnonzero(np.diff(want) > 1e-6 * scale) + 1
    for cluster in np.split(np.arange(size), cuts):
        mine = cluster[cluster < k]
        if len(mine) == 0:
            break
        cos = np.linalg.svd(vecs[:, cluster].T @ V[:, mine], compute_uv=False)
        assert 1.0 - np.min(cos) <= 1e-10


# The Newton step and the eigensolve call LAPACK themselves; scipy's wrappers
# stay here as the reference paths, compared bit for bit.


@PROPERTY
@given(
    u=st.integers(2, 6),
    m=st.integers(1, 3),
    blocks=st.integers(1, 12),
    singular=st.sampled_from([None, "row", "column"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_newton_step_is_solve_bandeds_bit_for_bit(u, m, blocks, singular, seed):
    # the half-bandwidth u = 3m - 1 of the Newton Jacobian is at least 2, where
    # solve_banded calls gbsv; it divides instead for one unknown
    assume(m * blocks >= 2)
    size = m * blocks
    rng = np.random.default_rng(seed)
    ab = rng.normal(size=(2 * u + 1, size)) * 10.0 ** rng.integers(-3, 4, (2 * u + 1, size))
    j = int(rng.integers(size))
    if singular == "column":  # column j of A is zero
        ab[:, j] = 0.0
    elif singular == "row":  # row j of A, A[j, c] = ab[u + j - c, c], is zero
        c = np.arange(max(j - u, 0), min(j + u + 1, size))
        ab[u + j - c, c] = 0.0
    res = rng.normal(size=(blocks, m))
    try:
        want = solve_banded((u, u), ab, -res.reshape(-1), check_finite=False)
    except LinAlgError:
        want = None
    step = _solve_band(ab, res)
    assert (want is None) == (singular is not None)
    if want is None:
        assert step is None
    else:
        assert step.shape == res.shape and step.tobytes() == want.tobytes()


@PROPERTY
# p reaches past 128, where LAPACK's QR turns blocked and its work size sets the bits
@given(size=st.integers(1, 200), p=st.integers(1, 160), seed=st.integers(0, 2**32 - 1))
def test_the_eigensolve_qr_step_is_scipys_qr_and_triangular_solve_bit_for_bit(size, p, seed):
    p = min(p, size)
    rng = np.random.default_rng(seed)
    qr = _qr_step(_lapack.routines("geqrf", "orgqr", "trtrs"), size, p)
    # one step serves every block of its shape, in either memory order (pbtrs
    # hands it Fortran-ordered blocks)
    for order in ("F", "C"):
        a = rng.uniform(-1.0, 1.0, (size, p)) * 10.0 ** rng.integers(-3, 4, p)
        want_q, want_r = scipy_qr(a, mode="economic")
        q, r_inv = qr(np.array(a, order=order))
        assert q.shape == want_q.shape and q.tobytes() == want_q.tobytes()
        assert r_inv.tobytes() == solve_triangular(want_r, np.eye(p)).tobytes()
