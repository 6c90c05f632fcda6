import contextlib
from pathlib import Path

import numpy as np
import pytest

import noether_lcs as nl
from noether_lcs.problem import load_problem


def sine_mode(space, grid, k=1):
    span = grid.b - grid.a
    return nl.Curve.from_function(
        space, grid, lambda t: [np.sin(k * np.pi * (t - grid.a) / span)]
    )


def test_jacobi_operators_free_particle(line_space, free_particle):
    grid = nl.Grid(0.0, 1.0, 40)
    x = nl.Curve.from_function(line_space, grid, lambda t: [t])
    ops = nl.jacobi_operators(free_particle, x)
    assert np.allclose(ops.R, 1.0)
    assert np.allclose(ops.Q, 0.0)
    assert np.allclose(ops.S, 0.0)


def test_jacobi_operators_oscillator(line_space, oscillator):
    grid = nl.Grid(0.0, 1.0, 40)
    x = nl.Curve.from_function(line_space, grid, lambda t: [np.sin(t)])
    ops = nl.jacobi_operators(oscillator, x)
    assert np.allclose(ops.R, 1.0)
    assert np.allclose(ops.Q, 0.0)
    assert np.allclose(ops.S, -1.0)


def test_second_variation_free_particle_sine(line_space, free_particle):
    grid = nl.Grid(0.0, np.pi, 200)
    x = nl.Curve.from_function(line_space, grid, lambda t: [0.0])
    h = sine_mode(line_space, grid)
    # integral of cos^2 over [0, pi] is pi/2
    assert nl.second_variation(free_particle, x, h) == pytest.approx(
        np.pi / 2, abs=1e-3
    )


def test_second_variation_oscillator_null_direction(line_space, oscillator):
    grid = nl.Grid(0.0, np.pi, 200)
    x = nl.Curve.from_function(line_space, grid, lambda t: [0.0])
    h = sine_mode(line_space, grid)
    # sin is the conjugate-point direction of the oscillator over [0, pi]
    assert abs(nl.second_variation(oscillator, x, h)) <= 1e-3


def test_second_variation_matches_action_fd(line_space):
    L = nl.compile_field("(v1^2 - x1^2)/2 + x1^2*v1^2/4", dim=1)
    grid = nl.Grid(0.0, 1.0, 100)
    x = nl.Curve.from_function(line_space, grid, lambda t: [np.cos(t)])
    h = nl.Curve.from_function(line_space, grid, lambda t: [t * (1 - t)])
    d2 = nl.second_variation(L, x, h)
    eps = 1e-4
    j0 = nl.action(L, x)
    jp = nl.action(L, nl.Curve(line_space, grid, x.values + eps * h.values))
    jm = nl.action(L, nl.Curve(line_space, grid, x.values - eps * h.values))
    fd = (jp - 2 * j0 + jm) / eps**2
    assert d2 == pytest.approx(fd, abs=1e-5 * (1 + abs(d2)))


GOLDEN = Path(__file__).resolve().parent / "golden"
MAGNETIC = "(v1^2+v2^2)/2 + (x1*v2 - x2*v1)"  # a charge in a unit magnetic field


def second_difference_of_action(L, x, h, eps=1e-4):
    def at(c):
        return nl.action(L, nl.Curve(x.space, x.grid, x.values + c * h.values))

    return (at(eps) - 2.0 * at(0.0) + at(-eps)) / eps**2


def test_second_variation_is_the_second_derivative_of_the_action_under_a_gyroscopic_term():
    # anharmonic_d3 couples x_i to v_{i+1}, so L_vx is not symmetric; a
    # variation in x1 and x2 sees the coupling x1*v2
    prob = load_problem(GOLDEN / "anharmonic_d3.json")
    x = nl.read_curve_csv(prob.space, GOLDEN / "anharmonic_d3" / "solve" / "extremal.csv")
    h = nl.Curve.from_function(
        prob.space, x.grid, lambda t: [np.sin(np.pi * t), t * np.sin(np.pi * t), 0.0]
    )
    d2 = nl.second_variation(prob.lagrangian, x, h)
    assert d2 == pytest.approx(second_difference_of_action(prob.lagrangian, x, h), rel=1e-6)
    plane = nl.make_space(2, [1.0, 1.0], 2)
    grid = nl.Grid(0.0, 1.0, 200)
    L = nl.compile_field(MAGNETIC, 2)
    x = nl.Curve.from_function(plane, grid, lambda t: [np.sin(t), t**2])
    h = nl.Curve.from_function(plane, grid, lambda t: [t * (1 - t), t * np.sin(np.pi * t)])
    d2 = nl.second_variation(L, x, h)
    assert d2 == pytest.approx(second_difference_of_action(L, x, h), rel=1e-6)


def test_jacobi_eigen_matches_the_magnetic_closed_form():
    # -h'' - 2J h' = lambda h with Dirichlet ends on [0, 1]: each (k pi)^2 - 1
    # twice; the cell discretization is second order in h
    plane = nl.make_space(2, [1.0, 1.0], 2)
    L = nl.compile_field(MAGNETIC, 2)
    want = np.array([np.pi**2 - 1] * 2 + [4 * np.pi**2 - 1] * 2)
    errors = []
    for n in (200, 400):
        grid = nl.Grid(0.0, 1.0, n)
        x = nl.Curve(plane, grid, np.zeros((n + 1, 2)))
        got = np.array([lam for lam, _ in nl.jacobi_eigen(nl.jacobi_operators(L, x), grid, 4)])
        errors.append(np.max(np.abs(got - want) / want))
    assert errors[0] <= 1e-4
    assert errors[1] <= errors[0] / 3


def test_second_variation_rejects_nonvanishing_endpoints(line_space, free_particle):
    grid = nl.Grid(0.0, 1.0, 20)
    x = nl.Curve.from_function(line_space, grid, lambda t: [t])
    h = nl.Curve.from_function(line_space, grid, lambda t: [1.0])
    with pytest.raises(nl.ValidationError):
        nl.second_variation(free_particle, x, h)


def test_legendre_pass_kinetic(line_space, free_particle):
    grid = nl.Grid(0.0, 1.0, 40)
    x = nl.Curve.from_function(line_space, grid, lambda t: [t])
    rep = nl.legendre_check(free_particle, x)
    assert rep.passed
    assert rep.global_min == pytest.approx(1.0)


def test_legendre_fail_reversed_sign(line_space):
    L = nl.compile_field("-v1^2/2", dim=1)
    grid = nl.Grid(0.0, 1.0, 40)
    x = nl.Curve.from_function(line_space, grid, lambda t: [t])
    rep = nl.legendre_check(L, x)
    assert not rep.passed
    assert len(rep.violating_nodes) == grid.n + 1
    assert rep.global_min == pytest.approx(-1.0)


def test_legendre_quartic_along_slope_one(line_space):
    L = nl.compile_field("v1^4/4", dim=1)
    grid = nl.Grid(0.0, 1.0, 40)
    x = nl.Curve.from_function(line_space, grid, lambda t: [t])
    rep = nl.legendre_check(L, x)
    assert rep.passed
    # d2/dv2 (v^4/4) = 3 v^2 = 3 along slope-one lines
    assert rep.global_min == pytest.approx(3.0, abs=1e-8)


def test_legendre_degenerate_is_not_a_violation(line_space):
    L = nl.compile_field("v1^4/4", dim=1)
    grid = nl.Grid(0.0, 1.0, 40)
    x = nl.Curve.from_function(line_space, grid, lambda t: [0.0])
    rep = nl.legendre_check(L, x)
    assert rep.passed
    assert rep.global_min == pytest.approx(0.0, abs=1e-12)


def test_negative_witness_from_violation(line_space):
    L = nl.compile_field("-v1^2/2 + x1^2", dim=1)
    grid = nl.Grid(0.0, 1.0, 100)
    x = nl.Curve.from_function(line_space, grid, lambda t: [0.0])
    rep = nl.legendre_check(L, x)
    assert not rep.passed
    h, value = nl.negative_second_variation_witness(L, x, rep)
    assert value < 0.0
    assert np.max(np.abs(h.values[[0, -1]])) == 0.0


def test_witness_requires_violation(line_space, free_particle):
    grid = nl.Grid(0.0, 1.0, 40)
    x = nl.Curve.from_function(line_space, grid, lambda t: [t])
    rep = nl.legendre_check(free_particle, x)
    with pytest.raises(nl.ValidationError):
        nl.negative_second_variation_witness(free_particle, x, rep)


def test_jacobi_eigen_dirichlet_laplacian():
    grid = nl.Grid(0.0, np.pi, 200)
    ops = nl.constant_operators(grid, 1.0, 0.0)
    pairs = nl.jacobi_eigen(ops, grid, 3)
    vals = [lam for lam, _ in pairs]
    for got, want in zip(vals, (1.0, 4.0, 9.0)):
        assert abs(got - want) <= 0.01 * want


def test_jacobi_eigen_shift_property():
    grid = nl.Grid(0.0, np.pi, 120)
    base = nl.constant_operators(grid, 1.0, 0.0)
    shifted = nl.constant_operators(grid, 1.0, 2.5)
    lam0 = [lam for lam, _ in nl.jacobi_eigen(base, grid, 4)]
    lam1 = [lam for lam, _ in nl.jacobi_eigen(shifted, grid, 4)]
    for a, b in zip(lam0, lam1):
        assert b - a == pytest.approx(2.5, abs=1e-10)


def test_jacobi_eigen_conjugate_point_marginal():
    grid = nl.Grid(0.0, np.pi, 200)
    ops = nl.constant_operators(grid, 1.0, -1.0)
    lam, mode = nl.jacobi_eigen(ops, grid, 1)[0]
    assert abs(lam) <= 1e-3
    # eigenfunction is the first Dirichlet sine, up to sign and L2 scale
    target = np.sin(grid.nodes)
    target /= np.sqrt(grid.h * np.sum(target**2))
    flat = mode.values[:, 0]
    err = min(np.max(np.abs(flat - target)), np.max(np.abs(flat + target)))
    assert err <= 1e-3


def test_jacobi_eigen_eigenfunction_normalization():
    grid = nl.Grid(0.0, 1.0, 60)
    ops = nl.constant_operators(grid, 2.0, 1.0)
    for lam, mode in nl.jacobi_eigen(ops, grid, 2):
        l2 = grid.h * np.sum(mode.values**2)
        assert l2 == pytest.approx(1.0, abs=1e-12)
        assert np.all(mode.values[[0, -1]] == 0.0)


def test_jacobi_eigen_k_validation():
    grid = nl.Grid(0.0, 1.0, 10)
    ops = nl.constant_operators(grid, 1.0, 0.0)
    with pytest.raises(nl.ValidationError):
        nl.jacobi_eigen(ops, grid, 0)
    with pytest.raises(nl.ValidationError):
        nl.jacobi_eigen(ops, grid, 100)


@pytest.mark.parametrize("other", [nl.Grid(0.0, 2.0, 100), nl.Grid(0.0, 1.0, 50)])
def test_jacobi_eigen_rejects_a_grid_that_is_not_the_operators(other):
    # h is read from the grid argument: on [0, 2] the spectrum of the [0, 1]
    # operators came out 4 times too small
    ops = nl.constant_operators(nl.Grid(0.0, 1.0, 100), 1.0, 0.0)
    with pytest.raises(nl.ValidationError, match=r"n=100 on \[0.0, 1.0\].*jacobi_eigen grid"):
        nl.jacobi_eigen(ops, other, 2)


def test_jacobi_eigen_accepts_a_grid_whose_end_differs_in_the_last_bit():
    # a grid read back from CSV ends within roundoff of the problem's
    ops = nl.constant_operators(nl.Grid(0.0, 1.0, 100), 1.0, 0.0)
    near = nl.Grid(0.0, np.nextafter(1.0, 2.0), 100)
    lam = [ev for ev, _ in nl.jacobi_eigen(ops, near, 2)]
    assert lam == pytest.approx([ev for ev, _ in nl.jacobi_eigen(ops, ops.grid, 2)], rel=1e-12)


def test_jacobi_eigen_of_an_asymmetric_R_is_the_spectrum_of_sym_R():
    # a quadratic form reads h'.R h' and h.S h only through sym R and sym S
    grid = nl.Grid(0.0, 1.0, 40)
    rng = np.random.default_rng(5)
    A = rng.normal(size=(grid.n + 1, 2, 2))
    sym_R = A @ np.swapaxes(A, 1, 2) + 0.5 * np.eye(2)
    skew = rng.normal(size=(grid.n + 1, 2, 2))
    skew -= np.swapaxes(skew, 1, 2)
    S, Q = np.zeros_like(sym_R), np.zeros_like(sym_R)
    want = nl.jacobi_eigen(nl.JacobiOperators(grid=grid, R=sym_R, Q=Q, S=S), grid, 4)
    got = nl.jacobi_eigen(nl.JacobiOperators(grid=grid, R=sym_R + skew, Q=Q, S=S + skew), grid, 4)
    assert [lam for lam, _ in got] == pytest.approx([lam for lam, _ in want], rel=1e-12)


def test_jacobi_eigen_from_solved_oscillator(line_space):
    L = nl.compile_field("(v1^2 - x1^2)/2", dim=1)
    grid = nl.Grid(0.0, np.pi / 2, 200)
    sp = line_space
    x = nl.solve_extremal(
        L, nl.BoundaryConditions([0.0], [1.0]), grid, sp, nl.SolverConfig()
    )
    ops = nl.jacobi_operators(L, x)
    lam, _ = nl.jacobi_eigen(ops, grid, 1)[0]
    # -h'' - h = lambda h on [0, pi/2]: smallest eigenvalue 2^2 - 1 = 3
    assert lam == pytest.approx(3.0, abs=0.01)


def test_jacobi_modes_take_the_sign_of_their_largest_value():
    # the discrete Dirichlet modes are +-sin(k t) at the nodes.  For k = 2
    # and 4 the peaks of |sin(k t)| at the nodes tie in exact arithmetic, with
    # both signs, and the first one (sin = +1) is made positive; for k = 3
    # only the node t = pi/2 reaches |sin(3 t)| = 1, where sin(3 t) = -1
    grid = nl.Grid(0.0, np.pi, 200)
    pairs = nl.jacobi_eigen(nl.constant_operators(grid, 1.0, 0.0), grid, 4)
    for k, sign, (_, mode) in zip((1, 2, 3, 4), (1, 1, -1, 1), pairs):
        target = sign * np.sin(k * grid.nodes)
        target /= np.sqrt(grid.h * np.sum(target**2))
        assert np.max(np.abs(mode.values[:, 0] - target)) <= 1e-9


def near_equal(dim, spread=1e-5):
    """(c, p) of a chain of dim oscillators whose (c_i, -p_i) differ from
    (1, 1) by at most ``spread``, shuffled apart, so the lowest dim
    eigenvalues lie within about 10 spread of each other."""
    i = np.arange(dim)
    return 1.0 + spread * (7 * i % dim) / dim, -(1.0 + spread * (5 * i % dim) / dim)


@pytest.mark.parametrize(
    ("length", "n", "c", "p"),
    [
        (1.0, 800, (1.0, 1.0, 1.0), (-1.1, -1.0, -0.9)),
        (1.0, 3200, (1.0, 1.0, 1.0), (-1.1, -1.0, -0.9)),
        (1.0, 800, (1.0, 1.0, 1.0), (-301.1, -301.0, -300.9)),
        (1.0, 3200, (1.0, 1.0, 1.0), (-301.1, -301.0, -300.9)),
        (1.0, 200, (1.0, 1.0, 1.0), (1e4, 1e4, 1e4)),
        (100.0, 200, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
        (1.0, 200, *near_equal(16)),
        (1.0, 100, *near_equal(32)),
        (1.0, 200, *near_equal(16, spread=1e-6)),
        (1.0, 200, *near_equal(64, spread=1e-6)),
    ],
    ids=["n800", "n3200", "n800-indefinite", "n3200-indefinite", "p1e4", "long",
         "d16-clustered", "d32-clustered", "d16-clustered-1e-6", "d64-clustered-1e-6"],
)
def test_jacobi_eigenvalues_are_exact_to_roundoff(length, n, c, p):
    # R = diag(c), Q = 0 and a diagonal S decouple the coordinates into
    # Dirichlet second differences, whose eigenvalues are exactly
    # (4 c_i/h^2) sin^2(j pi/(2n)) + p_i.  S near -300 makes A indefinite; a
    # large S, or S = 1 on a long interval, puts the wanted eigenvalues far
    # above 0 and close together relative to their size; a wide chain of
    # near-equal oscillators puts many eigenvalues next to the 3 wanted, so
    # the eigensolve's block meets a dense low spectrum
    grid = nl.Grid(0.0, length, n)
    c, p = np.array(c), np.array(p)
    R = np.repeat(np.diag(c)[None], n + 1, axis=0)
    S = np.repeat(np.diag(p)[None], n + 1, axis=0)
    pairs = nl.jacobi_eigen(nl.JacobiOperators(grid=grid, R=R, Q=np.zeros_like(R), S=S), grid, 3)
    j = np.arange(1, 4)[:, None]
    exact = np.sort(4.0 * c / grid.h**2 * np.sin(j * np.pi / (2 * n)) ** 2 + p, axis=None)[:3]
    scale = float(np.max(np.abs(2.0 * c / grid.h**2 + p)))  # max|A|, on the diagonal
    got = np.array([lam for lam, _ in pairs])
    assert np.max(np.abs(got - exact)) <= np.finfo(float).eps * scale


def test_jacobi_eigen_raises_rather_than_return_unconverged_pairs(monkeypatch):
    from noether_lcs import legendre_jacobi

    grid = nl.Grid(0.0, 1.0, 200)
    ops = nl.constant_operators(grid, 1.0, 0.0)
    monkeypatch.setattr(legendre_jacobi, "_MAX_SWEEPS", 2)
    named = r"k=3 did not converge in 2 sweeps \(worst Ritz residual \d\.\d{3}e[+-]\d+"
    with pytest.raises(nl.SolverError, match=named):
        nl.jacobi_eigen(ops, grid, 3)


@contextlib.contextmanager
def counted_band_calls():
    """The LAPACK band Cholesky factorizations (pbtrf) and solves (pbtrs)
    made in the block, by name; the eigensolve makes one solve per sweep."""
    from noether_lcs import _lapack

    real, calls = _lapack.routines, {"pbtrf": [], "pbtrs": []}

    def counted(f, name):
        def call(*args, **kwargs):
            calls[name].append(f)
            return f(*args, **kwargs)

        return call

    def routines(*names):
        funcs = real(*names)
        return tuple(counted(f, name) if name in calls else f for name, f in zip(names, funcs))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_lapack, "routines", routines)
        yield calls


def test_the_eigensolve_of_the_d3_oscillator_chain_makes_at_most_6_band_choleskys():
    # the analyze benchmark's d3 n=800 oscillator (seed 1): the Gershgorin
    # factor and a few moves of the shift toward the lowest Ritz value
    grid = nl.Grid(0.0, 1.0, 800)
    c, k = np.array([1.275, 1.127, 1.521]), np.array([1.767, 0.599, 1.548])
    eye = np.repeat(np.eye(3)[None], grid.n + 1, axis=0)
    ops = nl.JacobiOperators(grid=grid, R=c * eye, Q=0.0 * eye, S=-k * eye)
    with counted_band_calls() as calls:
        pairs = nl.jacobi_eigen(ops, grid, 3)
    assert 1 <= len(calls["pbtrf"]) <= 6
    j = np.arange(1, 4)[:, None]
    exact = np.sort(4.0 * c / grid.h**2 * np.sin(j * np.pi / (2 * grid.n)) ** 2 - k, axis=None)[:3]
    scale = float(np.max(2.0 * c / grid.h**2 - k))
    assert np.max(np.abs(np.array([lam for lam, _ in pairs]) - exact)) <= np.finfo(float).eps * scale


@pytest.mark.parametrize(("dim", "n"), [(16, 400), (64, 200)])
@pytest.mark.parametrize("spread", [1e-1, 1e-6])
def test_clustered_chains_converge_within_25_sweeps(dim, n, spread):
    # at spread 1e-6 the 64 lowest eigenvalues lie within 1e-5 of each other,
    # about 1e-10 max|A|: only a shift that follows the Ritz values into the
    # cluster separates them in the inverted spectrum.  These take 11 to 22
    grid = nl.Grid(0.0, 1.0, n)
    c, p = near_equal(dim, spread)
    R = np.repeat(np.diag(c)[None], n + 1, axis=0)
    S = np.repeat(np.diag(p)[None], n + 1, axis=0)
    with counted_band_calls() as calls:
        nl.jacobi_eigen(nl.JacobiOperators(grid=grid, R=R, Q=np.zeros_like(R), S=S), grid, 3)
    assert 1 <= len(calls["pbtrs"]) <= 25
