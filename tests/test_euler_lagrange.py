import numpy as np
import pytest

import noether_lcs as nl


def solve(src, xa, xb, a, b, n, dim=1, **cfg):
    sp = nl.make_space(dim, np.ones(dim), dim)
    L = nl.compile_field(src, dim)
    curve = nl.solve_extremal(
        L, nl.BoundaryConditions(xa, xb), nl.Grid(a, b, n), sp, nl.SolverConfig(**cfg)
    )
    return L, curve


def endpoint_vanishing(grid, space, f):
    return nl.Curve.from_function(space, grid, f)


def test_first_variation_zero_variation(line_space, free_particle):
    grid = nl.Grid(0.0, 1.0, 50)
    x = nl.Curve.from_function(line_space, grid, lambda t: [t])
    h = nl.Curve.from_function(line_space, grid, lambda t: [0.0])
    assert nl.first_variation(free_particle, x, h) == 0.0


def test_first_variation_straight_line_extremal(line_space, free_particle):
    grid = nl.Grid(0.0, 1.0, 100)
    x = nl.Curve.from_function(line_space, grid, lambda t: [t])
    h = nl.Curve.from_function(line_space, grid, lambda t: [t * (1 - t) * np.sin(3 * t)])
    assert abs(nl.first_variation(free_particle, x, h)) <= 10 * grid.h**2


def test_first_variation_quadratic_curve(line_space, free_particle):
    grid = nl.Grid(0.0, 1.0, 200)
    x = nl.Curve.from_function(line_space, grid, lambda t: [t * t])
    h = nl.Curve.from_function(line_space, grid, lambda t: [t * (1 - t)])
    assert nl.first_variation(free_particle, x, h) == pytest.approx(-1.0 / 3.0, abs=1e-9)


def test_first_variation_matches_action_fd(line_space):
    L = nl.compile_field("(v1^2 - x1^2)/2 + x1*v1", dim=1)
    grid = nl.Grid(0.0, 1.0, 100)
    x = nl.Curve.from_function(line_space, grid, lambda t: [np.cos(t)])
    h = nl.Curve.from_function(line_space, grid, lambda t: [t * (1 - t)])
    fv = nl.first_variation(L, x, h)
    eps = 1e-5
    jp = nl.action(L, nl.Curve(line_space, grid, x.values + eps * h.values)).value
    jm = nl.action(L, nl.Curve(line_space, grid, x.values - eps * h.values)).value
    assert abs(fv - (jp - jm) / (2 * eps)) <= 1e-5 * (1 + abs(fv))


def test_el_residual_straight_line(line_space, free_particle):
    grid = nl.Grid(0.0, 1.0, 50)
    x = nl.Curve.from_function(line_space, grid, lambda t: [t])
    assert nl.el_residual(free_particle, x).max_norm <= 1e-10


def test_el_residual_sine_oscillator(line_space, oscillator):
    grid = nl.Grid(0.0, np.pi, 400)
    x = nl.Curve.from_function(line_space, grid, lambda t: [np.sin(t)])
    res = nl.el_residual(oscillator, x)
    # one-sided endpoint stencils carry a larger error constant
    assert np.max(np.abs(res.residuals[1:-1])) <= 10 * grid.h**2
    assert res.max_norm <= 50 * grid.h**2


def test_el_residual_quadratic_curve(line_space, free_particle):
    grid = nl.Grid(0.0, 1.0, 50)
    x = nl.Curve.from_function(line_space, grid, lambda t: [t * t])
    res = nl.el_residual(free_particle, x)
    # -d/dt (2t) = -2 at interior nodes
    inner = res.residuals[2:-2, 0]
    assert inner == pytest.approx(-2.0 * np.ones_like(inner), abs=1e-9)


def test_solve_free_particle_is_linear():
    _, c = solve("v1^2/2", [0.0], [1.0], 0.0, 1.0, 100)
    assert np.max(np.abs(c.values[:, 0] - c.grid.nodes)) <= 1e-10


def test_solve_oscillator_matches_sine():
    L, c = solve("(v1^2 - x1^2)/2", [0.0], [1.0], 0.0, np.pi / 2, 200)
    assert np.max(np.abs(c.values[:, 0] - np.sin(c.grid.nodes))) <= 1e-3
    assert nl.el_residual(L, c).max_norm <= 1e-8


def test_solve_decoupled_3d_lines():
    _, c = solve(
        "(v1^2 + v2^2 + v3^2)/2", [0.0, 0.0, 0.0], [1.0, 2.0, 3.0], 0.0, 1.0, 60, dim=3
    )
    expect = np.outer(c.grid.nodes, [1.0, 2.0, 3.0])
    assert np.max(np.abs(c.values - expect)) <= 1e-9


def test_solve_mesh_refinement_second_order():
    errs = []
    for n in (100, 200):
        _, c = solve("(v1^2 - x1^2)/2", [0.0], [1.0], 0.0, np.pi / 2, n)
        errs.append(np.max(np.abs(c.values[:, 0] - np.sin(c.grid.nodes))))
    assert errs[0] / errs[1] >= 3.5


def test_solve_respects_boundary_exactly():
    _, c = solve("(v1^2 - x1^2)/2", [0.3], [0.7], 0.0, 1.0, 80)
    assert c.values[0, 0] == 0.3
    assert c.values[-1, 0] == 0.7


def test_solve_rejects_odd_grid(line_space, free_particle):
    with pytest.raises(nl.ValidationError):
        nl.solve_extremal(
            free_particle,
            nl.BoundaryConditions([0.0], [1.0]),
            nl.Grid(0.0, 1.0, 9),
            line_space,
        )


def test_solver_error_reports_history(line_space):
    # concave-in-v Lagrangian with incompatible endpoints cannot converge fast;
    # force failure with a tiny iteration budget
    L = nl.compile_field("exp(x1)*v1^2/2 + sin(5*x1)", dim=1)
    with pytest.raises(nl.SolverError) as err:
        nl.solve_extremal(
            L,
            nl.BoundaryConditions([0.0], [3.0]),
            nl.Grid(0.0, 1.0, 40),
            line_space,
            nl.SolverConfig(tol=1e-14, max_iter=1),
        )
    assert err.value.residual_history


def test_singular_newton_jacobian_raises_solver_error(line_space):
    # L_x = v + 1 and L_v = x, so the residual is identically 1 and the
    # Jacobian identically 0
    L = nl.compile_field("x1*v1 + x1", dim=1)
    named = r"singular Newton Jacobian near node 1 \(t=0\.05\)"
    with pytest.raises(nl.SolverError, match=named) as err:
        nl.solve_extremal(
            L, nl.BoundaryConditions([0.0], [1.0]), nl.Grid(0.0, 1.0, 20), line_space
        )
    assert err.value.residual_history == [pytest.approx(1.0)]


def test_discrete_stationarity_random_variations(line_space):
    rng = np.random.default_rng(77)
    L, c = solve("(v1^2 - x1^2)/2", [0.0], [1.0], 0.0, np.pi / 2, 200)
    grid = c.grid
    span = grid.b - grid.a
    for _ in range(20):
        coeffs = rng.uniform(-1, 1, size=5)
        f = lambda t: [
            sum(
                a * np.sin((k + 1) * np.pi * (t - grid.a) / span)
                for k, a in enumerate(coeffs)
            )
        ]
        h = nl.Curve.from_function(line_space, grid, f)
        scale = np.max(np.abs(h.values)) or 1.0
        h = nl.Curve(line_space, grid, h.values / scale)
        assert abs(nl.first_variation(L, c, h)) <= 10 * grid.h**2


def test_newton_iteration_costs_a_fixed_number_of_jet_calls(monkeypatch):
    # every residual and Jacobian is one stacked jet call per block, so the
    # count per Newton iteration does not grow with the grid
    calls, jacobians = [], []
    evaluate = nl.dsl.evaluate
    assemble = nl.euler_lagrange._interior_jacobian

    def counting(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    def counting_jacobian(*args):
        jacobians.append(1)
        return assemble(*args)

    monkeypatch.setattr(nl.dsl, "evaluate", counting)
    monkeypatch.setattr(nl.euler_lagrange, "_interior_jacobian", counting_jacobian)
    for n in (40, 320):
        calls.clear()
        jacobians.clear()
        solve("v1^2/2 + v1^4/12 - x1^2/2", [0.0], [1.0], 0.0, 1.0, n)
        assert jacobians
        assert len(calls) <= 15 * len(jacobians)
