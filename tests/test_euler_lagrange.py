import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import noether_lcs as nl
import variations


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
    assert variations.first_variation(free_particle, x, h) == 0.0


def test_first_variation_straight_line_extremal(line_space, free_particle):
    grid = nl.Grid(0.0, 1.0, 100)
    x = nl.Curve.from_function(line_space, grid, lambda t: [t])
    h = nl.Curve.from_function(line_space, grid, lambda t: [t * (1 - t) * np.sin(3 * t)])
    assert abs(variations.first_variation(free_particle, x, h)) <= 10 * grid.h**2


def test_first_variation_quadratic_curve(line_space, free_particle):
    grid = nl.Grid(0.0, 1.0, 200)
    x = nl.Curve.from_function(line_space, grid, lambda t: [t * t])
    h = nl.Curve.from_function(line_space, grid, lambda t: [t * (1 - t)])
    assert variations.first_variation(free_particle, x, h) == pytest.approx(-1.0 / 3.0, abs=1e-9)


def test_first_variation_matches_action_fd(line_space):
    L = nl.compile_field("(v1^2 - x1^2)/2 + x1*v1", dim=1)
    grid = nl.Grid(0.0, 1.0, 100)
    x = nl.Curve.from_function(line_space, grid, lambda t: [np.cos(t)])
    h = nl.Curve.from_function(line_space, grid, lambda t: [t * (1 - t)])
    fv = variations.first_variation(L, x, h)
    eps = 1e-5
    jp = nl.action(L, nl.Curve(line_space, grid, x.values + eps * h.values))
    jm = nl.action(L, nl.Curve(line_space, grid, x.values - eps * h.values))
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
        assert abs(variations.first_variation(L, c, h)) <= 10 * grid.h**2


def test_newton_iteration_costs_a_fixed_number_of_jet_calls(monkeypatch):
    # every point the solve visits is one stacked jet call, so the count per
    # Newton iteration does not grow with the grid
    calls, jacobians, residuals = [], [], []
    evaluate = nl.dsl.evaluate
    el = nl.euler_lagrange
    assemble, residual = el._interior_jacobian, el._residual

    def counting(e, t, x, v, order=0):
        calls.append(order)
        return evaluate(e, t, x, v, order=order)

    def counting_jacobian(*args):
        jacobians.append(1)
        return assemble(*args)

    def counting_residual(*args):
        residuals.append(1)
        return residual(*args)

    L = nl.compile_field("v1^2/2 + v1^4/12 - x1^2/2", dim=1)  # parsing folds with evaluate
    monkeypatch.setattr(nl.dsl, "evaluate", counting)
    monkeypatch.setattr(el, "_interior_jacobian", counting_jacobian)
    monkeypatch.setattr(el, "_residual", counting_residual)
    space, bc = nl.make_space(1, np.ones(1), 1), nl.BoundaryConditions([0.0], [1.0])
    for n in (40, 320):
        calls.clear()
        jacobians.clear()
        residuals.clear()
        nl.solve_extremal(L, bc, nl.Grid(0.0, 1.0, n), space)
        assert jacobians
        assert len(calls) <= 15 * len(jacobians)
        # one order-2 jet per point visited, the first iterate and each
        # line-search trial (each forms its residual); no order-1 jet: the
        # Jacobian reads its xx, xv and vv blocks from the accepted trial's
        assert set(calls) == {2}
        assert len(calls) == len(residuals)


def test_newton_carries_the_accepted_trial_residual(monkeypatch, line_space):
    # the oscillator's Euler-Lagrange system is linear, so one full Newton
    # step (one line-search trial) converges; the residual of the accepted
    # trial is the next iteration's, not computed again
    L = nl.compile_field("(v1^2 - x1^2)/2", dim=1)
    orders = []
    evaluate = nl.dsl.evaluate

    def counting(e, t, x, v, order=0):
        orders.append(order)
        return evaluate(e, t, x, v, order=order)

    monkeypatch.setattr(nl.dsl, "evaluate", counting)
    bc = nl.BoundaryConditions([0.0], [1.0])
    nl.solve_extremal(L, bc, nl.Grid(0.0, np.pi / 2, 40), line_space)
    # one order-2 jet at the start (dL/dx and dL/dv, and the xx, xv and vv
    # blocks of the first Jacobian) and one at the one trial
    assert orders == [2, 2]


def test_line_search_refuses_a_trial_where_a_jet_is_not_finite(monkeypatch, line_space):
    # the first trial's jet is made non-finite at one node: the line search
    # refuses it as a trial with larger ratios and halves the step, as it
    # does for a NaN residual, and the solve still converges
    L = nl.compile_field("(v1^2 - x1^2)/2", dim=1)
    orders = []
    evaluate = nl.dsl.evaluate

    def overflowing_first_trial(e, t, x, v, order=0):
        orders.append(order)
        r = evaluate(e, t, x, v, order=order)
        if len(orders) == 2:  # the first call reads the first iterate
            r.value[7] = np.inf
        return r

    monkeypatch.setattr(nl.dsl, "evaluate", overflowing_first_trial)
    bc = nl.BoundaryConditions([0.0], [1.0])
    grid = nl.Grid(0.0, np.pi / 2, 40)
    curve = nl.solve_extremal(L, bc, grid, line_space)
    assert orders[:3] == [2, 2, 2]
    assert nl.meets_stopping_rule(L, curve, nl.SolverConfig().tol)


def test_line_search_refuses_a_trial_whose_hessian_block_is_not_finite(
    monkeypatch, line_space
):
    # the first trial's value and covectors are finite, its xx block is not
    # at one node: the trial's jet holds the next Jacobian's blocks, so the
    # line search refuses it and halves the step, and the solve converges
    L = nl.compile_field("(v1^2 - x1^2)/2", dim=1)
    orders = []
    evaluate = nl.dsl.evaluate

    def overflowing_first_trial(e, t, x, v, order=0):
        orders.append(order)
        r = evaluate(e, t, x, v, order=order)
        if len(orders) == 2:
            r.hess[7, 1, 1] = np.inf  # slot 1 is x1
        return r

    monkeypatch.setattr(nl.dsl, "evaluate", overflowing_first_trial)
    bc = nl.BoundaryConditions([0.0], [1.0])
    curve = nl.solve_extremal(L, bc, nl.Grid(0.0, np.pi / 2, 40), line_space)
    # the first iterate, the refused full step and the halved step: one
    # order-2 jet each
    assert orders[:3] == [2, 2, 2]
    assert nl.meets_stopping_rule(L, curve, nl.SolverConfig().tol)


def test_line_search_refuses_a_trial_outside_the_domain_of_the_lagrangian(line_space):
    # the extremal stays above x = 0.2, but a full Newton step of an early
    # iterate takes x1 below 0 at some nodes, where log(x1) has no value:
    # the trial is refused as a non-finite one is, and the step halved
    L = nl.compile_field("v1^2/2 + 30*x1*log(x1)", dim=1)
    bc = nl.BoundaryConditions([0.2], [3.0])
    curve = nl.solve_extremal(L, bc, nl.Grid(0.0, 1.0, 200), line_space)
    assert nl.el_residual(L, curve).max_norm <= nl.SolverConfig().tol
    assert nl.meets_stopping_rule(L, curve, nl.SolverConfig().tol)
    assert curve.values.min() == 0.2


def test_a_first_iterate_that_meets_tol_is_returned_where_only_its_hessian_fails(line_space):
    # x = 0 is the extremal of v1^2/2 + x1^1.5 from 0 to 0: its residual is 0,
    # but the second partial 0.75 x1^-0.5 has no value there, so the order-2
    # jet raises
    L = nl.compile_field("v1^2/2 + x1^1.5", dim=1)
    grid = nl.Grid(0.0, 1.0, 20)
    with pytest.raises(nl.dsl.DomainError, match="0 raised to exponent"):
        L.jet(grid.nodes, np.zeros((21, 1)), np.zeros((21, 1)), 2)
    curve = nl.solve_extremal(L, nl.BoundaryConditions([0.0], [0.0]), grid, line_space)
    assert np.array_equal(curve.values, np.zeros((21, 1)))
    assert nl.meets_stopping_rule(L, curve, nl.SolverConfig().tol)
    # a first iterate past tol still raises the order-2 jet's error
    with pytest.raises(nl.dsl.DomainError, match="0 raised to exponent 1.5 at point 0"):
        nl.solve_extremal(L, nl.BoundaryConditions([0.0], [0.5]), grid, line_space)


def test_each_engine_request_is_one_evaluate_call_on_the_compiled_program(
    monkeypatch, line_space
):
    # the counting tests above count dsl.evaluate calls: each jet the Newton
    # solve asks the engine for is exactly one of them, on the program
    # compiled with the field, and the solve compiles nothing
    L = nl.compile_field("v1^2/2 + v1^4/12 - x1^2/2", dim=1)
    requests, calls = [], []
    evaluate, request = nl.dsl.evaluate, nl.dsl._Jets.__call__

    def counting_evaluate(e, t, x, v, order=0):
        calls.append((e, order))
        return evaluate(e, t, x, v, order=order)

    def counting_request(self, t, x, v, order):
        requests.append(order)
        return request(self, t, x, v, order)

    def no_compile(*args):
        raise AssertionError("compiled during the solve")

    monkeypatch.setattr(nl.dsl, "evaluate", counting_evaluate)
    monkeypatch.setattr(nl.dsl._Jets, "__call__", counting_request)
    monkeypatch.setattr(nl.dsl, "_compile", no_compile)
    bc = nl.BoundaryConditions([0.0], [1.0])
    nl.solve_extremal(L, bc, nl.Grid(0.0, 1.0, 40), line_space)
    assert requests and [order for _, order in calls] == requests
    assert all(e is L.jets for e, _ in calls)


def test_newton_iteration_budget_raises_solver_error(line_space):
    # the quartic term makes the EL system nonlinear: three Newton steps
    # from the straight line do not reach the tolerance
    L = nl.compile_field("(v1^2 - x1^2)/2 + x1^4", dim=1)
    with pytest.raises(nl.SolverError, match="did not converge in 3 iterations") as err:
        nl.solve_extremal(
            L,
            nl.BoundaryConditions([0.0], [1.0]),
            nl.Grid(0.0, np.pi / 2, 40),
            line_space,
            nl.SolverConfig(max_iter=3),
        )
    assert len(err.value.residual_history) == 3


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_solver_tolerance_must_be_positive(tol):
    with pytest.raises(nl.ValidationError, match="solver tolerance must be positive"):
        nl.SolverConfig(tol=tol)


def test_newton_stops_at_the_roundoff_floor(line_space):
    # boundary values x1e4 lift the residual's roundoff floor (about
    # eps |x| / h^2) above the absolute tolerance: the line search finds no
    # decrease, and every row is within 32 eps of its scale
    L, c = solve("(v1^2 - x1^2)/2", [0.0], [1e4], 0.0, np.pi / 2, 200)
    assert nl.el_residual(L, c).max_norm > 10 * nl.SolverConfig().tol
    assert nl.meets_stopping_rule(L, c, nl.SolverConfig().tol)
    assert np.max(np.abs(c.values[:, 0] - 1e4 * np.sin(c.grid.nodes))) <= 1e4 * 1e-5


def test_stalled_line_search_stops_at_the_first_trial_that_rounds_to_the_iterate(
    monkeypatch,
):
    # at the x1e4 roundoff floor every trial fails; once xs + lam step rounds
    # to xs, every smaller lam does too, so the line search stops there
    # instead of halving lam 30 times
    orders, jacobians = [], []
    evaluate = nl.dsl.evaluate
    assemble = nl.euler_lagrange._interior_jacobian

    def counting(e, t, x, v, order=0):
        orders.append(order)
        return evaluate(e, t, x, v, order=order)

    def counting_jacobian(*args):
        jacobians.append(len(orders))  # the jets read before this Jacobian
        return assemble(*args)

    monkeypatch.setattr(nl.dsl, "evaluate", counting)
    monkeypatch.setattr(nl.euler_lagrange, "_interior_jacobian", counting_jacobian)
    L, c = solve("(v1^2 - x1^2)/2", [0.0], [1e4], 0.0, np.pi / 2, 200)
    # the trials of the last line search, one order-2 jet each
    stalled = orders[jacobians[-1]:]
    assert stalled and set(stalled) == {2}
    assert len(stalled) < 12
    assert nl.el_residual(L, c).max_norm > 10 * nl.SolverConfig().tol


def test_scaled_oscillator_at_its_roundoff_floor_returns_the_closed_form():
    # boundary values near 1e3 at n=800: the residual's roundoff floor is far
    # above tol and the line search stalls there, with every interior row
    # within 32 eps of the size of the terms that form it
    c, k, xa, xb = 1.155, 0.543, 681.0, 861.0
    L, x = solve(f"({c}*v1^2 - {k}*x1^2)/2", [xa], [xb], 0.0, 1.0, 800)
    assert nl.el_residual(L, x).max_norm > 10 * nl.SolverConfig().tol
    assert nl.meets_stopping_rule(L, x, nl.SolverConfig().tol)
    w = np.sqrt(k / c)
    t = x.grid.nodes
    exact = (xa * np.sin(w * (1.0 - t)) + xb * np.sin(w * t)) / np.sin(w)
    assert np.max(np.abs(x.values[:, 0] - exact)) <= 2.0 * xb * x.grid.h**2


def test_line_search_stall_away_from_roundoff_still_raises(line_space):
    # L_vv = -sin(v) changes sign along the seed, so Newton's direction does
    # not lower the residual; the stalled step is far above roundoff
    L = nl.compile_field("sin(v1) + x1^2", dim=1)
    grid = nl.Grid(0.0, 1.0, 20)
    with pytest.raises(nl.SolverError, match="line search stalled"):
        nl.solve_extremal(L, nl.BoundaryConditions([0.5], [1.0]), grid, line_space)
    seed = nl.Curve.from_function(line_space, grid, lambda t: [0.5 + 0.5 * t])
    assert not nl.meets_stopping_rule(L, seed, 1e-10)


def test_line_search_stall_names_the_worst_node_and_its_backward_error(line_space):
    L = nl.compile_field("sin(v1) + x1^2", dim=1)
    grid = nl.Grid(0.0, 1.0, 20)
    named = (
        r"line search stalled at residual \S+; worst at node (\d+) \(t=(\S+)\), "
        r"\|r_i\|/\(eps s_i\) = (\S+), above the roundoff floor 32"
    )
    with pytest.raises(nl.SolverError, match=named) as err:
        nl.solve_extremal(L, nl.BoundaryConditions([0.5], [1.0]), grid, line_space)
    node, t, ratio = re.search(named, str(err.value)).groups()
    assert 1 <= int(node) <= grid.n - 1
    assert float(t) == pytest.approx(grid.nodes[int(node)])
    assert float(ratio) > 1e10


def max_floor_ratio(L, x):
    """The largest |r_i| / (eps s_i) over the interior rows of x."""
    el = nl.euler_lagrange
    lx, lv, hess = el._point(L, x.grid, x.values)
    ab = el._interior_jacobian(x.grid, *hess)
    res = el._residual(x.grid, lx, lv)
    return float(np.max(el._floor_ratios(x.grid, x.values, lx, lv, res, np.abs(ab))))


def test_stall_with_small_rows_above_their_floor_returns_when_the_step_is_at_roundoff():
    # boundary values near 1e3 on a 3-chain with v^4 terms: the large rows
    # reach their roundoff floor while a few small rows are still above 32
    # eps s_i; judged by |r_i| / s_i, the line search brings those down too
    src = (
        "1.187*v1^2/2 + 0.15*v1^4/12 - 1.184*x1^2/2 + 0.336*x1*v2"
        " + 0.824*v2^2/2 + 0.195*v2^4/12 - 1.88*x2^2/2 + 0.336*x2*v3"
        " + 1.393*v3^2/2 + 0.317*v3^4/12 - 0.989*x3^2/2 + 0.336*x3*v1"
    )
    L, x = solve(src, [931.0, -973.0, -98.0], [-517.0, -422.0, -95.0], 0.0, 1.0, 200, dim=3)
    assert max_floor_ratio(L, x) <= nl.euler_lagrange._FLOOR
    assert nl.meets_stopping_rule(L, x, nl.SolverConfig().tol)
    assert nl.legendre_check(L, x).passed


def test_stalled_3_chain_with_one_row_above_its_floor_now_returns():
    # node 198's row is still at 51 eps s_i when the large rows reach their
    # floor; judged by |r_i| / s_i, the line search brings it down too
    src = (
        "1.065*v1^2/2 + 0.394*v1^4/12 - 1.12*x1^2/2 + 0.246*x1*v2"
        " + 0.928*v2^2/2 + 0.347*v2^4/12 - 0.971*x2^2/2 + 0.246*x2*v3"
        " + 1.092*v3^2/2 + 0.415*v3^4/12 - 1.7*x3^2/2 + 0.246*x3*v1"
    )
    L, x = solve(src, [347.0, -660.0, 519.0], [181.0, -708.0, -640.0], 0.0, 1.0, 200, dim=3)
    assert nl.el_residual(L, x).max_norm > nl.SolverConfig().tol
    assert max_floor_ratio(L, x) <= nl.euler_lagrange._FLOOR
    assert nl.meets_stopping_rule(L, x, nl.SolverConfig().tol)


def test_seed_curve_with_rows_of_zero_scale_converges(line_space):
    # away from the bump every term of a row is exactly 0, so s_i = 0 at the
    # seed; each trial is judged with its own s_i, and the free particle
    # reaches its straight line in one Newton step
    L = nl.compile_field("v1^2/2", dim=1)
    grid = nl.Grid(0.0, 1.0, 40)
    seed = np.zeros((41, 1))
    seed[20] = 1.0
    cfg = nl.SolverConfig(seed_curve=nl.Curve(line_space, grid, seed))
    x = nl.solve_extremal(L, nl.BoundaryConditions([0.0], [0.0]), grid, line_space, cfg)
    assert np.max(np.abs(x.values)) <= 1e-12


def test_seed_curve_on_another_interval_is_an_error(line_space):
    # same n, so the seed's values have the solve's shape; its interval differs
    L = nl.compile_field("v1^2/2", dim=1)
    longer = nl.Grid(0.0, 2.0, 200)
    seed = nl.Curve.from_function(line_space, longer, lambda t: [t])
    cfg = nl.SolverConfig(seed_curve=seed)
    named = re.escape("n=200 on [0.0, 2.0], problem n=200 on [0.0, 1.0]")
    with pytest.raises(nl.ValidationError, match=named):
        nl.solve_extremal(
            L, nl.BoundaryConditions([0.0], [1.0]), nl.Grid(0.0, 1.0, 200), line_space, cfg
        )


@st.composite
def chains(draw):
    """An oscillator or anharmonic chain of dim 1-3, as in the benchmark's
    generator, with boundary values scaled by 1 to 1e4."""
    dim = draw(st.integers(1, 3))
    oscillator = draw(st.booleans())

    def coef(lo, hi):
        return draw(st.floats(lo, hi).map(lambda z: round(z, 3)))

    c = np.array([coef(0.8, 1.6) for _ in range(dim)])
    k = np.array([coef(0.5, 2.0) for _ in range(dim)])
    scale = 10.0 ** draw(st.floats(0.0, 4.0))
    xa, xb = (np.array([scale * coef(-1.0, 1.0) for _ in range(dim)]) for _ in "ab")
    if oscillator:
        terms = [f"({c[i]}*v{i + 1}^2 - {k[i]}*x{i + 1}^2)/2" for i in range(dim)]
    else:
        b = coef(0.1, 0.4)
        terms = [
            f"{c[i]}*v{i + 1}^2/2 + {coef(0.1, 0.5)}*v{i + 1}^4/12"
            f" - {k[i]}*x{i + 1}^2/2 + {b}*x{i + 1}*v{(i + 1) % dim + 1}"
            for i in range(dim)
        ]
    n = draw(st.sampled_from([100, 200]))
    return " + ".join(terms), dim, n, xa, xb, (np.sqrt(k / c) if oscillator else None)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(chains())
def test_every_returned_curve_meets_the_stopping_rule(chain):
    src, dim, n, xa, xb, omega = chain
    L, x = solve(src, xa, xb, 0.0, 1.0, n, dim=dim)
    assert nl.meets_stopping_rule(L, x, nl.SolverConfig().tol)
    if omega is not None:
        t = x.grid.nodes[:, None]
        exact = (xa * np.sin(omega * (1.0 - t)) + xb * np.sin(omega * t)) / np.sin(omega)
        amplitude = max(1.0, float(np.max(np.abs(np.concatenate([xa, xb])))))
        assert np.max(np.abs(x.values - exact)) <= 2.0 * amplitude * x.grid.h**2
