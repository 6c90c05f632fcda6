import numpy as np
import pytest

import noether_lcs as nl
import variations


def line_curve(space, grid, slope=1.0):
    return nl.Curve.from_function(space, grid, lambda t: [slope * t])


def test_grid_validation():
    with pytest.raises(nl.ValidationError):
        nl.Grid(1.0, 0.0, 10)
    with pytest.raises(nl.ValidationError):
        nl.Grid(0.0, 1.0, 3)


def test_a_grid_builds_its_nodes_once_and_read_only():
    grid = nl.Grid(0.5, 2.0, 6)
    nodes = grid.nodes
    assert grid.nodes is nodes and not nodes.flags.writeable
    assert nodes.tobytes() == (0.5 + 0.25 * np.arange(7)).tobytes()
    # equality and hashing still read (a, b, n) only
    twin = nl.Grid(0.5, 2.0, 6)
    assert twin == grid and hash(twin) == hash(grid) and twin.nodes is not nodes


def test_a_curve_owns_its_values(line_space):
    grid = nl.Grid(0.0, 1.0, 4)
    base = np.zeros((5, 2))
    view = nl.Curve(line_space, grid, base[:, :1])
    base[0, 0] = 7.0
    assert view.values[0, 0] == 0.0
    mine = np.zeros((5, 1))
    curve = nl.Curve(line_space, grid, mine)
    mine[1, 0] = 3.0
    assert mine.flags.writeable
    assert curve.values[1, 0] == 0.0
    assert not curve.values.flags.writeable


def test_derivative_exact_on_linear(line_space):
    grid = nl.Grid(0.0, 1.0, 10)
    c = line_curve(line_space, grid, slope=3.0)
    for i in range(11):
        assert nl.derivative_all(c)[i] == pytest.approx([3.0], abs=1e-12)


def test_derivative_exact_on_quadratic_interior(line_space):
    grid = nl.Grid(0.0, 1.0, 10)
    c = nl.Curve.from_function(line_space, grid, lambda t: [t * t])
    assert nl.derivative_all(c)[5] == pytest.approx([1.0], abs=1e-12)


def test_derivative_constant_curve(line_space):
    grid = nl.Grid(0.0, 1.0, 8)
    c = nl.Curve.from_function(line_space, grid, lambda t: [4.0])
    assert np.array_equal(nl.derivative_all(c), np.zeros((9, 1)))


def test_action_constant_lagrangian(line_space):
    L = nl.compile_field("1", dim=1)
    c = line_curve(line_space, nl.Grid(0.0, 1.0, 10))
    assert nl.action(L, c) == pytest.approx(1.0)


def test_action_kinetic(line_space, free_particle):
    c = line_curve(line_space, nl.Grid(0.0, 1.0, 10))
    assert nl.action(free_particle, c) == pytest.approx(0.5, abs=1e-12)


def test_action_sine(line_space, free_particle):
    grid = nl.Grid(0.0, np.pi, 200)
    c = nl.Curve.from_function(line_space, grid, lambda t: [np.sin(t)])
    # accuracy is limited by the second-order velocity reconstruction
    assert nl.action(free_particle, c) == pytest.approx(np.pi / 4, abs=1e-4)


def test_action_requires_even_n(line_space, free_particle):
    c = line_curve(line_space, nl.Grid(0.0, 1.0, 9))
    with pytest.raises(nl.ValidationError):
        nl.action(free_particle, c)


def test_variations_need_an_even_n_as_the_action_does(line_space, free_particle):
    grid = nl.Grid(0.0, 1.0, 7)
    x = nl.Curve.from_function(line_space, grid, lambda t: [t])
    h = nl.Curve.from_function(line_space, grid, lambda t: [t * (1.0 - t)])
    for variation in (variations.first_variation, variations.second_variation):
        with pytest.raises(nl.ValidationError, match="needs an even N, got 7"):
            variation(free_particle, x, h)


def test_action_fourth_order_convergence(line_space):
    L = nl.compile_field("exp(x1)*v1^2", dim=1)
    reference = None
    errs = []
    exact = nl.action(
        L, nl.Curve.from_function(line_space, nl.Grid(0.0, 1.0, 2000), lambda t: [np.sin(t)])
    )
    for n in (50, 100):
        c = nl.Curve.from_function(line_space, nl.Grid(0.0, 1.0, n), lambda t: [np.sin(t)])
        errs.append(abs(nl.action(L, c) - exact))
    assert errs[0] / errs[1] >= 3.5  # limited by the O(h^2) velocity stencils


def test_csv_round_trip(tmp_path, line_space):
    grid = nl.Grid(0.0, 1.0, 12)
    c = nl.Curve.from_function(line_space, grid, lambda t: [np.sin(t)])
    path = tmp_path / "curve.csv"
    nl.write_curve_csv(c, path)
    back = nl.read_curve_csv(line_space, path)
    assert back.grid == grid
    assert np.allclose(back.values, c.values)


def test_csv_with_velocities(tmp_path, line_space):
    grid = nl.Grid(0.0, 1.0, 12)
    c = nl.Curve.from_function(line_space, grid, lambda t: [t])
    path = tmp_path / "curve.csv"
    nl.write_curve_csv(c, path, velocities=True)
    header = path.read_text().splitlines()[0]
    assert header == "t,x1,v1"
    back = nl.read_curve_csv(line_space, path)
    assert np.allclose(back.values, c.values)
