import math
import warnings

import numpy as np
import pytest

import noether_lcs as nl
from noether_lcs.spaces import unit_ball_vertices


def test_make_space_sup_norm():
    sp = nl.make_space(3, [1, 1, 1], 3)
    assert nl.seminorm(sp, 3, [1.0, -2.0, 0.5]) == 2.0


def test_make_space_scaling():
    sp = nl.make_space(1, [2.0], 1)
    assert nl.seminorm(sp, 1, [3.0]) == 6.0


def test_make_space_weighted_max():
    sp = nl.make_space(4, [1, 2, 4, 8], 4)
    assert nl.seminorm(sp, 4, [1.0, 1.0, 1.0, 1.0]) == 8.0


def test_make_space_validation():
    with pytest.raises(nl.ValidationError):
        nl.make_space(0, [1.0], 1)
    with pytest.raises(nl.ValidationError):
        nl.make_space(2, [1.0, -1.0], 1)
    with pytest.raises(nl.ValidationError):
        nl.make_space(2, [1.0], 1)
    with pytest.raises(nl.ValidationError, match=r"^'weights' must hold one entry per coordinate"):
        nl.make_space(1, [1.0, 5.0], 1)  # an extra weight is not dropped
    with pytest.raises(nl.ValidationError):
        nl.make_space(2, [1.0, 1.0], 0)
    # a Space built under its own name is checked the same way
    with pytest.raises(nl.ValidationError):
        nl.Space(dim=2, weights=[1.0, 0.0], num_seminorms=2)


def test_a_space_owns_its_weights():
    arr = np.array([1.0, 2.0])
    sp = nl.make_space(2, arr, 2)
    arr[0] = 5.0
    assert sp.weights.tolist() == [1.0, 2.0]
    assert arr.flags.writeable
    assert not sp.weights.flags.writeable


def test_seminorms_overflow_to_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nl.seminorm(nl.make_space(1, [2.0], 1), 1, [1e308]) == math.inf
        assert nl.dual_seminorm(nl.make_space(1, [0.5], 1), 1, [1e308]) == math.inf
        sp = nl.make_space(2, [0.5, 2.0], 2)
        stack = np.array([[1e308, 0.0], [1.0, 1.0]])
        assert nl.seminorm(sp, 2, stack[:, ::-1]).tolist() == [math.inf, 2.0]
        assert nl.dual_seminorm(sp, 2, stack).tolist() == [math.inf, 2.5]
        assert nl.operator_seminorm(sp, sp, np.diag([1e308, 1.0]), 2, 2) == math.inf


def test_seminorm_of_zero_and_index_range():
    sp = nl.make_space(3, [1, 2, 4], 3)
    assert nl.seminorm(sp, 2, np.zeros(3)) == 0.0
    with pytest.raises(nl.ValidationError):
        nl.seminorm(sp, 4, np.zeros(3))
    with pytest.raises(nl.ValidationError):
        nl.seminorm(sp, 0, np.zeros(3))


def test_seminorm_ignores_coordinates_beyond_index():
    sp = nl.make_space(3, [1, 2, 4], 3)
    assert nl.seminorm(sp, 2, [3.0, 1.0, 100.0]) == 3.0


def test_seminorm_axioms_random():
    rng = np.random.default_rng(7)
    sp = nl.make_space(4, [0.5, 1.0, 2.0, 4.0], 6)
    for _ in range(500):
        y = rng.normal(size=4) * 10
        z = rng.normal(size=4) * 10
        alpha = rng.normal() * 5
        for p in range(1, 7):
            ny = nl.seminorm(sp, p, y)
            assert ny >= 0.0
            assert nl.seminorm(sp, p, alpha * y) == pytest.approx(abs(alpha) * ny)
            assert nl.seminorm(sp, p, y + z) <= ny + nl.seminorm(sp, p, z) + 1e-12


def test_seminorm_monotone_in_index():
    rng = np.random.default_rng(11)
    sp = nl.make_space(5, [1, 3, 0.2, 2, 1], 8)
    for _ in range(200):
        y = rng.normal(size=5)
        vals = [nl.seminorm(sp, p, y) for p in range(1, 9)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_operator_seminorm_identity():
    sp = nl.make_space(3, [1, 1, 1], 3)
    assert nl.operator_seminorm(sp, sp, np.eye(3), 3, 3) == 1.0


def test_operator_seminorm_unbounded_direction():
    sp = nl.make_space(3, [1, 1, 1], 3)
    m = np.zeros((3, 3))
    m[0, 2] = 1.0
    assert nl.operator_seminorm(sp, sp, m, 1, 1) == math.inf


def test_operator_seminorm_diagonal():
    sp = nl.make_space(3, [1, 1, 1], 3)
    A = np.diag([1.0, 2.0, 3.0])
    assert nl.operator_seminorm(sp, sp, A, 3, 3) == 3.0


def brute_force_operator_seminorm(sp_src, sp_dst, A, p, q):
    best = 0.0
    for y in unit_ball_vertices(sp_src, p):
        best = max(best, nl.seminorm(sp_dst, q, A @ y))
    return best


def test_operator_seminorm_matches_vertex_maximization():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        w_src = rng.uniform(0.2, 3.0, size=dim)
        w_dst = rng.uniform(0.2, 3.0, size=dim)
        sp_src = nl.make_space(dim, w_src, dim)
        sp_dst = nl.make_space(dim, w_dst, dim)
        A = rng.normal(size=(dim, dim))
        for q in range(1, dim + 1):
            exact = nl.operator_seminorm(sp_src, sp_dst, A, dim, q)
            brute = brute_force_operator_seminorm(sp_src, sp_dst, A, dim, q)
            assert exact == pytest.approx(brute, abs=1e-9)


def test_normal_index_identity():
    sp = nl.make_space(3, [1, 1, 1], 3)
    rep = nl.normal_index(sp, sp, np.eye(3))
    for q in range(1, 4):
        assert rep[q] == frozenset(range(q, 4))
        for p in range(q, 4):
            assert nl.operator_seminorm(sp, sp, np.eye(3), p, q) == 1.0


def test_normal_index_zero_operator():
    sp = nl.make_space(3, [1, 1, 1], 3)
    rep = nl.normal_index(sp, sp, np.zeros((3, 3)))
    for q in range(1, 4):
        assert rep[q] == frozenset({1, 2, 3})


def test_normal_index_upper_shift():
    # strictly upper shift maps e_{i+1} -> e_i, so row i needs column i+1
    sp = nl.make_space(3, [1, 1, 1], 3)
    m = np.diag([1.0, 1.0], k=1)
    rep = nl.normal_index(sp, sp, m)
    for q in range(1, 4):
        for p in rep[q]:
            assert p >= min(q + 1, 3)


def test_normal_index_upward_closure_random():
    rng = np.random.default_rng(19)
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        sp = nl.make_space(dim, rng.uniform(0.3, 2.0, size=dim), dim + 1)
        m = rng.normal(size=(dim, dim))
        m[rng.random(size=m.shape) < 0.5] = 0.0
        rep = nl.normal_index(sp, sp, m)
        for q, members in rep.items():
            for p in members:
                for p2 in range(p, sp.num_seminorms + 1):
                    assert p2 in members


def test_support_profile():
    # the last nonzero columns of the rows are 1, 3 and none: the q-seminorm
    # of the image is bounded on the p-ball once p reaches the support of
    # each of the first q rows
    m = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    sp = nl.make_space(3, [1.0, 1.0, 1.0], 3)
    finite = {
        (p, q): math.isfinite(nl.operator_seminorm(sp, sp, m, p, q))
        for p in (1, 2, 3)
        for q in (1, 2, 3)
    }
    assert finite == {(p, q): q == 1 or p == 3 for p in (1, 2, 3) for q in (1, 2, 3)}


def test_dual_seminorm():
    sp = nl.make_space(3, [1, 2, 1], 3)
    assert nl.dual_seminorm(sp, 3, [1.0, 2.0, 3.0]) == 1.0 + 1.0 + 3.0
    assert nl.dual_seminorm(sp, 1, [1.0, 0.5, 0.0]) == math.inf


def test_seminorm_of_a_stack_equals_the_per_row_values():
    rng = np.random.default_rng(29)
    for dim in (1, 2, 3, 9, 12):
        sp = nl.make_space(dim, rng.uniform(0.2, 3.0, size=dim), dim + 1)
        y = rng.normal(size=(50, dim)) * 10.0 ** rng.integers(-6, 6, size=(50, dim))
        y[rng.random(size=y.shape) < 0.3] = 0.0
        for p in range(1, dim + 2):
            stacked = nl.seminorm(sp, p, y)
            assert stacked.shape == (50,)
            rows = np.array([nl.seminorm(sp, p, row) for row in y])
            assert np.array_equal(stacked, rows)
    with pytest.raises(nl.ValidationError, match=r"\(N, 12\)"):
        nl.seminorm(sp, 1, np.zeros((2, dim + 1)))
    with pytest.raises(nl.ValidationError):
        nl.seminorm(sp, 1, np.zeros((2, 2, dim)))
    with pytest.raises(nl.ValidationError, match="non-finite"):
        nl.seminorm(sp, 1, np.full((2, dim), np.nan))


def test_dual_seminorm_of_a_stack_equals_the_per_row_values():
    rng = np.random.default_rng(23)
    for dim in (1, 2, 3, 9, 12):
        sp = nl.make_space(dim, rng.uniform(0.2, 3.0, size=dim), dim + 1)
        r = rng.normal(size=(50, dim)) * 10.0 ** rng.integers(-6, 6, size=(50, dim))
        r[rng.random(size=r.shape) < 0.3] = 0.0
        r[:10, 1:] = 0.0  # finite at every index
        for p in range(1, dim + 2):
            stacked = nl.dual_seminorm(sp, p, r)
            assert stacked.shape == (50,)
            rows = np.array([nl.dual_seminorm(sp, p, row) for row in r])
            assert np.array_equal(stacked, rows)
            if p < dim:
                assert np.isinf(stacked).any() and np.isfinite(stacked).any()
    with pytest.raises(nl.ValidationError):
        nl.dual_seminorm(sp, 1, np.zeros((2, dim + 1)))
    with pytest.raises(nl.ValidationError):
        nl.dual_seminorm(sp, 1, np.zeros((2, 2, dim)))
