import json
import pickle
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import noether_lcs as nl
from noether_lcs.dsl import Binary, Const, Var
from noether_lcs.problem import load_problem
from noether_lcs.fields import EvalResult
from noether_lcs.symmetry import (
    _Polynomial,
    _field_jets,
    _halton,
    _monomial_columns,
    _monomials,
    _search_matrix,
    _time_derivative,
)
from test_banded import lagrangian_source

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def names(gens):
    return {g.name for g in gens}


def X_at(g, t, x):
    """The X components of a generator at (t, x), read like every field at
    (t, x, v); a generator does not depend on v."""
    return [c(t, x, np.zeros(len(x))) for c in g.X]


def test_catalog_generator_values():
    g = nl.catalog_generator("time-translation", 2)
    assert g.T(0.3, [1.0, 2.0], [0.0, 0.0]) == 1.0
    assert X_at(g, 0.3, [1.0, 2.0]) == pytest.approx([0.0, 0.0])

    g = nl.catalog_generator("space-translation-2", 2)
    assert g.T(0.3, [1.0, 2.0], [0.0, 0.0]) == 0.0
    assert X_at(g, 0.3, [1.0, 2.0]) == pytest.approx([0.0, 1.0])

    g = nl.catalog_generator("dilation", 1)
    assert g.T(0.5, [3.0], [0.0]) == 0.5

    g = nl.catalog_generator("galilean-1", 1)
    assert X_at(g, 0.7, [9.0]) == pytest.approx([0.7])

    g = nl.catalog_generator("rotation-12", 2)
    assert X_at(g, 0.0, [1.0, 2.0]) == pytest.approx([-2.0, 1.0])


def test_catalog_generator_validation():
    with pytest.raises(nl.ValidationError):
        nl.catalog_generator("galilean-3", 2)
    with pytest.raises(nl.ValidationError):
        nl.catalog_generator("rotation-11", 2)
    with pytest.raises(nl.ValidationError):
        nl.catalog_generator("frobnicate", 1)


@pytest.mark.parametrize("name", ["galilean-x", "space-translation-y", "galilean-"])
def test_catalog_axis_must_be_an_integer(name):
    with pytest.raises(nl.ValidationError, match="is not an integer"):
        nl.catalog_generator(name, 2)


@pytest.mark.parametrize("name", ["galilean2", "space-translation2", "galileanx"])
def test_catalog_family_is_bare_or_followed_by_a_dash_and_axis(name):
    with pytest.raises(nl.ValidationError, match=f"unknown catalog generator '{name}'"):
        nl.catalog_generator(name, 2)


def test_affine_generator_names_the_shape_it_expects():
    with pytest.raises(nl.ValidationError, match=r"X coefficient table must have shape \(2, 4\)"):
        nl.affine_generator(2, [0, 1, 0, 0], [[0, 0, 1]])
    with pytest.raises(nl.ValidationError, match="T coefficient vector must have length 4"):
        nl.affine_generator(2, [0, 1], [[0, 0, 1]])


def test_generator_dimension_mismatch():
    T = nl.catalog_generator("time-translation", 2).T
    with pytest.raises(nl.ValidationError):
        nl.SymmetryGenerator(dim=2, T=T, X=(T,))


def test_total_time_derivative_affine():
    g = nl.affine_generator(1, [0.0, 1.0, 2.0], np.zeros((1, 3)))
    # T = t + 2 x1, so T' = 1 + 2 v1
    v = np.array([3.0])
    assert _time_derivative(g.T.jet(0.5, np.array([1.0]), v, 1), v) == pytest.approx(7.0)


def tree_polynomial(coeffs, monomials, dim):
    """sum c_k m_k compiled from its DSL tree, the reference of the
    coefficient engine: the terms Const(c), Const(c)*z_i and
    (Const(c)*z_i)*z_j, without the zero ones, added from the left (a
    monomial's index -1 is a factor 1, left out)."""
    z = [Var("t", 0)] + [Var("x", i) for i in range(1, dim + 1)]
    tree = None
    for c, mono in zip(coeffs, monomials):
        if c == 0.0:
            continue
        term = Const(float(c))
        for i in mono:
            if i >= 0:
                term = Binary("*", term, z[i])
        tree = term if tree is None else Binary("+", tree, term)
    return nl.compile_field(Const(0.0) if tree is None else tree, dim)


@PROPERTY
@given(
    dim=st.integers(1, 4),
    degrees=st.sampled_from([(0, 1), (1, 2)]),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_polynomial_engine_equals_the_compiled_tree(dim, degrees, n, seed):
    # the value bit for bit, and every partial equal as a float: where the
    # tree's program multiplies c < 0 by a unit vector's 0 it can carry a
    # -0.0 that the engine, adding only the nonzero products, carries as 0.0
    rng = np.random.default_rng(seed)
    monomials = _monomials(dim, degrees)
    k = len(monomials)
    coeffs = rng.uniform(-1.0, 1.0, k) * 10.0 ** rng.integers(-3, 4, k)
    coeffs[rng.random(k) < 0.3] = 0.0
    t, x, v = (rng.uniform(-2.0, 2.0, shape) for shape in (n, (n, dim), (n, dim)))
    t[rng.random(n) < 0.2] = 0.0
    x[rng.random((n, dim)) < 0.2] = 0.0
    engine, tree = _Polynomial(coeffs, monomials), tree_polynomial(coeffs, monomials, dim)
    for point in ((t, x, v), (t[0], x[0], v[0])):
        for order in (0, 1, 2):
            got, want = engine(*point, order), tree.jets(*point, order)
            assert type(got.value) is type(want.value)
            assert np.asarray(got.value).tobytes() == np.asarray(want.value).tobytes()
            for a, b in ((got.grad, want.grad), (got.hess, want.hess)):
                assert type(a) is type(b)
                if b is not None:
                    assert a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


def loop_monomial_columns(monomials, ts, xs, vs):
    """The monomials' values and total time derivatives along the curve by
    the product rule, one factor of z = (t, x) at a time: the reference of
    the vectorised columns."""
    z, w = np.column_stack([ts, xs]), np.column_stack([np.ones_like(ts), vs])
    out = np.empty((2, len(ts), len(monomials)))
    for k, mono in enumerate(monomials):
        val, der = np.ones_like(ts), np.zeros_like(ts)
        for i in mono:
            if i >= 0:
                val, der = val * z[:, i], der * z[:, i] + val * w[:, i]
        out[:, :, k] = val, der
    return out


@PROPERTY
@given(dim=st.integers(1, 4), seed=st.integers(0, 1000))
def test_monomial_columns_equal_the_product_rule_loop(dim, seed):
    ts, xs, vs = nl.SamplingConfig(count=30, seed=seed).samples(dim)
    xs[0], vs[1] = 0.0, 0.0
    monomials = _monomials(dim, (0, 1, 2))
    got = _monomial_columns(monomials, ts, xs, vs)
    want = loop_monomial_columns(monomials, ts, xs, vs)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_catalog_and_gauged_generators_survive_pickling():
    L = nl.compile_field("v1^2/2 + v2^2/2 - x1*x2 + t*v1", dim=2)
    ts, xs, vs = nl.SamplingConfig(count=20).samples(2)
    for g in (
        nl.catalog_generator("rotation-12", 2),
        nl.fit_gauge(L, nl.catalog_generator("galilean-2", 2)),
    ):
        h = pickle.loads(pickle.dumps(g))
        assert h.name == g.name and (h.F is None) == (g.F is None)
        fields = [(g.T, h.T), *zip(g.X, h.X)] + ([(g.F, h.F)] if g.F else [])
        for a, b in fields:
            assert np.array_equal(a(ts, xs, vs), b(ts, xs, vs))
            assert a(ts[0], xs[0], vs[0]) == b(ts[0], xs[0], vs[0])


def test_extended_generator_boost():
    g = nl.catalog_generator("galilean-1", 1)
    # X = t, T = 0: velocity-space component X' - v T' = 1
    v = np.array([5.0])
    _, tp, _, xp = _field_jets(g, 0.4, np.array([2.0]), v)
    assert xp - v * tp == pytest.approx([1.0])


def test_invariance_free_particle_translation(free_particle):
    g = nl.catalog_generator("space-translation-1", 1)
    rep = nl.check_invariance(free_particle, g)
    assert rep.passed
    assert rep.max_residual <= 1e-12


def test_invariance_free_particle_time_translation(free_particle):
    g = nl.catalog_generator("time-translation", 1)
    assert nl.check_invariance(free_particle, g).passed


def test_invariance_free_particle_boost_fails(free_particle):
    # a pure boost changes the kinetic action by a boundary term, so the
    # strict invariance residual equals v1 and cannot vanish
    g = nl.catalog_generator("galilean-1", 1)
    rep = nl.check_invariance(free_particle, g)
    assert not rep.passed
    v_sup = nl.SamplingConfig().v_radius
    assert rep.max_residual <= v_sup + 1e-12
    assert rep.max_residual >= 1.5


def test_invariance_oscillator_time_translation(oscillator):
    assert nl.check_invariance(
        oscillator, nl.catalog_generator("time-translation", 1)
    ).passed


def test_invariance_oscillator_translation_fails(oscillator):
    rep = nl.check_invariance(
        oscillator, nl.catalog_generator("space-translation-1", 1)
    )
    assert not rep.passed


def test_invariance_rotation_central_potential():
    L = nl.compile_field("(v1^2 + v2^2)/2 - (x1^2 + x2^2)/2", dim=2)
    assert nl.check_invariance(L, nl.catalog_generator("rotation-12", 2)).passed


def test_invariance_dilation_kepler_style():
    # L = v^2/2 + 1/(2 x^2) is invariant under T = t, X = x/2
    L = nl.compile_field("v1^2/2 + 1/(2*x1^2)", dim=1)
    g = nl.affine_generator(1, [0.0, 1.0, 0.0], [[0.0, 0.0, 0.5]])
    rep = nl.check_invariance(
        L, g, nl.SamplingConfig(t_range=(0.1, 1.0), x_radius=2.0)
    )
    assert rep.passed


# the coefficients of galilean-1 at dim 1: T = 0, X = t
BOOST_T, BOOST_X = np.zeros(3), np.array([[0.0, 1.0, 0.0]])


def test_invariance_residual_linear_in_generator(free_particle):
    g = nl.catalog_generator("galilean-1", 1)
    g3 = nl.affine_generator(1, 3.0 * BOOST_T, 3.0 * BOOST_X)
    r1 = nl.invariance_residual(free_particle, g, 0.3, [1.0], [2.0])
    r2 = nl.invariance_residual(free_particle, g3, 0.3, [1.0], [2.0])
    assert r2 == pytest.approx(3.0 * r1)


def test_invariance_residual_linear_in_gauged_generator(free_particle):
    # F = t x1: the gauged residual is v1 - (x1 + t v1) = 0.4 at this point
    g = nl.catalog_generator("galilean-1", 1)
    g = nl.SymmetryGenerator(dim=1, T=g.T, X=g.X, F=nl.compile_field("t*x1", 1))
    g3 = nl.affine_generator(1, 3.0 * BOOST_T, 3.0 * BOOST_X)
    g3 = nl.SymmetryGenerator(dim=1, T=g3.T, X=g3.X, F=nl.compile_field("3*t*x1", 1))
    r1 = nl.invariance_residual(free_particle, g, 0.3, [1.0], [2.0])
    r2 = nl.invariance_residual(free_particle, g3, 0.3, [1.0], [2.0])
    assert r1 == pytest.approx(0.4)
    assert r2 == pytest.approx(3.0 * r1)


def test_gauge_dimension_mismatch():
    g = nl.catalog_generator("galilean-1", 1)
    with pytest.raises(nl.ValidationError):
        nl.SymmetryGenerator(dim=1, T=g.T, X=g.X, F=nl.compile_field("x2", 2))


@pytest.mark.parametrize("m", [1.0, 3.0])
def test_fit_gauge_boost_is_divergence_symmetry(m):
    L = nl.compile_field(f"{m}*v1^2/2", 1)
    g = nl.fit_gauge(L, nl.catalog_generator("galilean-1", 1))
    for t, x in ((0.0, 0.0), (0.3, 1.7), (0.9, -1.2)):
        assert g.F(t, [x], [0.0]) == pytest.approx(m * x, abs=1e-12)
    rep = nl.check_invariance(L, g)
    assert rep.passed
    assert rep.max_residual <= 1e-12
    assert rep.strict_max_residual >= 1.5 * m
    C = nl.noether_first_integral(L, g)
    assert C(0.4, [1.1], [2.5]) == pytest.approx(m * (0.4 * 2.5 - 1.1), abs=1e-12)


@pytest.mark.parametrize(
    "source,gen,dim",
    [
        ("v1^2/2", "space-translation-1", 1),
        ("(v1^2 + v2^2 + v3^2)/2", "rotation-12", 3),
    ],
)
def test_fit_gauge_strict_generator_has_zero_gauge(source, gen, dim):
    L = nl.compile_field(source, dim)
    strict = nl.catalog_generator(gen, dim)
    g = nl.fit_gauge(L, strict)
    rng = np.random.default_rng(5)
    C_strict = nl.noether_first_integral(L, strict)
    C_gauged = nl.noether_first_integral(L, g)
    for _ in range(20):
        t = float(rng.uniform(0, 1))
        x = rng.uniform(-2, 2, size=dim)
        v = rng.uniform(-2, 2, size=dim)
        assert abs(g.F(t, x, v)) <= 1e-12
        assert abs(C_gauged(t, x, v) - C_strict(t, x, v)) <= 1e-12
    rep = nl.check_invariance(L, g)
    assert rep.passed and rep.strict_max_residual <= 1e-12


@pytest.mark.parametrize(
    "source,gen",
    [
        ("(v1^2 - x1^2)/2", "space-translation-1"),
        ("exp(t)*v1^2", "time-translation"),
        ("v1^4/4", "galilean-1"),
    ],
)
def test_fit_gauge_keeps_rejecting_non_symmetries(source, gen):
    L = nl.compile_field(source, 1)
    rep = nl.check_invariance(L, nl.fit_gauge(L, nl.catalog_generator(gen, 1)))
    assert not rep.passed
    assert rep.max_residual >= 0.1


def test_fit_gauge_names_its_phase_and_seed_where_the_field_is_not_finite():
    # the fit draws its own sample set, with seed 0 + 1; exp(1000*x1)
    # overflows at its row 3, the first with x1 above 0.71
    L = nl.compile_field("v1^2/2*exp(1000*x1)", 1)
    named = r"^gauge fit failed at sample 3 \(seed 1\): non-finite field value at point 3 \(t="
    with pytest.raises(nl.fields.EvaluationError, match=named) as err:
        nl.fit_gauge(L, nl.catalog_generator("time-translation", 1))
    assert err.value.index == 3


def test_check_invariance_names_its_phase_and_seed_where_the_field_leaves_its_domain():
    # log(x1) at the first sample, x1 = -1.78: a DomainError keeps its type,
    # rows and index under the phase, as an overflow there does
    L = nl.compile_field("v1^2/2 + log(x1)", 1)
    _, xs, _ = nl.SamplingConfig().samples(1)
    with pytest.raises(nl.dsl.DomainError) as err:
        nl.check_invariance(L, nl.catalog_generator("time-translation", 1))
    assert str(err.value).startswith(
        "invariance check failed at sample 0 (seed 0): log of non-positive value -1.78434495258544"
    )
    assert err.value.index == 0
    assert list(err.value.rows) == list(np.flatnonzero(xs[:, 0] <= 0.0))


def test_check_invariance_without_gauge_reports_strict_residual(free_particle):
    rep = nl.check_invariance(free_particle, nl.catalog_generator("galilean-1", 1))
    assert rep.strict_max_residual == rep.max_residual


def test_noether_momentum(free_particle):
    C = nl.noether_first_integral(
        free_particle, nl.catalog_generator("space-translation-1", 1)
    )
    assert C(0.0, [5.0], [3.0]) == pytest.approx(3.0)


def test_noether_energy(oscillator):
    C = nl.noether_first_integral(
        oscillator, nl.catalog_generator("time-translation", 1)
    )
    # C = L - v dL/dv = -(v^2 + x^2)/2, minus the Hamiltonian
    assert C(0.0, [1.0], [2.0]) == pytest.approx(-2.5)
    t, x, v = 0.0, np.array([1.0]), np.array([2.0])
    h = -oscillator(t, x, v) + float(v @ oscillator.partial("v", t, x, v))
    assert C(t, x, v) == pytest.approx(-h)


def test_hamiltonian_identity_random(oscillator, free_particle):
    # the time-translation integral is minus the Hamiltonian -L + v . dL/dv
    rng = np.random.default_rng(2)
    for L in (oscillator, free_particle):
        C = nl.noether_first_integral(L, nl.catalog_generator("time-translation", 1))
        for _ in range(50):
            t = float(rng.uniform(0, 1))
            x = rng.uniform(-2, 2, size=1)
            v = rng.uniform(-2, 2, size=1)
            h = -L(t, x, v) + float(v @ L.partial("v", t, x, v))
            assert abs(C(t, x, v) + h) <= 1e-12


def test_hamiltonian_of_a_stack_equals_the_per_point_values():
    L = nl.compile_field("v1^2/2 + v2^4/4 - x1*x2 + t*v1", dim=2)
    C = nl.noether_first_integral(L, nl.catalog_generator("time-translation", 2))
    ts, xs, vs = nl.SamplingConfig(count=30).samples(2)
    stacked = -C(ts, xs, vs)
    assert stacked.shape == (30,)
    single = [-L(t, x, v) + float(v @ L.partial("v", t, x, v)) for t, x, v in zip(ts, xs, vs)]
    np.testing.assert_allclose(stacked, single, rtol=1e-14, atol=1e-14)


def test_conservation_momentum_on_line(line_space, free_particle):
    grid = nl.Grid(0.0, 1.0, 100)
    x = nl.Curve.from_function(line_space, grid, lambda t: [2.0 * t])
    C = nl.noether_first_integral(
        free_particle, nl.catalog_generator("space-translation-1", 1)
    )
    rep = nl.verify_conservation(C, x, tol=1e-8)
    assert rep.passed
    assert rep.mean == pytest.approx(2.0, abs=1e-10)


def test_conservation_energy_on_oscillator(line_space, oscillator):
    grid = nl.Grid(0.0, np.pi, 400)
    x = nl.Curve.from_function(line_space, grid, lambda t: [np.sin(t)])
    C = nl.noether_first_integral(
        oscillator, nl.catalog_generator("time-translation", 1)
    )
    rep = nl.verify_conservation(C, x, tol=1e-3)
    assert rep.passed
    assert rep.mean == pytest.approx(-0.5, abs=1e-3)


def values_only(func):
    """A field of dim 1 whose engine gives the value ``func(t, x, v)``."""
    return nl.ScalarField(1, lambda t, x, v, order: EvalResult(func(t, x, v)))


def test_conservation_fails_for_nonconserved_quantity(line_space):
    grid = nl.Grid(0.0, 1.0, 100)
    x = nl.Curve.from_function(line_space, grid, lambda t: [t * t])
    C = values_only(lambda t, xx, vv: vv[..., 0])
    rep = nl.verify_conservation(C, x, tol=1e-6)
    # v = 2t sweeps [0, 2]: mean 1, max deviation 1, relative deviation 1/2
    assert not rep.passed
    assert rep.mean == pytest.approx(1.0, abs=1e-6)
    assert rep.relative_deviation == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize(
    "evaluator,shape",
    [
        (lambda t, xx, vv: 0.5 * float(np.sum(vv**2)), r"\(\)"),
        (lambda t, xx, vv: vv[0], r"\(1,\)"),
        (lambda t, xx, vv: vv, r"\(101, 1\)"),
    ],
)
def test_conservation_rejects_an_evaluator_without_the_stack_contract(
    line_space, evaluator, shape
):
    grid = nl.Grid(0.0, 1.0, 100)
    x = nl.Curve.from_function(line_space, grid, lambda t: [t * t])
    C = values_only(evaluator)
    with pytest.raises(nl.ValidationError, match=rf"shape {shape} .*expected \(101,\)"):
        nl.verify_conservation(C, x, tol=1e-6)


def test_conservation_names_the_node_where_the_integral_overflows(line_space):
    # exp(1000*x1) overflows past x1 = 0.7098, so first at node 71 of x = t
    x = nl.Curve.from_function(line_space, nl.Grid(0.0, 1.0, 100), lambda t: [t])
    C = nl.compile_field("exp(1000*x1)", 1)
    with pytest.raises(nl.fields.EvaluationError, match=r"first integral failed at node 71 \(t=0\.71") as err:
        nl.verify_conservation(C, x, tol=1e-6)
    assert err.value.index == 71


def test_conservation_raises_where_abs_in_the_lagrangian_has_no_partials(line_space):
    # v = 0 for t < 0.5, where abs(v1) has no derivative: L_v, which the
    # first integral reads, is a DomainError naming the first such node
    grid = nl.Grid(0.0, 1.0, 100)
    x = nl.Curve.from_function(line_space, grid, lambda t: [-max(t - 0.5, 0.0) ** 2])
    L = nl.compile_field("v1^2/2 + abs(v1)*exp(1e20*v1)", 1)
    C = nl.noether_first_integral(L, nl.catalog_generator("time-translation", 1))
    named = (r"^first integral failed at node 0 \(t=0\.0\): "
             r"abs not differentiable at 0 at point 0 \(t=0\.0,")
    with pytest.raises(nl.dsl.DomainError, match=named) as err:
        nl.verify_conservation(C, x, tol=1e-6)
    assert list(err.value.rows) == list(range(50)) and err.value.index == 0


def test_first_integral_is_a_float_at_a_point_and_an_array_at_a_stack(oscillator):
    C = nl.noether_first_integral(oscillator, nl.catalog_generator("time-translation", 1))
    assert type(C(0.0, [1.0], [2.0])) is float
    ts, xs, vs = nl.SamplingConfig(count=7).samples(1)
    assert C(ts, xs, vs).shape == (7,)


def test_conservation_reads_each_field_once_at_every_grid_size(monkeypatch):
    src = "v1^2/2 + v2^2/2 - x1*x2 + t*v1"
    L = nl.compile_field(src, dim=2)
    g = nl.fit_gauge(L, nl.catalog_generator("rotation-12", 2))
    assert g.F is not None
    C = nl.noether_first_integral(L, g)
    calls = count_jets(monkeypatch, nl.parse(src, 2))
    space = nl.make_space(2, [1.0, 1.0], 2)
    for n in (10, 100, 1000):
        calls.clear()
        x = nl.Curve.from_function(space, nl.Grid(0.0, 1.0, n), lambda t: [t, t * t])
        nl.verify_conservation(C, x, tol=1e-6)
        # one order-1 jet of L; one value of T, X1, X2 and F
        assert sorted(calls) == [("L", 1)] + [("polynomial", 0)] * 4


def count_jets(monkeypatch, tree):
    """Record each engine request as (who, order): "L" for the compiled
    field of ``tree``, "dsl" for any other compiled field and "polynomial"
    for a generator polynomial."""
    calls = []
    evaluate, polynomial = nl.dsl.evaluate, nl.symmetry._Polynomial.__call__

    def counting_evaluate(e, t, x, v, order=0):
        calls.append(("L" if e.expr == tree else "dsl", order))
        return evaluate(e, t, x, v, order=order)

    def counting_polynomial(self, t, x, v, order):
        calls.append(("polynomial", order))
        return polynomial(self, t, x, v, order)

    monkeypatch.setattr(nl.dsl, "evaluate", counting_evaluate)
    monkeypatch.setattr(nl.symmetry._Polynomial, "__call__", counting_polynomial)
    return calls


def per_point_values(C, x):
    """C at each node of the curve, one call per node: the path
    ``verify_conservation`` took before first integrals took stacks."""
    xd = nl.derivative_all(x)
    return np.array([C(t, x.values[i], xd[i]) for i, t in enumerate(x.grid.nodes)])


def assert_stacked_equals_per_point(C, x):
    stacked = nl.verify_conservation(C, x, tol=1e-6).values
    single = per_point_values(C, x)
    assert stacked.shape == single.shape
    scale = max(1.0, float(np.max(np.abs(single))))
    assert np.max(np.abs(stacked - single)) <= 1e-14 * scale


def random_curve(data, dim, n):
    space = nl.make_space(dim, np.ones(dim), dim)
    vector = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).map(np.array)
    xa, xb, bump = (data.draw(vector) for _ in range(3))
    grid = nl.Grid(0.0, 1.0, n)
    t = grid.nodes[:, None]
    return nl.Curve(space, grid, xa + (xb - xa) * t + bump * np.sin(np.pi * t))


def random_lagrangian(data, dim):
    coefficient = st.floats(-1.0, 1.0)
    kin = data.draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim))
    pot, quartic = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0))
    coupling, gyro, drift = (data.draw(coefficient) for _ in range(3))
    return lagrangian_source(dim, kin, pot, coupling, gyro, quartic, drift)


@PROPERTY
@given(dim=st.integers(1, 3), n=st.integers(4, 120), gauged=st.booleans(), data=st.data())
def test_stacked_noether_integral_equals_the_per_point_values(dim, n, gauged, data):
    L = nl.compile_field(random_lagrangian(data, dim), dim)
    g = nl.catalog_generator(data.draw(st.sampled_from(catalog_names(dim))), dim)
    if gauged:
        g = nl.fit_gauge(L, g)
    assert_stacked_equals_per_point(nl.noether_first_integral(L, g), random_curve(data, dim, n))


@PROPERTY
@given(dim=st.integers(1, 3), n=st.integers(4, 120), data=st.data())
def test_stacked_problem_file_integral_equals_the_per_point_values(dim, n, data):
    doc = {
        "space": {"dim": dim},
        "interval": {"a": 0.0, "b": 1.0, "n": 4},
        "lagrangian": random_lagrangian(data, dim),
        "integrals": {"c": random_lagrangian(data, dim)},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(doc))
        C = load_problem(path).integrals["c"]
    assert_stacked_equals_per_point(C, random_curve(data, dim, n))


def test_find_affine_symmetries_free_particle(free_particle):
    gens = nl.find_affine_symmetries(free_particle)
    assert len(gens) >= 3
    for g in gens:
        assert nl.check_invariance(free_particle, g, tol=1e-6).passed
    # time translation, space translation, and the scaling T = t, X = x/2
    # must all lie in the recovered span
    coeff = np.array([g.coefficients for g in gens])
    for target in (
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 0.5],
    ):
        target = np.asarray(target, float)
        sol, *_ = np.linalg.lstsq(coeff.T, target, rcond=None)
        assert np.max(np.abs(coeff.T @ sol - target)) <= 1e-6


def test_find_affine_symmetries_oscillator(oscillator):
    gens = nl.find_affine_symmetries(oscillator)
    assert len(gens) >= 1
    # space translation is not a symmetry: no recovered generator combination
    # reproduces it
    coeff = np.array([g.coefficients for g in gens])
    target = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    sol, *_ = np.linalg.lstsq(coeff.T, target, rcond=None)
    assert np.max(np.abs(coeff.T @ sol - target)) > 1e-3


def test_find_affine_symmetries_time_dependent():
    L = nl.compile_field("exp(t)*v1^2", dim=1)
    gens = nl.find_affine_symmetries(L)
    coeff = np.array([g.coefficients for g in gens]) if gens else np.zeros((0, 6))
    target = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    if len(coeff):
        sol, *_ = np.linalg.lstsq(coeff.T, target, rcond=None)
        assert np.max(np.abs(coeff.T @ sol - target)) > 1e-3


def test_found_symmetries_yield_conserved_integrals(line_space, free_particle):
    grid = nl.Grid(0.0, 1.0, 200)
    sp = line_space
    x = nl.solve_extremal(
        free_particle,
        nl.BoundaryConditions([0.0], [1.0]),
        grid,
        sp,
        nl.SolverConfig(),
    )
    for g in nl.find_affine_symmetries(free_particle):
        C = nl.noether_first_integral(free_particle, g)
        assert nl.verify_conservation(C, x, tol=1e-6).passed


def test_found_generators_keep_their_coefficients(free_particle):
    gens = nl.find_affine_symmetries(free_particle)
    assert gens
    for g in gens:
        gauged = nl.fit_gauge(free_particle, g)
        assert np.array_equal(gauged.coefficients, g.coefficients)
    assert nl.catalog_generator("dilation", 1).coefficients.tolist() == [0, 1, 0, 0, 0, 0]


def test_stacked_invariance_residual_matches_per_sample():
    L = nl.compile_field("v1^2/2 + v2^2/2 - x1*x2 + t*v1", dim=2)
    g = nl.fit_gauge(L, nl.catalog_generator("galilean-2", 2))
    ts, xs, vs = nl.SamplingConfig(count=40).samples(2)
    stacked = nl.invariance_residual(L, g, ts, xs, vs)
    assert stacked.shape == (40,)
    single = [nl.invariance_residual(L, g, t, x, v) for t, x, v in zip(ts, xs, vs)]
    np.testing.assert_allclose(stacked, single, rtol=1e-12, atol=1e-14)


def test_invariance_residual_asks_each_field_for_one_jet(monkeypatch):
    src = "v1^2/2 + v2^2/2 - x1*x2 + t*v1"
    L = nl.compile_field(src, dim=2)
    g = nl.catalog_generator("rotation-12", 2)
    calls = count_jets(monkeypatch, nl.parse(src, 2))
    ts, xs, vs = nl.SamplingConfig(count=40).samples(2)
    nl.invariance_residual(L, g, ts, xs, vs)
    assert [order for who, order in calls if who == "L"] == [1]
    # and one order-1 jet of T and of each X component
    assert sorted(calls) == [("L", 1)] + [("polynomial", 1)] * 3


def test_gauged_check_asks_the_lagrangian_for_one_jet(free_particle, monkeypatch):
    g = nl.fit_gauge(free_particle, nl.catalog_generator("galilean-1", 1))
    ts, xs, vs = nl.SamplingConfig().samples(1)
    gauged = nl.invariance_residual(free_particle, g, ts, xs, vs)
    strict = nl.invariance_residual(free_particle, replace(g, F=None), ts, xs, vs)
    orders = []
    jet = nl.ScalarField.jet

    def counting(self, t, x, v, order):
        if self is free_particle:
            orders.append(order)
        return jet(self, t, x, v, order)

    monkeypatch.setattr(nl.ScalarField, "jet", counting)
    rep = nl.check_invariance(free_particle, g, tol=1e-8)
    assert orders == [1]
    assert np.array_equal(rep.residuals, gauged)
    assert rep.max_residual == float(np.max(np.abs(gauged)))
    assert rep.strict_max_residual == float(np.max(np.abs(strict)))
    assert rep.passed and rep.strict_max_residual > 1e-8


def reference_search_matrix(L, ts, xs, vs):
    """The search matrix column by column: one ``invariance_residual`` call
    per affine generator with one unit coefficient."""
    dim = L.dim
    per = dim + 2
    n_params = per * (dim + 1)
    cols = []
    for k in range(n_params):
        coeffs = np.zeros(n_params)
        coeffs[k] = 1.0
        g = nl.affine_generator(dim, coeffs[:per], coeffs[per:].reshape(dim, per))
        cols.append(nl.invariance_residual(L, g, ts, xs, vs))
    return np.column_stack(cols)


def reference_gauge(L, g, samples):
    """The least-squares F = b . z + sum_{i <= j} Q_ij z_i z_j with z = (t, x),
    fitted to the strict residual by the total derivatives of the monomials,
    and the monomial values it is read back at."""
    n = g.dim + 1
    iu = np.triu_indices(n)
    cfg = replace(
        samples, count=max(samples.count, 3 * (n + len(iu[0]))), seed=samples.seed + 1
    )
    ts, xs, vs = cfg.samples(g.dim)
    r = nl.invariance_residual(L, replace(g, F=None), ts, xs, vs)
    Z = np.column_stack([ts, xs])
    W = np.column_stack([np.ones_like(ts), vs])
    A = np.hstack([W, Z[:, iu[0]] * W[:, iu[1]] + Z[:, iu[1]] * W[:, iu[0]]])
    coeffs, *_ = np.linalg.lstsq(A, r, rcond=None)
    return coeffs, lambda z: np.hstack([z, z[:, iu[0]] * z[:, iu[1]]])


def catalog_names(dim):
    names = ["time-translation", "dilation"]
    names += [f"{kind}-{j}" for kind in ("space-translation", "galilean") for j in range(1, dim + 1)]
    names += [f"rotation-{i}{j}" for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    return names


@PROPERTY
@given(dim=st.integers(1, 4), seed=st.integers(0, 1000), data=st.data())
def test_search_matrix_equals_the_per_generator_residuals(dim, seed, data):
    coefficient = st.floats(-1.0, 1.0)
    kin = data.draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim))
    pot, quartic = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0))
    coupling, gyro, drift = (data.draw(coefficient) for _ in range(3))
    L = nl.compile_field(
        lagrangian_source(dim, kin, pot, coupling, gyro, quartic, drift), dim
    )
    samples = nl.SamplingConfig(count=3 * (dim + 2) * (dim + 1), seed=seed)
    ts, xs, vs = samples.samples(dim)
    want = reference_search_matrix(L, ts, xs, vs)
    got = _search_matrix(L, ts, xs, vs)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    name = data.draw(st.sampled_from(catalog_names(dim)))
    g = nl.fit_gauge(L, nl.catalog_generator(name, dim), samples)
    coeffs, monomials = reference_gauge(L, g, samples)
    rng = np.random.default_rng(seed)
    t, x = rng.uniform(0, 1, 20), rng.uniform(-2, 2, (20, dim))
    terms = monomials(np.column_stack([t, x])) * coeffs
    scale = 1.0 + np.max(np.sum(np.abs(terms), axis=1))
    assert np.max(np.abs(g.F(t, x, np.zeros_like(x)) - terms.sum(axis=1))) <= 1e-12 * scale


def test_search_matrix_reads_the_lagrangian_through_one_jet(monkeypatch):
    dim = 3
    src = "(v1^2 + v2^2 + v3^2)/2 - (x1^2 + x2^2 + x3^2)/2"
    L = nl.compile_field(src, dim)
    tree = L.jets.expr
    jets, compiles = [], []
    evaluate, compile_node = nl.dsl.evaluate, nl.dsl._compile

    def counting_evaluate(e, t, x, v, order=0):
        if e.expr is tree:
            jets.append(order)
        return evaluate(e, t, x, v, order=order)

    def counting_compile(e, m):
        compiles.append(e)
        return compile_node(e, m)

    monkeypatch.setattr(nl.dsl, "evaluate", counting_evaluate)
    monkeypatch.setattr(nl.dsl, "_compile", counting_compile)
    ts, xs, vs = nl.SamplingConfig(count=60).samples(dim)
    _search_matrix(L, ts, xs, vs)
    assert jets == [1] and compiles == []
    # the search: that one jet, then one more on the fresh samples that
    # check every candidate; the generators it returns are coefficient
    # tables, so nothing is compiled
    jets.clear()
    found = nl.find_affine_symmetries(L)
    assert len(found) == 4  # time translation and the three rotations
    assert jets == [1, 1] and compiles == []


def search_verdicts(L, samples=nl.SamplingConfig()):
    """Check the search against ``check_invariance`` on every null vector
    of its SVD: the residual of the search's own matrix on the fresh samples
    equals the residual of the compiled generator to roundoff, the verdicts
    agree away from the tolerance, and the search returns exactly the
    vectors it passes.  Gives (residual, check_invariance verdict) per
    vector."""
    dim, per = L.dim, L.dim + 2
    cfg = replace(samples, count=max(samples.count, 3 * per * (dim + 1)))
    _, sing, vt = np.linalg.svd(_search_matrix(L, *cfg.samples(dim)), full_matrices=False)
    null = vt[sing <= 1e-8 * sing[0]]
    null /= np.max(np.abs(null), axis=1, keepdims=True)
    fresh = replace(samples, count=500, seed=samples.seed + 1)
    M = _search_matrix(L, *fresh.samples(dim))
    found = [g.coefficients for g in nl.find_affine_symmetries(L, samples)]
    verdicts = []
    for vec in null:
        residual = np.max(np.abs(M @ vec))
        g = nl.affine_generator(dim, vec[:per], vec[per:].reshape(dim, per))
        report = nl.check_invariance(L, g, fresh, tol=1e-6)
        assert abs(residual - report.max_residual) <= 1e-12 * np.max(np.abs(M))
        if abs(report.max_residual - 1e-6) > 1e-8:
            assert (residual <= 1e-6) == report.passed
        verdicts.append((residual, report.passed))
    assert [f.tobytes() for f in found] == [
        vec.tobytes() for vec, (residual, _) in zip(null, verdicts) if residual <= 1e-6
    ]
    return verdicts


@PROPERTY
@given(dim=st.integers(1, 3), equal=st.booleans(), data=st.data())
def test_search_verifies_its_candidates_as_check_invariance_does(dim, equal, data):
    mass = data.draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim))
    spring = data.draw(
        st.lists(st.just(0.0) | st.floats(0.3, 2.0), min_size=dim, max_size=dim)
    )
    if equal and dim > 1:  # planted equal frequencies: a 1-2 rotation
        mass[1], spring[1] = mass[0], spring[0]
    terms = [f"{mass[i]!r}*v{i + 1}^2/2 - {spring[i]!r}*x{i + 1}^2/2" for i in range(dim)]
    gyro = data.draw(st.just(0.0) | st.floats(-1.0, 1.0))
    if gyro:
        terms.append(f"{gyro!r}*x1*v{dim}")
    L = nl.compile_field(" + ".join(terms), dim)
    assert search_verdicts(L, nl.SamplingConfig(seed=data.draw(st.integers(0, 1000))))


def test_search_rejects_a_candidate_as_check_invariance_does():
    # the rotation of this scaled anharmonic chain is a true symmetry whose
    # residual reads 1.9e-6 against the absolute tolerance 1e-6 (ROADMAP
    # item 3), so a null vector fails verification here
    src = "1e8*((v1^2 + v2^2)/2 - (x1^2 + x2^2)/2 + (x1^2 + x2^2)^2)"
    verdicts = search_verdicts(nl.compile_field(src, 2))
    assert not all(passed for _, passed in verdicts)


@PROPERTY
@given(d=st.integers(1, 65), n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
def test_halton_equals_scipys_scrambled_halton(d, n, seed):
    from scipy.stats import qmc

    got = _halton(d, n, seed)
    want = qmc.Halton(d=d, seed=seed).random(n)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert not got.flags.writeable


def test_samples_are_fresh_writable_arrays_over_the_cached_points():
    cfg = nl.SamplingConfig(t_range=(0.5, 2.0), count=50, seed=3)
    u = _halton(5, 50, 3)
    first, again = cfg.samples(2), cfg.samples(2)
    assert _halton(5, 50, 3) is u
    with pytest.raises(ValueError):
        u[0, 0] = 0.5
    for a, b in zip(first, again):
        assert a.flags.writeable and not np.shares_memory(a, b)
        assert not np.shares_memory(a, u) and np.array_equal(a, b)
    assert np.array_equal(first[0], 0.5 + 1.5 * u[:, 0])
    assert np.array_equal(first[2], 2.0 * (2.0 * u[:, 3:] - 1.0))
    first[1][:] = 0.0
    assert np.array_equal(cfg.samples(2)[1], again[1])


def test_thin_svd_finds_the_coefficients_of_the_full_svd(monkeypatch):
    # a dim-16 oscillator chain whose first two coordinates share a
    # frequency: time translation and the 1-2 rotation
    dim = 16
    c = [1.0, 1.0] + [1.0 + 0.1 * i for i in range(2, dim)]
    k = [0.7, 0.7] + [0.5 + 0.13 * i for i in range(2, dim)]
    src = " + ".join(f"{c[i]!r}*v{i + 1}^2/2 - {k[i]!r}*x{i + 1}^2/2" for i in range(dim))
    L = nl.compile_field(src, dim)
    thin = nl.find_affine_symmetries(L)
    svd, calls = np.linalg.svd, []

    def full_svd(M, full_matrices=True):
        calls.append(full_matrices)
        return svd(M, full_matrices=True)

    monkeypatch.setattr(np.linalg, "svd", full_svd)
    full = nl.find_affine_symmetries(L)
    assert calls == [False]
    assert len(thin) == len(full) == 2
    for a, b in zip(thin, full):
        assert np.array_equal(a.coefficients, b.coefficients)
