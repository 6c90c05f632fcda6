import math
import warnings

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import noether_lcs as nl
from noether_lcs.dsl import (
    Binary,
    Const,
    DomainError,
    ParseDiagnostic,
    Pow,
    Unary,
    Var,
    compile_field,
    evaluate,
    parse,
    to_string,
)

ACCEPT = [
    "v1^2/2",
    "(v1^2 - x1^2)/2",
    "t",
    "x1",
    "v1",
    "x1 + v1",
    "x1*v1",
    "x1 - v1 - t",
    "x1/v1",
    "-x1",
    "--x1",
    "-x1^2",
    "2^-3",
    "x1^2^3",
    "sin(t)",
    "cos(x1)",
    "exp(v1)",
    "log(x1)",
    "sqrt(x1)",
    "abs(x1)",
    "sin(cos(exp(t)))",
    "1",
    "1.5",
    ".5",
    "2.",
    "1e3",
    "1.5e-2",
    "2E+4",
    "(((x1)))",
    "x1 * (t + v1)",
    "(x1+v1)*(x1-v1)",
    "x1^2 + v1^2",
    "x1^0.5",
    "t*t*t",
    "3/4/5",
    "1-2-3",
    "sin(t)*x1",
    "x1 ^ 2",
    "  v1  +  1  ",
    "exp(-t)",
    "exp(t)*v1^2",
    "v1^4/4",
    "x1^(1+1)",
    "2^(3-1)",
    "abs(-3)",
    "sqrt(4)",
    "-(x1+v1)",
    "-sin(t)",
    "0",
    "x1/2 + v1/2",
]

REJECT = [
    "",
    "(",
    ")",
    "x1+",
    "+x1",
    "*x1",
    "x1*",
    "x1 x1",
    "(x1",
    "x1)",
    "x1+(v1",
    "y1",
    "x0",
    "v0",
    "x",
    "v",
    "x2",  # dim 1
    "v2",
    "x1^v1",
    "x1^t",
    "x1^(v1+1)",
    "sin",
    "sin x1",
    "sin(x1",
    "sin()",
    "foo(x1)",
    "x1 & v1",
    "x1 ! v1",
    "1..2",
    "1.2.3",
    "x1//v1",
    "^2",
    "x1^",
    "x1^^2",
    "()",
    "x1+()",
    "log()",
    "sqrt",
    "abs()",
    "x-1",  # bare x is not a variable
    "t1",
    "xx1",
    "v1)",
    "((x1)",
    "2 3",
    "sin(t))",
    "x1 +* v1",
    "/v1",
    "x1^()",
    "#x1",
]


@pytest.mark.parametrize("src", ACCEPT)
def test_grammar_accepts(src):
    parse(src, dim=1)


@pytest.mark.parametrize("src", REJECT)
def test_grammar_rejects(src):
    with pytest.raises(ParseDiagnostic):
        parse(src, dim=1)


def test_parse_kinetic_tree():
    e = parse("v1^2/2", dim=1)
    assert e == Binary("/", Pow(Var("v", 1), 2.0), Const(2.0))


def test_parse_oscillator_tree():
    e = parse("(v1^2 - x1^2)/2", dim=1)
    assert e == Binary(
        "/", Binary("-", Pow(Var("v", 1), 2.0), Pow(Var("x", 1), 2.0)), Const(2.0)
    )


def test_index_exceeds_dimension():
    with pytest.raises(ParseDiagnostic, match="exceeds dimension"):
        parse("x3", dim=2)
    parse("x2", dim=2)


def test_diagnostic_carries_offset():
    with pytest.raises(ParseDiagnostic) as err:
        parse("x1 + y9", dim=1)
    assert err.value.offset == 5
    assert err.value.token == "y9"


@pytest.mark.parametrize("src", ACCEPT)
def test_pretty_print_round_trip_fixed_point(src):
    once = to_string(parse(src, dim=1))
    twice = to_string(parse(once, dim=1))
    assert once == twice


def test_evaluate_order0_and_1():
    e = parse("v1^2/2", dim=1)
    r = evaluate(e, 0.0, [0.0], [3.0], order=1)
    assert r.value == 4.5
    assert r.d_v == pytest.approx([3.0])
    assert r.d_x == pytest.approx([0.0])


def test_evaluate_bilinear_second_partials():
    e = parse("x1*v1", dim=1)
    r = evaluate(e, 0.0, [2.0], [5.0], order=2)
    assert np.allclose(r.d2["xv"], [[1.0]])
    assert np.allclose(r.d2["vx"], [[1.0]])
    assert np.allclose(r.d2["xx"], [[0.0]])


def test_evaluate_time_coupling():
    e = parse("sin(t)*x1", dim=1)
    r = evaluate(e, 0.0, [5.0], [0.0], order=1)
    assert r.d_t == pytest.approx(5.0)  # cos(0) * x1
    assert r.d_x == pytest.approx([0.0])  # sin(0)


def test_domain_errors_surface_at_evaluation():
    e = parse("log(x1)", dim=1)
    with pytest.raises(nl.dsl.DomainError):
        evaluate(e, 0.0, [-1.0], [0.0])
    with pytest.raises(nl.dsl.DomainError):
        evaluate(e, 0.0, [-1.0], [0.0], order=1)


def test_division_by_zero():
    e = parse("1/x1", dim=1)
    with pytest.raises(nl.dsl.DomainError):
        evaluate(e, 0.0, [0.0], [0.0])


def test_abs_kink_falls_back_to_fd_with_warning():
    L = compile_field("abs(x1)", dim=1)
    with pytest.warns(RuntimeWarning, match="kink"):
        L.partial("x", 0.0, np.array([0.0]), np.array([0.0]))
    # away from the kink the analytic sign is exact
    assert L.partial("x", 0.0, np.array([2.0]), np.array([0.0])) == pytest.approx([1.0])


_SMOOTH_OPS = ["+", "-", "*", "sin", "cos", "pow", "exp"]


def _random_expression(rng, depth, ops=_SMOOTH_OPS):
    if depth == 0 or rng.random() < 0.25:
        kind = rng.integers(0, 4)
        if kind == 0:
            return Const(float(np.round(rng.uniform(-2, 2), 3)))
        if kind == 1:
            return Var("t", 0)
        if kind == 2:
            return Var("x", 1)
        return Var("v", 1)
    op = rng.choice(ops)
    if op in "+-*":
        return Binary(
            op,
            _random_expression(rng, depth - 1, ops),
            _random_expression(rng, depth - 1, ops),
        )
    if op == "pow":
        return Pow(_random_expression(rng, depth - 1, ops), float(rng.integers(2, 4)))
    return Unary(op, _random_expression(rng, depth - 1, ops))


def random_smooth_expression(rng, max_depth=6):
    return _random_expression(rng, int(rng.integers(1, max_depth + 1)))


def test_random_expression_partials_match_fd():
    # differential testing: exact jet partials against the FD engine
    rng = np.random.default_rng(101)
    fd = nl.ScalarField  # FD path comes from a field without analytic partials
    checked = 0
    while checked < 200:
        expr = random_smooth_expression(rng)
        t = float(rng.uniform(-1, 1))
        x = rng.uniform(-1, 1, size=1)
        v = rng.uniform(-1, 1, size=1)
        try:
            r = evaluate(expr, t, x, v, order=2)
        except ArithmeticError:
            continue
        grads = np.array([r.d_t, r.d_x[0], r.d_v[0], r.d2["xx"][0, 0], r.d2["vv"][0, 0]])
        if not np.all(np.isfinite(grads)) or np.max(np.abs(grads)) > 1e4:
            continue
        plain = fd(dim=1, func=lambda tt, xx, vv: nl.evaluate(expr, tt, xx, vv).value)
        assert plain.partial("t", t, x, v) == pytest.approx(r.d_t, abs=1e-6, rel=1e-6)
        assert plain.partial("x", t, x, v)[0] == pytest.approx(
            r.d_x[0], abs=1e-6, rel=1e-6
        )
        assert plain.partial("v", t, x, v)[0] == pytest.approx(
            r.d_v[0], abs=1e-6, rel=1e-6
        )
        assert plain.second_partial("vv", t, x, v)[0, 0] == pytest.approx(
            r.d2["vv"][0, 0], abs=5e-4, rel=5e-4
        )
        checked += 1


def test_compile_field_exposes_analytic_blocks():
    L = compile_field("(v1^2 + x1^2)/2 + x1*v1", dim=1)
    t, x, v = 0.0, np.array([1.0]), np.array([2.0])
    assert L(t, x, v) == pytest.approx(0.5 + 2.0 + 2.0)
    assert L.partial("v", t, x, v) == pytest.approx([3.0])
    assert np.allclose(L.second_partial("vv", t, x, v), [[1.0]])
    assert np.allclose(L.second_partial("xv", t, x, v), [[1.0]])


# -- stacked evaluation -----------------------------------------------------

_SYMBOLS = sp.symbols("t x1 v1")


def _to_sympy(e):
    if isinstance(e, Const):
        return sp.Rational(e.value)  # the exact binary value of the literal
    if isinstance(e, Var):
        return _SYMBOLS[0] if e.kind == "t" else sp.Symbol(f"{e.kind}{e.index}")
    if isinstance(e, Pow):
        return _to_sympy(e.base) ** sp.Rational(e.exponent)
    if isinstance(e, Unary):
        u = _to_sympy(e.operand)
        return -u if e.op == "neg" else getattr(sp, e.op if e.op != "abs" else "Abs")(u)
    a, b = _to_sympy(e.left), _to_sympy(e.right)
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[e.op]


def _sympy_jet(expr, t, x, v):
    """Value, gradient over (t, x1, v1) and the Hessian entries of ``_flat``
    at each point, from sympy partials evaluated at 40 digits."""
    f = _to_sympy(expr)
    grad = [sp.diff(f, s) for s in _SYMBOLS]
    hess = [[sp.diff(g, s) for s in _SYMBOLS] for g in grad]
    fn = sp.lambdify(_SYMBOLS, [f, grad, hess], modules="mpmath")
    out = []
    with mpmath.workdps(40):
        for i in range(len(t)):
            val, g, h = fn(mpmath.mpf(t[i]), mpmath.mpf(x[i, 0]), mpmath.mpf(v[i, 0]))
            h = np.array(h, dtype=float)
            hess = np.r_[h[0, 0], h[1:, 1:].ravel()]
            out.append((float(val), np.array(g, dtype=float), hess))
    return out


def _flat(r, i=None):
    """Value, gradient and the Hessian entries that EvalResult exposes (tt,
    then the (x1, v1) block) of an EvalResult, or of row i of a stack."""
    pick = (lambda a: a) if i is None else (lambda a: a[i])
    d2 = {k: np.atleast_2d(pick(b)) for k, b in r.d2.items()}
    xv = np.block([[d2["xx"], d2["xv"]], [d2["vx"], d2["vv"]]])
    grad = np.array([pick(r.d_t), pick(r.d_x)[0], pick(r.d_v)[0]], dtype=float)
    return float(pick(r.value)), grad, np.r_[d2["tt"].ravel(), xv.ravel()]


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(seed=st.integers(0, 2**32 - 1))
def test_stacked_evaluate_matches_single_points_and_sympy(seed):
    rng = np.random.default_rng(seed)
    expr = random_smooth_expression(rng)
    t = rng.uniform(-1, 1, size=4)
    x = rng.uniform(-1, 1, size=(4, 1))
    v = rng.uniform(-1, 1, size=(4, 1))
    r = evaluate(expr, t, x, v, order=2)
    assert r.value.shape == (4,) and r.d_x.shape == (4, 1)
    assert r.d2["xv"].shape == (4, 1, 1)
    rows = [_flat(r, i) for i in range(4)]
    # the random trees are smooth, but nested exp/pow can leave float range
    entries = np.concatenate([np.r_[a, b, c] for a, b, c in rows])
    assume(np.all(np.isfinite(entries)) and np.max(np.abs(entries)) < 1e6)
    exact = _sympy_jet(expr, t, x, v)
    for i, (val, grad, hess) in enumerate(rows):
        single = _flat(evaluate(expr, t[i], x[i], v[i], order=2))
        for got, want in zip((val, grad, hess), single):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
        # a partial whose terms cancel has an error relative to the terms,
        # not to the result: the floor is rtol times the row's largest entry
        scale = max(abs(val), np.max(np.abs(grad)), np.max(np.abs(hess)), 1.0)
        for got, want in zip((val, grad, hess), exact[i]):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * scale)


def test_stacked_evaluate_of_a_constant_broadcasts():
    e = parse("2^3 + 1", dim=2)
    r = evaluate(e, np.zeros(3), np.ones((3, 2)), np.ones((3, 2)), order=2)
    assert np.array_equal(r.value, [9.0, 9.0, 9.0])
    assert r.d_x.shape == (3, 2) and not r.d_x.any()
    assert r.d2["xv"].shape == (3, 2, 2) and not r.d2["xv"].any()


def test_stacked_domain_error_names_the_failing_point():
    e = parse("v1 + log(x1)", dim=1)
    x = np.array([[1.0], [2.0], [-0.5], [3.0], [-1.0]])
    named = r"non-positive value -0\.5 at point 2 \(t=0\.2"
    for order in (0, 1, 2):
        with pytest.raises(DomainError, match=named) as err:
            evaluate(e, np.linspace(0.0, 0.4, 5), x, np.zeros((5, 1)), order=order)
        assert list(err.value.rows) == [2, 4]
    # a compiled field raises the same through a stacked call
    L = compile_field("1/(x1 - 2)", dim=1)
    with pytest.raises(DomainError, match=r"division by zero at point 1"):
        L(np.zeros(3), x[:3], np.zeros((3, 1)))


def test_abs_kink_rows_alone_fall_back_with_one_warning(monkeypatch):
    L = compile_field("abs(x1)*v1^2", dim=1)
    t = np.zeros(5)
    x = np.array([[2.0], [0.0], [-3.0], [1e-13], [0.5]])
    v = np.array([[1.5], [2.0], [-1.0], [3.0], [0.5]])
    probed = []
    at_point = nl.ScalarField._at_point

    def spy(self, block, t, x, v):
        probed.append(float(x[0]))
        return at_point(self, block, t, x, v)

    monkeypatch.setattr(nl.ScalarField, "_at_point", spy)
    with pytest.warns(RuntimeWarning, match="kink") as caught:
        d_x = L.partial("x", t, x, v)
    assert len(caught) == 1
    assert probed == [0.0, 1e-13]
    smooth = [0, 2, 4]
    assert np.array_equal(d_x[smooth, 0], np.sign(x[smooth, 0]) * v[smooth, 0] ** 2)
    assert d_x[[1, 3], 0] == pytest.approx([0.0, 0.0], abs=1e-6)


def test_domain_error_after_kink_rows_names_the_row_of_the_stack():
    # row 0 is at the abs() kink, so its sqrt(0) is skipped; row 2 is not
    L = compile_field("abs(x1) + sqrt(x2)", 2)
    x = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(DomainError, match=r"sqrt not differentiable at 0 at point 2 ") as err:
        L.partial("x", np.zeros(4), x, np.ones((4, 2)))
    assert list(err.value.rows) == [2]


@pytest.mark.parametrize("src", ["sqrt(0) + v1^2/2", "0^1.5 + v1^2/2", "abs(1 - 1)*x1 + v1^2/2"])
def test_a_constant_argument_needs_no_partial_check(src):
    # sqrt, a power and abs() of a constant have no gradient, so neither the
    # check at 0 nor the kink mark applies: every partial is exact
    L = compile_field(src, 1)
    t, x, v = np.zeros(3), np.array([[0.0], [1.0], [-2.0]]), np.array([[0.5], [1.0], [2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d_x, d_v = L.partial(("x", "v"), t, x, v)
        (vv,) = L.second_partial(("vv",), t, x, v)
        assert L.jets(t, x, v, 2).kinks is None
    assert np.array_equal(d_x, np.zeros((3, 1))) and np.array_equal(d_v, v)
    assert np.array_equal(vv, np.ones((3, 1, 1)))


@pytest.mark.parametrize("c, order", [(2.5, 1), (2.5, 2), (1.5, 1)])
def test_zero_base_power_with_finite_partials_evaluates(c, order):
    # d^k/du^k u^c is finite at u = 0 for k <= c, so only c < order is checked
    r = evaluate(parse(f"x1^{c!r}", 1), 0.0, [0.0], [0.0], order=order)
    assert r.value == 0.0 and r.d_x[0] == 0.0
    assert order == 1 or r.d2["xx"][0, 0] == 0.0


@pytest.mark.parametrize("c, order", [(1.5, 2), (0.5, 1), (0.5, 2)])
def test_zero_base_power_below_the_order_raises(c, order):
    e = parse(f"x1^{c!r}", 1)
    assert evaluate(e, 0.0, [0.0], [0.0]).value == 0.0
    with pytest.raises(DomainError, match=rf"0 raised to exponent {c!r}"):
        evaluate(e, 0.0, [0.0], [0.0], order=order)


@pytest.mark.parametrize(
    "src, x1, v1, kinks",
    [
        ("abs(x1)*v1^2", [0.0, 1.0, -2.0, 1e-13], [1.0, 2.0, 0.0, 3.0], [0, 3]),
        ("abs(x1) + abs(v1)", [0.0, 1.0, 1.0, 2.0], [1.0, 0.0, 1.0, 2.0], [0, 1]),
    ],
    ids=["one-kinked-node", "two-kinked-nodes"],
)
def test_kink_rows_cost_one_evaluate_call(monkeypatch, src, x1, v1, kinks):
    L = compile_field(src, 1)
    orders = []
    evaluate = nl.dsl.evaluate

    def counting(e, t, x, v, order=0):
        orders.append(order)
        return evaluate(e, t, x, v, order=order)

    monkeypatch.setattr(nl.dsl, "evaluate", counting)
    t, x, v = np.zeros(4), np.array(x1)[:, None], np.array(v1)[:, None]
    with pytest.warns(RuntimeWarning, match="kink") as caught:
        r = L.jets(t, x, v, 2)
    assert orders == [2] and len(caught) == 1
    assert list(r.kinks) == kinks
    smooth = np.setdiff1d(np.arange(4), kinks)
    for block in (r.d_t, r.d_x, r.d_v, *r.d2.values()):
        assert np.isnan(block[kinks]).all() and np.isfinite(block[smooth]).all()
    assert np.isfinite(r.value).all()


_BLOCKS = ("value", "t", "x", "v", "tt", "xx", "xv", "vx", "vv")


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(seed=st.integers(0, 2**32 - 1))
def test_stacked_jet_with_kink_rows_equals_the_one_point_reads(seed):
    # abs() of a coordinate times a random tree with abs() nodes of its own,
    # on a stack whose rows 0 and 2 sit at the kinks of abs(x1) and abs(v1)
    rng = np.random.default_rng(seed)
    ops = _SMOOTH_OPS + ["abs", "abs"]
    kinked = Unary("abs", Var(str(rng.choice(["x", "v"])), 1))
    expr = Binary(str(rng.choice(["+", "*"])), kinked, _random_expression(rng, 4, ops))
    L = compile_field(expr, 1)
    t = rng.uniform(-1, 1, size=5)
    x, v = rng.uniform(-1, 1, size=(5, 1)), rng.uniform(-1, 1, size=(5, 1))
    x[[0, 2], 0] = 0.0
    v[[0, 2], 0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        jet = L.jet(t, x, v, 2)
        assert 0 in jet.exact.kinks
        smooth = np.setdiff1d(np.arange(5), jet.exact.kinks)
        assume(len(smooth) and np.all(np.isfinite(jet["value"])))
        stack = {block: jet[block] for block in _BLOCKS}
        for i in range(5):
            one = L.jet(t[i], x[i], v[i], 2)
            for block in _BLOCKS:
                got, want = np.asarray(stack[block][i]), np.asarray(one[block])
                if i in smooth or block == "value":
                    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
                else:
                    assert got.tobytes() == want.tobytes(), (i, block)
