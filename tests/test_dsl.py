import math
import operator
import pickle
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import fd
import noether_lcs as nl
from noether_lcs.dsl import (
    Binary,
    Const,
    DomainError,
    EvalResult,
    Expression,
    ParseDiagnostic,
    Pow,
    Unary,
    Var,
    compile_field,
    evaluate,
    parse,
)
from noether_lcs.fields import EvaluationError

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


# -- the canonical rendering the parser must read back --------------------
#
# The package prints no expressions; this printer is the oracle of the
# parser's precedence and associativity, as tests/fd.py is of the jets.

_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "neg": 25, "^": 30}


def _prec(e: Expression) -> int:
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Unary):
        return _PREC["neg"] if e.op == "neg" else 100
    if isinstance(e, Pow):
        return _PREC["^"]
    return 100


def _num(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def to_string(e: Expression) -> str:
    """Canonical rendering of a tree, with the fewest parentheses."""
    if isinstance(e, Const):
        return _num(e.value)
    if isinstance(e, Var):
        return "t" if e.kind == "t" else f"{e.kind}{e.index}"
    if isinstance(e, Unary):
        inner = to_string(e.operand)
        if e.op == "neg":
            if _prec(e.operand) < _PREC["^"] and not isinstance(e.operand, Unary):
                inner = f"({inner})"
            return f"-{inner}"
        return f"{e.op}({inner})"
    if isinstance(e, Pow):
        base = to_string(e.base)
        if _prec(e.base) <= _PREC["^"]:
            base = f"({base})"
        exp = _num(e.exponent)
        if e.exponent < 0:
            exp = f"({exp})"
        return f"{base}^{exp}"
    left = to_string(e.left)
    right = to_string(e.right)
    if _prec(e.left) < _PREC[e.op]:
        left = f"({left})"
    if _prec(e.right) <= _PREC[e.op]:
        right = f"({right})"
    return f"{left}{e.op}{right}"


@pytest.mark.parametrize("src", ACCEPT)
def test_pretty_print_round_trip_fixed_point(src):
    # the parser reads each tree back from its canonical rendering, so that
    # rendering is a fixed point
    tree = parse(src, dim=1)
    once = to_string(tree)
    assert parse(once, dim=1) == tree
    assert to_string(parse(once, dim=1)) == once


def test_evaluate_order0_and_1():
    e = parse("v1^2/2", dim=1)
    r = evaluate(e, 0.0, [0.0], [3.0], order=1)
    assert r.value == 4.5
    assert list(r.grad) == pytest.approx([0.0, 0.0, 3.0])  # over (t, x1, v1)


def test_evaluate_bilinear_second_partials():
    e = parse("x1*v1", dim=1)
    r = evaluate(e, 0.0, [2.0], [5.0], order=2)
    assert np.allclose(r.hess, [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def test_evaluate_time_coupling():
    e = parse("sin(t)*x1", dim=1)
    r = evaluate(e, 0.0, [5.0], [0.0], order=1)
    assert r.grad[0] == pytest.approx(5.0)  # cos(0) * x1
    assert r.grad[1] == pytest.approx(0.0)  # sin(0)


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


@pytest.mark.parametrize("src", ["x1/0", "x1/(1 - 1)"])
def test_division_by_a_constant_zero_is_checked_at_every_call(src):
    # only a nonzero constant divisor goes unchecked
    e = parse(src, dim=1)
    for order in (0, 1):
        with pytest.raises(nl.dsl.DomainError, match="division by zero"):
            evaluate(e, 0.0, [1.0], [0.0], order=order)


def test_a_partial_of_abs_at_zero_is_a_domain_error():
    # abs has no derivative at 0: every partial read raises, as sqrt's does,
    # while the value is exact
    L = compile_field("abs(x1)", dim=1)
    assert L(0.0, np.array([0.0]), np.array([0.0])) == 0.0
    for read, name in ((L.partial, "x"), (L.partial, "t"), (L.second_partial, "vv")):
        named = r"^abs not differentiable at 0 at t=0\.0, x=\[0\.\], v=\[0\.\]$"
        with pytest.raises(DomainError, match=named) as err:
            read(name, 0.0, np.array([0.0]), np.array([0.0]))
        assert list(err.value.rows) == [0] and err.value.index is None
    # away from 0 the analytic sign is exact
    assert L.partial("x", 0.0, np.array([2.0]), np.array([0.0])) == pytest.approx([1.0])
    assert L.partial("x", 0.0, np.array([-1e-300]), np.array([0.0])) == pytest.approx([-1.0])


_SMOOTH_OPS = ["+", "-", "*", "sin", "cos", "pow", "exp"]


# exponents of the "pow-" and "pow." ops: negative, and not integers
_NEGATIVE_EXPONENTS = (-1.0, -2.0, -3.0, -0.5)
_FRACTIONAL_EXPONENTS = (0.5, 1.5, 2.5, -1.5)


def _random_expression(rng, depth, ops=_SMOOTH_OPS, dim=1):
    """A random tree over t, x1..x<dim>, v1..v<dim>; at dim 1 it draws the
    same trees from the same generator state as it always did."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.integers(0, 4)
        if kind == 0:
            return Const(float(np.round(rng.uniform(-2, 2), 3)))
        if kind == 1:
            return Var("t", 0)
        index = 1 if dim == 1 else int(rng.integers(1, dim + 1))
        return Var("x" if kind == 2 else "v", index)
    op = rng.choice(ops)
    if op in "+-*/":
        return Binary(
            op,
            _random_expression(rng, depth - 1, ops, dim),
            _random_expression(rng, depth - 1, ops, dim),
        )
    if op.startswith("pow"):
        exponents = {"pow-": _NEGATIVE_EXPONENTS, "pow.": _FRACTIONAL_EXPONENTS}
        c = float(rng.choice(exponents[op])) if op in exponents else float(rng.integers(2, 4))
        return Pow(_random_expression(rng, depth - 1, ops, dim), c)
    return Unary(op, _random_expression(rng, depth - 1, ops, dim))


def random_smooth_expression(rng, max_depth=6):
    return _random_expression(rng, int(rng.integers(1, max_depth + 1)))


def test_random_expression_partials_match_fd():
    # differential testing: exact jet partials against finite differences
    # of the values
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 200:
        expr = random_smooth_expression(rng)
        t = float(rng.uniform(-1, 1))
        x = rng.uniform(-1, 1, size=1)
        v = rng.uniform(-1, 1, size=1)
        try:
            r = evaluate(expr, t, x, v, order=2)
        except DomainError:
            continue
        grads = np.r_[r.grad, r.hess[1, 1], r.hess[2, 2]]
        if not np.all(np.isfinite(grads)) or np.max(np.abs(grads)) > 1e4:
            continue
        plain = nl.compile_field(expr, 1)
        assert fd.block(plain, "t", t, x, v) == pytest.approx(r.grad[0], abs=1e-6, rel=1e-6)
        assert fd.block(plain, "x", t, x, v)[0] == pytest.approx(r.grad[1], abs=1e-6, rel=1e-6)
        assert fd.block(plain, "v", t, x, v)[0] == pytest.approx(r.grad[2], abs=1e-6, rel=1e-6)
        assert fd.block(plain, "vv", t, x, v)[0, 0] == pytest.approx(
            r.hess[2, 2], abs=5e-4, rel=5e-4
        )
        checked += 1


def test_a_compiled_field_builds_its_program_once(monkeypatch):
    tree = parse("sqrt(1 + v1^2) + v2^2/(2*(1 + x2^2)) - cos(x1)", 2)
    compiles = []
    compile_node = nl.dsl._compile

    def counting(e, m):
        compiles.append(e)
        return compile_node(e, m)

    monkeypatch.setattr(nl.dsl, "_compile", counting)
    L = compile_field(tree, dim=2)
    built = len(compiles)
    # one closure per node, and the tree stays the field's expression
    assert compiles[0] is tree and L.jets.expr is tree and built == 18
    t, x, v = np.zeros(4), np.full((4, 2), 0.5), np.ones((4, 2))
    for _ in range(3):
        L(0.0, x[0], v[0])
        L(t, x, v)
        L.partial(("x", "v"), t, x, v)
        L.second_partial("vv", 0.0, x[0], v[0])
    assert len(compiles) == built


def test_a_compiled_field_pickles_with_its_program():
    # the program is tuples of module-level functions, arrays and constants
    L = compile_field("sin(x1)*cos(v2) + exp(-x2^2) + log(2 + v1^2) + sqrt(1 + abs(x1)) - t/2", 2)
    M = pickle.loads(pickle.dumps(L))
    assert M.jets.expr == L.jets.expr and M.dim == 2
    t, x, v = np.linspace(0.0, 1.0, 4), np.full((4, 2), 0.3), np.full((4, 2), -0.7)
    for block in ("value", "x", "v", "xx", "xv", "vv"):
        order = 0 if block == "value" else len(block)
        assert np.array_equal(M.jet(t, x, v, order)[block], L.jet(t, x, v, order)[block])


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
    """Value, gradient and Hessian over (t, x1, v1), the Hessian flattened,
    at each point, from sympy partials evaluated at 40 digits."""
    f = _to_sympy(expr)
    grad = [sp.diff(f, s) for s in _SYMBOLS]
    hess = [[sp.diff(g, s) for s in _SYMBOLS] for g in grad]
    fn = sp.lambdify(_SYMBOLS, [f, grad, hess], modules="mpmath")
    out = []
    with mpmath.workdps(40):
        for i in range(len(t)):
            val, g, h = fn(mpmath.mpf(t[i]), mpmath.mpf(x[i, 0]), mpmath.mpf(v[i, 0]))
            hess = np.array(h, dtype=float).ravel()
            out.append((float(val), np.array(g, dtype=float), hess))
    return out


def _flat(r, i=None):
    """Value, gradient and flattened Hessian of an EvalResult, or of row i of
    a stack."""
    pick = (lambda a: a) if i is None else (lambda a: a[i])
    return float(pick(r.value)), pick(r.grad), pick(r.hess).ravel()


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
    assert r.value.shape == (4,) and r.grad.shape == (4, 3)
    assert r.hess.shape == (4, 3, 3)
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
    assert r.grad.shape == (3, 5) and not r.grad.any()
    assert r.hess.shape == (3, 5, 5) and not r.hess.any()


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


def test_abs_at_zero_names_the_rows_of_the_stack_and_near_zero_is_exact():
    # x1 == 0 (and -0.0) has no partials; 1e-13, however close, has exact ones
    L = compile_field("abs(x1)*v1^2", dim=1)
    t = np.zeros(6)
    x = np.array([[2.0], [0.0], [-3.0], [1e-13], [0.5], [-0.0]])
    v = np.array([[1.5], [2.0], [-1.0], [3.0], [0.5], [1.0]])
    named = r"^abs not differentiable at 0 at point 1 \(t=0\.0, x=\[0\.\], v=\[2\.\]\)$"
    for order in (1, 2):
        with pytest.raises(DomainError, match=named) as err:
            L.jet(t, x, v, order)
        assert list(err.value.rows) == [1, 5]
    assert np.array_equal(L(t, x, v), np.abs(x[:, 0]) * v[:, 0] ** 2)
    smooth = [0, 2, 3, 4]
    d_x = L.partial("x", t[smooth], x[smooth], v[smooth])
    assert np.array_equal(d_x[:, 0], np.sign(x[smooth, 0]) * v[smooth, 0] ** 2)


def test_domain_error_after_kink_rows_names_the_row_of_the_stack():
    # the program checks abs(x1) before sqrt(x2): a stack with rows at both
    # raises for abs, naming its row; without it, for sqrt at row 2
    L = compile_field("abs(x1) + sqrt(x2)", 2)
    x = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(DomainError, match=r"abs not differentiable at 0 at point 0 ") as err:
        L.partial("x", np.zeros(4), x, np.ones((4, 2)))
    assert list(err.value.rows) == [0]
    x[0] = 1.0
    with pytest.raises(DomainError, match=r"sqrt not differentiable at 0 at point 2 ") as err:
        L.partial("x", np.zeros(4), x, np.ones((4, 2)))
    assert list(err.value.rows) == [2]


@pytest.mark.parametrize("src", ["sqrt(0) + v1^2/2", "0^1.5 + v1^2/2", "abs(1 - 1)*x1 + v1^2/2"])
def test_a_constant_argument_needs_no_partial_check(src):
    # sqrt, a power and abs() of a constant have no gradient, so their
    # checks at 0 do not apply: every partial is exact
    L = compile_field(src, 1)
    t, x, v = np.zeros(3), np.array([[0.0], [1.0], [-2.0]]), np.array([[0.5], [1.0], [2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d_x, d_v = L.partial(("x", "v"), t, x, v)
        (vv,) = L.second_partial(("vv",), t, x, v)
    assert np.array_equal(d_x, np.zeros((3, 1))) and np.array_equal(d_v, v)
    assert np.array_equal(vv, np.ones((3, 1, 1)))


@pytest.mark.parametrize("c, order", [(2.5, 1), (2.5, 2), (1.5, 1)])
def test_zero_base_power_with_finite_partials_evaluates(c, order):
    # d^k/du^k u^c is finite at u = 0 for k <= c, so only c < order is checked
    r = evaluate(parse(f"x1^{c!r}", 1), 0.0, [0.0], [0.0], order=order)
    assert r.value == 0.0 and r.grad[1] == 0.0
    assert order == 1 or r.hess[1, 1] == 0.0


@pytest.mark.parametrize("c, order", [(1.5, 2), (0.5, 1), (0.5, 2)])
def test_zero_base_power_below_the_order_raises(c, order):
    e = parse(f"x1^{c!r}", 1)
    assert evaluate(e, 0.0, [0.0], [0.0]).value == 0.0
    with pytest.raises(DomainError, match=rf"0 raised to exponent {c!r}"):
        evaluate(e, 0.0, [0.0], [0.0], order=order)


@pytest.mark.parametrize(
    "src, x1",
    [
        ("x1^(0*1e400)", [-1.0, 0.5]),  # the exponent folds to nan
        ("x1^(1e400)", [-1.0, 2.0]),  # to inf
        ("x1^(-1e400)", [-1.0, 0.0]),  # to -inf
    ],
)
def test_an_exponent_that_folds_to_inf_or_nan_is_a_domain_or_evaluation_error(src, x1):
    # no raw OverflowError or ValueError from the exponent: the CLI prints
    # DomainError and EvaluationError as one error line
    L = compile_field(src, 1)
    for point in x1:
        with pytest.raises((DomainError, EvaluationError)):
            L(0.0, np.array([point]), np.array([1.0]))
    with pytest.raises((DomainError, EvaluationError)):
        L(np.zeros(2), np.array(x1)[:, None], np.ones((2, 1)))
    for order in (1, 2):
        with pytest.raises((DomainError, EvaluationError)):
            L.jet(0.0, np.array([x1[0]]), np.array([1.0]), order)["value"]


@pytest.mark.parametrize(
    "src, x1, v1, rows",
    [
        ("abs(x1)*v1^2", [0.0, 1.0, -2.0, 1e-13], [1.0, 2.0, 0.0, 3.0], [0]),
        ("abs(x1) + abs(v1)", [1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 2.0], [1, 3]),
    ],
    ids=["one-kinked-node", "two-kinked-nodes"],
)
def test_kink_rows_cost_one_evaluate_call(monkeypatch, src, x1, v1, rows):
    # no retry and no second path: the one call raises at the first abs()
    # whose argument is 0 on some row, naming that node's rows
    L = compile_field(src, 1)
    orders = []
    evaluate = nl.dsl.evaluate

    def counting(e, t, x, v, order=0):
        orders.append(order)
        return evaluate(e, t, x, v, order=order)

    monkeypatch.setattr(nl.dsl, "evaluate", counting)
    t, x, v = np.zeros(4), np.array(x1)[:, None], np.array(v1)[:, None]
    with pytest.raises(DomainError, match=rf"^abs not differentiable at 0 at point {rows[0]} "):
        L.jets(t, x, v, 2)
    assert orders == [2]
    with pytest.raises(DomainError) as err:
        L.jets(t, x, v, 1)
    assert list(err.value.rows) == rows and orders == [2, 1]
    assert np.isfinite(L(t, x, v)).all()


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
    # on a stack whose rows 0 and 2 sit at the kinks of abs(x1) and abs(v1):
    # the stack raises as the one-point reads of those rows do, and the
    # stack of the other rows gives their one-point blocks
    rng = np.random.default_rng(seed)
    ops = _SMOOTH_OPS + ["abs", "abs"]
    kinked = Unary("abs", Var(str(rng.choice(["x", "v"])), 1))
    expr = Binary(str(rng.choice(["+", "*"])), kinked, _random_expression(rng, 4, ops))
    L = compile_field(expr, 1)
    t = rng.uniform(-1, 1, size=5)
    x, v = rng.uniform(-1, 1, size=(5, 1)), rng.uniform(-1, 1, size=(5, 1))
    x[[0, 2], 0] = 0.0
    v[[0, 2], 0] = 0.0
    # a jet raises EvaluationError where the value is not finite
    assume(np.all(np.isfinite(evaluate(expr, t, x, v).value)))
    with pytest.raises(DomainError, match=r"^abs not differentiable at 0 at point 0 ") as err:
        L.jet(t, x, v, 2)
    assert list(err.value.rows) == [0, 2]
    for i in (0, 2):
        with pytest.raises(DomainError, match=rf"^abs not differentiable at 0 at t={t[i]}, x="):
            L.jet(t[i], x[i], v[i], 2)
    smooth = [1, 3, 4]
    try:  # a random abs() node may meet 0 too, as abs(x1 - x1) does everywhere
        jet = L.jet(t[smooth], x[smooth], v[smooth], 2)
    except DomainError:
        assume(False)
    stack = {block: jet[block] for block in _BLOCKS}
    for k, i in enumerate(smooth):
        one = L.jet(t[i], x[i], v[i], 2)
        for block in _BLOCKS:
            got, want = np.asarray(stack[block][k]), np.asarray(one[block])
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


# -- the compiled program against the tree-walking evaluator ---------------
#
# The recursive evaluator that walked the tree on every call, kept verbatim
# (but for its name, its abs rule, which checks 0 as sqrt's does, and its
# integer powers, which are products as the program's are) as the reference:
# the compiled program must give the same bits and the same DomainError.

_UNARY = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}
_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _plus(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _minus(a, b):
    if b is None:
        return a
    if a is None:
        return -b
    return a - b


def _neg(a):
    return None if a is None else -a


def _g_times(g, s):
    """Gradient g scaled point by point by the values s."""
    return None if g is None else g * (s[:, None] if s.ndim else s)


def _h_times(h, s):
    """Hessian h scaled point by point by the values s."""
    if h is None or s is None:
        return None
    return h * (s[:, None, None] if s.ndim else s)


def _outer(a, b):
    if a is None or b is None:
        return None
    return a[..., :, None] * b[..., None, :]


def reference_evaluate(e: Expression, t, x, v, order: int = 0) -> EvalResult:
    """Value of ``e`` with exact partials up to ``order`` (0, 1 or 2).

    Takes one point (scalar t, x and v of shape (m,)) or a stack of N points
    (t of shape (N,), x and v of shape (N, m)); the stack is evaluated in one
    pass over the tree.  An invalid argument raises DomainError, which on a
    stack names the first failing point and lists every failing row in
    ``rows``.  The checks that only partials need apply only where the
    argument depends on (t, x, v): sqrt at 0, and 0 to a non-integer power
    c < ``order`` (the partials of u^c stay finite at 0 for c >= order).
    abs at 0 has no partials either, and is checked as sqrt is.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    stacked = x.ndim == 2
    T = np.asarray(t, dtype=float) if stacked else np.float64(t)
    m = x.shape[-1]
    n = 1 + 2 * m
    units = {}

    def check(bad, message, values=None):
        if not (bad.any() if type(bad) is np.ndarray else bad):
            return
        if not stacked:
            raise DomainError(message.format(values) + f" at t={T}, x={x}, v={v}")
        rows = np.flatnonzero(np.broadcast_to(bad, T.shape))
        i = int(rows[0])
        value = None if values is None else np.broadcast_to(values, T.shape)[i]
        raise DomainError(
            message.format(value) + f" at point {i} (t={T[i]}, x={x[i]}, v={v[i]})",
            rows,
            i,
        )

    def chain(f0, ug, uh, f1, f2):
        h = None
        if order >= 2:
            h = _plus(_h_times(uh, f1), _h_times(_outer(ug, ug), f2))
        return f0, _g_times(ug, f1), h

    def variable(node):
        # row i of x.T is column i of a stack, and a scalar at one point
        slot = m + node.index if node.kind == "v" else node.index
        val = T if slot == 0 else (v if node.kind == "v" else x).T[node.index - 1]
        if order == 0:
            return val, None, None
        if slot not in units:
            units[slot] = np.zeros(n)
            units[slot][slot] = 1.0
        return val, units[slot], None

    def power(u, c):
        u0, ug, uh = u
        if c == 0.0:
            return np.float64(1.0), None, None
        if c >= 2.0 and c == int(c):
            # u^2 = u*u; for c >= 3, u^(c-2) by repeated squaring, then
            # u^(c-1) and u^c by one more product each
            if c == 2.0:
                low, high = np.float64(1.0), u0
            else:
                low, square, q = None, u0, int(c) - 2
                while q:
                    if q & 1:
                        low = square if low is None else low * square
                    q >>= 1
                    if q:
                        square = square * square
                high = low * u0
            f0 = high * u0
            if ug is None:
                return f0, None, None
            return chain(f0, ug, uh, c * high, c * (c - 1.0) * low)
        if c < 0.0:
            check(u0 == 0.0, f"0 raised to exponent {c}")
        elif ug is not None and c < order and c != int(c):
            check(u0 == 0.0, f"0 raised to exponent {c}")
        if c != int(c):
            check(u0 < 0.0, f"negative base {{}} with non-integer exponent {c}", u0)
        f0 = u0**c
        if ug is None:
            return f0, None, None
        f2 = None if c == 1.0 or order < 2 else c * (c - 1.0) * u0 ** (c - 2.0)
        return chain(f0, ug, uh, c * u0 ** (c - 1.0), f2)

    def unary(op, u):
        u0, ug, uh = u
        if op == "neg":
            return -u0, _neg(ug), _neg(uh)
        if op == "log":
            check(u0 <= 0.0, "log of non-positive value {}", u0)
        elif op == "sqrt":
            check(u0 < 0.0, "sqrt of negative value {}", u0)
            if ug is not None:
                check(u0 == 0.0, "sqrt not differentiable at 0")
        elif op == "abs" and ug is not None:
            check(u0 == 0.0, "abs not differentiable at 0")
        f0 = _UNARY[op](u0)
        if ug is None:
            return f0, None, None
        # first and second derivative of the outer function
        if op == "sin":
            f1, f2 = np.cos(u0), -f0
        elif op == "cos":
            f1, f2 = -np.sin(u0), -f0
        elif op == "exp":
            f1 = f2 = f0
        elif op == "log":
            f1, f2 = 1.0 / u0, -1.0 / u0**2
        elif op == "sqrt":
            f1, f2 = 0.5 / f0, -0.25 / (f0 * u0)
        else:
            f1, f2 = np.where(u0 > 0.0, 1.0, -1.0), None
        return chain(f0, ug, uh, f1, f2)

    def rec(node):
        kind = type(node)
        if kind is Binary:
            a0, ag, ah = rec(node.left)
            b0, bg, bh = rec(node.right)
            op = node.op
            if op == "/":
                check(b0 == 0.0, "division by zero")
            if ag is None and bg is None:
                return _ARITHMETIC[op](a0, b0), None, None
            if op == "+":
                return a0 + b0, _plus(ag, bg), _plus(ah, bh)
            if op == "-":
                return a0 - b0, _minus(ag, bg), _minus(ah, bh)
            if op == "*":
                h = None
                if order >= 2:
                    h = _plus(_h_times(ah, b0), _h_times(bh, a0))
                    h = _plus(_plus(h, _outer(ag, bg)), _outer(bg, ag))
                return a0 * b0, _plus(_g_times(ag, b0), _g_times(bg, a0)), h
            q = a0 / b0
            g = _minus(ag, _g_times(bg, q))
            g = None if g is None else g / (b0[:, None] if b0.ndim else b0)
            h = None
            if order >= 2:
                h = _minus(_minus(ah, _outer(g, bg)), _outer(bg, g))
                h = _minus(h, _h_times(bh, q))
                h = None if h is None else h / (b0[:, None, None] if b0.ndim else b0)
            return q, g, h
        if kind is Var:
            return variable(node)
        if kind is Const:
            return np.float64(node.value), None, None
        if kind is Pow:
            return power(rec(node.base), node.exponent)
        return unary(node.op, rec(node.operand))

    with np.errstate(all="ignore"):
        val, g, h = rec(e)
    shape = T.shape
    res = {"value": np.array(np.broadcast_to(val, shape)) if stacked else float(val)}
    if order >= 1:
        res["grad"] = np.array(np.broadcast_to(0.0 if g is None else g, shape + (n,)))
    if order >= 2:
        res["hess"] = np.array(np.broadcast_to(0.0 if h is None else h, shape + (n, n)))
    return EvalResult(**res)


def _outcome(e, t, x, v, order, evaluator):
    """Each field of the result as bytes, or the error's type, text, rows
    and index."""
    try:
        r = evaluator(e, t, x, v, order=order)
    except DomainError as err:
        return type(err).__name__, str(err), err.rows.tobytes(), err.index
    blocks = {"value": r.value, "grad": r.grad, "hess": r.hess}
    return {k: None if b is None else (np.asarray(b).dtype, np.asarray(b).tobytes())
            for k, b in blocks.items()}


def _with_form(rng, form, dim):
    """A random tree over dim coordinates that holds the given form."""
    ops = _SMOOTH_OPS + ["/", "log", "sqrt", "abs", "pow-", "pow."]
    tree = _random_expression(rng, 4, ops, dim)
    var = Var(str(rng.choice(["x", "v"])), int(rng.integers(1, dim + 1)))
    if form == "variable-divisor":
        # zero at the stack's row 2, where the divisor's variable is 0.5
        return Binary("/", tree, Binary("-", var, Const(0.5)))
    if form == "log-sqrt-abs":
        inner = Binary("+", var, _random_expression(rng, 2, ops, dim))
        log = Unary("log", Binary("+", Const(1.0), Unary("abs", var)))
        return Binary("*", log, Unary("sqrt", Unary("abs", inner)))
    exponents = _NEGATIVE_EXPONENTS if form == "negative-exponent" else _FRACTIONAL_EXPONENTS
    return Binary("+", Pow(Binary("+", var, tree), float(rng.choice(exponents))), tree)


_FORMS = ("variable-divisor", "log-sqrt-abs", "negative-exponent", "fractional-exponent")


@pytest.mark.parametrize("form", _FORMS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8))
def test_compiled_program_matches_the_tree_walk_bit_for_bit(form, seed, dim):
    rng = np.random.default_rng(seed)
    expr = _with_form(rng, form, dim)
    n = 5
    t = rng.uniform(-1, 1, n)
    x, v = rng.uniform(-2, 2, (n, dim)), rng.uniform(-2, 2, (n, dim))
    x[1] = v[1] = 0.0  # abs(0), sqrt(0), 0 to a power
    x[2] = v[2] = 0.5  # a zero divisor
    x[3] = -x[3] ** 2  # negative bases
    for order in (0, 1, 2):
        stacks = (t, x, v), (t[:1], x[:1], v[:1])
        points = [(t[i], x[i], v[i]) for i in range(n)]
        for args in (*stacks, *points):
            want = _outcome(expr, *args, order, reference_evaluate)
            assert _outcome(expr, *args, order, evaluate) == want, (to_string(expr), order, args)


def _program_root(field, t, x, v, order=2):
    """The root's (value, gradient, Hessian) of a compiled field's program on
    a stack, before ``evaluate`` fills them to the stack's shapes."""
    from noether_lcs.dsl import _Call

    r = field.jets.run
    with np.errstate(all="ignore"):
        return r[0](r, _Call(t, x, v, order))


@pytest.mark.parametrize(
    "src, per_point",
    [("(1.2*v1^2 - 0.7*x1^2)/2 + 0.3*x1*v2", False), ("v1^4", True), ("x1*v1^2", True)],
)
def test_a_quadratic_forms_hessian_stays_one_matrix_until_the_root_fill(src, per_point):
    N, m = 7, 2
    n = 1 + 2 * m
    rng = np.random.default_rng(0)
    t, x, v = rng.uniform(-1, 1, N), rng.uniform(-1, 1, (N, m)), rng.uniform(-1, 1, (N, m))
    field = compile_field(src, m)
    hess = _program_root(field, t, x, v)[2]
    assert hess.shape == ((N,) if per_point else ()) + (n, n)
    r = evaluate(field.jets, t, x, v, order=2)
    assert r.hess.shape == (N, n, n)
    assert r.hess.tobytes() == np.broadcast_to(hess, (N, n, n)).tobytes()


_SQUARES = [
    "v1^2/2 - x1^2",
    "(1.2*v1^2 - 0.7*x1^2)/2 + 0.3*x1*v2",
    "(x1 + v1)^2*x2 - (t*v2)^2",
    "(x1^2 + v2)^2/(1 + v1^2)",
    "sin(x1)^2 + exp(v1^2) - (-x2)^2",
    "-(x2 - v1)^2*v1^4",
]
_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.0]


@pytest.mark.parametrize("src", _SQUARES)
def test_squares_at_nan_inf_and_negative_zero_match_the_tree_walk_bit_for_bit(src):
    # every pair of the special values as (x1, v1), the others cycled in x2, v2
    pairs = [(a, b) for a in _SPECIAL for b in _SPECIAL]
    k = len(_SPECIAL)
    x = np.array([[a, _SPECIAL[(i + 2) % k]] for i, (a, _) in enumerate(pairs)])
    v = np.array([[b, _SPECIAL[(i + 5) % k]] for i, (_, b) in enumerate(pairs)])
    t = np.linspace(-1.0, 1.0, len(pairs))
    expr = parse(src, 2)
    for order in (0, 1, 2):
        points = [(t[i], x[i], v[i]) for i in range(len(pairs))]
        for args in ((t, x, v), *points):
            want = _outcome(expr, *args, order, reference_evaluate)
            assert _outcome(expr, *args, order, evaluate) == want, (src, order, args)


def test_a_constant_that_fails_when_folded_at_parse_time_names_no_point():
    # a constant exponent is folded when it is parsed, where there is no point
    with pytest.raises(DomainError) as err:
        parse("x1^(log(0-1))", 1)
    assert str(err.value) == "log of non-positive value -1.0"
    assert err.value.index is None
    # a constant left unfolded at compile time fails at the point evaluated
    L = compile_field("v1 + log(0 - 1)", 1)
    with pytest.raises(DomainError, match=r"^log of non-positive value -1\.0 at t=0\.5, x=\[1\.\], v=\[2\.\]$"):
        L(0.5, np.array([1.0]), np.array([2.0]))


# -- integer powers as products ---------------------------------------------
#
# u^p for an integer p >= 2 is a chain of products: u*u for p = 2, and for
# p >= 3 u^(p-2) by repeated squaring, then u^(p-1) and u^p.  A product
# chain's relative error is at most gamma_(p-1) (Higham, Accuracy and
# Stability of Numerical Algorithms, ch. 3): a squaring doubles the error
# of its operand, so the bound counts the p - 1 factors of u, not the
# products made.


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    p=st.integers(2, 12),
    u=st.floats(-1e25, 1e25, allow_nan=False, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -2.0**-1022, 1e-30, -2.0**-100, -1.0]),
)
def test_an_integer_power_is_within_p_minus_1_ulp_of_the_exact_power(p, u):
    # negative, zero and subnormal bases, and powers that underflow part
    # of the way into the subnormal range
    e = Pow(Var("x", 1), float(p))
    exact = Fraction(u) ** p
    value = evaluate(e, 0.0, [u], [0.0]).value
    assert abs(Fraction(value) - exact) <= (p - 1) * Fraction(math.ulp(float(exact)))
    assert math.copysign(1.0, value) == math.copysign(1.0, u**p)  # -0.0 too
    # the same products at every order, on a stack as at one point
    for order in (1, 2):
        assert evaluate(e, 0.0, [u], [0.0], order=order).value == value
    stacked = evaluate(e, np.zeros(2), np.array([[u], [u]]), np.zeros((2, 1)), order=2)
    assert stacked.value.tobytes() == np.array([value, value]).tobytes()


def _polynomial(rng, depth, dim):
    """A random tree of +, -, *, / by a constant and integer powers."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.integers(0, 4)
        if kind == 0:
            return Const(float(np.round(rng.uniform(-2, 2), 3)))
        if kind == 1:
            return Var("t", 0)
        return Var("x" if kind == 2 else "v", int(rng.integers(1, dim + 1)))
    op = rng.choice(["+", "-", "*", "/", "^", "^"])
    if op == "^":
        return Pow(_polynomial(rng, depth - 1, dim), float(rng.integers(2, 7)))
    if op == "/":
        return Binary("/", _polynomial(rng, depth - 1, dim), Const(float(rng.choice([3.0, -0.7, 12.0]))))
    return Binary(op, _polynomial(rng, depth - 1, dim), _polynomial(rng, depth - 1, dim))


def _rows_equal_the_one_point_jets(expr, t, x, v, orders):
    for order in orders:
        stack = evaluate(expr, t, x, v, order=order)
        blocks = ("value", "grad", "hess")[: order + 1]
        for i in range(len(t)):
            one = evaluate(expr, t[i], x[i], v[i], order=order)
            for block in blocks:
                got, want = getattr(stack, block)[i], np.asarray(getattr(one, block))
                assert got.tobytes() == want.tobytes(), (block, i, order)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
def test_each_row_of_a_stacked_polynomial_jet_is_its_one_point_jet(seed, dim):
    rng = np.random.default_rng(seed)
    expr = Binary("+", _polynomial(rng, 4, dim), Pow(Var("x", 1), float(rng.integers(2, 13))))
    t = rng.uniform(-2, 2, 6)
    x, v = rng.uniform(-2, 2, (6, dim)), rng.uniform(-2, 2, (6, dim))
    x[0] = v[0] = 0.0
    _rows_equal_the_one_point_jets(expr, t, x, v, (0, 1, 2))


def test_a_quartic_and_a_cubic_give_the_same_bits_on_a_stack_and_at_one_point():
    # numpy's power may round a stack (a SIMD loop) and one point (scalar
    # pow) differently, in a few percent of normal draws; products do not
    rng = np.random.default_rng(7)
    x, v = rng.standard_normal((2000, 1)), rng.standard_normal((2000, 1))
    expr = parse("x1^4 + v1^3", 1)
    _rows_equal_the_one_point_jets(expr, np.zeros(2000), x, v, (0, 1))


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
def test_an_order_2_jet_holds_the_bits_of_the_lower_orders(seed, dim):
    # every order runs the same operations for the value and the gradient:
    # where the order-2 jet is defined, the order-1 jet is too, with the
    # same value and gradient, and the order-0 value is the same, on a stack
    # and at each of its points (the Newton solve reads a point's covectors
    # from the order-2 jet that holds its Jacobian blocks)
    rng = np.random.default_rng(seed)
    ops = _SMOOTH_OPS + ["/", "log", "sqrt", "abs", "neg", "pow-", "pow."]
    expr = _random_expression(rng, int(rng.integers(1, 7)), ops, dim)
    t = rng.uniform(-1, 1, 5)
    x, v = rng.uniform(-2, 2, (5, dim)), rng.uniform(-2, 2, (5, dim))
    compared = 0
    for args in ((t, x, v), *((t[i], x[i], v[i]) for i in range(5))):
        try:
            two = evaluate(expr, *args, order=2)
        except DomainError:  # the order-2 checks reach further than the lower ones
            continue
        one, zero = evaluate(expr, *args, order=1), evaluate(expr, *args, order=0)
        value = np.asarray(two.value).tobytes()
        assert np.asarray(one.value).tobytes() == value
        assert np.asarray(zero.value).tobytes() == value
        assert one.grad.tobytes() == two.grad.tobytes()
        compared += 1
    assume(compared)


@pytest.mark.parametrize(
    "src, at, message",
    [
        ("x1^-1 + v1^2", [0.0], "0 raised to exponent -1.0"),
        ("(x1 - 1)^-3", [1.0], "0 raised to exponent -3.0"),
        ("v1^2 + x1^0.5", [-2.0], "negative base -2.0 with non-integer exponent 0.5"),
        ("x1^1.5*v1^4", [-2.0], "negative base -2.0 with non-integer exponent 1.5"),
        ("x1^(-2.5)", [-2.0], "negative base -2.0 with non-integer exponent -2.5"),
    ],
)
def test_zero_to_a_negative_power_and_a_negative_base_raise_as_before(src, at, message):
    # these exponents keep numpy's power and its domain checks at every order
    L = compile_field(src, 1)
    x, v = np.array(at), np.array([2.0])
    where = f" at t=0.5, x=[{at[0]:.0f}.], v=[2.]"
    for order in (0, 1, 2):
        with pytest.raises(DomainError) as err:
            L.jets(0.5, x, v, order)
        assert str(err.value) == message + where and err.value.index is None
        with pytest.raises(DomainError) as err:
            L.jets(np.array([0.0, 0.5]), np.array([[3.0], at]), np.array([[1.0], [2.0]]), order)
        assert str(err.value) == f"{message} at point 1 (t=0.5, x=[{at[0]:.0f}.], v=[2.])"
        assert list(err.value.rows) == [1] and err.value.index == 1
