"""Small arithmetic expression language over t, x1..xm, v1..vm.

Recursive-descent parser with the precedence chain ^ > unary minus > * / > + -,
and one evaluator, ``evaluate``, that runs a tree compiled once into closures
and propagates forward-mode jets (value, gradient, Hessian) at one point or
at a whole stack of points at once.  Compiled fields and the parser's folding of
constant exponents both go through it.  Exponents of ^ must be constant so
second partials stay closed-form.

An integer power u^p with p >= 2 calls no ``pow``: u^2 is u*u, and for p >= 3
u^(p-2) comes from repeated squaring, then u^(p-1) = u^(p-2)*u and
u^p = u^(p-1)*u, with f' = p*u^(p-1) and f'' = p(p-1)*u^(p-2).  The same
products serve every order, so a value does not depend on the order asked
for, and a row of a stack has the bits of the same point read alone.  Their
relative error is at most gamma_(p-1) (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 3).  Other exponents go through numpy's power.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import EvalResult, EvaluationError, ScalarField, _where, slots


class ParseDiagnostic(ValueError):
    """Parse failure with the byte offset and offending token."""

    def __init__(self, offset: int, token: str, message: str):
        self.offset = offset
        self.token = token
        super().__init__(f"at offset {offset} near {token!r}: {message}")


class DomainError(EvaluationError):
    """Evaluation hit an invalid argument (log, sqrt, division, or a partial
    that does not exist, such as that of abs at 0); ``rows`` lists the
    failing points of an evaluated stack (``[0]`` for one point), and
    ``index`` is the first of them on a stack, None at one point."""

    def __init__(self, message: str, rows=(0,), index: Optional[int] = None):
        super().__init__(message, index)
        self.rows = np.asarray(rows, dtype=int)


# -- expression tree ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class Const:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    kind: str  # 't' | 'x' | 'v'
    index: int  # 1-based for x/v, 0 for t


@dataclass(frozen=True, slots=True)
class Unary:
    op: str  # neg sin cos exp log sqrt abs
    operand: "Expression"


@dataclass(frozen=True, slots=True)
class Binary:
    op: str  # + - * /
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True, slots=True)
class Pow:
    base: "Expression"
    exponent: float


Expression = Const | Var | Unary | Binary | Pow

_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[()+\-*/^]))"
)

_VAR_RE = re.compile(r"^([xv])([0-9]+)$")


class _Parser:
    def __init__(self, source: str, dim: int):
        self.source = source
        self.dim = dim
        self.tokens = []  # (offset, kind, text)
        pos = 0
        while pos < len(source):
            m = _TOKEN_RE.match(source, pos)
            if m is None:
                rest = source[pos:].lstrip()
                if not rest:
                    break
                raise ParseDiagnostic(pos, rest[0], "unknown token")
            kind = m.lastgroup
            self.tokens.append((m.start(kind), kind, m.group(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (len(self.source), "end", "")

    def advance(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        off, kind, text = self.peek()
        if kind != "op" or text != op:
            raise ParseDiagnostic(off, text or "<end>", f"expected {op!r}")
        self.advance()

    # precedence climbing: sum -> term -> unary -> power -> atom
    def parse(self) -> Expression:
        expr = self.parse_sum()
        off, kind, text = self.peek()
        if kind != "end":
            raise ParseDiagnostic(off, text, "unexpected trailing input")
        return expr

    def parse_sum(self) -> Expression:
        node = self.parse_term()
        while True:
            off, kind, text = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Binary(text, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expression:
        node = self.parse_unary()
        while True:
            off, kind, text = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Binary(text, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Expression:
        off, kind, text = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        off, kind, text = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.parse_unary()  # right-associative; sign allowed
            if has_variables(exponent):
                raise ParseDiagnostic(off, "^", "exponent must be constant")
            return Pow(base, _fold_constant(exponent))
        return base

    def parse_atom(self) -> Expression:
        off, kind, text = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if text == "t":
                return Var("t", 0)
            m = _VAR_RE.match(text)
            if m:
                idx = int(m.group(2))
                if not 1 <= idx <= self.dim:
                    raise ParseDiagnostic(
                        off, text, f"index {idx} exceeds dimension {self.dim}"
                    )
                return Var(m.group(1), idx)
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_sum()
                self.expect_op(")")
                return Unary(text, arg)
            raise ParseDiagnostic(off, text, "unknown identifier")
        if kind == "op" and text == "(":
            node = self.parse_sum()
            self.expect_op(")")
            return node
        raise ParseDiagnostic(off, text or "<end>", "expected a value")


def parse(source: str, dim: int) -> Expression:
    """Parse an expression over t, x1..x<dim>, v1..v<dim>."""
    if dim < 1:
        raise ParseDiagnostic(0, source[:1], "dimension must be positive")
    return _Parser(source, dim).parse()


def has_variables(e: Expression, kinds: str = "txv") -> bool:
    """Whether ``e`` names a variable of one of ``kinds`` ('t', 'x', 'v')."""
    if isinstance(e, Var):
        return e.kind in kinds
    if isinstance(e, Unary):
        return has_variables(e.operand, kinds)
    if isinstance(e, Binary):
        return has_variables(e.left, kinds) or has_variables(e.right, kinds)
    if isinstance(e, Pow):
        return has_variables(e.base, kinds)
    return False


def _fold_constant(e: Expression) -> float:
    return float(evaluate(e, 0.0, (), ()).value)


# -- evaluation ---------------------------------------------------------
#
# One evaluator serves every consumer: forward-mode Taylor arithmetic over a
# stack of points (Griewank & Walther, Evaluating Derivatives, ch. 13).  A
# jet is a triple (value, gradient, Hessian) over the n = 1 + 2m slots
# z = (t, x1..xm, v1..vm) of ``fields.slots``.  Values have shape S = () at
# one point and S = (N,) on a stack of N points; gradients and Hessians have
# shapes that broadcast to S + (n,) and S + (n, n), and ``evaluate`` fills
# the root's to those shapes once; u^2 has the constant f'' = 2, so the
# Hessian of a quadratic form stays one (n, n) matrix until then.  None
# stands for an identically zero gradient or Hessian, so constants and linear
# terms carry no derivative arithmetic, and orders 0 and 1 no Hessians.  A
# tree is compiled once into one closure per node, a tuple r = (step,
# *captured) run as r[0](r, c), a sixth of a Python closure's memory: steps,
# slots, unit gradients and constants are fixed then, and subtrees without
# variables are folded to constants.

# f' and f'' of each unary function at u, from u and f(u); where they do not
# exist, sqrt and abs raise
def _d_sin(c, u0, f0):
    return np.cos(u0), -f0


def _d_cos(c, u0, f0):
    return -np.sin(u0), -f0


def _d_exp(c, u0, f0):
    return f0, f0


def _d_log(c, u0, f0):
    return 1.0 / u0, -1.0 / u0**2


def _d_sqrt(c, u0, f0):
    _check(c, u0 == 0.0, "sqrt not differentiable at 0")
    return 0.5 / f0, -0.25 / (f0 * u0)


def _d_abs(c, u0, f0):
    _check(c, u0 == 0.0, "abs not differentiable at 0")
    return np.where(u0 > 0.0, 1.0, -1.0), None


# op: f, its derivatives, the test of an argument outside its domain and its message
_UNARY = {
    "sin": (np.sin, _d_sin, None, None),
    "cos": (np.cos, _d_cos, None, None),
    "exp": (np.exp, _d_exp, None, None),
    "log": (np.log, _d_log, operator.le, "log of non-positive value {}"),
    "sqrt": (np.sqrt, _d_sqrt, operator.lt, "sqrt of negative value {}"),
    "abs": (np.abs, _d_abs, None, None),
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


def _chain(c, f0, ug, uh, f1, f2):  # the jet of f(u) from u's and f', f'' at u
    h = None
    if c.order >= 2:
        h = _plus(_h_times(uh, f1), _h_times(_outer(ug, ug), f2))
    return f0, _g_times(ug, f1), h


def _check(c, bad, message, values=None):
    """Raise DomainError where ``bad`` holds, naming the point, or a stack's
    first failing row; a constant folded at parse or compile time, a call
    with no coordinates, has no point to name."""
    if not (bad.any() if type(bad) is np.ndarray else bad):
        return
    if not c.stacked:
        raise DomainError(message.format(values) + (_where(c.T, c.x, c.v) if c.x.size else ""))
    rows = np.flatnonzero(np.broadcast_to(bad, c.T.shape))
    i = int(rows[0])
    value = None if values is None else np.broadcast_to(values, c.T.shape)[i]
    raise DomainError(message.format(value) + _where(c.T, c.x, c.v, i), rows, i)


def _constant(r, c):
    return (r[1], None, None) if c.order else r[1]


def _variable(r, c):  # r = (_variable, column, index, unit gradient)
    value = c.z[r[1]][r[2]]
    return (value, r[3], None) if c.order else value


def _power(r, c):  # zero is None for p = 1: no checks
    _, u, p, fractional, zero, negative = r
    u0, ug, uh = u[0](u, c) if (order := c.order) else (u[0](u, c), None, None)
    if zero is not None:
        if p == 0.0:
            return (np.float64(1.0), None, None) if order else np.float64(1.0)
        if p < 0.0:
            _check(c, u0 == 0.0, zero)
        elif fractional and ug is not None and p < order:
            _check(c, u0 == 0.0, zero)
        if fractional:
            _check(c, u0 < 0.0, negative, u0)
    f0 = u0**p
    if ug is None:
        return (f0, None, None) if order else f0
    f2 = None if p == 1.0 or order < 2 else p * (p - 1.0) * u0 ** (p - 2.0)
    return _chain(c, f0, ug, uh, p * u0 ** (p - 1.0), f2)


def _square(r, c):  # u^2 = u*u, f' = 2u and f'' = 2, one scalar for every u
    _, u = r
    if not c.order:
        u0 = u[0](u, c)
        return u0 * u0
    u0, ug, uh = u[0](u, c)
    if ug is None:
        return u0 * u0, None, None
    return _chain(c, u0 * u0, ug, uh, 2.0 * u0, np.float64(2.0))


def _ipow(u, q):
    """u^q for an integer q >= 1 by repeated squaring."""
    out = None
    while True:
        if q & 1:
            out = u if out is None else out * u
        q >>= 1
        if not q:
            return out
        u = u * u


def _integer_power(r, c):  # u^p for an integer p >= 3, from products alone
    _, u, q, p, p2 = r  # q = p - 2, p2 = p(p - 1)
    u0, ug, uh = u[0](u, c) if (order := c.order) else (u[0](u, c), None, None)
    low = _ipow(u0, q)  # u^(p-2), then u^(p-1) and u^p: the same products at every order
    high = low * u0
    f0 = high * u0
    if ug is None:
        return (f0, None, None) if order else f0
    return _chain(c, f0, ug, uh, p * high, p2 * low if order >= 2 else None)


def _unary(r, c):
    _, u, (f, derivatives, outside, message) = r
    u0, ug, uh = u[0](u, c) if (order := c.order) else (u[0](u, c), None, None)
    if outside is not None:
        _check(c, outside(u0, 0.0), message, u0)
    f0 = f(u0)
    if ug is None:
        return (f0, None, None) if order else f0
    return _chain(c, f0, ug, uh, *derivatives(c, u0, f0))


def _negative(r, c):
    _, u = r
    if not c.order:
        return -u[0](u, c)
    u0, ug, uh = u[0](u, c)
    return -u0, None if ug is None else -ug, None if uh is None else -uh


def _sum(r, c):
    _, a, b, f, both = r
    if not c.order:
        return f(a[0](a, c), b[0](b, c))
    (a0, ag, ah), (b0, bg, bh) = a[0](a, c), b[0](b, c)
    return f(a0, b0), both(ag, bg), both(ah, bh)


def _product(r, c):
    _, a, b = r
    if not c.order:
        return a[0](a, c) * b[0](b, c)
    (a0, ag, ah), (b0, bg, bh) = a[0](a, c), b[0](b, c)
    h = None
    if c.order >= 2:
        h = _plus(_h_times(ah, b0), _h_times(bh, a0))
        h = _plus(_plus(h, _outer(ag, bg)), _outer(bg, ag))
    return a0 * b0, _plus(_g_times(ag, b0), _g_times(bg, a0)), h


def _quotient(r, c):  # checked: the divisor is not a nonzero constant
    _, a, b, checked = r
    if not c.order:
        a0, b0 = a[0](a, c), b[0](b, c)
        if checked:
            _check(c, b0 == 0.0, "division by zero")
        return a0 / b0
    (a0, ag, ah), (b0, bg, bh) = a[0](a, c), b[0](b, c)
    if checked:
        _check(c, b0 == 0.0, "division by zero")
    q = a0 / b0
    g = _minus(ag, _g_times(bg, q))
    g = None if g is None else g / (b0[:, None] if b0.ndim else b0)
    h = None
    if c.order >= 2:
        h = _minus(_minus(ah, _outer(g, bg)), _outer(bg, g))
        h = _minus(h, _h_times(bh, q))
        h = None if h is None else h / (b0[:, None, None] if b0.ndim else b0)
    return q, g, h


def _compile(e, m: int) -> tuple:
    """The closure of subtree ``e`` over m coordinates, folded if its operands are constants."""
    kind = type(e)
    if kind is Const:
        return _constant, np.float64(e.value)
    if kind is Var:
        k, unit = max(e.index - 1, 0), np.zeros(1 + 2 * m)
        unit[slots(e.kind, m)[k]] = 1.0
        return _variable, "txv".index(e.kind), k, unit
    if kind is Binary:
        operands = a, b = _compile(e.left, m), _compile(e.right, m)
    else:
        operands = (u := _compile(e.base if kind is Pow else e.operand, m),)
    if kind is Pow:
        p, fractional = e.exponent, not float(e.exponent).is_integer()
        zero = f"0 raised to exponent {p}" if p <= 0.0 or fractional else None
        negative = f"negative base {{}} with non-integer exponent {p}" if fractional else None
        if fractional or p < 2.0:
            r = _power, u, p, fractional, zero, negative
        else:
            r = (_square, u) if p == 2.0 else (_integer_power, u, int(p) - 2, p, p * (p - 1.0))
    elif kind is Unary and e.op == "neg":
        r = _negative, u
    elif kind is Unary:
        r = _unary, u, _UNARY[e.op]
    elif e.op == "*":
        r = _product, a, b
    elif e.op == "/":
        r = _quotient, a, b, b[0] is not _constant or b[1] == 0.0
    else:
        r = _sum, a, b, *((operator.add, _plus) if e.op == "+" else (operator.sub, _minus))
    if all(o[0] is _constant for o in operands):
        try:
            with np.errstate(all="ignore"):
                return _constant, np.float64(r[0](r, _Call(0.0, np.zeros(0), np.zeros(0), 0)))
        except DomainError:
            pass
    return r


class _Call:
    """What one call hands each closure: the points and the order."""

    __slots__ = ("T", "x", "v", "z", "stacked", "order")

    def __init__(self, t, x, v, order):
        self.x, self.v, self.stacked, self.order = x, v, x.ndim == 2, order
        self.T = T = np.asarray(t, dtype=float) if self.stacked else np.float64(t)
        # t, x and v by column (rows of x.T on a stack)
        self.z = ((T,), x.T, v.T) if self.stacked else ((T,), x, v)


@np.errstate(all="ignore")  # a domain check raises instead of a numpy warning
def evaluate(e, t, x, v, order: int = 0) -> EvalResult:
    """Value of ``e`` with exact partials up to ``order`` (0, 1 or 2).

    ``e`` is a compiled field's engine (``L.jets``) or a tree, compiled for
    this call.  Takes one point (scalar t, x and v of shape (m,)) or a stack
    of N points (t of shape (N,), x and v of shape (N, m)); the stack is
    evaluated in one run of the program.  An invalid argument raises
    DomainError, which on a stack names the first failing point and lists
    every failing row in ``rows``.  The checks that only partials need apply
    only where the argument depends on (t, x, v): sqrt and abs at 0, and 0
    to a non-integer power c < ``order`` (the partials of u^c stay finite at
    0 for c >= order).
    """
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    m, c = x.shape[-1], _Call(t, x, v, order)
    r = (e if type(e) is _Jets else _Jets(e, m)).run
    out, shape, stacked = r[0](r, c), c.T.shape, c.stacked
    if not order:
        return EvalResult(np.array(np.broadcast_to(out, shape)) if stacked else float(out))
    val, g, h = out
    value = np.array(np.broadcast_to(val, shape)) if stacked else float(val)
    # the gradient and, at order 2, the Hessian, each filled once
    n = 1 + 2 * m
    partials = [np.array(np.broadcast_to(0.0 if a is None else a, shape + (n,) * k))
                for k, a in ((1, g), (2, h))[:order]]
    return EvalResult(value, *partials)


class _Jets:
    """Exact-jet engine of a compiled field: its tree ``expr``, compiled once
    into ``run`` (its root's closure), and one ``evaluate`` call per request.
    Slotted: a problem holds many."""

    __slots__ = ("expr", "run")

    def __init__(self, expr, dim: int):
        self.expr, self.run = expr, _compile(expr, dim)

    def __call__(self, t, x, v, order: int) -> EvalResult:
        return evaluate(self, t, x, v, order=order)


def compile_field(source, dim: int) -> ScalarField:
    """Compile an expression (string or tree) once into a ScalarField with
    exact analytic partials that answers one point or a stack of points with
    one ``evaluate`` call.  Where a partial does not exist (sqrt or abs at 0,
    and 0 to a small non-integer power), asking for it raises DomainError."""
    expr = parse(source, dim) if isinstance(source, str) else source
    return ScalarField(dim, _Jets(expr, dim))
