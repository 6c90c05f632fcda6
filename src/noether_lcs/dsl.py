"""Small arithmetic expression language over t, x1..xm, v1..vm.

Recursive-descent parser with the precedence chain ^ > unary minus > * / > + -,
and one evaluator, ``evaluate``, that propagates forward-mode jets (value,
gradient, Hessian) through the expression tree at one point or at a whole
stack of points at once.  Compiled fields and the parser's folding of
constant exponents both go through it.  Exponents of ^ must be constant so
second partials stay closed-form.
"""

from __future__ import annotations

import operator
import re
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import ScalarField


class ParseDiagnostic(ValueError):
    """Parse failure with the byte offset and offending token."""

    def __init__(self, offset: int, token: str, message: str):
        self.offset = offset
        self.token = token
        self.message = message
        super().__init__(f"at offset {offset} near {token!r}: {message}")


class DomainError(ArithmeticError):
    """Evaluation hit an invalid argument (log/sqrt/division); ``rows`` lists
    the failing points of an evaluated stack (``[0]`` for one point)."""

    def __init__(self, message: str, rows=(0,)):
        super().__init__(message)
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


# -- pretty printer -----------------------------------------------------

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
    """Canonical rendering; reparsing the output reproduces the string."""
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


# -- evaluation ---------------------------------------------------------
#
# One evaluator serves every consumer: forward-mode Taylor arithmetic over a
# stack of points (Griewank & Walther, Evaluating Derivatives, ch. 13).  A
# jet is a triple (value, gradient, Hessian) over n = 1 + 2m slots ordered
# t, x1..xm, v1..vm.  Values have shape S = () at one point and S = (N,) on a
# stack of N points; gradients and Hessians have shapes that broadcast to
# S + (n,) and S + (n, n).  None stands for an identically zero gradient or
# Hessian, so constants and linear terms carry no derivative arithmetic, and
# orders 0 and 1 carry no Hessians at all.


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


@dataclass(frozen=True, slots=True)
class EvalResult:
    """Value and partials at one point (floats and (m,)/(m, m) arrays), or at
    a stack of N points (the same with a leading N axis)."""

    value: float
    d_t: Optional[float] = None
    d_x: Optional[np.ndarray] = None
    d_v: Optional[np.ndarray] = None
    d2: Optional[dict] = None  # blocks tt, xx, xv, vx, vv
    # rows without exact partials (abs() at its kink): NaN in every partial
    # block of a stack, no partial blocks at one point
    kinks: Optional[np.ndarray] = None


def evaluate(e: Expression, t, x, v, order: int = 0) -> EvalResult:
    """Value of ``e`` with exact partials up to ``order`` (0, 1 or 2).

    Takes one point (scalar t, x and v of shape (m,)) or a stack of N points
    (t of shape (N,), x and v of shape (N, m)); the stack is evaluated in one
    pass over the tree.  An invalid argument raises DomainError, which on a
    stack names the first failing point and lists every failing row in
    ``rows``.  The checks that only partials need apply only where the
    argument depends on (t, x, v): sqrt at 0, and 0 to a non-integer power
    c < ``order`` (the partials of u^c stay finite at 0 for c >= order).
    Where partials are asked for and such an abs() argument is within 1e-12
    of its kink, the point has no exact partials: it is listed in ``kinks``
    and evaluation goes on, skipping there those checks at the nodes after
    that abs().  On a stack every partial block is NaN at those rows; at one
    point the result has no partial blocks.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    stacked = x.ndim == 2
    T = np.asarray(t, dtype=float) if stacked else np.float64(t)
    m = x.shape[-1]
    n = 1 + 2 * m
    units = {}
    # the points where an abs() argument is at its kink; only partials need it
    kinks = np.zeros(T.shape, dtype=bool) if order else None

    def check(bad, message, values=None):
        if not (bad.any() if type(bad) is np.ndarray else bad):
            return
        if not stacked:
            raise DomainError(message.format(values))
        rows = np.flatnonzero(np.broadcast_to(bad, T.shape))
        i = int(rows[0])
        value = None if values is None else np.broadcast_to(values, T.shape)[i]
        raise DomainError(
            message.format(value) + f" at point {i} (t={T[i]}, x={x[i]}, v={v[i]})",
            rows,
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
        if c < 0.0:
            check(u0 == 0.0, f"0 raised to exponent {c}")
        elif ug is not None and c < order and c != int(c):
            check((u0 == 0.0) & ~kinks, f"0 raised to exponent {c}")
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
                check((u0 == 0.0) & ~kinks, "sqrt not differentiable at 0")
        elif op == "abs" and ug is not None:
            kinks[...] |= np.abs(u0) < 1e-12
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
        g = np.broadcast_to(0.0 if g is None else g, shape + (n,))
        res["d_t"] = _block(g[..., 0])
        res["d_x"] = _block(g[..., 1 : m + 1])
        res["d_v"] = _block(g[..., m + 1 :])
    if order >= 2:
        h = np.broadcast_to(0.0 if h is None else h, shape + (n, n))
        res["d2"] = {
            "tt": _block(h[..., 0, 0]),
            "xx": _block(h[..., 1 : m + 1, 1 : m + 1]),
            "vv": _block(h[..., m + 1 :, m + 1 :]),
            "xv": _block(h[..., 1 : m + 1, m + 1 :]),
            "vx": _block(h[..., m + 1 :, 1 : m + 1]),
        }
    if not order or not np.count_nonzero(kinks):
        return EvalResult(**res)
    rows = np.flatnonzero(kinks)
    if not stacked:
        return EvalResult(value=res["value"], kinks=rows)
    for block in (res["d_t"], res["d_x"], res["d_v"], *res.get("d2", {}).values()):
        block[rows] = np.nan
    return EvalResult(**res, kinks=rows)


def _block(a):
    """A result block as a fresh array, or a float for a scalar at one point."""
    return float(a) if a.ndim == 0 else np.array(a)


class _Jets:
    """Exact-jet engine of a compiled field: one ``evaluate`` call on its
    tree per request.  Where abs() sits at its kink the partials are
    unavailable: those rows come back listed in ``kinks``, with one warning
    per call, and the field makes them by finite differences.  Slotted,
    because a problem holds many compiled fields."""

    __slots__ = ("expr",)

    def __init__(self, expr):
        self.expr = expr

    def value(self, t, x, v):
        return evaluate(self.expr, t, x, v).value

    def __call__(self, t, x, v, order: int) -> EvalResult:
        r = evaluate(self.expr, t, x, v, order=order)
        if r.kinks is not None:
            warnings.warn(
                "abs() within 1e-12 of its kink; falling back to finite differences",
                RuntimeWarning,
                stacklevel=3,
            )
        return r


def compile_field(source, dim: int) -> ScalarField:
    """Turn an expression (string or tree) into a ScalarField with exact
    analytic partials that answers one point or a stack of points with one
    ``evaluate`` call.  Near an abs() kink the analytic route is unavailable;
    those points fall back to finite differences with a warning."""
    expr = parse(source, dim) if isinstance(source, str) else source
    jets = _Jets(expr)
    return ScalarField(dim=dim, func=jets.value, jets=jets)
