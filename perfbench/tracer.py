"""In-memory span tracer that wraps the package's public functions from the
outside, and the per-layer metrics computed from its spans.

``cli.py``, ``problem.py`` and ``__init__.py`` bind names with ``from ...
import``, so a function is replaced in every ``noether_lcs`` module that
binds it.  The compiled-field closures look ``dsl.evaluate`` up as a module
global, so replacing that attribute catches every jet call.  No package file
is edited.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field

# (module, attribute, workload): functions wrapped in every module that binds
# them, with span name "<module>.<attribute>", and the workload whose traced
# run must record at least one such span.  The CLI probe and the cli-cold
# children go through the CLI, so cli-cold records every span.
FUNCTIONS = (
    ("problem", "load_problem", "cli-cold"),
    ("dsl", "compile_field", "solve-ladder"),
    ("dsl", "evaluate", "solve-ladder"),
    ("fields", "check_normal_differentiability", "analyze"),
    ("curves", "derivative_all", "solve-ladder"),
    ("curves", "action", "solve-ladder"),
    ("curves", "write_curve_csv", "cli-cold"),
    ("euler_lagrange", "solve_extremal", "solve-ladder"),
    ("euler_lagrange", "el_residual", "solve-ladder"),
    ("legendre_jacobi", "legendre_check", "analyze"),
    ("legendre_jacobi", "jacobi_operators", "analyze"),
    ("legendre_jacobi", "jacobi_eigen", "analyze"),
    ("symmetry", "invariance_residual", "analyze"),
    ("symmetry", "check_invariance", "analyze"),
    ("symmetry", "noether_first_integral", "analyze"),
    ("symmetry", "verify_conservation", "analyze"),
    ("symmetry", "find_affine_symmetries", "analyze"),
    ("spaces", "dual_seminorm", "solve-ladder"),
    ("spaces", "normal_index", "analyze"),
    ("cli", "main", "cli-cold"),
)

# (module, class, method, span name, workload): wrapped on the class itself.
METHODS = (
    ("fields", "ScalarField", "__call__", "fields.call", "solve-ladder"),
    ("fields", "ScalarField", "partial", "fields.partial", "solve-ladder"),
    ("fields", "ScalarField", "second_partial", "fields.second_partial", "solve-ladder"),
    ("symmetry", "SamplingConfig", "samples", "symmetry.samples", "analyze"),
)

EXPECTED_ON = {f"{m}.{a}": w for m, a, w in FUNCTIONS} | {n: w for *_, n, w in METHODS}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    failed: bool = False
    order: int = 0  # dsl.evaluate jet order
    result_len: int = -1  # find_affine_symmetries: generators returned

    def to_list(self):
        return [self.name, self.start, self.end, self.parent, self.failed,
                self.order, self.result_len]

    @staticmethod
    def from_list(row) -> "Span":
        return Span(*row)


@dataclass
class Tracer:
    """Records spans while installed; restores every original on uninstall."""

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else -1)
            if name == "dsl.evaluate":
                span.order = kwargs.get("order", args[4] if len(args) > 4 else 0)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if name == "symmetry.find_affine_symmetries":
                span.result_len = len(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        mods = {
            key[len("noether_lcs."):]: mod
            for key, mod in list(sys.modules.items())
            if key.startswith("noether_lcs.") and mod is not None
        }
        mods[""] = sys.modules["noether_lcs"]
        for mod_name, attr, _ in FUNCTIONS:
            if mod_name not in mods:
                continue  # cli is only imported by the CLI workloads
            original = getattr(mods[mod_name], attr)
            wrapped = self._wrap(f"{mod_name}.{attr}", original)
            for mod in mods.values():
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        for mod_name, cls_name, meth, span_name, _ in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(span_name, original))
        return self

    def uninstall(self):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


# -- per-layer metrics --------------------------------------------------


def self_times(spans) -> list:
    """Duration minus the time covered by direct children (children of one
    span run one after another, so their intervals do not overlap)."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _under(spans, idx, ancestor_names) -> bool:
    p = spans[idx].parent
    while p >= 0:
        if spans[p].name in ancestor_names:
            return True
        p = spans[p].parent
    return False


def _outermost(spans, name):
    """Indices of spans called ``name`` that have no ancestor of that name,
    so recursive or nested calls are not counted twice in inclusive time."""
    return [i for i, s in enumerate(spans) if s.name == name and not _under(spans, i, {name})]


def layer_metrics(spans) -> dict:
    """Every per-layer metric except the ``cli`` group, from one span list."""
    selfs = self_times(spans)
    calls, self_s = {}, {}
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + st

    def incl(name):
        return sum(spans[i].end - spans[i].start for i in _outermost(spans, name))

    solves = [i for i, s in enumerate(spans) if s.name == "euler_lagrange.solve_extremal"]
    solve_time = sum(spans[i].end - spans[i].start for i in solves)
    failed = [i for i in solves if spans[i].failed]
    failed_time = sum(spans[i].end - spans[i].start for i in failed)
    jets_in_solves = sum(
        1 for i, s in enumerate(spans)
        if s.name == "dsl.evaluate" and _under(spans, i, {"euler_lagrange.solve_extremal"})
    )
    finds = {i for i, s in enumerate(spans) if s.name == "symmetry.find_affine_symmetries"}
    returned = sum(max(spans[i].result_len, 0) for i in finds)
    rechecked = sum(
        1 for i, s in enumerate(spans)
        if s.name == "symmetry.check_invariance" and s.parent in finds
    )
    order = [s.order for s in spans if s.name == "dsl.evaluate"]

    def n(name):
        return calls.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "problem.load_problem.calls": n("problem.load_problem"),
        "problem.load_problem.s": incl("problem.load_problem"),
        "dsl.evaluate.calls.o1": order.count(1),
        "dsl.evaluate.calls.o2": order.count(2),
        "dsl.evaluate.self_s": self_s.get("dsl.evaluate", 0.0),
        "dsl.compile_field.s": incl("dsl.compile_field"),
        "fields.partial.calls": n("fields.partial"),
        "fields.partial.self_s": self_s.get("fields.partial", 0.0),
        "fields.second_partial.calls": n("fields.second_partial"),
        "fields.second_partial.self_s": self_s.get("fields.second_partial", 0.0),
        "fields.call.calls": n("fields.call"),
        "fields.call.self_s": self_s.get("fields.call", 0.0),
        "fields.check_normal_differentiability.s": incl("fields.check_normal_differentiability"),
        "curves.derivative_all.calls": n("curves.derivative_all"),
        "curves.action.s": incl("curves.action"),
        "curves.write_curve_csv.s": incl("curves.write_curve_csv"),
        "euler_lagrange.solve_extremal.calls": len(solves),
        "euler_lagrange.solve_extremal.failed": len(failed),
        "euler_lagrange.solve_extremal.s": solve_time,
        "euler_lagrange.solve_extremal.self_s": self_s.get("euler_lagrange.solve_extremal", 0.0),
        "euler_lagrange.failed_time_share": ratio(failed_time, solve_time),
        "euler_lagrange.jets_per_solve": ratio(jets_in_solves, len(solves)),
        "euler_lagrange.el_residual.s": incl("euler_lagrange.el_residual"),
        "legendre_jacobi.legendre_check.s": incl("legendre_jacobi.legendre_check"),
        "legendre_jacobi.jacobi_operators.s": incl("legendre_jacobi.jacobi_operators"),
        "legendre_jacobi.jacobi_eigen.s": incl("legendre_jacobi.jacobi_eigen"),
        "legendre_jacobi.jacobi_eigen.self_s": self_s.get("legendre_jacobi.jacobi_eigen", 0.0),
        "symmetry.samples.s": incl("symmetry.samples"),
        "symmetry.invariance_residual.calls": n("symmetry.invariance_residual"),
        "symmetry.invariance_residual.self_s": self_s.get("symmetry.invariance_residual", 0.0),
        "symmetry.check_invariance.s": incl("symmetry.check_invariance"),
        "symmetry.find_affine_symmetries.s": incl("symmetry.find_affine_symmetries"),
        "symmetry.find_affine_symmetries.self_s": self_s.get("symmetry.find_affine_symmetries", 0.0),
        "symmetry.find_affine_symmetries.verified_ratio": ratio(returned, rechecked),
        "symmetry.verify_conservation.s": incl("symmetry.verify_conservation"),
        "spaces.dual_seminorm.calls": n("spaces.dual_seminorm"),
        "spaces.dual_seminorm.s": incl("spaces.dual_seminorm"),
        "spaces.normal_index.calls": n("spaces.normal_index"),
    }


def median(values):
    return statistics.median(values) if values else 0.0
