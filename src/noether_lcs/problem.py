"""Structured problem files: one JSON document describes the space, the grid,
the Lagrangian, boundary values, named generators, and named first integrals.

The file is the experiment; of its settings, the command line overrides only
the grid's interval count (``--grid-n``).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from .curves import Grid
from .dsl import compile_field, has_variables, parse, ParseDiagnostic
from .euler_lagrange import BoundaryConditions, SolverConfig
from .fields import EvaluationError, ScalarField
from .spaces import Space, ValidationError
from .symmetry import SamplingConfig, SymmetryGenerator, catalog_generator


@dataclass
class ProblemFile:
    path: Path
    digest: str
    space: Space
    grid: Grid
    lagrangian: ScalarField
    boundary: Optional[BoundaryConditions]
    generators: Dict[str, SymmetryGenerator]
    integrals: Dict[str, ScalarField]
    solver: SolverConfig
    tolerances: Dict[str, float]
    sampling: SamplingConfig

    def require_boundary(self) -> BoundaryConditions:
        if self.boundary is None:
            raise ValidationError("problem file has no boundary section")
        return self.boundary


DEFAULT_TOLERANCES = {
    "invariance": 1e-8,
    "conservation": 1e-6,
    "legendre": 1e-10,
    "audit": 1e-3,
}


def _of(json_type: type):
    """A kind: a JSON value that Python's json reads as ``json_type``, as it
    is: an object (dict; an array of pairs is not one), an array (list) or a
    string (str, the kind of every expression)."""

    def kind(value):
        if not isinstance(value, json_type):
            raise TypeError
        return value

    return kind


_object, _string = _of(dict), _of(str)


def _number(above: float = -math.inf, whole: bool = False):
    """The number kind: a JSON number, not a bool, finite and above
    ``above``; where ``whole``, an int (1.7 is rejected, not truncated)."""

    def kind(value):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and above < value < math.inf) or whole and value != int(value):
            raise TypeError
        return int(value) if whole else float(value)

    return kind


def _array(kind):
    """A kind: a JSON array, each entry read by ``kind``."""
    return lambda value: [kind(z) for z in _of(list)(value)]


def _table(name: str, *required: str):
    """A kind: a JSON object that sets the keys ``required``, read against
    ``_KEYS[name]``."""
    return lambda value: _read(_object(value), name, required)


# every object of a problem file: each key it may set and the kind that
# reads its value; generators and integrals take any name as a key
_KEYS = {
    "problem file": {
        "space": _table("space", "dim"), "interval": _table("interval", "a", "b", "n"),
        "lagrangian": _string, "boundary": _table("boundary", "xa", "xb"),
        "generators": _object, "integrals": _object,
        "solver": _table("solver"), "tolerances": _table("tolerances"),
        "sampling": _table("sampling"),
    },
    "space": {"dim": _number(0, whole=True), "weights": _array(_number()),
              "seminorms": _number(0, whole=True)},
    "interval": {"a": _number(), "b": _number(), "n": _number(3, whole=True)},
    "boundary": {"xa": _array(_number()), "xb": _array(_number())},
    "generator": {"T": _string, "X": _array(_string)},
    # a key the file leaves out of these three keeps the default of
    # SolverConfig, DEFAULT_TOLERANCES or SamplingConfig
    "solver": {"tol": _number(0), "max_iter": _number(0, whole=True)},
    "tolerances": dict.fromkeys(DEFAULT_TOLERANCES, _number(0)),
    "sampling": {"x_radius": _number(), "v_radius": _number(),
                 "count": _number(0, whole=True), "seed": _number(-1, whole=True)},
}


def _value(value, kind, key: str):
    """``kind(value)``; a value the kind rejects (it raises TypeError, or
    OverflowError for an integer past the float range) is a ValidationError
    naming the key."""
    try:
        return kind(value)
    except (TypeError, OverflowError):
        raise ValidationError(f"malformed value {value!r} for key {key!r}") from None


def _read(obj: dict, name: str, required) -> dict:
    """The keys ``obj`` sets, each read by its kind in ``_KEYS[name]``; a key
    the table does not list, or one of ``required`` that ``obj`` leaves out,
    is an error."""
    kinds = _KEYS[name]
    if unknown := sorted(obj.keys() - kinds.keys()):
        raise ValidationError(f"unknown key {unknown[0]!r} in {name!r}; it takes {sorted(kinds)}")
    if missing := [key for key in required if key not in obj]:
        raise ValidationError(f"missing required key {missing[0]!r}")
    return {key: _value(obj[key], kind, key) for key, kind in kinds.items() if key in obj}


def _generator(spec, name: str, dim: int) -> SymmetryGenerator:
    """A generator given as a catalog name or as an object with T and X,
    expressions in t and x."""
    if isinstance(spec, str):
        return catalog_generator(spec, dim)
    spec = _value(spec, _table("generator"), name)
    x_exprs = spec.get("X", ["0"] * dim)
    if len(x_exprs) != dim:
        raise ValidationError(f"needs a list of {dim} X components")
    trees = [parse(e, dim) for e in (spec.get("T", "0"), *x_exprs)]
    if any(has_variables(e, "v") for e in trees):
        raise ValidationError(f"T and X are fields of (t, x) and may not use v1..v{dim}")
    t_field, *x_fields = (compile_field(e, dim) for e in trees)
    return SymmetryGenerator(dim=dim, T=t_field, X=tuple(x_fields), name=name)


def load_problem(path, grid_n: Optional[int] = None) -> ProblemFile:
    path = Path(path)
    raw = path.read_bytes()
    try:
        doc = json.loads(raw)
    except ValueError as err:  # a JSONDecodeError, or bytes no UTF encoding reads
        raise ValidationError(f"not valid JSON ({err})")

    where = ""  # the generator or integral being read, for the error message
    try:
        if not isinstance(doc, dict):
            raise ValidationError(f"a problem file is a JSON object, got {doc!r}")
        doc = _read(doc, "problem file", ("space", "interval", "lagrangian"))
        sp, iv = doc["space"], doc["interval"]
        dim = sp["dim"]
        space = Space(dim, sp.get("weights", [1.0] * dim), sp.get("seminorms", dim))
        n = int(grid_n) if grid_n is not None else iv["n"]
        if n % 2 != 0 or n < 4:
            raise ValidationError(f"interval n must be even and >= 4, got {n}")
        grid = Grid(a=iv["a"], b=iv["b"], n=n)
        lagrangian = compile_field(doc["lagrangian"], dim)

        boundary = None
        if "boundary" in doc:
            bnd = doc["boundary"]
            if len(bnd["xa"]) != dim or len(bnd["xb"]) != dim:
                raise ValidationError(f"boundary vectors must have length {dim}")
            boundary = BoundaryConditions(**bnd)

        solver = SolverConfig(**doc.get("solver", {}))
        tolerances = {**DEFAULT_TOLERANCES, **doc.get("tolerances", {})}
        sampling = SamplingConfig(t_range=(grid.a, grid.b), **doc.get("sampling", {}))

        generators = {}
        for name, spec in doc.get("generators", {}).items():
            where = f"generator {name!r}: "
            generators[name] = _generator(spec, name, dim)
        integrals = {}
        for name, expr in doc.get("integrals", {}).items():
            where = f"integral {name!r}: "
            integrals[name] = compile_field(_value(expr, _string, name), dim)
    except (ValidationError, ParseDiagnostic, EvaluationError) as err:
        raise ValidationError(f"{where}{err}") from None

    return ProblemFile(
        path=path, digest=hashlib.sha256(raw).hexdigest(), space=space, grid=grid,
        lagrangian=lagrangian, boundary=boundary, generators=generators,
        integrals=integrals, solver=solver, tolerances=tolerances, sampling=sampling,
    )
