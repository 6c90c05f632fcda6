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

import numpy as np

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


def _object(value) -> dict:
    """A ``kind`` for ``_value``: a JSON object, as it is; an array of
    pairs is not one."""
    if not isinstance(value, dict):
        raise TypeError(f"{value!r} is not a JSON object")
    return value


def _finite(value) -> float:
    """A ``kind`` for ``_value``: a float that is neither NaN nor infinite."""
    x = float(value)
    if not -math.inf < x < math.inf:
        raise ValueError(f"{x} is not finite")
    return x


def positive(value) -> float:
    """A finite float > 0: the kind of every tolerance."""
    x = float(value)
    if not 0 < x < math.inf:
        raise ValueError(f"{x} is not finite and positive")
    return x


def _finite_vector(value) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{v} is not finite")
    return v


def _int_at_least(low: int):
    """A ``kind`` for ``_value``: a whole number, as an int, that is at
    least ``low``; 1.7 or "3" is rejected, not truncated or parsed."""

    def kind(value):
        n = int(value)
        if n != value or n < low:
            raise ValueError(f"{value!r} is not a whole number >= {low}")
        return n

    return kind


# each key an optional section may set, and its kind; a key the file leaves
# out keeps the default of SolverConfig, DEFAULT_TOLERANCES or SamplingConfig
_SECTIONS = {
    "solver": {"tol": positive, "max_iter": _int_at_least(1)},
    "tolerances": dict.fromkeys(DEFAULT_TOLERANCES, positive),
    "sampling": {"x_radius": _finite, "v_radius": _finite,
                 "count": _int_at_least(1), "seed": _int_at_least(0)},
}


def _value(section: dict, key: str, kind, default=None):
    """``kind(section[key])``, or ``kind(default)`` when the key is absent; a
    missing key without a default, a value that is or holds JSON's true or
    false (no key takes one, and no numeric kind reads it as 1 or 0), or a
    value ``kind`` rejects, is a ValidationError naming the key."""
    if key not in section and default is None:
        raise ValidationError(f"missing required key {key!r}")
    value = section.get(key, default)
    try:
        if any(isinstance(z, bool) for z in (value if isinstance(value, list) else [value])):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"malformed value {section[key]!r} for key {key!r}") from None


def _section(doc: dict, name: str) -> dict:
    """The keys the file sets in the optional section ``name``, each read by
    its kind in ``_SECTIONS``; a key the section does not have is an error."""
    section, kinds = _value(doc, name, _object, {}), _SECTIONS[name]
    if unknown := sorted(section.keys() - kinds.keys()):
        raise ValidationError(f"unknown key {unknown[0]!r} in {name!r}; it takes {sorted(kinds)}")
    return {key: _value(section, key, kinds[key]) for key in section}


def _generator(spec, name: str, dim: int) -> SymmetryGenerator:
    """A generator given as a catalog name or as an object with T and X,
    expressions in t and x."""
    if isinstance(spec, str):
        return catalog_generator(spec, dim)
    if not isinstance(spec, dict):
        raise ValidationError(f"must be a catalog name or an object with T and X, got {spec!r}")
    trees = [parse(_value(spec, "T", str, "0"), dim)]
    x_exprs = spec.get("X", ["0"] * dim)
    if not isinstance(x_exprs, list) or len(x_exprs) != dim:
        raise ValidationError(f"needs a list of {dim} X components")
    trees += [parse(str(s), dim) for s in x_exprs]
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
        sp = _value(doc, "space", _object)
        dim = _value(sp, "dim", _int_at_least(1))
        weights = _value(sp, "weights", _finite_vector, [1.0] * dim)
        space = Space(dim, weights, _value(sp, "seminorms", _int_at_least(1), dim))
        iv = _value(doc, "interval", _object)
        n = int(grid_n) if grid_n is not None else _value(iv, "n", _int_at_least(4))
        if n % 2 != 0 or n < 4:
            raise ValidationError(f"interval n must be even and >= 4, got {n}")
        grid = Grid(a=_value(iv, "a", _finite), b=_value(iv, "b", _finite), n=n)
        lagrangian = compile_field(_value(doc, "lagrangian", str), dim)

        boundary = None
        if "boundary" in doc:
            bnd = _value(doc, "boundary", _object)
            xa, xb = (_value(bnd, k, _finite_vector) for k in ("xa", "xb"))
            if xa.shape != (dim,) or xb.shape != (dim,):
                raise ValidationError(f"boundary vectors must have length {dim}")
            boundary = BoundaryConditions(xa=xa, xb=xb)

        solver = SolverConfig(**_section(doc, "solver"))
        tolerances = {**DEFAULT_TOLERANCES, **_section(doc, "tolerances")}
        sampling = SamplingConfig(t_range=(grid.a, grid.b), **_section(doc, "sampling"))

        generators = {}
        for name, spec in _value(doc, "generators", _object, {}).items():
            where = f"generator {name!r}: "
            generators[name] = _generator(spec, name, dim)
        integrals = {}
        section = _value(doc, "integrals", _object, {})
        for name in section:
            where = f"integral {name!r}: "
            integrals[name] = compile_field(_value(section, name, str), dim)
    except (ValidationError, ParseDiagnostic, EvaluationError) as err:
        raise ValidationError(f"{where}{err}") from None

    return ProblemFile(
        path=path, digest=hashlib.sha256(raw).hexdigest(), space=space, grid=grid,
        lagrangian=lagrangian, boundary=boundary, generators=generators,
        integrals=integrals, solver=solver, tolerances=tolerances, sampling=sampling,
    )
