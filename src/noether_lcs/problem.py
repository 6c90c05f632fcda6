"""Structured problem files: one JSON document describes the space, the grid,
the Lagrangian, boundary values, named generators, and named first integrals.

The file is the experiment; command-line flags only override tolerances and
grids.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from .curves import Grid
from .dsl import compile_field, has_variables, parse, ParseDiagnostic
from .euler_lagrange import BoundaryConditions, SolverConfig
from .fields import ScalarField
from .spaces import Space, ValidationError, make_space
from .symmetry import SamplingConfig, SymmetryGenerator, catalog_generator


class ProblemError(ValueError):
    """Problem file fails validation."""


@dataclass
class ProblemFile:
    path: Path
    digest: str
    space: Space
    grid: Grid
    lagrangian: ScalarField
    lagrangian_source: str
    boundary: Optional[BoundaryConditions]
    generators: Dict[str, SymmetryGenerator]
    integrals: Dict[str, ScalarField]
    solver: SolverConfig
    tolerances: Dict[str, float]
    sampling: SamplingConfig

    def require_boundary(self) -> BoundaryConditions:
        if self.boundary is None:
            raise ProblemError("problem file has no boundary section")
        return self.boundary


DEFAULT_TOLERANCES = {
    "invariance": 1e-8,
    "conservation": 1e-6,
    "legendre": 1e-10,
    "audit": 1e-3,
}


_vector = partial(np.asarray, dtype=float)


def _value(path, section: dict, key: str, kind, default=None):
    """``kind(section[key])``, or ``kind(default)`` when the key is absent; a
    missing key without a default, or a value ``kind`` rejects, is a
    ProblemError naming the file and the key."""
    if key not in section and default is None:
        raise ProblemError(f"{path}: missing required key {key!r}")
    try:
        return kind(section.get(key, default))
    except (TypeError, ValueError):
        raise ProblemError(f"{path}: malformed value {section[key]!r} for key {key!r}") from None


def _int_at_least(low: int):
    """A ``kind`` for ``_value``: an int that is at least ``low``."""

    def kind(value):
        n = int(value)
        if n < low:
            raise ValueError(f"{n} < {low}")
        return n

    return kind


def load_problem(path, grid_n: Optional[int] = None) -> ProblemFile:
    path = Path(path)
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ProblemError(f"{path}: not valid JSON ({err})")

    try:
        sp = _value(path, doc, "space", dict)
        dim = _value(path, sp, "dim", int)
        space = make_space(
            dim=dim,
            weights=_value(path, sp, "weights", _vector, [1.0] * dim),
            num_seminorms=_value(path, sp, "seminorms", int, dim),
        )
        iv = _value(path, doc, "interval", dict)
        n = int(grid_n) if grid_n is not None else _value(path, iv, "n", int)
        if n % 2 != 0 or n < 4:
            raise ProblemError(f"interval n must be even and >= 4, got {n}")
        grid = Grid(a=_value(path, iv, "a", float), b=_value(path, iv, "b", float), n=n)
        lagrangian_source = _value(path, doc, "lagrangian", str)
        lagrangian = compile_field(lagrangian_source, space.dim)
    except (ValidationError, ParseDiagnostic) as err:
        raise ProblemError(f"{path}: {err}")

    boundary = None
    if "boundary" in doc:
        bnd = _value(path, doc, "boundary", dict)
        xa, xb = (_value(path, bnd, k, _vector) for k in ("xa", "xb"))
        if xa.shape != (space.dim,) or xb.shape != (space.dim,):
            raise ProblemError(
                f"{path}: boundary vectors must have length {space.dim}"
            )
        boundary = BoundaryConditions(xa=xa, xb=xb)

    generators = {}
    for name, spec in _value(path, doc, "generators", dict, {}).items():
        try:
            if isinstance(spec, str):
                generators[name] = catalog_generator(spec, space.dim)
            elif not isinstance(spec, dict):
                raise ProblemError(
                    f"{path}: generator {name!r} must be a catalog name or an "
                    f"object with T and X, got {spec!r}"
                )
            else:
                trees = [parse(_value(path, spec, "T", str, "0"), space.dim)]
                x_exprs = spec.get("X", ["0"] * space.dim)
                if not isinstance(x_exprs, list) or len(x_exprs) != space.dim:
                    raise ProblemError(
                        f"{path}: generator {name!r} needs a list of "
                        f"{space.dim} X components"
                    )
                trees += [parse(str(s), space.dim) for s in x_exprs]
                if any(has_variables(e, "v") for e in trees):
                    raise ProblemError(
                        f"{path}: generator {name!r}: T and X are fields of (t, x) "
                        f"and may not use v1..v{space.dim}"
                    )
                t_field, *x_fields = (compile_field(e, space.dim) for e in trees)
                generators[name] = SymmetryGenerator(
                    dim=space.dim, T=t_field, X=tuple(x_fields), name=name
                )
        except (ValidationError, ParseDiagnostic) as err:
            raise ProblemError(f"{path}: generator {name!r}: {err}")

    integrals = {}
    section = _value(path, doc, "integrals", dict, {})
    for name in section:
        try:
            integrals[name] = compile_field(_value(path, section, name, str), space.dim)
        except ParseDiagnostic as err:
            raise ProblemError(f"{path}: integral {name!r}: {err}")

    sv = _value(path, doc, "solver", dict, {})
    solver = SolverConfig(
        tol=_value(path, sv, "tol", float, 1e-10),
        max_iter=_value(path, sv, "max_iter", int, 50),
        damping=_value(path, sv, "damping", float, 1.0),
    )

    tolerances = dict(DEFAULT_TOLERANCES)
    tol_doc = _value(path, doc, "tolerances", dict, {})
    tolerances.update({k: _value(path, tol_doc, k, float) for k in tol_doc})

    sm = _value(path, doc, "sampling", dict, {})
    sampling = SamplingConfig(
        t_range=(grid.a, grid.b),
        x_radius=_value(path, sm, "x_radius", float, 2.0),
        v_radius=_value(path, sm, "v_radius", float, 2.0),
        count=_value(path, sm, "count", _int_at_least(1), 200),
        seed=_value(path, sm, "seed", _int_at_least(0), 0),
    )

    return ProblemFile(
        path=path,
        digest=digest,
        space=space,
        grid=grid,
        lagrangian=lagrangian,
        lagrangian_source=lagrangian_source,
        boundary=boundary,
        generators=generators,
        integrals=integrals,
        solver=solver,
        tolerances=tolerances,
        sampling=sampling,
    )
