"""Structured problem files: one JSON document describes the space, the grid,
the Lagrangian, boundary values, named generators, and named first integrals.

The file is the experiment; command-line flags only override tolerances and
grids.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from .curves import Grid
from .dsl import compile_field, has_variables, parse, ParseDiagnostic
from .euler_lagrange import BoundaryConditions, SolverConfig
from .fields import ScalarField
from .spaces import Space, ValidationError, make_space
from .symmetry import SamplingConfig, SymmetryGenerator, catalog_generator, FirstIntegral


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
    integrals: Dict[str, FirstIntegral]
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


def load_problem(path, grid_n: Optional[int] = None) -> ProblemFile:
    path = Path(path)
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ProblemError(f"{path}: not valid JSON ({err})")

    try:
        sp = doc["space"]
        space = make_space(
            dim=int(sp["dim"]),
            weights=sp.get("weights", [1.0] * int(sp["dim"])),
            num_seminorms=int(sp.get("seminorms", sp["dim"])),
        )
        iv = doc["interval"]
        n = int(grid_n if grid_n is not None else iv["n"])
        if n % 2 != 0 or n < 4:
            raise ProblemError(f"interval n must be even and >= 4, got {n}")
        grid = Grid(a=float(iv["a"]), b=float(iv["b"]), n=n)
        lagrangian_source = doc["lagrangian"]
        lagrangian = compile_field(lagrangian_source, space.dim)
    except KeyError as err:
        raise ProblemError(f"{path}: missing required key {err}")
    except (ValidationError, ParseDiagnostic) as err:
        raise ProblemError(f"{path}: {err}")

    boundary = None
    if "boundary" in doc:
        bnd = doc["boundary"]
        xa = np.asarray(bnd["xa"], dtype=float)
        xb = np.asarray(bnd["xb"], dtype=float)
        if xa.shape != (space.dim,) or xb.shape != (space.dim,):
            raise ProblemError(
                f"{path}: boundary vectors must have length {space.dim}"
            )
        boundary = BoundaryConditions(xa=xa, xb=xb)

    generators = {}
    for name, spec in doc.get("generators", {}).items():
        try:
            if isinstance(spec, str):
                generators[name] = catalog_generator(spec, space.dim)
            else:
                trees = [parse(spec.get("T", "0"), space.dim)]
                x_exprs = spec.get("X", ["0"] * space.dim)
                if len(x_exprs) != space.dim:
                    raise ProblemError(
                        f"generator {name!r} needs {space.dim} X components"
                    )
                trees += [parse(s, space.dim) for s in x_exprs]
                if any(has_variables(e, "v") for e in trees):
                    raise ProblemError(
                        f"generator {name!r}: T and X are fields of (t, x) "
                        f"and may not use v1..v{space.dim}"
                    )
                t_field, *x_fields = (compile_field(e, space.dim) for e in trees)
                generators[name] = SymmetryGenerator(
                    dim=space.dim, T=t_field, X=tuple(x_fields), name=name
                )
        except (ValidationError, ParseDiagnostic) as err:
            raise ProblemError(f"{path}: generator {name!r}: {err}")

    integrals = {}
    for name, src in doc.get("integrals", {}).items():
        try:
            f = compile_field(src, space.dim)
        except ParseDiagnostic as err:
            raise ProblemError(f"{path}: integral {name!r}: {err}")
        integrals[name] = FirstIntegral(dim=space.dim, evaluator=f.func, provenance="user")

    sv = doc.get("solver", {})
    solver = SolverConfig(
        tol=float(sv.get("tol", 1e-10)),
        max_iter=int(sv.get("max_iter", 50)),
        damping=float(sv.get("damping", 1.0)),
    )

    tolerances = dict(DEFAULT_TOLERANCES)
    tolerances.update({k: float(v) for k, v in doc.get("tolerances", {}).items()})

    sm = doc.get("sampling", {})
    sampling = SamplingConfig(
        t_range=(grid.a, grid.b),
        x_radius=float(sm.get("x_radius", 2.0)),
        v_radius=float(sm.get("v_radius", 2.0)),
        count=int(sm.get("count", 200)),
        seed=int(sm.get("seed", 0)),
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
