"""Seeded problem generator for the benchmark.

Two families of Lagrangians on a chain of ``dim`` coordinates over [0, 1]:

* ``oscillator``: decoupled oscillators ``sum (c_i v_i^2 - k_i x_i^2) / 2``.
  The Euler-Lagrange equations are linear with the closed-form extremal
  ``x_i(t) = [xa_i sin(w_i (1 - t)) + xb_i sin(w_i t)] / sin(w_i)`` with
  ``w_i = sqrt(k_i / c_i)``, and the discrete Jacobi operator has the exact
  spectrum ``(4 c_i / h^2) sin^2(j pi / 2n) - k_i``.
* ``anharmonic``: quartic velocity terms plus a bilinear x-v coupling around
  the chain, ``sum (c_i v_i^2/2 + q_i v_i^4/12 - k_i x_i^2/2 + b x_i v_{i+1})``.
  It has no closed form; its velocity Hessian ``c_i + q_i v_i^2`` is positive
  definite, so the Legendre condition holds along every curve.

Coefficients are drawn with ``random.Random(seed)`` and written with a fixed
number of decimals, so one seed always gives byte-identical problem files.
The program only ever sees the generated files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

FAMILIES = ("oscillator", "anharmonic")


@dataclass(frozen=True)
class Spec:
    family: str
    dim: int
    n: int
    c: tuple
    k: tuple
    q: tuple
    b: float
    xa: tuple
    xb: tuple
    scale: float = 1.0

    @property
    def amplitude(self) -> float:
        return max([1.0] + [abs(z) for z in self.xa + self.xb])

    def lagrangian(self) -> str:
        terms = []
        for i in range(self.dim):
            j = i + 1
            if self.family == "oscillator":
                terms.append(f"({self.c[i]}*v{j}^2 - {self.k[i]}*x{j}^2)/2")
            else:
                nxt = (i + 1) % self.dim + 1
                terms.append(
                    f"{self.c[i]}*v{j}^2/2 + {self.q[i]}*v{j}^4/12"
                    f" - {self.k[i]}*x{j}^2/2 + {self.b}*x{j}*v{nxt}"
                )
        return " + ".join(terms)

    def energy(self) -> str:
        """The time-translation first integral, E = v . dL/dv - L."""
        terms = []
        for i in range(self.dim):
            j = i + 1
            if self.family == "oscillator":
                terms.append(f"({self.c[i]}*v{j}^2 + {self.k[i]}*x{j}^2)/2")
            else:
                terms.append(
                    f"{self.c[i]}*v{j}^2/2 + {self.q[i]}*v{j}^4/4"
                    f" + {self.k[i]}*x{j}^2/2"
                )
        return " + ".join(terms)

    def document(self) -> dict:
        generators = {"time": "time-translation", "shift": "space-translation"}
        if self.dim >= 2:
            generators["rot"] = "rotation-12"
        return {
            "space": {"dim": self.dim, "weights": [1.0] * self.dim, "seminorms": self.dim},
            "interval": {"a": 0.0, "b": 1.0, "n": self.n},
            "lagrangian": self.lagrangian(),
            "boundary": {"xa": list(self.xa), "xb": list(self.xb)},
            "generators": generators,
            "integrals": {"energy": self.energy()},
            "tolerances": {"conservation": 1e-3},
        }

    def text(self) -> str:
        return json.dumps(self.document(), indent=2) + "\n"

    # -- closed form (oscillator family only) ---------------------------

    def exact(self, t: float) -> list:
        if self.family != "oscillator":
            raise ValueError("only the oscillator family has a closed form")
        omegas = [math.sqrt(k / c) for c, k in zip(self.c, self.k)]
        return [
            (xa * math.sin(w * (1.0 - t)) + xb * math.sin(w * t)) / math.sin(w)
            for w, xa, xb in zip(omegas, self.xa, self.xb)
        ]

    def jacobi_spectrum(self, count: int) -> list:
        """The ``count`` smallest eigenvalues of the discrete accessory problem."""
        if self.family != "oscillator":
            raise ValueError("only the oscillator family has a closed-form spectrum")
        h = 1.0 / self.n
        vals = [
            4.0 * c / h**2 * math.sin(j * math.pi / (2 * self.n)) ** 2 - k
            for c, k in zip(self.c, self.k)
            for j in range(1, count + 1)
        ]
        return sorted(vals)[:count]


def _draw(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


def make_spec(seed: int, family: str, dim: int, n: int, index: int = 0,
              scale: float = 1.0) -> Spec:
    """Problem ``index`` of one rung.  The stream is keyed by every argument,
    so adding a rung never changes the problems of the other rungs.
    ``scale`` multiplies the boundary values."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    rng = random.Random(f"{seed}:{family}:{dim}:{n}:{index}:{scale}")
    c = tuple(_draw(rng, 0.8, 1.6) for _ in range(dim))
    k = tuple(_draw(rng, 0.5, 2.0) for _ in range(dim))
    q = tuple(_draw(rng, 0.1, 0.5) for _ in range(dim)) if family == "anharmonic" else ()
    b = _draw(rng, 0.1, 0.4) if family == "anharmonic" else 0.0
    xa = tuple(scale * _draw(rng, -1.0, 1.0) for _ in range(dim))
    xb = tuple(scale * _draw(rng, -1.0, 1.0) for _ in range(dim))
    return Spec(family=family, dim=dim, n=n, c=c, k=k, q=q, b=b, xa=xa, xb=xb,
                scale=scale)
