"""Acceptance gate: one test per exit criterion, each printing a single
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

import fd
import noether_lcs as nl
import variations
from test_dsl import random_smooth_expression
from test_spaces import brute_force_operator_seminorm


def record(label: str, ok: bool) -> None:
    print(f"\nacceptance {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


def space(dim):
    return nl.make_space(dim, np.ones(dim), dim)


CATALOG = [
    # (name, source, dim, (a, b), xa, xb, exact solution)
    ("free-particle", "v1^2/2", 1, (0.0, 1.0), [0.0], [1.0], lambda t: [t]),
    (
        "oscillator",
        "(v1^2 - x1^2)/2",
        1,
        (0.0, np.pi / 2),
        [0.0],
        [1.0],
        lambda t: [np.sin(t)],
    ),
    (
        "decoupled-3d",
        "(v1^2 + v2^2 + v3^2)/2",
        3,
        (0.0, 1.0),
        [0.0, 0.0, 0.0],
        [1.0, 2.0, 3.0],
        lambda t: [t, 2 * t, 3 * t],
    ),
    ("quartic", "v1^4/4", 1, (0.0, 1.0), [0.0], [1.0], lambda t: [t]),
]


def solve_catalog_entry(entry, n):
    name, src, dim, (a, b), xa, xb, exact = entry
    sp = space(dim)
    L = nl.compile_field(src, dim)
    grid = nl.Grid(a, b, n)
    x = nl.solve_extremal(L, nl.BoundaryConditions(xa, xb), grid, sp, nl.SolverConfig())
    truth = np.array([exact(t) for t in grid.nodes])
    err = float(np.max(np.abs(x.values - truth)))
    return L, x, err


def test_criterion_1_euler_lagrange_necessity():
    ok = True
    for entry in CATALOG:
        started = time.perf_counter()
        L, x, err400 = solve_catalog_entry(entry, 400)
        elapsed = time.perf_counter() - started
        res = nl.el_residual(L, x).max_norm
        ok &= res <= 1e-8 and err400 <= 1e-3 and elapsed <= 5.0
        if err400 > 1e-12:
            _, _, err800 = solve_catalog_entry(entry, 800)
            ok &= err400 / err800 >= 3.5
    record("1 euler-lagrange necessity", ok)


def test_criterion_2_stationarity():
    rng = np.random.default_rng(42)
    ok = True
    for entry in CATALOG:
        L, x, _ = solve_catalog_entry(entry, 400)
        grid = x.grid
        dim = x.space.dim
        span = grid.b - grid.a
        for _ in range(50):
            coeffs = rng.uniform(-1, 1, size=(4, dim))
            vals = np.zeros((grid.n + 1, dim))
            for k in range(4):
                mode = np.sin((k + 1) * np.pi * (grid.nodes - grid.a) / span)
                vals += mode[:, None] * coeffs[k][None, :]
            vals /= max(float(np.max(np.abs(vals))), 1e-12)
            h = nl.Curve(x.space, grid, vals)
            ok &= abs(variations.first_variation(L, x, h)) <= 10 * grid.h**2
    record("2 stationarity", ok)


def test_newton_converges_on_refined_grids():
    # the residual's roundoff floor grows like eps |x| / h^2, so refinement
    # (or large boundary values) must not turn a converged solve into a
    # "line search stalled" failure; the O(h^2) ratio checks still hold
    for entry in CATALOG:
        ns = (200, 400, 800, 1600, 3200) if entry[2] == 1 else (200, 400, 800, 1600)
        errs = []
        for n in ns:
            L, x, err = solve_catalog_entry(entry, n)
            assert nl.meets_stopping_rule(L, x, nl.SolverConfig().tol)
            assert err <= 1e-3
            errs.append(err)
        for coarse, fine in zip(errs, errs[1:]):
            if coarse > 1e-12:
                assert coarse / fine >= 3.5
    _, src, dim, (a, b), xa, xb, exact = CATALOG[1]
    L = nl.compile_field(src, dim)
    grid = nl.Grid(a, b, 200)
    scale = 1e3
    bc = nl.BoundaryConditions(scale * np.array(xa), scale * np.array(xb))
    x = nl.solve_extremal(L, bc, grid, space(dim), nl.SolverConfig())
    truth = scale * np.array([exact(t) for t in grid.nodes])
    assert np.max(np.abs(x.values - truth)) <= scale * 1e-5


NOETHER_PAIRS = [
    # (label, catalog entry, generator, strict): every pair is checked through
    # its fitted gauge, and the strict residual must vanish exactly when the
    # pair is marked strict.  A pure velocity boost changes the kinetic action
    # by a boundary term, so its strict residual equals v1; it is a divergence
    # symmetry with gauge F = x1 and conserved quantity t v1 - x1.
    ("free-particle/time-translation", CATALOG[0], "time-translation", True),
    ("free-particle/space-translation", CATALOG[0], "space-translation-1", True),
    ("free-particle/galilean", CATALOG[0], "galilean-1", False),
    ("oscillator/time-translation", CATALOG[1], "time-translation", True),
    ("free-particle-3d/rotation-12", CATALOG[2], "rotation-12", True),
]


@pytest.mark.parametrize(
    "label,entry,gen,strict", NOETHER_PAIRS, ids=[p[0] for p in NOETHER_PAIRS]
)
def test_criterion_3_noether_end_to_end(label, entry, gen, strict):
    L, x, _ = solve_catalog_entry(entry, 400)
    g = nl.fit_gauge(L, nl.catalog_generator(gen, entry[2]))
    inv = nl.check_invariance(L, g, tol=1e-8)
    C = nl.noether_first_integral(L, g)
    cons = nl.verify_conservation(C, x, tol=50 * x.grid.h**2)
    strict_ok = (inv.strict_max_residual <= 1e-8) == strict
    record(f"3 noether end-to-end [{label}]", inv.passed and cons.passed and strict_ok)


def test_criterion_4_invariance_falsification():
    osc = nl.compile_field("(v1^2 - x1^2)/2", 1)
    drag = nl.compile_field("exp(t)*v1^2", 1)
    r1 = nl.check_invariance(osc, nl.catalog_generator("space-translation-1", 1))
    r2 = nl.check_invariance(drag, nl.catalog_generator("time-translation", 1))
    ok = (not r1.passed and r1.max_residual >= 0.1) and (
        not r2.passed and r2.max_residual >= 0.1
    )
    record("4 invariance falsification", ok)


def test_criterion_5_legendre_condition():
    ok = True
    for entry in CATALOG:
        L, x, _ = solve_catalog_entry(entry, 200)
        rep = nl.legendre_check(L, x)
        ok &= rep.passed and rep.global_min >= -1e-10
    sp = space(1)
    bad = nl.compile_field("-v1^2/2", 1)
    grid = nl.Grid(0.0, 1.0, 200)
    x = nl.Curve.from_function(sp, grid, lambda t: [t])
    rep = nl.legendre_check(bad, x)
    ok &= not rep.passed and len(rep.violating_nodes) == grid.n + 1
    _, value = variations.negative_second_variation_witness(bad, x, rep)
    ok &= value < 0.0
    record("5 legendre condition", ok)


def test_criterion_6_second_variation_identity():
    ok = True
    eps = 1e-4
    for entry in CATALOG:
        L, x, _ = solve_catalog_entry(entry, 200)
        grid = x.grid
        span = grid.b - grid.a
        mode = np.sin(np.pi * (grid.nodes - grid.a) / span)
        vals = np.zeros_like(x.values)
        vals[:, 0] = mode
        h = nl.Curve(x.space, grid, vals)
        d2 = variations.second_variation(L, x, h)
        j0 = nl.action(L, x)
        jp = nl.action(L, nl.Curve(x.space, grid, x.values + eps * vals))
        jm = nl.action(L, nl.Curve(x.space, grid, x.values - eps * vals))
        fd = (jp - 2 * j0 + jm) / eps**2
        ok &= abs(d2 - fd) <= 1e-4 * (1 + abs(d2))
    record("6 second-variation identity", ok)


def test_criterion_7_jacobi_spectrum():
    grid = nl.Grid(0.0, np.pi, 500)
    base = variations.constant_operators(grid, 1.0, 0.0)
    vals = [lam for lam, _ in nl.jacobi_eigen(base, grid, 3)]
    ok = all(abs(got - want) <= 0.01 * want for got, want in zip(vals, (1.0, 4.0, 9.0)))
    shifted = variations.constant_operators(grid, 1.0, 1.75)
    svals = [lam for lam, _ in nl.jacobi_eigen(shifted, grid, 3)]
    ok &= all(abs((s - v) - 1.75) <= 1e-10 for s, v in zip(svals, vals))
    record("7 jacobi spectrum", ok)


def test_criterion_8_derivative_engine():
    rng = np.random.default_rng(404)
    ok = True
    checked = 0
    while checked < 1000:
        expr = random_smooth_expression(rng)
        t = float(rng.uniform(-1, 1))
        x = rng.uniform(-1, 1, size=1)
        v = rng.uniform(-1, 1, size=1)
        try:
            r = nl.evaluate(expr, t, x, v, order=1)
        except nl.dsl.DomainError:
            continue
        grads = np.r_[r.value, r.grad]
        if not np.all(np.isfinite(grads)) or np.max(np.abs(grads)) > 1e4:
            continue
        field = nl.compile_field(expr, 1)
        for which, want in zip("txv", r.grad):
            got = np.atleast_1d(fd.block(field, which, t, x, v))[0]
            ok &= abs(got - want) <= 1e-6 * (1 + abs(want))
        checked += 1
    f = lambda y: float(np.sin(y[0]) * np.exp(y[0]))
    exact = (np.cos(0.3) + np.sin(0.3)) * np.exp(0.3)
    errs = []
    for step in (2e-2, 1e-2):
        est = fd.directional_derivative(
            f, np.array([0.3]), np.array([1.0]), step=step
        )
        errs.append(abs(est - exact))
    ok &= errs[0] / max(errs[1], 1e-300) >= 8.0
    record("8 derivative engine", ok)


def test_criterion_9_seminorm_model():
    rng = np.random.default_rng(9)
    sp = nl.make_space(4, [0.5, 1.0, 2.0, 4.0], 5)
    ok = True
    for _ in range(10_000):
        y = rng.normal(size=4) * 5
        z = rng.normal(size=4) * 5
        alpha = float(rng.normal())
        p = int(rng.integers(1, 6))
        ny = nl.seminorm(sp, p, y)
        ok &= ny >= 0.0
        ok &= abs(nl.seminorm(sp, p, alpha * y) - abs(alpha) * ny) <= 1e-9 * (1 + ny)
        ok &= nl.seminorm(sp, p, y + z) <= ny + nl.seminorm(sp, p, z) + 1e-12
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        sp_src = nl.make_space(dim, rng.uniform(0.2, 3.0, size=dim), dim)
        sp_dst = nl.make_space(dim, rng.uniform(0.2, 3.0, size=dim), dim)
        m = rng.normal(size=(dim, dim))
        m[rng.random(size=m.shape) < 0.5] = 0.0
        for p in range(1, dim + 1):
            for q in range(1, dim + 1):
                exact = nl.operator_seminorm(sp_src, sp_dst, m, p, q)
                if np.isfinite(exact):
                    brute = brute_force_operator_seminorm(sp_src, sp_dst, m, p, q)
                    ok &= abs(exact - brute) <= 1e-9
        rep = nl.normal_index(sp_src, sp_dst, m)
        for q, members in rep.items():
            for p in members:
                ok &= all(
                    p2 in members for p2 in range(p, sp_src.num_seminorms + 1)
                )
    record("9 seminorm and normal index model", ok)


def test_criterion_10_differentiability_audit():
    sp3 = space(3)
    scalar = space(1)
    good = nl.check_normal_differentiability(
        lambda y: np.array([float(y @ y) + y[0]]),
        lambda y: (2.0 * y + np.array([1.0, 0.0, 0.0])).reshape(1, 3),
        sp3,
        scalar,
        [np.zeros(3), np.array([0.5, -1.0, 2.0])],
        tol=1e-3,
    )
    kink = nl.check_normal_differentiability(
        lambda y: np.array([abs(y[0])]),
        lambda y: np.zeros((1, 3)),
        sp3,
        scalar,
        [np.zeros(3), np.array([0.0, 1.0, -1.0])],
        tol=1e-3,
    )
    record("10 differentiability audit", good.passed and not kink.passed)
