import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fd
import noether_lcs as nl
from test_banded import lagrangian_source


def test_directional_derivative_quadratic():
    f = lambda y: float(y @ y)
    assert fd.directional_derivative(f, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == pytest.approx(
        2.0, abs=1e-8
    )


def test_directional_derivative_constant():
    assert fd.directional_derivative(lambda y: 3.25, [0.3, 0.4], [1.0, -1.0]) == pytest.approx(
        0.0, abs=1e-12
    )


def test_directional_derivative_product():
    f = lambda y: float(y[0] * y[1])
    val = fd.directional_derivative(f, [2.0, 3.0], [1.0, 1.0])
    assert val == pytest.approx(5.0, abs=1e-8)
    # brute-force check at a fixed small step
    eps = 1e-5
    base = np.array([2.0, 3.0])
    h = np.array([1.0, 1.0])
    brute = (f(base + eps * h) - f(base - eps * h)) / (2 * eps)
    assert val == pytest.approx(brute, abs=1e-5)


def test_directional_derivative_vector_valued():
    f = lambda y: y**2
    out = fd.directional_derivative(f, np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    assert out == pytest.approx([2.0, 0.0], abs=1e-8)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_directional_derivative_propagates_nonfinite():
    f = lambda y: float(np.log(y[0]))
    with pytest.raises(nl.fields.EvaluationError):
        fd.directional_derivative(f, [0.0], [1.0])


def test_partial_L_kinetic(free_particle):
    assert free_particle.partial("v", 0.0, [0.0], [3.0]) == pytest.approx([3.0])
    assert free_particle.partial("t", 0.0, [0.0], [3.0]) == pytest.approx(0.0)


def test_partial_L_oscillator_fd_agrees(oscillator):
    analytic = oscillator.partial("x", 0.0, [2.0], [0.0])
    assert analytic == pytest.approx([-2.0])
    assert fd.block(oscillator, "x", 0.0, [2.0], [0.0]) == pytest.approx([-2.0], abs=1e-8)


def test_second_partial_kinetic(free_particle):
    assert np.allclose(
        free_particle.second_partial("vv", 0.0, [0.0], [1.0]), [[1.0]]
    )
    assert np.allclose(
        free_particle.second_partial("xx", 0.0, [0.0], [1.0]), [[0.0]]
    )


def test_second_partial_weighted_kinetic():
    L = nl.compile_field("(1*v1^2 + 2*v2^2 + 3*v3^2)/2", dim=3)
    hess = L.second_partial("vv", 0.0, np.zeros(3), np.ones(3))
    assert hess == pytest.approx(np.diag([1.0, 2.0, 3.0]))
    fd_hess = fd.block(L, "vv", 0.0, np.zeros(3), np.ones(3))
    assert fd_hess == pytest.approx(hess, abs=1e-5)
    assert np.max(np.abs(fd_hess - fd_hess.T)) <= 1e-6


def test_analytic_vs_fd_on_catalog_random_points():
    rng = np.random.default_rng(23)
    catalog = ["v1^2/2", "(v1^2 - x1^2)/2", "v1^4/4", "exp(t)*v1^2"]
    for src in catalog:
        L = nl.compile_field(src, dim=1)
        for _ in range(25):
            t = float(rng.uniform(0, 1))
            x = rng.uniform(-1, 1, size=1)
            v = rng.uniform(-1, 1, size=1)
            for which in ("t", "x", "v"):
                a = np.atleast_1d(L.partial(which, t, x, v))
                b = np.atleast_1d(fd.block(L, which, t, x, v))
                assert np.max(np.abs(a - b)) <= 1e-6 * (1 + np.max(np.abs(a)))


def test_richardson_halving_reduces_error():
    f = lambda y: float(np.sin(y[0]) * np.exp(y[0] / 2))
    base = np.array([0.4])
    h = np.array([1.0])
    exact = np.cos(0.4) * np.exp(0.2) + 0.5 * np.sin(0.4) * np.exp(0.2)
    ratios = []
    for eps in (2e-2, 1e-2, 5e-3):
        est = fd.directional_derivative(f, base, h, step=eps)
        ratios.append(abs(est - exact))
    assert ratios[0] / max(ratios[1], 1e-300) >= 8.0
    assert ratios[1] / max(ratios[2], 1e-300) >= 8.0


def test_audit_linear_map_zero_remainder(sup_space3):
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [3.0, 0.0, 1.0]])
    audit = nl.check_normal_differentiability(
        lambda y: A @ y,
        lambda y: A,
        sup_space3,
        sup_space3,
        [np.zeros(3), np.array([1.0, -1.0, 2.0])],
        tol=1e-8,
    )
    assert audit.passed
    for ratios in audit.ratios.values():
        # only floating-point noise survives for an exactly linear map
        assert np.max(ratios) <= 1e-8


def test_audit_quadratic_passes(sup_space3):
    scalar = nl.make_space(1, [1.0], 1)
    audit = nl.check_normal_differentiability(
        lambda y: np.array([float(y @ y)]),
        lambda y: (2.0 * y).reshape(1, 3),
        sup_space3,
        scalar,
        [np.array([1.0, 0.5, -0.3]), np.array([0.0, 0.0, 1.0])],
        tol=1e-4,
    )
    assert audit.passed
    for ratios in audit.ratios.values():
        # remainder of a quadratic decays linearly with the probe radius
        assert ratios[-1] < ratios[0] or ratios[0] == 0.0


def test_audit_abs_kink_fails(sup_space3):
    scalar = nl.make_space(1, [1.0], 1)
    audit = nl.check_normal_differentiability(
        lambda y: np.array([abs(y[0])]),
        lambda y: np.zeros((1, 3)),
        sup_space3,
        scalar,
        [np.zeros(3)],
        tol=1e-4,
    )
    assert not audit.passed


def test_audit_fails_where_the_remainder_seminorm_overflows():
    # the remainder 1e10 y^2 is finite, but its seminorm under the weight
    # 1e305 and its ratio to the radius pass the float range: inf ratios
    # fail the verdict, with no RuntimeWarning
    src = nl.make_space(1, [1.0], 1)
    heavy = nl.make_space(1, [1e305], 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        audit = nl.check_normal_differentiability(
            lambda y: np.array([1e10 * y[0] ** 2]),
            lambda y: np.array([[2e10 * y[0]]]),
            src, heavy, [np.zeros(1)], tol=1e-4,
        )
    assert np.all(audit.ratios[(1, 1)] == np.inf)
    assert not audit.passed


def test_audit_names_the_probe_where_g_is_not_finite(sup_space3):
    # g is finite up to y1 = 0.5: the second base point's probe at radius 0.1
    # along +e1 reaches y1 = 0.55
    scalar = nl.make_space(1, [1.0], 1)
    bases = [np.zeros(3), np.array([0.45, 0.0, 0.0])]
    named = r"base point 1, radius 0\.1: probe point \[0\.55 "
    with pytest.raises(nl.fields.EvaluationError, match=named) as err:
        nl.check_normal_differentiability(
            lambda y: np.array([np.inf if y[0] > 0.5 else float(y @ y)]),
            lambda y: (2.0 * y).reshape(1, 3),
            sup_space3,
            scalar,
            bases,
            tol=1e-4,
        )
    assert err.value.index == 1


def test_audit_names_the_base_point_where_the_candidate_derivative_is_not_finite(sup_space3):
    scalar = nl.make_space(1, [1.0], 1)
    bases = [np.zeros(3), np.array([0.75, 0.0, 0.0])]
    with pytest.raises(nl.fields.EvaluationError, match=r"derivative at base point 1: \[0\.75 ") as err:
        nl.check_normal_differentiability(
            lambda y: np.array([float(y @ y)]),
            lambda y: np.array([[np.inf if y[0] > 0.5 else 0.0, 0.0, 0.0]]),
            sup_space3,
            scalar,
            bases,
            tol=1e-4,
        )
    assert err.value.index == 1


def test_audit_with_no_pair_fails():
    # the one source seminorm reads y1 only, so a map that reads y3 is
    # unbounded in every pair and no pair is audited
    src = nl.make_space(3, [1.0, 1.0, 1.0], 1)
    scalar = nl.make_space(1, [1.0], 1)
    audit = nl.check_normal_differentiability(
        lambda y: np.array([y[2]]), lambda y: np.array([[0.0, 0.0, 1.0]]), src, scalar,
        [np.zeros(3)], tol=1e-4,
    )
    assert audit.verdicts == {}
    assert not audit.passed


def _radius_major_audit(g, candidate_derivative, space_src, space_dst, base_points, tol):
    """The audit's ratios and verdicts from one remainder g(b + h) - g(b) - A h
    and one ``seminorm`` per probe, radius by radius over every base point,
    as the audit computed them before it stacked its probes; where a
    candidate derivative, a value or a remainder is not finite, or the
    candidate raises, the EvaluationError the audit raises first."""
    from noether_lcs.fields import EvaluationError
    from noether_lcs.spaces import normal_index, seminorm

    pairs, derivs = None, []
    for j, b in enumerate(base_points):
        try:
            A = candidate_derivative(b)
        except EvaluationError as err:
            err.args = (f"candidate derivative failed at base point {j} ({b}): {err}",)
            raise
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if not np.all(np.isfinite(A)):
            raise EvaluationError(f"non-finite candidate derivative at base point {j}: {b}", index=j)
        derivs.append(A)
        rep = normal_index(space_src, space_dst, A)
        here = {
            (s, m)
            for s in range(1, space_dst.num_seminorms + 1)
            for m in rep[s]
        }
        pairs = here if pairs is None else pairs & here

    def values(z):
        return np.atleast_1d(np.asarray(g(z), dtype=float))

    g_base = [values(b) for b in base_points] if pairs else []
    rng = np.random.default_rng(0)
    radii = np.logspace(-1, -6, 6)
    ratios, verdicts = {}, {}
    for (s, m) in sorted(pairs):
        k = min(m, space_src.dim)
        dirs = []
        for i in range(k):
            e = np.zeros(space_src.dim)
            e[i] = 1.0
            dirs.extend([e, -e])
        for _ in range(8):
            u = np.zeros(space_src.dim)
            u[:k] = rng.standard_normal(k)
            dirs.append(u)
        dirs = [(u, nu) for u in dirs if (nu := seminorm(space_src, m, u)) != 0.0]
        worst, bad = np.zeros(len(radii)), []
        for ir, r in enumerate(radii):
            for j, (b, gb, A) in enumerate(zip(base_points, g_base, derivs)):
                for d, (u, nu) in enumerate(dirs):
                    h = (r / nu) * u
                    rem = values(b + h) - gb - A @ h
                    if not np.all(np.isfinite(rem)):
                        bad.append((j, ir, d, b + h))
                        continue
                    worst[ir] = max(worst[ir], seminorm(space_dst, s, rem) / r)
        if bad:  # the audit stops at the first in base point, radius, direction order
            j, ir, _, z = min(bad, key=lambda e: e[:3])
            raise EvaluationError(
                f"non-finite value or remainder of g at base point {j}, "
                f"radius {radii[ir]}: probe point {z}",
                index=j,
            )
        ratios[(s, m)] = worst
        verdicts[(s, m)] = bool(worst[-1] <= tol and worst[-1] <= worst[0] + tol)
    return ratios, verdicts


def _audit_map(kind, rng, src, dim_dst):
    """A map R^dim -> R^dim_dst of the first coordinates of y, at most as
    many as ``src`` has seminorms, so that some pair is audited, and its
    candidate derivative: exact for the quadratic, cubic and Lagrangian maps;
    for the map that takes abs() of its last component alone, the one-sided
    slope, which is wrong at the kink, where only the pairs that see that
    component fail.  The Lagrangian map is c L(0.5, y, y) of a catalog
    Lagrangian L on those coordinates, read as inf where L is not finite; with
    a drawn exp(700*x1) term it overflows past x1 = 1.014."""
    support = np.arange(src.dim) < rng.integers(1, min(src.dim, src.num_seminorms) + 1)
    C = rng.standard_normal((dim_dst, src.dim)) * support
    c = rng.standard_normal(dim_dst)
    if kind == "lagrangian":
        source = lagrangian_source(src.dim, rng.uniform(0.5, 2.0, src.dim).tolist(),
                                   *rng.uniform(-1.0, 1.0, 5).tolist())
        L = nl.compile_field(source + (" + exp(700*x1)" if rng.random() < 0.5 else ""), src.dim)

        def g(y):
            try:
                return c * L(0.5, support * y, support * y)
            except nl.fields.EvaluationError:
                return np.full(dim_dst, np.inf)

        def deriv(y):
            jet = L.jet(0.5, support * y, support * y, 1)
            return np.outer(c, support * (jet["x"] + jet["v"]))

        return g, deriv
    if kind == "quadratic":
        g = lambda y: C @ y + c * float((support * y) @ y)
        return g, lambda y: C + np.outer(c, 2.0 * support * y)
    if kind == "cubic":
        return (lambda y: (C @ y) ** 3), (lambda y: 3.0 * (C @ y)[:, None] ** 2 * C)
    last = np.arange(dim_dst) == dim_dst - 1
    g = lambda y: np.where(last, np.abs(C @ y), C @ y)
    return g, lambda y: np.where(last & (C @ y < 0.0), -1.0, 1.0)[:, None] * C


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(
    dim_src=st.integers(1, 4),
    dim_dst=st.integers(1, 3),
    count_src=st.integers(1, 5),
    count_dst=st.integers(1, 4),
    n_bases=st.integers(1, 5),
    kind=st.sampled_from(["quadratic", "cubic", "abs", "lagrangian"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_audit_equals_the_per_probe_loop(
    dim_src, dim_dst, count_src, count_dst, n_bases, kind, seed
):
    rng = np.random.default_rng(seed)
    src = nl.make_space(dim_src, rng.uniform(0.25, 4.0, dim_src), count_src)
    dst = nl.make_space(dim_dst, rng.uniform(0.25, 4.0, dim_dst), count_dst)
    g, deriv = _audit_map(kind, rng, src, dim_dst)
    bases = list(rng.uniform(-2.0, 2.0, (n_bases, dim_src)))
    if kind == "abs":
        bases[0][:] = 0.0  # every coordinate at the kink
    if kind == "lagrangian":
        bases[0][0] = 1.0  # an exp(700*x1) term is finite here, not along +x1
    calls = {"new": 0, "ref": 0}

    def counted(name):
        def h(y):
            calls[name] += 1
            return g(y)

        return h

    try:
        ratios, verdicts = _radius_major_audit(counted("ref"), deriv, src, dst, bases, tol=1e-4)
    except nl.fields.EvaluationError as ref:
        with pytest.raises(nl.fields.EvaluationError) as err:
            nl.check_normal_differentiability(counted("new"), deriv, src, dst, bases, tol=1e-4)
        assert (str(err.value), err.value.index) == (str(ref), ref.index)
        return
    audit = nl.check_normal_differentiability(counted("new"), deriv, src, dst, bases, tol=1e-4)
    assert audit.ratios.keys() == ratios.keys()
    for pair, worst in ratios.items():
        assert audit.ratios[pair].tobytes() == worst.tobytes(), pair
    assert audit.verdicts == verdicts
    assert calls["new"] == calls["ref"]


# -- stacks of points -------------------------------------------------------


def _stack(dim, count=7, seed=3):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(0.0, 1.0, count),
        rng.uniform(-1.0, 1.0, (count, dim)),
        rng.uniform(-1.0, 1.0, (count, dim)),
    )


def _every_block(L, t, x, v):
    out = [L(t, x, v)] + [L.partial(w, t, x, v) for w in "txv"]
    return out + [L.second_partial(p, t, x, v) for p in ("tt", "xx", "xv", "vx", "vv")]


def _every_fd_block(L, t, x, v):
    """``_every_block`` with each partial made by finite differences."""
    names = ("t", "x", "v", "tt", "xx", "xv", "vx", "vv")
    return [L(t, x, v)] + [fd.block(L, name, t, x, v) for name in names]


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "fd"])
def test_stacked_calls_match_point_by_point_calls(compiled):
    # the stacked reads against the same reads one point at a time, or
    # against finite differences of the values one point at a time
    L = nl.compile_field("exp(t/3)*(x1*v2 + v1^2/2) + sin(x2)*v2^2 - x1^2*x2", dim=2)
    t, x, v = _stack(2)
    stacked = _every_block(L, t, x, v)
    by_point = _every_block if compiled else _every_fd_block
    rows = [by_point(L, t[i], x[i], v[i]) for i in range(len(t))]
    tolerance = dict(rtol=1e-12, atol=0.0) if compiled else dict(rtol=1e-6, atol=1e-6)
    for k, block in enumerate(stacked):
        assert block.shape[0] == len(t)
        np.testing.assert_allclose(block, np.array([r[k] for r in rows]), **tolerance)


def test_compiled_field_answers_a_stack_with_one_evaluation(monkeypatch):
    L = nl.compile_field("(v1^2 + 2*v2^2)/2 - x1*x2 + t*v1", dim=2)
    t, x, v = _stack(2, count=50)
    orders = []
    evaluate = nl.dsl.evaluate

    def counting(e, t, x, v, order=0):
        orders.append(order)
        return evaluate(e, t, x, v, order=order)

    monkeypatch.setattr(nl.dsl, "evaluate", counting)
    _every_block(L, t, x, v)
    assert orders == [0, 1, 1, 1, 2, 2, 2, 2, 2]


def test_stacked_non_finite_value_names_the_point(line_space):
    L = nl.compile_field("exp(x1)", dim=1)
    x = np.array([[0.0], [1.0], [800.0], [2.0]])
    with pytest.raises(nl.fields.EvaluationError, match="at point 2") as err:
        L(np.zeros(4), x, np.zeros((4, 1)))
    assert err.value.index == 2
    curve = nl.Curve(line_space, nl.Grid(0.0, 1.0, 4), np.vstack([x, [[3.0]]]))
    named = r"integrand failed at node 2 \(t=0.5\)"
    with pytest.raises(nl.fields.EvaluationError, match=named):
        nl.action(L, curve)


# -- finite differences over the slots (t, x, v) -----------------------------


def _counting_values(src, dim):
    """A field over a compiled field's engine that answers values only, as a
    first integral's does, and the list its value calls are recorded in."""
    compiled = nl.compile_field(src, dim)
    calls = []

    def jets(t, x, v, order):
        if order:
            raise TypeError("this field has no partials")
        calls.append(1)
        return compiled.jets(t, x, v, 0)

    return nl.ScalarField(dim, jets), calls


TUPLE_SOURCES = (
    "(v1^2 - x1^2)/2 + t*x2*v1 + v2^4/12",
    "exp(x1)*v2^2/2 + sin(t*v1) - x1*x2",
    "abs(x1)*v1^2 + x2*v2 + t^2*abs(v2)",
)


def _outcome(read, names, t, x, v):
    """The blocks a read gives, or the DomainError's text and rows."""
    try:
        return read(names, t, x, v)
    except nl.dsl.DomainError as err:
        return str(err), list(err.rows)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    src=st.sampled_from(TUPLE_SOURCES),
    count=st.sampled_from([None, 1, 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tuple_reads_equal_the_single_block_reads(src, count, seed):
    # a tuple of block names reads one jet; each block must be bit for bit
    # the block a single-name read gives, and where abs() sits at 0 the
    # tuple read raises the DomainError each single read raises
    L = nl.compile_field(src, dim=2)
    rng = np.random.default_rng(seed)
    shape = (2,) if count is None else (count, 2)
    t = rng.uniform(-1.0, 1.0) if count is None else rng.uniform(-1.0, 1.0, count)
    x, v = rng.uniform(-1.0, 1.0, shape), rng.uniform(-1.0, 1.0, shape)
    if count is not None:
        x[::2, 0] = 0.0  # where abs(x1) has no partials
        v[1::3, 1] = 0.0  # and abs(v2)
    reads = ((L.partial, ("t", "x", "v")), (L.second_partial, ("tt", "xx", "xv", "vx", "vv")))
    for read, names in reads:
        for k in range(1, len(names) + 1):
            together = _outcome(read, names[:k], t, x, v)
            singles = [_outcome(read, name, t, x, v) for name in names[:k]]
            if isinstance(together[0], str):
                assert all(single == together for single in singles)
                continue
            assert len(together) == k
            for block, single in zip(together, singles):
                assert np.array_equal(block, single)


def test_tuple_read_is_one_engine_call(monkeypatch):
    L = nl.compile_field("(v1^2 - x1^2)/2 + x1*v2", dim=2)
    orders = []
    evaluate = nl.dsl.evaluate

    def counting(e, t, x, v, order=0):
        orders.append(order)
        return evaluate(e, t, x, v, order=order)

    monkeypatch.setattr(nl.dsl, "evaluate", counting)
    t, x, v = np.zeros(4), np.ones((4, 2)), np.ones((4, 2))
    L.partial(("x", "v"), t, x, v)
    L.second_partial(("xx", "xv", "vv"), t, x, v)
    assert orders == [1, 2]
    with pytest.raises(ValueError, match="unknown partial 'xx'"):
        L.partial(("x", "xx"), t, x, v)
    with pytest.raises(ValueError, match="unknown second partial 'v'"):
        L.second_partial(("vv", "v"), t, x, v)
    assert orders == [1, 2]


def test_fd_hessian_blocks_are_exactly_symmetric():
    bare, _ = _counting_values("exp(x1*v3)*sin(t*x2) + v1*v2*x3^2 - x1*x2*x3", 3)
    exact = nl.compile_field("exp(x1*v3)*sin(t*x2) + v1*v2*x3^2 - x1*x2*x3", 3)
    t, x, v = _stack(3, count=4, seed=9)
    for point in [(t[0], x[0], v[0]), (t, x, v)]:
        xv = fd.block(bare, "xv", *point)
        assert np.array_equal(fd.block(bare, "vx", *point), np.swapaxes(xv, -1, -2))
        for pair in ("xx", "vv"):
            h = fd.block(bare, pair, *point)
            assert np.array_equal(h, np.swapaxes(h, -1, -2))
        for pair in ("xx", "xv", "vv"):
            np.testing.assert_allclose(
                fd.block(bare, pair, *point),
                exact.second_partial(pair, *point),
                atol=1e-6,
            )


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fd_blocks_cost_a_fixed_number_of_field_values(dim):
    src = " + ".join(f"sin(t*x{i})*v{i}^2 + x{i}*v{(i % dim) + 1}" for i in range(1, dim + 1))
    bare, calls = _counting_values(src, dim)
    t, x, v = _stack(dim, count=1, seed=dim)
    m = dim
    # Richardson probes 4 values per first partial; a Hessian block costs
    # one centre value, 2 per diagonal entry and 4 per unordered pair
    expected = {
        "t": 4,
        "x": 4 * m,
        "v": 4 * m,
        "tt": 3,
        "xx": 1 + 2 * m + 2 * m * (m - 1),
        "vv": 1 + 2 * m + 2 * m * (m - 1),
        "xv": 4 * m * m,
        "vx": 4 * m * m,
    }
    for block, count in expected.items():
        calls.clear()
        fd.block(bare, block, t[0], x[0], v[0])
        assert len(calls) == count, block


def test_audit_evaluates_each_base_point_once(sup_space3):
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [3.0, 0.0, 1.0]])
    bases = [np.zeros(3), np.array([1.0, -1.0, 2.0])]
    probed = []

    def g(y):
        probed.append(y.copy())
        return A @ y

    audit = nl.check_normal_differentiability(
        g, lambda y: A, sup_space3, sup_space3, bases, tol=1e-8
    )
    at_bases = [y for y in probed if any(np.array_equal(y, b) for b in bases)]
    assert len(at_bases) == len(bases)
    # one more value per (pair, radius, base point, direction)
    per_pair = [len(audit.radii) * len(bases) * (2 * min(m, 3) + 8) for (_, m) in audit.ratios]
    assert len(probed) == len(bases) + sum(per_pair)


# -- one block table: the names, their order and their slots ------------------


def _by_table(r, name, m):
    """Block ``name`` of an EvalResult taken by ``fields.slots``, one axis per
    letter (t's of length 1)."""
    if name == "value":
        return np.asarray(r.value)
    out = r.grad if len(name) == 1 else r.hess
    for k, kind in enumerate(name):
        out = np.take(out, list(nl.fields.slots(kind, m)), axis=out.ndim - len(name) + k)
    return out


def test_every_block_is_the_table_slice_of_the_engine_result():
    L = nl.compile_field("exp(t/3)*(x1*v2 + v1^2/2) + sin(x2)*v2^2 - x1^2*x2 + t^2*v1", dim=2)
    t, x, v = _stack(2, count=6, seed=5)
    for args in [(t[2], x[2], v[2]), (t[:1], x[:1], v[:1]), (t, x, v)]:
        r = nl.evaluate(L.jets, *args, order=2)
        jet = L.jet(*args, 2)
        for name in nl.fields.BLOCKS:
            got, want = np.asarray(jet[name]), _by_table(r, name, 2)
            assert got.size == want.size and got.tobytes() == want.tobytes(), name
    # at one point t and tt stay floats
    assert type(L.partial("t", t[0], x[0], v[0])) is float
    assert type(L.second_partial("tt", t[0], x[0], v[0])) is float


def test_finite_difference_blocks_land_in_the_slots_of_the_exact_ones():
    # every slot and slot pair of z = (t, x1, x2, v1, v2) has its own partial,
    # so a difference placed in the wrong slot would not match
    L = nl.compile_field("exp(t/3)*(x1*v2 + v1^2/2) + sin(x2)*v2^2 - x1^2*x2 + t^2*v1", dim=2)
    t, x, v = _stack(2, count=5, seed=11)
    exact = nl.evaluate(L.jets, t, x, v, order=2)
    for name in nl.fields.BLOCKS.keys() - {"value"}:
        differenced = fd.block(L, name, t, x, v)
        want = _by_table(exact, name, 2).reshape(differenced.shape)
        np.testing.assert_allclose(differenced, want, rtol=1e-6, atol=1e-6, err_msg=name)


# -- every block a field hands out is finite ---------------------------------


def test_a_non_finite_partial_is_named_with_its_block_and_point():
    # 5e307*x1^2 is finite at x1 = 1.8, its x-partial 1.8e308 is not
    L = nl.compile_field("5e307*x1^2 + v1^2/2", dim=1)
    t, x, v = np.zeros(3), np.array([[0.5], [1.8], [1.0]]), np.ones((3, 1))
    assert np.isfinite(L(t, x, v)).all()
    named = r"non-finite field partial 'x' at point 1 \(t=0\.0, x=\[1\.8\], v=\[1\.\]\)$"
    with pytest.raises(nl.fields.EvaluationError, match=named) as err:
        L.partial("x", t, x, v)
    assert err.value.index == 1
    assert np.isfinite(L.second_partial("xx", t, x, v)).all()
    # at one point: 1^nan is 1, but the gradient of x1^nan is NaN in every
    # slot (NaN times the unit gradient's zeros)
    L = nl.compile_field("v1^2/2 + x1^(0*1e400)", dim=1)
    assert L(0.0, [1.0], [2.0]) == 3.0
    named = r"non-finite field partial 'v' at t=0\.0, x=\[1\.\], v=\[2\.\]"
    with pytest.raises(nl.fields.EvaluationError, match=named):
        L.partial(("v", "x"), 0.0, np.array([1.0]), np.array([2.0]))


def test_a_block_read_checks_the_value_first():
    L = nl.compile_field("v1^2/2*exp(1000*x1)", dim=1)
    x = np.array([[0.5], [0.71], [0.8]])
    with pytest.raises(nl.fields.EvaluationError, match=r"field value at point 1 \(t=") as err:
        L.second_partial("vv", np.zeros(3), x, np.ones((3, 1)))
    assert err.value.index == 1


OVERFLOWING = ("v1^2/2*exp(1000*x1)", "v1^2/2 + x1^(0*1e400)")


@pytest.mark.parametrize("src", OVERFLOWING)
def test_overflowing_lagrangians_raise_at_every_read(src, line_space):
    # on the oscillator's grid, a line from x1 = 0.5 to 2.0: exp(1000*x1)
    # overflows past x1 = 0.7098, and x1^nan is NaN but at x1 = 1
    L = nl.compile_field(src, 1)
    grid = nl.Grid(0.0, np.pi / 2, 200)
    x = nl.Curve.from_function(line_space, grid, lambda t: [0.5 + 1.5 * t / (np.pi / 2)])
    bc = nl.BoundaryConditions([0.5], [2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in (
            lambda: nl.legendre_check(L, x),
            lambda: nl.jacobi_operators(L, x),
            lambda: nl.el_residual(L, x),
            lambda: nl.solve_extremal(L, bc, grid, line_space),
        ):
            with pytest.raises(nl.fields.EvaluationError, match=r"non-finite field value at point \d+ \(t="):
                read()


def test_a_one_point_value_is_one_order_0_engine_call():
    L = nl.compile_field("v1^2/2*exp(1000*x1)", 1)
    calls = []

    def jets(t, x, v, order):
        calls.append((x, order))
        return L.jets(t, x, v, order)

    field = nl.ScalarField(1, jets)
    assert field(0.0, [0.5], [1.0]) == L(0.0, [0.5], [1.0])
    assert calls == [([0.5], 0)]  # x is handed on as given, not converted first
    # a value that is not finite names the point as arrays
    with pytest.raises(nl.fields.EvaluationError) as err:
        field(0.0, [2.0], [1.0])
    assert str(err.value) == "non-finite field value at t=0.0, x=[2.], v=[1.]"
    assert err.value.index is None


def test_the_value_of_a_field_is_one_engine_call_on_a_stack():
    bare, calls = _counting_values("v1^2/2*exp(1000*x1)", 1)
    compiled = nl.compile_field("v1^2/2*exp(1000*x1)", 1)
    ts, xs, vs = np.zeros(3), np.array([[0.1], [0.2], [0.3]]), np.ones((3, 1))
    for read in (lambda x: bare(ts, x, vs), lambda x: bare.jet(ts, x, vs, 0)["value"]):
        calls.clear()
        assert np.array_equal(read(xs), compiled(ts, xs, vs))
        assert len(calls) == 1
        with pytest.raises(nl.fields.EvaluationError, match="non-finite field value at point 1") as err:
            read(np.array([[0.1], [0.8], [0.3]]))
        assert err.value.index == 1


def test_a_partial_of_a_first_integral_is_a_type_error():
    # nothing reads a first integral's partials: its engine answers order 0
    L = nl.compile_field("v1^2/2 - x1^2", 1)
    C = nl.noether_first_integral(L, nl.catalog_generator("time-translation", 1))
    ts, xs, vs = np.zeros(3), np.ones((3, 1)), np.ones((3, 1))
    for point in ((0.0, [1.0], [1.0]), (ts, xs, vs)):
        # C = L - v L_v = (1/2 - 1) - 1
        assert np.all(C(*point) == -1.5) and np.all(C.jet(*point, 0)["value"] == -1.5)
        for read, names in ((C.partial, ("t", "x", "v")), (C.second_partial, ("xv", "vv"))):
            for name in (*names, names):
                with pytest.raises(TypeError, match="^a first integral has no partials$"):
                    read(name, *point)
        with pytest.raises(TypeError, match="has no partials"):
            C.jet(*point, 1)


def test_a_one_point_domain_error_names_t_x_and_v():
    L = nl.compile_field("v1^2/2 + log(x1)", 1)
    for read in (L, lambda *p: L.partial("x", *p), lambda *p: L.jet(*p, 2)):
        with pytest.raises(nl.dsl.DomainError) as err:
            read(0.25, np.array([-0.5]), np.array([2.0]))
        assert str(err.value) == "log of non-positive value -0.5 at t=0.25, x=[-0.5], v=[2.]"
        assert err.value.index is None and list(err.value.rows) == [0]
        assert isinstance(err.value, nl.fields.EvaluationError)


def test_action_names_the_node_where_the_integrand_leaves_its_domain(line_space):
    # x = 0.5 - t crosses 0 at t = 0.5, node 50 of 100: log's domain ends there
    L = nl.compile_field("v1^2/2 + log(x1)", 1)
    x = nl.Curve.from_function(line_space, nl.Grid(0.0, 1.0, 100), lambda t: [0.5 - t])
    named = r"^integrand failed at node 50 \(t=0\.5\): log of non-positive value 0\.0 at point 50 "
    with pytest.raises(nl.dsl.DomainError, match=named) as err:
        nl.action(L, x)
    assert err.value.index == 50 and list(err.value.rows) == list(range(50, 101))


def test_audit_re_raises_a_domain_error_of_the_candidate_with_its_base_point(sup_space3):
    # the candidate reads L_x of log(x1), which has no value at x1 <= 0
    L = nl.compile_field("log(x1) + x2*x3", 3)
    scalar = nl.make_space(1, [1.0], 1)
    bases = [np.array([1.0, 0.0, 0.0]), np.array([-0.5, 0.0, 0.0])]
    named = (r"^candidate derivative failed at base point 1 \(\[-0\.5  0\.   0\. \]\): "
             r"log of non-positive value -0\.5 at t=0\.0, x=\[-0\.5  0\.   0\. \], v=")
    with pytest.raises(nl.dsl.DomainError, match=named) as err:
        nl.check_normal_differentiability(
            lambda y: np.array([L(0.0, y, y)]),
            lambda y: L.partial("x", 0.0, y, y).reshape(1, 3),
            sup_space3,
            scalar,
            bases,
            tol=1e-4,
        )
    assert "non-finite" not in str(err.value)
    assert err.value.index is None and list(err.value.rows) == [0]
