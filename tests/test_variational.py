import tracemalloc
import warnings

import numpy as np
import pytest

from riskpmp.adjoint import linearization_along
from riskpmp.sde import (
    ControlLaw,
    DynamicsSpec,
    double_integrator_dynamics,
    euler_maruyama,
    make_grid,
    sample_brownian,
)
from riskpmp.variational import (
    ItoGapReport,
    TangentSelection,
    ito_counterexample,
    linearization_rate,
    selection_continuity,
    tangent_from_control,
)

# ---------------------------------------------------------------------------
# dynamics used throughout


def double_integrator(cubic=0.0):
    """dy = v dt + dW, dv = (u - cubic*y^3) dt; cubic=0 is the planner model."""

    def drift(t, x, u):
        return np.stack([x[:, 1], u[:, 0] - cubic * x[:, 0] ** 3], axis=1)

    def diffusion(t, x, u):
        out = np.zeros(x.shape + (1,))
        out[:, 0, 0] = 1.0
        return out

    def drift_jac(t, x, u):
        jac = np.zeros((x.shape[0], 2, 2))
        jac[:, 0, 1] = 1.0
        jac[:, 1, 0] = -3.0 * cubic * x[:, 0] ** 2
        return jac

    return DynamicsSpec(
        state_dim=2, control_dim=1, noise_dim=1,
        drift=drift, diffusion=diffusion, drift_jac=drift_jac,
        control_grid=np.linspace(-1, 1, 21),
    )


def scalar_linear(a=0.8, b=0.3):
    return DynamicsSpec(
        state_dim=1, control_dim=1, noise_dim=1,
        drift=lambda t, x, u: a * x + u,
        diffusion=lambda t, x, u: b * x[..., None],
        drift_jac=lambda t, x, u: np.full((x.shape[0], 1, 1), a),
        diffusion_jac=lambda t, x, u: np.full((x.shape[0], 1, 1, 1), b),
    )


# ---------------------------------------------------------------------------
# tangent selections


def test_tangent_same_control_is_zero():
    dyn = double_integrator()
    grid = make_grid(1.0, 10)
    bm = sample_brownian(grid, 1, 30, seed=1)
    law = ControlLaw.constant(0.5, 10)
    states = euler_maruyama(dyn, law, np.zeros(2), bm)
    sel = tangent_from_control(dyn, states, law)
    assert sel.zero
    assert not np.any(sel.g1)
    assert sel.g2 is None


def test_tangent_sop_substitution():
    dyn = double_integrator()
    grid = make_grid(2.0, 8)
    bm = sample_brownian(grid, 1, 25, seed=2)
    u_star = ControlLaw.constant(-1.0, 8)
    states = euler_maruyama(dyn, u_star, np.zeros(2), bm)
    sel = tangent_from_control(dyn, states, ControlLaw.constant(1.0, 8))
    np.testing.assert_allclose(sel.g1[:, :, 0], 0.0)
    np.testing.assert_allclose(sel.g1[:, :, 1], 2.0)
    assert sel.g2 is None


def test_tangent_control_affine_difference():
    dyn = scalar_linear()
    grid = make_grid(1.0, 6)
    bm = sample_brownian(grid, 1, 12, seed=3)
    u_star = ControlLaw.constant(0.25, 6)
    states = euler_maruyama(dyn, u_star, np.ones(1), bm)
    w = ControlLaw(np.linspace(-1, 1, 6)[:, None])
    sel = tangent_from_control(dyn, states, w)
    expected = np.linspace(-1, 1, 6) - 0.25
    np.testing.assert_allclose(sel.g1[:, :, 0] - expected[None, :], 0.0, atol=1e-12)


def test_tangent_warns_on_controlled_diffusion_without_attestation():
    def diffusion(t, x, u):
        return u[:, :, None] * np.ones((x.shape[0], 1, 1))

    base = dict(
        state_dim=1, control_dim=1, noise_dim=1,
        drift=lambda t, x, u: -x,
        drift_jac=lambda t, x, u: np.full((x.shape[0], 1, 1), -1.0),
    )
    grid = make_grid(1.0, 5)
    bm = sample_brownian(grid, 1, 10, seed=4)
    u_star = ControlLaw.constant(0.2, 5)
    w = ControlLaw.constant(0.8, 5)

    dyn = DynamicsSpec(diffusion=diffusion, **base)
    states = euler_maruyama(dyn, u_star, np.ones(1), bm)
    with pytest.warns(UserWarning, match="velocity sets"):
        tangent_from_control(dyn, states, w)

    attested = DynamicsSpec(diffusion=diffusion, convex_velocity_sets=True, **base)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        sel = tangent_from_control(attested, states, w)
    assert len(record) == 0
    np.testing.assert_allclose(sel.g2, 0.6, atol=1e-12)


# ---------------------------------------------------------------------------
# linearization rate


def test_rate_zero_selection_is_zero():
    dyn = double_integrator()
    grid = make_grid(1.0, 50)
    bm = sample_brownian(grid, 1, 200, seed=5)
    law = ControlLaw.constant(0.0, 50)
    states = euler_maruyama(dyn, law, np.zeros(2), bm)
    table = linearization_rate(dyn, states, law, [0.5, 0.25, 0.125])
    np.testing.assert_array_equal(table.rates, 0.0)
    assert table.passed


@pytest.mark.parametrize("n_steps", [100, 400])
def test_rate_linear_dynamics_floor_is_roundoff(n_steps):
    # Euler linearizes linear dynamics exactly, so the gap is pure float
    # accumulation at any grid
    dyn = scalar_linear()
    grid = make_grid(1.0, n_steps)
    bm = sample_brownian(grid, 1, 500, seed=6)
    u_star = ControlLaw.constant(0.1, n_steps)
    states = euler_maruyama(dyn, u_star, np.ones(1), bm)
    w = ControlLaw.constant(0.9, n_steps)
    table = linearization_rate(dyn, states, w, [0.2, 0.05, 0.0125])
    assert np.max(table.rates) <= 1e-9
    assert table.passed


def test_rate_nonlinear_drift_halves():
    dyn = double_integrator(cubic=0.1)
    n_steps = 400
    grid = make_grid(1.0, n_steps)
    bm = sample_brownian(grid, 1, 2000, seed=7)
    u_star = ControlLaw.constant(0.3, n_steps)
    states = euler_maruyama(dyn, u_star, np.zeros(2), bm)
    w = ControlLaw.constant(-0.8, n_steps)
    eps = [0.2, 0.1, 0.05, 0.025]
    table = linearization_rate(dyn, states, w, eps)
    assert table.passed
    assert table.rates[-1] < 0.5 * table.rates[0]
    # smooth drift: the rate is close to linear in eps
    assert table.rates[-1] < 0.25 * table.rates[0]

    rerun = linearization_rate(dyn, states, w, eps)
    assert np.array_equal(table.rates, rerun.rates)


def test_rate_rejects_bad_epsilons():
    dyn = scalar_linear()
    grid = make_grid(1.0, 4)
    bm = sample_brownian(grid, 1, 8, seed=8)
    law = ControlLaw.constant(0.0, 4)
    states = euler_maruyama(dyn, law, np.ones(1), bm)
    for bad in ([], [0.5, 0.5], [0.1, 0.2], [1.5, 0.2], [-0.1]):
        with pytest.raises(ValueError):
            linearization_rate(dyn, states, law, bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rate_names_aborted_reference_paths():
    # dv = (u + 2 y^3) dt blows up from y = 1.5 on most paths; the NaN would
    # otherwise spread through the running sup and turn every rate into NaN
    dyn = double_integrator_dynamics(cubic=-2.0)
    grid = make_grid(1.0, 50)
    bm = sample_brownian(grid, 1, 1000, seed=3)
    law = ControlLaw.constant(0.0, 50)
    with pytest.warns(RuntimeWarning, match="aborted"):
        states = euler_maruyama(dyn, law, np.array([1.5, 0.0]), bm)
    failed = states.failed_paths
    assert failed.size > 0
    refusal = rf"not finite on {failed.size} of 1000 paths \(first at path {failed[0]}\)"
    w = ControlLaw.constant(0.5, 50)
    with pytest.raises(ValueError, match=refusal):
        tangent_from_control(dyn, states, w)
    with pytest.raises(ValueError, match=refusal):
        linearization_rate(dyn, states, w, [0.5, 0.25])


def _rate_per_epsilon(dyn, states, u_star, sel, epsilons, brownian):
    """Oracle: one streaming pass per epsilon, y integrated again each time."""
    eps = np.asarray(epsilons, dtype=float)
    m_paths = states.n_paths
    nodes = states.grid.nodes
    dt = states.grid.dt
    a_fn, d_fn = linearization_along(dyn, states)
    rates = np.empty(eps.size)
    for j, e in enumerate(eps):
        x = states.values[:, 0, :].copy()
        y = np.zeros_like(x)
        worst = np.zeros(m_paths)
        for k in range(states.grid.n_steps):
            u_k = u_star.at(k, m_paths)
            dw = brownian.increments[:, k]
            drift = dyn.drift(nodes[k], x, u_k) + e * sel.g1[:, k]
            noise = dyn.diffusion(nodes[k], x, u_k)
            if sel.g2 is not None:
                noise = noise + e * sel.g2[:, k]
            x = x + drift * dt + np.einsum("pnd,pd->pn", noise, dw)
            dy = np.einsum("...ij,...j->...i", a_fn(k), y) + sel.g1[:, k]
            dn = np.einsum("...dij,...j->...di", d_fn(k), y) if d_fn is not None else 0.0
            if sel.g2 is not None:
                dn = dn + np.swapaxes(sel.g2[:, k], -1, -2)
            y = y + dy * dt
            if d_fn is not None or sel.g2 is not None:
                shape = (m_paths,) + noise.shape[1:][::-1]
                y = y + np.einsum("pdn,pd->pn", np.broadcast_to(dn, shape), dw)
            gap = x - states.values[:, k + 1, :] - e * y
            np.maximum(worst, np.linalg.norm(gap, axis=1), out=worst)
        rates[j] = float(worst.mean()) / e
    return rates


def _rate_from_selection(dyn, states, sel, epsilons):
    """Oracle: the single pass over a materialized TangentSelection, reading
    the whole (M, K, ...) forcing arrays one step at a time."""
    eps = np.asarray(epsilons, dtype=float)
    a_fn, d_fn = linearization_along(dyn, states)
    u_law, brownian = states.control, states.brownian
    n_eps, m_paths, n, d = eps.size, states.n_paths, states.state_dim, brownian.dim
    nodes, dt = states.grid.nodes, states.grid.dt
    e3 = eps[:, None, None]
    x = np.repeat(states.values[None, :, 0, :], n_eps, axis=0)
    y = np.zeros((m_paths, n))
    worst = np.zeros((n_eps, m_paths))
    for k in range(states.grid.n_steps):
        u_k = u_law.at(k, n_eps * m_paths) if u_law.deterministic else np.tile(
            u_law.at(k, m_paths), (n_eps, 1))
        dw = np.ascontiguousarray(brownian.increments[:, k])
        g1 = np.ascontiguousarray(sel.g1[:, k])
        g2 = None if sel.g2 is None else np.ascontiguousarray(sel.g2[:, k])
        flat = x.reshape(n_eps * m_paths, n)
        drift = dyn.drift(nodes[k], flat, u_k).reshape(n_eps, m_paths, n) + e3 * g1
        noise = dyn.diffusion(nodes[k], flat, u_k).reshape(n_eps, m_paths, n, d)
        if g2 is not None:
            noise = noise + e3[..., None] * g2
        x = x + drift * dt + np.einsum("epnd,pd->epn", noise, dw)
        dy = np.einsum("...ij,...j->...i", a_fn(k), y) + g1
        dn = np.einsum("...dij,...j->...di", d_fn(k), y) if d_fn is not None else 0.0
        if g2 is not None:
            dn = dn + np.swapaxes(g2, -1, -2)
        y = y + dy * dt
        if d_fn is not None or g2 is not None:
            y = y + np.einsum("pdn,pd->pn", np.broadcast_to(dn, (m_paths, d, n)), dw)
        gap = x - np.ascontiguousarray(states.values[:, k + 1, :])
        gap -= e3 * y
        np.maximum(worst, sum(gap[..., i] * gap[..., i] for i in range(n)), out=worst)
    return np.sqrt(worst).mean(axis=1) / eps


def _tangent_full_g2(dyn, states, u_star, w):
    """Oracle: the diffusion difference at every step, zeros included."""
    m_paths, nodes = states.n_paths, states.grid.nodes
    g2 = np.empty((m_paths, states.grid.n_steps, dyn.state_dim, dyn.noise_dim))
    for k in range(states.grid.n_steps):
        x_k = states.values[:, k, :]
        g2[:, k] = (dyn.diffusion(nodes[k], x_k, w.at(k, m_paths))
                    - dyn.diffusion(nodes[k], x_k, u_star.at(k, m_paths)))
    return g2


def controlled_diffusion_2d():
    """Two states, two noises, sigma = [[0.2 u v, 0.1], [0, 0.3 y]], cubic drift."""

    def drift(t, x, u):
        y = x[:, 0]
        return np.stack([x[:, 1], u[:, 0] - 0.5 * y * y * y], axis=1)

    def diffusion(t, x, u):
        s = np.zeros((x.shape[0], 2, 2))
        s[:, 0, 0] = 0.2 * u[:, 0] * x[:, 1]
        s[:, 0, 1] = 0.1
        s[:, 1, 1] = 0.3 * x[:, 0]
        return s

    def drift_jac(t, x, u):
        jac = np.zeros((x.shape[0], 2, 2))
        jac[:, 0, 1] = 1.0
        jac[:, 1, 0] = -1.5 * x[:, 0] ** 2
        return jac

    def diffusion_jac(t, x, u):
        jac = np.zeros((x.shape[0], 2, 2, 2))
        jac[:, 0, 0, 1] = 0.2 * u[:, 0]
        jac[:, 1, 1, 0] = 0.3
        return jac

    return DynamicsSpec(
        state_dim=2, control_dim=1, noise_dim=2,
        drift=drift, diffusion=diffusion, drift_jac=drift_jac, diffusion_jac=diffusion_jac,
        convex_velocity_sets=True,
    )


def test_rate_single_pass_matches_per_epsilon_oracle():
    n_steps, m_paths = 60, 400
    grid = make_grid(1.0, n_steps)
    eps = [0.5, 0.2, 0.05, 0.01]
    rng = np.random.default_rng(12)

    # (a) cubic double integrator: the drift Jacobian differs between paths
    dyn = double_integrator_dynamics(cubic=0.5)
    bm = sample_brownian(grid, 1, m_paths, seed=13)
    u_star = ControlLaw.constant(0.5, n_steps)
    states = euler_maruyama(dyn, u_star, np.zeros(2), bm)
    w = ControlLaw.constant(-0.5, n_steps)
    sel = tangent_from_control(dyn, states, w)
    assert sel.g2 is None
    table = linearization_rate(dyn, states, w, eps)
    oracle = _rate_per_epsilon(dyn, states, u_star, sel, eps, bm)
    assert np.max(table.rates) > 1e-6
    np.testing.assert_allclose(table.rates, oracle, rtol=1e-12, atol=0)
    assert np.array_equal(table.rates, _rate_from_selection(dyn, states, sel, eps))

    # (b) controlled diffusion with a declared diffusion_jac: g2 and d_fn both set
    dyn = controlled_diffusion_2d()
    dyn.check_jacobians(0.0, rng.normal(size=(5, 2)), rng.uniform(-1, 1, size=(5, 1)))
    bm = sample_brownian(grid, 2, m_paths, seed=14)
    u_star = ControlLaw(np.linspace(-0.5, 0.5, n_steps)[:, None])
    states = euler_maruyama(dyn, u_star, np.array([0.3, -0.2]), bm)
    w = ControlLaw(np.where(np.arange(n_steps) < n_steps // 3, u_star.values[:, 0], 0.9)[:, None])
    sel = tangent_from_control(dyn, states, w)
    assert sel.g2 is not None
    # zero diffusion difference before w departs from u*, filled in after
    np.testing.assert_array_equal(sel.g2, _tangent_full_g2(dyn, states, u_star, w))
    assert not np.any(sel.g2[:, : n_steps // 3]) and np.any(sel.g2[:, n_steps // 3])
    table = linearization_rate(dyn, states, w, eps)
    oracle = _rate_per_epsilon(dyn, states, u_star, sel, eps, bm)
    assert np.max(table.rates) > 1e-6
    np.testing.assert_allclose(table.rates, oracle, rtol=1e-12, atol=0)
    assert np.array_equal(table.rates, _rate_from_selection(dyn, states, sel, eps))

    # (c) a per-path (M, K, m) control
    dyn = double_integrator_dynamics(cubic=0.5)
    bm = sample_brownian(grid, 1, m_paths, seed=15)
    u_star = ControlLaw(rng.uniform(-1.0, 1.0, size=(m_paths, n_steps, 1)))
    states = euler_maruyama(dyn, u_star, np.array([0.5, 0.0]), bm)
    w = ControlLaw(rng.uniform(-1.0, 1.0, size=(m_paths, n_steps, 1)))
    sel = tangent_from_control(dyn, states, w)
    assert sel.g2 is None
    table = linearization_rate(dyn, states, w, eps)
    oracle = _rate_per_epsilon(dyn, states, u_star, sel, eps, bm)
    assert np.max(table.rates) > 1e-6
    np.testing.assert_allclose(table.rates, oracle, rtol=1e-12, atol=0)
    assert np.array_equal(table.rates, _rate_from_selection(dyn, states, sel, eps))


def test_rate_holds_no_whole_grid_array():
    # the forcing is streamed: the pass never holds an (M, K, n) float array
    m_paths, n_steps = 2000, 200
    dyn = double_integrator_dynamics(cubic=0.5)
    grid = make_grid(2.0, n_steps)
    bm = sample_brownian(grid, 1, m_paths, seed=5)
    states = euler_maruyama(dyn, ControlLaw.constant(0.5, n_steps), np.zeros(2), bm)
    w = ControlLaw.constant(-0.5, n_steps)
    tracemalloc.start()
    try:
        table = linearization_rate(dyn, states, w, [0.5, 0.25, 0.125, 0.0625])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.passed
    assert peak < m_paths * n_steps * dyn.state_dim * 8


def test_rate_warns_once_on_controlled_diffusion_without_attestation():
    dyn = DynamicsSpec(
        state_dim=1, control_dim=1, noise_dim=1,
        drift=lambda t, x, u: -x,
        diffusion=lambda t, x, u: u[:, :, None] * np.ones((x.shape[0], 1, 1)),
        drift_jac=lambda t, x, u: np.full((x.shape[0], 1, 1), -1.0),
    )
    grid = make_grid(1.0, 5)
    bm = sample_brownian(grid, 1, 10, seed=4)
    states = euler_maruyama(dyn, ControlLaw.constant(0.2, 5), np.ones(1), bm)
    w = ControlLaw.constant(0.8, 5)  # the diffusion differs at every step
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        tangent_from_control(dyn, states, w)
        linearization_rate(dyn, states, w, [0.5, 0.25])
    assert len(record) == 2
    assert record[0].category is record[1].category is UserWarning
    assert str(record[0].message) == str(record[1].message)
    assert "velocity sets" in str(record[1].message)
    assert record[1].filename == __file__


# ---------------------------------------------------------------------------
# selection continuity


def test_continuity_equal_selections_zero():
    dyn = double_integrator()
    grid = make_grid(1.0, 20)
    bm = sample_brownian(grid, 1, 50, seed=9)
    law = ControlLaw.constant(0.0, 20)
    states = euler_maruyama(dyn, law, np.zeros(2), bm)
    sel = tangent_from_control(dyn, states, ControlLaw.constant(1.0, 20))
    assert selection_continuity(dyn, states, sel, sel) == 0.0


def test_continuity_scaled_pair_matches_zero_pair():
    dyn = scalar_linear()
    n_steps = 30
    grid = make_grid(1.0, n_steps)
    bm = sample_brownian(grid, 1, 300, seed=10)
    u_star = ControlLaw.constant(0.0, n_steps)
    states = euler_maruyama(dyn, u_star, np.ones(1), bm)
    sel = tangent_from_control(dyn, states, ControlLaw.constant(0.7, n_steps))
    doubled = TangentSelection(g1=2 * sel.g1, g2=None)
    zero = tangent_from_control(dyn, states, u_star)
    r_scaled = selection_continuity(dyn, states, sel, doubled)
    r_zero = selection_continuity(dyn, states, sel, zero)
    assert r_scaled == pytest.approx(r_zero, rel=1e-12)


def _staircase_law(rng, grid, n_pieces=20):
    levels = rng.uniform(-1.0, 1.0, size=n_pieces)

    def fn(t):
        idx = min(int(t / grid.horizon * n_pieces), n_pieces - 1)
        return np.array([levels[idx]])

    return ControlLaw.from_function(fn, grid)


def test_continuity_ratio_stable_under_refinement():
    dyn = double_integrator()
    maxima = {}
    for n_steps in (40, 80):
        grid = make_grid(1.0, n_steps)
        bm = sample_brownian(grid, 1, 400, seed=11)
        u_star = ControlLaw.constant(0.0, n_steps)
        states = euler_maruyama(dyn, u_star, np.zeros(2), bm)
        rng = np.random.default_rng(123)
        ratios = []
        for _ in range(100):
            sel_a = tangent_from_control(dyn, states, _staircase_law(rng, grid))
            sel_b = tangent_from_control(dyn, states, _staircase_law(rng, grid))
            ratios.append(selection_continuity(dyn, states, sel_a, sel_b))
        maxima[n_steps] = max(ratios)
        assert np.isfinite(maxima[n_steps])
    assert abs(maxima[40] - maxima[80]) <= 0.1 * max(maxima.values())


# ---------------------------------------------------------------------------
# the Ito gap


def butterfly_grid_oracle(n=801):
    """Dense sampling of both triangle pieces; naive distance minimization."""
    target = np.array([0.5, 1.0])
    best = np.inf
    for x in np.linspace(0.0, 0.5, n):
        for y in np.linspace(0.0, 1.0 - 2 * x, max(int((1 - 2 * x) * n), 2)):
            best = min(best, (x - target[0]) ** 2 + (y - target[1]) ** 2)
    for x in np.linspace(0.5, 1.0, n):
        for y in np.linspace(0.0, 2 * x - 1.0, max(int((2 * x - 1) * n), 2)):
            best = min(best, (x - target[0]) ** 2 + (y - target[1]) ** 2)
    return best


def test_ito_counterexample_values():
    report = ito_counterexample()
    assert isinstance(report, ItoGapReport)
    assert report.pointwise_min_sq_dist == pytest.approx(0.2, abs=1e-12)
    assert report.ito_lower_bound == pytest.approx(0.2, abs=1e-12)
    assert report.lebesgue_gap == 0.0
    # both feet of the perpendicular are nearest points
    feet = sorted(report.nearest_points)
    assert feet[0] == pytest.approx((0.1, 0.8), abs=1e-9)
    assert feet[1] == pytest.approx((0.9, 0.8), abs=1e-9)


def test_ito_counterexample_against_grid_oracle():
    oracle = butterfly_grid_oracle(n=301)
    report = ito_counterexample()
    assert report.pointwise_min_sq_dist <= oracle + 1e-9
    assert abs(report.pointwise_min_sq_dist - oracle) <= 5e-3
