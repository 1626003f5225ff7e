import dataclasses
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import riskpmp
from oracles import selection_continuity
from riskpmp import forked, sde
from riskpmp.adjoint import linearization_along
from riskpmp.sde import (
    BrownianEnsemble,
    BrownianSource,
    ControlLaw,
    DynamicsSpec,
    FeedbackLaw,
    double_integrator_dynamics,
    euler_maruyama,
    make_grid,
    sample_brownian,
    scalar_linear_dynamics,
    solve_linearized,
)
from riskpmp.variational import (
    ItoGapReport,
    ito_counterexample,
    linearization_rate,
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


def _materialize(g, n_steps):
    """The forcing accessor's pairs stacked over the steps: g1 (M, K, n) and
    g2 (M, K, n, d), or None when every step's g2 is."""
    pairs = [g(k) for k in range(n_steps)]
    g1 = np.stack([p[0] for p in pairs], axis=1)
    if all(p[1] is None for p in pairs):
        return g1, None
    g2 = next(p[1] for p in pairs if p[1] is not None)
    return g1, np.stack([np.zeros_like(g2) if p[1] is None else p[1] for p in pairs], axis=1)


def test_tangent_same_control_is_zero():
    dyn = double_integrator()
    grid = make_grid(1.0, 10)
    bm = sample_brownian(grid, 1, 30, seed=1)
    law = ControlLaw.constant(0.5, 10)
    states = euler_maruyama(dyn, law, np.zeros(2), bm)
    g1, g2 = _materialize(tangent_from_control(dyn, states, law), 10)
    assert not np.any(g1)
    assert g2 is None


def test_tangent_sop_substitution():
    dyn = double_integrator()
    grid = make_grid(2.0, 8)
    bm = sample_brownian(grid, 1, 25, seed=2)
    u_star = ControlLaw.constant(-1.0, 8)
    states = euler_maruyama(dyn, u_star, np.zeros(2), bm)
    g1, g2 = _materialize(tangent_from_control(dyn, states, ControlLaw.constant(1.0, 8)), 8)
    np.testing.assert_allclose(g1[:, :, 0], 0.0)
    np.testing.assert_allclose(g1[:, :, 1], 2.0)
    assert g2 is None


def test_tangent_control_affine_difference():
    dyn = scalar_linear()
    grid = make_grid(1.0, 6)
    bm = sample_brownian(grid, 1, 12, seed=3)
    u_star = ControlLaw.constant(0.25, 6)
    states = euler_maruyama(dyn, u_star, np.ones(1), bm)
    w = ControlLaw(np.linspace(-1, 1, 6)[:, None])
    g1, _ = _materialize(tangent_from_control(dyn, states, w), 6)
    expected = np.linspace(-1, 1, 6) - 0.25
    np.testing.assert_allclose(g1[:, :, 0] - expected[None, :], 0.0, atol=1e-12)


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
        _materialize(tangent_from_control(dyn, states, w), 5)

    attested = DynamicsSpec(diffusion=diffusion, convex_velocity_sets=True, **base)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        _, g2 = _materialize(tangent_from_control(attested, states, w), 5)
    assert len(record) == 0
    np.testing.assert_allclose(g2, 0.6, atol=1e-12)


# ---------------------------------------------------------------------------
# linearization rate


def test_rate_zero_selection_is_zero():
    dyn = double_integrator()
    grid = make_grid(1.0, 50)
    bm = sample_brownian(grid, 1, 200, seed=5)
    law = ControlLaw.constant(0.0, 50)
    table = linearization_rate(dyn, law, np.zeros(2), bm, law, [0.5, 0.25, 0.125])
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
    w = ControlLaw.constant(0.9, n_steps)
    table = linearization_rate(dyn, u_star, np.ones(1), bm, w, [0.2, 0.05, 0.0125])
    assert np.max(table.rates) <= 1e-9
    assert table.passed


def test_rate_nonlinear_drift_halves():
    dyn = double_integrator(cubic=0.1)
    n_steps = 400
    grid = make_grid(1.0, n_steps)
    bm = sample_brownian(grid, 1, 2000, seed=7)
    u_star = ControlLaw.constant(0.3, n_steps)
    w = ControlLaw.constant(-0.8, n_steps)
    eps = [0.2, 0.1, 0.05, 0.025]
    table = linearization_rate(dyn, u_star, np.zeros(2), bm, w, eps)
    assert table.passed
    assert table.rates[-1] < 0.5 * table.rates[0]
    # smooth drift: the rate is close to linear in eps
    assert table.rates[-1] < 0.25 * table.rates[0]

    rerun = linearization_rate(dyn, u_star, np.zeros(2), bm, w, eps)
    assert np.array_equal(table.rates, rerun.rates)


def test_rate_rejects_bad_epsilons():
    dyn = scalar_linear()
    grid = make_grid(1.0, 4)
    bm = sample_brownian(grid, 1, 8, seed=8)
    law = ControlLaw.constant(0.0, 4)
    for bad in ([], [0.5, 0.5], [0.1, 0.2], [1.5, 0.2], [-0.1]):
        with pytest.raises(ValueError):
            linearization_rate(dyn, law, np.ones(1), bm, law, bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rate_names_aborted_reference_paths():
    # dv = (u + 2 y^3) dt blows up from y = 1.5 on most paths; the NaN would
    # otherwise spread through the running sup and turn every rate into NaN
    dyn = double_integrator_dynamics(cubic=-2.0)
    grid = make_grid(1.0, 50)
    bm = sample_brownian(grid, 1, 1000, seed=3)
    law = ControlLaw.constant(0.0, 50)
    x0 = np.array([1.5, 0.0])
    with pytest.warns(RuntimeWarning, match="aborted") as integrated:
        states = euler_maruyama(dyn, law, x0, bm)
    failed = states.failed_paths
    assert failed.size > 0
    refusal = rf"not finite on {failed.size} of 1000 paths \(first at path {failed[0]}\)"
    w = ControlLaw.constant(0.5, 50)
    with pytest.raises(ValueError, match=refusal):
        tangent_from_control(dyn, states, w)
    # the rate integrates its own reference: one call warns as the integrator
    # does, then refuses
    with pytest.warns(RuntimeWarning) as streamed:
        with pytest.raises(ValueError, match=refusal):
            linearization_rate(dyn, law, x0, bm, w, [0.5, 0.25])
    assert [str(r.message) for r in streamed] == [str(r.message) for r in integrated]
    assert streamed[0].filename == __file__


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rate_names_an_abort_in_a_later_block_as_the_whole_ensemble_does():
    # only paths 150 on start at the blow-up, so the first abort falls in the
    # third block of 64; the warning and refusal name steps and global paths
    dyn = double_integrator_dynamics(cubic=-2.0)
    grid = make_grid(1.0, 50)
    x0 = np.zeros((200, 2))
    x0[150:, 0] = 1.5
    law, w = ControlLaw.constant(0.0, 50), ControlLaw.constant(0.5, 50)
    texts = []
    source = BrownianSource(grid, 1, 200, 3, block=64)
    for brownian in (sample_brownian(grid, 1, 200, seed=3), source):
        with pytest.warns(RuntimeWarning, match="aborted") as record:
            with pytest.raises(ValueError, match=r"of 200 paths \(first at path 1[5-9]\d\)") as refusal:
                linearization_rate(dyn, law, x0, brownian, w, [0.5, 0.25])
        assert len(record) == 1 and record[0].filename == __file__
        texts.append((str(record[0].message), str(refusal.value)))
    assert texts[0] == texts[1]


def test_rate_names_perturbed_paths_that_blow_up():
    # the reference stays finite from y = 0.75, but the pull toward w = 1 at
    # eps = 1 and 0.5 drives perturbed paths past the blow-up
    dyn = double_integrator_dynamics(cubic=-2.0)
    bm = sample_brownian(make_grid(1.0, 50), 1, 200, seed=3)
    u_star, w = ControlLaw.constant(-1.0, 50), ControlLaw.constant(1.0, 50)
    with pytest.warns(RuntimeWarning, match=r"perturbed state is not finite on \d+ of 200 "
                                            r"paths \(first at path \d+\)") as record:
        table = linearization_rate(dyn, u_star, np.array([0.75, 0.0]), bm, w, [1.0, 0.5])
    assert len(record) == 1 and record[0].filename == __file__
    assert not np.isfinite(table.rates).any()
    assert not table.passed


def _rate_per_epsilon(dyn, states, u_star, sel, epsilons, brownian):
    """Oracle: one streaming pass per epsilon, y integrated again each time."""
    g1, g2 = sel
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
            drift = dyn.drift(nodes[k], x, u_k) + e * g1[:, k]
            noise = dyn.diffusion(nodes[k], x, u_k)
            if g2 is not None:
                noise = noise + e * g2[:, k]
            x = x + drift * dt + np.einsum("pnd,pd->pn", noise, dw)
            dy = np.einsum("...ij,...j->...i", a_fn(k), y) + g1[:, k]
            dn = np.einsum("...dij,...j->...di", d_fn(k), y) if d_fn is not None else 0.0
            if g2 is not None:
                dn = dn + np.swapaxes(g2[:, k], -1, -2)
            y = y + dy * dt
            if d_fn is not None or g2 is not None:
                shape = (m_paths,) + noise.shape[1:][::-1]
                y = y + np.einsum("pdn,pd->pn", np.broadcast_to(dn, shape), dw)
            gap = x - states.values[:, k + 1, :] - e * y
            np.maximum(worst, np.linalg.norm(gap, axis=1), out=worst)
        rates[j] = float(worst.mean()) / e
    return rates


def _rate_from_selection(dyn, states, sel, epsilons):
    """Oracle: the single pass over the accessor's forcing materialized as
    whole (M, K, ...) arrays, read one step at a time."""
    sel_g1, sel_g2 = sel
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
        g1 = np.ascontiguousarray(sel_g1[:, k])
        g2 = None if sel_g2 is None else np.ascontiguousarray(sel_g2[:, k])
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


ORACLE_STEPS, ORACLE_PATHS = 60, 400


def _oracle_cases(m_paths=ORACLE_PATHS):
    """(name, dyn, u_star, x0, seed, w) for the cubic double integrator, a
    controlled diffusion whose g2 and D are both set, and a per-path control
    on m_paths paths."""
    n_steps = ORACLE_STEPS
    rng = np.random.default_rng(12)
    cubic = double_integrator_dynamics(cubic=0.5)
    yield ("cubic", cubic, ControlLaw.constant(0.5, n_steps), np.zeros(2), 13,
           ControlLaw.constant(-0.5, n_steps))
    dyn = controlled_diffusion_2d()
    dyn.check_jacobians(0.0, rng.normal(size=(5, 2)), rng.uniform(-1, 1, size=(5, 1)))
    u_star = ControlLaw(np.linspace(-0.5, 0.5, n_steps)[:, None])
    # w departs from u* a third of the way in, so g2 is zero before and set after
    w = ControlLaw(np.where(np.arange(n_steps) < n_steps // 3, u_star.values[:, 0], 0.9)[:, None])
    yield "controlled diffusion", dyn, u_star, np.array([0.3, -0.2]), 14, w
    yield ("per-path control", cubic, ControlLaw(rng.uniform(-1.0, 1.0, size=(m_paths, n_steps, 1))),
           np.array([0.5, 0.0]), 15, ControlLaw(rng.uniform(-1.0, 1.0, size=(m_paths, n_steps, 1))))


def test_rate_single_pass_matches_per_epsilon_oracle():
    grid = make_grid(1.0, ORACLE_STEPS)
    eps = [0.5, 0.2, 0.05, 0.01]
    for name, dyn, u_star, x0, seed, w in _oracle_cases():
        bm = sample_brownian(grid, dyn.noise_dim, ORACLE_PATHS, seed=seed)
        states = euler_maruyama(dyn, u_star, x0, bm)
        sel = _materialize(tangent_from_control(dyn, states, w), ORACLE_STEPS)
        assert (sel[1] is not None) == (name == "controlled diffusion")
        if sel[1] is not None:
            np.testing.assert_array_equal(sel[1], _tangent_full_g2(dyn, states, u_star, w))
            third = ORACLE_STEPS // 3
            assert not np.any(sel[1][:, :third]) and np.any(sel[1][:, third])
        table = linearization_rate(dyn, u_star, x0, bm, w, eps)
        oracle = _rate_per_epsilon(dyn, states, u_star, sel, eps, bm)
        assert np.max(table.rates) > 1e-6
        np.testing.assert_allclose(table.rates, oracle, rtol=1e-12, atol=0)
        assert np.array_equal(table.rates, _rate_from_selection(dyn, states, sel, eps))


def test_rate_over_path_blocks_equals_whole_ensemble(monkeypatch):
    # any path slice regenerates bit for bit and every step acts row by row,
    # so the blocks change no rate; a per-path x0 is sliced like the controls
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    m_paths, grid = 100, make_grid(1.0, ORACLE_STEPS)
    eps = [0.5, 0.2, 0.05, 0.01]
    spread = np.random.default_rng(3).normal(scale=0.1, size=(m_paths, 2))
    for name, dyn, u_star, x0, seed, w in _oracle_cases(m_paths):
        if name == "per-path control":
            x0 = x0 + spread
        bm = sample_brownian(grid, dyn.noise_dim, m_paths, seed=seed)
        whole = linearization_rate(dyn, u_star, x0, bm, w, eps).rates
        assert np.max(whole) > 1e-6
        for size in (1, 7, m_paths - 1):
            source = BrownianSource(grid, dyn.noise_dim, m_paths, seed, block=size)
            assert np.array_equal(linearization_rate(dyn, u_star, x0, source, w, eps).rates,
                                  whole), (name, size)
        # a source drawn by forked workers over their spans, and the
        # ensemble itself cut into spans: spans of 34, 34 and a ragged 32
        source = BrownianSource(grid, dyn.noise_dim, m_paths, seed, block=7)
        for workers in (1, 2, 3):
            for brownian in (source, bm):
                assert np.array_equal(linearization_rate(dyn, u_star, x0, brownian, w, eps,
                                                         workers).rates, whole), (name, workers)


def test_rate_holds_no_whole_grid_array():
    # the reference and the forcing are streamed: from integrating x* to the
    # rates, the pass never holds an (M, K, n) float array
    m_paths, n_steps = 2000, 200
    dyn = double_integrator_dynamics(cubic=0.5)
    grid = make_grid(2.0, n_steps)
    bm = sample_brownian(grid, 1, m_paths, seed=5)
    u_star, w = ControlLaw.constant(0.5, n_steps), ControlLaw.constant(-0.5, n_steps)
    tracemalloc.start()
    try:
        table = linearization_rate(dyn, u_star, np.zeros(2), bm, w, [0.5, 0.25, 0.125, 0.0625])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.passed
    assert peak < m_paths * n_steps * dyn.state_dim * 8


def test_rate_over_sampled_blocks_holds_less_than_one_ensemble():
    # blocks drawn on demand: sampling included, the pass never holds the
    # (M, K, d) increments of the whole ensemble
    m_paths, n_steps = 2000, 200
    dyn = double_integrator_dynamics(cubic=0.5)
    grid = make_grid(2.0, n_steps)
    u_star, w = ControlLaw.constant(0.5, n_steps), ControlLaw.constant(-0.5, n_steps)
    eps = [0.5, 0.25, 0.125, 0.0625]
    tracemalloc.start()
    try:
        table = linearization_rate(dyn, u_star, np.zeros(2),
                                   BrownianSource(grid, 1, m_paths, 5, block=250), w, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m_paths * n_steps * dyn.noise_dim * 8
    whole = linearization_rate(dyn, u_star, np.zeros(2), sample_brownian(grid, 1, m_paths, 5),
                               w, eps)
    assert np.array_equal(table.rates, whole.rates)


def test_rate_refuses_controls_that_move_nothing_or_do_not_fit():
    grid = make_grid(1.0, 8)
    bm = sample_brownian(grid, 1, 8, seed=2)
    # the control-free scalar linear problem: u and w move nothing, rates read 0
    free = scalar_linear_dynamics(0.8, 0.3)
    law = ControlLaw(np.zeros((8, 0)))
    with pytest.raises(ValueError, match=r"take no control \(control_dim 0\)"):
        linearization_rate(free, law, np.ones(1), bm, law, [0.5])
    dyn = double_integrator_dynamics(cubic=0.5)
    one, two = ControlLaw.constant(0.5, 8), ControlLaw.constant([0.5, 0.5], 8)
    with pytest.raises(ValueError, match="u_star has width 2; the dynamics take control_dim 1"):
        linearization_rate(dyn, two, np.zeros(2), bm, one, [0.5])
    with pytest.raises(ValueError, match="w has width 2; the dynamics take control_dim 1"):
        linearization_rate(dyn, one, np.zeros(2), bm, two, [0.5])
    with pytest.raises(ValueError, match="w has 4 steps; the grid has 8"):
        linearization_rate(dyn, one, np.zeros(2), bm, ControlLaw.constant(0.5, 4), [0.5])
    with pytest.raises(ValueError, match="Brownian dim 1 does not match dynamics noise_dim 2"):
        linearization_rate(controlled_diffusion_2d(), one, np.zeros(2), bm, one, [0.5])


def test_rate_refuses_per_path_inputs_that_do_not_fit_the_paths():
    grid = make_grid(1.0, 8)
    bm, source = sample_brownian(grid, 1, 8, seed=2), BrownianSource(grid, 1, 8, 2, block=3)
    empty = BrownianEnsemble(grid, np.zeros((0, 8, 1)))
    dyn = double_integrator_dynamics(cubic=0.5)
    law = ControlLaw.constant(0.5, 8)
    paths = lambda m: ControlLaw(np.full((m, 8, 1), 0.5))
    cases = [
        (bm, np.zeros(3), law, law,
         r"x0 has shape \(3,\); the dynamics need \(2,\) or \(paths, 2\)"),
        (bm, np.zeros((8, 3)), law, law, r"x0 has shape \(8, 3\); the dynamics need"),
        (bm, np.zeros((5, 2)), law, law,
         r"x0 has shape \(5, 2\); the Brownian paths need \(8, 2\)"),
        (bm, np.zeros((1, 2)), law, law,
         r"x0 has shape \(1, 2\); the Brownian paths need \(8, 2\)"),
        (bm, np.zeros(2), paths(5), law,
         r"u_star has shape \(5, 8, 1\); the Brownian paths need \(8, 8, 1\)"),
        (bm, np.zeros(2), law, paths(9),
         r"w has shape \(9, 8, 1\); the Brownian paths need \(8, 8, 1\)"),
        (source, np.zeros(2), law, paths(9),
         r"w has shape \(9, 8, 1\); the Brownian paths need \(8, 8, 1\)"),
        (empty, np.zeros(2), law, law, "the Brownian ensemble holds no paths"),
    ]
    for brownian, x0, u_star, w, message in cases:
        for workers in (1, 2):
            with pytest.raises(ValueError, match=message):
                linearization_rate(dyn, u_star, x0, brownian, w, [0.5], workers)


def test_rate_refuses_brownian_paths_given_as_blocks_by_type():
    # an ensemble or a source states its grid and path count; a list or a
    # generator of blocks is refused by type before anything is run
    grid = make_grid(1.0, 8)
    bm, dyn = sample_brownian(grid, 1, 8, seed=2), double_integrator_dynamics(cubic=0.5)
    law = ControlLaw.constant(0.5, 8)
    for blocks, kind in (([bm], "list"), ((b for b in [bm]), "generator")):
        with pytest.raises(TypeError, match="brownian must be a BrownianEnsemble or a "
                                            f"BrownianSource, got {kind}$"):
            linearization_rate(dyn, law, np.zeros(2), blocks, law, [0.5])


def test_rate_spans_are_capped_at_the_usable_cpus(monkeypatch):
    # more workers than usable CPUs fork one span per CPU at most: 100 paths
    # on 3 CPUs are spans of 34, 34 and a ragged 32, not 99 one-path children
    started = []

    def serial(calls):  # records the spans handed to children and runs them here
        calls = list(calls)
        started.append([name for name, _, _ in calls])
        for _, fn, args in calls:
            fn(*args)
        return lambda: None

    monkeypatch.setattr(forked, "start", serial)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    grid, dyn = make_grid(1.0, 8), double_integrator_dynamics(cubic=0.5)
    bm = sample_brownian(grid, 1, 100, seed=2)
    u_star, w = ControlLaw.constant(0.5, 8), ControlLaw.constant(-0.5, 8)
    table = linearization_rate(dyn, u_star, np.zeros(2), bm, w, [0.5], workers=1000)
    assert started == [["paths 34..67", "paths 68..99"]]
    assert np.array_equal(table.rates,
                          linearization_rate(dyn, u_star, np.zeros(2), bm, w, [0.5]).rates)


def test_rate_over_a_source_refuses_before_any_draw(monkeypatch):
    # a source states its grid and path count, so the controls and x0 are
    # checked before a normal is drawn
    draws = []

    def counting(*args, sample_brownian=sde.sample_brownian, **kwargs):
        draws.append(args)
        return sample_brownian(*args, **kwargs)

    monkeypatch.setattr(sde, "sample_brownian", counting)
    grid, dyn = make_grid(1.0, 8), double_integrator_dynamics(cubic=0.5)
    assert riskpmp.BrownianSource is BrownianSource  # exported with the ensemble
    source = BrownianSource(grid, 1, 8, 2, block=5)
    one, two = ControlLaw.constant(0.5, 8), ControlLaw.constant([0.5, 0.5], 8)
    cases = [
        (two, one, np.zeros(2), "u_star has width 2; the dynamics take control_dim 1"),
        (one, ControlLaw.constant(0.5, 4), np.zeros(2), "w has 4 steps; the grid has 8"),
        (one, ControlLaw(np.full((9, 8, 1), 0.5)), np.zeros(2),
         r"w has shape \(9, 8, 1\); the Brownian paths need \(8, 8, 1\)"),
        (one, one, np.zeros((5, 2)), r"x0 has shape \(5, 2\); the Brownian paths need \(8, 2\)"),
    ]
    for u_star, w, x0, message in cases:
        for workers in (1, 2):
            with pytest.raises(ValueError, match=message):
                linearization_rate(dyn, u_star, x0, source, w, [0.5], workers)
    assert draws == []
    table = linearization_rate(dyn, one, np.zeros(2), source, one, [0.5])
    assert [a[2] for a in draws] == [4, 4]  # the fewest blocks of at most 5, near-equal
    assert np.array_equal(table.rates, linearization_rate(
        dyn, one, np.zeros(2), sample_brownian(grid, 1, 8, 2), one, [0.5]).rates)


@pytest.mark.parametrize("kind, bad, message", [
    ("control", ControlLaw.constant([0.5, 0.5], 8), "has width 2; the dynamics take control_dim 1"),
    ("control", ControlLaw.constant(0.5, 4), "has 4 steps; the grid has 8"),
    ("control", ControlLaw(np.full((5, 8, 1), 0.5)),
     r"has shape \(5, 8, 1\); the Brownian paths need \(8, 8, 1\)"),
    ("feedback", FeedbackLaw(lambda k, x, w: 0.5, dim=2),
     "has width 2; the dynamics take control_dim 1"),
    ("x0", np.float64(0.0), r"x0 has shape \(\); the dynamics need \(2,\) or \(paths, 2\)"),
    ("x0", np.zeros((1, 2)), r"x0 has shape \(1, 2\); the Brownian paths need \(8, 2\)"),
    ("x0", np.zeros((8, 1)), r"x0 has shape \(8, 1\); the dynamics need \(2,\) or \(paths, 2\)"),
    ("x0", np.zeros(3), r"x0 has shape \(3,\); the dynamics need \(2,\) or \(paths, 2\)"),
])
def test_forward_integrators_refuse_one_bad_input_alike(kind, bad, message):
    # euler_maruyama, the control-difference forcing and the rate pass take
    # their controls, x0 and per-path counts under the one set of rules in sde
    dyn = double_integrator_dynamics(cubic=0.5)
    bm = sample_brownian(make_grid(1.0, 8), 1, 8, seed=2)
    law, x0 = ControlLaw.constant(0.5, 8), np.zeros(2)
    states = euler_maruyama(dyn, law, x0, bm)
    calls = {
        "control": [lambda: euler_maruyama(dyn, bad, x0, bm),
                    lambda: tangent_from_control(dyn, states, bad),
                    lambda: linearization_rate(dyn, law, x0, bm, bad, [0.5])],
        "feedback": [lambda: euler_maruyama(dyn, bad, x0, bm)],
        "x0": [lambda: euler_maruyama(dyn, law, bad, bm),
               lambda: linearization_rate(dyn, law, bad, bm, law, [0.5])],
    }[kind]
    refusals = set()
    for call in calls:
        with pytest.raises(ValueError, match=message) as refused:
            call()
        refusals.add(str(refused.value).split(" ", 1)[1])  # past the argument's name
    assert len(refusals) == 1


@pytest.mark.parametrize("name, wrong, message", [
    ("drift", lambda t, x, u: np.zeros((x.shape[0], 3)),
     r"drift returned shape \(\d+, 3\), expected \(\d+, 2\)"),
    ("diffusion", lambda t, x, u: np.zeros((x.shape[0], 2, 2)),
     r"diffusion returned shape \(\d+, 2, 2\), expected \(\d+, 2, 1\)"),
])
def test_forward_integrators_name_a_coefficient_of_the_wrong_shape(name, wrong, message):
    # the rate pass used to fail in NumPy ("cannot reshape array of size 30")
    good = double_integrator_dynamics(cubic=0.5)
    bad = dataclasses.replace(good, **{name: wrong})
    bm = sample_brownian(make_grid(1.0, 5), 1, 5, seed=1)
    law = ControlLaw.constant(0.5, 5)
    states = euler_maruyama(good, law, np.zeros(2), bm)
    for call in (lambda: euler_maruyama(bad, law, np.zeros(2), bm),
                 lambda: tangent_from_control(bad, states, law)(0),
                 lambda: linearization_rate(bad, law, np.zeros(2), bm, law, [0.5])):
        with pytest.raises(ValueError, match=message):
            call()


def test_rate_warns_once_on_controlled_diffusion_without_attestation():
    dyn = DynamicsSpec(
        state_dim=1, control_dim=1, noise_dim=1,
        drift=lambda t, x, u: -x,
        diffusion=lambda t, x, u: u[:, :, None] * np.ones((x.shape[0], 1, 1)),
        drift_jac=lambda t, x, u: np.full((x.shape[0], 1, 1), -1.0),
    )
    grid = make_grid(1.0, 5)
    bm = sample_brownian(grid, 1, 10, seed=4)
    u_star = ControlLaw.constant(0.2, 5)
    states = euler_maruyama(dyn, u_star, np.ones(1), bm)
    w = ControlLaw.constant(0.8, 5)  # the diffusion differs at every step
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        g = tangent_from_control(dyn, states, w)
        assert len(record) == 0  # the accessor warns when it is stepped through
        solve_linearized(*linearization_along(dyn, states), g, bm)
        linearization_rate(dyn, u_star, np.ones(1), bm, w, [0.5, 0.25])
        line = sys._getframe().f_lineno + 1
        linearization_rate(dyn, u_star, np.ones(1), BrownianSource(grid, 1, 10, 4, block=3), w,
                           [0.5, 0.25])
        linearization_rate(dyn, u_star, np.ones(1), BrownianSource(grid, 1, 10, 4, block=3), w,
                           [0.5, 0.25], workers=2)
    # once per call, over one ensemble, four blocks or two forked spans
    assert len(record) == 4
    assert all(r.category is UserWarning for r in record)
    assert len({str(r.message) for r in record}) == 1
    assert "velocity sets" in str(record[1].message)
    assert all(r.filename == __file__ for r in record)
    assert record[2].lineno == line


# ---------------------------------------------------------------------------
# selection continuity


def test_continuity_equal_selections_zero():
    dyn = double_integrator()
    grid = make_grid(1.0, 20)
    bm = sample_brownian(grid, 1, 50, seed=9)
    law = ControlLaw.constant(0.0, 20)
    states = euler_maruyama(dyn, law, np.zeros(2), bm)
    g = tangent_from_control(dyn, states, ControlLaw.constant(1.0, 20))
    assert selection_continuity(dyn, states, g, g) == 0.0


def test_continuity_scaled_pair_matches_zero_pair():
    dyn = scalar_linear()
    n_steps = 30
    grid = make_grid(1.0, n_steps)
    bm = sample_brownian(grid, 1, 300, seed=10)
    u_star = ControlLaw.constant(0.0, n_steps)
    states = euler_maruyama(dyn, u_star, np.ones(1), bm)
    g = tangent_from_control(dyn, states, ControlLaw.constant(0.7, n_steps))

    def doubled(k):
        return 2 * g(k)[0], None

    zero = tangent_from_control(dyn, states, u_star)
    r_scaled = selection_continuity(dyn, states, g, doubled)
    r_zero = selection_continuity(dyn, states, g, zero)
    assert r_scaled == pytest.approx(r_zero, rel=1e-12)


def _staircase_law(rng, grid, n_pieces=20):
    levels = rng.uniform(-1.0, 1.0, size=n_pieces)
    idx = np.minimum((grid.nodes[:-1] / grid.horizon * n_pieces).astype(int), n_pieces - 1)
    return ControlLaw(levels[idx][:, None])


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
            g_a = tangent_from_control(dyn, states, _staircase_law(rng, grid))
            g_b = tangent_from_control(dyn, states, _staircase_law(rng, grid))
            ratios.append(selection_continuity(dyn, states, g_a, g_b))
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
