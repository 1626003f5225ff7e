import tracemalloc

import numpy as np
import pytest

from oracles import backward_adjoint, conditional_expectation, tower_check
from riskpmp.adjoint import (
    RIDGE,
    NodeFit,
    RegressionBasis,
    assemble_terminal,
    linearization_along,
    martingale_check,
    solve_adjoint,
)
from riskpmp.risk import SampledRandomVariable
from riskpmp.sde import (
    ControlLaw,
    DynamicsSpec,
    double_integrator_dynamics,
    euler_maruyama,
    fundamental_matrices,
    make_grid,
    sample_brownian,
)

# ---------------------------------------------------------------------------
# shared fixtures


def brownian_states(n_paths=4000, n_steps=8, seed=77):
    """x(t) = W(t) exactly: additive unit noise, zero drift.  The state and
    Brownian features are collinear, which exercises the rank-deficient
    regression path on purpose."""
    grid = make_grid(1.0, n_steps)
    dyn = DynamicsSpec(
        state_dim=1, control_dim=1, noise_dim=1,
        drift=lambda t, x, u: np.zeros_like(x),
        diffusion=lambda t, x, u: np.ones(x.shape + (1,)),
    )
    bm = sample_brownian(grid, 1, n_paths, seed)
    states = euler_maruyama(dyn, ControlLaw.constant(0.0, n_steps), np.zeros(1), bm)
    return states, bm


def scalar_linear_setup(a, b, n_steps, n_paths, seed, x0=1.0):
    grid = make_grid(1.0, n_steps)
    dyn = DynamicsSpec(
        state_dim=1, control_dim=1, noise_dim=1,
        drift=lambda t, x, u: a * x,
        diffusion=lambda t, x, u: b * x[..., None],
        drift_jac=lambda t, x, u: np.full((x.shape[0], 1, 1), a),
        diffusion_jac=lambda t, x, u: np.full((x.shape[0], 1, 1, 1), b),
    )
    bm = sample_brownian(grid, 1, n_paths, seed)
    states = euler_maruyama(dyn, ControlLaw.constant(0.0, n_steps), np.array([x0]), bm)
    a_fn, d_fn = linearization_along(dyn, states)
    fund = fundamental_matrices(a_fn, d_fn, bm)
    return dyn, states, bm, fund


# ---------------------------------------------------------------------------
# conditional expectation oracles


def test_constant_regressand_reproduced_exactly():
    states, bm = brownian_states(n_paths=500)
    g = np.full(500, 2.75)
    for k in (0, 3, 7):
        fit = conditional_expectation(g, states, k)
        np.testing.assert_allclose(fit, 2.75, atol=1e-8)


def test_brownian_terminal_projects_to_current_level():
    states, bm = brownian_states()
    w = bm.levels()[:, :, 0]
    g = w[:, -1]
    m, b_feat = 4000, 6
    for k in (2, 4, 6):
        fit = conditional_expectation(g, states, k)
        gap_rms = np.sqrt(np.mean((fit - w[:, k]) ** 2))
        noise = np.sqrt((1.0 - states.grid.nodes[k]) * b_feat / m)
        assert gap_rms <= 5 * noise


def test_squared_brownian_terminal_has_time_correction():
    states, bm = brownian_states()
    w = bm.levels()[:, :, 0]
    g = w[:, -1] ** 2
    m, b_feat = 4000, 6
    for k in (2, 5):
        t_k = states.grid.nodes[k]
        fit = conditional_expectation(g, states, k)
        oracle = w[:, k] ** 2 + (1.0 - t_k)
        gap_rms = np.sqrt(np.mean((fit - oracle) ** 2))
        resid = np.sqrt(np.mean((g - oracle) ** 2))
        assert gap_rms <= 5 * resid * np.sqrt(b_feat / m)


def test_node_fit_full_rank_matches_normal_equations_and_lstsq():
    rng = np.random.default_rng(5)
    m = 3000
    x = rng.normal(size=(m, 2)) * [1.0, 30.0]
    feats = RegressionBasis().feature_matrix(x, rng.normal(size=(m, 1)))
    y = np.column_stack([np.sin(x[:, 0]) + x[:, 1], rng.normal(size=m)])
    fit = NodeFit(feats)
    fitted, rms, shift, coef = fit.fit(y)

    scale = np.sqrt(np.mean(feats**2, axis=0))
    xs = feats / scale
    ridge = np.linalg.solve(xs.T @ xs / m + RIDGE * np.eye(xs.shape[1]), xs.T @ y / m)
    np.testing.assert_allclose(coef, ridge / scale[:, None], rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(fitted, feats @ coef, rtol=1e-10, atol=1e-12)
    assert fit.plain.all()
    plain = fit.u @ (fit.u.T @ y)
    np.testing.assert_allclose(plain, xs @ np.linalg.lstsq(xs, y, rcond=None)[0], atol=1e-10)
    assert 0.0 <= shift == pytest.approx(np.max(np.abs(fitted - plain)), rel=1e-3)
    assert rms == pytest.approx(np.sqrt(np.mean((y - fitted) ** 2)), rel=1e-12)


def test_node_fit_collinear_design_projects_like_lstsq():
    """A duplicated column makes the design exactly rank deficient: the ridge
    fit must still be the least-squares projection, with a finite shift."""
    rng = np.random.default_rng(6)
    m = 2000
    x = rng.normal(size=m)
    feats = np.column_stack([np.ones(m), x, x, x**2])
    y = 1.0 + 2.0 * x - x**2 + rng.normal(scale=0.1, size=m)
    fit = NodeFit(feats)
    fitted, _, shift, coef = fit.fit(y)
    assert fit.plain.sum() == 3
    lstsq = feats @ np.linalg.lstsq(feats, y, rcond=None)[0]
    np.testing.assert_allclose(fitted, lstsq, atol=1e-8)
    assert np.isfinite(shift) and 0.0 <= shift <= 1e-8
    np.testing.assert_allclose(feats @ coef, fitted, rtol=1e-10, atol=1e-10)


def test_tower_property_within_regression_noise():
    states, bm = brownian_states()
    w = bm.levels()[:, :, 0]
    report = tower_check(w[:, -1] ** 2, states)
    assert report.passed
    # a regressand outside the basis span: shared bias cancels in the gap
    report_cubic = tower_check(w[:, -1] ** 3, states)
    assert report_cubic.passed


def test_tower_check_rejects_bad_pairs():
    states, bm = brownian_states(n_paths=100)
    with pytest.raises(ValueError):
        tower_check(np.zeros(100), states, node_pairs=[(5, 3)])


# ---------------------------------------------------------------------------
# terminal assembly


def test_terminal_expectation_no_constraints():
    grad = np.array([[1.0, 2.0], [3.0, -1.0]])
    term = assemble_terminal(np.ones(2), grad)
    np.testing.assert_array_equal(term.p_T, -grad)
    assert term.normal


def test_terminal_sop_shape():
    # gradient of (y - y_target)^2 / 2 is (y - y_target, 0); with the risk
    # weights xi the first costate component is xi * (y_target - y)
    y = np.array([0.4, 1.3, 2.0])
    y_target = 1.0
    xi = np.array([0.0, 2.0, 1.0])
    grad = np.stack([y - y_target, np.zeros(3)], axis=1)
    term = assemble_terminal(xi, grad)
    np.testing.assert_allclose(term.p_T[:, 0], xi * (y_target - y))
    np.testing.assert_allclose(term.p_T[:, 1], 0.0)


def test_terminal_abnormal_assembly():
    grad0 = np.ones((4, 2))
    grad1 = np.tile([2.0, 0.0], (4, 1))
    term = assemble_terminal(np.ones(4), grad0, multipliers=(0.0, -1.5),
                             constraint_gradients=[grad1])
    np.testing.assert_allclose(term.p_T, -1.5 * grad1)
    assert not term.normal


def test_terminal_validation_errors():
    grad = np.ones((3, 1))
    with pytest.raises(ValueError):
        assemble_terminal(np.ones(3), grad, multipliers=(0.5,))
    with pytest.raises(ValueError):
        assemble_terminal(np.ones(3), grad, multipliers=(-1.0, 0.2),
                          constraint_gradients=[grad])
    with pytest.raises(ValueError):
        assemble_terminal(np.ones(3), grad, multipliers=(0.0,))
    with pytest.raises(ValueError):
        assemble_terminal(-np.ones(3), grad)
    with pytest.raises(ValueError):
        assemble_terminal(np.ones(3), grad, multipliers=(-1.0, -1.0))


def test_aborted_paths_are_named_by_count_and_first_index():
    """dx = x^3 dt + dW from 1.5 blows up on most paths; the run is rejected,
    and both places it can stop say how many paths are lost and where."""
    n_steps, n_paths = 50, 1000
    dyn = DynamicsSpec(
        state_dim=1, control_dim=1, noise_dim=1,
        drift=lambda t, x, u: x**3,
        diffusion=lambda t, x, u: np.ones(x.shape + (1,)),
    )
    bm = sample_brownian(make_grid(1.0, n_steps), 1, n_paths, 3)
    with pytest.warns(RuntimeWarning, match="974 path"):
        states = euler_maruyama(dyn, ControlLaw.constant(0.0, n_steps), np.array([1.5]), bm)
    x_T = states.terminal.copy()
    x_T[0] = 0.0  # the first aborted path is 0; move it to see the index reported
    with pytest.raises(ValueError, match=r"not finite on 973 of 1000 paths \(first at path 1\)"):
        assemble_terminal(np.ones(n_paths), 2.0 * x_T)
    with pytest.raises(ValueError, match=r"973 of 1000 are not finite \(first at index 1\)"):
        SampledRandomVariable(x_T[:, 0] ** 2)


# ---------------------------------------------------------------------------
# deterministic dynamics: exact ODE oracle


def test_adjoint_matches_backward_euler_ode_oracle():
    a_mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    n_steps, n_paths = 300, 200
    grid = make_grid(2.0, n_steps)
    dyn = DynamicsSpec(
        state_dim=2, control_dim=1, noise_dim=1,
        drift=lambda t, x, u: x @ a_mat.T,
        diffusion=lambda t, x, u: np.zeros(x.shape + (1,)),
        drift_jac=lambda t, x, u: np.broadcast_to(a_mat, (x.shape[0], 2, 2)).copy(),
    )
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(n_paths, 2))
    bm = sample_brownian(grid, 1, n_paths, seed=6)
    law = ControlLaw.constant(0.0, n_steps)
    states = euler_maruyama(dyn, law, x0, bm)
    fund = fundamental_matrices(lambda k: a_mat[None], None, bm, tol=1e-10)
    term = assemble_terminal(np.ones(n_paths), states.terminal.copy())
    pair = solve_adjoint(dyn, states, term, fund)

    # independent oracle: explicit backward Euler for dp/dt = -A^T p
    oracle = np.empty_like(pair.p)
    oracle[:, -1] = term.p_T
    for k in range(n_steps - 1, -1, -1):
        oracle[:, k] = oracle[:, k + 1] + grid.dt * oracle[:, k + 1] @ a_mat
    assert np.max(np.abs(pair.p - oracle)) <= 1e-6
    assert pair.bsde_residual_max <= 1e-7
    assert np.array_equal(pair.p[:, -1], term.p_T)
    report = martingale_check(pair)
    assert np.all(np.abs(report.slopes) <= 1e-8)


# ---------------------------------------------------------------------------
# scalar geometric benchmark: closed-form discrete oracle


def test_adjoint_scalar_linear_closed_form():
    a, b, n_steps, n_paths = 0.3, 0.3, 64, 20000
    dyn, states, bm, fund = scalar_linear_setup(a, b, n_steps, n_paths, seed=11)
    grid = states.grid
    term = assemble_terminal(np.ones(n_paths), states.terminal.copy())
    pair = solve_adjoint(dyn, states, term, fund)

    assert np.array_equal(pair.p[:, -1], term.p_T)
    # early nodes have x almost affine in W, so the feature matrix is near
    # collinear and the ridge genuinely matters there: the flag must be up
    assert pair.diagnostics.ridge_flagged

    # discrete conditional moments are exact: E[x_K^2 | x_k] = x_k^2 gamma^(K-k)
    dt = grid.dt
    gamma = (1 + a * dt) ** 2 + b**2 * dt
    x = states.values[:, :, 0]
    psi = fund.psi[:, :, 0, 0]
    for k in (8, 32, 56):
        p_oracle = -psi[:, k] * x[:, k] ** 2 * gamma ** (n_steps - k)
        scale = np.sqrt(np.mean(p_oracle**2))
        gap = np.sqrt(np.mean((pair.p[:, k, 0] - p_oracle) ** 2))
        assert gap <= 0.02 * scale

    # q oracle from the increment expansion of the discrete martingale; the
    # default (x, W) basis is noisy for the 1/dt-amplified increment targets,
    # so this is only an envelope (the sharp check is the Markov-basis test)
    for k in (8, 32, 56):
        mu = -2 * b * (1 + a * dt) * x[:, k] ** 2 * gamma ** (n_steps - k - 1)
        q_oracle = psi[:, k] * mu - b * pair.p[:, k, 0]
        scale = np.sqrt(np.mean(q_oracle**2))
        gap = np.sqrt(np.mean((pair.q[:, k, 0, 0] - q_oracle) ** 2))
        assert gap <= 0.2 * scale

    assert martingale_check(pair).passed


def test_adjoint_scalar_q_sharp_with_markov_basis():
    # the state is Markov, so dropping the redundant Brownian features
    # removes the near-collinear directions and the q estimate tightens
    a, b, n_steps, n_paths = 0.3, 0.3, 64, 40000
    dyn, states, bm, fund = scalar_linear_setup(a, b, n_steps, n_paths, seed=11)
    term = assemble_terminal(np.ones(n_paths), states.terminal.copy())
    basis = RegressionBasis(include_brownian=False)
    pair = solve_adjoint(dyn, states, term, fund, basis=basis)
    dt = states.grid.dt
    gamma = (1 + a * dt) ** 2 + b**2 * dt
    x = states.values[:, :, 0]
    psi = fund.psi[:, :, 0, 0]
    for k in (8, 32, 56):
        p_oracle = -psi[:, k] * x[:, k] ** 2 * gamma ** (n_steps - k)
        gap_p = np.sqrt(np.mean((pair.p[:, k, 0] - p_oracle) ** 2))
        assert gap_p <= 0.01 * np.sqrt(np.mean(p_oracle**2))
        mu = -2 * b * (1 + a * dt) * x[:, k] ** 2 * gamma ** (n_steps - k - 1)
        q_oracle = psi[:, k] * mu - b * pair.p[:, k, 0]
        gap_q = np.sqrt(np.mean((pair.q[:, k, 0, 0] - q_oracle) ** 2))
        assert gap_q <= 0.07 * np.sqrt(np.mean(q_oracle**2))


def test_bsde_residual_shrinks_under_refinement():
    results = {}
    for n_steps in (16, 128):
        dyn, states, bm, fund = scalar_linear_setup(0.4, 0.25, n_steps, 8000, seed=21)
        term = assemble_terminal(np.ones(8000), states.terminal.copy())
        pair = solve_adjoint(dyn, states, term, fund)
        results[n_steps] = pair.bsde_residual_max
    assert results[128] > 0.0
    # expected sqrt(dt) decay would give 0.35; allow slack for MC noise
    assert results[128] <= 0.6 * results[16]


# ---------------------------------------------------------------------------
# the forward walk against the backward reference


def _pair_inputs(dyn, law, x0, n_steps, n_paths, seed):
    """States under law, their fundamental pair and a terminal costate with
    uneven positive weights on the terminal state."""
    bm = sample_brownian(make_grid(1.0, n_steps), dyn.noise_dim, n_paths, seed)
    states = euler_maruyama(dyn, law, x0, bm)
    fund = fundamental_matrices(*linearization_along(dyn, states), bm)
    xi = np.random.default_rng(seed).uniform(0.5, 1.5, n_paths)
    return states, assemble_terminal(xi, states.terminal.copy()), fund


@pytest.mark.parametrize("case", ["open-loop double integrator", "cubic", "scalar linear",
                                  "no Brownian features"])
def test_forward_walk_equals_backward_loop_bit_for_bit(case):
    # the open-loop double integrator's v is the same on every path (a
    # rank-deficient design), the cubic plant's Jacobians are per path and
    # the scalar-linear plant declares diffusion_jac
    basis = RegressionBasis(include_brownian=False) if case == "no Brownian features" else None
    if case in ("scalar linear", "no Brownian features"):
        dyn, states, _, fund = scalar_linear_setup(0.3, 0.3, 16, 500, seed=4)
        term = assemble_terminal(np.ones(500), states.terminal.copy())
    else:
        dyn = double_integrator_dynamics(cubic=0.5 if case == "cubic" else 0.0)
        states, term, fund = _pair_inputs(dyn, ControlLaw.constant(0.4, 16), np.zeros(2),
                                          16, 500, seed=8)
    got = solve_adjoint(dyn, states, term, fund, basis=basis)
    want = backward_adjoint(dyn, states, term, fund, basis=basis)
    for name in ("p", "q", "node_coef", "bsde_residuals", "bsde_residual_max"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("basis_size", "residual_rms", "mu_residual_rms", "ridge_max_shift",
                 "ridge_flagged"):
        assert np.array_equal(getattr(got.diagnostics, name), getattr(want.diagnostics, name)), name
    if case == "open-loop double integrator":  # v is the same on every path at every node
        assert not np.ptp(states.values[:, :, 1], axis=0).any()


def test_forward_walk_holds_no_array_of_brownian_levels():
    # at M=2000, K=200 the (M, K+1, d) levels take 3.2 MB: the walk's peak
    # on top of the p, q and node_coef it returns stays below one of them
    m_paths, n_steps = 2000, 200
    dyn = double_integrator_dynamics()
    states, term, fund = _pair_inputs(dyn, ControlLaw.constant(0.4, n_steps), np.zeros(2),
                                      n_steps, m_paths, seed=8)
    tracemalloc.start()
    try:
        pair = solve_adjoint(dyn, states, term, fund)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = pair.p.nbytes + pair.q.nbytes + pair.node_coef.nbytes
    assert peak - held < m_paths * (n_steps + 1) * dyn.noise_dim * 8, (peak, held)


# ---------------------------------------------------------------------------
# double integrator with expectation risk


def double_integrator(noise=1.0):
    def drift(t, x, u):
        return np.stack([x[:, 1], u[:, 0]], axis=1)

    def diffusion(t, x, u):
        out = np.zeros(x.shape + (1,))
        out[:, 0, 0] = noise
        return out

    return DynamicsSpec(
        state_dim=2, control_dim=1, noise_dim=1,
        drift=drift, diffusion=diffusion,
        drift_jac=lambda t, x, u: np.broadcast_to(
            np.array([[0.0, 1.0], [0.0, 0.0]]), (x.shape[0], 2, 2)).copy(),
        control_grid=np.linspace(-1, 1, 21),
    )


def test_double_integrator_expectation_adjoint():
    n_steps, n_paths, horizon = 40, 20000, 1.0
    y_target = 1.0
    grid = make_grid(horizon, n_steps)
    dyn = double_integrator()
    bm = sample_brownian(grid, 1, n_paths, seed=303)
    law = ControlLaw.constant(0.0, n_steps)
    states = euler_maruyama(dyn, law, np.zeros(2), bm)
    a_mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    fund = fundamental_matrices(lambda k: a_mat[None], None, bm, tol=1e-10)
    grad = np.stack([states.terminal[:, 0] - y_target, np.zeros(n_paths)], axis=1)
    term = assemble_terminal(np.ones(n_paths), grad)
    pair = solve_adjoint(dyn, states, term, fund)

    # the y-costate is driven by -dW, so its diffusion loading is -1
    q_y = pair.q[:, :, 0, 0]
    assert abs(np.mean(q_y) + 1.0) <= 0.05

    # p_v(t) = (T - t) p_y(t) pathwise
    t_nodes = grid.nodes
    gap = pair.p[:, :, 1] - (horizon - t_nodes)[None, :] * pair.p[:, :, 0]
    assert np.sqrt(np.mean(gap**2)) <= 0.05

    # mean p_y is flat at y_target, mean p_v decays with slope -mean p_y
    mean_py = pair.p[:, :, 0].mean(axis=0)
    mean_pv = pair.p[:, :, 1].mean(axis=0)
    assert np.max(np.abs(mean_py - y_target)) <= 0.05
    slope = np.polyfit(t_nodes, mean_pv, 1)[0]
    assert abs(slope + mean_py.mean()) <= 0.05

    assert martingale_check(pair).passed


# ---------------------------------------------------------------------------
# interface guards


def test_linearization_requires_drift_jacobian():
    states, bm = brownian_states(n_paths=20, n_steps=4)
    dyn = DynamicsSpec(
        state_dim=1, control_dim=1, noise_dim=1,
        drift=lambda t, x, u: np.zeros_like(x),
        diffusion=lambda t, x, u: np.ones(x.shape + (1,)),
    )
    with pytest.raises(ValueError):
        linearization_along(dyn, states)


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("include_brownian", [True, False])
def test_feature_columns_equal_prod_oracle(degree, include_brownian):
    from itertools import combinations_with_replacement

    rng = np.random.default_rng(degree)
    x = 3.0 * rng.normal(size=(500, 2))
    w = rng.normal(size=(500, 1))
    z = np.concatenate([x, w], axis=1) if include_brownian else x
    oracle = [np.ones(500)] + [
        np.prod(z[:, idx], axis=1)
        for deg in range(1, degree + 1)
        for idx in combinations_with_replacement(range(z.shape[1]), deg)
    ]
    basis = RegressionBasis(degree=degree, include_brownian=include_brownian)
    feats = basis.feature_matrix(x, w)
    assert feats.shape == (500, basis.n_features(2, 1 if include_brownian else 0))
    assert np.array_equal(feats, np.stack(oracle, axis=1))


def test_basis_feature_count():
    basis = RegressionBasis(degree=2)
    assert basis.n_features(2, 1) == 10
    x = np.random.default_rng(0).normal(size=(30, 2))
    w = np.random.default_rng(1).normal(size=(30, 1))
    assert basis.feature_matrix(x, w).shape == (30, 10)
    lin = RegressionBasis(degree=1, include_brownian=False)
    assert lin.feature_matrix(x, None).shape == (30, 3)
