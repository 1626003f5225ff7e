"""Double-integrator planning benchmark: exact displacement oracle, the
shooting search contracts and its bounded Brent port against SciPy's, the
refinement's acceptance rule, safety margins, and the bang-bang analysis."""

import functools

import numpy as np
import pytest
from scipy import optimize

from riskpmp import (
    AVaR,
    BangBangPolicy,
    CertifyConfig,
    ControlLaw,
    SopInstance,
    assemble_solution,
    bangbang_necessity,
    build_sop,
    certify,
    euler_maruyama,
    make_grid,
    martingale_check,
    planner,
    risk_value,
    safety_check,
    sample_brownian,
    shoot,
    solve_sop,
    terminal_mean,
)
from riskpmp.planner import _bounded_brent


def test_instance_validation():
    SopInstance(0.0, 0.0, 1.0, 2.0, 0.3)
    with pytest.raises(ValueError, match="left of the target"):
        SopInstance(1.0, 0.0, 1.0, 2.0, 0.3)
    with pytest.raises(ValueError, match="alpha"):
        SopInstance(0.0, 0.0, 1.0, 2.0, 0.0)
    with pytest.raises(ValueError, match="alpha"):
        SopInstance(0.0, 0.0, 1.0, 2.0, 1.2)
    with pytest.raises(ValueError, match="horizon"):
        SopInstance(0.0, 0.0, 1.0, 0.0, 0.3)
    with pytest.raises(ValueError, match="noise"):
        SopInstance(0.0, 0.0, 1.0, 2.0, 0.3, noise=-1.0)


def test_policy_validation_and_grid_values():
    with pytest.raises(ValueError, match="initial_sign"):
        BangBangPolicy(0)
    with pytest.raises(ValueError, match="two switching"):
        BangBangPolicy(1, (0.1, 0.2, 0.3))
    with pytest.raises(ValueError, match="nondecreasing"):
        BangBangPolicy(1, (0.5, 0.2))
    grid = make_grid(1.0, 4)
    u = BangBangPolicy(1, (0.5,)).on_grid(grid)
    np.testing.assert_allclose(u[:, 0], [1.0, 1.0, -1.0, -1.0])
    u2 = BangBangPolicy(-1, (0.25, 0.75)).on_grid(grid)
    np.testing.assert_allclose(u2[:, 0], [-1.0, 1.0, 1.0, -1.0])


def test_build_sop_shape_and_risk():
    inst = SopInstance(0.0, 0.0, 1.0, 2.0, 0.3)
    prob = build_sop(inst)
    assert prob.dyn.state_dim == 2 and prob.dyn.control_dim == 1 and prob.dyn.noise_dim == 1
    x = np.array([[0.3, -0.2], [1.0, 0.5]])
    u = np.array([[0.7], [-0.1]])
    sig = prob.dyn.diffusion(0.0, x, u)
    np.testing.assert_allclose(sig[:, 0, 0], 1.0)
    np.testing.assert_allclose(sig[:, 1, 0], 0.0)
    assert prob.dyn.control_grid[0, 0] == -1.0 and prob.dyn.control_grid[-1, 0] == 1.0
    assert isinstance(prob.risk, AVaR) and prob.risk.alpha == 0.3
    prob.check_gradients(x)
    rng = np.random.default_rng(3)
    z = rng.normal(size=300)
    mean_cost = build_sop(SopInstance(0.0, 0.0, 1.0, 2.0, 1.0))
    assert risk_value(mean_cost.risk, z) == pytest.approx(z.mean(), abs=1e-12)


def euler_displacement(instance, policy, n_steps=20000):
    # independent fine-grid ODE integration of the noise-free plant
    dt = instance.horizon / n_steps
    t = np.arange(n_steps) * dt
    flips = np.searchsorted(np.asarray(policy.switches), t + 1e-12, side="right")
    u = policy.initial_sign * (-1.0) ** flips
    v = instance.v0 + dt * np.concatenate([[0.0], np.cumsum(u)[:-1]])
    return instance.y0 + float(np.sum(v * dt)) + 0.5 * dt * dt * float(np.sum(u))


def test_terminal_mean_against_ode_oracle():
    inst = SopInstance(0.2, -0.4, 3.0, 2.5, 0.3)
    hand = [BangBangPolicy(1, ()), BangBangPolicy(-1, (0.8,)),
            BangBangPolicy(1, (0.4, 1.9))]
    for policy in hand:
        exact = terminal_mean(inst, policy)
        approx = euler_displacement(inst, policy)
        assert abs(exact - approx) <= 1e-3, policy
    # full-throttle closed form: y0 + v0 T + T^2/2
    assert terminal_mean(inst, BangBangPolicy(1, ())) == pytest.approx(
        0.2 - 0.4 * 2.5 + 0.5 * 2.5**2)


def test_shoot_reaches_deterministic_target():
    inst = SopInstance(0.0, 0.0, 1.0, 2.0, 0.3, noise=0.0)
    brownian = sample_brownian(make_grid(2.0, 50), 1, 64, seed=5)
    result = shoot(inst, brownian)
    assert result.cost <= 1e-6
    assert abs(terminal_mean(inst, result.policy) - 1.0) <= 2e-3
    # the single-switch profile that parks exactly on target flips at t = 1
    if len(result.policy.switches) == 1:
        assert result.policy.initial_sign == 1
        assert result.policy.switches[0] == pytest.approx(1.0, abs=1e-3)


def test_shoot_risk_level_monotonicity_and_determinism():
    inst = lambda a: SopInstance(0.0, 0.0, 1.0, 2.0, a)
    brownian = sample_brownian(make_grid(2.0, 50), 1, 2000, seed=6)
    averse = shoot(inst(0.1), brownian)
    neutral = shoot(inst(1.0), brownian)
    assert averse.cost >= neutral.cost
    again = shoot(inst(0.1), brownian)
    assert again.policy == averse.policy
    assert again.cost == averse.cost
    assert again.evaluations == averse.evaluations


README = SopInstance(0.0, 0.0, 4.0, 2.0, 0.3, noise=1.0)


@functools.cache
def _readme_brownian():
    return sample_brownian(make_grid(README.horizon, 100), 1, 10_000, seed=42)


def _readme_one_switch_avar(s):
    """shoot's objective on the README instance: one switch at s, u = +1 first."""
    w_T = _readme_brownian().levels()[:, -1, 0]
    y_T = terminal_mean(README, BangBangPolicy(1, (float(s),))) + README.noise * w_T
    return risk_value(AVaR(README.alpha), 0.5 * (y_T - README.y_target) ** 2)


@pytest.mark.parametrize("fn, lo, hi", [
    pytest.param(lambda x: (x - 0.3) ** 2, 0.0, 2.0, id="quadratic"),
    pytest.param(lambda x: abs(x - 0.7), 0.0, 2.0, id="kink"),
    pytest.param(lambda x: (x - 1.0) ** 4, 0.0, 2.0, id="quartic"),  # flat bottom
    pytest.param(lambda x: 1e-300 * (x - 0.4) ** 2, 0.0, 2.0, id="underflow"),  # zero steps
    pytest.param(lambda x: 1.0, 0.0, 2.0, id="constant"),  # a noise=0 objective off target
    pytest.param(lambda x: 0.0 if x > 1.1 else 1.0, 0.0, 2.0, id="step"),
    pytest.param(lambda x: x, 0.5, 2.0, id="increasing"),  # minimizer on the lower bound
    pytest.param(lambda x: -x, 0.5, 2.0, id="decreasing"),  # and on the upper bound
    pytest.param(_readme_one_switch_avar, 0.0, 2.0, id="readme-avar"),
])
def test_bounded_brent_follows_scipy_point_for_point(fn, lo, hi):
    ours, theirs = [], []
    x = _bounded_brent(lambda s: ours.append(s) or fn(s), lo, hi)
    res = optimize.minimize_scalar(lambda s: theirs.append(s) or fn(s), bounds=(lo, hi),
                                   method="bounded", options={"xatol": 1e-10})
    assert ours == theirs
    assert x == res.x


def test_shoot_readme_instance_is_pinned():
    result = shoot(README, _readme_brownian())
    assert result.cost == 6.8725068841966435
    assert result.evaluations == 511


def test_shoot_incumbent_monotone():
    inst = SopInstance(0.0, 0.0, 1.0, 2.0, 0.3)
    brownian = sample_brownian(make_grid(2.0, 40), 1, 500, seed=7)
    result = shoot(inst, brownian)
    inc = np.asarray(result.incumbents)
    assert np.all(np.diff(inc) <= 0.0)
    assert inc[-1] == result.cost


def test_safety_check_hand_cases():
    inst = SopInstance(0.0, 0.0, 1.0, 2.0, 0.3)
    below = safety_check(inst, np.full(400, 0.0))
    assert below.safe and below.margin == pytest.approx(1.0) and below.band == 0.0
    above = safety_check(inst, np.full(400, 2.0))
    assert not above.safe and above.margin == pytest.approx(-1.0)


def test_safety_check_one_path_is_not_safe():
    # one terminal position has no sample spread: no band, so no safety claim
    inst = SopInstance(0.0, 0.0, 1.0, 2.0, 0.3)
    rep = safety_check(inst, np.array([0.0]))
    assert rep.margin == pytest.approx(1.0)
    assert np.isnan(rep.band) and not rep.safe


def test_safety_avar_agrees_with_risk_value():
    inst = SopInstance(0.0, 0.0, 1.0, 2.0, 0.25)
    rng = np.random.default_rng(8)
    y = rng.normal(size=1500)
    rep = safety_check(inst, y)
    assert abs(rep.avar_value - risk_value(AVaR(0.25), y)) <= 1e-12


def test_safety_band_takes_the_var_of_the_measure():
    # 1 - 0.7 lands just above 3/10 in floating point, where an inverted-CDF
    # quantile steps to the fourth of ten order statistics; the band's VaR is
    # the one the reported AV@R reads, the third
    inst = SopInstance(0.0, 0.0, 4.0, 2.0, 0.7)
    y = np.random.default_rng(1).normal(size=10)
    q = np.sort(y)[2]
    assert AVaR(0.7).subgradient(y).quantile == q
    influence = q + np.maximum(y - q, 0.0) / 0.7
    rep = safety_check(inst, y)
    assert rep.band == planner.BAND_SIGMA * influence.std(ddof=1) / np.sqrt(10)
    assert rep.band == pytest.approx(0.5134, abs=1e-4)


SAFE = SopInstance(0.0, 0.0, 4.0, 2.0, 0.3, noise=1.0)


@pytest.fixture(scope="module")
def safe_solution():
    return solve_sop(SAFE, n_steps=100, n_paths=10000, seed=20260812)


def test_safe_instance_goes_full_throttle(safe_solution):
    # target sits beyond the reachable set, so maximal displacement wins
    np.testing.assert_allclose(safe_solution.states.control.values, 1.0)
    rep = safety_check(SAFE, safe_solution.states)
    # AV@R_0.3 of y(T) ~ N(2, sqrt(2)) is 2 + sqrt(2) phi(z_.7)/.3 ~ 3.64
    assert rep.safe
    assert rep.margin == pytest.approx(4.0 - 3.639, abs=0.12)
    assert rep.band < rep.margin


def test_safe_solution_bangbang_consistent(safe_solution):
    rep = bangbang_necessity(safe_solution)
    assert rep.status == "consistent"
    assert rep.saturation_fraction == 1.0
    assert rep.zero_band_windows == []
    assert rep.interior_windows == []
    # pairing stays strictly negative, matching the contrapositive, and is
    # dominated by the dual maximum AV@R(y(T)) - y_target
    assert rep.pairing_mean < -rep.pairing_band
    assert rep.pairing_mean <= rep.safety.avar_value - 4.0 + 1e-9
    # xi sits on the lower tail of y(T) ~ N(2, sqrt(2)), so the pairing is
    # the tail mean: -sqrt(2) phi(z_0.7)/0.3 - 2 ~ -3.639
    assert rep.pairing_mean == pytest.approx(-3.639, abs=0.2)
    assert any("verdict" in line for line in rep.chain)


def test_safe_solution_costate_structure(safe_solution):
    mart = martingale_check(safe_solution.costates)
    assert mart.passed
    p = safe_solution.costates.p
    # p_v(T) = 0 and p_v stays positive in the ensemble mean, matching u = +1
    np.testing.assert_allclose(p[:, -1, 1], 0.0, atol=1e-12)
    mean_pv = p[:, :-1, 1].mean(axis=0)
    assert np.all(mean_pv[:-5] > 0.0)


def test_safe_solution_certificate_passes(safe_solution):
    # Calibrated on this benchmark. The one-step backward residual at the
    # final node is ~2.0 because xi is an indicator that resolves entirely in
    # the last increment; every earlier node sits below 0.15. The gap
    # threshold is 1.0 because the degree-2 regression of the hockey-stick
    # conditional mean overshoots below zero on its flat side, flipping
    # sign(p_v) on ~9% of cells with spurious gaps up to ~0.5; genuine
    # violations (see the flipped-control test) blow past 1.0 on >30% of
    # cells, so the calibrated threshold separates the two regimes.
    cfg = CertifyConfig(
        scale=SAFE.y_target**2 / 2,
        bsde_residual_bound=2.5,
        gap_threshold=1.0,
    )
    cert, gaps = certify(safe_solution.problem, safe_solution, cfg)
    assert cert.verdict == "pass", (cert.causes, cert.conditions["adjoint_residual"])
    assert cert.conditions["risk_parameter"]["gap"] <= 1e-9
    assert gaps.violating_fractions[1.0] <= 0.01
    # the projection bias shows up at the loose threshold and is reported,
    # not hidden; it stays an order of magnitude under a real violation
    assert 0.05 <= gaps.violating_fractions[0.1] <= 0.15
    assert cert.conditions["normality"]["detail"] == "vacuous"


def test_hand_made_coasting_control_flagged(safe_solution):
    zeros = np.zeros((100, 1))
    sol = assemble_solution(SAFE, zeros, safe_solution.states.brownian)
    rep = bangbang_necessity(sol)
    assert rep.status == "inconsistent"
    assert rep.saturation_fraction == 0.0
    assert rep.interior_windows == [(0.0, 2.0)]
    assert np.isfinite(rep.pairing_mean) and rep.pairing_mean < 0.0
    assert any("inside" in line for line in rep.chain)


REACH = SopInstance(0.0, 0.0, 1.0, 2.0, 0.3, noise=1.0)


def holdout_avar_of_open_loop(values, n_steps, n_paths, seed):
    # the holdout ensemble is the same seed's next n_paths paths
    problem = build_sop(REACH)
    holdout = sample_brownian(make_grid(REACH.horizon, n_steps), 1, n_paths, seed,
                              path_offset=n_paths)
    states = euler_maruyama(problem.dyn, ControlLaw(values), problem.x0, holdout)
    return risk_value(problem.risk, problem.cost(states.terminal))


def test_refinement_lowers_holdout_avar_with_adapted_control():
    sol = solve_sop(REACH, n_steps=40, n_paths=2000, seed=11)
    ref = sol.refinement
    start_values = ref.start.on_grid(make_grid(REACH.horizon, 40))
    assert ref.scores[0] == pytest.approx(
        holdout_avar_of_open_loop(start_values, 40, 2000, 11), rel=1e-12)
    # kept sweeps lower the holdout score strictly; the last trial did not
    kept = np.asarray(ref.scores[: ref.sweeps + 1])
    assert ref.adapted and np.all(np.diff(kept) < 0.0)
    assert ref.scores[-1] >= kept[-1]
    assert kept[-1] <= ref.scores[0]
    # the candidate is per path, bang-bang, and not a relabelled open loop
    u = sol.states.control.values
    assert sol.policy is None
    assert u.shape == (2000, 40, 1)
    assert set(np.unique(u)) == {-1.0, 1.0}
    assert np.any(u != u[:1])
    assert sol.cost == pytest.approx(risk_value(sol.problem.risk, sol.problem.cost(sol.states.terminal)))


def test_holdout_chunk_size_does_not_move_the_refinement(monkeypatch):
    # the holdout is scored chunk by chunk: 29 chunks of 7 paths, a ragged
    # tail included, give the floats of one 200-path chunk
    whole = solve_sop(REACH, n_steps=20, n_paths=200, seed=1)
    monkeypatch.setattr(planner, "HOLDOUT_CHUNK", 7)
    chunked = solve_sop(REACH, n_steps=20, n_paths=200, seed=1)
    assert whole.refinement.sweeps >= 1
    assert chunked.refinement.scores == whole.refinement.scores
    assert (chunked.cost, chunked.refinement.sweeps) == (whole.cost, whole.refinement.sweeps)


def test_refinement_keeps_start_when_first_sweep_does_not_lower():
    # at this seed the first trial sweep raises the holdout AV@R
    sol = solve_sop(REACH, n_steps=40, n_paths=2000, seed=3)
    ref = sol.refinement
    assert not ref.adapted and len(ref.scores) == 2
    assert ref.scores[1] >= ref.scores[0]
    assert sol.policy == ref.start
    brownian = sample_brownian(make_grid(REACH.horizon, 40), 1, 2000, seed=3)
    assert sol.cost == shoot(REACH, brownian).cost
    np.testing.assert_array_equal(sol.states.control.values, ref.start.on_grid(brownian.grid))


def test_noise_free_regime_not_applicable():
    inst = SopInstance(0.0, 0.0, 1.0, 2.0, 0.3, noise=0.0)
    sol = solve_sop(inst, n_steps=50, n_paths=16, seed=9)
    rep = bangbang_necessity(sol)
    assert rep.status == "not_applicable"
    assert "does not apply" in rep.chain[0]
