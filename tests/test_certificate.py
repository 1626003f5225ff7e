"""Certificate conditions against hand-computed values and a solvable
linear-quadratic benchmark whose optimal feedback has a closed form."""

import json
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from oracles import conditional_expectation, dense_gap_summary, selection_continuity, tower_check
from riskpmp import (
    AVaR,
    CandidateBundle,
    CertifyConfig,
    ControlLaw,
    DynamicsSpec,
    Expectation,
    FeedbackLaw,
    MixtureAVaR,
    PmpCertificate,
    ProblemSpec,
    SampledRandomVariable,
    SopInstance,
    TerminalConstraint,
    assemble_solution,
    assemble_terminal,
    certify,
    double_integrator_dynamics,
    euler_maruyama,
    fundamental_matrices,
    hamiltonian,
    linearization_along,
    make_grid,
    maximization_gap,
    normality_certificate,
    risk_param_gap,
    risk_subgradient,
    risk_value,
    sample_brownian,
    slackness_check,
    solve_adjoint,
    solve_linearized,
    tangent_from_control,
)
from riskpmp.certificate import gap_report, hamiltonian_argmax
from riskpmp.cli import _gap_hist_rows
from riskpmp.sde import StateEnsemble, _dot_last


def double_integrator(noise=1.0, grid_points=21):
    def drift(t, x, u):
        return np.stack([x[:, 1], u[:, 0]], axis=1)

    def diffusion(t, x, u):
        s = np.zeros((x.shape[0], 2, 1))
        s[:, 0, 0] = noise
        return s

    def drift_jac(t, x, u):
        a = np.zeros((x.shape[0], 2, 2))
        a[:, 0, 1] = 1.0
        return a

    return DynamicsSpec(
        state_dim=2, control_dim=1, noise_dim=1,
        drift=drift, diffusion=diffusion, drift_jac=drift_jac,
        control_grid=np.linspace(-1.0, 1.0, grid_points),
    )


class ArrayCostates:
    """Costates built by hand as (M, K+1, n) and (M, K, n, d) arrays, served
    through CostatePair's per-node method, the one maximization_gap reads."""

    def __init__(self, p, q):
        self.p, self.q = p, q

    def by_node(self, lo=0, hi=None, p=True, q=True):
        last = self.p.shape[1] - 1
        for k in range(last + 1):
            yield (self.p[lo:hi, k] if p or k == last else None,
                   self.q[lo:hi, k] if q and k < last else None)


# ---------------------------------------------------------------------------
# Hamiltonian


def test_hamiltonian_hand_value():
    dyn = double_integrator()
    x = np.array([[0.0, 5.0]])
    u = np.array([[0.5]])
    p = np.array([[1.0, 2.0]])
    q = np.array([[[3.0], [0.0]]])
    # p . (v, u) + q_y * 1 = 1*5 + 2*0.5 + 3*1
    assert hamiltonian(dyn, 0.0, x, u, p, q) == pytest.approx(9.0)
    assert hamiltonian(dyn, 0.0, x, u, 0 * p, 0 * q)[0] == 0.0


def test_hamiltonian_linear_in_adjoint_variables():
    dyn = double_integrator()
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 2))
    u = rng.uniform(-1, 1, size=(6, 1))
    p1, p2 = rng.normal(size=(2, 6, 2))
    q1, q2 = rng.normal(size=(2, 6, 2, 1))
    h = lambda p, q: hamiltonian(dyn, 0.3, x, u, p, q)
    np.testing.assert_allclose(h(p1 + p2, q1 + q2), h(p1, q1) + h(p2, q2), atol=1e-12)
    np.testing.assert_allclose(h(2.5 * p1, 2.5 * q1), 2.5 * h(p1, q1), atol=1e-12)


@pytest.mark.parametrize("n, d", [(2, 1), (3, 2)])
def test_hamiltonian_sums_match_einsum(n, d):
    # the pathwise dot products of H as sums over the short axes: equal bit
    # for bit to the einsum when two terms are summed (the double integrator),
    # and within 1e-12 relative for longer axes
    rng = np.random.default_rng(n * 10 + d)
    p, f = rng.normal(size=(2, 500, n))
    q, s = rng.normal(size=(2, 500, n, d))
    got = _dot_last(p, f) + _dot_last(q.reshape(500, -1), s.reshape(500, -1))
    want = np.einsum("pn,pn->p", p, f) + np.einsum("pnd,pnd->p", q, s)
    if n * d <= 2:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    dyn = double_integrator()
    x, u = rng.normal(size=(500, 2)), rng.uniform(-1, 1, size=(500, 1))
    p, q = rng.normal(size=(500, 2)), rng.normal(size=(500, 2, 1))
    want = (np.einsum("pn,pn->p", p, dyn.drift(0.3, x, u))
            + np.einsum("pnd,pnd->p", q, dyn.diffusion(0.3, x, u)))
    assert np.array_equal(hamiltonian(dyn, 0.3, x, u, p, q), want)


def grid_maximum(dyn, x, u_star, p, q, grid):
    """max of H over u* and every grid point, as maximization_gap takes it."""
    best = hamiltonian(dyn, 0.0, x, u_star, p, q)
    for u_pt in np.asarray(grid, dtype=float).reshape(-1, 1):
        u = np.broadcast_to(u_pt, u_star.shape)
        np.maximum(best, hamiltonian(dyn, 0.0, x, u, p, q), out=best)
    return best


_finite = st.floats(-1e3, 1e3)
_rows = st.tuples(_finite, _finite, _finite, _finite, st.integers(0, 30),
                  _finite, _finite, st.floats(-1.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(cubic=st.sampled_from([0.0, 0.5]), rows=st.lists(_rows, min_size=1, max_size=20))
def test_double_integrator_vertex_maximum_is_the_21_point_maximum(cubic, rows):
    # u enters H only as p_v (u - c y^3), and each rounding step of that is
    # monotone in u, so no interior point beats both vertices, not even by one
    # ulp; |p_v| is shrunk by up to 1e-30 to put it far below |p_y v|
    y, v, p_y, p_v, shrink, q_y, q_v, u_star = np.array(rows, dtype=float).T
    dyn = double_integrator_dynamics(cubic=cubic)
    x, p = np.stack([y, v], axis=1), np.stack([p_y, p_v * 10.0 ** -shrink], axis=1)
    q = np.stack([q_y, q_v], axis=1)[:, :, None]
    args = (dyn, x, u_star[:, None], p, q)
    assert np.array_equal(grid_maximum(*args, dyn.control_grid),
                          grid_maximum(*args, np.linspace(-1.0, 1.0, 21)))


def test_vertices_miss_the_maximum_of_a_plant_not_affine_in_u():
    # dx = u^2 dt + 0.5 dW with p < 0: H = p u^2 + 0.5 q peaks at u = 0, which
    # the vertices miss; such a plant must declare the interior points itself
    dyn = DynamicsSpec(state_dim=1, control_dim=1, noise_dim=1,
                       drift=lambda t, x, u: u ** 2,
                       diffusion=lambda t, x, u: np.full((len(x), 1, 1), 0.5),
                       control_grid=np.linspace(-1.0, 1.0, 21))
    rng = np.random.default_rng(5)
    x, q = rng.normal(size=(50, 1)), rng.normal(size=(50, 1, 1))
    p = -rng.uniform(0.1, 2.0, size=(50, 1))
    args = (dyn, x, np.ones((50, 1)), p, q)
    declared = grid_maximum(*args, dyn.control_grid)
    np.testing.assert_array_equal(declared, 0.5 * q[:, 0, 0])
    assert np.all(grid_maximum(*args, [-1.0, 1.0]) < declared)


@pytest.mark.parametrize("cubic", [0.0, 0.5])
@pytest.mark.parametrize("p_v", [0.0, -0.0])
def test_argmax_breaks_a_zero_velocity_costate_tie_toward_plus_one(cubic, p_v):
    # H(-1) = H(+1) when p_v is a zero of either sign: the later grid point
    # wins, as the sign rule u = +1 where p_v >= 0 has it
    dyn = double_integrator_dynamics(cubic=cubic)
    rng = np.random.default_rng(3)
    x, q = rng.normal(size=(40, 2)), rng.normal(size=(40, 2, 1))
    p = np.stack([rng.normal(size=40), np.full(40, p_v)], axis=1)
    h_max, arg = hamiltonian_argmax(dyn, 0.0, x, p, q)
    assert np.array_equal(dyn.control_grid[arg], np.ones((40, 1)))
    assert np.array_equal(h_max, hamiltonian(dyn, 0.0, x, np.ones((40, 1)), p, q))


@settings(max_examples=300, deadline=None)
@given(cubic=st.sampled_from([0.0, 0.5]), rows=st.lists(_rows, min_size=1, max_size=20))
def test_argmax_is_the_sign_rule_and_its_maximum_the_running_maximum(cubic, rows):
    y, v, p_y, p_v, shrink, q_y, q_v, _ = np.array(rows, dtype=float).T
    dyn = double_integrator_dynamics(cubic=cubic)
    x, p = np.stack([y, v], axis=1), np.stack([p_y, p_v * 10.0 ** -shrink], axis=1)
    q = np.stack([q_y, q_v], axis=1)[:, :, None]
    h = [hamiltonian(dyn, 0.0, x, np.broadcast_to(u_pt, (len(x), 1)), p, q)
         for u_pt in dyn.control_grid]
    running = h[0].copy()
    for h_u in h[1:]:
        np.maximum(running, h_u, out=running)
    h_max, arg = hamiltonian_argmax(dyn, 0.0, x, p, q)
    assert h_max.tobytes() == running.tobytes()
    apart = h[0] != h[-1]
    sign = np.where(p[:, 1] >= 0.0, 1.0, -1.0)
    assert np.array_equal(dyn.control_grid[arg[apart], 0], sign[apart])


def test_argmax_of_a_plant_not_affine_in_u_is_interior():
    # dx = u^2 dt + 0.5 dW with p < 0: H = p u^2 + 0.5 q peaks at u = 0 of
    # the 21-point grid, a control no sign rule can give
    dyn = DynamicsSpec(state_dim=1, control_dim=1, noise_dim=1,
                       drift=lambda t, x, u: u ** 2,
                       diffusion=lambda t, x, u: np.full((len(x), 1, 1), 0.5),
                       control_grid=np.linspace(-1.0, 1.0, 21))
    rng = np.random.default_rng(5)
    x, q = rng.normal(size=(50, 1)), rng.normal(size=(50, 1, 1))
    p = -rng.uniform(0.1, 2.0, size=(50, 1))
    h_max, arg = hamiltonian_argmax(dyn, 0.0, x, p, q)
    assert np.array_equal(dyn.control_grid[arg], np.zeros((50, 1)))
    np.testing.assert_array_equal(h_max, 0.5 * q[:, 0, 0])


def test_argmax_without_a_control_grid_is_refused():
    dyn = replace(double_integrator_dynamics(), control_grid=None)
    grid = make_grid(1.0, 2)
    states = StateEnsemble(grid=grid, values=np.zeros((3, 3, 2)),
                           control=ControlLaw(np.ones((2, 1))))
    pair = ArrayCostates(np.zeros((3, 3, 2)), np.zeros((3, 2, 2, 1)))
    problem = replace(toy_problem(), dyn=dyn)
    message = "maximization needs a working control grid on the dynamics"
    with pytest.raises(ValueError, match=message):
        hamiltonian_argmax(dyn, 0.0, np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2, 1)))
    with pytest.raises(ValueError, match=message):
        maximization_gap(problem, states, pair)


# ---------------------------------------------------------------------------
# slackness and feasibility


def terminal_ensemble(values):
    values = np.asarray(values, dtype=float)
    m, n = values.shape
    path = np.broadcast_to(values[:, None, :], (m, 3, n)).copy()
    return StateEnsemble(grid=make_grid(1.0, 2), values=path)


def toy_problem(constraints=()):
    dyn = double_integrator()
    cost = lambda x: 0.5 * x[:, 0] ** 2
    grad = lambda x: np.stack([x[:, 0], np.zeros(x.shape[0])], axis=1)
    return ProblemSpec(dyn=dyn, risk=Expectation(), cost=cost, cost_gradient=grad,
                       x0=np.zeros(2), constraints=tuple(constraints))


def test_slackness_no_constraints_vacuous():
    states = terminal_ensemble(np.zeros((4, 2)))
    rep = slackness_check(toy_problem(), states, multipliers=(-1.0,))
    assert rep.passed and rep.feasible and rep.active_set == []


def test_slackness_hand_example_fails():
    # E[phi_1] = -0.3 (inactive) with multiplier -1 gives residual 0.3
    con = TerminalConstraint(fn=lambda x: np.full(x.shape[0], -0.3),
                             gradient=lambda x: np.zeros_like(x), name="shift")
    states = terminal_ensemble(np.zeros((8, 2)))
    rep = slackness_check(toy_problem([con]), states, multipliers=(-1.0, -1.0))
    assert rep.feasible
    assert rep.residuals[0] == pytest.approx(0.3)
    assert not rep.passed
    assert rep.active_set == []
    zero_mult = slackness_check(toy_problem([con]), states, multipliers=(-1.0, 0.0))
    assert zero_mult.passed


def test_infeasible_candidate_fails_feasibility_not_slackness():
    con = TerminalConstraint(fn=lambda x: np.full(x.shape[0], 0.5),
                             gradient=lambda x: np.zeros_like(x))
    states = terminal_ensemble(np.zeros((8, 2)))
    rep = slackness_check(toy_problem([con]), states, multipliers=(-1.0, 0.0))
    assert not rep.feasible
    assert rep.passed  # zero multiplier leaves the slackness product at zero


def test_slackness_multiplier_count_checked():
    states = terminal_ensemble(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="multiplier"):
        slackness_check(toy_problem(), states, multipliers=(-1.0, 0.0))


# ---------------------------------------------------------------------------
# risk parameter gap


def test_risk_gap_subgradient_attains():
    rng = np.random.default_rng(11)
    z = rng.normal(size=400)
    risk = AVaR(0.3)
    xi = risk_subgradient(risk, z)
    gap = risk_param_gap(risk, z, xi)
    assert -1e-9 <= gap <= 1e-9


def test_risk_gap_uniform_density_is_suboptimal():
    rng = np.random.default_rng(12)
    z = rng.normal(size=400)
    gap = risk_param_gap(AVaR(0.3), z, np.ones(400))
    assert gap > 0.5  # AVaR_0.3 of a standard normal sits well above the mean


def test_risk_gap_constant_sample_and_expectation_exact():
    z = np.full(64, 2.75)
    assert abs(risk_param_gap(AVaR(0.2), z, risk_subgradient(AVaR(0.2), z))) <= 1e-12
    rng = np.random.default_rng(13)
    z = rng.normal(size=500)
    assert risk_param_gap(Expectation(), z, np.ones(500)) == 0.0


def test_risk_gap_rejects_infeasible_densities():
    z = np.arange(10.0)
    with pytest.raises(ValueError, match="nonnegative"):
        risk_param_gap(AVaR(0.5), z, np.full(10, -0.1) + np.linspace(0, 2, 10))
    bad = np.zeros(10)
    bad[-1] = 3.0  # cap for alpha = 0.5 is 2
    with pytest.raises(ValueError, match="cap"):
        risk_param_gap(AVaR(0.5), z, bad)
    with pytest.raises(ValueError, match="integrate"):
        risk_param_gap(AVaR(0.5), z, np.full(10, 0.5))
    with pytest.raises(ValueError, match="per sample"):
        risk_param_gap(AVaR(0.5), z, np.ones(9))
    with pytest.raises(ValueError, match="xi must be finite"):
        risk_param_gap(AVaR(0.5), z, np.r_[np.nan, np.full(9, 10 / 9)])


def test_risk_gap_weighted_sample():
    rng = np.random.default_rng(14)
    z = rng.normal(size=60)
    w = rng.uniform(0.1, 1.0, size=60)
    w /= w.sum()
    risk = AVaR(0.25)
    sample = SampledRandomVariable(z, w)
    xi = risk_subgradient(risk, sample)
    assert abs(risk_param_gap(risk, sample, xi)) <= 1e-9


def test_risk_gap_mixture_attains_and_caps():
    rng = np.random.default_rng(15)
    z = rng.normal(size=400)
    risk = MixtureAVaR([0.1, 0.5], [0.5, 0.5])
    assert abs(risk_param_gap(risk, z, risk_subgradient(risk, z))) <= 1e-9
    bad = np.zeros(400)
    bad[:66] = 400 / 66  # above the cap 0.5 / 0.1 + 0.5 / 0.5 = 6
    with pytest.raises(ValueError, match="cap 6"):
        risk_param_gap(risk, z, bad)


def test_risk_gap_refuses_a_mixture_density_under_the_cap_outside_the_dual_set():
    # xi = (0, 2) is nonnegative, has mean 1 and stays under the cap 5.5, yet
    # its top half carries 1 where the dual set allows
    # 0.5 min(0.5 / 0.1, 1) + 0.5 min(0.5 / 1, 1) = 0.75: it would pass with gap -0.25
    risk, z = MixtureAVaR([0.1, 1.0], [0.5, 0.5]), np.array([0.0, 1.0])
    assert risk_value(risk, z) == 0.75
    with pytest.raises(ValueError, match=r"outside the dual set: its largest values, of weight "
                                         r"0.5, carry 1, above the bound 0.75"):
        risk_param_gap(risk, z, np.array([0.0, 2.0]))
    assert abs(risk_param_gap(risk, z, risk_subgradient(risk, z))) <= 1e-12


def test_risk_dual_set_holds_every_measures_own_subgradient():
    # the prefix rule is exact for any sample weights: the measures' own
    # maximizing densities meet it on tied and weighted samples; for one
    # AV@R level it is the cap, and Expectation admits xi = 1 alone
    rng = np.random.default_rng(16)
    for case in range(300):
        m = int(rng.integers(1, 30))
        z = rng.integers(0, 3, size=m).astype(float) if case % 3 == 0 else rng.normal(size=m)
        w = rng.uniform(0.1, 1.0, size=m) if case % 2 else np.ones(m)
        sample = SampledRandomVariable(z, w / w.sum())
        alphas = rng.uniform(0.05, 1.0, size=3)
        for risk in (Expectation(), AVaR(alphas[0]), MixtureAVaR(alphas, [0.2, 0.3, 0.5])):
            xi = risk_subgradient(risk, sample).xi
            assert risk.dual_violation(xi, sample.weight_array()) is None, (case, risk)
    tilted = np.array([1.5, 0.5])
    assert Expectation().dual_violation(tilted, np.full(2, 0.5)) == (
        "xi exceeds the dual density cap 1")
    assert AVaR(0.5).dual_violation(tilted, np.full(2, 0.5)) is None


# ---------------------------------------------------------------------------
# maximization gap


def test_gap_zero_on_singleton_grid():
    prob = toy_problem()
    prob.dyn.control_grid = np.array([[0.25]])
    grid = make_grid(1.0, 3)
    rng = np.random.default_rng(21)
    states = StateEnsemble(grid=grid, values=rng.normal(size=(5, 4, 2)),
                           control=ControlLaw(np.full((3, 1), 0.25)))
    pair = ArrayCostates(rng.normal(size=(5, 4, 2)), rng.normal(size=(5, 3, 2, 1)))
    rep = maximization_gap(prob, states, pair)
    assert rep.max == 0.0 and rep.mean == 0.0 and rep.passed


def test_gap_hand_cells_double_integrator():
    # H = p_y v + p_v u + q_y * noise; only p_v u varies with u on [-1, 1]
    grid = make_grid(1.0, 2)
    states = StateEnsemble(grid=grid, values=np.zeros((2, 3, 2)),
                           control=ControlLaw(np.full((2, 1), -1.0)))
    p = np.zeros((2, 3, 2))
    p[0, :, 1] = 2.0   # max at u=+1: gap = 2*1 - 2*(-1) = 4
    p[1, :, 1] = -3.0  # max at u=-1, candidate already there: gap 0
    pair = ArrayCostates(p, np.zeros((2, 2, 2, 1)))
    rep = maximization_gap(toy_problem(), states, pair)
    # each node keeps one nonzero gap, 4, of its two cells: path 0's, since
    # on its own path 0 keeps a 4 at both nodes and path 1 keeps none
    assert rep.cells == 4
    for g in rep.nonzero:
        np.testing.assert_allclose(g, [4.0])
    for path, kept in ((0, [4.0]), (1, [])):
        one = maximization_gap(toy_problem(), replace(states, values=states.values[path:path + 1]),
                               ArrayCostates(p[path:path + 1], np.zeros((1, 2, 2, 1))))
        assert one.cells == 2
        for g in one.nonzero:
            np.testing.assert_allclose(g, kept)
    assert rep.mean == pytest.approx(2.0)
    assert rep.max == pytest.approx(4.0)
    assert rep.violating_fractions[0.1] == pytest.approx(0.5)
    assert not rep.passed


def test_gap_nonnegative_for_off_grid_candidate():
    grid = make_grid(1.0, 4)
    rng = np.random.default_rng(23)
    states = StateEnsemble(grid=grid, values=rng.normal(size=(30, 5, 2)),
                           control=ControlLaw(rng.uniform(-0.97, 0.97, size=(30, 4, 1))))
    pair = ArrayCostates(rng.normal(size=(30, 5, 2)), rng.normal(size=(30, 4, 2, 1)))
    rep = maximization_gap(toy_problem(), states, pair)
    # every gap kept is positive and every other cell's is exactly 0
    assert rep.cells == 30 * 4 and len(rep.nonzero) == 4
    assert all(g.shape[0] <= 30 and np.all(g > 0.0) for g in rep.nonzero)
    assert rep.grid_points == 21


_cell_gaps = arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=9),
                    elements=st.sampled_from([0.0, 0.01, 0.1, 1.0]) | st.floats(0.0, 50.0))


@settings(max_examples=300, deadline=None)
@given(gaps=_cell_gaps, threshold=st.sampled_from([0.01, 0.5, 1.0]))
@example(gaps=np.zeros((3, 4)), threshold=1.0)
@example(gaps=np.full((3, 4), 0.5), threshold=0.5)
def test_gap_report_matches_the_dense_oracle(gaps, threshold):
    # the report from each node's nonzero gaps, and the CLI's histogram of
    # it, equal the summary of the dense (M, K) array of the same gaps,
    # the all-zero and the all-nonzero array included
    rep = gap_report(iter(gaps.T), grid_points=2, config=CertifyConfig(gap_threshold=threshold))
    fractions, top, counts, edges = dense_gap_summary(gaps, (0.01, 0.1, threshold))
    assert rep.violating_fractions == fractions
    assert rep.max == top
    assert rep.cells == gaps.size
    assert sum(g.size for g in rep.nonzero) == np.count_nonzero(gaps)
    assert rep.mean == math.fsum(gaps.ravel()) / gaps.size == pytest.approx(gaps.mean())
    assert _gap_hist_rows(rep) == [{"bin_lo": lo, "bin_hi": hi, "count": int(c)}
                                   for lo, hi, c in zip(edges[:-1], edges[1:], counts)]


def test_states_without_control_rejected_by_name():
    # linearized solutions and hand-built ensembles carry no control
    grid = make_grid(1.0, 3)
    states = StateEnsemble(grid=grid, values=np.zeros((2, 4, 2)))
    pair = ArrayCostates(np.zeros((2, 4, 2)), np.zeros((2, 3, 2, 1)))
    dyn = toy_problem().dyn
    readers = [lambda: linearization_along(dyn, states),
               lambda: maximization_gap(toy_problem(), states, pair),
               lambda: tangent_from_control(dyn, states, ControlLaw.constant(1.0, 3))]
    for read in readers:
        with pytest.raises(ValueError, match="carries no control"):
            read()


def test_states_without_brownian_rejected_by_name():
    # a hand-built ensemble carries no Brownian ensemble for its readers to use
    grid = make_grid(1.0, 3)
    states = StateEnsemble(grid=grid, values=np.zeros((2, 4, 2)),
                           control=ControlLaw.constant(1.0, 3))
    dyn = toy_problem().dyn
    terminal = assemble_terminal(np.ones(2), np.ones((2, 2)))
    fund = fundamental_matrices(lambda k: np.zeros((1, 2, 2)), None, sample_brownian(grid, 1, 2, 0))
    con = TerminalConstraint(fn=lambda x: x[:, 0], gradient=lambda x: np.ones_like(x))
    g = tangent_from_control(dyn, states, ControlLaw.constant(-1.0, 3))

    def still(k):
        return np.zeros((2, 2)), None

    readers = [lambda: solve_adjoint(dyn, states, terminal, fund),
               lambda: conditional_expectation(np.zeros(2), states, 1),
               lambda: tower_check(np.zeros(2), states),
               lambda: normality_certificate(toy_problem([con]), states, active=[0]),
               lambda: selection_continuity(dyn, states, g, still)]
    for read in readers:
        with pytest.raises(ValueError, match="carries no Brownian ensemble"):
            read()


# ---------------------------------------------------------------------------
# normality search


def scalar_controlled(noise=0.3):
    def drift(t, x, u):
        return u

    def diffusion(t, x, u):
        return np.full((x.shape[0], 1, 1), noise)

    def drift_jac(t, x, u):
        return np.zeros((x.shape[0], 1, 1))

    return DynamicsSpec(
        state_dim=1, control_dim=1, noise_dim=1,
        drift=drift, diffusion=diffusion, drift_jac=drift_jac,
        control_grid=np.linspace(-1.0, 1.0, 5),
    )


def scalar_run(n_steps=20, m_paths=200, seed=31):
    dyn = scalar_controlled()
    grid = make_grid(1.0, n_steps)
    brownian = sample_brownian(grid, 1, m_paths, seed)
    law = ControlLaw(np.zeros((n_steps, 1)))
    states = euler_maruyama(dyn, law, np.zeros(1), brownian)
    return dyn, states


def test_normality_vacuous_without_active_constraints():
    dyn, states = scalar_run()
    prob = ProblemSpec(dyn=dyn, risk=Expectation(),
                       cost=lambda x: x[:, 0], cost_gradient=lambda x: np.ones_like(x),
                       x0=np.zeros(1))
    rep = normality_certificate(prob, states, active=[])
    assert rep.status == "vacuous" and rep.candidates_tried == 0


def test_normality_witness_found_for_one_sided_constraint():
    dyn, states = scalar_run()
    center = float(states.terminal[:, 0].mean())
    con = TerminalConstraint(fn=lambda x: x[:, 0] - center,
                             gradient=lambda x: np.ones_like(x), name="upper")
    prob = ProblemSpec(dyn=dyn, risk=Expectation(),
                       cost=lambda x: x[:, 0], cost_gradient=lambda x: np.ones_like(x),
                       x0=np.zeros(1), constraints=(con,))
    rep = normality_certificate(prob, states, active=[0])
    assert rep.status == "certified"
    assert rep.margins[0] < -1e-3
    assert "constant" in rep.witness or "switch" in rep.witness


def test_normality_tolerance_below_zero_is_refused():
    # with normality_tol < 0 the zero forcing of u = u* would certify on margins of 0
    for bad in (-1e-3, float("nan")):
        with pytest.raises(ValueError, match="normality_tol must be nonnegative"):
            CertifyConfig(normality_tol=bad)


@pytest.mark.parametrize("name", [f.name for f in fields(CertifyConfig)])
def test_certify_config_owns_its_tolerance_ranges(name):
    # normality_tol and violating_measure_tol may be 0; every other field must be positive
    if name in ("normality_tol", "violating_measure_tol"):
        assert getattr(CertifyConfig(**{name: 0.0}), name) == 0.0
        bad, rule = (-1e-3, float("nan")), "nonnegative"
    else:
        bad, rule = (0.0, -1.0, float("nan")), "positive"
    for value in bad:
        with pytest.raises(ValueError, match=f"{name} must be {rule}"):
            CertifyConfig(**{name: value})


def test_normality_not_found_for_pinned_constraint_pair():
    dyn, states = scalar_run()
    center = float(states.terminal[:, 0].mean())
    up = TerminalConstraint(fn=lambda x: x[:, 0] - center,
                            gradient=lambda x: np.ones_like(x))
    down = TerminalConstraint(fn=lambda x: center - x[:, 0],
                              gradient=lambda x: -np.ones_like(x))
    prob = ProblemSpec(dyn=dyn, risk=Expectation(),
                       cost=lambda x: x[:, 0], cost_gradient=lambda x: np.ones_like(x),
                       x0=np.zeros(1), constraints=(up, down))
    rep = normality_certificate(prob, states, active=[0, 1])
    assert rep.status == "not_found"
    assert rep.candidates_tried >= 5


def test_normality_search_holds_no_whole_path():
    # each candidate's y is stepped to y(T) alone, never held over the grid
    m_paths, n_steps = 2000, 200
    dyn = double_integrator()
    grid = make_grid(2.0, n_steps)
    brownian = sample_brownian(grid, 1, m_paths, 41)
    states = euler_maruyama(dyn, ControlLaw(np.zeros((n_steps, 1))), np.zeros(2), brownian)
    center = float(states.terminal[:, 0].mean())
    e_y = np.array([1.0, 0.0])
    up = TerminalConstraint(fn=lambda x: x[:, 0] - center,
                            gradient=lambda x: np.tile(e_y, (len(x), 1)))
    down = TerminalConstraint(fn=lambda x: center - x[:, 0],
                              gradient=lambda x: np.tile(-e_y, (len(x), 1)))
    pinned = ProblemSpec(dyn=dyn, risk=Expectation(), cost=lambda x: x[:, 0],
                         cost_gradient=lambda x: np.ones_like(x), x0=np.zeros(2),
                         constraints=(up, down))
    tracemalloc.start()
    try:
        rep = normality_certificate(pinned, states, active=[0, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.status == "not_found" and rep.candidates_tried == 27
    assert peak < states.values.nbytes

    # the witness is the first certifying candidate in list order, and its
    # margins are those of the whole linearized path's terminal, bit for bit
    for con, index, witness in ((up, 0, "constant u=[-1.]"), (down, 11, "constant u=[0.1]")):
        rep = normality_certificate(replace(pinned, constraints=(con,)), states, active=[0])
        assert rep.status == "certified" and rep.witness == witness
        u = np.tile(dyn.control_grid[index], (n_steps, 1))
        g = tangent_from_control(dyn, states, ControlLaw(u))
        y_T = solve_linearized(*linearization_along(dyn, states), g, brownian).terminal
        assert np.array_equal(rep.margins, [np.mean(np.einsum(
            "pn,pn->p", con.gradient(states.terminal), y_T))])


def test_normality_search_on_the_cubic_double_integrator_tries_its_vertices():
    # the library's plant declares its two vertices, so the search tries 2
    # constants and 6 single switches; u* switches +1 -> -1 halfway
    m_paths, n_steps = 1000, 40
    dyn = double_integrator_dynamics(cubic=0.5)
    grid = make_grid(2.0, n_steps)
    u_star = np.where(np.arange(n_steps) < n_steps // 2, 1.0, -1.0)[:, None]
    states = euler_maruyama(dyn, ControlLaw(u_star), np.zeros(2),
                            sample_brownian(grid, 1, m_paths, 41))
    center = float(states.terminal[:, 0].mean())
    e_y = np.array([1.0, 0.0])
    up = TerminalConstraint(fn=lambda x: x[:, 0] - center,
                            gradient=lambda x: np.tile(e_y, (len(x), 1)))
    down = TerminalConstraint(fn=lambda x: center - x[:, 0],
                              gradient=lambda x: np.tile(-e_y, (len(x), 1)))
    pinned = ProblemSpec(dyn=dyn, risk=Expectation(), cost=lambda x: x[:, 0],
                         cost_gradient=lambda x: np.ones_like(x), x0=np.zeros(2),
                         constraints=(up, down))
    rep = normality_certificate(pinned, states, active=[0, 1])
    assert rep.status == "not_found" and rep.candidates_tried == 8
    rep = normality_certificate(replace(pinned, constraints=(down,)), states, active=[0])
    assert rep.status == "certified" and rep.witness == "constant u=[1.]"
    assert rep.margins[0] < -0.1


# ---------------------------------------------------------------------------
# end-to-end certification on the linear-quadratic benchmark
#
# dx = u dt + sigma dW, dz = u^2/2 dt, cost E[c x(T)^2 / 2 + z(T)].  The
# optimal feedback is u = -P(t) x with P(t) = c / (1 + c (T - t)), the
# costate is p_x(t) = -P(t) x(t), p_z = -1, and q_x = -P(t) sigma.


LQ_C = 1.0
LQ_SIGMA = 0.5
LQ_T = 1.0


def lq_gain(t):
    return LQ_C / (1.0 + LQ_C * (LQ_T - t))


@pytest.fixture(scope="module")
def lq_solution():
    n_steps, m_paths, seed = 50, 4000, 20260811
    def drift(t, x, u):
        return np.stack([u[:, 0], 0.5 * u[:, 0] ** 2], axis=1)

    def diffusion(t, x, u):
        s = np.zeros((x.shape[0], 2, 1))
        s[:, 0, 0] = LQ_SIGMA
        return s

    def drift_jac(t, x, u):
        return np.zeros((x.shape[0], 2, 2))

    dyn = DynamicsSpec(state_dim=2, control_dim=1, noise_dim=1,
                       drift=drift, diffusion=diffusion, drift_jac=drift_jac,
                       control_grid=np.linspace(-3.0, 3.0, 61))
    grid = make_grid(LQ_T, n_steps)
    brownian = sample_brownian(grid, 1, m_paths, seed)
    feedback = FeedbackLaw(lambda k, x, w: -lq_gain(grid.nodes[k]) * x[:, :1], dim=1)
    states = euler_maruyama(dyn, feedback, np.array([1.0, 0.0]), brownian)

    cost = lambda x: 0.5 * LQ_C * x[:, 0] ** 2 + x[:, 1]
    cost_grad = lambda x: np.stack([LQ_C * x[:, 0], np.ones(x.shape[0])], axis=1)
    risk = Expectation()
    xi = risk_subgradient(risk, cost(states.terminal))
    terminal = assemble_terminal(xi, cost_grad(states.terminal))
    a_fn, d_fn = linearization_along(dyn, states)
    fund = fundamental_matrices(a_fn, d_fn, brownian)
    costates = solve_adjoint(dyn, states, terminal, fund)

    problem = ProblemSpec(dyn=dyn, risk=risk, cost=cost, cost_gradient=cost_grad,
                          x0=np.array([1.0, 0.0]))
    bundle = CandidateBundle(states=states, costates=costates)
    return problem, bundle


def test_lq_costates_match_riccati(lq_solution):
    problem, bundle = lq_solution
    nodes = bundle.states.grid.nodes
    x = bundle.states.values
    p, q = bundle.costates.span()
    # p_z is the fitted projection of the constant -1; the ridge damping
    # redistributes a little mass across near-collinear columns, so the
    # recovery is only good to ~1e-4 rather than float precision
    assert np.max(np.abs(p[:, :, 1] + 1.0)) <= 5e-4
    checks = range(5, 46, 10)
    for k in checks:
        ref = -lq_gain(nodes[k]) * x[:, k, 0]
        err = np.sqrt(np.mean((p[:, k, 0] - ref) ** 2))
        scale = np.sqrt(np.mean(ref**2))
        assert err <= 0.05 * scale, f"p_x off at node {k}: {err:.4f} vs {scale:.4f}"
    # the increment regression is much noisier than the level fit, so the
    # q recovery only gets a 25% envelope at this ensemble size
    for k in checks:
        ref = -lq_gain(nodes[k]) * LQ_SIGMA
        err = abs(np.mean(q[:, k, 0, 0]) - ref)
        assert err <= 0.25 * abs(ref), f"q_x off at node {k}: {err:.4f}"
        assert abs(np.mean(q[:, k, 1, 0])) <= 0.05


def test_lq_certificate_passes(lq_solution):
    problem, bundle = lq_solution
    cfg = CertifyConfig(bsde_residual_bound=0.05)
    cert, gaps = certify(problem, bundle, cfg)
    assert cert.verdict == "pass", cert.causes
    assert cert.conditions["risk_parameter"]["gap"] == 0.0
    assert cert.conditions["maximization"]["violating_fractions"][0.1] == 0.0
    assert gaps.mean <= 0.01
    assert cert.active_set == []
    assert cert.conditions["normality"]["detail"] == "vacuous"


def test_lq_certificate_deterministic(lq_solution):
    problem, bundle = lq_solution
    cfg = CertifyConfig(bsde_residual_bound=0.05)
    one, _ = certify(problem, bundle, cfg)
    two, _ = certify(problem, bundle, cfg)
    assert json.dumps(one.as_dict(), sort_keys=True) == json.dumps(two.as_dict(), sort_keys=True)
    parsed = json.loads(json.dumps(one.as_dict()))
    assert parsed["version"] == "pmp_certificate_v1"


def test_tolerances_stanza_reports_every_config_field():
    # one distinct value per field, so each field is found by its value
    values = {f.name: float(i + 2) for i, f in enumerate(fields(CertifyConfig))}
    cert = PmpCertificate(verdict="pass", conditions={}, causes=[], active_set=[],
                          multipliers=(-1.0,), config=CertifyConfig(**values))
    stanza = cert.as_dict()["tolerances"]
    assert sorted(stanza.values()) == sorted(values.values())


def test_lq_flipped_control_fails_maximization(lq_solution):
    problem, bundle = lq_solution
    flipped = CandidateBundle(
        states=replace(bundle.states, control=ControlLaw(-bundle.states.control.values)),
        costates=bundle.costates,
    )
    cfg = CertifyConfig(bsde_residual_bound=0.05)
    cert, gaps = certify(problem, flipped, cfg)
    assert cert.verdict == "fail"
    assert cert.conditions["maximization"]["status"] == "fail"
    assert gaps.violating_fractions[0.1] > 0.3
    assert any("maximization" in c or "Hamiltonian" in c for c in cert.causes)


def test_lq_tiny_bsde_bound_turns_inconclusive(lq_solution):
    problem, bundle = lq_solution
    cert, _ = certify(problem, bundle, CertifyConfig(bsde_residual_bound=1e-12))
    assert cert.verdict == "inconclusive"
    assert cert.conditions["adjoint_residual"]["status"] == "inconclusive"
    assert cert.conditions["maximization"]["status"] == "pass"
    assert any("residual" in c for c in cert.causes)


def test_certificate_monotone_in_tolerances(lq_solution):
    problem, bundle = lq_solution
    flipped = CandidateBundle(
        states=replace(bundle.states, control=ControlLaw(-bundle.states.control.values)),
        costates=bundle.costates,
    )
    rank = {"pass": 2, "inconclusive": 1, "fail": 0}
    loose = CertifyConfig(bsde_residual_bound=10.0, gap_threshold=50.0,
                          violating_measure_tol=1.0)
    tight = CertifyConfig(bsde_residual_bound=0.05)
    tighter = CertifyConfig(bsde_residual_bound=0.05, gap_threshold=1e-9,
                            violating_measure_tol=0.0)
    for bun in (bundle, flipped):
        verdicts = [certify(problem, bun, cfg)[0].verdict for cfg in (loose, tight, tighter)]
        ranks = [rank[v] for v in verdicts]
        assert ranks == sorted(ranks, reverse=True), verdicts


def test_gradient_probe_rejects_wrong_gradient(lq_solution):
    problem, bundle = lq_solution
    bad = ProblemSpec(dyn=problem.dyn, risk=problem.risk, cost=problem.cost,
                      cost_gradient=lambda x: np.zeros_like(x), x0=problem.x0)
    with pytest.raises(ValueError, match="gradient"):
        certify(bad, bundle, CertifyConfig(bsde_residual_bound=0.05))


def test_jacobian_probe_rejects_wrong_drift_jacobian():
    # a drift Jacobian of zeros would corrupt p and q silently; certify
    # probes it on the gradient probe's paths at the last step
    instance = SopInstance(0.0, 0.0, 1.0, 1.0, 0.3)
    grid = make_grid(1.0, 10)
    sol = assemble_solution(instance, np.full((10, 1), 0.5), sample_brownian(grid, 1, 50, seed=3))
    zeros = replace(sol.problem.dyn, drift_jac=lambda t, x, u: np.zeros((x.shape[0], 2, 2)))
    with pytest.raises(ValueError, match="drift_jac disagrees with finite differences"):
        certify(replace(sol.problem, dyn=zeros), sol)
    certify(sol.problem, sol)
