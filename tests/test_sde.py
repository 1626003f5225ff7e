import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from riskpmp import sde
from riskpmp.rng import ensemble_normals
from riskpmp.sde import (
    BrownianEnsemble,
    BrownianSource,
    ControlLaw,
    DynamicsSpec,
    FeedbackLaw,
    MissingClosedFormError,
    _linear_step,
    double_integrator_dynamics,
    euler_maruyama,
    fundamental_matrices,
    make_grid,
    sample_brownian,
    scalar_linear_dynamics,
    solve_linearized,
    strong_convergence_order,
    validate_n_paths,
)


@pytest.mark.parametrize("call, message", [
    (lambda: make_grid(1.0, 2.5), "n_steps must be a positive integer, got 2.5"),
    (lambda: make_grid(1.0, np.float64(3.9)), "n_steps must be a positive integer, got 3.9"),
    (lambda: sample_brownian(make_grid(1.0, 4), 1, 2.5, seed=1),
     "n_paths must be a positive integer, got 2.5"),
    (lambda: strong_convergence_order(scalar_linear_dynamics(1.0, 0.5), [1.0], 1.0, [4.5, 8],
                                      10, 1),
     "n_steps_levels: level must be a positive integer, got 4.5"),
    (lambda: make_grid(1.0, True), "n_steps must be a positive integer, got bool True"),
    (lambda: validate_n_paths("3"), "n_paths must be a positive integer, got str '3'"),
])
def test_counts_that_are_not_integers_are_refused_by_name(call, message):
    # a float count used to be truncated: 2.5 steps ran as 2, levels [4.5, 8] as (4, 8);
    # True ran as a 1-step grid, and "3" paths raised a bare TypeError
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
    assert make_grid(1.0, np.int64(4)).n_steps == 4


def test_make_grid_nodes():
    grid = make_grid(1.0, 4)
    np.testing.assert_allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.dt == 0.25


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(0.0, 4)
    with pytest.raises(ValueError):
        make_grid(1.0, 0)


# ---------------------------------------------------------------------------
# Brownian ensemble


def test_brownian_levels_start_at_zero_and_cumulate():
    ens = sample_brownian(make_grid(1.0, 16), dim=2, n_paths=50, seed=7)
    lev = ens.levels()
    assert lev.shape == (50, 17, 2)
    np.testing.assert_array_equal(lev[:, 0], 0.0)
    np.testing.assert_allclose(lev[:, -1], ens.increments.sum(axis=1))


def test_brownian_terminal_is_the_last_level_bit_for_bit():
    # W(T) is the running sum a FeedbackLaw reads at the last node; a pairwise
    # sum over the steps differs from it in the last bits
    ens = sample_brownian(make_grid(2.0, 100), dim=1, n_paths=1000, seed=42)
    assert np.array_equal(ens.terminal(), ens.levels()[:, -1])
    # node by node, the running sum is every level, byte for byte
    assert np.stack(list(ens.running_levels()), axis=1).tobytes() == ens.levels().tobytes()


def test_brownian_bit_exact_reproducible():
    a = sample_brownian(make_grid(2.0, 32), dim=1, n_paths=20, seed=123)
    b = sample_brownian(make_grid(2.0, 32), dim=1, n_paths=20, seed=123)
    np.testing.assert_array_equal(a.increments, b.increments)
    c = sample_brownian(make_grid(2.0, 32), dim=1, n_paths=20, seed=124)
    assert not np.array_equal(a.increments, c.increments)


def test_brownian_increments_are_scaled_normals_bit_for_bit():
    grid = make_grid(2.0, 30)
    ens = sample_brownian(grid, dim=2, n_paths=40, seed=17, path_offset=5)
    z = ensemble_normals(17, 40, 30 * 2, path_offset=5)
    expected = (math.sqrt(grid.dt) * z).reshape(40, 30, 2)
    assert np.array_equal(ens.increments.view(np.uint64), expected.view(np.uint64))


def test_brownian_path_offset_matches_slice():
    # streaming paths [64, 96) must reproduce the slice of the full ensemble
    full = sample_brownian(make_grid(1.0, 10), dim=3, n_paths=128, seed=9)
    part = sample_brownian(make_grid(1.0, 10), dim=3, n_paths=32, seed=9, path_offset=64)
    np.testing.assert_array_equal(part.increments, full.increments[64:96])


def test_brownian_increment_moments():
    grid = make_grid(1.0, 8)
    ens = sample_brownian(grid, dim=1, n_paths=40000, seed=11)
    inc = ens.increments[:, :, 0]
    se_mean = np.sqrt(grid.dt) / np.sqrt(inc.shape[0])
    assert np.abs(inc.mean(axis=0)).max() < 5 * se_mean
    np.testing.assert_allclose(inc.var(axis=0), grid.dt, rtol=0.05)
    # distinct steps decorrelated
    corr = np.corrcoef(inc.T)
    off_diag = corr[~np.eye(8, dtype=bool)]
    assert np.abs(off_diag).max() < 0.03


def test_brownian_coarsen_is_exact_aggregation():
    ens = sample_brownian(make_grid(1.0, 12), dim=2, n_paths=5, seed=3)
    coarse = ens.coarsen(3)
    assert coarse.grid.n_steps == 4
    np.testing.assert_allclose(
        coarse.increments, ens.increments.reshape(5, 4, 3, 2).sum(axis=2)
    )
    np.testing.assert_allclose(coarse.terminal(), ens.terminal())


def test_seed_validation():
    with pytest.raises(ValueError):
        sample_brownian(make_grid(1.0, 4), 1, 2, seed=-1)
    with pytest.raises(ValueError):
        sample_brownian(make_grid(1.0, 4), 1, 2, seed=2**64)
    with pytest.raises(TypeError):
        sample_brownian(make_grid(1.0, 4), 1, 2, seed=1.5)


# ---------------------------------------------------------------------------
# Euler-Maruyama


def _driftless_gbm(noise_coef):
    return scalar_linear_dynamics(0.0, noise_coef)


def test_euler_maruyama_deterministic_ode_limit():
    # zero diffusion: integrator reduces to explicit Euler for x' = a x
    dyn = scalar_linear_dynamics(1.0, 0.0)
    grid = make_grid(1.0, 2000)
    ens = sample_brownian(grid, 1, 8, seed=1)
    law = ControlLaw(np.zeros((2000, 0)))
    states = euler_maruyama(dyn, law, np.array([1.0]), ens)
    np.testing.assert_allclose(states.terminal, np.e, rtol=2e-3)
    spread = states.terminal.max() - states.terminal.min()
    assert spread == 0.0  # noise must not enter


def test_euler_maruyama_martingale_property_large_ensemble():
    # dx = 0.5 x dW keeps E[x(T)] = 1 exactly; M = 1e5 streamed in path blocks
    dyn = _driftless_gbm(0.5)
    grid = make_grid(1.0, 1000)
    law = ControlLaw(np.zeros((1000, 0)))
    block, n_blocks = 10000, 10
    terminals = []
    for i in range(n_blocks):
        ens = sample_brownian(grid, 1, block, seed=2024, path_offset=i * block)
        terminals.append(euler_maruyama(dyn, law, np.array([1.0]), ens).terminal[:, 0])
    x_t = np.concatenate(terminals)
    stderr = x_t.std(ddof=1) / np.sqrt(x_t.size)
    assert abs(x_t.mean() - 1.0) <= 5 * stderr


def test_euler_maruyama_aborts_exploding_paths_with_diagnostic():
    def drift(t, x, u):
        return x**3

    def diffusion(t, x, u):
        return np.zeros((x.shape[0], 1, 1))

    dyn = DynamicsSpec(state_dim=1, control_dim=0, noise_dim=1,
                       drift=drift, diffusion=diffusion)
    grid = make_grid(1.0, 50)
    ens = sample_brownian(grid, 1, 4, seed=5)
    with pytest.warns(RuntimeWarning, match="non-finite"):
        states = euler_maruyama(dyn, ControlLaw(np.zeros((50, 0))), np.array([10.0]), ens)
    assert len(states.failed_paths) == 4
    first_bad = states.first_failure[0]
    assert first_bad > 0
    assert np.isnan(states.values[0, first_bad:]).all()
    assert np.isfinite(states.values[0, :first_bad]).all()


def test_euler_maruyama_feedback_law_records_controls():
    # dx = u dt with u = -x: discrete decay (1 - dt)^k
    def drift(t, x, u):
        return u

    def diffusion(t, x, u):
        return np.zeros((x.shape[0], 1, 1))

    dyn = DynamicsSpec(state_dim=1, control_dim=1, noise_dim=1,
                       drift=drift, diffusion=diffusion)
    grid = make_grid(1.0, 100)
    ens = sample_brownian(grid, 1, 3, seed=8)
    law = FeedbackLaw(lambda k, x, w: -x, dim=1)
    states = euler_maruyama(dyn, law, np.array([2.0]), ens)
    realized = states.control
    expected = 2.0 * (1 - grid.dt) ** 100
    np.testing.assert_allclose(states.terminal[:, 0], expected)
    np.testing.assert_allclose(realized.values[:, 0, 0], -2.0)
    assert realized.values.shape == (3, 100, 1)


def test_euler_maruyama_states_carry_their_control():
    # a feedback law's realized controls: test_euler_maruyama_feedback_law_records_controls
    dyn = double_integrator_dynamics()
    grid = make_grid(1.0, 20)
    ens = sample_brownian(grid, 1, 4, seed=3)
    law = ControlLaw.constant(0.5, 20)
    assert euler_maruyama(dyn, law, np.zeros(2), ens).control is law
    values = np.linspace(-1.0, 1.0, 20)[:, None]
    np.testing.assert_array_equal(euler_maruyama(dyn, values, np.zeros(2), ens).control.values,
                                  values)


@pytest.mark.parametrize("values", [np.linspace(-1.0, 1.0, 12).reshape(6, 2),
                                    np.linspace(-1.0, 1.0, 12).reshape(2, 6).T])
def test_control_law_at_is_the_broadcast_of_each_step(values):
    # a deterministic law indexes one broadcast per path count: the same
    # values, strides and read-only view that a broadcast of the step gives
    law = ControlLaw(values)
    for n_paths in (5, 1, 5, 3):
        for k in range(6):
            got, want = law.at(k, n_paths), np.broadcast_to(values[k], (n_paths, 2))
            np.testing.assert_array_equal(got, want)
            assert got.strides == want.strides and not got.flags.writeable
    per_path = ControlLaw(np.arange(24.0).reshape(2, 6, 2))
    np.testing.assert_array_equal(per_path.at(4, 2), per_path.values[:, 4])


@settings(max_examples=300, deadline=None)
@given(lo=st.integers(0, 200), size=st.integers(0, 300), block=st.integers(1, 80))
def test_source_blocks_are_the_fewest_near_equal_blocks_in_order(lo, size, block):
    hi, grid = lo + size, make_grid(1.0, 1)
    source = BrownianSource(grid, 1, max(hi, 1), 5, block)
    blocks = list(source.blocks(lo, hi))
    sizes = [b.n_paths for b in blocks]
    assert len(sizes) == -(-size // block)
    if sizes:
        assert max(sizes) <= block and max(sizes) - min(sizes) <= 1
    # each block is drawn at its path offset, so in order they are the slice
    whole = sample_brownian(grid, 1, max(hi, 1), 5).increments[lo:hi]
    assert np.array_equal(np.concatenate([b.increments for b in blocks] + [whole[:0]]), whole)


def test_euler_maruyama_rejects_feedback_callable():
    # a bare function is not a control; feedback enters as a FeedbackLaw
    dyn = double_integrator_dynamics()
    ens = sample_brownian(make_grid(1.0, 4), 1, 5, seed=2)
    with pytest.raises(TypeError, match="FeedbackLaw"):
        euler_maruyama(dyn, lambda t, x: 0.0, np.zeros(2), ens)


def test_feedback_law_sees_brownian_levels():
    # u = W_k records the Brownian value at each step's left node
    dyn = double_integrator_dynamics()
    grid = make_grid(1.0, 40)
    ens = sample_brownian(grid, 1, 6, seed=9)
    law = FeedbackLaw(lambda k, x, w: w, dim=1)
    realized = euler_maruyama(dyn, law, np.zeros(2), ens).control
    np.testing.assert_array_equal(realized.values, ens.levels()[:, :-1])


def test_euler_maruyama_mixed_abort_leaves_survivors_untouched():
    def drift(t, x, u):
        return x**3

    def diffusion(t, x, u):
        return np.full((x.shape[0], 1, 1), 0.1)

    dyn = DynamicsSpec(state_dim=1, control_dim=0, noise_dim=1,
                       drift=drift, diffusion=diffusion)
    grid = make_grid(1.0, 50)
    law = ControlLaw(np.zeros((50, 0)))
    x0 = np.array([[0.2], [10.0], [-0.1]])
    with pytest.warns(RuntimeWarning, match="1 path"):
        states = euler_maruyama(dyn, law, x0, sample_brownian(grid, 1, 3, seed=5))
    survivors = [0, 2]
    alone = [euler_maruyama(dyn, law, x0[p], sample_brownian(grid, 1, 1, seed=5, path_offset=p))
             for p in survivors]
    assert states.failed_paths.tolist() == [1]
    for p, run in zip(survivors, alone):
        assert run.failed_paths.size == 0
        np.testing.assert_array_equal(states.values[p], run.values[0])
    first_bad = states.first_failure[1]
    assert first_bad > 0
    assert np.isnan(states.values[1, first_bad:]).all()
    assert np.isfinite(states.values[1, :first_bad]).all()


def test_euler_maruyama_over_source_blocks_and_workers_equals_one_pass(monkeypatch):
    # a source drawn in blocks of 1, 7 or 59 (a ragged 1 after it) and run on
    # 1, 2 or 3 workers (forked spans of 20, cut into 7, 7 and a ragged 6)
    # integrates every path as one pass over the held ensemble does: a
    # per-path x0 and control are sliced to each block, and the paths that
    # abort, in three spans, are named in one warning after the join
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    m_paths, grid, seed = 60, make_grid(2.0, 20), 6
    dyn = double_integrator_dynamics(cubic=0.5)
    rng = np.random.default_rng(4)
    x0 = rng.normal(scale=0.5, size=(m_paths, 2))
    x0[[3, 25, 26, 58], 0] = 1e3  # the explicit step overshoots the cubic drift into overflow
    laws = [ControlLaw(rng.uniform(-1.0, 1.0, size=(m_paths, 20, 1))),
            FeedbackLaw(lambda k, x, w: np.clip(w - x[:, 1:], -1.0, 1.0), dim=1)]
    bm = sample_brownian(grid, 1, m_paths, seed)
    for law in laws:
        with pytest.warns(RuntimeWarning) as record:
            whole = euler_maruyama(dyn, law, x0, bm)
        message = [str(w.message) for w in record]
        assert message[0].startswith("4 path(s) aborted") and len(message) == 1
        assert whole.brownian is bm
        for block in (1, 7, m_paths - 1):
            source = BrownianSource(grid, 1, m_paths, seed, block)
            for workers in (1, 2, 3):
                with pytest.warns(RuntimeWarning) as record:
                    run = euler_maruyama(dyn, law, x0, source, workers)
                assert [str(w.message) for w in record] == message, (block, workers)
                np.testing.assert_array_equal(run.values, whole.values)
                np.testing.assert_array_equal(run.first_failure, whole.first_failure)
                np.testing.assert_array_equal(run.control.values, whole.control.values)
                assert run.brownian is None  # a source is drawn, not held

    # every input rule runs before a normal is drawn
    draws = []

    def counting(*args, sample_brownian=sde.sample_brownian, **kwargs):
        draws.append(args)
        return sample_brownian(*args, **kwargs)

    monkeypatch.setattr(sde, "sample_brownian", counting)
    source = BrownianSource(grid, 1, m_paths, seed, block=7)
    refusals = [
        (laws[0], x0[:5], source, ValueError,
         r"x0 has shape \(5, 2\); the Brownian paths need \(60, 2\)"),
        (ControlLaw.constant([0.5, 0.5], 20), x0, source, ValueError,
         "control has width 2; the dynamics take control_dim 1"),
        (ControlLaw(laws[0].values[:9]), x0, source, ValueError,
         r"control has shape \(9, 20, 1\); the Brownian paths need \(60, 20, 1\)"),
        (laws[1], x0, [bm], TypeError,
         "brownian must be a BrownianEnsemble or a BrownianSource, got list$"),
        (laws[1], np.zeros(2), BrownianEnsemble(grid, np.zeros((0, 20, 1))), ValueError,
         "the Brownian ensemble holds no paths"),
    ]
    for law, start, brownian, error, match in refusals:
        for workers in (1, 2):
            with pytest.raises(error, match=match):
                euler_maruyama(dyn, law, start, brownian, workers)
    with pytest.raises(ValueError, match="workers must be a positive integer, got 0"):
        euler_maruyama(dyn, laws[0], x0, source, 0)
    assert draws == []
    with pytest.warns(RuntimeWarning, match=r"^4 path\(s\) aborted"):
        euler_maruyama(dyn, laws[0], x0, source)
    assert [args[2] for args in draws] == [7] * 6 + [6] * 3  # 9 near-equal blocks of 60


# ---------------------------------------------------------------------------
# linearized dynamics


def _random_linear_inputs(rng, n_paths, n_steps, n, d):
    A = rng.normal(scale=0.5, size=(n_steps, n, n))
    D = rng.normal(scale=0.3, size=(n_steps, d, n, n))
    g1 = rng.normal(size=(1, n_steps, n))
    g2 = rng.normal(size=(1, n_steps, n, d))
    return lambda k: A[k][None], lambda k: D[k][None], g1, g2


def _forcing(g1, g2=None):
    """The forcing accessor over (M or 1, K, n) and (M or 1, K, n, d) arrays."""
    return lambda k: (g1[:, k], None if g2 is None else g2[:, k])


def test_solve_linearized_zero_inputs_stay_zero():
    ens = sample_brownian(make_grid(1.0, 30), 2, 10, seed=2)
    A, D, g1, g2 = _random_linear_inputs(np.random.default_rng(0), 10, 30, 3, 2)
    y = solve_linearized(A, D, _forcing(np.zeros((1, 30, 3)), np.zeros((1, 30, 3, 2))), ens)
    np.testing.assert_array_equal(y.values, 0.0)


def test_solve_linearized_linear_in_forcing_and_initial_condition():
    ens = sample_brownian(make_grid(1.0, 30), 2, 16, seed=14)
    rng = np.random.default_rng(5)
    A, D, g1, g2 = _random_linear_inputs(rng, 16, 30, 3, 2)
    h1 = rng.normal(size=(1, 30, 3))
    h2 = rng.normal(size=(1, 30, 3, 2))
    y0a = rng.normal(size=3)
    y0b = rng.normal(size=3)
    ya = solve_linearized(A, D, _forcing(g1, g2), ens, y0=y0a).values
    yb = solve_linearized(A, D, _forcing(h1, h2), ens, y0=y0b).values
    for lam in (0.25, 1.7, -0.4):
        mix = solve_linearized(
            A, D, _forcing(g1 + lam * h1, g2 + lam * h2), ens, y0=y0a + lam * y0b
        ).values
        np.testing.assert_allclose(mix, ya + lam * yb, rtol=1e-10, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    lam=st.floats(min_value=-3, max_value=3, allow_nan=False),
)
def test_solve_linearized_superposition_property(seed, lam):
    ens = sample_brownian(make_grid(0.5, 12), 1, 6, seed=99)
    rng = np.random.default_rng(seed)
    A, D, g1, g2 = _random_linear_inputs(rng, 6, 12, 2, 1)
    h1 = rng.normal(size=(1, 12, 2))
    ya = solve_linearized(A, D, _forcing(g1, g2), ens).values
    yb = solve_linearized(A, D, _forcing(h1), ens).values
    mix = solve_linearized(A, D, _forcing(g1 + lam * h1, g2), ens).values
    np.testing.assert_allclose(mix, ya + lam * yb, rtol=1e-9, atol=1e-9)


def _zero_a(k):
    return np.zeros((1, 2, 2))


def test_linear_solvers_refuse_a_per_path_array():
    # with M = K = 8 an (M, n, n) array reads exactly like a (K, n, n) series
    ens = sample_brownian(make_grid(1.0, 8), 1, 8, seed=3)
    per_path = np.zeros((8, 2, 2))
    for solve in (lambda: fundamental_matrices(per_path, None, ens),
                  lambda: solve_linearized(per_path, None, None, ens),
                  lambda: fundamental_matrices(_zero_a, per_path, ens)):
        with pytest.raises(TypeError, match=r"expected A, D: callables k -> \(M or 1, n, n\)"):
            solve()


def test_linear_solvers_refuse_a_time_series_forcing():
    ens = sample_brownian(make_grid(1.0, 8), 1, 8, seed=3)
    series = np.ones((8, 2))  # (K, n): no path axis
    for solve in (solve_linearized, representation_formula_check):
        with pytest.raises(TypeError, match=r"g: callable k -> \(\(M or 1, n\)"):
            solve(_zero_a, None, series, ens)
        with pytest.raises(ValueError, match=r"g1 has shape \(2,\) at step 0.*\(M or 1, n\)"):
            solve(_zero_a, None, lambda k: (series[k], None), ens)
    with pytest.raises(ValueError, match=r"g2 has shape \(1, 2\) at step 0.*\(M or 1, n, d\)"):
        solve_linearized(_zero_a, None, lambda k: (None, np.ones((1, 2))), ens)


def test_solve_linearized_gives_each_path_its_own_forcing():
    ens = sample_brownian(make_grid(1.0, 8), 1, 8, seed=3)
    g1 = np.random.default_rng(4).normal(size=(8, 8, 2))
    y = solve_linearized(_zero_a, None, _forcing(g1), ens).values
    np.testing.assert_allclose(y[:, -1], g1.sum(axis=1) * ens.grid.dt, rtol=1e-12)


@pytest.mark.parametrize("n, d", [(2, 1), (3, 2)])
def test_linear_step_sums_match_einsum(n, d):
    # A y as sums over the short axis: equal bit for bit to the einsum when
    # two terms are summed (the double integrator), and within 1e-12
    # relative for longer axes; A may be shared by the paths
    rng = np.random.default_rng(n * 10 + d)
    y, g1 = rng.normal(size=(2, 500, n))
    dw = rng.normal(size=(500, d))
    for a in (rng.normal(size=(500, n, n)), rng.normal(size=(1, n, n))):
        got = _linear_step(y, a, None, g1, None, 0.01, dw)
        want = y + (np.einsum("...ij,...j->...i", a, y) + g1) * 0.01
        if n <= 2:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# fundamental matrices


def test_fundamental_matrices_scalar_closed_form():
    # dphi = a phi dt + b phi dW has the explicit Euler product form
    ens = sample_brownian(make_grid(1.0, 64), 1, 12, seed=33)
    a, b = 0.7, 0.4
    A = lambda k: np.full((1, 1, 1), a)
    D = lambda k: np.full((1, 1, 1, 1), b)
    fund = fundamental_matrices(A, D, ens)
    inc = ens.increments[:, :, 0]
    prod = np.cumprod(1.0 + a * ens.grid.dt + b * inc, axis=1)
    np.testing.assert_allclose(fund.phi[:, 1:, 0, 0], prod, rtol=1e-12)
    prod_inv = np.cumprod(1.0 - (a - b * b) * ens.grid.dt - b * inc, axis=1)
    np.testing.assert_allclose(fund.psi[:, 1:, 0, 0], prod_inv, rtol=1e-12)


def test_fundamental_matrices_inverse_identity_tightens_with_refinement():
    a, b = 1.0, 0.5
    A = lambda k: np.full((1, 1, 1), a)
    D = lambda k: np.full((1, 1, 1, 1), b)
    errors = {}
    for k in (250, 1000, 4000):
        ens = sample_brownian(make_grid(1.0, k), 1, 200, seed=77)
        errors[k] = fundamental_matrices(A, D, ens).inverse_error
    assert errors[4000] < errors[1000] < errors[250]
    assert errors[4000] <= 0.05


def test_fundamental_matrices_deterministic_is_exact_inverse_for_nilpotent():
    # A = [[0, 1], [0, 0]] is nilpotent: Euler flow and inverse compose exactly
    ens = sample_brownian(make_grid(2.0, 32), 1, 4, seed=2)
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    fund = fundamental_matrices(lambda k: A[None], None, ens)
    assert fund.phi.shape[0] == 1
    assert fund.inverse_error < 1e-13
    np.testing.assert_allclose(fund.phi[0, -1], [[1.0, 2.0], [0.0, 1.0]], atol=1e-12)


def test_fundamental_matrices_tolerance_raises():
    from riskpmp.sde import FundamentalMatrixError

    ens = sample_brownian(make_grid(1.0, 8), 1, 50, seed=4)
    A = lambda k: np.full((1, 1, 1), 2.0)
    D = lambda k: np.full((1, 1, 1, 1), 1.0)
    with pytest.raises(FundamentalMatrixError, match="node"):
        fundamental_matrices(A, D, ens, tol=1e-6)


# ---------------------------------------------------------------------------
# representation formula


def representation_formula_check(A, D, g, brownian):
    """Oracle for the fundamental pair: sup-norm discrepancy between the
    directly integrated linearized solution and its variation-of-constants
    representation

        y(t) = phi(t) [ int_0^t psi (g1 - sum_i D_i g2^i) ds
                        + sum_i int_0^t psi g2^i dW^i ],

    both sides discretized on the shared grid.  The coefficients follow
    solve_linearized's convention.
    """
    n_paths, n_steps, d = brownian.increments.shape
    direct = solve_linearized(A, D, g, brownian).values
    fund = fundamental_matrices(A, D, brownian)
    n = direct.shape[2]

    acc = np.zeros((n_paths, n))
    dt = brownian.grid.dt
    sup_err = 0.0
    for k in range(n_steps):
        psi_k = fund.psi[:, k]
        g1, g2 = g(k)
        integrand = np.zeros((n_paths, n))
        if g1 is not None:
            integrand = integrand + g1
        if g2 is not None and D is not None:
            integrand = integrand - np.einsum("...dnm,...md->...n", D(k), g2)
        acc = acc + np.einsum("...nm,...m->...n", psi_k, integrand) * dt
        if g2 is not None:
            psig2 = np.einsum("...nm,...md->...nd", psi_k, g2)
            acc = acc + np.einsum(
                "pnd,pd->pn",
                np.broadcast_to(psig2, (n_paths, n, d)),
                brownian.increments[:, k],
            )
        formula = np.einsum("...nm,...m->...n", fund.phi[:, k + 1], acc)
        sup_err = max(sup_err, float(np.abs(direct[:, k + 1] - formula).max()))
    return sup_err


def test_representation_formula_deterministic_ode_oracle():
    # Oracle: with D = 0 and deterministic coefficients the formula
    # y(t) = phi(t) int_0^t psi(s) g1(s) ds is an identity for the exact flow.
    # Solve the joint ODE for (y, phi, psi, I) with tight tolerances and
    # compare the two sides; no Euler machinery involved.
    def a_mat(t):
        return np.array([[0.0, 1.0], [-2.0, -0.3 * np.cos(t)]])

    def g_vec(t):
        return np.array([np.sin(t), 1.0])

    def rhs(t, z):
        y = z[0:2]
        phi = z[2:6].reshape(2, 2)
        psi = z[6:10].reshape(2, 2)
        integral = z[10:12]
        a = a_mat(t)
        return np.concatenate([
            a @ y + g_vec(t),
            (a @ phi).ravel(),
            (-psi @ a).ravel(),
            psi @ g_vec(t),
        ])

    z0 = np.concatenate([np.zeros(2), np.eye(2).ravel(), np.eye(2).ravel(), np.zeros(2)])
    ts = np.linspace(0.0, 1.5, 61)
    sol = solve_ivp(rhs, (0.0, 1.5), z0, t_eval=ts, rtol=1e-12, atol=1e-14)
    assert sol.success
    worst = 0.0
    for j in range(len(ts)):
        y = sol.y[0:2, j]
        phi = sol.y[2:6, j].reshape(2, 2)
        integral = sol.y[10:12, j]
        worst = max(worst, np.abs(y - phi @ integral).max())
    assert worst <= 1e-8


def test_representation_formula_check_deterministic_converges():
    # discrete two-sided computation: residual shrinks ~ 1/K for D = 0
    res = {}
    for k in (50, 200, 800):
        grid = make_grid(1.5, k)
        ens = sample_brownian(grid, 1, 6, seed=10)
        t_mid = grid.nodes[:-1]
        A = np.stack([np.array([[0.0, 1.0], [-2.0, -0.3 * np.cos(t)]]) for t in t_mid])
        g1 = np.stack([np.array([np.sin(t), 1.0]) for t in t_mid])
        res[k] = representation_formula_check(lambda j: A[j][None], None, _forcing(g1[None]), ens)
    assert res[800] < res[200] < res[50]
    assert res[800] < res[50] / 8


def test_representation_formula_check_stochastic_small_residual():
    rng = np.random.default_rng(3)
    n_steps = 400
    ens = sample_brownian(make_grid(1.0, n_steps), 1, 100, seed=6)
    A = np.array([[0.1, 0.4], [-0.2, 0.05]])
    D = 0.3 * np.eye(2)[None, :, :]
    g1 = rng.normal(size=(2,))
    g2 = rng.normal(size=(2, 1)) * 0.5
    res = representation_formula_check(
        lambda k: A[None], lambda k: D[None], lambda k: (g1[None], g2[None]), ens)
    assert res < 0.05


# ---------------------------------------------------------------------------
# strong convergence order


def test_strong_convergence_order_gbm_near_half():
    dyn = scalar_linear_dynamics(1.0, 0.5)
    rep = strong_convergence_order(
        dyn, x0=[1.0], horizon=1.0,
        n_steps_levels=[32, 64, 128, 256, 512], n_paths=1000, seed=404,
    )
    assert 0.35 <= rep.estimate <= 0.65
    assert rep.errors[0] > rep.errors[-1]


def test_strong_convergence_order_requires_closed_form():
    dyn = scalar_linear_dynamics(1.0, 0.5)
    stripped = DynamicsSpec(
        state_dim=1, control_dim=0, noise_dim=1,
        drift=dyn.drift, diffusion=dyn.diffusion,
    )
    with pytest.raises(MissingClosedFormError):
        strong_convergence_order(stripped, [1.0], 1.0, [8, 16], 10, 1)


def test_strong_convergence_order_rejects_nondivisible_levels():
    dyn = scalar_linear_dynamics(1.0, 0.5)
    with pytest.raises(ValueError, match="divide"):
        strong_convergence_order(dyn, [1.0], 1.0, [24, 64], 10, 1)


def test_strong_convergence_order_rejects_repeated_levels():
    # two equal levels have equal errors and dt: the order between them is 0/0
    dyn = scalar_linear_dynamics(1.0, 0.5)
    with pytest.raises(ValueError, match="repeat"):
        strong_convergence_order(dyn, [1.0], 1.0, [8, 8], 10, 1)


@pytest.mark.parametrize("levels, low", [([0, 8], 0), ([-4, 8], -4), ([8, -8], -8)])
def test_strong_convergence_order_rejects_levels_below_one(levels, low):
    # a level of 0 used to reach finest % 0, a bare ZeroDivisionError
    dyn = scalar_linear_dynamics(1.0, 0.5)
    with pytest.raises(ValueError, match=rf"n_steps_levels: level {low} must be at least 1"):
        strong_convergence_order(dyn, [1.0], 1.0, levels, 10, 1)


# ---------------------------------------------------------------------------
# dynamics spec validation


def test_dynamics_spec_jacobian_probe_catches_mismatch():
    def drift(t, x, u):
        return np.stack([x[:, 1], -np.sin(x[:, 0])], axis=1)

    def diffusion(t, x, u):
        return np.tile(np.array([[0.2], [0.0]]), (x.shape[0], 1, 1))

    def good_jac(t, x, u):
        jac = np.zeros((x.shape[0], 2, 2))
        jac[:, 0, 1] = 1.0
        jac[:, 1, 0] = -np.cos(x[:, 0])
        return jac

    def bad_jac(t, x, u):
        jac = good_jac(t, x, u)
        jac[:, 1, 0] *= 1.5
        return jac

    def diff_jac(t, x, u):
        return np.zeros((x.shape[0], 1, 2, 2))

    x = np.random.default_rng(0).normal(size=(5, 2))
    dyn = DynamicsSpec(2, 1, 1, drift, diffusion, good_jac, diff_jac)
    dyn.check_jacobians(0.0, x, np.zeros(1))
    dyn_bad = DynamicsSpec(2, 1, 1, drift, diffusion, bad_jac, diff_jac)
    with pytest.raises(ValueError, match="drift_jac"):
        dyn_bad.check_jacobians(0.0, x, np.zeros(1))

    # a Jacobian that does not depend on the path may have a leading axis of 1
    def linear_drift(t, x, u):
        return np.stack([x[:, 1], u[:, 0]], axis=1)

    const_jac = np.array([[[0.0, 1.0], [0.0, 0.0]]])
    dyn_const = DynamicsSpec(2, 1, 1, linear_drift, diffusion, lambda t, x, u: const_jac)
    dyn_const.check_jacobians(0.0, x, np.zeros(1))
    dyn_const_bad = DynamicsSpec(2, 1, 1, linear_drift, diffusion, lambda t, x, u: 2.0 * const_jac)
    with pytest.raises(ValueError, match="drift_jac"):
        dyn_const_bad.check_jacobians(0.0, x, np.zeros(1))


def test_dynamics_refuse_controls_outside_the_box_of_their_grid():
    dyn = double_integrator_dynamics()
    dyn.check_controls(np.array([[-1.0], [0.25], [1.0]]))
    with pytest.raises(ValueError, match=r"control 5.0 lies outside the control set \[-1.0, 1.0\]"):
        dyn.check_controls(np.array([[0.0], [5.0], [-7.0]]))
    with pytest.raises(ValueError, match="control nan lies outside"):
        dyn.check_controls(np.full((3, 1), np.nan))
    # a box in two control dimensions, and no box without a control grid
    corners = np.array([[-1.0, 0.0], [-1.0, 2.0], [1.0, 0.0], [1.0, 2.0]])
    plane = DynamicsSpec(2, 2, 1, None, None, control_grid=corners)
    plane.check_controls(np.array([[0.5, 1.5]]))
    with pytest.raises(ValueError, match=r"control 0.5, 3.0 lies outside the control set "
                                         r"\[-1.0, 1.0\] x \[0.0, 2.0\]"):
        plane.check_controls(np.array([[0.5, 3.0]]))
    DynamicsSpec(2, 1, 1, None, None).check_controls(np.array([[5.0]]))


def test_double_integrator_refuses_negative_noise():
    assert double_integrator_dynamics(noise=0.0).noise_dim == 1
    with pytest.raises(ValueError, match="noise scale must be nonnegative, got -0.5"):
        double_integrator_dynamics(noise=-0.5)


def test_double_integrator_jacobian_is_path_constant_without_cubic_term():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 2))
    u = rng.uniform(-1.0, 1.0, size=(6, 1))

    plain = double_integrator_dynamics(noise=0.7)
    jac = plain.drift_jac(0.0, x, u)
    assert jac.shape == (1, 2, 2) and not jac.flags.writeable
    np.testing.assert_array_equal(plain.drift(0.0, x, u), np.stack([x[:, 1], u[:, 0]], axis=1))
    np.testing.assert_array_equal(plain.diffusion(0.0, x, u)[:, :, 0], np.tile([0.7, 0.0], (6, 1)))
    np.testing.assert_array_equal(plain.control_grid, [[-1.0], [1.0]])  # H is affine in u
    plain.check_jacobians(0.0, x, u)

    cubic = double_integrator_dynamics(cubic=0.5)
    assert cubic.drift_jac(0.0, x, u).shape == (6, 2, 2)
    np.testing.assert_allclose(cubic.drift(0.0, x, u)[:, 1], u[:, 0] - 0.5 * x[:, 0] ** 3,
                               rtol=1e-15, atol=0)
    cubic.check_jacobians(0.0, x, u)
