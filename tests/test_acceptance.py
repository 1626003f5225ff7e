"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured numbers so a
test log reads as a checklist.  On criterion 7's reachable-target benchmark
the terminal costate is sign-mixed across scenarios, so the pathwise
Hamiltonian maximization clause cannot hold for any open-loop control; it
holds for the adapted candidate that the planner's refinement sweeps
return, and every clause of criterion 7 is asserted on that candidate.
"""

import json
import time

import numpy as np

from riskpmp.adjoint import assemble_terminal, solve_adjoint, tower_check
from riskpmp.certificate import CertifyConfig, certify
from riskpmp.cli import main as cli_main
from riskpmp.planner import SopInstance, assemble_solution, safety_check, solve_sop
from riskpmp.risk import (
    AVaR,
    SampledRandomVariable,
    coherence_suite,
    risk_subgradient,
    risk_value,
)
from riskpmp.sde import (
    ControlLaw,
    DynamicsSpec,
    euler_maruyama,
    fundamental_matrices,
    make_grid,
    sample_brownian,
    scalar_linear_dynamics,
    strong_convergence_order,
)
from riskpmp.variational import (
    ito_counterexample,
    linearization_along,
    linearization_rate,
)

SEED = 20260814


def verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. pointwise Ito gap counterexample


def test_criterion_1_ito_counterexample():
    t0 = time.perf_counter()
    rep = ito_counterexample()
    elapsed = time.perf_counter() - t0
    ok = (
        abs(rep.pointwise_min_sq_dist - 0.2) <= 1e-9
        and rep.lebesgue_gap == 0.0
        and elapsed < 1.0
    )
    assert verdict(
        "criterion 1 (Ito gap lower bound)",
        ok,
        f"min dist^2 = {rep.pointwise_min_sq_dist:.12f} (want 0.2), "
        f"measurable-selection gap = {rep.lebesgue_gap}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. coherence axioms for AV@R


def test_criterion_2_coherence_axioms():
    t0 = time.perf_counter()
    total = 0
    for alpha in (0.05, 0.3, 1.0):
        rep = coherence_suite(AVaR(alpha), n_trials=1000, seed=SEED, tolerance=1e-9)
        total += len(rep.violations)
    elapsed = time.perf_counter() - t0
    ok = total == 0 and elapsed < 10.0
    assert verdict(
        "criterion 2 (coherence axioms)",
        ok,
        f"{total} violations over 3 x 1000 trials at 1e-9, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. AV@R against the brute-force infimum


def avar_bruteforce(z, w, alpha):
    """min over t of t + E[(z - t)^+]/alpha, scanned over every atom.

    The objective is convex piecewise linear with kinks exactly at the
    sample atoms and slopes 1 - P[z > t]/alpha outside them, so scanning
    the atoms is exact, no optimizer involved.
    """
    best = np.inf
    atoms = np.unique(z)
    for chunk in np.array_split(atoms, max(1, atoms.size // 512)):
        excess = np.clip(z[None, :] - chunk[:, None], 0.0, None)
        vals = chunk + (excess * w[None, :]).sum(axis=1) / alpha
        best = min(best, float(vals.min()))
    return best


def test_criterion_3_avar_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    sizes = rng.integers(3, 10_001, size=100)
    sizes[0], sizes[-1] = 3, 10_000
    worst_value = worst_mean = worst_pair = 0.0
    for n in sizes:
        n = int(n)
        alpha = float(rng.uniform(0.02, 1.0))
        z = rng.normal(size=n)
        if rng.random() < 0.3:
            # inject ties so the quantile atom gets split
            z = np.round(z, 1)
        w = rng.exponential(size=n)
        w /= w.sum()
        sample = SampledRandomVariable(z, w)
        value = risk_value(AVaR(alpha), sample)
        sub = risk_subgradient(AVaR(alpha), sample)
        worst_value = max(worst_value, abs(value - avar_bruteforce(z, w, alpha)))
        worst_mean = max(worst_mean, abs(float(w @ sub.xi) - 1.0))
        worst_pair = max(worst_pair, abs(float(w @ (sub.xi * z)) - value))
    ok = worst_value <= 1e-9 and worst_mean <= 1e-9 and worst_pair <= 1e-9
    assert verdict(
        "criterion 3 (AV@R oracle equivalence)",
        ok,
        f"value gap {worst_value:.2e}, E[xi]-1 {worst_mean:.2e}, "
        f"pairing gap {worst_pair:.2e} over 100 weighted samples",
    )


# ---------------------------------------------------------------------------
# 4. SDE engine: strong order and fundamental-matrix inversion


def test_criterion_4_sde_engine():
    t0 = time.perf_counter()
    dyn = scalar_linear_dynamics(0.8, 0.3)
    order = strong_convergence_order(
        dyn, np.ones(1), 1.0, [125, 250, 500, 1000, 2000, 4000], n_paths=1000, seed=SEED
    )
    grid = make_grid(1.0, 4000)
    bm = sample_brownian(grid, 1, 1000, seed=SEED)
    law = ControlLaw(np.zeros((4000, 0)))
    states = euler_maruyama(dyn, law, np.ones(1), bm)
    a_fn, d_fn = linearization_along(dyn, states)
    fund = fundamental_matrices(a_fn, d_fn, bm)
    elapsed = time.perf_counter() - t0
    ok = 0.35 <= order.estimate <= 0.65 and fund.inverse_error <= 0.05 and elapsed < 60.0
    assert verdict(
        "criterion 4 (SDE engine)",
        ok,
        f"strong order {order.estimate:.3f} in [0.35, 0.65], "
        f"max |psi phi - I| = {fund.inverse_error:.2e} at K=4000, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. linearization error rate halves with epsilon


def cubic_double_integrator(cubic=0.1):
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


def test_criterion_5_linearization_rate():
    t0 = time.perf_counter()
    dyn = cubic_double_integrator()
    grid = make_grid(1.0, 2000)
    bm = sample_brownian(grid, 1, 10_000, seed=SEED)
    u_star = ControlLaw.constant(0.3, 2000)
    states = euler_maruyama(dyn, u_star, np.zeros(2), bm)
    table = linearization_rate(dyn, states, ControlLaw.constant(-0.8, 2000), [0.2, 0.025])
    elapsed = time.perf_counter() - t0
    r_big, r_small = table.rates
    ok = r_small < 0.5 * r_big and elapsed < 120.0
    assert verdict(
        "criterion 5 (linearization rate)",
        ok,
        f"r(0.025) = {r_small:.3e} < r(0.2)/2 = {0.5 * r_big:.3e}, "
        f"M=1e4 K=2000, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. adjoint solver correctness


def test_criterion_6_adjoint_correctness():
    t0 = time.perf_counter()

    # (a) zero diffusion, linear drift: every conditional expectation inside
    # the solver is of a quantity that is affine in the state, so the fitted
    # costate must reproduce the explicit backward Euler solve of
    # dp/dt = -A^T p on the same grid
    a_mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    n_steps, n_paths = 4000, 500
    grid = make_grid(1.0, n_steps)
    dyn = DynamicsSpec(
        state_dim=2, control_dim=1, noise_dim=1,
        drift=lambda t, x, u: x @ a_mat.T,
        diffusion=lambda t, x, u: np.zeros(x.shape + (1,)),
        drift_jac=lambda t, x, u: np.broadcast_to(a_mat, (x.shape[0], 2, 2)).copy(),
    )
    x0 = np.random.default_rng(SEED).normal(size=(n_paths, 2))
    bm = sample_brownian(grid, 1, n_paths, seed=SEED)
    law = ControlLaw.constant(0.0, n_steps)
    states = euler_maruyama(dyn, law, x0, bm)
    fund = fundamental_matrices(lambda k: a_mat[None], None, bm)
    terminal = assemble_terminal(np.ones(n_paths), states.terminal.copy())
    pair = solve_adjoint(dyn, states, terminal, fund)
    ode = np.empty_like(pair.p)
    ode[:, -1] = terminal.p_T
    for k in range(n_steps - 1, -1, -1):
        ode[:, k] = ode[:, k + 1] + grid.dt * ode[:, k + 1] @ a_mat
    err_a = float(np.max(np.abs(pair.p - ode)))
    q_stray = float(np.max(np.abs(pair.q)))

    # (b) double integrator under the plain expectation: the terminal
    # gradient is y_target - y(T), whose Brownian coefficient is -1, so the
    # position component of the martingale integrand must average to -1
    instance = SopInstance(0.0, 0.0, 4.0, 2.0, alpha=1.0, noise=1.0)
    grid_b = make_grid(instance.horizon, 50)
    bm_b = sample_brownian(grid_b, 1, 100_000, seed=SEED + 1)
    sol = assemble_solution(instance, np.full((50, 1), 1.0), bm_b)
    mean_qy = float(sol.costates.q[:, :, 0, 0].mean())

    # (c) nested conditional expectations agree with single-shot ones
    tower = tower_check(sol.costates.terminal.p_T[:, 0], sol.states)

    elapsed = time.perf_counter() - t0
    ok = (
        err_a <= 1e-6
        and q_stray <= 1e-6
        and abs(mean_qy + 1.0) <= 0.05
        and tower.passed
        and elapsed < 180.0
    )
    assert verdict(
        "criterion 6 (adjoint solver)",
        ok,
        f"|p - backward ODE| = {err_a:.2e} (<=1e-6), stray q {q_stray:.2e}, "
        f"mean q_y = {mean_qy:.4f} (want -1 +/- 0.05), tower {'ok' if tower.passed else 'BAD'}, "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. SOP end-to-end certificate on the reachable-target benchmark


def test_criterion_7_sop_end_to_end():
    t0 = time.perf_counter()
    instance = SopInstance(0.0, 0.0, 1.0, 2.0, alpha=0.3, noise=1.0)
    sol = solve_sop(instance, n_steps=200, n_paths=10_000, seed=SEED)
    config = CertifyConfig(
        scale=instance.y_target**2 / 2,
        bsde_residual_bound=2.5,
        gap_threshold=1.0,
    )
    cert, gaps = certify(sol.problem, sol, config)

    mean_py = sol.costates.p[:, :, 0].mean(axis=0)
    stderr_py = sol.costates.p[:, :, 0].std(axis=0, ddof=1) / np.sqrt(sol.states.n_paths)
    # the initial node has zero sampling spread (all paths share x0), so the
    # statistical band needs a floor covering propagation roundoff there
    flat = bool(np.all(np.abs(mean_py - mean_py.mean()) <= 5.0 * stderr_py + 1e-9))

    safety = safety_check(instance, sol.states)
    saturation = float(np.mean(np.abs(sol.states.control.values) >= 1.0 - 1e-6))
    measure = gaps.violating_fractions[config.gap_threshold]
    elapsed = time.perf_counter() - t0

    checks = {
        "slackness vacuous": cert.conditions["slackness"]["status"] == "pass"
        and cert.active_set == [],
        "risk gap <= 1e-6": cert.conditions["risk_parameter"]["gap"] <= 1e-6,
        "bsde residual <= calibrated 2.5": cert.conditions["adjoint_residual"]["status"] == "pass",
        "max-gap measure <= 5%": measure <= 0.05,
        "E[p_y] flat at 5 stderr": flat,
        "saturation >= 95% when safe": (not safety.safe) or saturation >= 0.95,
        "runtime < 10min": elapsed < 600.0,
    }
    failing = [k for k, v in checks.items() if not v]
    assert verdict(
        "criterion 7 (SOP end-to-end)",
        not failing,
        f"violating measure {measure:.3f} at threshold {config.gap_threshold}, "
        f"bsde max {sol.costates.bsde_residual_max:.3f}, risk gap "
        f"{cert.conditions['risk_parameter']['gap']:.1e}, safety margin {safety.margin:.3f}, "
        f"saturation {saturation:.2f}, {elapsed:.0f}s"
        + (f"; failing: {failing}" if failing else ""),
    )


# ---------------------------------------------------------------------------
# 8. scenario determinism through the CLI


def read_stable(path):
    return "\n".join(
        l for l in path.read_text().splitlines() if "created_utc" not in l
    )


def test_criterion_8_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    out_sim = tmp_path / "sim"
    sim = {
        "kind": "simulate",
        "seed": SEED,
        "out_dir": str(out_sim),
        "dynamics": {"name": "scalar-linear", "a": 0.5, "b": 0.2},
        "x0": [1.0],
        "horizon": 1.0,
        "n_steps": 60,
        "n_paths": 500,
        "binary": True,
    }
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps(sim))

    out_sop = tmp_path / "sop"
    sop = {
        "kind": "sop-solve",
        "seed": SEED,
        "out_dir": str(out_sop),
        "instance": {"y0": 0.0, "v0": 0.0, "y_target": 4.0, "horizon": 2.0,
                     "alpha": 0.3, "noise": 1.0},
        "n_steps": 50,
        "n_paths": 800,
        "tolerances": {"scale": 8.0, "bsde_residual_bound": 2.5, "gap_threshold": 1.0},
    }
    sop_cfg = tmp_path / "sop.json"
    sop_cfg.write_text(json.dumps(sop))

    stable = True
    assert cli_main(["simulate", "--config", str(sim_cfg)]) == 0
    sim_first = {
        "report": read_stable(out_sim / "report.json"),
        "paths.csv": (out_sim / "paths.csv").read_bytes(),
        "paths.bin": (out_sim / "paths.bin").read_bytes(),
    }
    assert cli_main(["simulate", "--config", str(sim_cfg), "--threads", "3"]) == 0
    stable &= read_stable(out_sim / "report.json") == sim_first["report"]
    stable &= (out_sim / "paths.csv").read_bytes() == sim_first["paths.csv"]
    stable &= (out_sim / "paths.bin").read_bytes() == sim_first["paths.bin"]

    assert cli_main(["sop-solve", "--config", str(sop_cfg)]) == 0
    sop_first = {
        "report": read_stable(out_sop / "report.json"),
        "certificate": (out_sop / "certificate.json").read_bytes(),
        "costates": (out_sop / "costates.csv").read_bytes(),
    }
    assert cli_main(["sop-solve", "--config", str(sop_cfg), "--threads", "2"]) == 0
    stable &= read_stable(out_sop / "report.json") == sop_first["report"]
    stable &= (out_sop / "certificate.json").read_bytes() == sop_first["certificate"]
    stable &= (out_sop / "costates.csv").read_bytes() == sop_first["costates"]
    elapsed = time.perf_counter() - t0
    capsys.readouterr()

    ok = bool(stable)
    assert verdict(
        "criterion 8 (scenario determinism)",
        ok,
        f"simulate and sop-solve byte-identical across reruns and thread counts, {elapsed:.1f}s",
    )
