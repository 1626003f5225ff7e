"""Risk-averse double-integrator planning benchmark.

The plant is dy = v dt + noise dW, dv = u dt with u in [-1, 1] and terminal
cost AV@R_alpha(|y(T) - y_target|^2 / 2).  Because the control never enters
the diffusion, y(T) splits into a deterministic displacement plus the raw
terminal Brownian value, so open-loop candidates can be scored exactly
without re-integrating the SDE.  The shooting solver exploits that split:
it searches sign and real-valued switching times of a bang-bang profile
with at most two switches against a fixed Brownian ensemble (common random
numbers across candidates, which biases comparisons toward the shared draw
but keeps the search deterministic and variance-reduced).

The maximum principle is a necessary condition over adapted controls, and
open-loop profiles cannot follow a velocity costate whose sign differs
between paths.  solve_sop therefore refines the shooting start over
adapted controls with damped Hamiltonian-maximizing sweeps over the control
grid, each scored on an independent ensemble (the damped method of
successive approximations of Li, Chen, Tai & E, 2018).
"""

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .adjoint import (
    RegressionBasis,
    assemble_terminal,
    linearization_along,
    solve_adjoint,
)
from .certificate import CandidateBundle, ProblemSpec, hamiltonian_argmax
from .risk import AVaR, risk_subgradient, risk_value
from .sde import (
    BrownianEnsemble,
    BrownianSource,
    ControlLaw,
    DynamicsSpec,
    FeedbackLaw,
    StateEnsemble,
    TimeGrid,
    double_integrator_dynamics,
    euler_maruyama,
    fundamental_matrices,
    make_grid,
    sample_brownian,
    sample_std,
)


@dataclass(frozen=True)
class SopInstance:
    y0: float
    v0: float
    y_target: float
    horizon: float
    alpha: float
    noise: float = 1.0

    def __post_init__(self):
        if not self.y0 < self.y_target:
            raise ValueError("the start must lie strictly left of the target")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        # the grid owns the horizon rule and the dynamics the noise rule
        make_grid(self.horizon, 1)
        double_integrator_dynamics(noise=self.noise)

    @property
    def risk(self) -> AVaR:
        """The terminal risk measure, AV@R at tail mass alpha."""
        return AVaR(self.alpha)


@dataclass(frozen=True)
class BangBangPolicy:
    """u = initial_sign, flipping at each switching time; at most two flips."""

    initial_sign: int
    switches: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.initial_sign not in (-1, 1):
            raise ValueError("initial_sign must be -1 or +1")
        if len(self.switches) > 2:
            raise ValueError("at most two switching times")
        if any(b < a for a, b in zip(self.switches, self.switches[1:])):
            raise ValueError("switching times must be nondecreasing")

    def on_grid(self, grid: TimeGrid) -> np.ndarray:
        t = grid.nodes[:-1]
        flips = np.searchsorted(np.asarray(self.switches), t + 1e-12, side="right")
        return (self.initial_sign * (-1.0) ** flips)[:, None]


def build_sop(instance: SopInstance) -> ProblemSpec:
    dyn = double_integrator_dynamics(noise=instance.noise)
    target = instance.y_target

    def cost(x):
        return 0.5 * (x[:, 0] - target) ** 2

    def cost_gradient(x):
        return np.stack([x[:, 0] - target, np.zeros(x.shape[0])], axis=1)

    return ProblemSpec(
        dyn=dyn, risk=instance.risk, cost=cost, cost_gradient=cost_gradient,
        x0=np.array([instance.y0, instance.v0]),
    )


def terminal_mean(instance: SopInstance, policy: BangBangPolicy) -> float:
    """Exact deterministic part of y(T) under the bang-bang profile."""
    bounds = [0.0] + [min(max(s, 0.0), instance.horizon) for s in policy.switches]
    bounds.append(instance.horizon)
    y, v, sign = instance.y0, instance.v0, float(policy.initial_sign)
    for a, b in zip(bounds, bounds[1:]):
        h = b - a
        y += v * h + 0.5 * sign * h * h
        v += sign * h
        sign = -sign
    return y


@dataclass(frozen=True)
class ShootResult:
    policy: BangBangPolicy
    cost: float
    evaluations: int
    incumbents: List[float]


_BRENT_XATOL, _BRENT_MAXFUN = 1e-10, 500  # tolerance on a switching time; evaluation cap
SHOOT_LATTICE = 9            # lattice points per axis seeding the two-switch search
SHOOT_COORDINATE_ROUNDS = 3  # rounds of coordinate search from the best lattice pair


def _bounded_brent(fn, lo, hi):
    """Brent's bounded minimization of fn on [lo, hi] (Brent 1973, ch. 5),
    ported step for step from SciPy's optimize._minimize_scalar_bounded, so
    it evaluates the same points in the same order and returns the same x."""
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    sign = lambda z: -1.0 if z < 0 else 1.0  # np.sign(z) + (z == 0): zero counts as +1
    a, b = lo, hi
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    ffulc = fnfc = fx = fn(xf)
    num = 1
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + _BRENT_XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a) and num < _BRENT_MAXFUN:
        golden = True
        if abs(e) > tol1:  # try a parabolic step
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = -p if q > 0.0 else p
            q, r, e = abs(q), e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * sign(xm - xf)
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + sign(rat) * max(abs(rat), tol1)
        fu = fn(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + _BRENT_XATOL / 3.0
        tol2 = 2.0 * tol1
    return xf


def shoot(instance: SopInstance, brownian: BrownianEnsemble) -> ShootResult:
    """Search sign and switching times of a bang-bang profile with at most
    two switches. Each switching time is placed by _bounded_brent, Brent's
    bounded method ported step for step from SciPy."""
    risk = instance.risk
    w_T = brownian.terminal()[:, 0]
    horizon = instance.horizon
    state = {"count": 0, "best": np.inf, "best_policy": None, "incumbents": []}

    def evaluate(sign, switches):
        policy = BangBangPolicy(sign, tuple(float(s) for s in switches))
        samples = terminal_mean(instance, policy) + instance.noise * w_T
        value = risk_value(risk, 0.5 * (samples - instance.y_target) ** 2)
        state["count"] += 1
        if value < state["best"]:
            state["best"] = value
            state["best_policy"] = policy
        state["incumbents"].append(state["best"])
        return value

    def argmin(fn, lo, hi):
        return lo if hi - lo <= 1e-12 else float(_bounded_brent(fn, lo, hi))

    for sign in (1, -1):
        evaluate(sign, ())
        argmin(lambda s: evaluate(sign, (s,)), 0.0, horizon)
        mesh = np.linspace(0.0, horizon, SHOOT_LATTICE)
        pairs = [(a, b) for a in mesh for b in mesh if a <= b]
        scores = [evaluate(sign, pair) for pair in pairs]
        s1, s2 = pairs[int(np.argmin(scores))]
        for _ in range(SHOOT_COORDINATE_ROUNDS):
            s1 = argmin(lambda s: evaluate(sign, (s, s2)), 0.0, s2)
            s2 = argmin(lambda s: evaluate(sign, (s1, s)), s1, horizon)

    return ShootResult(policy=state["best_policy"], cost=state["best"],
                       evaluations=state["count"], incumbents=state["incumbents"])


# ---------------------------------------------------------------------------
# solved-instance assembly and the safety / bang-bang analysis


@dataclass(frozen=True, kw_only=True)
class SopSolution(CandidateBundle):
    instance: SopInstance
    problem: ProblemSpec
    law: ControlLaw | FeedbackLaw
    cost: float
    refinement: Optional["Refinement"] = None


def assemble_solution(instance: SopInstance, control, brownian: BrownianEnsemble) -> SopSolution:
    """Integrate a control (grid values, a ControlLaw or a FeedbackLaw) once
    and solve the adjoint system behind it.  The states carry the controls
    realized on the ensemble; the law (the FeedbackLaw, or the states'
    ControlLaw) replays them, and the cost is the AV@R of the states."""
    problem = build_sop(instance)
    states = euler_maruyama(problem.dyn, control, problem.x0, brownian)
    z = problem.cost(states.terminal)
    xi = risk_subgradient(problem.risk, z)
    terminal = assemble_terminal(xi, problem.cost_gradient(states.terminal))
    a_fn, d_fn = linearization_along(problem.dyn, states)
    fund = fundamental_matrices(a_fn, d_fn, brownian)
    costates = solve_adjoint(problem.dyn, states, terminal, fund)
    law = control if isinstance(control, FeedbackLaw) else states.control
    return SopSolution(instance=instance, problem=problem, law=law,
                       cost=float(risk_value(problem.risk, z)), states=states, costates=costates)


# ---------------------------------------------------------------------------
# refinement over adapted controls: damped successive approximations

SWEEP_DAMPING = 0.5   # weight of the previous sweep's coefficients
MAX_SWEEPS = 12
HOLDOUT_CHUNK = 2000  # most holdout paths sampled and integrated at a time


@dataclass(frozen=True)
class Refinement:
    """What the Hamiltonian-maximizing sweeps did after the shooting start.

    start is the shooting search's record.  scores[0] is the shooting
    start's AV@R on the independent ensemble and scores[s] that of trial
    sweep s; every trial but the last lowered the score, unless the sweep
    cap ended the run.  sweeps counts the kept trials, so 0 means the
    shooting start was returned unchanged.
    """

    start: ShootResult
    scores: List[float]
    sweeps: int

    @property
    def adapted(self) -> bool:
        return self.sweeps > 0


def _sweep_law(dyn: DynamicsSpec, nodes: np.ndarray, coef: np.ndarray) -> FeedbackLaw:
    """u_k = the grid point maximizing H(t_k, x_k, u, p, 0), p = features(x_k, W_k) @ coef[k];
    q is not fitted, and the diffusion does not depend on u, so q cannot move the argmax."""

    def play(k, x, w):
        p = RegressionBasis().feature_matrix(x, w) @ coef[k]
        q = np.zeros((len(x), dyn.state_dim, dyn.noise_dim))
        return dyn.control_grid[hamiltonian_argmax(dyn, nodes[k], x, p, q)[1]]

    return FeedbackLaw(play, dim=dyn.control_dim)


def holdout_losses(problem: ProblemSpec, law, holdout: List[BrownianEnsemble]) -> np.ndarray:
    """Per-path terminal cost of a law integrated on the holdout chunks, in path order."""
    # a copy of each chunk's terminal states lets its path history go
    x_T = np.concatenate([euler_maruyama(problem.dyn, law, problem.x0, chunk).terminal.copy()
                          for chunk in holdout])
    return problem.cost(x_T)


def _refine(start: SopSolution, shot: ShootResult, holdout: List[BrownianEnsemble]) -> SopSolution:
    """Damped method of successive approximations from the shooting start.

    Sweep s maximizes the Hamiltonian path by path under the regressed
    costate (_sweep_law).  Its coefficients are the previous sweep's, damped
    by SWEEP_DAMPING toward the node fits of the last kept candidate's
    costate.  A sweep is kept only if it lowers AV@R on the independent
    holdout ensemble (given in path chunks, which keeps its sampling
    temporaries small); the first that does not ends the run, and the best
    candidate found is returned.
    """
    problem, brownian, nodes = start.problem, start.states.brownian, start.states.grid.nodes

    scores = [risk_value(problem.risk, holdout_losses(problem, start.law, holdout))]
    best, coef, kept = start, None, 0
    while kept < MAX_SWEEPS:
        # (K, B, n) coefficients of p_k = psi_k^T m_k; psi is path-constant here
        fresh = np.einsum("kbn,knm->kbm", best.costates.node_coef, best.costates.fund.psi[0, :-1])
        coef = fresh if coef is None else SWEEP_DAMPING * coef + (1.0 - SWEEP_DAMPING) * fresh
        law = _sweep_law(problem.dyn, nodes, coef)
        scores.append(risk_value(problem.risk, holdout_losses(problem, law, holdout)))
        if not scores[-1] < scores[-2]:
            break
        best = assemble_solution(start.instance, law, brownian)
        kept += 1
    return replace(best, refinement=Refinement(start=shot, scores=scores, sweeps=kept))


def solve_sop(instance: SopInstance, n_steps: int, n_paths: int, seed: int) -> SopSolution:
    """Shoot over open-loop bang-bang profiles, then refine over adapted
    controls; the holdout ensemble is the same seed's next n_paths paths."""
    grid = make_grid(instance.horizon, n_steps)
    brownian = sample_brownian(grid, 1, n_paths, seed)
    shot = shoot(instance, brownian)
    # the shoot scores the continuous-time displacement, not the Euler states
    # with their switches snapped to nodes, so this cost is not their AV@R
    start = replace(assemble_solution(instance, shot.policy.on_grid(grid), brownian), cost=shot.cost)
    holdout = list(BrownianSource(grid, 1, 2 * n_paths, seed, HOLDOUT_CHUNK)
                   .blocks(n_paths, 2 * n_paths))
    return _refine(start, shot, holdout)


@dataclass(frozen=True)
class SafetyReport:
    avar_value: float
    margin: float
    band: float
    safe: bool


BAND_SIGMA = 5.0              # standard errors in every band of the bang-bang checks
SATURATION_TOL = 1e-6         # |u| >= 1 - SATURATION_TOL counts as saturated
SATURATION_THRESHOLD = 0.95   # saturated share of cells a safe optimum needs
MIN_WINDOW_STEPS = 5          # shortest interior or zero-band window reported


def safety_check(instance: SopInstance, terminal_positions) -> SafetyReport:
    """margin = y_target - AV@R_alpha(y(T)); safe when the margin clears a
    band of BAND_SIGMA standard errors of the tail-average estimator."""
    if isinstance(terminal_positions, StateEnsemble):
        y = terminal_positions.terminal[:, 0]
    else:
        y = np.asarray(terminal_positions, dtype=float).reshape(-1)
    avar = risk_value(instance.risk, y)
    q = instance.risk.subgradient(y).quantile  # the VaR of the AV@R above
    influence = q + np.maximum(y - q, 0.0) / instance.alpha
    band = BAND_SIGMA * sample_std(influence) / np.sqrt(y.size)  # NaN for one path: not safe
    margin = instance.y_target - avar
    return SafetyReport(avar_value=avar, margin=float(margin), band=float(band),
                        safe=bool(margin > band))


def _windows(mask: np.ndarray, min_len: int) -> List[Tuple[int, int]]:
    out = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= min_len:
                out.append((start, i))
            start = None
    if start is not None and len(mask) - start >= min_len:
        out.append((start, len(mask)))
    return out


@dataclass(frozen=True)
class BangBangReport:
    status: str                   # consistent | inconsistent | not_applicable | skipped_unsafe
    safety: SafetyReport
    saturation_fraction: float
    interior_windows: List[Tuple[float, float]]
    zero_band_windows: List[Tuple[float, float]]
    pairing_mean: float
    pairing_band: float
    chain: List[str]


def bangbang_necessity(solution: SopSolution) -> BangBangReport:
    """Check the solved instance against the safe-implies-bang-bang argument.

    The argument runs: a non-bang-bang optimum forces an interval where the
    velocity costate vanishes, there the mean costates are pinned at zero,
    flatness of E[p_y] then spreads that to E[xi (y(T) - y_target)] = 0, and
    dual attainment turns that into AV@R(y(T)) >= y_target, contradicting
    safety.  Numerically we report each link and flag the combination of a
    persistent zero band with a pairing value clearly away from zero.  The
    solver returns approximate incumbents, so the outcome is evidence of
    consistency, never a proof.
    """
    instance = solution.instance
    chain: List[str] = []
    nan = float("nan")
    safety = safety_check(instance, solution.states)
    if instance.noise == 0.0:
        chain.append("noise scale is zero: the Brownian argument does not apply")
        return BangBangReport(status="not_applicable", safety=safety,
                              saturation_fraction=nan,
                              interior_windows=[], zero_band_windows=[],
                              pairing_mean=nan, pairing_band=nan, chain=chain)

    band_text = (f"band {safety.band:.4f}" if np.isfinite(safety.band)
                 else "no band (one path)")
    chain.append(f"safety margin {safety.margin:.4f} vs {band_text}: "
                 f"{'safe' if safety.safe else 'not safe'}")

    grid = solution.states.grid
    u = solution.states.control.values
    saturated = np.abs(u) >= 1.0 - SATURATION_TOL
    saturation = float(np.mean(saturated))
    # (K, m) or (M, K, m) values: a step is interior if any path is off the bounds
    step_interior = ~np.all(saturated.reshape((-1,) + u.shape[-2:]), axis=(0, 2))
    interior = [(grid.nodes[a], grid.nodes[b]) for a, b in _windows(step_interior, MIN_WINDOW_STEPS)]
    chain.append(f"|u| saturated on {saturation:.1%} of cells (threshold {SATURATION_THRESHOLD:.0%})")

    if not safety.safe:
        chain.append("trajectory not safe: the proposition's hypothesis fails, analysis skipped")
        return BangBangReport(status="skipped_unsafe", safety=safety,
                              saturation_fraction=saturation,
                              interior_windows=interior, zero_band_windows=[],
                              pairing_mean=nan, pairing_band=nan, chain=chain)

    band = solution.costates.band  # both components: the position and the velocity costate
    inside = np.all(np.abs(band.mean) <= BAND_SIGMA * band.stderr + 1e-12, axis=1)
    zero_bands = [(grid.nodes[a], grid.nodes[min(b, grid.n_steps)])
                  for a, b in _windows(inside, MIN_WINDOW_STEPS)]
    chain.append(f"{len(zero_bands)} persistent joint zero band(s) in the mean costates")

    xi = np.asarray(solution.costates.terminal.xi, dtype=float)
    pairing_samples = xi * (solution.states.terminal[:, 0] - instance.y_target)
    pairing = float(pairing_samples.mean())
    pairing_band = float(BAND_SIGMA * sample_std(pairing_samples) / np.sqrt(xi.size))
    band_text = (f"within +-{pairing_band:.4f}" if np.isfinite(pairing_band)
                 else "with no band (one path has no sample spread)")
    chain.append(f"E[xi (y(T) - y_target)] = {pairing:.4f} {band_text}")

    pairing_nonzero = abs(pairing) > pairing_band
    contradiction = bool(zero_bands) and pairing_nonzero
    saturated_enough = saturation >= SATURATION_THRESHOLD
    if contradiction:
        chain.append("zero band coexists with a pairing value away from zero: "
                     "the argument's links disagree")
    if not saturated_enough:
        chain.append("control spends too much time strictly inside (-1, 1) "
                     "for a safe optimum")
    consistent = saturated_enough and not contradiction
    chain.append("verdict: " + ("consistent with the bang-bang principle"
                                if consistent else "inconsistent"))
    return BangBangReport(status="consistent" if consistent else "inconsistent",
                          safety=safety, saturation_fraction=saturation,
                          interior_windows=interior, zero_band_windows=zero_bands,
                          pairing_mean=pairing, pairing_band=pairing_band,
                          chain=chain)
