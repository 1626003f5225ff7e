"""Machine-checkable optimality certificates for candidate controls.

Each condition of the risk-averse maximum principle is evaluated separately
on one ensemble: complementary slackness, the risk-parameter attainment gap,
the backward residual of the costates, and the pointwise Hamiltonian
maximization gap.  A certificate never claims optimality; "pass" means no
violation was detected at the configured tolerances, since the principle is
a necessary condition only.
"""

from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .adjoint import CostatePair, linearization_along, martingale_check
from .export import jsonable
from .risk import SampledRandomVariable, risk_value
from .sde import (ControlLaw, DynamicsSpec, StateEnsemble, _dot_last, _linear_step,
                  central_differences, sample_std)
from .variational import tangent_from_control


@dataclass(frozen=True)
class TerminalConstraint:
    """E[fn(x(T))] <= 0 with its gradient, evaluated on (M, n) arrays."""

    fn: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    name: str = ""


@dataclass
class ProblemSpec:
    dyn: DynamicsSpec
    risk: object
    cost: Callable[[np.ndarray], np.ndarray]
    cost_gradient: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    constraints: Sequence[TerminalConstraint] = ()

    def check_gradients(self, x_probe: np.ndarray, rtol: float = 1e-4, atol: float = 1e-6) -> None:
        """Probe declared gradients against central finite differences."""
        x = np.atleast_2d(np.asarray(x_probe, dtype=float))
        for label, fn, grad in [("cost", self.cost, self.cost_gradient)] + [
            (c.name or f"constraint_{i}", c.fn, c.gradient)
            for i, c in enumerate(self.constraints)
        ]:
            g = np.asarray(grad(x), dtype=float)
            if not np.allclose(g, central_differences(fn, x), rtol=rtol, atol=atol):
                raise ValueError(f"{label} gradient disagrees with finite differences")


@dataclass(frozen=True)
class CertifyConfig:
    """Tolerances, all scaled by the problem's magnitude; the defaults were
    calibrated on the double-integrator benchmark and are recorded in the
    README alongside the calibration runs."""

    scale: float = 1.0
    slackness_tol: Optional[float] = None       # default 1e-3 * scale
    active_tol: Optional[float] = None          # default 1e-2 * scale
    feasibility_tol: Optional[float] = None     # default 1e-2 * scale
    risk_gap_tol: float = 1e-6
    gap_threshold: float = 0.1
    violating_measure_tol: float = 0.05
    bsde_residual_bound: Optional[float] = None  # default 0.1 * scale
    normality_tol: float = 1e-8
    martingale_sigma: float = 5.0

    def __post_init__(self):
        for name, factor in (("slackness_tol", 1e-3), ("active_tol", 1e-2),
                             ("feasibility_tol", 1e-2), ("bsde_residual_bound", 0.1)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, factor * self.scale)
        # 0 means something for two tolerances: a zero forcing has margins 0, so
        # only a nonnegative normality_tol keeps it from being a witness, and
        # violating_measure_tol = 0 allows no violating cell
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("normality_tol", "violating_measure_tol"):
                if not value >= 0:
                    raise ValueError(f"{f.name} must be nonnegative, got {value}")
            elif not value > 0:
                raise ValueError(f"{f.name} must be positive, got {value}")


# ---------------------------------------------------------------------------
# the individual conditions


def hamiltonian(dyn: DynamicsSpec, t: float, x: np.ndarray, u: np.ndarray,
                p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """H = p . f(t,x,u) + sum_i q_i . sigma_i(t,x,u), per path."""

    def dot(a, b):  # over the trailing axes, flattened
        return _dot_last(a.reshape(len(a), -1), b.reshape(len(b), -1))

    return dot(p, dyn.drift(t, x, u)) + dot(q, dyn.diffusion(t, x, u))


def hamiltonian_argmax(dyn: DynamicsSpec, t: float, x: np.ndarray, p: np.ndarray,
                       q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per path, the max of H over dyn.control_grid and the last grid index attaining it."""
    if dyn.control_grid is None:
        raise ValueError("maximization needs a working control grid on the dynamics")
    best, arg = np.full(len(x), -np.inf), np.zeros(len(x), dtype=np.intp)
    for j, u_pt in enumerate(dyn.control_grid):
        h = hamiltonian(dyn, t, x, np.broadcast_to(u_pt, (len(x), dyn.control_dim)), p, q)
        np.maximum(arg, j * (h >= best), out=arg)  # j grows, so a tie goes to the later point
        np.maximum(best, h, out=best)
    return best, arg


@dataclass(frozen=True)
class SlacknessReport:
    constraint_means: np.ndarray
    constraint_stderrs: np.ndarray
    residuals: np.ndarray
    active_set: List[int]
    feasible: bool
    passed: bool


def slackness_check(problem: ProblemSpec, states: StateEnsemble,
                    multipliers: Sequence[float],
                    config: Optional[CertifyConfig] = None) -> SlacknessReport:
    cfg = config or CertifyConfig()
    x_T = states.terminal
    m = x_T.shape[0]
    n_con = len(problem.constraints)
    if len(multipliers) != n_con + 1:
        raise ValueError("need one leading multiplier plus one per constraint")
    means = np.empty(n_con)
    stderrs = np.empty(n_con)
    for i, con in enumerate(problem.constraints):
        vals = np.asarray(con.fn(x_T), dtype=float)
        means[i] = vals.mean()
        stderrs[i] = sample_std(vals) / np.sqrt(m)
    residuals = np.abs(np.asarray(multipliers[1:]) * means)
    active = [i for i in range(n_con) if abs(means[i]) <= cfg.active_tol]
    feasible = bool(np.all(means <= cfg.feasibility_tol))
    passed = bool(np.all(residuals <= cfg.slackness_tol))
    return SlacknessReport(
        constraint_means=means, constraint_stderrs=stderrs, residuals=residuals,
        active_set=active, feasible=feasible, passed=passed,
    )


def risk_param_gap(risk, z_values, xi, weights=None) -> float:
    """gap = rho(Z) - E[xi Z]; the max over the dual set equals rho(Z), so a
    feasible xi is optimal iff the gap vanishes.  An xi outside the dual set
    is refused with the reason the measure's dual_violation gives."""
    xi = np.asarray(getattr(xi, "xi", xi), dtype=float)
    sample = z_values if isinstance(z_values, SampledRandomVariable) else SampledRandomVariable(
        np.asarray(z_values, dtype=float), weights)
    w = sample.weight_array()
    if xi.shape != sample.values.shape:
        raise ValueError("xi must supply one weight per sample point")
    reason = risk.dual_violation(xi, w)
    if reason is not None:
        raise ValueError(reason)
    attained = float(w @ (xi * sample.values))
    return risk_value(risk, sample) - attained


@dataclass(frozen=True)
class MaxGapReport:
    gaps: np.ndarray              # (M, K) pointwise nonnegative
    mean: float
    max: float
    violating_fractions: Dict[float, float]   # threshold -> dt x P fraction
    grid_points: int
    passed: bool


def maximization_gap(problem: ProblemSpec, states: StateEnsemble, costates: CostatePair,
                     config: Optional[CertifyConfig] = None) -> MaxGapReport:
    """gap(t_k, path) = max_u H(t_k, x_k, u, p_k, q_k) - H(..., u*_k, ...), u*
    the control the states carry, over the working control grid plus u*, so
    the gap is nonnegative by construction.  Fractions of dt x P cells above
    1/10 and 1/100 are always reported; the pass verdict uses the configured pair."""
    cfg, dyn = config or CertifyConfig(), problem.dyn
    law = states.recorded("control")
    m_paths, n_steps, nodes = states.n_paths, states.grid.n_steps, states.grid.nodes

    gaps = np.empty((m_paths, n_steps))
    for k in range(n_steps):
        # contiguous copies: every hamiltonian call below reads them
        x_k = np.ascontiguousarray(states.values[:, k, :])
        p_k = np.ascontiguousarray(costates.p[:, k, :])
        q_k = np.ascontiguousarray(costates.q[:, k, :, :])
        h_star = hamiltonian(dyn, nodes[k], x_k, law.at(k, m_paths), p_k, q_k)
        h_max, _ = hamiltonian_argmax(dyn, nodes[k], x_k, p_k, q_k)
        gaps[:, k] = np.maximum(h_star, h_max) - h_star

    fractions = {}
    for thr in sorted({0.1, 0.01, cfg.gap_threshold}):
        fractions[thr] = float(np.mean(gaps > thr))
    passed = fractions[cfg.gap_threshold] <= cfg.violating_measure_tol
    return MaxGapReport(
        gaps=gaps,
        mean=float(gaps.mean()),
        max=float(gaps.max()),
        violating_fractions=fractions,
        grid_points=dyn.control_grid.shape[0],
        passed=passed,
    )


@dataclass(frozen=True)
class NormalityReport:
    status: str                   # "vacuous" | "certified" | "not_found"
    witness: Optional[str]
    margins: Optional[List[float]]
    candidates_tried: int


def normality_certificate(problem: ProblemSpec, states: StateEnsemble,
                          active: Sequence[int],
                          config: Optional[CertifyConfig] = None) -> NormalityReport:
    """Search constant and single-switch control profiles for a linearized
    direction y with E[grad phi_i(x*(T)) . y(T)] < -tol on every active
    constraint, driven by the states' Brownian ensemble.  Finding one
    certifies the normal (multiplier -1) case; not finding one is a reported
    outcome, not an error."""
    cfg = config or CertifyConfig()
    if len(active) == 0:
        return NormalityReport(status="vacuous", witness=None, margins=None, candidates_tried=0)
    brownian = states.recorded("brownian")
    dyn = problem.dyn
    if dyn.control_grid is None:
        raise ValueError("normality search needs a working control grid")
    n_steps = states.grid.n_steps
    grid = dyn.control_grid
    lo, hi = grid[0], grid[-1]

    candidates: List[Tuple[str, np.ndarray]] = []
    for u_pt in grid:
        candidates.append((f"constant u={np.array2string(u_pt, precision=3)}",
                           np.tile(u_pt, (n_steps, 1))))
    for s in {n_steps // 4, n_steps // 2, (3 * n_steps) // 4} - {0, n_steps}:
        for u_a, u_b in ((lo, hi), (hi, lo)):
            values = np.tile(u_a, (n_steps, 1))
            values[s:] = u_b
            candidates.append(
                (f"switch at node {s}: {np.array2string(u_a, precision=3)} -> "
                 f"{np.array2string(u_b, precision=3)}", values))

    a_fn, d_fn = linearization_along(dyn, states)
    grads = [np.asarray(problem.constraints[i].gradient(states.terminal), dtype=float)
             for i in active]
    for desc, values in candidates:
        forcing = tangent_from_control(dyn, states, ControlLaw(values))
        # solve_linearized's steps, holding y_k alone: only y(T) is read
        y_T = np.zeros((states.n_paths, states.state_dim))
        for k in range(n_steps):
            g1, g2 = forcing(k)
            y_T = _linear_step(y_T, a_fn(k), None if d_fn is None else d_fn(k), g1, g2,
                               states.grid.dt, brownian.increments[:, k])
        margins = [float(np.mean(np.einsum("pn,pn->p", g, y_T))) for g in grads]
        if all(m < -cfg.normality_tol for m in margins):
            return NormalityReport(status="certified", witness=desc,
                                   margins=margins, candidates_tried=len(candidates))
    return NormalityReport(status="not_found", witness=None, margins=None,
                           candidates_tried=len(candidates))


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class CandidateBundle:
    """A candidate (x*, u*) with its costate evidence: u* and W are
    states.control and states.brownian, p(T) and (phi, psi) are
    costates.terminal and costates.fund."""

    states: StateEnsemble
    costates: CostatePair


@dataclass(frozen=True)
class PmpCertificate:
    verdict: str                  # "pass" | "fail" | "inconclusive"
    conditions: Dict[str, dict]
    causes: List[str]
    active_set: List[int]
    multipliers: Tuple[float, ...]
    config: CertifyConfig
    version: str = "pmp_certificate_v1"

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "verdict": self.verdict,
            "conditions": jsonable(self.conditions),
            "causes": list(self.causes),
            "active_set": list(self.active_set),
            "multipliers": list(self.multipliers),
            "tolerances": {
                "scale": self.config.scale,
                "slackness": self.config.slackness_tol,
                "active_set": self.config.active_tol,
                "feasibility": self.config.feasibility_tol,
                "risk_gap": self.config.risk_gap_tol,
                "gap_threshold": self.config.gap_threshold,
                "violating_measure": self.config.violating_measure_tol,
                "bsde_residual": self.config.bsde_residual_bound,
                "normality": self.config.normality_tol,
                "martingale_sigma": self.config.martingale_sigma,
            },
        }


def certify(problem: ProblemSpec, bundle: CandidateBundle,
            config: Optional[CertifyConfig] = None) -> Tuple[PmpCertificate, MaxGapReport]:
    """Run every condition on the candidate bundle and aggregate verdicts.

    fail: a hard condition (feasibility, slackness, risk parameter,
    maximization) is violated.  inconclusive: only soft diagnostics are off
    (backward residual above its bound, martingale drift, normality witness
    not found), which taints the evidence without witnessing a violation.
    """
    cfg = config or CertifyConfig()
    terminal = bundle.costates.terminal
    states = bundle.states
    probe = states.terminal[: min(8, states.n_paths)]
    problem.check_gradients(probe)
    k = states.grid.n_steps - 1  # and the declared Jacobians on the same paths' last step
    problem.dyn.check_jacobians(states.grid.nodes[k], states.values[:len(probe), k],
                                states.recorded("control").at(k, states.n_paths)[:len(probe)])

    conditions: Dict[str, dict] = {}
    causes: List[str] = []

    slack = slackness_check(problem, bundle.states, terminal.multipliers, cfg)
    conditions["feasibility"] = {
        "status": "pass" if slack.feasible else "fail",
        "constraint_means": slack.constraint_means,
        "constraint_stderrs": slack.constraint_stderrs,
        "tolerance": cfg.feasibility_tol,
    }
    if not slack.feasible:
        causes.append("candidate violates a terminal expectation constraint")
    conditions["slackness"] = {
        "status": "pass" if slack.passed else "fail",
        "residuals": slack.residuals,
        "tolerance": cfg.slackness_tol,
    }
    if not slack.passed:
        causes.append("complementary slackness residual above tolerance")

    z = np.asarray(problem.cost(bundle.states.terminal), dtype=float)
    gap = risk_param_gap(problem.risk, z, terminal.xi)
    conditions["risk_parameter"] = {
        "status": "pass" if gap <= cfg.risk_gap_tol else "fail",
        "gap": gap,
        "tolerance": cfg.risk_gap_tol,
    }
    if gap > cfg.risk_gap_tol:
        causes.append("risk subgradient does not attain the dual maximum")

    resid = bundle.costates.bsde_residual_max
    adj_ok = resid <= cfg.bsde_residual_bound
    conditions["adjoint_residual"] = {
        "status": "pass" if adj_ok else "inconclusive",
        "residual_max": resid,
        "bound": cfg.bsde_residual_bound,
        "ridge_flagged": bundle.costates.diagnostics.ridge_flagged,
        "basis_size": bundle.costates.diagnostics.basis_size,
    }
    if not adj_ok:
        causes.append("backward costate residual above its calibrated bound")

    mart = martingale_check(bundle.costates, cfg.martingale_sigma)
    conditions["martingale"] = {
        "status": "pass" if mart.passed else "inconclusive",
        "slopes": mart.slopes,
        "stderrs": mart.stderrs,
    }
    if not mart.passed:
        causes.append("weighted costate mean drifts beyond the sampling band")

    gap_report = maximization_gap(problem, bundle.states, bundle.costates, cfg)
    conditions["maximization"] = {
        "status": "pass" if gap_report.passed else "fail",
        "mean": gap_report.mean,
        "max": gap_report.max,
        "violating_fractions": gap_report.violating_fractions,
        "grid_points": gap_report.grid_points,
        "threshold": cfg.gap_threshold,
        "measure_tolerance": cfg.violating_measure_tol,
    }
    if not gap_report.passed:
        causes.append("Hamiltonian maximization gap exceeds threshold on too much of dt x P")

    norm = normality_certificate(problem, bundle.states, slack.active_set, cfg)
    conditions["normality"] = {
        "status": "pass" if norm.status in ("vacuous", "certified") else "inconclusive",
        "detail": norm.status,
        "witness": norm.witness,
        "margins": norm.margins,
        "candidates_tried": norm.candidates_tried,
    }
    if norm.status == "not_found":
        causes.append("no strict inward direction found for the active constraints")

    hard_fail = any(cond["status"] == "fail" for cond in conditions.values())
    soft = any(cond["status"] == "inconclusive" for cond in conditions.values())
    verdict = "fail" if hard_fail else ("inconclusive" if soft else "pass")

    cert = PmpCertificate(
        verdict=verdict,
        conditions=conditions,
        causes=causes,
        active_set=slack.active_set,
        multipliers=terminal.multipliers,
        config=cfg,
    )
    return cert, gap_report
