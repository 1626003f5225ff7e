"""Reference oracles the tests check the library against.

Audits of the theory that no verb or pipeline stage runs: the dual
representation and the coherence axioms of a risk measure, the
least-squares conditional expectation and its tower property, and the
continuity of the linearized solution in the tangent selection, and the
backward costate regression over the whole array of Brownian levels that
solve_adjoint's forward walk must reproduce.  They are built on the
library's own pieces and live next to the tests that read them.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from riskpmp.adjoint import (RIDGE_FLAG_SHIFT, CostatePair, NodeFit, RegressionBasis,
                             RegressionDiagnostics, TerminalCostate, _apply_transposed,
                             linearization_along)
from riskpmp.risk import _AGREEMENT_TOL, RiskMeasure, SampledRandomVariable, _as_sample
from riskpmp.sde import DynamicsSpec, FundamentalMatrices, StateEnsemble, solve_linearized


# ---------------------------------------------------------------------------
# risk measures: the dual representation and the coherence axioms


@dataclass(frozen=True)
class RepresentationReport:
    """Audit of rho(Z) = sup{E[xi Z] : xi in the risk envelope}."""

    risk: float
    sup_gap: float          # rho - best sampled feasible density (>= -1e-9)
    attainment_error: float  # |rho - E[xi* Z]|
    n_trials: int

    @property
    def passed(self) -> bool:
        return self.sup_gap >= -_AGREEMENT_TOL and self.attainment_error <= _AGREEMENT_TOL


def representation_check(
    measure: RiskMeasure, z, n_trials: int = 64, seed: int = 0
) -> RepresentationReport:
    """Sample feasible densities from the risk envelope and verify none beats
    rho(Z), while the computed subgradient attains it.

    Feasible densities are built as convex mixtures of envelope extreme
    points (subgradients of the measure at random directions) and the
    constant density 1, so feasibility is exact by convexity.
    """
    sample = _as_sample(z)
    w = sample.weight_array()
    rng = np.random.default_rng(seed)
    rho = measure.value(sample)
    best = -np.inf
    for _ in range(int(n_trials)):
        direction = rng.normal(size=sample.size)
        extreme = measure.subgradient(
            SampledRandomVariable(direction, sample.weights)
        ).xi
        theta = rng.uniform()
        xi = theta * extreme + (1.0 - theta) * np.ones(sample.size)
        best = max(best, float((w * xi) @ sample.values))
    attained = float((w * measure.subgradient(sample).xi) @ sample.values)
    return RepresentationReport(
        risk=rho,
        sup_gap=rho - best,
        attainment_error=abs(rho - attained),
        n_trials=int(n_trials),
    )


@dataclass(frozen=True)
class CoherenceViolation:
    axiom: str
    lhs: float
    rhs: float
    witness: dict


@dataclass(frozen=True)
class CoherenceReport:
    n_trials: int
    tolerance: float
    violations: tuple

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def coherence_suite(
    value_fn,
    n_trials: int = 200,
    seed: int = 0,
    tolerance: float = _AGREEMENT_TOL,
    max_size: int = 64,
) -> CoherenceReport:
    """Randomized audit of the coherence axioms for any sample functional.

    value_fn: RiskMeasure or callable SampledRandomVariable -> float.
    Checks convexity, monotonicity, translation invariance, and positive
    homogeneity on random weighted samples; violations carry witnesses.
    """
    if isinstance(value_fn, RiskMeasure):
        fn: Callable = value_fn.value
    else:
        fn = value_fn
    rng = np.random.default_rng(seed)
    violations = []

    def record(axiom, lhs, rhs, **witness):
        if lhs > rhs + tolerance:
            violations.append(
                CoherenceViolation(axiom=axiom, lhs=float(lhs), rhs=float(rhs), witness=witness)
            )

    for trial in range(int(n_trials)):
        size = int(rng.integers(2, max_size + 1))
        if rng.uniform() < 0.5:
            weights = None
        else:
            weights = rng.uniform(0.05, 1.0, size=size)
            weights = weights / weights.sum()
        z1 = rng.normal(scale=rng.uniform(0.5, 3.0), size=size)
        z2 = rng.normal(scale=rng.uniform(0.5, 3.0), size=size)
        s1 = SampledRandomVariable(z1, weights)
        s2 = SampledRandomVariable(z2, weights)

        lam = rng.uniform(0.05, 0.95)
        mix = SampledRandomVariable(lam * z1 + (1 - lam) * z2, weights)
        record(
            "convexity", fn(mix), lam * fn(s1) + (1 - lam) * fn(s2),
            trial=trial, lam=lam,
        )

        bigger = SampledRandomVariable(z1 + np.abs(z2), weights)
        record("monotonicity", fn(s1), fn(bigger), trial=trial)

        shift = float(rng.uniform(-3.0, 3.0))
        shifted = SampledRandomVariable(z1 + shift, weights)
        val = fn(s1)
        record("translation", fn(shifted), val + shift, trial=trial, shift=shift)
        record("translation", val + shift, fn(shifted), trial=trial, shift=shift)

        scale = float(rng.uniform(0.1, 4.0))
        scaled = SampledRandomVariable(scale * z1, weights)
        record("homogeneity", fn(scaled), scale * val, trial=trial, scale=scale)
        record("homogeneity", scale * val, fn(scaled), trial=trial, scale=scale)

    return CoherenceReport(
        n_trials=int(n_trials), tolerance=tolerance, violations=tuple(violations)
    )


# ---------------------------------------------------------------------------
# regression: the conditional expectation and the tower property


def conditional_expectation(
    regressand: np.ndarray,
    states: StateEnsemble,
    k: int,
    basis: Optional[RegressionBasis] = None,
) -> np.ndarray:
    """Least-squares projection of a terminal-measurable quantity onto
    polynomial features of (x(t_k), W(t_k)); the numerical realization of
    E[. | F_{t_k}] along the ensemble."""
    basis = basis or RegressionBasis()
    w_k = states.recorded("brownian").levels()[:, k]
    features = basis.feature_matrix(states.values[:, k, :], w_k)
    return NodeFit(features).fit(np.asarray(regressand, dtype=float))[0]


@dataclass(frozen=True)
class TowerReport:
    node_pairs: List[Tuple[int, int]]
    rms_gaps: np.ndarray
    tolerances: np.ndarray
    passed: bool


def tower_check(
    regressand: np.ndarray,
    states: StateEnsemble,
    basis: Optional[RegressionBasis] = None,
    node_pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> TowerReport:
    """Projecting the step-k estimate down to step j < k must reproduce the
    step-j estimate: the gap is the j-projection of the step-k residual,
    whose sampling size is resid_rms * sqrt(B/M).  Pass at five times that,
    plus a small absolute floor covering ridge-level noise in exact fits."""
    basis = basis or RegressionBasis()
    n_steps = states.grid.n_steps
    if node_pairs is None:
        node_pairs = [(n_steps // 4, n_steps // 2), (n_steps // 2, (3 * n_steps) // 4)]
        node_pairs = [(j, k) for j, k in node_pairs if j < k]
    brownian = states.recorded("brownian")
    levels = brownian.levels()
    g = np.asarray(regressand, dtype=float)
    n_feat = basis.n_features(states.state_dim, brownian.dim)

    gaps = np.empty(len(node_pairs))
    tols = np.empty(len(node_pairs))
    for i, (j, k) in enumerate(node_pairs):
        if not 0 <= j < k <= n_steps:
            raise ValueError("node pairs must satisfy 0 <= j < k <= K")
        m_k, rms_k, _, _ = NodeFit(basis.feature_matrix(states.values[:, k, :], levels[:, k])).fit(g)
        fit_j = NodeFit(basis.feature_matrix(states.values[:, j, :], levels[:, j]))
        diff = fit_j.fit(m_k)[0] - fit_j.fit(g)[0]
        gaps[i] = float(np.sqrt(np.mean(diff**2)))
        tols[i] = 5.0 * rms_k * np.sqrt(n_feat / g.shape[0]) + 1e-7
    return TowerReport(
        node_pairs=list(node_pairs),
        rms_gaps=gaps,
        tolerances=tols,
        passed=bool(np.all(gaps <= tols)),
    )


def backward_adjoint(
    dyn: DynamicsSpec,
    states: StateEnsemble,
    terminal: TerminalCostate,
    fund: FundamentalMatrices,
    basis: Optional[RegressionBasis] = None,
) -> Tuple[CostatePair, np.ndarray, np.ndarray]:
    """solve_adjoint's regression as a backward loop from node K-1 to 0 over
    the whole (M, K+1, d) array of Brownian levels, each node's fits done
    together and p and q held as (M, K+1, n) and (M, K, n, d) arrays: the
    reference that the library's forward walk must equal, node fits
    (node_coef, mu_coef) and residuals alike.  Returns the pair with those
    arrays of fitted p and q, which the pair's evaluations must match to
    rounding."""
    basis = basis or RegressionBasis()
    m_paths, n_nodes, n = states.values.shape
    n_steps = n_nodes - 1
    dt = states.grid.dt
    brownian = states.recorded("brownian")
    d = brownian.dim
    levels = brownian.levels()
    a_fn, d_fn = linearization_along(dyn, states)

    g_vec = _apply_transposed(fund.phi[:, n_steps], terminal.p_T)
    p = np.empty((m_paths, n_nodes, n))
    p[:, n_steps] = terminal.p_T
    q = np.empty((m_paths, n_steps, n, d))
    node_coef = np.empty((n_steps, basis.n_features(n, d), n))
    mu_coef = np.empty((n_steps, basis.n_features(n, d), n, d))
    resid_rms = np.zeros(n_nodes)
    mu_resid_rms = np.zeros(n_steps)
    bsde = np.empty(n_steps)
    ridge_shift = 0.0

    m_next = g_vec
    for k in range(n_steps - 1, -1, -1):
        fit = NodeFit(basis.feature_matrix(states.values[:, k, :], levels[:, k]))
        m_k, resid_rms[k], shift, node_coef[k] = fit.fit(g_vec)
        p[:, k] = _apply_transposed(fund.psi[:, k], m_k)

        dw = brownian.increments[:, k, :]
        target = ((m_next - m_k)[:, :, None] * dw[:, None, :]).reshape(m_paths, n * d) / dt
        mu, mu_resid_rms[k], mu_shift, coef = fit.fit(target)
        mu_coef[k] = coef.reshape(-1, n, d)
        ridge_shift = max(ridge_shift, shift, mu_shift)
        q_k = _apply_transposed(fund.psi[:, k], mu.reshape(m_paths, n, d))
        if d_fn is not None:
            d_k = d_fn(k)
            q_k = q_k - np.einsum("pdji,pj->pid", d_k, p[:, k])
        q[:, k] = q_k

        hx = _apply_transposed(a_fn(k), p[:, k])
        if d_fn is not None:
            hx = hx + np.einsum("pdji,pjd->pi", d_k, q_k)
        step_resid = p[:, k + 1] - p[:, k] + hx * dt - np.einsum("pid,pd->pi", q_k, dw)
        bsde[k] = float(np.mean(np.linalg.norm(step_resid, axis=1)))
        m_next = m_k

    diagnostics = RegressionDiagnostics(
        basis_size=basis.n_features(n, d),
        residual_rms=resid_rms,
        mu_residual_rms=mu_resid_rms,
        ridge_max_shift=ridge_shift,
        ridge_flagged=ridge_shift > RIDGE_FLAG_SHIFT,
    )
    pair = CostatePair(diagnostics=diagnostics, bsde_residuals=bsde,
                       bsde_residual_max=float(bsde.max()), terminal=terminal, fund=fund,
                       dyn=dyn, states=states, basis=basis, node_coef=node_coef, mu_coef=mu_coef)
    return pair, p, q


# ---------------------------------------------------------------------------
# selection continuity


def selection_continuity(dyn: DynamicsSpec, states: StateEnsemble, g_a, g_b) -> float:
    """Ratio of the linearized-solution gap to the selection gap, for two
    forcing accessors such as tangent_from_control returns.

    Numerator: E[sup_k |y_a - y_b|^2]^(1/2); denominator: the discrete
    L2 norm of (g1_a - g1_b, g2_a - g2_b).  The linearized flow is
    continuous in the selection, so the ratio stays bounded by a constant
    depending only on the data; the degenerate case of equal selections
    returns 0.
    """

    def g(k):
        (a1, a2), (b1, b2) = g_a(k), g_b(k)
        g2 = (0.0 if a2 is None else a2) - (0.0 if b2 is None else b2)
        return a1 - b1, (g2 if np.any(g2) else None)

    sq = 0.0  # per path, summed over the steps
    for k in range(states.grid.n_steps):
        g1, g2 = g(k)
        sq = sq + np.sum(g1 * g1, axis=-1)
        if g2 is not None:
            sq = sq + np.sum(g2 * g2, axis=(-2, -1))
    denom_sq = float(np.mean(sq)) * states.grid.dt
    if denom_sq == 0.0:
        return 0.0

    a_fn, d_fn = linearization_along(dyn, states)
    diff = solve_linearized(a_fn, d_fn, g, states.recorded("brownian"))
    num_sq = float(np.mean(np.max(np.sum(diff.values**2, axis=2), axis=1)))
    return np.sqrt(num_sq / denom_sq)


# ---------------------------------------------------------------------------
# the maximization gap's summary over the dense (M, K) array of cell gaps


def dense_gap_summary(gaps: np.ndarray, thresholds: Sequence[float], bins: int = 32):
    """(fractions, max, histogram counts, bin edges) of the cell gaps held
    whole: the fraction of cells above each threshold, the largest gap, and
    the bins-bin histogram of every cell over [0, max] (at least 1e-12
    wide), which certificate.gap_report and the CLI's gap_hist.csv give
    from the nonzero gaps alone."""
    flat = gaps.ravel()
    counts, edges = np.histogram(flat, bins=bins, range=(0.0, max(float(flat.max()), 1e-12)))
    return ({thr: float(np.mean(gaps > thr)) for thr in thresholds}, float(gaps.max()),
            counts, edges)
