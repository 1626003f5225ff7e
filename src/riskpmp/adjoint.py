"""Backward costate solver along a candidate optimal ensemble.

The costate pair (p, q) is produced in three moves:

1. terminal assembly: p(T) from the stored risk subgradient, the cost
   gradient and any constraint gradients with signed multipliers,
2. martingale estimation: conditional expectations of the weighted terminal
   vector G = phi(T)^T p(T) by least-squares Monte Carlo on polynomial
   features of (x(t_k), W(t_k)),
3. extraction: p(t_k) = psi(t_k)^T m_k, and q_i(t_k) = psi^T mu_i - D_i^T p
   where mu_i is fitted per step from martingale increments times dW_i/dt.

One thin SVD of each node's scaled features serves every fit at that node.
The nodes are walked in order, each W(t_k) read from the running sum of the
increments (BrownianEnsemble.running_levels), so no (M, K+1, d) array of
Brownian levels is built; node k's increment fit waits only for m_{k+1}, so
at most two node fits are held.  The pair keeps the fits' coefficients, not
(M, K+1, n) arrays of p and q: its readers evaluate them one node at a time
(CostatePair.by_node) or on a span of paths (CostatePair.span).
Output bytes do not depend on the BLAS thread count (the CLI tests check it).
"""

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations_with_replacement
from math import comb
from operator import iadd
from typing import Optional, Sequence, Tuple

import numpy as np

from .sde import (BrownianEnsemble, ControlLaw, DynamicsSpec, FundamentalMatrices,
                  StateEnsemble, TimeGrid, _block_law, sample_std)

RIDGE = 1e-10
RIDGE_FLAG_SHIFT = 1e-8


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial features of (state, Brownian level) up to a total degree.

    Degree 2 over (x, W) is the default working basis; it reproduces every
    conditional expectation that is affine-quadratic in the linear-dynamics
    benchmarks exactly, and its inadequacy elsewhere shows up in the
    residual diagnostics rather than failing silently.
    """

    degree: int = 2
    include_brownian: bool = True

    def n_features(self, state_dim: int, noise_dim: int) -> int:
        v = state_dim + (noise_dim if self.include_brownian else 0)
        return sum(comb(v + deg - 1, deg) for deg in range(self.degree + 1))

    def feature_matrix(self, x: np.ndarray, w: Optional[np.ndarray]) -> np.ndarray:
        """The (M, B) features of states x (M, n) and Brownian values w (M, d)."""
        return self._features(x, w).T

    def feature_rows(self, x: np.ndarray, w: Optional[np.ndarray]) -> np.ndarray:
        """feature_matrix transposed, (B, M), each feature's values contiguous."""
        return self._features(x, w, rows=True)

    def _features(self, x: np.ndarray, w: Optional[np.ndarray], rows: bool = False) -> np.ndarray:
        """out[j] = monomial j of the variables (the columns of x, then of w),
        in degree order, with out (B, M) C-ordered when rows, else the
        transpose of a C-ordered (M, B) array."""
        z = list(x.T) + (list(w.T) if self.include_brownian and w is not None else [])
        monomials = [()] + [idx for deg in range(1, self.degree + 1)
                            for idx in combinations_with_replacement(range(len(z)), deg)]
        column = {idx: j for j, idx in enumerate(monomials)}
        out = np.empty((len(monomials), len(x))) if rows else np.empty((len(x), len(monomials))).T
        out[0] = 1.0
        # each degree-d monomial is a degree-(d-1) one times a variable, read
        # past degree 1 from the variable's own slot of out
        for j, idx in enumerate(monomials[1:], 1):
            variable = z[idx[-1]] if len(idx) == 1 else out[idx[-1] + 1]
            np.multiply(out[column[idx[:-1]]], variable, out=out[j])
        return out


class NodeFit:
    """One node's design, scaled to unit column rms and factorized once as
    xs = U diag(s) V^T for every fit made there.  A fit of y solves
    (xs^T xs / m + RIDGE I) c = xs^T y / m, so its fitted values are
    U diag(s^2 / (s^2 + m RIDGE)) U^T y.  The ridge shift is measured against
    the plain least-squares projection onto the columns of U with
    s > eps * max(m, B) * s_0 (lstsq's rcond=None rule), so rank deficiency
    is handled on both routes."""

    def __init__(self, features: np.ndarray):
        m, b = features.shape
        scale = np.sqrt(np.mean(features**2, axis=0))
        scale[scale == 0.0] = 1.0
        self.scale = scale
        self.u, s, self.vt = np.linalg.svd(features / scale, full_matrices=False)
        damped = s**2 + m * RIDGE
        self.fit_filter = s**2 / damped
        self.coef_filter = s / damped
        self.plain = s > np.finfo(float).eps * max(m, b) * s[0]

    def fit(self, target: np.ndarray) -> Tuple[np.ndarray, float, float, np.ndarray]:
        """(fitted values, residual rms, max abs shift of the fitted values
        caused by the ridge term, coefficients on the unscaled features) for a
        target of shape (M,) or (M, r)."""
        y = target if target.ndim == 2 else target[:, None]
        uty = self.u.T @ y
        fitted = self.u @ (self.fit_filter[:, None] * uty)
        shift = float(np.max(np.abs(self.u @ ((self.fit_filter - self.plain)[:, None] * uty))))
        resid_rms = float(np.sqrt(np.mean((y - fitted) ** 2)))
        coef = self.vt.T @ (self.coef_filter[:, None] * uty) / self.scale[:, None]
        if target.ndim == 1:
            fitted, coef = fitted[:, 0], coef[:, 0]
        return fitted, resid_rms, shift, coef


def _apply_transposed(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Per-path mat^T vec over the state axis: out[p, i, ...] =
    sum_j mat[p, j, i] vec[p, j, ...], for mat (M or 1, n, n) and vec (M, n)
    or (M, n, d).  A path-constant mat (leading axis 1) is one 2-D product."""
    if mat.shape[0] == 1:
        rows = np.moveaxis(vec, 1, -1)
        out = rows.reshape(-1, rows.shape[-1]) @ mat[0]
        return np.moveaxis(out.reshape(rows.shape), -1, 1)
    return np.einsum("pji,pj...->pi...", mat, vec)


def _product(rows: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The (r, M) values coef^T rows of the (B, M) feature rows and (B, r)
    coefficients, summed one feature at a time.  Elementwise, unlike a BLAS
    product, which may take one path through another kernel than many, so a
    path gets the same bits whichever paths are evaluated with it."""
    return np.stack([reduce(iadd, (rows[b] * column[b] for b in range(len(rows))))
                     for column in coef.T])


def _transposed(mat: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """out[i] = sum_j mat[j, i] comps[j]: mat^T applied to the components
    comps (n, ..., M), each entry mat[j, i] broadcasting against comps[j].
    _apply_transposed is the same product through BLAS and einsum; the
    regression keeps it, so its fits and residuals keep their bits."""
    n = len(mat)
    return np.stack([reduce(iadd, (mat[j, i] * comps[j] for j in range(n))) for i in range(n)])


# ---------------------------------------------------------------------------
# terminal condition


@dataclass(frozen=True)
class TerminalCostate:
    p_T: np.ndarray          # (M, n)
    multipliers: Tuple[float, ...]
    xi: np.ndarray           # (M,) risk subgradient weights used in assembly

    @property
    def normal(self) -> bool:
        return self.multipliers[0] == -1.0


def assemble_terminal(
    xi,
    cost_gradient: np.ndarray,
    multipliers: Sequence[float] = (-1.0,),
    constraint_gradients: Sequence[np.ndarray] = (),
) -> TerminalCostate:
    """p(T) = xi * m0 * grad(cost) + sum_i m_i * grad(constraint_i).

    The leading multiplier must be -1 (normal) or 0 (abnormal); the rest are
    nonpositive, and the whole vector must be nontrivial.  xi may be a
    RiskSubgradient or a plain per-path array.
    """
    xi_values = np.asarray(getattr(xi, "xi", xi), dtype=float)
    grad = np.asarray(cost_gradient, dtype=float)
    if grad.ndim != 2:
        raise ValueError("cost_gradient must have shape (n_paths, state_dim)")
    if xi_values.shape != (grad.shape[0],):
        raise ValueError("xi must supply one weight per path")
    if np.any(xi_values < -1e-12):
        raise ValueError("risk subgradient weights must be nonnegative")

    mults = tuple(float(m) for m in multipliers)
    if mults[0] not in (-1.0, 0.0):
        raise ValueError("leading multiplier must be -1 (normal) or 0 (abnormal)")
    if any(m > 0.0 for m in mults[1:]):
        raise ValueError("constraint multipliers must be nonpositive")
    if all(m == 0.0 for m in mults):
        raise ValueError("multiplier vector must be nontrivial")
    if len(constraint_gradients) != len(mults) - 1:
        raise ValueError("need one gradient per constraint multiplier")

    p_T = mults[0] * xi_values[:, None] * grad
    for m_i, g_i in zip(mults[1:], constraint_gradients):
        p_T = p_T + m_i * np.asarray(g_i, dtype=float)
    bad = ~np.isfinite(p_T).all(axis=1)
    if bad.any():
        raise ValueError(f"terminal costate is not finite on {int(bad.sum())} of {bad.size} "
                         f"paths (first at path {int(np.argmax(bad))})")
    return TerminalCostate(p_T=p_T, multipliers=mults, xi=xi_values)


# ---------------------------------------------------------------------------
# backward solve


@dataclass(frozen=True)
class RegressionDiagnostics:
    basis_size: int
    residual_rms: np.ndarray      # (K+1,) martingale fit residuals per node
    mu_residual_rms: np.ndarray   # (K,) increment fit residuals per step
    ridge_max_shift: float
    ridge_flagged: bool


@dataclass(frozen=True)
class CostatePair:
    """(p, q) held as the node fits they are evaluated from, with the
    terminal condition p(T), the flow (phi, psi) they were extracted through
    and the states whose (x_k, W_k) are the fits' features."""

    diagnostics: RegressionDiagnostics
    bsde_residuals: np.ndarray    # (K,) ensemble-mean one-step residual norms
    bsde_residual_max: float
    terminal: TerminalCostate
    fund: FundamentalMatrices
    dyn: DynamicsSpec
    states: StateEnsemble
    basis: RegressionBasis
    node_coef: np.ndarray  # (K, B, n): m_k = features(x_k, W_k) @ node_coef[k]
    mu_coef: np.ndarray    # (K, B, n, d): mu_k = features(x_k, W_k) @ mu_coef[k]

    @property
    def grid(self) -> TimeGrid:
        return self.states.grid

    @cached_property
    def band(self) -> "CostateBand":
        """costate_band of the pair, computed on first use."""
        return costate_band(self)

    def by_node(self, lo: int = 0, hi: Optional[int] = None, p: bool = True, q: bool = True):
        """(p_k, q_k) on paths lo..hi-1 (all by default) for k = 0..K, one node
        at a time: p_k = psi_k^T (features(x_k, W_k) @ node_coef[k]) with
        p_K = p(T) exactly, and q_k = psi_k^T mu_k - D_k^T p_k with mu_k from
        mu_coef.  q_K is None, and so is each value not asked for (p_K is
        always given).  A path's values do not depend on which other paths
        are evaluated with it (_product)."""
        states, psi = self.states, self.fund.psi
        hi = states.n_paths if hi is None else hi
        psi = psi if psi.shape[0] == 1 else psi[lo:hi]
        d_at = None
        if q and self.dyn.diffusion_jac is not None:
            law = _block_law(states.recorded("control"), lo, hi)
            d_at = _jacobian_steps(self.dyn, law, states.grid.nodes, hi - lo)[1]
        increments = states.recorded("brownian").increments[lo:hi]
        levels = BrownianEnsemble(states.grid, increments).running_levels()
        n_features, n, d = self.mu_coef.shape[1:]
        # components first, (n, M) and (n, d, M), so every operation runs along the paths
        for k, w_k in zip(range(states.grid.n_steps), levels):
            x_k = states.values[lo:hi, k]
            rows = self.basis.feature_rows(x_k, w_k)
            psi_k = np.moveaxis(psi[:, k], 0, -1)  # psi_k[j, i] is (1,) or (M,)
            p_k = q_k = None
            if p or d_at is not None:
                p_k = _transposed(psi_k, _product(rows, self.node_coef[k]))
            if q:
                mu = _product(rows, self.mu_coef[k].reshape(n_features, n * d))
                q_k = _transposed(psi_k, mu.reshape(n, d, -1))
                if d_at is not None:  # q_k -= D_k^T p_k, D_k (M, d, n, n)
                    q_k -= _transposed(np.moveaxis(d_at(k, x_k), (0, 1), (-1, -2)), p_k)
                q_k = np.moveaxis(q_k, -1, 0)
            yield (p_k.T if p else None), q_k
        yield self.terminal.p_T[lo:hi], None

    def span(self, lo: int = 0, hi: Optional[int] = None, p: bool = True, q: bool = True):
        """p (hi-lo, K+1, n) and q (hi-lo, K, n, d) on paths lo..hi-1, by
        by_node; a value not asked for is None."""
        hi = self.states.n_paths if hi is None else hi
        n_steps, (_, _, n, d) = self.grid.n_steps, self.mu_coef.shape
        p_out = np.empty((hi - lo, n_steps + 1, n)) if p else None
        q_out = np.empty((hi - lo, n_steps, n, d)) if q else None
        for k, (p_k, q_k) in enumerate(self.by_node(lo, hi, p, q)):
            if p:
                p_out[:, k] = p_k
            if q_k is not None:
                q_out[:, k] = q_k
        return p_out, q_out


def _jacobian_steps(dyn: DynamicsSpec, law: ControlLaw, nodes: np.ndarray,
                    n_paths: int) -> Tuple:
    """A_k and D_k as functions of (k, x_k): the drift and diffusion
    Jacobians at node k for states x_k (M, n) under the grid control law;
    the D function is None when the dynamics declare no diffusion_jac."""
    if dyn.drift_jac is None:
        raise ValueError("adjoint machinery needs drift_jac on the dynamics")

    def a_at(k: int, x_k: np.ndarray) -> np.ndarray:
        return dyn.drift_jac(nodes[k], x_k, law.at(k, n_paths))

    if dyn.diffusion_jac is None:
        return a_at, None

    def d_at(k: int, x_k: np.ndarray) -> np.ndarray:
        return dyn.diffusion_jac(nodes[k], x_k, law.at(k, n_paths))

    return a_at, d_at


def linearization_along(dyn: DynamicsSpec, states: StateEnsemble) -> Tuple:
    """Per-step accessors for A_k, D_k along the candidate trajectory and the
    control it carries, suitable for fundamental_matrices and solve_adjoint.

    Declare diffusion_jac on the dynamics only when it is genuinely nonzero;
    leaving it None for additive noise keeps the fundamental pair
    deterministic, which is much cheaper.
    """
    a_at, d_at = _jacobian_steps(dyn, states.recorded("control"), states.grid.nodes,
                                 states.n_paths)

    def a_fn(k: int) -> np.ndarray:
        return a_at(k, states.values[:, k, :])

    def d_fn(k: int) -> np.ndarray:
        return d_at(k, states.values[:, k, :])

    return a_fn, (None if d_at is None else d_fn)


def solve_adjoint(
    dyn: DynamicsSpec,
    states: StateEnsemble,
    terminal: TerminalCostate,
    fund: FundamentalMatrices,
    basis: Optional[RegressionBasis] = None,
) -> CostatePair:
    """Solve the backward costate equation by regression along the states'
    Brownian ensemble; the pair records terminal and fund.

    p(t_k) = psi(t_k)^T m_k with m_k the fitted conditional expectation of
    G = phi(T)^T p(T); the diffusion loading mu_i comes from regressing
    martingale increments times dW_i/dt on the same features, and
    q_i = psi^T mu_i - D_i^T p.  The terminal slice is set to p(T) exactly
    rather than through psi phi, so it matches the assembled condition
    bit for bit.  The pair keeps each node's coefficients of m_k and mu
    (node_coef, mu_coef), from which its readers evaluate p and q; the
    increment targets and the residuals read the fitted values, which agree
    with those evaluations to rounding.
    """
    basis = basis or RegressionBasis()
    m_paths, n_nodes, n = states.values.shape
    n_steps = n_nodes - 1
    dt = states.grid.dt
    brownian = states.recorded("brownian")
    d = brownian.dim
    a_fn, d_fn = linearization_along(dyn, states)

    g_vec = _apply_transposed(fund.phi[:, n_steps], terminal.p_T)
    n_features = basis.n_features(n, d)
    node_coef = np.empty((n_steps, n_features, n))
    mu_coef = np.empty((n_steps, n_features, n, d))
    resid_rms = np.zeros(n_nodes)
    mu_resid_rms = np.zeros(n_steps)
    bsde = np.empty(n_steps)

    def finish(k: int, fit: NodeFit, m_k: np.ndarray, p_k: np.ndarray, m_next: np.ndarray,
               p_next: np.ndarray) -> float:
        """Node k's increment fit, q_k and BSDE residual, once m_{k+1} and
        p_{k+1} are known; returns the fit's ridge shift."""
        dw = brownian.increments[:, k, :]
        target = ((m_next - m_k)[:, :, None] * dw[:, None, :]).reshape(m_paths, n * d) / dt
        mu, mu_resid_rms[k], mu_shift, coef = fit.fit(target)
        mu_coef[k] = coef.reshape(n_features, n, d)
        q_k = _apply_transposed(fund.psi[:, k], mu.reshape(m_paths, n, d))
        if d_fn is not None:
            d_k = d_fn(k)
            q_k = q_k - np.einsum("pdji,pj->pid", d_k, p_k)

        hx = _apply_transposed(a_fn(k), p_k)
        if d_fn is not None:
            hx = hx + np.einsum("pdji,pjd->pi", d_k, q_k)
        step_resid = p_next - p_k + hx * dt - np.einsum("pid,pd->pi", q_k, dw)
        bsde[k] = float(np.mean(np.linalg.norm(step_resid, axis=1)))
        return mu_shift

    ridge_shift = 0.0
    pending = None  # (k, fit, m_k, p_k) of the node that waits for m_{k+1}
    for k, w_k in zip(range(n_steps), brownian.running_levels()):
        fit = NodeFit(basis.feature_matrix(states.values[:, k, :], w_k))
        m_k, resid_rms[k], shift, node_coef[k] = fit.fit(g_vec)
        p_k = _apply_transposed(fund.psi[:, k], m_k)
        ridge_shift = max(ridge_shift, shift)
        if pending is not None:
            ridge_shift = max(ridge_shift, finish(*pending, m_k, p_k))
        pending = (k, fit, m_k, p_k)
    ridge_shift = max(ridge_shift, finish(*pending, g_vec, terminal.p_T))

    diagnostics = RegressionDiagnostics(
        basis_size=n_features,
        residual_rms=resid_rms,
        mu_residual_rms=mu_resid_rms,
        ridge_max_shift=ridge_shift,
        ridge_flagged=ridge_shift > RIDGE_FLAG_SHIFT,
    )
    return CostatePair(
        diagnostics=diagnostics,
        bsde_residuals=bsde,
        bsde_residual_max=float(bsde.max()) if n_steps else 0.0,
        terminal=terminal,
        fund=fund,
        dyn=dyn,
        states=states,
        basis=basis,
        node_coef=node_coef,
        mu_coef=mu_coef,
    )


# ---------------------------------------------------------------------------
# diagnostics on a solved pair


@dataclass(frozen=True)
class CostateBand:
    mean: np.ndarray        # (K+1, n) ensemble mean of each costate component per node
    stderr: np.ndarray      # (K+1, n) its standard error, NaN for one path
    path_drift: np.ndarray  # (M, n) per path, sum_k (t_k - mean t) phi_k^T p_k


def costate_band(pair: CostatePair) -> CostateBand:
    """The per-node mean of each component of p and its standard error, as
    the bang-bang check and the costate_mean rows read them, and the
    per-path drift sums martingale_check reads: one walk over the nodes of p
    gives all three; a pair keeps its band (CostatePair.band)."""
    t_centered = pair.grid.nodes - pair.grid.nodes.mean()
    phi, mean, stderr, drift = pair.fund.phi, [], [], 0.0
    for k, (p_k, _) in enumerate(pair.by_node(q=False)):
        mean.append(p_k.mean(axis=0))
        stderr.append(sample_std(p_k) / np.sqrt(len(p_k)))
        drift = drift + t_centered[k] * _transposed(np.moveaxis(phi[:, k], 0, -1), p_k.T)
    return CostateBand(mean=np.stack(mean), stderr=np.stack(stderr), path_drift=drift.T)


@dataclass(frozen=True)
class MartingaleReport:
    slopes: np.ndarray      # (n,) fitted drift of mean phi^T p per component
    stderrs: np.ndarray     # (n,), NaN for one path
    passed: bool


def martingale_check(pair: CostatePair, sigma: float = 5.0) -> MartingaleReport:
    """The phi(t)^T-weighted costate must be a martingale, so the ensemble
    mean of each component should be flat in t, within sigma standard errors.

    The slope estimate is the least-squares drift of the mean curve, which
    equals the mean of the per-path drifts; its standard error comes from
    the scatter of those per-path drifts, since paths are independent while
    the nodes of the mean curve are not.
    """
    t_centered = pair.grid.nodes - pair.grid.nodes.mean()
    path_slopes = pair.band.path_drift / float(t_centered @ t_centered)
    slopes = path_slopes.mean(axis=0)
    stderrs = sample_std(path_slopes) / np.sqrt(path_slopes.shape[0])
    # a NaN band (one path) passes nothing
    passed = bool(np.all(np.abs(slopes) <= sigma * stderrs + 1e-12))
    return MartingaleReport(slopes=slopes, stderrs=stderrs, passed=passed)
