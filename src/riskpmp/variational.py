"""Tangent selections from control differences, the linearization rate test,
selection-to-solution continuity, and the Ito non-relaxation gap.

The relaxation obstruction is the reason none of the controlled-diffusion
machinery here ever projects a convexified velocity back onto the original
set: the pointwise gap of the butterfly example survives inside every Ito
integral, while the Lebesgue integral closes it with a two-piece selection.
"""

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .adjoint import linearization_along
from .sde import DynamicsSpec, StateEnsemble, as_control_law, solve_linearized


@dataclass(frozen=True)
class TangentSelection:
    """Forcing pair for the linearized dynamics, built from two controls.

    g1[path, step] and g2[path, step] hold f(t, x*, w) - f(t, x*, u*) and the
    matching diffusion difference; g2 is stored as None when the diffusion
    does not feel the control, which is the regime where these selections
    are unconditionally valid.
    """

    g1: np.ndarray                 # (M, K, n)
    g2: Optional[np.ndarray]       # (M, K, n, d) or None when exactly zero

    @property
    def zero(self) -> bool:
        return not np.any(self.g1) and self.g2 is None


def _refuse_aborted(states: StateEnsemble) -> None:
    bad = ~np.isfinite(states.values).all(axis=(1, 2))
    if bad.any():
        raise ValueError(f"reference state is not finite on {int(bad.sum())} of {bad.size} "
                         f"paths (first at path {int(np.argmax(bad))})")


def _warn_unattested(dyn: DynamicsSpec) -> None:
    """Warn, at the caller of the public entry point, when the control enters
    the diffusion and the dynamics do not attest convex velocity sets."""
    if not dyn.convex_velocity_sets:
        warnings.warn(
            "control enters the diffusion but convex velocity sets are not "
            "attested; control-difference tangents are only licensed for "
            "uncontrolled diffusion or convex velocity sets",
            stacklevel=3,
        )


def _forcing(dyn: DynamicsSpec, t: float, x_k: np.ndarray, u_k: np.ndarray,
             w_k: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One node's control-difference forcing (g1_k, g2_k) at the states x_k:
    f(t, x*, w) - f(t, x*, u*) and the diffusion difference, None where that
    is exactly zero."""
    g1 = dyn.drift(t, x_k, w_k) - dyn.drift(t, x_k, u_k)
    g2 = dyn.diffusion(t, x_k, w_k) - dyn.diffusion(t, x_k, u_k)
    return g1, (g2 if np.any(g2) else None)


def tangent_from_control(dyn: DynamicsSpec, states: StateEnsemble, w) -> TangentSelection:
    """Pointwise control-difference selection along the candidate ensemble,
    from the control it carries toward w (a ControlLaw or its grid values).
    Aborted reference paths are rejected by count and first index."""
    _refuse_aborted(states)
    u_law = states.recorded("control")
    w_law = as_control_law(w)
    m_paths = states.n_paths
    n_steps = states.grid.n_steps
    nodes = states.grid.nodes

    g1 = np.empty((m_paths, n_steps, dyn.state_dim))
    g2 = None  # allocated at the first step whose diffusion feels the control
    for k in range(n_steps):
        x_k = np.ascontiguousarray(states.values[:, k, :])
        g1[:, k], g2_k = _forcing(dyn, nodes[k], x_k, u_law.at(k, m_paths), w_law.at(k, m_paths))
        if g2 is None and g2_k is not None:
            _warn_unattested(dyn)
            g2 = np.zeros((m_paths, n_steps, dyn.state_dim, dyn.noise_dim))
        if g2_k is not None:
            g2[:, k] = g2_k
    return TangentSelection(g1=g1, g2=g2)


# ---------------------------------------------------------------------------
# linearization rate


@dataclass(frozen=True)
class RateTable:
    epsilons: np.ndarray
    rates: np.ndarray

    @property
    def passed(self) -> bool:
        r = self.rates
        if np.max(r) <= 1e-12:
            return True
        nonincreasing = bool(np.all(r[1:] <= r[:-1] * (1 + 1e-9) + 1e-15))
        return nonincreasing and r[-1] < 0.5 * r[0]

    def rows(self) -> List[Tuple[float, float]]:
        return list(zip(self.epsilons.tolist(), self.rates.tolist()))


def linearization_rate(
    dyn: DynamicsSpec,
    states: StateEnsemble,
    w,
    epsilons: Sequence[float],
) -> RateTable:
    """r(eps) = (1/eps) E[sup_k |x^eps_k - x*_k - eps y_k|] on the states'
    Brownian paths, for the perturbation toward w (a ControlLaw or its grid
    values) that tangent_from_control selects.

    y does not depend on eps, so one streaming pass integrates it once while
    the E perturbed states advance as one (E, M, n) stack.  Each step's
    forcing is computed inside the pass, so beyond the states and their
    Brownian ensemble it holds that stack and per-step (M, ...) slices,
    never an (M, K, ...) array.  Aborted reference paths are rejected by
    count and first index.
    """
    eps = np.asarray(list(epsilons), dtype=float)
    if eps.ndim != 1 or eps.size == 0 or np.any(eps <= 0) or np.any(eps > 1):
        raise ValueError("epsilons must be a nonempty list inside (0, 1]")
    if np.any(np.diff(eps) >= 0):
        raise ValueError("epsilons must be strictly decreasing")
    _refuse_aborted(states)
    a_fn, d_fn = linearization_along(dyn, states)
    u_law, w_law, brownian = states.control, as_control_law(w), states.recorded("brownian")
    n_eps, m_paths, n, d = eps.size, states.n_paths, states.state_dim, brownian.dim
    nodes, dt = states.grid.nodes, states.grid.dt
    e3 = eps[:, None, None]

    x = np.repeat(states.values[None, :, 0, :], n_eps, axis=0)  # (E, M, n)
    y = np.zeros((m_paths, n))
    worst = np.zeros((n_eps, m_paths))  # running sup of the squared gap
    x_k = np.ascontiguousarray(states.values[:, 0, :])
    checked = False  # the velocity-set attestation, read once
    for k in range(states.grid.n_steps):
        # contiguous per-step slices, so the (E, M, n) arithmetic runs flat
        u_k = u_law.at(k, m_paths)
        g1, g2 = _forcing(dyn, nodes[k], x_k, u_k, w_law.at(k, m_paths))
        if g2 is not None and not checked:
            _warn_unattested(dyn)
            checked = True
        u_e = u_law.at(k, n_eps * m_paths) if u_law.deterministic else np.tile(u_k, (n_eps, 1))
        dw = np.ascontiguousarray(brownian.increments[:, k])
        flat = x.reshape(n_eps * m_paths, n)
        drift = dyn.drift(nodes[k], flat, u_e).reshape(n_eps, m_paths, n) + e3 * g1
        noise = dyn.diffusion(nodes[k], flat, u_e).reshape(n_eps, m_paths, n, d)
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

        x_k = np.ascontiguousarray(states.values[:, k + 1, :])  # x*_{k+1}: this gap, next forcing
        gap = x - x_k
        gap -= e3 * y
        # the sum np.linalg.norm takes, without a reduce over the short axis
        np.maximum(worst, sum(gap[..., i] * gap[..., i] for i in range(n)), out=worst)
    return RateTable(epsilons=eps, rates=np.sqrt(worst).mean(axis=1) / eps)


# ---------------------------------------------------------------------------
# selection continuity


def selection_continuity(
    dyn: DynamicsSpec,
    states: StateEnsemble,
    sel_a: TangentSelection,
    sel_b: TangentSelection,
) -> float:
    """Ratio of the linearized-solution gap to the selection gap.

    Numerator: E[sup_k |y_a - y_b|^2]^(1/2); denominator: the discrete
    L2 norm of (g1_a - g1_b, g2_a - g2_b).  The linearized flow is
    continuous in the selection, so the ratio stays bounded by a constant
    depending only on the data; the degenerate case of equal selections
    returns 0.
    """
    g1 = sel_a.g1 - sel_b.g1
    g2 = (0.0 if sel_a.g2 is None else sel_a.g2) - (0.0 if sel_b.g2 is None else sel_b.g2)
    if not np.any(g2):
        g2 = None

    dt = states.grid.dt
    denom_sq = float(np.mean(np.sum(g1**2, axis=(1, 2)))) * dt
    if g2 is not None:
        denom_sq += float(np.mean(np.sum(g2**2, axis=(1, 2, 3)))) * dt
    if denom_sq == 0.0:
        return 0.0

    a_fn, d_fn = linearization_along(dyn, states)
    diff = solve_linearized(a_fn, d_fn, g1, g2, states.recorded("brownian"))
    num_sq = float(np.mean(np.max(np.sum(diff.values**2, axis=2), axis=1)))
    return np.sqrt(num_sq / denom_sq)


# ---------------------------------------------------------------------------
# the Ito non-relaxation gap


@dataclass(frozen=True)
class ItoGapReport:
    target: Tuple[float, float]
    pointwise_min_sq_dist: float
    nearest_points: List[Tuple[float, float]]
    ito_lower_bound: float
    lebesgue_selection: str
    lebesgue_gap: float


def _project_to_segment(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = b - a
    t = float(np.dot(p - a, ab) / np.dot(ab, ab))
    return a + min(max(t, 0.0), 1.0) * ab


def _min_sq_dist_to_triangle(p: np.ndarray, verts: Sequence[np.ndarray]) -> Tuple[float, np.ndarray]:
    # inside test via sign of cross products, else nearest edge projection
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    signs = [cross(verts[i], verts[(i + 1) % 3], p) for i in range(3)]
    if all(s >= 0 for s in signs) or all(s <= 0 for s in signs):
        return 0.0, p.copy()
    best, best_pt = np.inf, None
    for i in range(3):
        cand = _project_to_segment(p, verts[i], verts[(i + 1) % 3])
        d = float(np.sum((p - cand) ** 2))
        if d < best:
            best, best_pt = d, cand
    return best, best_pt


def ito_counterexample() -> ItoGapReport:
    """The butterfly set F (two triangles pinched at (1/2, 0)) admits the
    barycenter (1/2, 1) of co F, yet every selection of F stays at squared
    distance 1/5 pointwise, so by the isometry every Ito integral misses the
    target by at least 1/5.  A two-piece selection closes the Lebesgue-side
    gap to zero exactly."""
    target = np.array([0.5, 1.0])
    left = [np.array(v, dtype=float) for v in ((0, 0), (0.5, 0), (0, 1))]
    right = [np.array(v, dtype=float) for v in ((0.5, 0), (1, 0), (1, 1))]

    d_left, p_left = _min_sq_dist_to_triangle(target, left)
    d_right, p_right = _min_sq_dist_to_triangle(target, right)
    pointwise = min(d_left, d_right)
    nearest = [tuple(p) for p, d in ((p_left, d_left), (p_right, d_right)) if d <= pointwise + 1e-15]

    # F does not depend on t, so the isometry bound integrates the constant
    ito_bound = pointwise * 1.0

    # integral of 1_[0,1/2] (0,1) + 1_[1/2,1] (1,1) dt is (1/2, 1) exactly
    lebesgue_integral = 0.5 * np.array([0.0, 1.0]) + 0.5 * np.array([1.0, 1.0])
    lebesgue_gap = float(np.sum((lebesgue_integral - target) ** 2))

    return ItoGapReport(
        target=(0.5, 1.0),
        pointwise_min_sq_dist=pointwise,
        nearest_points=nearest,
        ito_lower_bound=ito_bound,
        lebesgue_selection="(0,1) on [0,1/2], (1,1) on [1/2,1]",
        lebesgue_gap=lebesgue_gap,
    )
