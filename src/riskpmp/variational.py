"""Tangent selections from control differences, the linearization rate test,
and the Ito non-relaxation gap.

The relaxation obstruction is the reason none of the controlled-diffusion
machinery here ever projects a convexified velocity back onto the original
set: the pointwise gap of the butterfly example survives inside every Ito
integral, while the Lebesgue integral closes it with a two-piece selection.
"""

import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .adjoint import _jacobian_steps
from .forked import run_spans, shared_empty
from .sde import (BrownianEnsemble, BrownianSource, ControlLaw, DynamicsSpec, StateEnsemble,
                  _abort_nonfinite, _check_noise_dim, _check_paths, _coefficients, _dot_last,
                  _linear_step, _warn_aborted, as_control_law, as_initial_state, positive_int)


def _refuse_aborted(bad: np.ndarray) -> None:
    """Refuse a reference with paths flagged in bad (M,) as not finite."""
    if bad.any():
        raise ValueError(f"reference state is not finite on {int(bad.sum())} of {bad.size} "
                         f"paths (first at path {int(np.argmax(bad))})")


_UNLICENSED = ("control enters the diffusion but convex velocity sets are not attested; "
               "control-difference tangents are only licensed for uncontrolled diffusion or "
               "convex velocity sets")


def _control_difference(dyn: DynamicsSpec, t: float, x_k: np.ndarray, w_k: np.ndarray,
                        f_u: np.ndarray, s_u: np.ndarray
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The control-difference forcing (g1, g2) at one node: x_k the
    contiguous (M, n) reference states x*_k, w_k the comparison control
    there, and f_u, s_u the drift and diffusion at (x*_k, u*_k), which the
    caller has already evaluated; g2 is None where it is exactly zero.  Its
    callers warn (_UNLICENSED) when g2 is nonzero and the dynamics do not
    attest convex velocity sets."""
    f_w, s_w = _coefficients(dyn, t, x_k, w_k)
    g1, g2 = f_w - f_u, s_w - s_u
    return g1, (g2 if np.any(g2) else None)


def tangent_from_control(dyn: DynamicsSpec, states: StateEnsemble, w) -> Callable:
    """Pointwise control-difference selection along the candidate ensemble,
    from the control it carries toward w (a control as_control_law takes),
    as the forcing accessor of solve_linearized: g(k) is (g1_k, g2_k) with
    g1_k = f(t_k, x*_k, w_k) - f(t_k, x*_k, u*_k), shape (M, n), and g2_k
    the matching diffusion difference (M, n, d), None where it is exactly
    zero, the regime where these selections are unconditionally valid.

    Aborted reference paths are rejected by count and first index.  The
    first nonzero g2_k warns, at the caller of the function stepping
    through g, when the dynamics do not attest convex velocity sets.
    """
    _refuse_aborted(~np.isfinite(states.values).all(axis=(1, 2)))
    u_law, w_law = states.recorded("control"), as_control_law(w, dyn, states.grid.n_steps, "w")
    nodes, m_paths = states.grid.nodes, states.n_paths
    _check_paths(m_paths, w=w_law)
    warned = dyn.convex_velocity_sets  # the velocity-set attestation, read once

    def g(k: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        nonlocal warned
        t, x_k = nodes[k], np.ascontiguousarray(states.values[:, k, :])
        g1, g2 = _control_difference(dyn, t, x_k, w_law.at(k, m_paths),
                                     *_coefficients(dyn, t, x_k, u_law.at(k, m_paths)))
        if g2 is not None and not warned:
            warnings.warn(_UNLICENSED, stacklevel=3)
            warned = True
        return g1, g2

    return g


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


def validate_epsilons(epsilons: Sequence[float]) -> np.ndarray:
    """The perturbation sizes as an array: nonempty, inside (0, 1], strictly decreasing."""
    eps = np.asarray(list(epsilons), dtype=float)
    if eps.ndim != 1 or eps.size == 0 or np.any(eps <= 0) or np.any(eps > 1):
        raise ValueError("epsilons must be a nonempty list inside (0, 1]")
    if np.any(np.diff(eps) >= 0):
        raise ValueError("epsilons must be strictly decreasing")
    return eps


def _block_law(law: ControlLaw, lo: int, hi: int) -> ControlLaw:
    """The law on paths lo..hi-1: a per-path law sliced, a deterministic one as is."""
    return law if law.deterministic else ControlLaw(law.values[lo:hi])


def _rate_block(dyn: DynamicsSpec, e3: np.ndarray, u_law: ControlLaw, w_law: ControlLaw,
                x0: np.ndarray, brownian: BrownianEnsemble,
                lo: int) -> Tuple[np.ndarray, np.ndarray, bool]:
    """The rate pass on the block of paths lo.. that brownian holds, a
    per-path law or x0 sliced to it: the running sup over the nodes of the
    squared gap |x^eps - x* - eps y|^2, shape (E, b), each path's abort node
    (b,), -1 where the reference stays finite, and whether the diffusion
    difference g2 was nonzero at some step."""
    (m_paths, n_steps, d), n = brownian.increments.shape, dyn.state_dim
    u_law, w_law = _block_law(u_law, lo, lo + m_paths), _block_law(w_law, lo, lo + m_paths)
    stack = e3.shape[0]
    nodes, dt = brownian.grid.nodes, brownian.grid.dt
    a_at, d_at = _jacobian_steps(dyn, u_law, nodes, m_paths)
    x = np.empty((stack, m_paths, n))
    x[:] = x0 if x0.ndim == 1 else x0[lo:lo + m_paths]
    y = np.zeros((m_paths, n))
    worst = np.zeros((stack - 1, m_paths))
    first_failure = np.full(m_paths, -1, dtype=int)
    forced = False
    with np.errstate(over="ignore", invalid="ignore"):  # the caller refuses aborted paths
        for k in range(n_steps):
            t, x_k = nodes[k], x[0]
            # contiguous per-step slices, so the (E+1, M, n) arithmetic runs flat
            u_e = (u_law.at(k, stack * m_paths) if u_law.deterministic
                   else np.tile(u_law.at(k, m_paths), (stack, 1)))
            dw = np.ascontiguousarray(brownian.increments[:, k])
            f, s = _coefficients(dyn, t, x.reshape(stack * m_paths, n), u_e)
            f, s = f.reshape(stack, m_paths, n), s.reshape(stack, m_paths, n, d)
            # member 0 holds f and sigma at (x*, u*), which the forcing subtracts
            g1, g2 = _control_difference(dyn, t, x_k, w_law.at(k, m_paths), f[0], s[0])
            forced = forced or g2 is not None
            noise = s if g2 is None else s + e3[..., None] * g2
            x = x + (f + e3 * g1) * dt + _dot_last(noise, dw[:, None])  # sum_i noise_i dW^i
            _abort_nonfinite(x[0], first_failure, k + 1)
            y = _linear_step(y, a_at(k, x_k), None if d_at is None else d_at(k, x_k),
                             g1, g2, dt, dw)

            gap = x[1:] - x[0]
            gap -= e3[1:] * y
            # the sum np.linalg.norm takes, without a reduce over the short axis
            np.maximum(worst, sum(gap[..., i] * gap[..., i] for i in range(n)), out=worst)
    return worst, first_failure, forced


def linearization_rate(
    dyn: DynamicsSpec,
    u_star,
    x0: np.ndarray,
    brownian,
    w,
    epsilons: Sequence[float],
    workers: int = 1,
) -> RateTable:
    """r(eps) = (1/eps) E[sup_k |x^eps_k - x*_k - eps y_k|] on the Brownian
    paths, for the reference x* under u_star from x0 and the perturbation
    toward w that the control difference selects.  u_star, w and x0 are
    taken as euler_maruyama takes them; a per-path x0, u_star or w is sliced
    to each block of paths.

    brownian is a BrownianEnsemble or a BrownianSource; anything else is
    refused by type.  Either states its grid and path count, so every input
    is checked before a normal is drawn, and its paths are cut into one
    contiguous span per worker, at most one per usable CPU: the first runs
    here and each other in a forked child (forked.run_spans), which draws
    its span's blocks at their path offsets as it reaches them.

    One streaming pass integrates the reference as member eps = 0 of the
    (E+1, b, n) stack of perturbed states over each block of b paths: the
    stack's step x + (f + eps g1) dt + sum_i (sigma_i + eps g2^i) dW^i is
    the Euler-Maruyama step there.  y does not depend on eps and is
    integrated once alongside.  The forcing and A_k, D_k are evaluated on
    the reference's slice, so the pass holds one block's increments, the
    stack, y and per-step slices, and no (paths x nodes) array beyond the
    block it is given.  The blocks' running sups are joined into one (E, M)
    array before the rates are taken, and every rule on the whole ensemble
    is applied here once, so the rates, warnings and refusals are those of
    one pass over the whole ensemble, whatever the blocks and the workers.
    A nonzero diffusion difference g2 warns once when the dynamics do not
    attest convex velocity sets.  Reference paths that turn non-finite
    abort as in euler_maruyama: after the pass one RuntimeWarning names how
    many, and the rate is refused by count and first index.  Perturbed
    paths that turn non-finite on a finite reference warn by count and
    first index, and their rates are not finite.  Dynamics without a
    control are refused, since u_star and w move nothing there and every
    rate would be 0.
    """
    eps = validate_epsilons(epsilons)
    workers = positive_int(workers, "workers")
    if not isinstance(brownian, (BrownianEnsemble, BrownianSource)):
        raise TypeError("brownian must be a BrownianEnsemble or a BrownianSource, got "
                        f"{type(brownian).__name__}")
    if dyn.control_dim == 0:
        raise ValueError("the dynamics take no control (control_dim 0): u_star and w "
                         "move nothing, so every rate would be 0")
    x0 = as_initial_state(dyn, x0)
    _check_noise_dim(dyn, brownian)
    m_paths, n_steps = brownian.n_paths, brownian.grid.n_steps
    u_law, w_law = (as_control_law(law, dyn, n_steps, name)
                    for name, law in (("u_star", u_star), ("w", w)))
    _check_paths(m_paths, x0=x0, u_star=u_law, w=w_law)
    e3 = np.concatenate(([0.0], eps))[:, None, None]  # member 0 is the reference x*
    worst = shared_empty((eps.size, m_paths))
    first_failure = shared_empty((m_paths,), int)
    forced = shared_empty((m_paths,), bool)  # per path, so no worker writes another's

    def work(lo: int, block: BrownianEnsemble) -> None:
        hi = lo + block.n_paths
        worst[:, lo:hi], first_failure[lo:hi], forced[lo:hi] = _rate_block(
            dyn, e3, u_law, w_law, x0, block, lo)

    run_spans(brownian, workers, work)
    if forced.any() and not dyn.convex_velocity_sets:
        warnings.warn(_UNLICENSED, stacklevel=2)
    _warn_aborted(first_failure)
    _refuse_aborted(first_failure >= 0)
    blown = ~np.isfinite(worst).all(axis=0)  # the overflow the block pass kept quiet
    if blown.any():
        warnings.warn(f"perturbed state is not finite on {int(blown.sum())} of {blown.size} "
                      f"paths (first at path {int(np.argmax(blown))}), so some rates are not "
                      "finite", RuntimeWarning, stacklevel=2)
    return RateTable(epsilons=eps, rates=np.sqrt(worst).mean(axis=1) / eps)


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
