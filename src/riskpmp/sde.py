"""Forward SDE machinery on uniform time grids.

State processes follow

    dx = f(t, x, u) dt + sigma(t, x, u) dW,      x(0) = x0,

integrated with Euler-Maruyama over a path ensemble.  The module also solves
the linearized dynamics around a reference pair, builds the fundamental
matrix pair (phi, psi) with psi tracking the inverse flow, and estimates
strong convergence order against registered closed-form solutions.

Array conventions (vectorized over paths):
  states x           (M, n)
  controls u         (M, m)
  drift f(t, x, u)   (M, n)
  diffusion          (M, n, d), column i is the coefficient of dW^i
  drift Jacobian     (M, n, n),    [p, i, j] = d f_i / d x_j
  diffusion Jacobian (M, d, n, n), [p, i, :, :] = d sigma_i / d x
A Jacobian that does not depend on the path may have a leading axis of 1
instead of M; the fundamental pair along it is then built once, not per path.
The linear solvers take one coefficient convention, the shapes that
adjoint.linearization_along and TangentSelection hold: A and D are callables
of the step index k returning (M or 1, n, n) and (M or 1, d, n, n), D may be
None; g1 and g2 are arrays (M or 1, K, n) and (M or 1, K, n, d), or None.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .rng import ensemble_normals, validate_seed


class MissingClosedFormError(ValueError):
    """Raised when a convergence study needs an exact solution that is absent."""


class FundamentalMatrixError(RuntimeError):
    """Raised when the psi*phi inverse identity degrades past a tolerance."""


# ---------------------------------------------------------------------------
# time grid and Brownian ensemble


@dataclass(frozen=True)
class TimeGrid:
    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not (isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 1):
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


def make_grid(horizon: float, n_steps: int) -> TimeGrid:
    """Uniform grid {0, dt, ..., horizon} with dt = horizon / n_steps."""
    return TimeGrid(float(horizon), int(n_steps))


@dataclass(frozen=True)
class BrownianEnsemble:
    """Brownian increments on a grid; increments[p, k, i] = W^i(t_{k+1}) - W^i(t_k)."""

    grid: TimeGrid
    increments: np.ndarray  # (M, K, d)

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def dim(self) -> int:
        return self.increments.shape[2]

    def levels(self) -> np.ndarray:
        """Brownian values at the grid nodes, shape (M, K+1, d), W(0) = 0."""
        m, k, d = self.increments.shape
        out = np.empty((m, k + 1, d))
        out[:, 0] = 0.0
        np.cumsum(self.increments, axis=1, out=out[:, 1:])
        return out

    def terminal(self) -> np.ndarray:
        return self.increments.sum(axis=1)

    def coarsen(self, factor: int) -> "BrownianEnsemble":
        """Aggregate increments onto a grid with n_steps/factor steps (exact coupling)."""
        k = self.grid.n_steps
        if factor < 1 or k % factor != 0:
            raise ValueError(f"factor {factor} must divide n_steps {k}")
        m, _, d = self.increments.shape
        coarse = self.increments.reshape(m, k // factor, factor, d).sum(axis=2)
        return BrownianEnsemble(grid=make_grid(self.grid.horizon, k // factor), increments=coarse)


def sample_brownian(
    grid: TimeGrid, dim: int, n_paths: int, seed: int, path_offset: int = 0
) -> BrownianEnsemble:
    """Sample a Brownian ensemble reproducibly from (seed, path, step, component).

    Increment (p, k, i) is sqrt(dt) times the normal at position k*dim + i of
    the counter-derived stream of global path index path_offset + p, so any
    path slice of a larger ensemble regenerates bit-exactly.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    seed = validate_seed(seed)
    z = ensemble_normals(seed, n_paths, grid.n_steps * dim, path_offset=path_offset)
    z *= math.sqrt(grid.dt)  # in place: no second (M, K, d) array
    return BrownianEnsemble(grid=grid, increments=z.reshape(n_paths, grid.n_steps, dim))


# ---------------------------------------------------------------------------
# control laws


class ControlLaw:
    """Grid-adapted control signal.

    Values have shape (K, m) for a deterministic (open-loop) signal or
    (M, K, m) for a per-path signal; per-path values may only depend on the
    path's history up to each node, which holds by construction for recorded
    feedback laws and any deterministic array.
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim not in (2, 3):
            raise ValueError("control values must have shape (K, m) or (M, K, m)")
        self.values = values

    @classmethod
    def constant(cls, u, n_steps: int) -> "ControlLaw":
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return cls(np.tile(u, (n_steps, 1)))

    @classmethod
    def from_function(cls, fn: Callable[[float], np.ndarray], grid: TimeGrid) -> "ControlLaw":
        rows = [np.atleast_1d(np.asarray(fn(t), dtype=float)) for t in grid.nodes[:-1]]
        return cls(np.stack(rows))

    @property
    def deterministic(self) -> bool:
        return self.values.ndim == 2

    @property
    def n_steps(self) -> int:
        return self.values.shape[-2]

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def at(self, k: int, n_paths: int) -> np.ndarray:
        """Control at step k broadcast to (n_paths, m)."""
        if self.deterministic:
            return np.broadcast_to(self.values[k], (n_paths, self.dim))
        return self.values[:, k, :]


class FeedbackLaw:
    """Adapted feedback u_k = fn(k, x_k, W_k) of the step index, the state and
    the Brownian value at node k; euler_maruyama records the realized values
    as a ControlLaw on the ensemble it returns."""

    def __init__(self, fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray], dim: int):
        self.fn = fn
        self.dim = dim

    def at(self, k: int, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Control at step k for states x (M, n) and Brownian values w (M, d)."""
        u = np.asarray(self.fn(k, x, w), dtype=float)
        return np.broadcast_to(u, (x.shape[0], self.dim))


# ---------------------------------------------------------------------------
# dynamics


@dataclass
class DynamicsSpec:
    """Controlled SDE coefficients plus the metadata the checks rely on.

    ``control_grid`` is the finite working subset of the control set used for
    Hamiltonian maximization; it must contain the box vertices of the true
    control set.  ``convex_velocity_sets`` attests that the velocity sets
    {(f, sigma)(t, x, u) : u in U} are convex, which is what licenses tangent
    selections built from control differences when the diffusion is
    controlled.
    """

    state_dim: int
    control_dim: int
    noise_dim: int
    drift: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    diffusion: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    drift_jac: Optional[Callable[[float, np.ndarray, np.ndarray], np.ndarray]] = None
    diffusion_jac: Optional[Callable[[float, np.ndarray, np.ndarray], np.ndarray]] = None
    control_grid: Optional[np.ndarray] = None
    convex_velocity_sets: bool = False
    exact_terminal: Optional[Callable[[np.ndarray, float, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.control_grid is not None:
            grid = np.asarray(self.control_grid, dtype=float)
            if grid.ndim == 1:
                grid = grid[:, None]
            if grid.shape[1] != self.control_dim:
                raise ValueError("control_grid width must equal control_dim")
            self.control_grid = grid

    def check_jacobians(self, t: float, x: np.ndarray, u: np.ndarray,
                        rtol: float = 1e-4, atol: float = 1e-6) -> None:
        """Probe the declared Jacobians against central finite differences.

        A Jacobian with a leading axis of 1 is compared with every path's."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        u = np.broadcast_to(np.asarray(u, dtype=float), (x.shape[0], self.control_dim))
        if self.drift_jac is not None:
            fd = central_differences(lambda y: self.drift(t, y, u), x)
            if not np.allclose(self.drift_jac(t, x, u), fd, rtol=rtol, atol=atol):
                raise ValueError("drift_jac disagrees with finite differences")
        if self.diffusion_jac is not None:
            # (M, n, d, n) -> the Jacobian's (M, d, n, n) layout
            fd = np.moveaxis(central_differences(lambda y: self.diffusion(t, y, u), x), 2, 1)
            if not np.allclose(self.diffusion_jac(t, x, u), fd, rtol=rtol, atol=atol):
                raise ValueError("diffusion_jac disagrees with finite differences")


def central_differences(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """(fn(x + h e_j) - fn(x - h e_j)) / 2h, h = 1e-6, for every coordinate j
    of the (M, n) states x, stacked on a new last axis."""
    h = 1e-6
    cols = []
    for j in range(x.shape[1]):
        dx = np.zeros_like(x)
        dx[:, j] = h
        cols.append((np.asarray(fn(x + dx)) - np.asarray(fn(x - dx))) / (2 * h))
    return np.stack(cols, axis=-1)


def sample_std(samples: np.ndarray) -> np.ndarray:
    """Sample standard deviation over the paths on axis 0; undefined (NaN)
    for one path, which has no sample spread."""
    if samples.shape[0] == 1:
        return np.full(samples.shape[1:], np.nan)
    return samples.std(axis=0, ddof=1)


# ---------------------------------------------------------------------------
# forward integration


@dataclass(frozen=True)
class StateEnsemble:
    grid: TimeGrid
    values: np.ndarray  # (M, K+1, n)
    first_failure: Optional[np.ndarray] = None  # (M,) step index of first non-finite, -1 if none
    control: Optional[ControlLaw] = None  # the control integrated under, as grid values
    brownian: Optional[BrownianEnsemble] = None  # the Brownian ensemble integrated on

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def state_dim(self) -> int:
        return self.values.shape[2]

    @property
    def terminal(self) -> np.ndarray:
        return self.values[:, -1, :]

    @property
    def failed_paths(self) -> np.ndarray:
        if self.first_failure is None:
            return np.empty(0, dtype=int)
        return np.nonzero(self.first_failure >= 0)[0]

    def recorded(self, name: str):
        """The "control" or the "brownian" ensemble the states were integrated
        under; an ensemble built by hand carries neither."""
        value = getattr(self, name)
        if value is None:
            what, by = (("control", "euler_maruyama records") if name == "control" else
                        ("Brownian ensemble", "euler_maruyama and solve_linearized record"))
            raise ValueError(f"the state ensemble carries no {what}: only {by} one")
        return value


def as_control_law(law) -> ControlLaw:
    """A recorded control signal: a ControlLaw as given, or its values wrapped."""
    if isinstance(law, ControlLaw):
        return law
    if callable(law) or isinstance(law, FeedbackLaw):
        raise TypeError("a control here is a ControlLaw or its grid values; only "
                        "euler_maruyama takes feedback, as a FeedbackLaw")
    return ControlLaw(np.asarray(law, dtype=float))


def euler_maruyama(dyn: DynamicsSpec, law, x0: np.ndarray, brownian: BrownianEnsemble) -> StateEnsemble:
    """Integrate the controlled SDE over the ensemble.

    law is a ControlLaw (or its grid values), or a FeedbackLaw, which is
    evaluated at every step on the current states and on W_k, kept as the
    running sum of the increments.  The ensemble carries the ControlLaw, or
    the feedback law's realized controls, as its control.  x0 may be a single
    state (broadcast to all paths) or one state per path.  Paths that turn
    non-finite are aborted: their values stay NaN from the offending node on
    and the first bad step is recorded on the ensemble.
    """
    grid = brownian.grid
    n_paths, n_steps, d = brownian.increments.shape
    n = dyn.state_dim
    if d != dyn.noise_dim:
        raise ValueError(f"Brownian dim {d} does not match dynamics noise_dim {dyn.noise_dim}")
    feedback = isinstance(law, FeedbackLaw)
    if not feedback:
        law = as_control_law(law)
        if law.n_steps != n_steps:
            raise ValueError("control law length does not match the grid")

    x = np.array(np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, n)))
    out = np.empty((n_paths, n_steps + 1, n))
    out[:, 0] = x
    first_failure = np.full(n_paths, -1, dtype=int)
    if feedback:
        realized = np.empty((n_paths, n_steps, law.dim))
        w = np.zeros((n_paths, d))

    dt = grid.dt
    nodes = grid.nodes
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t = nodes[k]
            dw = brownian.increments[:, k]
            if feedback:
                u = law.at(k, x, w)
                realized[:, k] = u
                w = w + dw
            else:
                u = law.at(k, n_paths)
            f = dyn.drift(t, x, u)
            sig = dyn.diffusion(t, x, u)
            if f.shape != (n_paths, n):
                raise ValueError(f"drift returned shape {f.shape}, expected {(n_paths, n)}")
            if sig.shape != (n_paths, n, d):
                raise ValueError(f"diffusion returned shape {sig.shape}, expected {(n_paths, n, d)}")
            x = x + f * dt + np.einsum("pnd,pd->pn", sig, dw)
            # an aborted path is NaN and stays NaN, so all finite means none aborted
            if not np.isfinite(x).all():
                bad = (first_failure < 0) & ~np.isfinite(x).all(axis=1)
                first_failure[bad] = k + 1
                x[first_failure >= 0] = np.nan
            out[:, k + 1] = x

    n_failed = int((first_failure >= 0).sum())
    if n_failed:
        warnings.warn(
            f"{n_failed} path(s) aborted on non-finite state "
            f"(first at step {int(first_failure[first_failure >= 0].min())})",
            RuntimeWarning,
            stacklevel=2,
        )
    return StateEnsemble(grid=grid, values=out, first_failure=first_failure,
                         control=ControlLaw(realized) if feedback else law, brownian=brownian)


# ---------------------------------------------------------------------------
# linearized dynamics and fundamental matrices


_CONVENTION = ("A, D: callables k -> (M or 1, n, n), (M or 1, d, n, n) or None; "
               "g1, g2: arrays (M or 1, K, n), (M or 1, K, n, d) or None")


def _check_coefficients(A, D, g1, g2, brownian: BrownianEnsemble) -> None:
    """Refuse coefficients outside the linear solvers' convention."""
    m, k, _ = brownian.increments.shape
    if not callable(A) or not (D is None or callable(D)):
        raise TypeError(f"A or D is not callable; expected {_CONVENTION}")
    for name, g, rank in (("g1", g1, 3), ("g2", g2, 4)):
        if g is not None and (np.ndim(g) != rank or np.shape(g)[0] not in (1, m)
                              or np.shape(g)[1] != k):
            raise ValueError(f"{name} has shape {np.shape(g)} for {m} paths and {k} steps; "
                             f"expected {_CONVENTION}")


def solve_linearized(
    A, D, g1, g2, brownian: BrownianEnsemble, y0: Optional[np.ndarray] = None
) -> StateEnsemble:
    """Integrate dy = (A y + g1) dt + sum_i (D_i y + g2^i) dW^i, y(0) = y0 (default 0).

    A and D are callables of the step index k returning (M or 1, n, n) and
    (M or 1, d, n, n); D may be None.  g1 (M or 1, K, n) and g2
    (M or 1, K, n, d) are arrays; either may be None.
    """
    n_paths, n_steps, d = brownian.increments.shape
    _check_coefficients(A, D, g1, g2, brownian)
    n = A(0).shape[-1]

    out = np.empty((n_paths, n_steps + 1, n))
    out[:, 0] = 0.0 if y0 is None else y0
    y = out[:, 0]
    dt = brownian.grid.dt
    for k in range(n_steps):
        dw = brownian.increments[:, k]
        drift = np.einsum("...ij,...j->...i", A(k), y)
        if g1 is not None:
            drift = drift + g1[:, k]
        noise = np.zeros((n_paths, d, n))
        if D is not None:
            noise = noise + np.einsum("...dij,...j->...di", D(k), y)
        if g2 is not None:
            noise = noise + np.swapaxes(g2[:, k], -1, -2)
        y = y + drift * dt + np.einsum("pdn,pd->pn", np.broadcast_to(noise, (n_paths, d, n)), dw)
        out[:, k + 1] = y
    return StateEnsemble(grid=brownian.grid, values=out, brownian=brownian)


@dataclass(frozen=True)
class FundamentalMatrices:
    grid: TimeGrid
    phi: np.ndarray  # (M or 1, K+1, n, n)
    psi: np.ndarray  # (M or 1, K+1, n, n)
    inverse_error: float
    worst_path: int
    worst_node: int


def fundamental_matrices(
    A, D, brownian: BrownianEnsemble, tol: Optional[float] = None
) -> FundamentalMatrices:
    """Euler-Maruyama fundamental pair phi (forward flow) and psi (inverse flow).

    phi_{k+1} = phi_k + A phi_k dt + sum_i D_i phi_k dW^i
    psi_{k+1} = psi_k - psi_k (A - sum_i D_i^2) dt - sum_i psi_k D_i dW^i

    A and D as in solve_linearized.  With D None the flow is deterministic
    and keeps A's leading axis; otherwise it is per path.  Tracks the worst
    deviation of psi*phi from the identity (Frobenius norm) over all paths
    and nodes; raises FundamentalMatrixError if it exceeds tol.
    """
    n_paths, n_steps, d = brownian.increments.shape
    _check_coefficients(A, D, None, None, brownian)
    a_0 = A(0)
    n = a_0.shape[-1]
    m_eff = a_0.shape[0] if D is None else n_paths

    phi = np.empty((m_eff, n_steps + 1, n, n))
    psi = np.empty((m_eff, n_steps + 1, n, n))
    phi[:, 0] = psi[:, 0] = np.eye(n)

    dt = brownian.grid.dt
    worst = (0.0, 0, 0)
    p_cur, s_cur = phi[:, 0], psi[:, 0]
    for k in range(n_steps):
        a_k = A(k)
        p_new = p_cur + np.einsum("...ij,...jk->...ik", a_k, p_cur) * dt
        if D is None:
            s_new = s_cur - np.einsum("...ij,...jk->...ik", s_cur, a_k) * dt
        else:
            d_k = D(k)
            dw = brownian.increments[:, k]
            b_k = a_k - np.einsum("...dij,...djk->...ik", d_k, d_k)
            s_new = s_cur - np.einsum("...ij,...jk->...ik", s_cur, b_k) * dt
            p_new = p_new + np.einsum(
                "pdik,pd->pik", np.einsum("...dij,...jk->...dik", d_k, p_cur), dw
            )
            s_new = s_new - np.einsum(
                "pdik,pd->pik", np.einsum("...ij,...djk->...dik", s_cur, d_k), dw
            )
        phi[:, k + 1] = p_new
        psi[:, k + 1] = s_new
        p_cur, s_cur = p_new, s_new
        dev = np.einsum("...ij,...jk->...ik", s_new, p_new) - np.eye(n)
        err = np.sqrt(np.einsum("...ij,...ij->...", dev, dev))
        idx = int(np.argmax(err))
        if float(err.flat[idx]) > worst[0]:
            worst = (float(err.flat[idx]), idx, k + 1)

    fund = FundamentalMatrices(
        grid=brownian.grid, phi=phi, psi=psi,
        inverse_error=worst[0], worst_path=worst[1], worst_node=worst[2],
    )
    if tol is not None and fund.inverse_error > tol:
        raise FundamentalMatrixError(
            f"psi*phi deviates from identity by {fund.inverse_error:.3e} "
            f"(> {tol:.3e}) at node {fund.worst_node}, path {fund.worst_path}"
        )
    return fund


# ---------------------------------------------------------------------------
# benchmarks and convergence order


def scalar_linear_dynamics(drift_coef: float, noise_coef: float) -> DynamicsSpec:
    """dx = a x dt + b x dW with registered exact solution (control-free)."""
    a, b = float(drift_coef), float(noise_coef)

    def drift(t, x, u):
        return a * x

    def diffusion(t, x, u):
        return (b * x)[:, :, None]

    def drift_jac(t, x, u):
        return np.broadcast_to(a * np.eye(1), (x.shape[0], 1, 1))

    def diffusion_jac(t, x, u):
        return np.broadcast_to(b * np.eye(1), (x.shape[0], 1, 1, 1))

    def exact_terminal(x0, horizon, w_terminal):
        return x0 * np.exp((a - 0.5 * b * b) * horizon + b * w_terminal)

    return DynamicsSpec(
        state_dim=1, control_dim=0, noise_dim=1,
        drift=drift, diffusion=diffusion,
        drift_jac=drift_jac, diffusion_jac=diffusion_jac,
        control_grid=np.zeros((1, 0)),
        exact_terminal=exact_terminal,
    )


DOUBLE_INTEGRATOR_GRID_POINTS = 21  # control_grid: that many points of [-1, 1]


def double_integrator_dynamics(cubic: float = 0.0, noise: float = 1.0) -> DynamicsSpec:
    """dy = v dt + noise dW, dv = (u - cubic y^3) dt with u in [-1, 1].

    Without the cubic term the drift Jacobian is the same on every path and
    comes back read-only with a leading axis of 1; with it, it is per path.
    """
    jac = np.array([[[0.0, 1.0], [0.0, 0.0]]])
    jac.setflags(write=False)

    def drift(t, x, u):
        if cubic == 0.0:
            return np.stack([x[:, 1], u[:, 0]], axis=1)
        y = x[:, 0]  # products, not y ** 3, which calls libm pow per element
        return np.stack([x[:, 1], u[:, 0] - cubic * (y * y * y)], axis=1)

    def diffusion(t, x, u):
        s = np.zeros((x.shape[0], 2, 1))
        s[:, 0, 0] = noise
        return s

    def drift_jac(t, x, u):
        if cubic == 0.0:
            return jac
        per_path = np.zeros((x.shape[0], 2, 2))
        per_path[:, 0, 1] = 1.0
        per_path[:, 1, 0] = -3.0 * cubic * x[:, 0] ** 2
        return per_path

    return DynamicsSpec(
        state_dim=2, control_dim=1, noise_dim=1,
        drift=drift, diffusion=diffusion, drift_jac=drift_jac,
        control_grid=np.linspace(-1.0, 1.0, DOUBLE_INTEGRATOR_GRID_POINTS),
    )


@dataclass(frozen=True)
class StrongOrderReport:
    n_steps_levels: tuple
    errors: tuple
    pairwise_orders: tuple
    estimate: float


def strong_convergence_order(
    dyn: DynamicsSpec,
    x0,
    horizon: float,
    n_steps_levels: Sequence[int],
    n_paths: int,
    seed: int,
) -> StrongOrderReport:
    """Estimate the strong order of Euler-Maruyama against dyn's closed form.

    Uses one Brownian ensemble at the finest level; coarser levels reuse the
    same paths through increment aggregation.  The estimate is the slope of
    log(error) against log(dt).
    """
    if dyn.exact_terminal is None:
        raise MissingClosedFormError("dynamics has no registered closed-form solution")
    levels = sorted(int(k) for k in n_steps_levels)
    if len(levels) < 2:
        raise ValueError("need at least two grid levels")
    if len(set(levels)) < len(levels):
        raise ValueError(f"grid levels repeat: {levels}")
    finest = levels[-1]
    for k in levels:
        if finest % k != 0:
            raise ValueError(f"level {k} must divide the finest level {finest}")
    fine = sample_brownian(make_grid(horizon, finest), dyn.noise_dim, n_paths, seed)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    exact = dyn.exact_terminal(
        np.broadcast_to(x0, (n_paths, dyn.state_dim)), horizon, fine.terminal()
    )
    law_width = dyn.control_dim
    errors = []
    for k in levels:
        ens = fine.coarsen(finest // k)
        law = ControlLaw(np.zeros((k, law_width)))
        states = euler_maruyama(dyn, law, x0, ens)
        err = np.linalg.norm(states.terminal - exact, axis=1).mean()
        errors.append(float(err))
    dts = [horizon / k for k in levels]
    pairwise = tuple(
        float(np.log(errors[i] / errors[i + 1]) / np.log(dts[i] / dts[i + 1]))
        for i in range(len(levels) - 1)
    )
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    return StrongOrderReport(
        n_steps_levels=tuple(levels),
        errors=tuple(errors),
        pairwise_orders=pairwise,
        estimate=slope,
    )
