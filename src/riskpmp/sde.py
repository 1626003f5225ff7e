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
The linear solvers take one coefficient convention, the accessors that
adjoint.linearization_along and variational.tangent_from_control return:
callables of the step index k.  A(k) is (M or 1, n, n) and D(k) is
(M or 1, d, n, n), D may be None; the forcing g(k) is the pair (g1_k, g2_k)
of shapes (M or 1, n) and (M or 1, n, d), g2_k None where it is exactly
zero, and g may be None.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .forked import run_spans, shared_empty
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
        object.__setattr__(self, "n_steps", positive_int(self.n_steps, "n_steps"))

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


def positive_int(value, name: str) -> int:
    """The one rule for a count: a Python or NumPy integer of at least 1, as
    an int; anything else, a float or a bool included, is refused by name."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and value >= 1):
        number = integer or isinstance(value, (float, np.floating))
        got = value if number else f"{type(value).__name__} {value!r}"
        raise ValueError(f"{name} must be a positive integer, got {got}")
    return int(value)


def make_grid(horizon: float, n_steps: int) -> TimeGrid:
    """Uniform grid {0, dt, ..., horizon} with dt = horizon / n_steps."""
    return TimeGrid(float(horizon), n_steps)


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
        """W(T), shape (M, d): the running sum of levels(), bit for bit at its
        last node, without holding every node."""
        w = self.increments[:, 0].copy()
        for k in range(1, self.increments.shape[1]):
            w += self.increments[:, k]
        return w

    def blocks(self, lo: int, hi: int) -> list:
        """Paths lo..hi-1 as one block: they are held already."""
        return [BrownianEnsemble(self.grid, self.increments[lo:hi])]

    def coarsen(self, factor: int) -> "BrownianEnsemble":
        """Aggregate increments onto a grid with n_steps/factor steps (exact coupling)."""
        k = self.grid.n_steps
        if factor < 1 or k % factor != 0:
            raise ValueError(f"factor {factor} must divide n_steps {k}")
        m, _, d = self.increments.shape
        coarse = self.increments.reshape(m, k // factor, factor, d).sum(axis=2)
        return BrownianEnsemble(grid=make_grid(self.grid.horizon, k // factor), increments=coarse)


def validate_n_paths(n_paths: int) -> int:
    """n_paths under positive_int, an integer below 1 refused as such."""
    if isinstance(n_paths, (int, np.integer)) and n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    return positive_int(n_paths, "n_paths")


def sample_brownian(
    grid: TimeGrid, dim: int, n_paths: int, seed: int, path_offset: int = 0
) -> BrownianEnsemble:
    """Sample a Brownian ensemble reproducibly from (seed, path, step, component).

    Increment (p, k, i) is sqrt(dt) times the normal at position k*dim + i of
    the counter-derived stream of global path index path_offset + p, so any
    path slice of a larger ensemble regenerates bit-exactly.
    """
    dim, n_paths = positive_int(dim, "dim"), validate_n_paths(n_paths)
    seed = validate_seed(seed)
    z = ensemble_normals(seed, n_paths, grid.n_steps * dim, path_offset=path_offset)
    z *= math.sqrt(grid.dt)  # in place: no second (M, K, d) array
    return BrownianEnsemble(grid=grid, increments=z.reshape(n_paths, grid.n_steps, dim))


@dataclass(frozen=True)
class BrownianSource:
    """The ensemble sample_brownian(grid, dim, n_paths, seed) gives, drawn on
    demand: blocks(lo, hi) samples paths lo..hi-1 at most ``block`` paths at
    a time, each block at its path offset, so any span of the paths is drawn
    bit for bit as in the whole ensemble, by whichever process reaches it."""

    grid: TimeGrid
    dim: int
    n_paths: int
    seed: int
    block: int

    def __post_init__(self):
        checked = dict(dim=positive_int(self.dim, "dim"), n_paths=validate_n_paths(self.n_paths),
                       seed=validate_seed(self.seed), block=positive_int(self.block, "block"))
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    def blocks(self, lo: int, hi: int):
        """Paths lo..hi-1 as ensembles of at most ``block`` paths, each drawn
        when the iteration reaches it."""
        for start in range(lo, hi, self.block):
            yield sample_brownian(self.grid, self.dim, min(self.block, hi - start), self.seed,
                                  path_offset=start)


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

    def check_controls(self, values) -> None:
        """Refuse control values (..., m) outside the box that control_grid
        spans, naming the first such value and the box; without a control
        grid there is no box to check against."""
        if self.control_grid is None:
            return
        lo, hi = self.control_grid.min(axis=0), self.control_grid.max(axis=0)
        rows = np.asarray(values, dtype=float).reshape(-1, self.control_dim)
        outside = ~((rows >= lo) & (rows <= hi)).all(axis=1)
        if outside.any():
            u = ", ".join(str(float(c)) for c in rows[np.argmax(outside)])
            box = " x ".join(f"[{float(a)}, {float(b)}]" for a, b in zip(lo, hi))
            raise ValueError(f"control {u} lies outside the control set {box}")

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
    brownian: Optional[BrownianEnsemble] = None  # the held Brownian ensemble integrated on

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
                        ("Brownian ensemble", "euler_maruyama over a held ensemble and "
                                              "solve_linearized record"))
            raise ValueError(f"the state ensemble carries no {what}: only {by} one")
        return value


def as_control_law(law, dyn: DynamicsSpec, n_steps: int, name: str = "control",
                   feedback: bool = False):
    """The one control coercion: a ControlLaw, or its grid values wrapped,
    refused by name unless dyn.control_dim wide and n_steps long.  Only where
    feedback is taken may law be a FeedbackLaw, whose width is checked."""
    if callable(law) or isinstance(law, FeedbackLaw) and not feedback:
        raise TypeError("a control here is a ControlLaw or its grid values; only "
                        "euler_maruyama takes feedback, as a FeedbackLaw")
    law = law if isinstance(law, (ControlLaw, FeedbackLaw)) else ControlLaw(law)
    if law.dim != dyn.control_dim:
        takes = (f"control_dim {dyn.control_dim}" if dyn.control_dim
                 else "no control (control_dim 0)")
        raise ValueError(f"{name} has width {law.dim}; the dynamics take {takes}")
    if isinstance(law, ControlLaw) and law.n_steps != n_steps:
        raise ValueError(f"{name} has {law.n_steps} steps; the grid has {n_steps}")
    return law


def as_initial_state(dyn: DynamicsSpec, x0) -> np.ndarray:
    """The one x0 rule: one state (n,) for every path, or one per path
    (paths, n), as a float array; any other shape is refused."""
    x0, n = np.asarray(x0, dtype=float), dyn.state_dim
    if x0.ndim not in (1, 2) or x0.shape[-1] != n:
        raise ValueError(f"x0 has shape {x0.shape}; the dynamics need ({n},) or (paths, {n})")
    return x0


def _check_paths(m_paths: int, **inputs) -> None:
    """The one path-count rule: refuse, by name, a per-path x0 (paths, n) or
    ControlLaw (paths, K, m) whose paths are not the m_paths Brownian paths;
    an input given as None is absent."""
    for name, value in inputs.items():
        if isinstance(value, ControlLaw):
            shape, per_path = value.values.shape, not value.deterministic
        else:
            shape, per_path = np.shape(value), np.ndim(value) == 2
        if per_path and shape[0] != m_paths:
            raise ValueError(f"{name} has shape {shape}; the Brownian paths need "
                             f"{(m_paths,) + shape[1:]}")


def _coefficients(dyn: DynamicsSpec, t: float, x: np.ndarray, u: np.ndarray):
    """f and sigma at (t, x, u), refused by name unless (M, n) and (M, n, d)."""
    m, n = x.shape
    f, sig = dyn.drift(t, x, u), dyn.diffusion(t, x, u)
    for name, value, shape in (("drift", f, (m, n)), ("diffusion", sig, (m, n, dyn.noise_dim))):
        if np.shape(value) != shape:
            raise ValueError(f"{name} returned shape {np.shape(value)}, expected {shape}")
    return f, sig


def _block_law(law, lo: int, hi: int):
    """The law on paths lo..hi-1: a per-path ControlLaw sliced, any other as is."""
    return law if isinstance(law, FeedbackLaw) or law.deterministic else ControlLaw(law.values[lo:hi])


def euler_maruyama(dyn: DynamicsSpec, law, x0: np.ndarray, brownian,
                   workers: int = 1) -> StateEnsemble:
    """Integrate the controlled SDE over the Brownian paths.

    law is a ControlLaw (or its grid values), or a FeedbackLaw, which is
    evaluated at every step on the current states and on W_k, kept as the
    running sum of the increments.  The ensemble carries the ControlLaw, or
    the feedback law's realized controls, as its control.  The control and
    x0 must meet as_control_law, as_initial_state and _check_paths.
    brownian is a BrownianEnsemble, which the ensemble records, or a
    BrownianSource; anything else is refused by type, and every input is
    checked before a normal is drawn.  The paths run in spans on at most
    ``workers`` processes, as in linearization_rate (forked.run_spans), and
    every step acts row by row, so neither the blocks nor the workers change
    a value.  Paths that turn non-finite are aborted: their values stay NaN
    from the offending node on, the first bad step is recorded on the
    ensemble, and one RuntimeWarning names how many aborted.
    """
    workers = positive_int(workers, "workers")
    _check_brownian(dyn, brownian)
    n_paths, n_steps = brownian.n_paths, brownian.grid.n_steps
    law, x0 = as_control_law(law, dyn, n_steps, feedback=True), as_initial_state(dyn, x0)
    feedback = isinstance(law, FeedbackLaw)
    _check_paths(n_paths, x0=x0, control=None if feedback else law)

    values = shared_empty((n_paths, n_steps + 1, dyn.state_dim))
    first_failure = shared_empty((n_paths,), int)
    realized = shared_empty((n_paths, n_steps, law.dim)) if feedback else None
    run_spans(brownian, workers, lambda lo, block: _integrate(
        dyn, law, x0, block, lo, values, first_failure, realized))
    _warn_aborted(first_failure)
    return StateEnsemble(grid=brownian.grid, values=values, first_failure=first_failure,
                         control=ControlLaw(realized) if feedback else law,
                         brownian=brownian if isinstance(brownian, BrownianEnsemble) else None)


def _warn_aborted(first_failure: np.ndarray) -> None:
    """Warn, at the caller of the integrating function, how many paths
    aborted and at which step the first did; silent when none did."""
    failed = first_failure[first_failure >= 0]
    if failed.size:
        warnings.warn(f"{failed.size} path(s) aborted on non-finite state "
                      f"(first at step {int(failed.min())})", RuntimeWarning, stacklevel=3)


def _check_brownian(dyn: DynamicsSpec, brownian) -> None:
    """Refuse Brownian paths by type unless a BrownianEnsemble or a
    BrownianSource, and by name unless of the dynamics' noise_dim."""
    if not isinstance(brownian, (BrownianEnsemble, BrownianSource)):
        raise TypeError("brownian must be a BrownianEnsemble or a BrownianSource, got "
                        f"{type(brownian).__name__}")
    if brownian.dim != dyn.noise_dim:
        raise ValueError(f"Brownian dim {brownian.dim} does not match dynamics noise_dim "
                         f"{dyn.noise_dim}")


def _abort_nonfinite(x: np.ndarray, first_failure: np.ndarray, node: int) -> None:
    """The abort rule, in place on the states x (M, n) at a node: a path that
    is not finite there is NaN from there on, and the node is recorded in
    first_failure (-1 while a path has not aborted)."""
    # an aborted path is NaN and stays NaN, so all finite means none aborted
    if not np.isfinite(x).all():
        bad = (first_failure < 0) & ~np.isfinite(x).all(axis=1)
        first_failure[bad] = node
        x[first_failure >= 0] = np.nan


def _integrate(dyn: DynamicsSpec, law, x0: np.ndarray, brownian: BrownianEnsemble, lo: int,
               values: np.ndarray, first_failure: np.ndarray, realized) -> None:
    """The Euler-Maruyama steps over the block of paths lo.. that brownian
    holds, a per-path law or x0 sliced to it, written in place into rows
    lo.. of values (M, K+1, n), first_failure (M,) and, for a FeedbackLaw,
    realized (M, K, m), the controls it gave."""
    (n_paths, n_steps, d), hi = brownian.increments.shape, lo + brownian.n_paths
    law, out, first_failure = _block_law(law, lo, hi), values[lo:hi], first_failure[lo:hi]
    out[:, 0] = x0 if x0.ndim == 1 else x0[lo:hi]
    x = out[:, 0].copy()
    first_failure[:] = -1
    if realized is not None:
        realized, w = realized[lo:hi], np.zeros((n_paths, d))

    dt = brownian.grid.dt
    nodes = brownian.grid.nodes
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t = nodes[k]
            dw = brownian.increments[:, k]
            if realized is not None:
                u = law.at(k, x, w)
                realized[:, k] = u
                w = w + dw
            else:
                u = law.at(k, n_paths)
            f, sig = _coefficients(dyn, t, x, u)
            x = x + f * dt + np.einsum("pnd,pd->pn", sig, dw)
            _abort_nonfinite(x, first_failure, k + 1)
            out[:, k + 1] = x


# ---------------------------------------------------------------------------
# linearized dynamics and fundamental matrices


_CONVENTION = ("A, D: callables k -> (M or 1, n, n), (M or 1, d, n, n) or None; "
               "g: callable k -> ((M or 1, n), (M or 1, n, d) or None), or None")


def _check_coefficients(A, D, g=None) -> None:
    """Refuse coefficients outside the linear solvers' convention."""
    if not callable(A) or not all(c is None or callable(c) for c in (D, g)):
        raise TypeError(f"A, D or g is not callable; expected {_CONVENTION}")


def _check_forcing(g_0, brownian: BrownianEnsemble, n: int) -> None:
    """Refuse a forcing whose pair g_0 at step 0 has shapes outside the
    convention; solve_linearized checks the pair its step loop reads, so
    the accessor runs once per step."""
    m, _, d = brownian.increments.shape
    for name, part, tail in zip(("g1", "g2"), g_0, ((n,), (n, d))):
        if part is not None and (np.ndim(part) != 1 + len(tail) or np.shape(part)[0] not in (1, m)
                                 or np.shape(part)[1:] != tail):
            raise ValueError(f"forcing {name} has shape {np.shape(part)} at step 0 for {m} "
                             f"paths; expected {_CONVENTION}")


def _dot_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[..., i] b[..., i] over the last axis, the others broadcast,
    term by term in index order: on an axis this short, cheaper than an
    einsum, and equal to it bit for bit when at most two terms are summed."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def _linear_step(y, a_k, d_k, g1_k, g2_k, dt: float, dw: np.ndarray) -> np.ndarray:
    """One Euler step y + (A y + g1) dt + sum_i (D_i y + g2^i) dW^i of the
    linear equation, for y (M, n) and dW (M, d); the noise term is skipped
    when D and g2 are both None."""
    drift = _dot_last(a_k, y[..., None, :])  # A y
    if g1_k is not None:
        drift = drift + g1_k
    if d_k is None and g2_k is None:
        return y + drift * dt
    noise = 0.0 if d_k is None else np.einsum("...dij,...j->...di", d_k, y)
    if g2_k is not None:
        noise = noise + np.swapaxes(g2_k, -1, -2)
    return y + drift * dt + np.einsum(
        "pdn,pd->pn", np.broadcast_to(noise, dw.shape + y.shape[-1:]), dw)


def solve_linearized(
    A, D, g, brownian: BrownianEnsemble, y0: Optional[np.ndarray] = None
) -> StateEnsemble:
    """Integrate dy = (A y + g1) dt + sum_i (D_i y + g2^i) dW^i, y(0) = y0 (default 0).

    A, D and the forcing g are accessors of the step index k: A(k) is
    (M or 1, n, n), D(k) is (M or 1, d, n, n), g(k) is (g1_k, g2_k) of
    shapes (M or 1, n) and (M or 1, n, d) with g2_k None where it is zero.
    D and g may be None.
    """
    n_paths, n_steps, _ = brownian.increments.shape
    _check_coefficients(A, D, g)
    n = A(0).shape[-1]

    out = np.empty((n_paths, n_steps + 1, n))
    out[:, 0] = 0.0 if y0 is None else y0
    y = out[:, 0]
    dt = brownian.grid.dt
    for k in range(n_steps):
        g1, g2 = (None, None) if g is None else g(k)
        if k == 0:
            _check_forcing((g1, g2), brownian, n)
        y = _linear_step(y, A(k), None if D is None else D(k), g1, g2, dt,
                         brownian.increments[:, k])
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
    _check_coefficients(A, D)
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
    if not noise >= 0.0:
        raise ValueError(f"noise scale must be nonnegative, got {noise}")
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
        raise MissingClosedFormError("the dynamics has no closed form to compare against")
    levels = sorted(n_steps_levels)
    if len(levels) < 2:
        raise ValueError("n_steps_levels needs at least two levels")
    if levels[0] < 1:
        raise ValueError(f"n_steps_levels: level {levels[0]} must be at least 1")
    levels = [positive_int(k, "n_steps_levels: level") for k in levels]
    if len(set(levels)) < len(levels):
        raise ValueError(f"n_steps_levels repeat: {levels}")
    finest = levels[-1]
    for k in levels:
        if finest % k != 0:
            raise ValueError(f"n_steps_levels: level {k} must divide the finest level {finest}")
    x0 = as_initial_state(dyn, x0)
    _check_paths(n_paths, x0=x0)
    fine = sample_brownian(make_grid(horizon, finest), dyn.noise_dim, n_paths, seed)
    exact = dyn.exact_terminal(
        np.broadcast_to(x0, (n_paths, dyn.state_dim)), horizon, fine.terminal()
    )
    errors = []
    for k in levels:
        ens = fine.coarsen(finest // k)
        states = euler_maruyama(dyn, np.zeros((k, dyn.control_dim)), x0, ens)
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
