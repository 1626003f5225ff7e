"""Coherent risk measures on weighted sample spaces.

Implements expectation, average value-at-risk

    AVaR_alpha(Z) = inf_t ( t + E[max(Z - t, 0)] / alpha ),

and convex mixtures of AVaR levels, together with their subgradients: the
maximizing densities of the dual (sup over densities) representation.

Conventions on a finite weighted sample: quantiles use the lower convention
q = inf{t : P(Z <= t) >= 1 - alpha}; the subgradient weight on the atom
{Z = q} may sit anywhere in the closed interval [0, 1/alpha], with boundary
contact flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

_AGREEMENT_TOL = 1e-9
_SUBGRADIENT_SUM_TOL = 1e-9


class RiskConsistencyError(ArithmeticError):
    """Raised when two required routes to the same quantity disagree."""


@dataclass(frozen=True)
class SampledRandomVariable:
    """Real-valued random variable on a finite weighted sample space."""

    values: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if values.size == 0:
            raise ValueError("sample is empty")
        bad = ~np.isfinite(values)
        if bad.any():
            raise ValueError(f"sample values must be finite: {int(bad.sum())} of {bad.size} "
                             f"are not finite (first at index {int(np.argmax(bad))})")
        object.__setattr__(self, "values", values)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float).reshape(-1)
            if w.shape != values.shape:
                raise ValueError("weights shape does not match values")
            if (w < 0).any():
                raise ValueError("weights must be nonnegative")
            if abs(w.sum() - 1.0) > 1e-12:
                raise ValueError(f"weights must sum to 1 within 1e-12, got {w.sum()!r}")
            object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.values.size

    def weight_array(self) -> np.ndarray:
        if self.weights is None:
            return np.full(self.size, 1.0 / self.size)
        return self.weights

    def mean(self) -> float:
        return float(self.weight_array() @ self.values)


def _as_sample(z) -> SampledRandomVariable:
    if isinstance(z, SampledRandomVariable):
        return z
    return SampledRandomVariable(np.asarray(z, dtype=float))


@dataclass(frozen=True)
class RiskSubgradient:
    """A maximizing density xi from the dual representation, per sample point."""

    xi: np.ndarray
    quantile: Optional[float] = None          # single-level AVaR quantile, if applicable
    atom_weight: Optional[float] = None       # density value shared on {Z = quantile}
    boundary_hit: bool = False                # atom weight sits at 0 or 1/alpha
    unique: bool = True                       # face is a singleton on this sample


def _lower_quantile(cum_weights: np.ndarray, level: float) -> int:
    """Index of inf{t : P(Z <= t) >= level} in the ascending sorted sample."""
    target = level * cum_weights[-1]
    # tolerate float drift in the cumulative sum when the level is attained exactly
    idx = int(np.searchsorted(cum_weights, target - 1e-12 * max(1.0, abs(target))))
    return min(idx, len(cum_weights) - 1)


class RiskMeasure:
    """Base class; subclasses fill in value and subgradient."""

    def value(self, z) -> float:
        raise NotImplementedError

    def subgradient(self, z) -> RiskSubgradient:
        raise NotImplementedError


class Expectation(RiskMeasure):
    def value(self, z) -> float:
        return _as_sample(z).mean()

    def subgradient(self, z) -> RiskSubgradient:
        sample = _as_sample(z)
        return RiskSubgradient(xi=np.ones(sample.size))


class AVaR(RiskMeasure):
    """Average value-at-risk at tail mass alpha in (0, 1]."""

    def __init__(self, alpha: float):
        alpha = float(alpha)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        self.alpha = alpha

    # -- internals ---------------------------------------------------------

    def _sorted(self, sample: SampledRandomVariable):
        if sample.weights is None:  # equal weights: the permutation is not needed
            values, weights = np.sort(sample.values), sample.weight_array()
        else:
            order = np.argsort(sample.values, kind="stable")
            values, weights = sample.values[order], sample.weights[order]
        return values, weights, np.cumsum(weights)

    def _tail_average(self, values, weights, q_idx) -> float:
        # primal form evaluated at the lower quantile q:
        # AVaR = q + E[(Z - q)_+] / alpha
        q = values[q_idx]
        excess = weights @ np.maximum(values - q, 0.0)
        return float(q + excess / self.alpha)

    def _objective_at_knots(self, values, weights, cum) -> np.ndarray:
        # g(t) = t + E[(Z - t)_+] / alpha evaluated at every sample value via
        # suffix sums; exact because g is piecewise linear with these knots.
        total_wz = float(weights @ values)
        total_w = cum[-1]
        # suffix sums excluding index i: sum_{j > i} w_j z_j and sum_{j > i} w_j
        cum_wz = np.cumsum(weights * values)
        suffix_wz = total_wz - cum_wz
        suffix_w = total_w - cum
        return values + (suffix_wz - values * suffix_w) / self.alpha

    # -- public API --------------------------------------------------------

    def value(self, z) -> float:
        """Tail average, cross-checked against minimizing the primal objective.

        Route (a): lower quantile q plus the normalized excess above q.
        Route (b): exact minimum of t + E[(Z-t)_+]/alpha over its knots.
        The two must agree within 1e-9 (relative-guarded); route (a) is returned.
        """
        sample = _as_sample(z)
        values, weights, cum = self._sorted(sample)
        q_idx = _lower_quantile(cum, 1.0 - self.alpha)
        route_a = self._tail_average(values, weights, q_idx)
        route_b = float(self._objective_at_knots(values, weights, cum).min())
        tol = _AGREEMENT_TOL * max(1.0, abs(route_a), abs(route_b))
        if abs(route_a - route_b) > tol:
            raise RiskConsistencyError(
                f"AVaR routes disagree: tail average {route_a!r} vs objective minimum {route_b!r}"
            )
        return route_a

    def subgradient(self, z) -> RiskSubgradient:
        """Maximizing density: 0 below the quantile, 1/alpha above, and the
        mean-one balancing weight on the atom {Z = q} (closed interval
        [0, 1/alpha]; boundary contact flagged)."""
        sample = _as_sample(z)
        values, weights, cum = self._sorted(sample)
        q_idx = _lower_quantile(cum, 1.0 - self.alpha)
        q = values[q_idx]
        above = sample.values > q
        atom = sample.values == q
        w = sample.weight_array()
        p_above = float(w[above].sum())
        p_atom = float(w[atom].sum())
        if p_atom <= 0.0:
            raise RiskConsistencyError("quantile atom has zero probability")
        lam = (1.0 - p_above / self.alpha) / p_atom
        boundary = lam <= 1e-12 or lam >= 1.0 / self.alpha - 1e-12
        lam_clipped = min(max(lam, 0.0), 1.0 / self.alpha)
        xi = np.zeros(sample.size)
        xi[above] = 1.0 / self.alpha
        xi[atom] = lam_clipped
        total = float(w @ xi)
        if abs(total - 1.0) > _SUBGRADIENT_SUM_TOL:
            raise RiskConsistencyError(f"subgradient mean {total!r} not 1 within 1e-9")
        n_atom = int(atom.sum())
        unique = n_atom == 1 or boundary
        return RiskSubgradient(
            xi=xi, quantile=float(q), atom_weight=float(lam_clipped),
            boundary_hit=bool(boundary), unique=bool(unique),
        )


class MixtureAVaR(RiskMeasure):
    """Convex combination sum_j lambda_j AVaR_{alpha_j}."""

    def __init__(self, alphas: Sequence[float], weights: Sequence[float]):
        alphas = [float(a) for a in alphas]
        weights = [float(w) for w in weights]
        if len(alphas) != len(weights) or not alphas:
            raise ValueError("alphas and weights must be equal-length and nonempty")
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        self.components = [AVaR(a) for a in alphas]
        self.mix_weights = weights

    def value(self, z) -> float:
        sample = _as_sample(z)
        return float(sum(w * c.value(sample) for c, w in zip(self.components, self.mix_weights)))

    def subgradient(self, z) -> RiskSubgradient:
        sample = _as_sample(z)
        xi = np.zeros(sample.size)
        unique = True
        boundary = False
        for comp, w in zip(self.components, self.mix_weights):
            sub = comp.subgradient(sample)
            xi += w * sub.xi
            unique &= sub.unique
            boundary |= sub.boundary_hit
        total = float(sample.weight_array() @ xi)
        if abs(total - 1.0) > _SUBGRADIENT_SUM_TOL:
            raise RiskConsistencyError(f"mixture subgradient mean {total!r} not 1")
        return RiskSubgradient(xi=xi, boundary_hit=boundary, unique=unique)


# ---------------------------------------------------------------------------
# module-level operations


def risk_value(measure: RiskMeasure, z) -> float:
    return measure.value(z)


def risk_subgradient(measure: RiskMeasure, z) -> RiskSubgradient:
    return measure.subgradient(z)
