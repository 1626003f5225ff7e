import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskpmp.risk import (
    AVaR,
    Expectation,
    MixtureAVaR,
    SampledRandomVariable,
    coherence_suite,
    representation_check,
    risk_subgradient,
    risk_value,
)

# ---------------------------------------------------------------------------
# independent oracles (naive evaluation, no shared code with the module)


def avar_bruteforce(values, weights, alpha, n_grid=20001):
    """Naive minimization of t + E[max(Z - t, 0)]/alpha over knots plus a
    fine surrounding grid; O(n * grid) with no sorting tricks."""
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.full(values.size, 1.0 / values.size)
    lo, hi = values.min(), values.max()
    pad = max(1.0, hi - lo)
    grid = np.concatenate([
        np.linspace(lo - pad, hi + pad, n_grid),
        values,
    ])
    best = np.inf
    for t in grid:
        obj = t + (weights @ np.maximum(values - t, 0.0)) / alpha
        best = min(best, obj)
    return best


def avar_sorted_tail_oracle(values, weights, alpha):
    """Direct tail average: accumulate the top alpha mass from the largest
    value down, splitting the boundary atom."""
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.full(values.size, 1.0 / values.size)
    order = np.argsort(-values)
    acc = 0.0
    mass = 0.0
    for i in order:
        take = min(weights[i], alpha - mass)
        acc += take * values[i]
        mass += take
        if mass >= alpha - 1e-15:
            break
    return acc / alpha


samples_strategy = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


# ---------------------------------------------------------------------------
# values


def test_avar_uniform_four_points_by_hand():
    z = SampledRandomVariable(np.array([1.0, 2.0, 3.0, 4.0]))
    measure = AVaR(0.5)
    assert risk_value(measure, z) == pytest.approx(3.5, abs=1e-12)
    sub = risk_subgradient(measure, z)
    np.testing.assert_allclose(sub.xi, [0.0, 0.0, 2.0, 2.0], atol=1e-12)
    assert sub.quantile == 2.0


def test_avar_alpha_one_is_mean():
    rng = np.random.default_rng(0)
    z = SampledRandomVariable(rng.normal(size=37))
    assert risk_value(AVaR(1.0), z) == pytest.approx(z.mean(), abs=1e-12)


def test_avar_tiny_alpha_is_max():
    z = SampledRandomVariable(np.array([0.4, -1.0, 2.5, 2.5, 1.0]))
    assert risk_value(AVaR(1e-9), z) == pytest.approx(2.5, abs=1e-12)


def test_avar_matches_bruteforce_oracle_random_samples():
    rng = np.random.default_rng(42)
    for trial in range(40):
        size = int(rng.integers(3, 200))
        values = rng.normal(scale=rng.uniform(0.5, 5.0), size=size)
        if trial % 2:
            weights = rng.uniform(0.01, 1.0, size=size)
            weights /= weights.sum()
        else:
            weights = None
        alpha = float(rng.uniform(0.02, 1.0))
        ours = risk_value(AVaR(alpha), SampledRandomVariable(values, weights))
        assert ours == pytest.approx(avar_bruteforce(values, weights, alpha), abs=1e-9)
        assert ours == pytest.approx(avar_sorted_tail_oracle(values, weights, alpha), abs=1e-9)


def test_avar_with_ties_and_atoms():
    values = np.array([1.0, 1.0, 1.0, 5.0])
    z = SampledRandomVariable(values)
    # alpha = 0.5: tail mass {5} is 0.25, remaining 0.25 sits on the atom {1}
    assert risk_value(AVaR(0.5), z) == pytest.approx(avar_bruteforce(values, None, 0.5), abs=1e-12)
    sub = risk_subgradient(AVaR(0.5), z)
    assert sub.quantile == 1.0
    assert not sub.unique  # atom holds three points with an interior weight
    np.testing.assert_allclose(sub.xi[3], 2.0)


tied_strategy = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(values=tied_strategy, alpha=st.floats(min_value=0.01, max_value=1.0))
def test_avar_tied_atoms_match_oracle_property(values, alpha):
    values = np.array(values, dtype=float)
    ours = AVaR(alpha).value(SampledRandomVariable(values))
    assert ours == pytest.approx(avar_sorted_tail_oracle(values, None, alpha), abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(min_value=-4, max_value=4), st.floats(min_value=0.01, max_value=1.0)),
        min_size=1,
        max_size=40,
    ),
    alpha=st.floats(min_value=0.01, max_value=1.0),
)
def test_avar_weighted_tied_atoms_match_oracle_property(pairs, alpha):
    values = np.array([v for v, _ in pairs], dtype=float)
    weights = np.array([w for _, w in pairs])
    weights = weights / weights.sum()
    ours = AVaR(alpha).value(SampledRandomVariable(values, weights))
    assert ours == pytest.approx(avar_sorted_tail_oracle(values, weights, alpha), abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(values=st.one_of(samples_strategy, tied_strategy), alpha=st.floats(min_value=0.01, max_value=1.0))
def test_avar_unweighted_equals_explicit_uniform_weights_property(values, alpha):
    """The unweighted sample sorts without a permutation; spelling the same
    uniform weights out takes the stable argsort.  Both must agree exactly."""
    values = np.array(values, dtype=float)
    uniform = SampledRandomVariable(values, np.full(values.size, 1.0 / values.size))
    assert AVaR(alpha).value(SampledRandomVariable(values)) == AVaR(alpha).value(uniform)


def test_constant_sample_gives_unit_subgradient():
    z = SampledRandomVariable(np.full(8, 3.25))
    sub = risk_subgradient(AVaR(0.3), z)
    np.testing.assert_allclose(sub.xi, 1.0, atol=1e-12)
    assert risk_value(AVaR(0.3), z) == pytest.approx(3.25, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(values=samples_strategy, alpha=st.floats(min_value=0.01, max_value=1.0))
def test_avar_dominates_mean_property(values, alpha):
    z = SampledRandomVariable(np.array(values))
    assert risk_value(AVaR(alpha), z) >= z.mean() - 1e-9


@settings(max_examples=100, deadline=None)
@given(values=samples_strategy, a1=st.floats(0.02, 1.0), a2=st.floats(0.02, 1.0))
def test_avar_monotone_in_alpha_property(values, a1, a2):
    lo, hi = min(a1, a2), max(a1, a2)
    z = SampledRandomVariable(np.array(values))
    assert risk_value(AVaR(lo), z) >= risk_value(AVaR(hi), z) - 1e-9


def test_avar_rejects_bad_alpha():
    for alpha in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            AVaR(alpha)


def test_sample_validation():
    with pytest.raises(ValueError):
        SampledRandomVariable(np.array([]))
    with pytest.raises(ValueError):
        SampledRandomVariable(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        SampledRandomVariable(np.array([1.0, 2.0]), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        SampledRandomVariable(np.array([1.0, 2.0]), np.array([-0.1, 1.1]))


# ---------------------------------------------------------------------------
# subgradients


@settings(max_examples=150, deadline=None)
@given(values=samples_strategy, alpha=st.floats(min_value=0.01, max_value=1.0))
def test_subgradient_feasible_and_attains_property(values, alpha):
    z = SampledRandomVariable(np.array(values))
    measure = AVaR(alpha)
    sub = risk_subgradient(measure, z)
    w = z.weight_array()
    assert (sub.xi >= -1e-12).all()
    assert (sub.xi <= 1.0 / alpha + 1e-12).all()
    assert (w * sub.xi).sum() == pytest.approx(1.0, abs=1e-9)
    assert (w * sub.xi) @ z.values == pytest.approx(risk_value(measure, z), abs=1e-9)


def test_expectation_subgradient_is_one():
    z = SampledRandomVariable(np.array([3.0, -1.0, 4.0]))
    sub = risk_subgradient(Expectation(), z)
    np.testing.assert_array_equal(sub.xi, 1.0)
    assert risk_value(Expectation(), z) == pytest.approx(2.0)


def test_mixture_value_and_subgradient_are_levelwise_sums():
    rng = np.random.default_rng(9)
    values = rng.normal(size=100)
    z = SampledRandomVariable(values)
    mix = MixtureAVaR([0.1, 0.5], [0.3, 0.7])
    expected = 0.3 * risk_value(AVaR(0.1), z) + 0.7 * risk_value(AVaR(0.5), z)
    assert risk_value(mix, z) == pytest.approx(expected, abs=1e-12)
    sub = mix.subgradient(z)
    levelwise = 0.3 * risk_subgradient(AVaR(0.1), z).xi + 0.7 * risk_subgradient(AVaR(0.5), z).xi
    np.testing.assert_allclose(sub.xi, levelwise, atol=1e-12)
    assert (z.weight_array() * sub.xi) @ values == pytest.approx(risk_value(mix, z), abs=1e-9)


# ---------------------------------------------------------------------------
# dual representation


def test_representation_check_avar():
    rng = np.random.default_rng(3)
    z = SampledRandomVariable(rng.normal(size=500))
    report = representation_check(AVaR(0.25), z, n_trials=200, seed=1)
    assert report.passed
    assert report.sup_gap >= -1e-9
    assert report.attainment_error <= 1e-9


def test_representation_check_expectation_degenerate_envelope():
    z = SampledRandomVariable(np.array([1.0, -2.0, 0.5]))
    report = representation_check(Expectation(), z, n_trials=16, seed=2)
    assert report.passed
    assert report.sup_gap == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# coherence audit


@pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0])
def test_coherence_suite_avar_clean(alpha):
    report = coherence_suite(AVaR(alpha), n_trials=300, seed=8)
    assert report.passed, report.violations[:3]


def test_coherence_suite_mixture_clean():
    report = coherence_suite(MixtureAVaR([0.1, 0.6], [0.4, 0.6]), n_trials=200, seed=12)
    assert report.passed


def test_coherence_suite_flags_non_homogeneous_functional():
    def second_moment(sample):
        return float(sample.weight_array() @ sample.values**2)

    report = coherence_suite(second_moment, n_trials=300, seed=4)
    axioms = {v.axiom for v in report.violations}
    assert "homogeneity" in axioms
    assert not report.passed
    # witnesses are recorded
    first = report.violations[0]
    assert first.lhs > first.rhs
