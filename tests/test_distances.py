"""Distance estimators against Gaussian closed forms and basic metric axioms.

TV here uses the integral normalization int |p - q|, so it ranges in [0, 2]
and two unit Gaussians N(0,1), N(c,1) are at exact distance
2 (2 Phi(c/2) - 1) = 2 erf(c / (2 sqrt 2)).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from stable_tv_lab.distances import (
    GridDensity,
    rate_fit,
    tv_cf_lower_bound,
    tv_from_densities,
    tv_from_samples_1d,
    tv_noise_floor,
)
from stable_tv_lab.rng import RngStream
from stable_tv_lab.stable_sampling import empirical_char_fn, robust_mean


def _gaussian_density(mean, x_min=-12.0, x_max=12.0, n=4001):
    x = np.linspace(x_min, x_max, n)
    vals = np.exp(-((x - mean) ** 2) / 2.0) / math.sqrt(2.0 * math.pi)
    return GridDensity(x_min, x_max, vals)


def test_grid_density_validation():
    with pytest.raises(ValueError):
        GridDensity(1.0, -1.0, np.ones(10))
    with pytest.raises(ValueError):
        GridDensity(-1.0, 1.0, np.array([0.5, -0.1, 0.5]))
    with pytest.raises(ValueError):  # a NaN mass would pass the mass check and give TV nan
        GridDensity(-1.0, 1.0, np.array([0.5, np.nan, 0.5]))


def test_grid_density_mass_with_power_tail():
    # p(x) = (a/2) |x|^{-1-a} outside [-1, 1], zero inside: mass = 1
    a = 1.5
    x = np.linspace(-1.0, 1.0, 101)
    d = GridDensity(-1.0, 1.0, np.zeros_like(x), tail_exponent=a, tail_c=a / 2.0)
    assert d.tail_mass() == pytest.approx(1.0)
    assert d.total_mass() == pytest.approx(1.0)
    d.check_normalized()


def test_tv_from_densities_shifted_gaussians():
    c = 1.0
    tv = tv_from_densities(_gaussian_density(0.0), _gaussian_density(c))
    exact = 2.0 * math.erf(c / (2.0 * math.sqrt(2.0)))
    assert tv == pytest.approx(exact, abs=1e-6)


def test_tv_from_densities_requires_shared_grid():
    with pytest.raises(ValueError):
        tv_from_densities(_gaussian_density(0.0), _gaussian_density(0.0, n=2001))


def test_tv_from_samples_tracks_the_gaussian_answer():
    rng = RngStream(77, 0)
    n, c = 400_000, 1.0
    a = rng.normal(n)
    b = rng.normal(n) + c
    exact = 2.0 * math.erf(c / (2.0 * math.sqrt(2.0)))
    floor = tv_noise_floor(a, bins=64)
    assert tv_from_samples_1d(a, b, bins=64) == pytest.approx(exact, abs=max(floor, 0.05))


def test_tv_from_samples_extremes():
    rng = RngStream(78, 0)
    same = rng.normal(100_000)
    also_same = rng.normal(100_000)
    assert tv_from_samples_1d(same, also_same) < 0.05
    far = rng.normal(100_000) + 100.0
    assert tv_from_samples_1d(same, far) == pytest.approx(2.0, abs=0.01)


@given(
    data=st.lists(st.floats(-100, 100), min_size=50, max_size=300),
    shift=st.floats(-10, 10),
)
def test_tv_sample_estimator_stays_in_range(data, shift):
    assume(len(set(data)) > 1)  # a degenerate pooled sample has no histogram
    a = np.asarray(data)
    b = np.asarray(data) + shift
    assert 0.0 <= tv_from_samples_1d(a, b) <= 2.0


def test_cf_lower_bound_is_a_lower_bound():
    rng = RngStream(80, 0)
    n, c = 200_000, 0.8
    a = rng.normal(n)
    b = rng.normal(n) + c
    lb = tv_cf_lower_bound(a, b, [0.5, 1.0, 2.0])
    exact = 2.0 * math.erf(c / (2.0 * math.sqrt(2.0)))
    assert 0.0 < lb <= exact + 4.0 / math.sqrt(n)
    with pytest.raises(ValueError):
        tv_cf_lower_bound(a, b, [])


EVERY_ESTIMATOR = pytest.mark.parametrize(
    "estimator",
    [
        lambda x: empirical_char_fn(x, 1.0),
        robust_mean,
        lambda x: tv_from_samples_1d(x, np.ones(100)),
        tv_noise_floor,
        lambda x: tv_cf_lower_bound(np.ones(100), x, [1.0]),
    ],
    ids=["empirical_char_fn", "robust_mean", "tv_from_samples_1d", "tv_noise_floor", "tv_cf_lower_bound"],
)


@EVERY_ESTIMATOR
def test_estimators_reject_empty_samples(estimator):
    with pytest.raises(ValueError):
        estimator(np.empty(0))


@EVERY_ESTIMATOR
def test_estimators_reject_non_finite_samples(estimator):
    # one NaN in 1000 must not vanish into a max (0.0), a histogram (2.0) or a mean
    x = np.linspace(-1.0, 1.0, 1000)
    x[500] = np.nan
    with pytest.raises(ValueError):
        estimator(x)


@pytest.mark.parametrize("exponent", [0.5, 1.0, 1.5])
def test_rate_fit_recovers_planted_exponents(exponent):
    alphas = [1.7, 1.8, 1.9, 1.95, 1.99]
    pts = [(a, 3.0 * (2.0 - a) ** exponent) for a in alphas]
    fit = rate_fit(pts)
    assert fit.slope == pytest.approx(exponent, abs=0.01)
    assert abs(fit.curvature) < 1e-8  # a pure power law has no log factor
    assert abs(fit.curvature) < 1e-10


def test_rate_fit_flags_a_log_factor_with_curvature():
    alphas = [1.7, 1.8, 1.9, 1.95, 1.99]
    pts = [(a, (2.0 - a) * math.log(1.0 / (2.0 - a))) for a in alphas]
    assert abs(rate_fit(pts).curvature) > 0.01


def test_rate_fit_input_validation():
    with pytest.raises(ValueError):
        rate_fit([(1.9, 1.0), (1.95, 0.5)])  # too few points
    with pytest.raises(ValueError):
        rate_fit([(2.0, 1.0), (1.9, 1.0), (1.8, 1.0)])  # alpha = 2
    with pytest.raises(ValueError):
        rate_fit([(1.9, 0.0), (1.8, 1.0), (1.7, 1.0)])  # nonpositive value
    with pytest.raises(ValueError):
        rate_fit([(1.9, math.nan), (1.8, 1.0), (1.7, 1.0)])  # non-finite value
