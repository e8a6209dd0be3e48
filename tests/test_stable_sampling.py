"""Sampler distribution tests: characteristic functions, Laplace transforms,
and robust estimation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stable_tv_lab import (
    RngStream,
    SampleSet,
    StableSpec,
    SubordinatorSpec,
    empirical_char_fn,
    robust_mean,
    sample_stable_vector,
    sample_subordinator,
    sample_sym_stable,
)

N = 100_000
CF_TOL = 3.0 / np.sqrt(N)  # three-sigma band for a bounded test function


def test_spec_validation():
    with pytest.raises(ValueError):
        StableSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        StableSpec(2.1, 1.0)
    with pytest.raises(ValueError):
        StableSpec(1.5, 0.0)
    with pytest.raises(ValueError):
        SubordinatorSpec(2.0, 1.0)  # subordinator needs alpha < 2


def test_alpha_two_is_gaussian_with_variance_t():
    t = 3.0
    x = sample_sym_stable(StableSpec(2.0, t), RngStream(11, 0), size=N)
    assert np.mean(x) == pytest.approx(0.0, abs=4 * np.sqrt(t / N))
    assert np.var(x) == pytest.approx(t, rel=0.02)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_sym_stable_char_fn(alpha, t):
    # half-speed convention: E exp(i xi L_t) = exp(-t |xi|^alpha / 2)
    x = SampleSet(sample_sym_stable(StableSpec(alpha, t), RngStream(7, 1), size=N))
    for xi in (0.5, 1.0, 2.0):
        emp = empirical_char_fn(x, xi)
        target = np.exp(-t * abs(xi) ** alpha / 2.0)
        assert abs(emp.real - target) < CF_TOL
        assert abs(emp.imag) < CF_TOL  # symmetric law


@pytest.mark.parametrize("alpha", [1.2, 1.7])
def test_subordinator_positivity_and_laplace(alpha):
    t = 1.5
    s = sample_subordinator(SubordinatorSpec(alpha, t), RngStream(7, 2), size=N)
    assert np.all(s > 0.0)
    # E exp(-r S_t) = exp(-t (2 r)^{alpha/2} / 2)
    for r in (0.5, 1.0, 2.0):
        emp = float(np.mean(np.exp(-r * s)))
        target = np.exp(-t * (2.0 * r) ** (alpha / 2.0) / 2.0)
        assert abs(emp - target) < CF_TOL


def test_stable_vector_marginals_and_isotropy():
    alpha, t, d = 1.5, 1.0, 3
    x = sample_stable_vector(alpha, t, d, RngStream(7, 3), size=N)
    assert x.shape == (N, d)
    target = np.exp(-t / 2.0)  # |xi| = 1
    for axis in range(d):
        emp = float(np.mean(np.cos(x[:, axis])))
        assert abs(emp - target) < CF_TOL
    # rotation invariance: the CF along a diagonal unit vector matches too
    u = np.ones(d) / np.sqrt(d)
    emp = float(np.mean(np.cos(x @ u)))
    assert abs(emp - target) < CF_TOL


@pytest.mark.filterwarnings("ignore:(divide by zero|invalid value):RuntimeWarning")
def test_kanter_redraws_exact_zeros():
    # theta = 0 gives 0/0 and w = 0 an infinite draw (warning once, before
    # the redraw); both must be redrawn
    class ZerosFirst:
        def __init__(self):
            self.rng = RngStream(6, 0)
            self.first = {"uniform": True, "exponential": True}

        def _edge(self, name, x):
            if self.first[name]:
                self.first[name] = False
                if np.ndim(x) == 0:
                    return 0.0
                x[0] = 0.0
            return x

        def uniform(self, low, high, size=None):
            assert low == 0.0
            return self._edge("uniform", self.rng.uniform(low, high, size))

        def exponential(self, size=None):
            return self._edge("exponential", self.rng.exponential(size))

    for size in (None, 1, 64):
        s = sample_subordinator(SubordinatorSpec(1.5, 1.0), ZerosFirst(), size=size)
        assert np.all(np.isfinite(s)) and np.all(s > 0.0)


def test_sampler_replays_with_same_stream():
    a = sample_sym_stable(StableSpec(1.5, 1.0), RngStream(42, 9), size=1000)
    b = sample_sym_stable(StableSpec(1.5, 1.0), RngStream(42, 9), size=1000)
    np.testing.assert_array_equal(a, b)


def test_robust_mean_resists_heavy_tails():
    # 1/S has mean 4 for alpha = 1, t = 1 but infinite variance would break
    # a plain average's error bars; the median-of-means stays near 4
    s = sample_subordinator(SubordinatorSpec(1.0, 1.0), RngStream(3, 0), size=500_000)
    est = robust_mean(SampleSet(1.0 / s))
    assert est == pytest.approx(4.0, rel=0.02)


@given(c=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_robust_mean_of_constant_is_the_constant(c):
    s = SampleSet(np.full(256, c))
    assert robust_mean(s) == pytest.approx(c, abs=1e-12)
    assert robust_mean(s, blocks=256) == pytest.approx(c, abs=1e-12)
    # more blocks than samples would leave empty blocks, whose mean is NaN
    for blocks in (0, 257):
        with pytest.raises(ValueError):
            robust_mean(s, blocks=blocks)


@given(
    vals=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=32, max_size=200
    )
)
def test_robust_mean_stays_within_sample_range(vals):
    s = SampleSet(np.asarray(vals))
    m = robust_mean(s, blocks=8)
    assert min(vals) - 1e-9 <= m <= max(vals) + 1e-9


def test_empirical_char_fn_is_bounded():
    x = SampleSet(sample_sym_stable(StableSpec(1.3, 1.0), RngStream(1, 4), size=10_000))
    for xi in (0.1, 1.0, 5.0):
        assert abs(empirical_char_fn(x, xi)) <= 1.0 + 1e-12
