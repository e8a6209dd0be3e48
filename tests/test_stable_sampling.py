"""Sampler distribution tests: characteristic functions, Laplace transforms,
and robust estimation."""

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stable_tv_lab.rng import RngStream
from stable_tv_lab.stable_sampling import (
    _kanter_root,
    empirical_char_fn,
    robust_mean,
    sample_stable_vector,
    sample_subordinator,
    sample_subordinator_root,
)

N = 100_000
CF_TOL = 3.0 / np.sqrt(N)  # three-sigma band for a bounded test function


def test_spec_validation():
    rng = RngStream(0, 0)
    with pytest.raises(ValueError):
        sample_stable_vector(0.0, 1.0, 1, rng, 10)
    with pytest.raises(ValueError):
        sample_stable_vector(2.1, 1.0, 1, rng, 10)
    with pytest.raises(ValueError):
        sample_stable_vector(1.5, 0.0, 1, rng, 10)
    with pytest.raises(ValueError):
        sample_stable_vector(1.5, 1.0, 0, rng, 10)
    with pytest.raises(ValueError):
        sample_subordinator(2.0, 1.0, rng, 10)  # subordinator needs alpha < 2
    with pytest.raises(ValueError):
        sample_subordinator(1.5, 0.0, rng, 10)
    for alphas in [(), (1.5, 2.0)]:  # several alpha: none, or one out of range
        with pytest.raises(ValueError):
            sample_subordinator(alphas, 1.0, rng, 10)
    with pytest.raises(ValueError):  # the subordinator takes one t
        sample_subordinator(1.5, (0.1, 0.2), rng, 10)
    for alpha, t in [(2.0, 1.0), ((), 1.0), (1.5, 0.0), (1.5, (0.1, 0.2))]:
        with pytest.raises(ValueError):
            sample_subordinator_root(alpha, t, rng, 10)
    for alpha in (1.5, 2.0):
        for ts in [(), (0.1, -1.0)]:
            with pytest.raises(ValueError):
                sample_stable_vector(alpha, ts, 1, rng, 10)


def test_alpha_two_is_gaussian_with_variance_t():
    t = 3.0
    x = sample_stable_vector(2.0, t, 1, RngStream(11, 0), N)[:, 0]
    assert np.mean(x) == pytest.approx(0.0, abs=4 * np.sqrt(t / N))
    assert np.var(x) == pytest.approx(t, rel=0.02)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_sym_stable_char_fn(alpha, t):
    # half-speed convention: E exp(i xi L_t) = exp(-t |xi|^alpha / 2)
    x = sample_stable_vector(alpha, t, 1, RngStream(7, 1), N)[:, 0]
    for xi in (0.5, 1.0, 2.0):
        emp = empirical_char_fn(x, xi)
        target = np.exp(-t * abs(xi) ** alpha / 2.0)
        assert abs(emp.real - target) < CF_TOL
        assert abs(emp.imag) < CF_TOL  # symmetric law


@pytest.mark.parametrize("alpha", [1.2, 1.7])
def test_subordinator_positivity_and_laplace(alpha):
    t = 1.5
    s = sample_subordinator(alpha, t, RngStream(7, 2), N)
    assert np.all(s > 0.0)
    # E exp(-r S_t) = exp(-t (2 r)^{alpha/2} / 2)
    for r in (0.5, 1.0, 2.0):
        emp = float(np.mean(np.exp(-r * s)))
        target = np.exp(-t * (2.0 * r) ** (alpha / 2.0) / 2.0)
        assert abs(emp - target) < CF_TOL


def test_subordinators_of_several_alpha_share_one_kanter_draw():
    # row j of the tuple form is, bit for bit, the draw for alpha[j] alone on the same stream
    alphas = (1.2, 1.7, 1.99)
    many = sample_subordinator(alphas, 0.3, RngStream(7, 4), 1000)
    assert many.shape == (3, 1000)
    for alpha, row in zip(alphas, many):
        np.testing.assert_array_equal(row, sample_subordinator(alpha, 0.3, RngStream(7, 4), 1000))
    roots = sample_subordinator_root(alphas, 0.3, RngStream(7, 4), 1000)
    np.testing.assert_array_equal(np.square(roots), many)  # sample_subordinator squares the roots


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_samplers_of_several_t_scale_one_draw(alpha):
    # row k of the tuple form is, bit for bit, the draw at t_k alone on the same stream
    ts = (1e-3, 0.3, 2.0)
    many = sample_stable_vector(alpha, ts, 2, RngStream(7, 5), 1000)
    assert many.shape == (3, 1000, 2)
    for t, row in zip(ts, many):
        np.testing.assert_array_equal(row, sample_stable_vector(alpha, t, 2, RngStream(7, 5), 1000))
    out = np.empty((3, 1000, 2))  # the Euler stepper's workspace form
    assert sample_stable_vector(alpha, ts, 2, RngStream(7, 5), 1000, out=out) is out
    np.testing.assert_array_equal(out, many)


@pytest.mark.parametrize("alpha", [1.98, 1.99, 1.999])
def test_subordinator_stays_finite_near_alpha_two(alpha):
    # the Kanter powers have order 1/(1 - alpha/2), 200 at alpha = 1.99, and
    # under- or overflow to NaN, inf or 0 unless the kernel works in logs
    n = 1_000_000
    s = sample_subordinator(alpha, 1.0, RngStream(0, 0), n)
    assert np.all(np.isfinite(s)) and np.all(s > 0.0)
    # E exp(-S_1) = exp(-2^{alpha/2} / 2)
    emp = float(np.mean(np.exp(-s)))
    assert abs(emp - np.exp(-(2.0 ** (alpha / 2.0)) / 2.0)) < 3.0 / np.sqrt(n)


def test_stable_vector_has_no_nan_near_alpha_two():
    x = sample_stable_vector(1.99, 1.0, 2, RngStream(0, 1), N)
    assert not np.isnan(x).any()


def _textbook_kanter(rho, theta, w):
    a = (
        np.sin((1.0 - rho) * theta)
        * np.sin(rho * theta) ** (rho / (1.0 - rho))
        / np.sin(theta) ** (1.0 / (1.0 - rho))
    )
    return (a / w) ** ((1.0 - rho) / rho)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 1.9, 1.95])
def test_log_kanter_matches_the_power_form(alpha):
    # below alpha ~ 1.97 the power form neither under- nor overflows, so the
    # square of the root kernel and the power form agree to round-off on the same (theta, w)
    gen = np.random.default_rng(5)
    theta = gen.uniform(0.0, np.pi, 100_000)
    w = gen.standard_exponential(100_000)
    want = _textbook_kanter(alpha / 2.0, theta, w)
    got = _kanter_root(alpha / 2.0, theta, w, 0.0) ** 2
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def _kanter_root_one_rho(rho, theta, w, half_log_c):
    """The kernel for one rho, in the operation order of the batched kernel's rows."""
    t1 = np.tan(0.5 * theta)
    cot2 = (1.0 - t1) * (1.0 + t1) / t1
    q = (t1 * t1 + 1.0) / (t1 * w)
    u = np.tan((0.5 * (1.0 - rho)) * theta)
    v = u * u + 1.0
    y = (1.0 - (u + cot2) * u) / v
    log_x = np.log(u * q / v) * (0.5 * (1.0 - rho) / rho) + half_log_c
    return np.exp(log_x) * np.sqrt(y)


def test_batched_kanter_rows_equal_a_loop_over_rho():
    # one (k, 1) column of rho and of the scale shares tan(theta / 2), 2 cot(theta) and
    # (1 + tan^2) / (tan w) across rows, and each row keeps the bits of the single-rho kernel
    gen = np.random.default_rng(12)
    theta = gen.uniform(0.0, np.pi, 50_000)
    w = gen.standard_exponential(50_000)
    rhos = [0.5, 0.85, 0.9, 0.925, 0.95, 0.9995]
    half_log_cs = [0.0, -0.1, 0.2, -0.3, 0.4, -0.5]
    batched = _kanter_root(np.array(rhos)[:, None], theta, w, np.array(half_log_cs)[:, None])
    loop = np.array([_kanter_root_one_rho(rho, theta, w, c) for rho, c in zip(rhos, half_log_cs)])
    assert batched.shape == (len(rhos), theta.size)
    assert np.array_equal(batched.view(np.int64), loop.view(np.int64))
    assert np.array_equal(_kanter_root(0.9, theta, w, 0.2).view(np.int64), loop[2].view(np.int64))


def _mp_log_kanter(rho, theta, w):
    """50-digit log S at the exact float inputs, from the sines."""
    with mpmath.workdps(50):
        rho, theta, w = mpmath.mpf(rho), mpmath.mpf(theta), mpmath.mpf(w)
        return (
            (1 - rho) / rho * (mpmath.log(mpmath.sin((1 - rho) * theta)) - mpmath.log(w))
            + mpmath.log(mpmath.sin(rho * theta))
            - mpmath.log(mpmath.sin(theta)) / rho
        )


@pytest.mark.parametrize("rho", [0.55, 0.75, 0.95, 0.995, 0.9995])
def test_log_kanter_matches_a_50_digit_oracle(rho):
    # reaches alpha = 1.999, where the power form underflows; the corners
    # put theta next to 0 and pi and w far into both tails
    gen = np.random.default_rng(11)
    theta_corners = np.repeat([np.pi * 2.0**-53, np.pi * (1.0 - 2.0**-53)], 2)
    theta = np.concatenate([gen.uniform(0.0, np.pi, 200), theta_corners])
    w = np.concatenate([gen.standard_exponential(200), np.tile([2.0**-64, 40.0], 2)])
    got = 2.0 * np.log(_kanter_root(rho, theta, w, 0.0))  # log S, from the root kernel at c = 1
    # rounding rho theta to a float64 moves log S by up to 2^-53 kappa, with
    # kappa the condition number of log S in rho theta: ~2000 at theta -> pi,
    # rho = 0.9995, and below 1 at small theta.  The kernel rounds (1 - rho) theta
    # instead, in which log S has condition number a kappa <= kappa
    a, phi = (1.0 - rho) / rho, rho * theta
    kappa = phi * np.abs(1.0 / np.tan(phi) - a / np.tan(theta - phi))
    for g, th, ww, k in zip(got, theta, w, kappa):
        rel_err = abs(float(mpmath.expm1(mpmath.mpf(float(g)) - _mp_log_kanter(rho, th, ww))))
        assert rel_err <= 2e-14 + 2.0**-53 * k, (th, ww)


def test_stable_vector_marginals_and_isotropy():
    alpha, t, d = 1.5, 1.0, 3
    x = sample_stable_vector(alpha, t, d, RngStream(7, 3), N)
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
                x[0] = 0.0
            return x

        def uniform(self, low, high, size):
            assert low == 0.0
            return self._edge("uniform", self.rng.uniform(low, high, size))

        def exponential(self, size):
            return self._edge("exponential", self.rng.exponential(size))

    for sampler in (sample_subordinator_root, sample_subordinator):
        for alpha in (1.5, (1.5, 1.9)):  # one redraw serves every alpha
            for size in (1, 64):
                s = sampler(alpha, 1.0, ZerosFirst(), size)
                assert np.all(np.isfinite(s)) and np.all(s > 0.0)


def test_sampler_replays_with_same_stream():
    a = sample_stable_vector(1.5, 1.0, 2, RngStream(42, 9), 1000)
    b = sample_stable_vector(1.5, 1.0, 2, RngStream(42, 9), 1000)
    np.testing.assert_array_equal(a, b)


def test_robust_mean_resists_heavy_tails():
    # 1/S has mean 4 for alpha = 1, t = 1 but infinite variance would break
    # a plain average's error bars; the median-of-means stays near 4
    s = sample_subordinator(1.0, 1.0, RngStream(3, 0), 500_000)
    est = robust_mean(1.0 / s)
    assert est == pytest.approx(4.0, rel=0.02)


@given(c=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_robust_mean_of_constant_is_the_constant(c):
    s = np.full(256, c)
    assert robust_mean(s) == pytest.approx(c, abs=1e-12)
    assert robust_mean(s, blocks=256) == pytest.approx(c, abs=1e-12)
    assert robust_mean(s, blocks=1) == np.mean(s)  # one block: the median of one mean is that mean
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
    s = np.asarray(vals)
    m = robust_mean(s, blocks=8)
    assert min(vals) - 1e-9 <= m <= max(vals) + 1e-9


def test_empirical_char_fn_is_bounded():
    x = sample_stable_vector(1.3, 1.0, 1, RngStream(1, 4), 10_000)[:, 0]
    for xi in (0.1, 1.0, 5.0):
        assert abs(empirical_char_fn(x, xi)) <= 1.0 + 1e-12
