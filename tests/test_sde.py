"""Euler-Maruyama engine tests: drift registry, hypothesis probes,
moment checks against closed forms, and worker determinism."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stable_tv_lab import (
    DriftField,
    EulerConfig,
    RngStream,
    drift_registry,
    mc_semigroup,
    probe_h1,
    probe_h2,
    run_ensemble,
    sample_stable_vector,
    transition_cf,
)
from stable_tv_lab.sde import BLOCK_SIZE, IntegrationError


def test_registry_contents_and_errors():
    ou = drift_registry("ou")
    np.testing.assert_allclose(ou.b(np.array([[2.0]])), [[-2.0]])
    assert ou.theta0 == 1.0
    with pytest.raises(KeyError):
        drift_registry("nope")


@given(
    x=st.floats(min_value=-50, max_value=50),
    y=st.floats(min_value=-50, max_value=50),
)
def test_probe_h1_holds_for_ou(x, y):
    # <x - y, b(x) - b(y)> = -|x - y|^2, so the margin with theta0 = 1 is 0
    margin = probe_h1(drift_registry("ou"), [([x], [y])])
    assert margin <= 1e-9


def test_probe_h1_detects_a_false_claim():
    bad = DriftField(b=lambda x: x, d=1, theta0=1.0, name="anti-dissipative")
    assert probe_h1(bad, [([1.0], [0.0])]) > 0.0


def test_probe_h2_recovers_ou_derivative_bounds():
    t1, t2 = probe_h2(drift_registry("ou"), [np.zeros(1), np.ones(1)])
    assert t1 == pytest.approx(1.0, abs=1e-6)
    assert t2 == pytest.approx(0.0, abs=1e-3)


def test_euler_config_validation():
    for dt in (-0.1, 0.0, float("nan")):
        with pytest.raises(ValueError):
            EulerConfig(dt=dt)
    with pytest.raises(TypeError):  # dt is required: there is no default step
        EulerConfig()
    assert EulerConfig(dt=0.5).step_size(10.0) == 0.5


def test_brownian_ou_moments_match_closed_form():
    # dY = -Y dt + dB from 0: Var Y_t = (1 - e^{-2t}) / 2 (half-speed driver)
    t, n = 2.0, 60_000
    ends = run_ensemble(
        drift_registry("ou"), EulerConfig(dt=1e-3), "brownian", [0.0], t, n, RngStream(8, 0)
    )
    target = (1.0 - np.exp(-2.0 * t)) / 2.0
    assert np.mean(ends) == pytest.approx(0.0, abs=4 * np.sqrt(target / n))
    assert np.var(ends) == pytest.approx(target, rel=0.03)


def test_worker_count_never_changes_the_ensemble():
    for driver in [("stable", 1.5), ("coupled", (1.5, 1.8, 1.9))]:
        kwargs = dict(
            drift=drift_registry("ou"),
            cfg=EulerConfig(dt=0.01),
            driver=driver,
            x0=[0.0],
            t=0.5,
            n=3 * BLOCK_SIZE + 17,
            rng=RngStream(21, 0),
        )
        single = run_ensemble(workers=1, **kwargs)
        parallel = run_ensemble(workers=4, **kwargs)
        np.testing.assert_array_equal(single, parallel)


@pytest.mark.parametrize(
    "driver",
    ["brownian", ("stable", 1.5), ("coupled", (1.5,)), ("coupled", (1.5, 1.8, 1.9))],
    ids=["brownian", "stable-subordinated", "coupled", "coupled-3-alpha"],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_start_points_share_draws_and_match_single_runs(driver, workers):
    x0 = np.array([[0.5], [-0.5], [2.0]])
    kwargs = dict(
        drift=drift_registry("ou"),
        cfg=EulerConfig(dt=0.1, sigma=[[2.0]]),
        driver=driver,
        t=0.3,
        n=2 * BLOCK_SIZE + 5,
        rng=RngStream(22, 0),
        workers=workers,
    )
    many = run_ensemble(x0=x0, **kwargs)
    lead = (len(driver[1]) + 1,) if driver[0] == "coupled" else ()
    assert many.shape == lead + (3, kwargs["n"], 1)
    for j, start in enumerate(x0):
        one = run_ensemble(x0=start, **kwargs)
        np.testing.assert_array_equal(many[..., j, :, :], one)


def test_coupled_rows_match_single_alpha_runs():
    # one coupled ensemble of three alpha: each stable row is the coupled run of its alpha
    # alone on the same stream, and the Brownian row is that of every such run
    alphas = (1.5, 1.8, 1.9)
    kwargs = dict(
        drift=drift_registry("ou"),
        cfg=EulerConfig(dt=0.05),
        x0=[0.0],
        t=0.5,
        n=BLOCK_SIZE + 7,
        rng=RngStream(24, 0),
    )
    many = run_ensemble(driver=("coupled", alphas), **kwargs)
    assert many.shape == (4, kwargs["n"], 1)
    for j, alpha in enumerate(alphas):
        stable, brownian = run_ensemble(driver=("coupled", (alpha,)), **kwargs)
        np.testing.assert_array_equal(many[j], stable)
        np.testing.assert_array_equal(many[-1], brownian)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize(
    "driver, alpha", [("brownian", 2.0), (("stable", 1.5), 1.5)], ids=["brownian", "stable"]
)
def test_stepper_draws_from_the_one_stable_sampler(driver, alpha, d):
    # zero drift and one step from 0: each endpoint block is one sampler call on its substream
    t, n, rng = 0.7, 2 * BLOCK_SIZE + 5, RngStream(23, 0)
    ends = run_ensemble(drift_registry("zero", d=d), EulerConfig(dt=t), driver, np.zeros(d), t, n, rng)
    sizes = [BLOCK_SIZE, BLOCK_SIZE, 5]
    want = np.concatenate(
        [sample_stable_vector(alpha, t, d, rng.substream(i), m) for i, m in enumerate(sizes)]
    )
    np.testing.assert_array_equal(ends, want)


def test_start_points_must_broadcast_to_d_or_m_by_d():
    ou2 = drift_registry("ou", d=2)
    for drift, x0 in [
        (drift_registry("ou"), [0.0, 1.0]),
        (ou2, [0.0, 1.0, 2.0]),
        (ou2, [[0.0, 1.0, 2.0]]),
        (ou2, np.zeros((2, 1, 2))),
    ]:
        with pytest.raises(ValueError):
            run_ensemble(drift, EulerConfig(dt=0.1), "brownian", x0, 0.1, 16, RngStream(0, 0))


def test_mc_semigroup_returns_floats_for_one_start_and_arrays_for_many():
    args = (np.cos, drift_registry("ou"), ("stable", 1.5))
    kwargs = dict(t=0.2, n=1000, cfg=EulerConfig(dt=0.05))
    est, se = mc_semigroup(*args, x=[0.3], rng=RngStream(9, 0), **kwargs)
    assert isinstance(est, float) and isinstance(se, float)
    ests, ses = mc_semigroup(*args, x=[[0.3], [-0.3]], rng=RngStream(9, 0), **kwargs)
    assert ests.shape == ses.shape == (2,)
    assert ests[0] == est and ses[0] == se


@pytest.mark.parametrize(
    "d, xis",
    [(1, [[0.5], [1.0], [2.0]]), (2, [[1.0, 0.0], [0.6, 0.8]])],
    ids=["d1", "d2"],
)
def test_stable_euler_matches_the_driver_cf(d, xis):
    # zero drift: the endpoint is the driver at t, CF exp(-t |xi|^alpha / 2) in every d
    alpha, t, n = 1.5, 1.0, 80_000
    ends = run_ensemble(drift_registry("zero", d=d), EulerConfig(dt=0.1), ("stable", alpha), np.zeros(d), t, n,
                        RngStream(4, 0))
    assert ends.shape == (n, d)
    for xi in np.asarray(xis):
        cf = np.mean(np.cos(ends @ xi))
        assert abs(cf - np.exp(-t * np.linalg.norm(xi) ** alpha / 2.0)) < 4.0 / np.sqrt(n)


def test_steps_land_exactly_on_the_horizon():
    # unit drift and zero noise: the path records the time of every step
    class ZeroNoise:
        root_seed = stream_index = 0

        def substream(self, index):
            return self

        def normal(self, size):
            return np.zeros(size)

    times = []

    def unit(x):
        times.append(float(x[0, 0]))
        return np.ones_like(x)

    drift = DriftField(b=unit, d=1, theta0=0.0, name="unit")
    for t, dt, n_steps, last in [(5.0, 0.01, 500, 0.01), (5.0, 0.03, 167, 0.02)]:
        times.clear()
        end = run_ensemble(drift, EulerConfig(dt=dt), "brownian", [0.0], t, 1, ZeroNoise())[0, 0]
        steps = np.diff(times + [end])
        assert len(times) == n_steps
        assert steps[-1] == pytest.approx(last, abs=1e-12)
        assert abs(end - t) < 1e-12


@pytest.mark.parametrize("driver", ["brownian", ("stable", 1.5), ("coupled", (1.5,))])
def test_sigma_scales_every_driver(driver):
    # zero drift, sigma = 2: Brownian endpoints N(0, 4t), stable CF exp(-t |2 xi|^alpha / 2)
    t, n = 1.0, 40_000
    cfg = EulerConfig(dt=0.1, sigma=[[2.0]])
    ends = run_ensemble(drift_registry("zero"), cfg, driver, [0.0], t, n, RngStream(30, 0))
    coupled = driver[0] == "coupled"
    paths = ends[..., 0] if coupled else [ends[:, 0]]
    if driver != "brownian":
        alpha = driver[1][0] if coupled else driver[1]
        for xi in (0.5, 1.0):
            cf = np.mean(np.cos(xi * paths[0]))
            assert abs(cf - np.exp(-t * (2.0 * xi) ** alpha / 2.0)) < 4.0 / np.sqrt(n)
    if driver == "brownian" or coupled:
        assert np.var(paths[-1]) == pytest.approx(4.0 * t, rel=0.03)


def test_explosive_drift_raises_integration_error():
    cubic = DriftField(b=lambda x: x**3, d=1, theta0=0.0, name="cubic")
    with pytest.raises(IntegrationError):
        run_ensemble(cubic, EulerConfig(dt=1.0), "brownian", [5.0], 30.0, 64, RngStream(0, 0))


def test_driver_parsing_rejects_bad_alpha():
    for driver, t in [
        (("stable", 2.5), 1.0),
        (("coupled", (1.0,)), 1.0),
        (("coupled", (1.5, 2.0)), 1.0),
        (("coupled", ()), 1.0),
        (("coupled", 1.5), 1.0),  # the coupled driver takes a tuple of alpha
        ("poisson", 1.0),
        ("brownian", 0.0),  # would silently return x0
        ("brownian", -1.0),
    ]:
        with pytest.raises(ValueError):
            run_ensemble(drift_registry("ou"), EulerConfig(dt=0.1), driver, [0.0], t, 16, RngStream(0, 0))
    with pytest.raises(ValueError):  # a coupled ensemble has no single P_t h
        mc_semigroup(np.cos, drift_registry("ou"), ("coupled", (1.5,)), [0.0], 1.0, 16, RngStream(0, 0),
                     cfg=EulerConfig(dt=0.1))


def test_mc_semigroup_matches_cosine_closed_form():
    alpha, x, t, n = 1.5, 0.3, 1.0, 200_000
    est, se = mc_semigroup(
        np.cos,
        drift_registry("ou"),
        ("stable", alpha),
        [x],
        t,
        n,
        RngStream(12, 0),
        cfg=EulerConfig(dt=0.01),
    )
    exact = transition_cf(alpha, 1.0, x, t).real  # P_t cos(x)
    assert abs(est - exact) < 4.0 * se + 0.01  # MC band + O(dt) drift bias
