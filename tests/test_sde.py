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
    semigroup_cos,
)
from stable_tv_lab.sde import BLOCK_SIZE, IntegrationError


def test_registry_contents_and_errors():
    ou = drift_registry("ou")
    np.testing.assert_allclose(ou.b(np.array([[2.0]])), [[-2.0]])
    assert ou.theta0 == 1.0
    with pytest.raises(KeyError):
        drift_registry("nope")
    with pytest.raises(ValueError):
        drift_registry("custom-affine", A=[[1.0]])  # not dissipative


def test_custom_affine_constants():
    d = drift_registry("custom-affine", d=2, A=[[-2.0, 0.0], [0.0, -0.5]], c=[1.0, 0.0])
    assert d.theta0 == pytest.approx(0.5)
    np.testing.assert_allclose(d.b(np.array([[1.0, 1.0]])), [[-1.0, -0.5]])


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
    with pytest.raises(ValueError):
        EulerConfig(dt=-0.1)
    with pytest.raises(ValueError):
        EulerConfig(scheme="milstein")
    assert EulerConfig(dt=0.5).step_size(10.0) == 0.5
    assert EulerConfig().step_size(10.0) == pytest.approx(1e-3)


def test_brownian_ou_moments_match_closed_form():
    # dY = -Y dt + dB from 0: Var Y_t = (1 - e^{-2t}) / 2 (half-speed driver)
    t, n = 2.0, 60_000
    ens = run_ensemble(
        drift_registry("ou"), EulerConfig(dt=1e-3, scheme="brownian"), "brownian", [0.0], t, n, RngStream(8, 0)
    )
    target = (1.0 - np.exp(-2.0 * t)) / 2.0
    assert np.mean(ens.endpoints) == pytest.approx(0.0, abs=4 * np.sqrt(target / n))
    assert np.var(ens.endpoints) == pytest.approx(target, rel=0.03)


def test_worker_count_never_changes_the_ensemble():
    kwargs = dict(
        drift=drift_registry("ou"),
        cfg=EulerConfig(dt=0.01, scheme="subordinated"),
        driver=("stable", 1.5),
        x0=[0.0],
        t=0.5,
        n=3 * BLOCK_SIZE + 17,
        rng=RngStream(21, 0),
    )
    single = run_ensemble(workers=1, **kwargs)
    parallel = run_ensemble(workers=4, **kwargs)
    np.testing.assert_array_equal(single.endpoints, parallel.endpoints)


def test_direct_and_subordinated_schemes_agree_in_law():
    # same driver law, different factorizations: empirical CFs must agree
    alpha, t, n = 1.5, 1.0, 80_000
    drift = drift_registry("zero")
    a = run_ensemble(drift, EulerConfig(dt=0.1, scheme="direct-stable"), ("stable", alpha), [0.0], t, n, RngStream(4, 0))
    b = run_ensemble(drift, EulerConfig(dt=0.1, scheme="subordinated"), ("stable", alpha), [0.0], t, n, RngStream(4, 1))
    for xi in (0.5, 1.0, 2.0):
        ca = np.mean(np.cos(xi * a.endpoints[:, 0]))
        cb = np.mean(np.cos(xi * b.endpoints[:, 0]))
        assert abs(ca - cb) < 4.0 / np.sqrt(n)
        # and both match the exact driver CF (zero drift => exact law)
        assert abs(ca - np.exp(-t * xi**alpha / 2.0)) < 4.0 / np.sqrt(n)


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
        ens = run_ensemble(drift, EulerConfig(dt=dt, scheme="brownian"), "brownian", [0.0], t, 1, ZeroNoise())
        steps = np.diff(times + [ens.endpoints[0, 0]])
        assert len(times) == n_steps
        assert steps[-1] == pytest.approx(last, abs=1e-12)
        assert abs(ens.endpoints[0, 0] - t) < 1e-12


@pytest.mark.parametrize("driver", ["brownian", ("stable", 1.5), ("coupled", 1.5)])
def test_sigma_scales_every_driver(driver):
    # zero drift, sigma = 2: Brownian endpoints N(0, 4t), stable CF exp(-t |2 xi|^alpha / 2)
    t, n = 1.0, 40_000
    cfg = EulerConfig(dt=0.1, scheme="brownian" if driver == "brownian" else "subordinated", sigma=[[2.0]])
    ens = run_ensemble(drift_registry("zero"), cfg, driver, [0.0], t, n, RngStream(30, 0))
    coupled = driver[0] == "coupled"
    paths = ens.endpoints[..., 0] if coupled else [ens.endpoints[:, 0]]
    if driver != "brownian":
        alpha = driver[1]
        for xi in (0.5, 1.0):
            cf = np.mean(np.cos(xi * paths[0]))
            assert abs(cf - np.exp(-t * (2.0 * xi) ** alpha / 2.0)) < 4.0 / np.sqrt(n)
    if driver == "brownian" or coupled:
        assert np.var(paths[-1]) == pytest.approx(4.0 * t, rel=0.03)


def test_explosive_drift_raises_integration_error():
    cubic = DriftField(b=lambda x: x**3, d=1, theta0=0.0, name="cubic")
    with pytest.raises(IntegrationError):
        run_ensemble(cubic, EulerConfig(dt=1.0, scheme="brownian"), "brownian", [5.0], 30.0, 64, RngStream(0, 0))


def test_driver_parsing_rejects_bad_alpha():
    for cfg, driver, t in [
        (EulerConfig(), ("stable", 2.5), 1.0),
        (EulerConfig(), ("coupled", 1.0), 1.0),
        (EulerConfig(), "poisson", 1.0),
        (EulerConfig(scheme="brownian"), ("stable", 1.5), 1.0),  # would silently subordinate
        (EulerConfig(scheme="brownian"), ("coupled", 1.5), 1.0),
        (EulerConfig(), "brownian", 0.0),  # would silently return x0
        (EulerConfig(), "brownian", -1.0),
    ]:
        with pytest.raises(ValueError):
            run_ensemble(drift_registry("ou"), cfg, driver, [0.0], t, 16, RngStream(0, 0))
    with pytest.raises(ValueError):  # a coupled ensemble has no single P_t h
        mc_semigroup(np.cos, drift_registry("ou"), ("coupled", 1.5), [0.0], 1.0, 16, RngStream(0, 0))


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
        cfg=EulerConfig(dt=0.01, scheme="subordinated"),
    )
    exact = semigroup_cos(alpha, x, t)
    assert abs(est - exact) < 4.0 * se + 0.01  # MC band + O(dt) drift bias
