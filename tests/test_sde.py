"""Euler-Maruyama engine tests: drift registry, moment checks against
closed forms, and worker determinism."""

import math

import numpy as np
import pytest

from stable_tv_lab.ou import transition_cf
from stable_tv_lab.rng import RngStream
from stable_tv_lab.sde import (
    BLOCK_SIZE,
    DriftField,
    EulerConfig,
    IntegrationError,
    advance,
    drift_registry,
    mc_semigroup,
    run_ensemble,
)
from stable_tv_lab.stable_sampling import sample_stable_vector, sample_subordinator_root


def test_registry_contents_and_errors():
    ou = drift_registry("ou")
    np.testing.assert_allclose(ou.b(np.array([[2.0]])), [[-2.0]])
    with pytest.raises(KeyError):
        drift_registry("nope")


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
        cfg=EulerConfig(dt=0.1),
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


HORIZONS = (1e-3, 0.02, 0.1)


def _by_horizon(ts, steps):
    return tuple(EulerConfig(dt=t / steps) for t in ts)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("driver", ["brownian", ("stable", 1.5)], ids=["brownian", "stable"])
def test_horizon_rows_match_single_horizon_runs(driver, d):
    # one ensemble for three horizons of 5 steps each, two start points per horizon
    x = np.array([[[0.1 * k] * d, [-0.2] * d] for k in range(len(HORIZONS))])
    h = np.cos if d == 1 else (lambda y: np.cos(y[..., 0] + 0.5 * y[..., 1]))
    args = (h, drift_registry("ou", d=d), driver)
    n, rng = 2 * BLOCK_SIZE + 5, RngStream(25, 0)
    est, se = mc_semigroup(*args, x, HORIZONS, n, rng, cfg=_by_horizon(HORIZONS, 5))
    assert est.shape == se.shape == (3, 2)
    for k, t in enumerate(HORIZONS):
        one_est, one_se = mc_semigroup(*args, x[k], t, n, rng, cfg=EulerConfig(dt=t / 5))
        np.testing.assert_array_equal(est[k], one_est)
        np.testing.assert_array_equal(se[k], one_se)


def test_horizon_form_ignores_the_worker_count():
    indicator = lambda y: (y <= 0.0).astype(float)
    args = (indicator, drift_registry("ou"), ("stable", 1.5), [[[0.05], [-0.05]]] * 3)
    kwargs = dict(t=HORIZONS, n=3 * BLOCK_SIZE + 17, rng=RngStream(26, 0), cfg=_by_horizon(HORIZONS, 4))
    runs = [mc_semigroup(*args, workers=w, **kwargs) for w in (1, 2, 3)]
    assert runs[0][0].shape == (3, 2)
    for est, se in runs[1:]:
        np.testing.assert_array_equal(est, runs[0][0])
        np.testing.assert_array_equal(se, runs[0][1])


def test_block_sums_match_the_endpoints():
    # mc_semigroup reduces each block to sums; on the same stream run_ensemble keeps the endpoints
    ou, cfg, driver = drift_registry("ou"), EulerConfig(dt=0.1), ("stable", 1.5)
    x, t, n, rng = [[0.2], [-0.1]], 0.5, 3 * BLOCK_SIZE + 17, RngStream(27, 0)
    ends = run_ensemble(ou, cfg, driver, x, t, n, rng)[..., 0]
    for h in (np.cos, lambda y: (y <= 0.0).astype(float)):
        est, se = mc_semigroup(h, ou, driver, x, t, n, rng, cfg=cfg)
        vals = h(ends)
        np.testing.assert_allclose(est, vals.mean(axis=-1), rtol=1e-13)
        np.testing.assert_allclose(se, vals.std(axis=-1, ddof=1) / np.sqrt(n), rtol=1e-10)
    np.testing.assert_array_equal(est, vals.mean(axis=-1))  # the indicator's sums are exact


def test_horizon_form_validation():
    ou, rng = drift_registry("ou"), RngStream(0, 0)
    for driver, t, cfg, x in [
        ("brownian", (0.1, 0.2), (EulerConfig(dt=0.1), EulerConfig(dt=0.1)), [0.0]),  # 1 and 2 steps
        ("brownian", (0.1, 0.2), _by_horizon((0.1, 0.2, 0.3), 2), [0.0]),  # lengths differ
        ("brownian", (0.1, 0.2), EulerConfig(dt=0.1), [0.0]),  # one config for two horizons
        ("brownian", (), (), [0.0]),
        ("brownian", (0.1, 0.0), (EulerConfig(dt=0.1), EulerConfig(dt=0.1)), [0.0]),
        (("stable", 1.5), (0.1, -0.2), (EulerConfig(dt=0.1), EulerConfig(dt=0.1)), [0.0]),
        ("brownian", (0.1, 0.2), _by_horizon((0.1, 0.2), 2), [[0.0], [1.0], [2.0]]),  # 3 rows of x
    ]:
        with pytest.raises(ValueError):
            mc_semigroup(np.cos, ou, driver, x, t, 16, rng, cfg=cfg)
    with pytest.raises(ValueError):  # the coupled driver takes one horizon
        run_ensemble(ou, _by_horizon((0.1, 0.2), 2), ("coupled", (1.5,)), [0.0], (0.1, 0.2), 16, rng)


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

    drift = DriftField(b=unit, d=1)
    for t, dt, n_steps, last in [(5.0, 0.01, 500, 0.01), (5.0, 0.03, 167, 0.02)]:
        times.clear()
        end = run_ensemble(drift, EulerConfig(dt=dt), "brownian", [0.0], t, 1, ZeroNoise())[0, 0]
        steps = np.diff(times + [end])
        assert len(times) == n_steps
        assert steps[-1] == pytest.approx(last, abs=1e-12)
        assert abs(end - t) < 1e-12


def _reference_blocks(b, cfg, driver, start, t, n, rng, sigma=None):
    """The endpoints of each block of n paths from start (run_ensemble's
    lead + (1, d) start state), in the plain expressions of a reference
    stepper: a fresh increments array every step, drawn from the lab's
    samplers on the block's substream, and x + b(x) h + sigma dl."""
    horizons = isinstance(t, tuple)
    ts, cfgs = (t, cfg) if horizons else ((t,), (cfg,))
    steps = math.ceil(ts[0] / cfgs[0].dt - 1e-9)
    d = start.shape[-1]
    blocks = []
    for i in range(0, n, BLOCK_SIZE):
        size, rng_i = min(BLOCK_SIZE, n - i), rng.substream(i // BLOCK_SIZE)
        x = np.broadcast_to(start, start.shape[:-2] + (size, d))
        x = x if driver[0] == "coupled" or horizons else x[None]
        rows = (len(x),) + (1,) * (x.ndim - 3)
        remaining = ts
        for _ in range(steps):
            hs = [min(c.dt, r) for c, r in zip(cfgs, remaining)]
            if driver[0] == "coupled":
                z = rng_i.normal((size, d))
                root = sample_subordinator_root(driver[1], hs[0], rng_i, size)
                dl = np.concatenate([root[..., None] * z, [np.sqrt(hs[0]) * z]])
            else:
                alpha = 2.0 if driver == "brownian" else driver[1]
                dl = sample_stable_vector(alpha, tuple(hs) if horizons else hs[0], d, rng_i, size)
            if sigma is not None:
                dl = dl @ sigma.T
            h = np.reshape(hs, rows[:1] + (1,) * (x.ndim - 1)) if horizons else hs[0]
            x = x + b(x.reshape(-1, d)).reshape(x.shape) * h + dl.reshape(rows + (size, d))
            remaining = [r - hk for r, hk in zip(remaining, hs)]
        blocks.append(x.reshape(start.shape[:-2] + (size, d)))
    return blocks


DRIFTS = {
    "ou": lambda x: -x,
    "identity": lambda x: x,  # returns its argument: scaling it in place would move the state
    "read-only-zero": lambda x: np.broadcast_to(0.0, x.shape),
}


@pytest.mark.parametrize("drift_name", list(DRIFTS))
@pytest.mark.parametrize("d, sigma", [(1, None), (1, [[2.0]]), (2, None), (2, [[0.0, 2.0], [-0.5, 0.0]])],
                         ids=["d1", "d1-sigma", "d2", "d2-sigma"])
@pytest.mark.parametrize(
    "driver, horizons",
    [("brownian", False), (("stable", 1.5), False), (("coupled", (1.5, 1.8, 1.9)), False),
     ("brownian", True), (("stable", 1.5), True)],
    ids=["brownian", "stable", "coupled-3-alpha", "brownian-3-horizons", "stable-3-horizons"],
)
def test_stepper_matches_a_reference_stepper(driver, horizons, d, sigma, drift_name):
    # the stepper's per-block workspaces change no bit of an ensemble, whatever b returns.
    # The noise enters with sigma = I; dX = b(X) dt + sigma dL is run as Y = sigma^-1 X, which
    # solves dY = sigma^-1 b(sigma Y) dt + dL.  Each sigma here permutes coordinates and scales
    # them by powers of 2, so the change of variables is exact and sigma Y matches bit for bit.
    b = DRIFTS[drift_name]
    to_x = to_y = lambda v: v
    if sigma is not None:
        sigma = np.asarray(sigma)
        sigma_inv = np.linalg.inv(sigma)
        to_x, to_y = (lambda v: v @ sigma.T), (lambda v: v @ sigma_inv.T)
        b = lambda y: to_y(DRIFTS[drift_name](to_x(y)))
    drift = DriftField(b=b, d=d)
    n, rng = BLOCK_SIZE + 5, RngStream(31, 0)
    if horizons:
        t = (0.05, 0.2, 0.5)
        cfg = tuple(EulerConfig(dt=tk / 4) for tk in t)
        x = 0.3 * np.arange(3 * 2 * d).reshape(3, 2, d) - 0.5
    else:
        t, cfg, x = 0.5, EulerConfig(dt=0.15), 0.5 * np.arange(2 * d).reshape(2, d) - 0.25
    lead = (len(driver[1]) + 1,) if driver[0] == "coupled" else ()
    start = np.broadcast_to(x[..., None, :], lead + x.shape[:-1] + (1, d))
    blocks = _reference_blocks(DRIFTS[drift_name], cfg, driver, start, t, n, rng, sigma)
    ends = run_ensemble(drift, cfg, driver, to_y(x), t, n, rng)
    np.testing.assert_array_equal(to_x(ends), np.concatenate(blocks, axis=-2))
    if driver[0] != "coupled":
        h = np.cos if d == 1 else (lambda y: np.cos(y[..., 0] + 0.5 * y[..., 1]))
        h_y = (lambda y: h(to_x(y[..., None])[..., 0])) if d == 1 else (lambda y: h(to_x(y)))
        est, _ = mc_semigroup(h_y, drift, driver, to_y(x), t, n, rng, cfg=cfg)
        want = sum(h(e[..., 0] if d == 1 else e).sum(axis=-1) for e in blocks) / n
        np.testing.assert_array_equal(est, want)


def test_explosive_drift_raises_integration_error():
    cubic = DriftField(b=lambda x: x**3, d=1)
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
    for driver in [("coupled", (1.5,)), ()]:  # a coupled ensemble has no single P_t h; () is no driver
        with pytest.raises(ValueError):
            mc_semigroup(np.cos, drift_registry("ou"), driver, [0.0], 1.0, 16, RngStream(0, 0),
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
