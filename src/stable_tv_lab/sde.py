"""Euler-Maruyama engine for the Brownian and stable SDEs.

    dX_t = b(X_t) dt + sigma dL_t      (stable driver, 1 < alpha < 2)
    dY_t = b(Y_t) dt + sigma dB_t      (Brownian driver)

One stepper, advance, integrates every path the lab simulates: the
ensembles of run_ensemble (and so mc_semigroup and the campaigns), the
coupled driver ('coupled', alpha), which moves a stable and a Brownian
path on shared Gaussians, and the shared state of the Monte Carlo Poisson
engine.  The driver alone picks the increments, exact in law at every
step: stable_sampling's one symmetric-stable sampler, sample_stable_vector,
gives sqrt(h) z for Brownian motion and the subordinated sqrt(S) z, with
S the alpha/2-stable subordinator, for the stable driver in every d; the
coupled driver draws z and S itself, since its Brownian path needs z.  The
only discretization error is in the drift term, which keeps the
alpha -> 2 comparison clean.  EulerConfig holds the step dt and the
diffusion matrix sigma, nothing else.  Paths are simulated in fixed-size
blocks with per-block substreams, so ensembles are bit-identical
regardless of the worker count; campaigns pass their `workers` setting
through.  Several start points given at once move on one set of
increments per block (common random numbers), each exactly as it would
alone.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from stable_tv_lab.rng import RngStream
from stable_tv_lab.stable_sampling import sample_stable_vector, sample_subordinator

BLOCK_SIZE = 4096  # paths per substream block; fixed so workers never matter


class IntegrationError(RuntimeError):
    """Path became non-finite (drift explosion under too-large dt)."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


@dataclass(frozen=True)
class DriftField:
    """Drift b with its declared dissipativity/smoothness constants.

    The constants are claims, verified by probe_h1/probe_h2, not trusted.
    b must be vectorized: (n, d) -> (n, d).
    """

    b: Callable[[np.ndarray], np.ndarray]
    d: int
    theta0: float
    theta1: float = 0.0
    theta2: float = 0.0
    K: float = 0.0
    name: str = "custom"


def drift_registry(name: str, d: int = 1) -> DriftField:
    """Built-in drifts: ou, zero."""
    if name == "ou":
        return DriftField(b=lambda x: -x, d=d, theta0=1.0, theta1=1.0, name="ou")
    if name == "zero":
        return DriftField(b=lambda x: np.zeros_like(x), d=d, theta0=0.0, name="zero")
    raise KeyError(f"unknown drift {name!r}")


@dataclass(frozen=True)
class EulerConfig:
    dt: float | None = None
    sigma: np.ndarray | None = None

    def __post_init__(self):
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.sigma is not None:
            sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
            if not np.isfinite(np.linalg.cond(sigma)):
                raise ValueError("sigma must be invertible")
            object.__setattr__(self, "sigma", sigma)

    def step_size(self, t: float) -> float:
        return self.dt if self.dt is not None else min(1e-3, t / 100.0)


def probe_h1(drift: DriftField, pairs) -> float:
    """Worst dissipativity margin over probe pairs.

    Returns max over (x, y) of <x-y, b(x)-b(y)> + theta0 |x-y|^2 - K;
    non-positive means the declared (theta0, K) hold on the probe set.
    """
    if len(pairs) == 0:
        raise ValueError("need at least one probe pair")
    worst = -np.inf
    for x, y in pairs:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if x.shape != y.shape or x.shape[0] != drift.d:
            raise ValueError("probe pair dimension mismatch")
        bx = drift.b(x[None, :])[0]
        by = drift.b(y[None, :])[0]
        margin = float(np.dot(x - y, bx - by) + drift.theta0 * np.sum((x - y) ** 2) - drift.K)
        worst = max(worst, margin)
    return worst


def probe_h2(drift: DriftField, points, fd_step: float = 1e-5, rng: RngStream | None = None):
    """Finite-difference estimates of the derivative bounds (theta1, theta2).

    Central differences along random unit directions; returns the observed
    suprema of |D_v b| / |v| and |D_w D_v b| / (|v||w|) over the probe set.
    """
    if fd_step <= 0.0:
        raise ValueError("fd_step must be positive")
    rng = rng or RngStream(0xD1F, 0)
    d = drift.d
    dirs = [np.eye(d)[i] for i in range(d)]
    extra = rng.normal((8, d))
    dirs += [v / np.linalg.norm(v) for v in extra]
    h = fd_step
    theta1_hat = 0.0
    theta2_hat = 0.0
    for x in points:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        for v in dirs:
            dv = (drift.b((x + h * v)[None]) - drift.b((x - h * v)[None]))[0] / (2 * h)
            theta1_hat = max(theta1_hat, float(np.linalg.norm(dv)))
            for w in dirs[: min(len(dirs), d + 2)]:
                dvw = (
                    drift.b((x + h * v + h * w)[None])
                    - drift.b((x + h * v - h * w)[None])
                    - drift.b((x - h * v + h * w)[None])
                    + drift.b((x - h * v - h * w)[None])
                )[0] / (4 * h * h)
                theta2_hat = max(theta2_hat, float(np.linalg.norm(dvw)))
    return theta1_hat, theta2_hat


def _check_run(driver, t: float):
    """Validate one Euler run; 'brownian', ('stable', alpha) or ('coupled', alpha) -> (kind, alpha)."""
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if driver == "brownian":
        return "brownian", 2.0
    if isinstance(driver, (tuple, list)) and len(driver) == 2 and driver[0] in ("stable", "coupled"):
        alpha = float(driver[1])
        if not 1.0 < alpha < 2.0:
            raise ValueError(f"{driver[0]} driver needs alpha in (1, 2), got {alpha}")
        return driver[0], alpha
    raise ValueError(f"driver must be 'brownian', ('stable', alpha) or ('coupled', alpha), got {driver!r}")


def _increments(kind: str, alpha: float, h: float, n: int, d: int, rng: RngStream):
    """Exact-in-law driver increments over one step of size h, one (n, d) array per path."""
    if kind != "coupled":  # alpha = 2 for Brownian motion
        return [sample_stable_vector(alpha, h, d, rng, n)]
    # coupled: the Gaussians first, then the subordinator; z also drives the Brownian path
    z = rng.normal((n, d))
    s = sample_subordinator(alpha, h, rng, n)
    return [np.sqrt(s)[:, None] * z, np.sqrt(h) * z]


def advance(state: np.ndarray, t: float, drift: DriftField, driver, cfg: EulerConfig, rng: RngStream) -> None:
    """Advance paths in place by time t with Euler-Maruyama.

    state is (..., n, d), or (2, ..., n, d) for ('coupled', alpha): a
    stable path and a Brownian path on shared Gaussians z, with increments
    sqrt(S) z and sqrt(h) z.  Each
    step draws one (n, d) increment per driver and adds it to every index
    of the leading axes, so m start points stacked as (m, n, d) share their
    draws; drift.b sees the (-1, d) rows.  It takes
    ceil(t/dt - 1e-9) steps of dt = cfg.step_size(t), the last of them cut
    to what remains of t, so the horizon is t: a remainder of at most 1e-9
    of a step is round-off and takes no step of its own.  Raises
    IntegrationError when a state becomes non-finite.
    """
    kind, alpha = _check_run(driver, t)
    dt = cfg.step_size(t)
    paths = state if kind == "coupled" else state[None]
    n, d = state.shape[-2:]
    remaining = t
    for step in range(math.ceil(t / dt - 1e-9)):
        h = min(dt, remaining)
        for x, dl in zip(paths, _increments(kind, alpha, h, n, d, rng)):
            if cfg.sigma is not None:
                dl = dl @ cfg.sigma.T
            x += drift.b(x.reshape(-1, d)).reshape(x.shape) * h
            x += dl
        if not np.isfinite(state).all():
            raise IntegrationError(step)
        remaining -= h


def run_ensemble(
    drift: DriftField,
    cfg: EulerConfig,
    driver,
    x0,
    t: float,
    n: int,
    rng: RngStream,
    workers: int = 1,
) -> np.ndarray:
    """The endpoints of n independent paths; independent of the worker count.

    x0 is one start point, shape (d,), or m of them, shape (m, d); the
    endpoints are (n, d) or (m, n, d), with a leading axis of 2 (stable,
    then Brownian) for a coupled driver.  The m start points move on one
    set of driver increments, so row j equals, bit for bit, the run from
    x0[j] alone on the same stream.  Work is partitioned into fixed
    BLOCK_SIZE blocks, block i drawing from rng.substream(i); blocks are
    concatenated in index order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    kind, _ = _check_run(driver, t)
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    sizes = [min(BLOCK_SIZE, n - i * BLOCK_SIZE) for i in range(n_blocks)]
    start = np.atleast_1d(np.asarray(x0, dtype=float))
    if start.ndim > 2:
        raise ValueError(f"x0 must have shape (d,) or (m, d), got {start.shape}")
    start = np.broadcast_to(start, start.shape[:-1] + (drift.d,))[..., None, :]
    lead = ((2,) if kind == "coupled" else ()) + start.shape[:-2]

    def job(i):
        state = np.broadcast_to(start, lead + (sizes[i], drift.d)).copy()
        advance(state, t, drift, driver, cfg, rng.substream(i))
        return state

    if workers > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(job, range(n_blocks)))
    else:
        blocks = [job(i) for i in range(n_blocks)]
    return np.concatenate(blocks, axis=-2)


def mc_semigroup(h, drift, driver, x, t, n, rng, cfg: EulerConfig | None = None, workers: int = 1):
    """Monte Carlo estimate of P_t h(x) (or Q_t h(x)) with its std error.

    x is one start point, shape (d,), giving floats (est, se), or m start
    points, shape (m, d), giving length-m arrays on common random numbers
    (see run_ensemble).  h gets the endpoints with the d axis dropped when
    d = 1, so it must be vectorized over the leading axes.
    """
    if isinstance(driver, (tuple, list)) and driver[0] == "coupled":
        raise ValueError("mc_semigroup needs a single driver, not a coupled one")
    ends = run_ensemble(drift, cfg or EulerConfig(), driver, x, t, n, rng, workers=workers)
    vals = np.asarray(h(ends[..., 0] if drift.d == 1 else ends), dtype=float)
    est = np.mean(vals, axis=-1)
    se = np.std(vals, axis=-1, ddof=1) / np.sqrt(n) if n > 1 else np.full(est.shape, np.inf)
    if ends.ndim == 2:
        return float(est), float(se)
    return est, se
