"""Euler-Maruyama engine for the Brownian and stable SDEs.

    dX_t = b(X_t) dt + dL_t      (stable driver, 1 < alpha < 2)
    dY_t = b(Y_t) dt + dB_t      (Brownian driver)

One stepper, advance, integrates every path the lab simulates, in
blocks run by one private block runner for both run_ensemble (endpoints)
and mc_semigroup (per-block sums of h), and so for the campaigns.  The
driver alone picks the increments, exact in law at every step:
stable_sampling's one symmetric-stable sampler, sample_stable_vector,
gives sqrt(h) z for Brownian motion and the subordinated
h^{1/alpha} sqrt(S_1) z, with S_1 the alpha/2-stable subordinator at unit
time, for the stable driver in every d.  The coupled driver
('coupled', (alpha_1, ..., alpha_k)) moves k stable paths and one Brownian
path on shared draws: it draws z and the k roots sqrt(S_j) itself, all k
from one sample_subordinator_root call on one Kanter draw, since its
Brownian path needs z; its stable path j moves by sqrt(S_j) z and its
Brownian path by sqrt(h) z, each exact in law, so one alpha's path is the
same whichever other alpha run beside it (common random numbers across
alpha).  Likewise a tuple of
m horizons, each with its own EulerConfig and all with the same step
count, moves on one unit draw per step scaled to each horizon's step, so
each horizon's paths are those of its run alone (common random numbers
across t).  Each call of advance moves one block of paths through
workspaces allocated once for the block, the drift term and the
increments, so its steps allocate little beyond drift.b's output.  The
only discretization error is in the drift term, which keeps the
alpha -> 2 comparison clean.  The noise enters with sigma = I, and
EulerConfig holds the step dt alone, which has no default.
Paths are simulated in fixed-size blocks with per-block substreams, so
results are bit-identical regardless of the worker count; campaigns pass
their `workers` setting through.  Several start points given at once
move on one set of increments per block (common random numbers), each
exactly as it would alone.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from stable_tv_lab.rng import RngStream
from stable_tv_lab.stable_sampling import sample_stable_vector, sample_subordinator_root

BLOCK_SIZE = 4096  # paths per substream block; fixed so workers never matter


class IntegrationError(RuntimeError):
    """Path became non-finite (drift explosion under too-large dt)."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


@dataclass(frozen=True)
class DriftField:
    """Drift b on R^d; b must be vectorized: (n, d) -> (n, d)."""

    b: Callable[[np.ndarray], np.ndarray]
    d: int


def drift_registry(name: str, d: int = 1) -> DriftField:
    """Built-in drifts: ou, zero."""
    if name == "ou":
        return DriftField(b=lambda x: -x, d=d)
    if name == "zero":
        return DriftField(b=lambda x: np.zeros_like(x), d=d)
    raise KeyError(f"unknown drift {name!r}")


@dataclass(frozen=True)
class EulerConfig:
    """The Euler step dt of a run; it has no default."""

    dt: float

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    def step_size(self, t: float) -> float:
        """The step over a horizon t: dt, whatever t."""
        return self.dt


def _check_driver(driver):
    """Validate a driver -> (kind, alpha): 'brownian' gives alpha 2.0,
    ('stable', alpha) a float and ('coupled', (alpha_1, ..., alpha_k)) a tuple."""
    if driver == "brownian":
        return "brownian", 2.0
    kind, alpha = driver if isinstance(driver, (tuple, list)) and len(driver) == 2 else (None, None)
    if kind == "stable":
        alphas = (float(alpha),)
    elif kind == "coupled" and isinstance(alpha, (tuple, list)) and alpha:
        alphas = tuple(float(a) for a in alpha)
    else:
        raise ValueError(
            "driver must be 'brownian', ('stable', alpha) or ('coupled', (alpha_1, ..., alpha_k)), "
            f"got {driver!r}"
        )
    for a in alphas:
        if not 1.0 < a < 2.0:
            raise ValueError(f"{kind} driver needs alpha in (1, 2), got {a}")
    return kind, alphas if kind == "coupled" else alphas[0]


def _check_horizons(kind: str, t, cfg):
    """Validate the horizons of an Euler run -> (ts, cfgs, steps).

    t is one horizon with one EulerConfig, or a tuple of m horizons with m
    configs that take the same number of steps; ts and cfgs are tuples
    either way.  The coupled driver takes one horizon.
    """
    if not isinstance(t, tuple):
        ts, cfgs = (t,), (cfg,)
    elif kind == "coupled":
        raise ValueError("the coupled driver takes one horizon t, not a tuple")
    elif not t or not isinstance(cfg, (tuple, list)) or len(cfg) != len(t):
        raise ValueError(f"a tuple of horizons needs one EulerConfig per horizon, got t={t!r}")
    else:
        ts, cfgs = t, tuple(cfg)
    for tk in ts:
        if not tk > 0.0:
            raise ValueError(f"t must be positive, got {tk}")
    steps = {math.ceil(tk / c.dt - 1e-9) for tk, c in zip(ts, cfgs)}
    if len(steps) > 1:
        raise ValueError(f"horizons must take the same number of steps, got {sorted(steps)}")
    return ts, cfgs, steps.pop()


def _increments(kind: str, alpha, h, rng: RngStream, out: np.ndarray) -> None:
    """Exact-in-law driver increments over one step of size h, or of the m sizes
    of a tuple h, written to out, shape (paths, n, d)."""
    n, d = out.shape[1:]
    if kind != "coupled":  # alpha = 2 for Brownian motion
        sample_stable_vector(alpha, h, d, rng, n, out=out if isinstance(h, tuple) else out[0])
        return
    # coupled: the Gaussians first, then one root sqrt(S_j) per alpha; z also drives the Brownian path
    z = rng.normal((n, d))
    root = sample_subordinator_root(alpha, h, rng, n)
    np.multiply(root[..., None], z, out=out[:-1])
    np.multiply(np.sqrt(h), z, out=out[-1])


def advance(state: np.ndarray, t, drift: DriftField, driver, cfg, rng: RngStream) -> None:
    """Advance paths in place by time t with Euler-Maruyama.

    state is (..., n, d), or (k + 1, ..., n, d) for
    ('coupled', (alpha_1, ..., alpha_k)): k stable paths and a Brownian
    path, last, on shared Gaussians z, with increments sqrt(S_j) z and
    sqrt(h) z, the S_j from one Kanter draw.  Each step draws one (n, d)
    increment per path and adds it to every index of the axes between, so
    m start points stacked as (m, n, d) share their draws; drift.b sees the
    (-1, d) rows.  It takes ceil(t/dt - 1e-9) steps of cfg.dt, the last of
    them cut to what remains of t, so the horizon is t: a remainder of at
    most 1e-9 of a step is round-off and takes no step of its own.

    t may also be a tuple of m horizons, with cfg a tuple of m configs that
    take the same number of steps; state is then (m, ..., n, d), row k
    moving by its own step h_k = min(dt_k, remaining_k).  Each step draws
    one unit increment and scales it to every h_k (h_k^{1/alpha} in law),
    so row k equals, bit for bit, the run of (t_k, cfg_k) alone on the same
    stream: common random numbers across t.

    The drift term and the increments go into workspaces allocated once per
    call, so a step allocates little beyond what drift.b returns.  drift.b's
    output is read, never written: b may return its argument or a read-only
    view.  Raises IntegrationError when a state becomes non-finite.
    """
    kind, alpha = _check_driver(driver)
    ts, cfgs, steps = _check_horizons(kind, t, cfg)
    horizons = isinstance(t, tuple)
    paths = state if kind == "coupled" or horizons else state[None]
    n, d = state.shape[-2:]
    between = (1,) * (paths.ndim - 3)  # the start-point axes, which share each increment
    # workspaces for the whole block: the drift term and the increments
    drift_term = np.empty_like(paths)
    dl = np.empty(paths.shape[:1] + (n, d))
    remaining = ts
    for step in range(steps):
        hs = tuple(min(c.dt, r) for c, r in zip(cfgs, remaining))
        _increments(kind, alpha, hs if horizons else hs[0], rng, dl)
        h = np.reshape(hs, (-1,) + between + (1, 1)) if horizons else hs[0]
        # a new product, never b's output scaled in place: b may return its argument or a read-only view
        paths += np.multiply(drift.b(paths.reshape(-1, d)).reshape(paths.shape), h, out=drift_term)
        paths += dl.reshape(dl.shape[:1] + between + (n, d))
        if not np.isfinite(state).all():
            raise IntegrationError(step)
        remaining = tuple(r - hk for r, hk in zip(remaining, hs))


def _start_points(drift: DriftField, driver, x0, t, cfg) -> np.ndarray:
    """The validated start state of a run, shape lead + (1, d), with the
    rows of the coupled driver or of a tuple of horizons leading."""
    kind, alpha = _check_driver(driver)
    ts = _check_horizons(kind, t, cfg)[0]
    start = np.atleast_1d(np.asarray(x0, dtype=float))
    if isinstance(t, tuple):
        if start.ndim == 1:  # one start point for every horizon
            start = np.broadcast_to(start, (len(ts),) + start.shape)
        if start.ndim > 3 or start.shape[0] != len(ts):
            raise ValueError(
                f"x must have shape (d,), (m, d) or (m, p, d) for m = {len(ts)} horizons, got {start.shape}"
            )
    elif start.ndim > 2:
        raise ValueError(f"x0 must have shape (d,) or (m, d), got {start.shape}")
    start = np.broadcast_to(start, start.shape[:-1] + (drift.d,))[..., None, :]
    if kind == "coupled":
        start = np.broadcast_to(start, (len(alpha) + 1,) + start.shape)
    return start


def _run_blocks(drift, cfg, driver, start, t, n, rng, workers, take) -> list:
    """[take(i, endpoints of block i)] for the fixed BLOCK_SIZE blocks of n
    paths from start, block i drawing from rng.substream(i); in block order
    whatever the worker count."""
    if n < 1:
        raise ValueError("n must be >= 1")
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE

    def job(i):
        size = min(BLOCK_SIZE, n - i * BLOCK_SIZE)
        state = np.broadcast_to(start, start.shape[:-2] + (size, drift.d)).copy()
        advance(state, t, drift, driver, cfg, rng.substream(i))
        return take(i, state)

    if workers > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(job, range(n_blocks)))  # list() re-raises a block's exception
    return [job(i) for i in range(n_blocks)]


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
    """The endpoints of n independent paths at one horizon t; independent of the worker count.

    x0 is one start point, shape (d,), or m of them, shape (m, d); the
    endpoints are (n, d) or (m, n, d), with a leading axis of k + 1 (the
    stable paths of alpha_1, ..., alpha_k, then the Brownian path) for
    ('coupled', (alpha_1, ..., alpha_k)).  The m start points move on one
    set of driver increments, so row j equals, bit for bit, the run from
    x0[j] alone on the same stream; likewise the stable row of alpha_j
    equals the coupled run of alpha_j alone, and the Brownian row is the
    same for every set of alpha.  Work is partitioned into fixed BLOCK_SIZE
    blocks, block i drawing from rng.substream(i) and writing its slice of
    the one output array.
    """
    start = _start_points(drift, driver, x0, t, cfg)
    ends = np.empty(start.shape[:-2] + (n, drift.d))

    def store(i, state):
        ends[..., i * BLOCK_SIZE : i * BLOCK_SIZE + state.shape[-2], :] = state

    _run_blocks(drift, cfg, driver, start, t, n, rng, workers, store)
    return ends


def mc_semigroup(h, drift, driver, x, t, n, rng, cfg, workers: int = 1):
    """Monte Carlo estimate of P_t h(x) (or Q_t h(x)) with its std error.

    x is one start point, shape (d,), giving floats (est, se), or m start
    points, shape (m, d), giving length-m arrays on common random numbers
    (see run_ensemble).  t may also be a tuple of horizons with cfg a tuple
    of EulerConfigs, one per horizon (see advance); then x is (d,), one
    start point for every horizon, or horizon-indexed, (m, d) or (m, p, d),
    and est and se lead with the horizon axis.  Row k equals, bit for bit,
    the call at (t_k, cfg_k, x[k]) alone on the same stream.  h gets the
    endpoints with the d axis dropped when d = 1, so it must be vectorized
    over the leading axes.  Each block is reduced to its sum of h and its
    sum of squared deviations as soon as it is done, and the blocks are
    combined in block order: est is the sum over n, which for an indicator
    h is exact and equals the mean of the endpoints' h values.
    """
    if _check_driver(driver)[0] == "coupled":
        raise ValueError("mc_semigroup needs a single driver, not a coupled one")
    start = _start_points(drift, driver, x, t, cfg)

    def sums(i, state):
        vals = np.asarray(h(state[..., 0] if drift.d == 1 else state), dtype=float)
        total = vals.sum(axis=-1)
        dev = vals - (total / vals.shape[-1])[..., None]
        return vals.shape[-1], total, np.sum(dev * dev, axis=-1)

    parts = _run_blocks(drift, cfg, driver, start, t, n, rng, workers, sums)
    est = sum(total for _, total, _ in parts) / n
    # within-block plus between-block squared deviations (Chan et al.)
    m2 = sum(sq + size * (total / size - est) ** 2 for size, total, sq in parts)
    se = np.sqrt(m2 / (n - 1)) / np.sqrt(n) if n > 1 else np.full(np.shape(est), np.inf)
    if np.ndim(est) == 0:
        return float(est), float(se)
    return est, se
