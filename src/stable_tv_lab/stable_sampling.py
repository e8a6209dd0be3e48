"""Exact-in-law samplers under the half-speed normalization.

Targets:
  stable subordinator   E exp(-r S_t)     = exp(-t (2r)^{alpha/2} / 2)
  symmetric stable      W_{S_t} = sqrt(S_t) * N(0, I_d), with
                        E exp(i <xi, L_t>) = exp(-t |xi|^alpha / 2).

The symmetric stable law is drawn one way only, by subordination, in
every d: sample_stable_vector feeds both the Euler stepper and the
sampler checks.  The subordinator uses the Kanter/Zolotarev transform for
a *unit-scale* draw, then applies a scale factor derived from the target
exponent.  One kernel turns the uniform angle and the exponential into the
root sqrt(S_t), scale included, through logs and rational functions of
half-angle tangents, so it stays finite and positive up to alpha -> 2:
sample_subordinator_root returns it, for the symmetric sampler and the
coupled Euler driver, and sample_subordinator its square.  Given several
alpha at once, the kernel transforms one uniform angle and exponential for
each alpha, as the coupled Euler driver of several alpha needs.  The
symmetric stable sampler always draws at unit time and scales the unit
vector sqrt(S_1) z to each time it is given (by t^{1/alpha}, or sqrt(t)
for Brownian motion), so several times cost one root per draw, as the
Euler stepper of several horizons needs.  The scale algebra is the dominant
failure mode, so it is pinned by CF and Laplace-transform acceptance
tests, never trusted.
"""

from __future__ import annotations

import math

import numpy as np

from stable_tv_lab.rng import RngStream


def _nonzero(draw, x):
    """x with its exact zeros replaced by further draws of draw(size)."""
    zero = x == 0.0
    while zero.any():
        x[zero] = draw(int(zero.sum()))
        zero = x == 0.0
    return x


def _kanter_root(rho, theta: np.ndarray, w: np.ndarray, half_log_c, out: np.ndarray | None = None) -> np.ndarray:
    """sqrt(c S) for the Kanter draw S = (A(theta) / w)^a, a = (1 - rho) / rho, with
    A = sin((1 - rho) theta) sin(rho theta)^(rho / (1 - rho)) / sin(theta)^(1 / (1 - rho)).

    Since a + 1 = 1 / rho, S = X^a Y with X = sin((1 - rho) theta) / (sin(theta) w)
    and Y = sin(rho theta) / sin(theta), and in the half-angle tangents
    t1 = tan(theta / 2), u = tan((1 - rho) theta / 2), with
    2 cot(theta) = (1 - t1)(1 + t1) / t1, both are rational:

        X = u (1 + t1^2) / (t1 (1 + u^2) w),   Y = (1 - u (u + 2 cot(theta))) / (1 + u^2),

    so sqrt(c S) = exp(a log(X) / 2 + half_log_c) sqrt(Y), half_log_c = log(c) / 2:
    one tan, log, exp and sqrt per value (numpy's AVX-512 builds vectorize
    float64 tan, log and exp, not sin).  X and Y are finite and positive on
    (0, pi), and nothing cancels as rho -> 1, where the powers of A under-
    or overflow.  rho and half_log_c are single values, or (k, 1) columns
    for k rows: t1, 2 cot(theta) and (1 + t1^2) / (t1 w) are then computed
    once for all rows, and each row equals, bit for bit, the call with its
    values alone.  theta and w are left as they are; the root goes to out
    when it is given.
    """
    t1 = np.tan(0.5 * theta)
    cot2 = (1.0 - t1) * (1.0 + t1) / t1
    q = (t1 * t1 + 1.0) / (t1 * w)
    u = np.multiply(0.5 * (1.0 - rho), theta, out=out)
    np.tan(u, out=u)
    v = u * u
    v += 1.0
    y = u + cot2
    y *= u
    np.subtract(1.0, y, out=y)
    y /= v
    u *= q
    u /= v
    root = np.log(u, out=u)
    root *= 0.5 * (1.0 - rho) / rho
    root += half_log_c
    np.exp(root, out=root)
    root *= np.sqrt(y, out=y)
    return root


def _times(t) -> tuple:
    """t as a tuple of times, one or several, each checked positive."""
    ts = t if isinstance(t, tuple) else (t,)
    if not ts:
        raise ValueError("need at least one t")
    for tk in ts:
        if not tk > 0.0:
            raise ValueError(f"t must be positive, got {tk}")
    return ts


def sample_subordinator_root(alpha, t: float, rng: RngStream, size: int) -> np.ndarray:
    """size draws of sqrt(S_t), alpha in (0, 2), where S_t has Laplace transform
    exp(-t (2r)^{alpha/2} / 2).

    alpha is one value, giving shape (size,), or a tuple of k values,
    giving (k, size): row j is sqrt(S_t) for alpha[j].  All rows come from
    one Kanter draw (theta, w), transformed for every row in one call of
    the kernel, so each row equals, bit for bit, the draw for its alpha
    alone on the same stream (common random numbers).  t is one time; a
    tuple of times is refused (sample_stable_vector scales one unit draw to
    several times).

    E exp(-r c S) = exp(-(cr)^rho) for a unit Kanter draw S, so the scale
    c must satisfy c^rho = t 2^{rho - 1} with rho = alpha/2, i.e.
    c = t^{2/alpha} 2^{1 - 2/alpha}; the kernel folds log(c) / 2 into its
    one exp.  theta = 0 gives a NaN and w = 0 an infinite root, whatever
    alpha.  Both are null events (probability ~2^-53 each), so when a root
    is not finite the exact zeros of theta and w are redrawn from the same
    stream and the kernel applied again: rejection, which leaves the law
    unchanged.  The check is one max per array.
    """
    alphas = alpha if isinstance(alpha, tuple) else (alpha,)
    if not alphas:
        raise ValueError("need at least one alpha")
    for a in alphas:
        if not 0.0 < a < 2.0:
            raise ValueError(f"alpha must be in (0, 2), got {a}")
    if isinstance(t, tuple) or not t > 0.0:
        raise ValueError(f"t must be one positive time, got {t!r}")
    rho = np.array(alphas, dtype=float)[:, None] / 2.0
    half_log_c = 0.5 * (math.log(t) / rho + (1.0 - 1.0 / rho) * math.log(2.0))
    theta = rng.uniform(0.0, np.pi, size)
    w = rng.exponential(size)
    root = _kanter_root(rho, theta, w, half_log_c, out=np.empty((len(alphas), size)))
    if root.size and not math.isfinite(root.max()):
        theta = _nonzero(lambda k: rng.uniform(0.0, np.pi, k), theta)
        w = _nonzero(rng.exponential, w)
        _kanter_root(rho, theta, w, half_log_c, out=root)
    return root if isinstance(alpha, tuple) else root[0]


def sample_subordinator(alpha, t: float, rng: RngStream, size: int) -> np.ndarray:
    """size draws of S_t, the squares of sample_subordinator_root's draws, with the same arguments."""
    root = sample_subordinator_root(alpha, t, rng, size)
    return np.square(root, out=root)


def sample_stable_vector(
    alpha: float, t, d: int, rng: RngStream, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """n rotationally symmetric stable vectors with CF exp(-t |xi|^alpha / 2), shape (n, d).

    Draws the unit subordinator S_1, then z ~ N(0, I_d), forms the unit
    draw sqrt(S_1) z and scales it by t^{1/alpha}, since S_t has the law of
    t^{2/alpha} S_1; the Brownian case alpha = 2 draws no subordinator and
    returns sqrt(t) z.  A tuple of m times gives (m, n, d): row k is the
    unit draw scaled to t_k, so it equals, bit for bit, the single-t call on
    the same stream, and m times cost one root per draw, as the Euler
    stepper of several horizons needs.  The result goes to out when
    it is given, an array of that shape.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    ts = _times(t)
    if alpha == 2.0:
        z = rng.normal((n, d))
        scales = [math.sqrt(tk) for tk in ts]
    else:
        root = sample_subordinator_root(alpha, 1.0, rng, n)
        z = rng.normal((n, d))
        z *= root[:, None]
        scales = [tk ** (1.0 / alpha) for tk in ts]
    scale = np.array(scales)[:, None, None] if isinstance(t, tuple) else scales[0]
    return np.multiply(scale, z, out=out)


def empirical_char_fn(samples: np.ndarray, xi) -> complex:
    """(1/N) sum exp(i <xi, X_k>) over N scalar samples, shape (N,), or vectors, shape (N, d)."""
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one sample")
    if not np.isfinite(values).all():
        raise ValueError("samples must be finite")
    xi = np.asarray(xi, dtype=float)
    if values.ndim == 1:
        if xi.ndim != 0:
            raise ValueError("scalar samples need scalar xi")
        phase = xi * values
    else:
        if xi.shape != (values.shape[1],):
            raise ValueError(
                f"xi shape {xi.shape} does not match sample dimension {values.shape[1]}"
            )
        phase = values @ xi
    return complex(np.mean(np.exp(1j * phase)))


def robust_mean(samples: np.ndarray, blocks: int = 32) -> float:
    """Median-of-means over near-equal blocks; blocks=1 is the plain mean."""
    values = np.asarray(samples, dtype=float)
    if values.ndim != 1:
        raise ValueError("robust_mean expects scalar samples")
    if not np.isfinite(values).all():
        raise ValueError("samples must be finite")
    if not 1 <= blocks <= values.size:
        raise ValueError(f"blocks must be in [1, {values.size}] (the sample count), got {blocks}")
    parts = np.array_split(values, blocks)
    return float(np.median([np.mean(p) for p in parts]))
