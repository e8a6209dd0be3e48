"""Exact-in-law samplers under the half-speed normalization.

Targets:
  stable subordinator   E exp(-r S_t)     = exp(-t (2r)^{alpha/2} / 2)
  symmetric stable      W_{S_t} = sqrt(S_t) * N(0, I_d), with
                        E exp(i <xi, L_t>) = exp(-t |xi|^alpha / 2).

The symmetric stable law is drawn one way only, by subordination, in
every d: sample_stable_vector feeds both the Euler stepper and the
sampler checks.  The subordinator uses the Kanter/Zolotarev transform for
a *unit-scale* draw, then applies a scale factor derived from the target
exponent.  The one-sided draw is computed in log space, scale included,
from the half-angle tangents of its uniform angle, so it stays finite and
positive up to alpha -> 2.  The scale algebra is the dominant failure
mode, so it is pinned by CF and Laplace-transform acceptance tests, never
trusted.
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


def _log_kanter(rho: float, theta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """log S for the Kanter draw S = (A(theta) / w)^a, a = (1 - rho) / rho, with
    A = sin((1 - rho) theta) sin(rho theta)^(rho / (1 - rho)) / sin(theta)^(1 / (1 - rho)).

    Since a + 1 = 1 / rho, log S = a log[sin((1 - rho) theta) / (sin(theta) w)]
    + log[sin(rho theta) / sin(theta)], and in the half-angle tangents
    t1 = tan(theta / 2), t2 = tan(rho theta / 2) both ratios are rational:

        log S = a log[(t1 - t2)(1 + t1 t2) / (t1 (1 + t2^2) w)]
                + log[t2 (1 + t1^2) / (t1 (1 + t2^2))].

    numpy's AVX-512 builds vectorize float64 tan and log, not sin, so this
    costs two of each.  t1 and t2 are finite and positive on (0, pi), and
    every coefficient stays bounded as rho -> 1, so nothing under- or
    overflows where the powers of A would; there t1 - t2 loses about
    eps / (1 - rho) relative, which the factor a ~ 1 - rho takes back.
    theta and w are left as they are.
    """
    t1 = np.tan(0.5 * theta)
    t2 = np.tan((0.5 * rho) * theta)
    den = t2 * t2
    den += 1.0
    den *= t1
    num = t1 - t2
    cross = t1 * t2
    cross += 1.0
    num *= cross
    num /= den
    num /= w
    log_s = np.log(num, out=num)
    log_s *= (1.0 - rho) / rho
    ratio = np.multiply(t1, t1, out=cross)
    ratio += 1.0
    ratio *= t2
    ratio /= den
    log_s += np.log(ratio, out=ratio)
    return log_s


def _log_unit_pos_stable(rho: float, rng: RngStream, size: int) -> np.ndarray:
    """log of size Kanter/Zolotarev draws with Laplace transform exp(-r^rho), rho in (0,1).

    theta = 0 gives a NaN and w = 0 an infinite log.  Both are null events
    (probability ~2^-53 each), so when a log is not finite the exact zeros
    of theta and w are redrawn from the same stream and the kernel applied
    again: rejection, which leaves the law unchanged.  The check is one max
    per array.
    """
    theta = rng.uniform(0.0, np.pi, size)
    w = rng.exponential(size)
    log_s = _log_kanter(rho, theta, w)
    if log_s.size and not math.isfinite(log_s.max()):
        theta = _nonzero(lambda k: rng.uniform(0.0, np.pi, k), theta)
        w = _nonzero(rng.exponential, w)
        log_s = _log_kanter(rho, theta, w)
    return log_s


def sample_subordinator(alpha: float, t: float, rng: RngStream, size: int) -> np.ndarray:
    """size draws of S_t, alpha in (0, 2), with Laplace transform exp(-t (2r)^{alpha/2} / 2).

    E exp(-r c S) = exp(-(cr)^rho) for a unit Kanter draw S, so the scale
    c must satisfy c^rho = t 2^{rho - 1} with rho = alpha/2, i.e.
    c = t^{2/alpha} 2^{1 - 2/alpha}.  The draw is exp(log c + log S).
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    log_scale = (2.0 / alpha) * math.log(t) + (1.0 - 2.0 / alpha) * math.log(2.0)
    log_s = _log_unit_pos_stable(alpha / 2.0, rng, size)
    log_s += log_scale
    return np.exp(log_s, out=log_s)


def sample_stable_vector(alpha: float, t: float, d: int, rng: RngStream, n: int) -> np.ndarray:
    """n rotationally symmetric stable vectors with CF exp(-t |xi|^alpha / 2), shape (n, d).

    Draws S ~ subordinator, then z ~ N(0, I_d), and returns sqrt(S) z; the
    Brownian case alpha = 2 returns sqrt(t) z with no subordinator.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if alpha == 2.0:
        return np.sqrt(t) * rng.normal((n, d))
    s = sample_subordinator(alpha, t, rng, n)
    return np.sqrt(s)[:, None] * rng.normal((n, d))


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
    if blocks == 1:
        return float(np.mean(values))
    parts = np.array_split(values, blocks)
    return float(np.median([np.mean(p) for p in parts]))
