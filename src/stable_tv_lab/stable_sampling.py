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
positive up to alpha -> 2.  Given several alpha at once, the subordinator
draws its uniform angle and exponential once and transforms them for each
alpha, as the coupled Euler driver of several alpha needs.  Given several
times at once, both samplers transform one unit draw and scale it to
each time (the scale is t^{2/alpha} for S_t, sqrt(t) for Brownian
motion), as the Euler stepper of several horizons needs.  The scale
algebra is the dominant failure mode, so it is pinned by CF and
Laplace-transform acceptance tests, never trusted.
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


def _log_kanter(rho, theta: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
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
    rho is one value, or a (k, 1) column of k values for one row each:
    t1 and 1 + t1^2 are then computed once for all rows, and each row
    equals, bit for bit, the call with its rho alone.  theta and w are
    left as they are; log S goes to out when it is given.
    """
    t1 = np.tan(0.5 * theta)
    t2 = np.tan((0.5 * rho) * theta)
    den = t2 * t2
    den += 1.0
    den *= t1
    num = np.subtract(t1, t2, out=out)
    cross = t1 * t2
    cross += 1.0
    num *= cross
    num /= den
    num /= w
    log_s = np.log(num, out=num)
    log_s *= (1.0 - rho) / rho
    t1 *= t1
    t1 += 1.0
    ratio = np.multiply(t1, t2, out=cross)
    ratio /= den
    log_s += np.log(ratio, out=ratio)
    return log_s


def _log_unit_pos_stable(rhos, rng: RngStream, size: int) -> np.ndarray:
    """log of size Kanter/Zolotarev draws for each rho in rhos, shape (len(rhos), size).

    Row j has Laplace transform exp(-r^rho_j), rho_j in (0, 1), and every
    row comes from one draw of (theta, w), transformed for all rows in one
    call of the kernel.  theta = 0 gives a NaN and w = 0 an infinite log,
    whatever rho.  Both are null events (probability ~2^-53 each), so when
    a log is not finite the exact zeros of theta and w are redrawn from the
    same stream and the kernel applied again: rejection, which leaves the
    law unchanged.  The check is one max per array.
    """
    theta = rng.uniform(0.0, np.pi, size)
    w = rng.exponential(size)
    rho = np.array(rhos, dtype=float)[:, None]
    log_s = _log_kanter(rho, theta, w, out=np.empty((len(rhos), size)))
    if log_s.size and not math.isfinite(log_s.max()):
        theta = _nonzero(lambda k: rng.uniform(0.0, np.pi, k), theta)
        w = _nonzero(rng.exponential, w)
        _log_kanter(rho, theta, w, out=log_s)
    return log_s


def _times(t) -> tuple:
    """t as a tuple of times, one or several, each checked positive."""
    ts = t if isinstance(t, tuple) else (t,)
    if not ts:
        raise ValueError("need at least one t")
    for tk in ts:
        if not tk > 0.0:
            raise ValueError(f"t must be positive, got {tk}")
    return ts


def sample_subordinator(alpha, t, rng: RngStream, size: int) -> np.ndarray:
    """size draws of S_t, alpha in (0, 2), with Laplace transform exp(-t (2r)^{alpha/2} / 2).

    alpha is one value, giving shape (size,), or a tuple of k values,
    giving (k, size): row j is S_t for alpha[j].  Likewise t is one time or
    a tuple of m times, giving (m, size): row k is S_{t_k}.  All rows come
    from one Kanter draw (theta, w), so each row equals, bit for bit, the
    draw for its alpha or t alone on the same stream (common random
    numbers).  A tuple of both is refused.

    E exp(-r c S) = exp(-(cr)^rho) for a unit Kanter draw S, so the scale
    c must satisfy c^rho = t 2^{rho - 1} with rho = alpha/2, i.e.
    c = t^{2/alpha} 2^{1 - 2/alpha}.  The draw is exp(log c + log S).
    """
    alphas = alpha if isinstance(alpha, tuple) else (alpha,)
    if not alphas:
        raise ValueError("need at least one alpha")
    for a in alphas:
        if not 0.0 < a < 2.0:
            raise ValueError(f"alpha must be in (0, 2), got {a}")
    ts = _times(t)
    if len(alphas) > 1 and len(ts) > 1:
        raise ValueError("give a tuple of alpha or a tuple of t, not both")
    log_s = _log_unit_pos_stable([a / 2.0 for a in alphas], rng, size)
    rows = units = log_s  # each alpha shifts its own row in place
    if len(ts) > 1:  # several t shift the one unit row into m new rows
        rows, units = np.empty((len(ts), size)), [log_s[0]] * len(ts)
    log_c = [(2.0 / a) * math.log(tk) + (1.0 - 2.0 / a) * math.log(2.0) for a in alphas for tk in ts]
    for unit, row, c in zip(units, rows, log_c):
        np.add(unit, c, out=row)
    s = np.exp(rows, out=rows)
    return s if isinstance(alpha, tuple) or isinstance(t, tuple) else s[0]


def sample_stable_vector(alpha: float, t, d: int, rng: RngStream, n: int) -> np.ndarray:
    """n rotationally symmetric stable vectors with CF exp(-t |xi|^alpha / 2), shape (n, d).

    Draws S ~ subordinator, then z ~ N(0, I_d), and returns sqrt(S) z; the
    Brownian case alpha = 2 returns sqrt(t) z with no subordinator.  A
    tuple of m times gives (m, n, d): row k is the draw at t_k, from one S
    draw and one z, and equals, bit for bit, the single-t call on the same
    stream, as the Euler stepper of several horizons needs.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    ts = _times(t)
    if alpha == 2.0:
        scale = np.sqrt(np.array(ts))[:, None, None] if isinstance(t, tuple) else math.sqrt(t)
        return scale * rng.normal((n, d))
    s = sample_subordinator(alpha, t, rng, n)
    return np.sqrt(s)[..., None] * rng.normal((n, d))


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
