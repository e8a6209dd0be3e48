"""Exact-in-law samplers under the half-speed normalization.

Targets:
  symmetric stable      E exp(i xi L_t)   = exp(-t |xi|^alpha / 2)
  stable subordinator   E exp(-r S_t)     = exp(-t (2r)^{alpha/2} / 2)
  subordinated vector   W_{S_t} = sqrt(S_t) * N(0, I_d), same marginal CF.

The samplers use the Chambers-Mallows-Stuck transform (symmetric case)
and the Kanter/Zolotarev transform (one-sided case) for a *unit-scale*
draw, then apply a scale factor derived from the target exponent.  The
one-sided draw is computed in log space, scale included, so it stays
finite and positive up to alpha -> 2.  The scale algebra is the dominant
failure mode, so it is pinned by CF and Laplace-transform acceptance
tests, never trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from stable_tv_lab.rng import RngStream


@dataclass(frozen=True)
class StableSpec:
    """Symmetric stable target with char. fn. exp(-t |xi|^alpha / 2)."""

    alpha: float
    time: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if self.time <= 0.0:
            raise ValueError(f"time must be positive, got {self.time}")


@dataclass(frozen=True)
class SubordinatorSpec:
    """alpha/2-stable subordinator with Laplace transform exp(-t (2r)^{alpha/2} / 2)."""

    alpha: float
    time: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must be in (0, 2), got {self.alpha}")
        if self.time <= 0.0:
            raise ValueError(f"time must be positive, got {self.time}")


@dataclass(frozen=True)
class SampleSet:
    """Immutable, non-empty i.i.d. sample collection."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.size == 0:
            raise ValueError("SampleSet must be non-empty")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _unit_sym_stable(alpha: float, rng: RngStream, size) -> np.ndarray:
    """CMS draw with char. fn. exp(-|xi|^alpha), symmetric (beta = 0)."""
    v = rng.uniform(-np.pi / 2, np.pi / 2, size)
    w = rng.exponential(size)
    if alpha == 1.0:
        return np.tan(v)
    s = (
        np.sin(alpha * v)
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha)
    )
    return s


def _nonzero(draw, x):
    """x with its exact zeros replaced by further draws of draw(size)."""
    zero = x == 0.0
    while zero.any():
        x[zero] = draw(int(zero.sum()))
        zero = x == 0.0
    return x


def _log_half_sin(half, scale=None):
    """log(sin(x) / (2 scale)) for x = 2 half in (0, pi), overwriting half.

    sin x = 2t / (1 + t^2) with t = tan(x / 2), which is finite and positive
    on (0, pi).  numpy's AVX-512 builds vectorize float64 tan and log, not sin.
    """
    t = np.tan(half, out=half)
    u = t * t
    u += 1.0
    if scale is not None:
        u *= scale
    np.divide(t, u, out=u)
    return np.log(u, out=u)


def _log_kanter(rho: float, theta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """log S for the Kanter draw S = (A(theta) / w)^((1 - rho) / rho), with
    A = sin((1 - rho) theta) sin(rho theta)^(rho / (1 - rho)) / sin(theta)^(1 / (1 - rho)):

        log S = ((1 - rho) / rho) (log sin((1 - rho) theta) - log w)
                + log sin(rho theta) - (1 / rho) log sin(theta).

    Every coefficient stays bounded as rho -> 1, so nothing under- or
    overflows where the powers of A would.  The log 2 that _log_half_sin
    leaves out of each sine cancels: (1 - rho) / rho + 1 - 1 / rho = 0.
    """
    half = 0.5 * theta
    log_s = _log_half_sin((1.0 - rho) * half, w)
    log_s *= (1.0 - rho) / rho
    log_s += _log_half_sin(rho * half)
    log_s -= _log_half_sin(half) / rho
    return log_s


def _log_unit_pos_stable(rho: float, rng: RngStream, size) -> np.ndarray:
    """log of a Kanter/Zolotarev draw with Laplace transform exp(-r^rho), rho in (0,1).

    Always an array, shape (1,) for size=None.  theta = 0 gives a NaN and
    w = 0 an infinite log.  Both are null events (probability ~2^-53 each),
    so when a log is not finite the exact zeros of theta and w are redrawn
    from the same stream and the kernel applied again: rejection, which
    leaves the law unchanged.  The check is one max per array.
    """
    theta = np.atleast_1d(rng.uniform(0.0, np.pi, size))
    w = np.atleast_1d(rng.exponential(size))
    log_s = _log_kanter(rho, theta, w)
    if log_s.size and not math.isfinite(log_s.max()):
        theta = _nonzero(lambda k: rng.uniform(0.0, np.pi, k), theta)
        w = _nonzero(rng.exponential, w)
        log_s = _log_kanter(rho, theta, w)
    return log_s


def sample_sym_stable(spec: StableSpec, rng: RngStream, size=None):
    """Draw from the symmetric stable law with char. fn. exp(-t |xi|^alpha / 2).

    The unit CMS draw has char. fn. exp(-|xi|^alpha); scaling by
    (t/2)^{1/alpha} moves the exponent to t|xi|^alpha/2.  At alpha = 2
    the target is Normal(0, t).
    """
    alpha, t = spec.alpha, spec.time
    if alpha == 2.0:
        out = np.sqrt(t) * rng.normal(size)
    else:
        out = (t / 2.0) ** (1.0 / alpha) * _unit_sym_stable(alpha, rng, size)
    return out


def sample_subordinator(spec: SubordinatorSpec, rng: RngStream, size=None):
    """Draw S_t with Laplace transform exp(-t (2r)^{alpha/2} / 2).

    E exp(-r c S) = exp(-(cr)^rho) for a unit Kanter draw S, so the scale
    c must satisfy c^rho = t 2^{rho - 1} with rho = alpha/2, i.e.
    c = t^{2/alpha} 2^{1 - 2/alpha}.  The draw is exp(log c + log S).
    """
    alpha, t = spec.alpha, spec.time
    log_scale = (2.0 / alpha) * math.log(t) + (1.0 - 2.0 / alpha) * math.log(2.0)
    log_s = _log_unit_pos_stable(alpha / 2.0, rng, size)
    log_s += log_scale
    s = np.exp(log_s, out=log_s)
    return s[0] if size is None else s


def sample_stable_vector(alpha: float, t: float, d: int, rng: RngStream, size=None):
    """Subordinated Gaussian vector with marginal CF exp(-t |xi|^alpha / 2).

    Draws S ~ subordinator, returns sqrt(S) * N(0, I_d); the Brownian
    branch alpha = 2 bypasses subordination.  Returns shape (d,) for
    size=None, else (size, d).
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    shape = (d,) if size is None else (size, d)
    z = rng.normal(shape)
    if alpha == 2.0:
        return np.sqrt(t) * z
    s = sample_subordinator(SubordinatorSpec(alpha, t), rng, size)
    if size is None:
        return np.sqrt(s) * z
    return np.sqrt(s)[:, None] * z


def empirical_char_fn(samples: SampleSet, xi) -> complex:
    """(1/N) sum exp(i <xi, X_k>)."""
    values = samples.values
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


def robust_mean(samples: SampleSet, blocks: int = 32) -> float:
    """Median-of-means over near-equal blocks; blocks=1 is the plain mean."""
    values = np.asarray(samples.values, dtype=float)
    if values.ndim != 1:
        raise ValueError("robust_mean expects scalar samples")
    if not 1 <= blocks <= values.size:
        raise ValueError(f"blocks must be in [1, {values.size}] (the sample count), got {blocks}")
    if blocks == 1:
        return float(np.mean(values))
    parts = np.array_split(values, blocks)
    return float(np.median([np.mean(p) for p in parts]))

