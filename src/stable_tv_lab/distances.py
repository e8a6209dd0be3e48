"""Distance estimators between laws.

Total variation uses the paper-style normalization: sup over continuous
|h| <= 1 of |mu(h) - nu(h)|, which equals the integral of |p - q| for
densities and has maximal value 2.  The common 1/2-normalization is NOT
used anywhere; tests assert the factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridDensity:
    """1-D density on a uniform node grid plus an analytic power tail.

    Off-grid mass is modelled as tail_c * |x|^{-1 - tail_exponent} on each
    side; tail_c = 0 means compact support on the grid for all practical
    purposes (e.g. Gaussian on [-40, 40]).
    """

    x_min: float
    x_max: float
    values: np.ndarray
    tail_exponent: float = 2.0
    tail_c: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < 0.0):
            raise ValueError("density values must be non-negative")
        object.__setattr__(self, "values", values)

    @property
    def n_cells(self) -> int:
        return self.values.size - 1

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.values.size)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def tail_mass(self) -> float:
        """Analytic mass outside [x_min, x_max]."""
        if self.tail_c == 0.0:
            return 0.0
        a = self.tail_exponent
        right = self.tail_c / (a * abs(self.x_max) ** a)
        left = self.tail_c / (a * abs(self.x_min) ** a)
        return right + left

    def total_mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.dx)) + self.tail_mass()

    def check_normalized(self, tol: float = 1e-4) -> None:
        mass = self.total_mass()
        if not abs(mass - 1.0) <= tol:  # a NaN mass fails too
            raise ValueError(f"density not normalized: total mass {mass}")


@dataclass(frozen=True)
class RateFit:
    """log-log regression of value against epsilon = 2 - alpha."""

    points: list  # (epsilon, value)
    slope: float
    curvature: float = 0.0  # quadratic coefficient in log eps; >0 flags a log factor


def tv_from_densities(p: GridDensity, q: GridDensity) -> float:
    """Trapezoidal integral of |p - q| plus the analytic tail difference."""
    if (p.x_min, p.x_max, p.values.size) != (q.x_min, q.x_max, q.values.size):
        raise ValueError("densities must share the grid")
    p.check_normalized()
    q.check_normalized()
    core = float(np.trapezoid(np.abs(p.values - q.values), dx=p.dx))
    tv = core + abs(p.tail_mass() - q.tail_mass())
    return min(tv, 2.0)


def _scalar_values(s: np.ndarray) -> np.ndarray:
    v = np.asarray(s, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a non-empty 1-D sample array, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("samples must be finite")
    return v


def tv_from_samples_1d(a: np.ndarray, b: np.ndarray, bins: int | None = None) -> float:
    """Histogram TV estimate on the pooled range, in [0, 2].

    Downward-biased for overlapping laws at small bin counts and
    upward-biased by noise ~ sqrt(bins/N); calibrate the noise floor with
    a self-distance run on same-law samples.  The pooled range is clipped
    at the 1e-4 / 1 - 1e-4 quantiles; clipped mass adds to the estimate
    as worst-case discrepancy.
    """
    va, vb = _scalar_values(a), _scalar_values(b)
    pooled = np.concatenate([va, vb])
    if bins is None:
        bins = max(10, int(np.ceil(pooled.size ** (1.0 / 3.0))))
    if bins < 10:
        raise ValueError("need at least 10 bins")
    lo, hi = np.quantile(pooled, [1e-4, 1.0 - 1e-4])
    edges = np.linspace(lo, hi, bins + 1)
    pa, _ = np.histogram(va, bins=edges)
    pb, _ = np.histogram(vb, bins=edges)
    clipped = (1.0 - pa.sum() / va.size) + (1.0 - pb.sum() / vb.size)
    tv = float(np.sum(np.abs(pa / va.size - pb / vb.size))) + clipped
    return min(tv, 2.0)


def tv_noise_floor(samples: np.ndarray, bins: int | None = None) -> float:
    """Self-distance of same-law halves, worst of 4 splits: the estimator's resolution."""
    v = _scalar_values(samples)
    half = v.size // 2
    floors = []
    for k in range(4):
        perm = np.roll(np.arange(v.size), k * half // 3)
        floors.append(tv_from_samples_1d(v[perm[:half]], v[perm[half:2 * half]], bins))
    return float(np.max(floors))


def tv_cf_lower_bound(a: np.ndarray, b: np.ndarray, xis) -> float:
    """Certified TV lower bound (up to MC error) from cos/sin test functions.

    cos(xi .) and sin(xi .) are bounded by 1, so each difference of means
    is a legitimate value of |mu(h) - nu(h)| in the TV supremum.
    """
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    if xis.size == 0:
        raise ValueError("need at least one xi")
    va, vb = _scalar_values(a), _scalar_values(b)
    best = 0.0
    for xi in xis:
        dc = abs(np.mean(np.cos(xi * va)) - np.mean(np.cos(xi * vb)))
        ds = abs(np.mean(np.sin(xi * va)) - np.mean(np.sin(xi * vb)))
        best = max(best, float(dc), float(ds))
    return best


def rate_fit(points) -> RateFit:
    """Fit log(value) = slope * log(2 - alpha) + c.

    Input points are (alpha, value) with alpha < 2 and value > 0; the
    slope estimates the rate exponent in epsilon = 2 - alpha.
    """
    points = [(float(a), float(v)) for a, v in points]
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    eps = np.array([2.0 - a for a, _ in points])
    vals = np.array([v for _, v in points])
    if not np.all(eps > 0.0):  # a NaN alpha fails too
        raise ValueError("all alpha must be < 2")
    if not np.all((vals > 0.0) & np.isfinite(vals)):
        raise ValueError("all values must be positive and finite")
    x, y = np.log(eps), np.log(vals)
    if np.ptp(x) < 1e-12:
        raise ValueError("degenerate abscissae")
    slope = np.polyfit(x, y, 1)[0]
    quad = np.polyfit(x, y, 2)[0] if len(points) >= 4 else 0.0
    return RateFit(
        points=[(float(e), float(v)) for e, v in zip(eps, vals)],
        slope=float(slope),
        curvature=float(quad),
    )
