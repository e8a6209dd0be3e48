"""Exact analytics for the 1-D Ornstein-Uhlenbeck example.

For dX = -X dt + dL with the half-speed stable driver, the transition law
from x has characteristic function

    exp(i xi e^{-t} x) * exp(-|xi|^alpha (1 - e^{-alpha t}) / (2 alpha)),

so the ergodic law mu_alpha, the law at t = inf, has CF
exp(-|xi|^alpha / (2 alpha)); at alpha = 2 this is Normal(0, 1/2).
transition_cf(alpha, xi, x, t) evaluates this CF, with t = inf by default,
and mu_alpha(cos) is transition_cf(alpha, 1.0).real.  Densities live on one
fixed grid, GRID_CELLS cells on [-GRID_HALF_WIDTH, GRID_HALF_WIDTH], and
are recovered by cosine inversion, one vector-valued quadrature for all
knots, whose cosines _half_angle_cos takes from tan (pde's Poisson grid
uses it too); the exact TV between mu_alpha and mu_2 comes from the grid
densities.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.integrate import quad_vec
from scipy.interpolate import CubicSpline

from stable_tv_lab.constants import a_const
from stable_tv_lab.distances import GridDensity, tv_from_densities

# The TV-grade density grid: 2^16 cells on [-40, 40], inverted at knots
# 0.02 apart.
GRID_HALF_WIDTH = 40.0
GRID_CELLS = 2 ** 16
KNOT_SPACING = 0.02
ALPHA_TV_RANGE = (1.05, 1.9995)


def transition_cf(alpha: float, xi: float, x: float = 0.0, t: float = math.inf) -> complex:
    """CF at xi of the OU law at time t from x; t = inf (the default) is mu_alpha."""
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must be in (1, 2], got {alpha}")
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    decay = (1.0 - math.exp(-alpha * t)) / (2.0 * alpha)
    return complex(np.exp(1j * xi * math.exp(-t) * x) * math.exp(-abs(xi) ** alpha * decay))


def lb_curve(alpha: float) -> float:
    """Cosine TV lower bound between mu_2 and mu_alpha: mu_2(cos) - mu_alpha(cos),
    which is e^{-1/4} - e^{-1/(2 alpha)}."""
    return transition_cf(2.0, 1.0).real - transition_cf(alpha, 1.0).real


def _half_angle_cos(theta: np.ndarray) -> np.ndarray:
    """cos(theta) as (1 - t^2) / (1 + t^2) with t = tan(theta / 2).

    numpy's AVX-512 builds vectorize float64 tan, not cos, so this is the
    cheaper cosine for the transforms here; it is within ~2e-16 of np.cos
    and exactly -1 at odd multiples of pi, where t is huge but finite.
    """
    t = np.tan(0.5 * theta)
    t *= t
    num = 1.0 - t
    t += 1.0
    num /= t
    return num


def _cos_transform(alpha: float, xs: np.ndarray) -> np.ndarray:
    """(1/pi) int_0^inf cos(xi x) exp(-xi^alpha / (2 alpha)) dxi at every x.

    Truncated where the CF drops below ~1e-20, so accuracy is limited by
    the truncation bound and the 1e-11 absolute tolerance of one
    vector-valued quadrature over all xs.
    """
    xi_max = (92.0 * alpha) ** (1.0 / alpha)
    integrand = lambda xi: _half_angle_cos(xi * xs) * math.exp(-xi ** alpha / (2.0 * alpha))
    val, _, info = quad_vec(
        integrand, 0.0, xi_max, epsabs=1e-11, epsrel=0.0, norm="max", limit=2000, full_output=True
    )
    if info.status != 0:
        raise RuntimeError(f"CF inversion did not converge: {info.message}")
    return val / np.pi


@functools.lru_cache(maxsize=32)
def _ergodic_spline(alpha: float):
    """Cubic spline of the ergodic density on [0, GRID_HALF_WIDTH] (density is even)."""
    knots = np.arange(0.0, GRID_HALF_WIDTH + KNOT_SPACING, KNOT_SPACING)
    vals = _cos_transform(alpha, knots)
    return CubicSpline(knots, vals)


def ergodic_density(alpha: float) -> GridDensity:
    """Ergodic density of the stable OU on the grid of GRID_CELLS cells on +-GRID_HALF_WIDTH.

    alpha = 2 is the exact Normal(0, 1/2) density.  For alpha < 2 the
    density comes from cosine inversion at spline knots (the density and
    the CF are analytic, so the spline error is far below the quadrature
    tolerance), with the stable power tail c |x|^{-1-alpha} beyond the grid,
    c = A(1, alpha) / alpha.
    """
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must be in (1, 2], got {alpha}")
    x_min, x_max = -GRID_HALF_WIDTH, GRID_HALF_WIDTH
    grid = np.linspace(x_min, x_max, GRID_CELLS + 1)
    if alpha == 2.0:
        # CF exp(-xi^2/4): Normal(0, 1/2)
        values = np.exp(-grid ** 2) / math.sqrt(math.pi)
        density = GridDensity(x_min, x_max, values, tail_exponent=2.0, tail_c=0.0)
        density.check_normalized()
        return density
    spline = _ergodic_spline(alpha)
    values = np.clip(spline(np.abs(grid)), 0.0, None)
    tail_c = a_const(1, alpha) / alpha
    density = GridDensity(x_min, x_max, values, tail_exponent=alpha, tail_c=tail_c)
    mass = density.total_mass()
    if not abs(mass - 1.0) <= 1e-3:  # a NaN mass fails too
        raise RuntimeError(f"CF inversion failed to normalize: mass {mass}")
    # enforce exact normalization; the correction is within quadrature noise
    density = GridDensity(
        x_min, x_max, values / mass, tail_exponent=alpha, tail_c=tail_c / mass
    )
    density.check_normalized(1e-6)
    return density


@functools.lru_cache(maxsize=64)
def _exact_tv_cached(alpha: float) -> float:
    return tv_from_densities(ergodic_density(alpha), ergodic_density(2.0))


def exact_tv_mu(alpha: float) -> float:
    """Deterministic TV(mu_alpha, mu_2) from matched grid densities."""
    lo, hi = ALPHA_TV_RANGE
    if not lo <= alpha <= hi:
        raise ValueError(f"alpha must be in [{lo}, {hi}] for exact TV, got {alpha}")
    return _exact_tv_cached(float(alpha))
