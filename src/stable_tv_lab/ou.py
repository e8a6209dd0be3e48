"""Exact analytics for the 1-D Ornstein-Uhlenbeck example.

For dX = -X dt + dL with the half-speed stable driver, the transition law
from x has characteristic function

    exp(i xi e^{-t} x) * exp(-|xi|^alpha (1 - e^{-alpha t}) / (2 alpha)),

so the ergodic law mu_alpha, the law at t = inf, has CF
exp(-|xi|^alpha / (2 alpha)); at alpha = 2 this is Normal(0, 1/2).
transition_cf(alpha, xi, x, t) evaluates this CF, with t = inf by default,
and mu_alpha(cos) is transition_cf(alpha, 1.0).real.  Densities live on one
fixed grid, GRID_CELLS cells on [-GRID_HALF_WIDTH, GRID_HALF_WIDTH], and
are recovered at the spline knots by one real FFT of the CF, with the
periodic images of the stable tail subtracted in closed form and the error
bounded a priori; the exact TV between mu_alpha and mu_2 comes from the
grid densities.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special
from scipy.interpolate import CubicSpline

from stable_tv_lab.constants import a_const
from stable_tv_lab.distances import GridDensity, tv_from_densities

# The TV-grade density grid: 2^16 cells on [-40, 40], inverted at knots
# 0.02 apart by one real FFT of FFT_MODES modes (period 655.36).
GRID_HALF_WIDTH = 40.0
GRID_CELLS = 2 ** 16
KNOT_SPACING = 0.02
_KNOTS = np.arange(0.0, GRID_HALF_WIDTH + KNOT_SPACING, KNOT_SPACING)  # j * KNOT_SPACING exactly
FFT_MODES = 2 ** 15
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


def _tail_coef(alpha: float, m: int) -> float:
    """c_m of the stable tail series p(x) ~ sum_m c_m |x|^{-m alpha - 1} of mu_alpha."""
    return (
        (-1) ** (m + 1) * math.gamma(m * alpha + 1.0) * math.sin(m * math.pi * alpha / 2.0)
        / ((2.0 * alpha) ** m * math.pi * math.factorial(m))
    )


def _images(s: float, x, period: float):
    """sum over k != 0 of |x + k period|^{-s}, for |x| < period (two Hurwitz zetas)."""
    return period ** -s * (special.zeta(s, 1.0 + x / period) + special.zeta(s, 1.0 - x / period))


def _cos_transform(alpha: float) -> np.ndarray:
    """(1/pi) int_0^inf cos(xi x) exp(-xi^alpha / (2 alpha)) dxi at the knots x_j = j KNOT_SPACING.

    One real FFT of the CF at xi_k = 2 pi k / L, k <= FFT_MODES / 2, with
    L = FFT_MODES * KNOT_SPACING, gives by Poisson summation the density
    periodized with period L, sum_k p(x + k L).  The images k != 0 of the
    first two terms of the tail series are subtracted in closed form.  What
    is left is bounded by the images of the third term (|sin| taken as 1)
    plus the CF past the Nyquist frequency pi / KNOT_SPACING; a bound over
    1e-11 raises, so a transform too short for alpha never returns.
    """
    period = FFT_MODES * KNOT_SPACING
    # The third tail term's images at the outermost knot, where they peak,
    # and the aliased CF past xi_c: phi(xi_c) / L for the halved Nyquist mode
    # plus (1/pi) int_{xi_c}^inf phi <= phi(xi_c) 2 xi_c^{1 - alpha} / pi.
    s3 = 3.0 * alpha + 1.0
    bound = math.gamma(s3) / (6.0 * math.pi * (2.0 * alpha) ** 3) * float(_images(s3, _KNOTS[-1], period))
    xi_c = math.pi / KNOT_SPACING
    bound += math.exp(-xi_c ** alpha / (2.0 * alpha)) * (1.0 / period + 2.0 * xi_c ** (1.0 - alpha) / math.pi)
    if not bound <= 1e-11:
        raise RuntimeError(f"CF inversion error bound {bound:.2e} exceeds 1e-11 at alpha = {alpha}")
    xi = np.arange(FFT_MODES // 2 + 1) * (2.0 * np.pi / period)
    xi **= alpha
    xi *= -1.0 / (2.0 * alpha)
    np.exp(xi, out=xi)
    vals = np.fft.irfft(xi, n=FFT_MODES)[: _KNOTS.size] / KNOT_SPACING
    for m in (1, 2):
        vals -= _tail_coef(alpha, m) * _images(m * alpha + 1.0, _KNOTS, period)
    return vals


@functools.lru_cache(maxsize=32)
def _ergodic_spline(alpha: float):
    """Cubic spline of the ergodic density on [0, GRID_HALF_WIDTH] (density is even)."""
    return CubicSpline(_KNOTS, _cos_transform(alpha))


def ergodic_density(alpha: float) -> GridDensity:
    """Ergodic density of the stable OU on the grid of GRID_CELLS cells on +-GRID_HALF_WIDTH.

    alpha = 2 is the exact Normal(0, 1/2) density.  For alpha < 2 the
    density comes from the FFT inversion at spline knots (the density and
    the CF are analytic, so the spline error is far below the inversion's
    1e-11 bound), with the stable power tail c |x|^{-1-alpha} beyond the
    grid, c = A(1, alpha) / alpha.
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
