"""1-D fractional Laplacian quadrature, generators, and Poisson solutions.

The nonlocal operator uses the jump kernel A(1, alpha) |z|^{-1-alpha} with
small-jump compensation, so plane waves reproduce the half-speed symbol:
applying it to cos(xi x) must return -(|xi|^alpha / 2) cos(xi x).  This
symbol check pins the normalization of the whole module.

Poisson solutions follow the probabilistic representation
f(x) = int_0^inf [mu(h) - P_t h(x)] dt.  poisson_solution_grid solves the
one problem with a closed form, the OU drift with h = cos, on a whole grid
in one vectorized integral (cosines from tan, _half_angle_cos).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.interpolate import CubicSpline

from stable_tv_lab.constants import a_const
from stable_tv_lab.ou import transition_cf
from stable_tv_lab.sde import DriftField


@dataclass(frozen=True)
class GridFunction:
    """Function on a uniform 1-D grid with a declared off-grid extension.

    extension is one of
      ("linear",)        linear model per side, fitted on the outer 10%
                         (Poisson solutions grow at most linearly)
      ("callable", fn)   exact analytic extension (used for test functions
                         like cos, whose off-grid values are known)
    The extension must be explicit because the fractional Laplacian is
    nonlocal and always sees off-grid values.  deriv1 and deriv2 take grid
    points at least two cells inside the grid and raise ValueError for any
    other x.
    """

    grid: np.ndarray
    values: np.ndarray
    extension: tuple = ("linear",)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 8:
            raise ValueError("grid must be 1-D with at least 8 points")
        if values.shape != grid.shape:
            raise ValueError("values must match the grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        steps = np.diff(grid)
        if not np.allclose(steps, steps[0], rtol=1e-9):
            raise ValueError("grid must be uniform")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        spline = CubicSpline(grid, values)
        object.__setattr__(self, "_spline", spline)
        # for the scalar path: knots as a list for bisect, and the spline
        # coefficients flat, 4 per interval, in an array (8 bytes each, not
        # the ~50 of a list of Python floats)
        object.__setattr__(self, "_knots", grid.tolist())
        object.__setattr__(self, "_coefs", array("d", spline.c.T.ravel()))
        object.__setattr__(self, "_side_models", self._fit_sides(grid, values))

    def _fit_sides(self, grid, values):
        kind = self.extension[0]
        if kind == "callable":
            return None
        if kind != "linear":
            raise ValueError(f"unknown extension {self.extension!r}")
        m = max(4, grid.size // 10)
        left = np.polyfit(grid[:m], values[:m], 1)
        right = np.polyfit(grid[-m:], values[-m:], 1)
        # store as (intercept a, slope b) for f ~ a + b x
        return ((left[1], left[0]), (right[1], right[0]))

    @property
    def h(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @classmethod
    def from_callable(cls, fn: Callable, grid) -> "GridFunction":
        grid = np.asarray(grid, dtype=float)
        return cls(grid=grid, values=np.asarray(fn(grid), dtype=float), extension=("callable", fn))

    def side_model(self, side: int):
        """(a, b): off-grid model a + b x on the left (0) or right (1)."""
        if self._side_models is None:
            raise ValueError("callable extension has no linear side model")
        return self._side_models[side]

    def __call__(self, x):
        if isinstance(x, float):
            return self._at(x)
        x = np.asarray(x, dtype=float)
        if self.extension[0] == "callable":
            inside = (x >= self.grid[0]) & (x <= self.grid[-1])
            out = np.where(inside, self._spline(np.clip(x, self.grid[0], self.grid[-1])), 0.0)
            if not np.all(inside):
                out = np.where(inside, out, self.extension[1](x))
            return out if out.ndim else float(out)
        al, bl = self._side_models[0]
        ar, br = self._side_models[1]
        out = np.where(
            x < self.grid[0],
            al + bl * x,
            np.where(
                x > self.grid[-1],
                ar + br * x,
                self._spline(np.clip(x, self.grid[0], self.grid[-1])),
            ),
        )
        return out if out.ndim else float(out)

    def _at(self, x: float) -> float:
        """One point, bit for bit as the array path, without its numpy overhead.

        The quadratures call f one scalar at a time.  On the grid this is
        the spline's own interval choice (x[i] <= x < x[i+1], the last
        knot in the last interval) and its power sum in scipy's order.
        """
        knots = self._knots
        if knots[0] <= x <= knots[-1]:
            i = min(bisect_right(knots, x), len(knots) - 1) - 1
            c, j, s = self._coefs, 4 * i, x - knots[i]
            return 0.0 + c[j + 3] + c[j + 2] * s + c[j + 1] * (s * s) + c[j] * (s * s * s)
        if self.extension[0] == "callable":
            return float(self.extension[1](x))
        a, b = self._side_models[1 if x > knots[-1] else 0]
        return float(a + b * x)

    def _index_of(self, x: float, pad: int) -> int:
        i = int(round((x - self.grid[0]) / self.h))
        if not pad <= i <= self.grid.size - 1 - pad:
            raise ValueError(f"x = {x} is not {pad} cells inside the grid, as the stencil needs")
        if abs(self.grid[i] - x) > 1e-9 * max(1.0, abs(x)):
            raise ValueError(f"x = {x} is not a grid point")
        return i

    def deriv1(self, x: float) -> float:
        """4th-order central first derivative at a grid point."""
        i = self._index_of(x, 2)
        v, h = self.values, self.h
        return float((-v[i + 2] + 8 * v[i + 1] - 8 * v[i - 1] + v[i - 2]) / (12 * h))

    def deriv2(self, x: float) -> float:
        """4th-order central second derivative at a grid point."""
        i = self._index_of(x, 2)
        v, h = self.values, self.h
        return float(
            (-v[i + 2] + 16 * v[i + 1] - 30 * v[i] + 16 * v[i - 1] - v[i - 2]) / (12 * h * h)
        )


def frac_laplacian_1d(f: GridFunction, alpha: float, x: float) -> float:
    """Compensated singular quadrature of the fractional Laplacian at x.

    Uses the symmetrized increment g(z) = f(x+z) + f(x-z) - 2 f(x), which
    absorbs the gradient compensator, split into
      [0, delta)   Taylor closure  f''(x) * A * delta^{2-alpha}/(2-alpha)
      [delta, 1)   adaptive quadrature on spline values
      [1, z0)      adaptive quadrature on spline + extension values
      [z0, inf)    analytic integral of the linear extension model
    with delta = 2 grid cells.  A callable extension instead takes [1, inf)
    in panels growing by 4x, those past z0 calling the extension directly,
    until a bound on the remaining mass falls below 1e-10.  Either way the
    call raises RuntimeError when the summed error estimates of its quad
    calls exceed 1e-6.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must be in (1, 2), got {alpha}")
    grid = f.grid
    if not grid[0] < x < grid[-1]:
        raise ValueError("x must be interior to the grid")
    A = a_const(1, alpha)
    delta = 2.0 * f.h
    if delta >= 1.0:
        raise ValueError(f"grid step {f.h} too coarse: two cells must span less than 1")
    fx = float(f(x))
    g = lambda z: f(x + z) + f(x - z) - 2.0 * fx
    kernel = lambda z: g(z) * A * z ** (-1.0 - alpha)

    # singular closure
    f2 = float(f._spline(x, 2))
    inner = f2 * A * delta ** (2.0 - alpha) / (2.0 - alpha)

    mid, err = quad(kernel, delta, 1.0, limit=200, full_output=1)[:2]

    # z0: beyond it both x+z and x-z are off the grid
    z0 = max(grid[-1] - x, x - grid[0])
    if f.extension[0] == "callable":
        # integrate outward in growing panels until the contribution dies;
        # panels past z0 see only the extension, so they call it directly
        fn = f.extension[1]
        off_grid = lambda z: (fn(x + z) + fn(x - z) - 2.0 * fx) * A * z ** (-1.0 - alpha)
        f_max = float(np.max(np.abs(f.values)))
        far = 0.0
        z_lo = 1.0
        while True:
            z_hi = z_lo * 4.0
            part, part_err = quad(off_grid if z_lo >= z0 else kernel, z_lo, z_hi, limit=400, full_output=1)[:2]
            far += part
            err += part_err
            # worst-case remaining mass, |g| <= 4 max|f| on the panel scale
            bound = 4.0 * (f_max + 1.0) * A / (alpha * z_hi ** alpha)
            z_lo = z_hi
            if bound < 1e-10:
                break
        total = inner + mid + far
    else:
        far_grid, far_err = quad(kernel, 1.0, z0, limit=400, full_output=1)[:2] if z0 > 1.0 else (0.0, 0.0)
        err += far_err
        al, bl = f.side_model(0)
        ar, br = f.side_model(1)
        z_star = max(z0, 1.0)
        c0 = (ar + br * x) + (al + bl * x) - 2.0 * fx
        c1 = br - bl
        tail = A * (c0 / (alpha * z_star ** alpha) + c1 * z_star ** (1.0 - alpha) / (alpha - 1.0))
        total = inner + mid + far_grid + tail
    if not err <= 1e-6:
        raise RuntimeError(f"summed quad error estimate {err:.2e} exceeds 1e-6")
    return total


def generator_q(f: GridFunction, drift: DriftField, x: float) -> float:
    """Brownian generator b(x) f'(x) + f''(x)/2 (sigma = identity, 1-D)."""
    bx = float(drift.b(np.array([[x]]))[0, 0])
    return bx * f.deriv1(x) + 0.5 * f.deriv2(x)


def generator_p(f: GridFunction, drift: DriftField, alpha: float, x: float) -> float:
    """Stable generator b(x) f'(x) + (half-speed fractional Laplacian)."""
    bx = float(drift.b(np.array([[x]]))[0, 0])
    return bx * f.deriv1(x) + frac_laplacian_1d(f, alpha, x)


def _half_angle_cos(theta: np.ndarray) -> np.ndarray:
    """cos(theta) as (1 - t^2) / (1 + t^2) with t = tan(theta / 2); theta is not modified.

    numpy's AVX-512 builds vectorize float64 tan, not cos, so this is the
    cheaper cosine for the Poisson grid; it is within ~2e-16 of np.cos
    and exactly -1 at odd multiples of pi, where t is huge but finite.
    """
    t = np.multiply(theta, 0.5)
    np.tan(t, out=t)
    t *= t
    num = 1.0 - t
    t += 1.0
    num /= t
    return num


def poisson_solution_grid(alpha: float, grid) -> GridFunction:
    """The OU Poisson solution for h = cos on a grid, with the linear extension.

    f(x) = -int_0^1 [cos(u x) e^{-(1 - u^alpha)/(2 alpha)} - mu_alpha(cos)] / u du
    is the time integral with u = e^{-t}: P_t cos(x) is
    cos(u x) e^{-(1 - u^alpha)/(2 alpha)} (alpha = 2 is the Brownian case),
    and the whole grid is one vector-valued quadrature.  The integrand is
    O(u^{alpha - 1}) at u = 0.  Since int_0^inf (A P_t h) dt = mu(h) - h,
    f solves the Poisson equation A f = h - mu(h); the residual tests pin
    the sign.
    """
    xs = np.asarray(grid, dtype=float)
    mu = transition_cf(alpha, 1.0).real
    integrand = lambda u: (_half_angle_cos(u * xs) * math.exp(-(1.0 - u ** alpha) / (2.0 * alpha)) - mu) / u
    val, _, info = quad_vec(
        integrand, 0.0, 1.0, epsabs=1e-10, epsrel=0.0, norm="max", limit=200, full_output=True
    )
    if info.status != 0:
        raise RuntimeError(f"Poisson integral did not converge: {info.message}")
    return GridFunction(grid=xs, values=-val)


def lin_norm_diff(f_a: GridFunction, f_b: GridFunction) -> float:
    """max over the grid of |f_a - f_b| / (1 + |x|)."""
    if f_a.grid.shape != f_b.grid.shape or not np.allclose(f_a.grid, f_b.grid):
        raise ValueError("grid mismatch")
    return float(np.max(np.abs(f_a.values - f_b.values) / (1.0 + np.abs(f_a.grid))))
