"""The numpy spline and Gauss-Kronrod integrator against scipy, and the lab's import footprint.

The lab uses only scipy.special; these tests may import the rest of scipy
as the reference the two numpy kernels replace.
"""

import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.integrate import quad_vec
from scipy.interpolate import CubicSpline as ScipySpline

from stable_tv_lab import GridFunction, a_const, ou, pde
from stable_tv_lab._numerics import CubicSpline, quad

SRC = Path(__file__).resolve().parent.parent / "src"


def _lab_grids():
    """(knots, values) of every spline the lab builds, at the lab's sizes."""
    poisson = np.arange(-15.0, 15.0 + 1e-9, 0.01)
    symbol = np.arange(-4.0, 4.0 + 0.0025, 0.005)
    small = np.linspace(-1.0, 1.0, 9)
    yield ou._KNOTS, ou._cos_transform(1.9)
    yield ou._KNOTS, ou._cos_transform(1.05)
    yield poisson, pde.poisson_solution_grid(1.9, poisson).values
    yield symbol, np.cos(2.0 * symbol)
    yield symbol, np.sign(np.sin(40.0 * symbol))
    yield small, pde.poisson_solution_grid(1.8, small).values


@pytest.mark.parametrize("case", range(6))
def test_spline_matches_scipy_on_the_lab_grids(case):
    knots, values = list(_lab_grids())[case]
    ours, ref = CubicSpline(knots, values), ScipySpline(knots, values)
    rng = np.random.default_rng(case)
    xs = np.concatenate([knots, rng.uniform(knots[0], knots[-1], 20_000)])
    for got, want in ((ours(xs), ref(xs)), (ours.second_derivative(xs), ref(xs, 2))):
        # absolute on the smooth grids, relative to the square wave's curvatures of ~1e5
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert ours(knots[3]).shape == ()  # a scalar gives a 0-d array, as scipy's does


def test_spline_is_exact_on_cubics_and_validates():
    # not-a-knot reproduces any cubic; the end polynomials extend past the knots
    knots = np.linspace(-2.0, 3.0, 11)
    cubic = lambda x: 0.5 * x ** 3 - x ** 2 + 2.0 * x - 1.0
    s = CubicSpline(knots, cubic(knots))
    xs = np.linspace(-2.5, 3.5, 101)
    np.testing.assert_allclose(s(xs), cubic(xs), rtol=0, atol=1e-12)
    np.testing.assert_allclose(s.second_derivative(xs), 3.0 * xs - 2.0, rtol=0, atol=1e-11)
    assert np.isnan(s(np.nan))
    with pytest.raises(ValueError):
        CubicSpline(knots[:3], knots[:3])
    with pytest.raises(ValueError):
        CubicSpline(knots[::-1], knots)


def _kernel(f, alpha, x):
    """frac_laplacian_1d's integrand for one node at a time and for an array of nodes."""
    A, fx = a_const(1, alpha), float(f(x))
    return lambda z: (f(x + z) + f(x - z) - 2.0 * fx) * A * np.asarray(z) ** (-1.0 - alpha)


@pytest.mark.parametrize("alpha", [1.2, 1.9])
def test_quad_matches_scipy_quad_on_the_laplacian_panels(alpha):
    grid = np.arange(-15.0, 15.0 + 1e-9, 0.01)
    linear = pde.poisson_solution_grid(1.9, grid)
    callable_ = GridFunction.from_callable(lambda y: np.cos(2.0 * y), np.arange(-4.0, 4.0 + 0.0025, 0.005))
    for f, x, panels in (
        (linear, 0.7, [(0.02, 1.0, 200), (1.0, 15.7, 400)]),
        (callable_, 0.3, [(0.01, 1.0, 200), (1.0, 4.0, 400), (4.0, 16.0, 400), (16.0, 64.0, 400)]),
    ):
        g = _kernel(f, alpha, x)
        for lo, hi, limit in panels:
            got, err = quad(g, lo, hi, limit=limit)
            want, want_err = scipy_quad(lambda z: float(g(z)), lo, hi, limit=limit)
            assert isinstance(got, float)
            assert err <= 1.49e-8 * max(1.0, abs(got))
            assert abs(got - want) <= err + want_err, (lo, hi)


def test_quad_matches_quad_vec_on_the_poisson_integrand():
    # the grid is one vector-valued integral; the error estimate is a max-norm
    xs = np.arange(-15.0, 15.0 + 1e-9, 0.25)
    for alpha in (1.8, 2.0):
        mu = math.exp(-1.0 / (2.0 * alpha))
        scalar = lambda u: (np.cos(u * xs) * math.exp(-(1.0 - u ** alpha) / (2.0 * alpha)) - mu) / u
        vector = lambda u: (np.cos(np.multiply.outer(u, xs)) * np.exp(-(1.0 - u ** alpha) / (2.0 * alpha))[:, None]
                            - mu) / u[:, None]
        got, err = quad(vector, 0.0, 1.0, epsabs=1e-10, epsrel=0.0, limit=200)
        want, want_err = quad_vec(scalar, 0.0, 1.0, epsabs=1e-10, epsrel=0.0, norm="max", limit=200)
        assert got.shape == xs.shape and err <= 1e-10
        assert np.max(np.abs(got - want)) <= err + want_err


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_quad_reports_a_missed_tolerance_instead_of_raising():
    # a jump no bisection resolves: the limit stops it, and the estimate says so
    step = lambda z: (z > 1.0 / 3.0).astype(float)
    got, err = quad(step, 0.0, 1.0, limit=20)
    assert err > 1.49e-8 and abs(got - 2.0 / 3.0) <= err
    got, err = quad(lambda z: 1.0 / (z - 1.0 / 3.0) ** 2, 0.0, 1.0, limit=50)
    assert not err <= 1e-6


def test_lab_imports_only_scipy_special():
    # The lab's closed-form layer runs on numpy and scipy.special alone, so a
    # fresh interpreter running it loads none of the heavier subpackages.
    code = textwrap.dedent(
        """
        import sys
        import numpy as np
        import stable_tv_lab
        from stable_tv_lab import campaigns, pde

        campaigns.run_campaign(campaigns.ExperimentConfig(campaign="ou-rate"))
        campaigns.run_campaign(campaigns.ExperimentConfig(
            campaign="poisson-rate", params={"x_half": 4.0, "x_step": 0.05, "residual_x": 1.0}))
        f = pde.GridFunction.from_callable(np.cos, np.arange(-4.0, 4.0 + 0.0025, 0.005))
        pde.frac_laplacian_1d(f, 1.8, 0.3)
        heavy = ("integrate", "interpolate", "optimize", "linalg", "sparse")
        loaded = sorted(m for m in sys.modules if m.split(".")[:2] in [["scipy", h] for h in heavy])
        print(loaded, "scipy" in sys.modules, "scipy.special" in sys.modules)
        """
    )
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out.split() == ["[]", "True", "True"], out
