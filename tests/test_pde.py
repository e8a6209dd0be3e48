"""Fractional-Laplacian quadrature and Poisson-equation solver tests.

POISSON_F0 freezes f(0) = int_0^1 (mu - exp(-(1 - u^alpha)/(2 alpha)))/u du
computed with 30-digit mpmath quadrature (substituting u = e^{-t} in the
time integral of the cosine semigroup).
"""

import math

import numpy as np
import pytest

from stable_tv_lab import (
    GridFunction,
    a_const,
    drift_registry,
    frac_laplacian_1d,
    generator_p,
    generator_q,
    lin_norm_diff,
    poisson_solution_grid,
)
from stable_tv_lab.pde import _half_angle_cos

POISSON_F0 = {
    2.0: -0.103789001406,
    1.8: -0.125538707842,
    1.9: -0.113891564609,
    1.95: -0.108664915271,
    1.99: -0.104737644097,
}

OU = drift_registry("ou")
SMALL_GRID = np.linspace(-1.0, 1.0, 9)  # holds 0 and 0.5 as knots


def _cos_grid(half=4.0, step=0.005):
    grid = np.arange(-half, half + step / 2, step)
    return GridFunction.from_callable(np.cos, grid)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 1.0, 3.0] + list(range(4, 12))), np.zeros(12))  # non-uniform
    with pytest.raises(ValueError):
        GridFunction(np.linspace(0, 1, 5), np.zeros(5))  # too short
    with pytest.raises(ValueError):
        GridFunction(np.linspace(0, 1, 10), np.full(10, np.nan))


def test_grid_function_derivatives_of_cos():
    f = _cos_grid()
    assert f.deriv1(0.5) == pytest.approx(-math.sin(0.5), abs=1e-9)
    assert f.deriv2(0.5) == pytest.approx(-math.cos(0.5), abs=1e-8)
    with pytest.raises(ValueError):
        f.deriv1(0.5001234)  # not a grid point
    for x in (-4.0, 100.0, -4.2):  # no room for the stencil, or off the grid
        with pytest.raises(ValueError):
            f.deriv2(x)
        with pytest.raises(ValueError):
            f.deriv1(x)


def test_linear_extension_reproduces_affine_functions():
    grid = np.linspace(-2.0, 2.0, 101)
    f = GridFunction(grid, 3.0 - 0.5 * grid)
    a, b = f.side_model(1)
    assert (a, b) == (pytest.approx(3.0), pytest.approx(-0.5))
    assert f(10.0) == pytest.approx(-2.0)
    assert f(-10.0) == pytest.approx(8.0)


def test_callable_extension_has_no_side_model():
    f = _cos_grid()
    assert f(100.0) == pytest.approx(math.cos(100.0))
    with pytest.raises(ValueError):
        f.side_model(0)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("xi", [0.5, 2.0])
def test_frac_laplacian_symbol_on_cosines(alpha, xi):
    # L cos(xi .) (x) = -(|xi|^alpha / 2) cos(xi x), half-speed normalization
    grid = np.arange(-4.0, 4.0 + 0.0025, 0.005)
    f = GridFunction.from_callable(lambda x: np.cos(xi * x), grid)
    for x in (0.0, 0.3):
        got = frac_laplacian_1d(f, alpha, x)
        want = -(abs(xi) ** alpha / 2.0) * math.cos(xi * x)
        assert got == pytest.approx(want, rel=1e-3, abs=1e-6)


def test_callable_far_field_runs_until_its_bound_is_met():
    # The far-field panels stop only once their bound on the remaining mass,
    # 4 (max|f| + 1) A / (alpha z^alpha), is below 1e-10.  At alpha = 1.2
    # that takes z past 2.3e8.
    alpha, x, reach = 1.2, 0.3, [0.0]

    def extension(y):
        reach[0] = max(reach[0], float(np.max(np.abs(y))))
        return np.cos(0.5 * y)

    f = GridFunction.from_callable(extension, np.arange(-4.0, 4.0 + 0.0025, 0.005))
    frac_laplacian_1d(f, alpha, x)
    z = reach[0] - x
    assert 4.0 * 2.0 * a_const(1, alpha) / (alpha * z ** alpha) < 1e-10


def test_callable_far_field_raises_on_quad_error():
    # cos(50 .) oscillates too fast for the far-field panels: their summed
    # quad error estimate is ~1e-4 and the sum is off by ~3e-3 relative
    f = GridFunction.from_callable(lambda y: np.cos(50.0 * y), np.arange(-4.0, 4.0 + 0.0025, 0.005))
    with pytest.raises(RuntimeError, match="error estimate"):
        frac_laplacian_1d(f, 1.2, 0.3)


def test_linear_extension_raises_on_quad_error():
    # a square wave of period ~0.16: the [delta, 1] and [1, z0] integrals
    # both hit their subdivision limits, and the sum is off
    grid = np.arange(-4.0, 4.0 + 0.0025, 0.005)
    f = GridFunction(grid, np.sign(np.sin(40.0 * grid)))
    with pytest.raises(RuntimeError, match="error estimate"):
        frac_laplacian_1d(f, 1.5, 0.3)


def test_frac_laplacian_input_validation():
    f = _cos_grid()
    with pytest.raises(ValueError):
        frac_laplacian_1d(f, 2.0, 0.0)  # alpha = 2 is the local generator
    with pytest.raises(ValueError):
        frac_laplacian_1d(f, 1.5, 10.0)  # x off the grid


def test_generator_q_on_cos():
    f = _cos_grid()
    x = 0.5
    want = -x * (-math.sin(x)) + 0.5 * (-math.cos(x))
    assert generator_q(f, OU, x) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("alpha,expected", sorted(POISSON_F0.items()))
def test_poisson_solution_at_origin(alpha, expected):
    assert poisson_solution_grid(alpha, SMALL_GRID)(0.0) == pytest.approx(expected, abs=1e-7)


def test_half_angle_cos_matches_np_cos():
    theta = np.random.default_rng(8).uniform(-1e5, 1e5, 1_000_000)
    before = theta.copy()
    assert np.max(np.abs(_half_angle_cos(theta) - np.cos(theta))) <= 4.5e-16
    assert np.array_equal(theta, before)  # the input is not modified
    # tan(theta / 2) is huge but finite at odd multiples of pi, so t^2 swamps the 1s
    odd = np.arange(-2001, 2002, 2) * np.pi
    assert np.all(_half_angle_cos(odd) == -1.0)
    assert np.all(_half_angle_cos(np.array([0.0, -0.0])) == 1.0)


def test_poisson_solution_solves_the_equation():
    # residual of A f - (h - mu(h)) at interior points, Brownian case
    grid = np.arange(-10.0, 10.0 + 0.005, 0.01)
    f2 = poisson_solution_grid(2.0, grid)
    mu = math.exp(-0.25)
    for x in (-1.0, 0.0, 0.7, 2.0):
        resid = generator_q(f2, OU, x) - (math.cos(x) - mu)
        assert abs(resid) < 1e-3
    # and the stable case via the nonlocal generator
    fa = poisson_solution_grid(1.9, grid)
    mua = math.exp(-1.0 / 3.8)
    for x in (0.0, 0.7):
        resid = generator_p(fa, OU, 1.9, x) - (math.cos(x) - mua)
        assert abs(resid) < 1e-2


def test_generator_residual_at_every_grid_point():
    # the poisson-rate grid, at all 601 points with |x| <= 3
    grid = np.arange(-15.0, 15.0 + 1e-9, 0.01)
    xs = grid[np.abs(grid) <= 3.0 + 1e-9]
    assert xs.size == 601
    f2 = poisson_solution_grid(2.0, grid)
    mu = math.exp(-0.25)
    assert max(abs(generator_q(f2, OU, x) - (math.cos(x) - mu)) for x in xs) < 1e-3
    fa = poisson_solution_grid(1.9, grid)
    mua = math.exp(-1.0 / 3.8)
    assert max(abs(generator_p(fa, OU, 1.9, x) - (math.cos(x) - mua)) for x in xs) < 1e-2


def test_poisson_engine_validation():
    with pytest.raises(ValueError):
        poisson_solution_grid(1.0, SMALL_GRID)


def test_lin_norm_diff_requires_matching_grids():
    grid = np.linspace(-1.0, 1.0, 21)
    f = GridFunction(grid, grid)
    g = GridFunction(grid, grid + 0.5 * (1.0 + np.abs(grid)))
    assert lin_norm_diff(f, g) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        lin_norm_diff(f, GridFunction(np.linspace(-1, 1, 41), np.zeros(41)))
