"""Closed-form OU laws: characteristic functions, ergodic densities, and the
exact total-variation curve.

The EXACT_TV oracle values were produced by an independent FFT inversion of
the ergodic characteristic functions (2^22 modes on [-200, 200]) and agree
with the package's route to ~1e-7; they are frozen at 1e-5 tolerance.

KNOT_DENSITY freezes the ergodic density at spline knots, computed by
30-digit mpmath quadrature of the cosine transform (~45 s in all):

    mp.dps = 30; phi = lambda s: cos(s * x) * exp(-s ** alpha / (2 * alpha))
    p = (quad(phi, linspace(0, 250, max(8, int(250 * x / pi) + 1) + 1))
         + quad(phi, [250, inf])) / pi

with alpha and x as mpf; the x = 0 values equal the closed form
(2 alpha)^{1/alpha} Gamma(1 + 1/alpha) / pi to all digits.
"""

import math

import numpy as np
import pytest

from stable_tv_lab import ou
from stable_tv_lab.distances import tv_from_densities
from stable_tv_lab.ou import ergodic_density, exact_tv_mu, lb_curve, transition_cf

EXACT_TV = {
    1.7: 0.0852263394,
    1.9: 0.0267560252,
    1.95: 0.0131882511,
    1.99: 0.0026080876,
    1.995: 0.0013022198,
}

KNOT_DENSITY = {
    (1.05, 0): 0.6328531462849576112097489,
    (1.05, 1): 0.13033096861341109963752,
    (1.05, 10): 0.001383582360823612104898648,
    (1.05, 40): 0.00008040248951176811215337821,
    (1.5, 0): 0.5977178098051018105530983,
    (1.5, 1): 0.1623165798711842762362388,
    (1.5, 10): 0.0003262315024718419806704143,
    (1.5, 40): 0.000009897545302782010033816173,
    (1.9, 0): 0.5702967011659866266907876,
    (1.9, 1): 0.1987632301741335461844445,
    (1.9, 10): 0.00003114627269002003390415114,
    (1.9, 40): 0.0000005423072591046562747653617,
    (1.9995, 0): 0.5642194034095981375690435,
    (1.9995, 1): 0.2075108672697724319259945,
    (1.9995, 10): 0.0000001290201923368221293676943,
    (1.9995, 40): 1.959997692793245469661973e-9,
}


def test_transition_cf_validation():
    with pytest.raises(ValueError):
        transition_cf(1.0, 1.0)
    with pytest.raises(ValueError):
        transition_cf(1.5, 1.0, x=2.0, t=-1.0)
    with pytest.raises(ValueError):
        transition_cf(1.5, 1.0, x=2.0, t=math.nan)


def test_transition_cf_limits():
    # t = 0: the law is the point mass at x
    assert transition_cf(1.5, 1.3, x=2.0, t=0.0) == pytest.approx(np.exp(1.3j * 2.0))
    # t -> infinity: the transition law forgets x and becomes ergodic
    assert transition_cf(1.5, 1.3, x=2.0, t=60.0) == pytest.approx(transition_cf(1.5, 1.3), abs=1e-12)
    assert transition_cf(1.5, 1.3, x=2.0, t=math.inf) == transition_cf(1.5, 1.3)


def test_ergodic_cf_closed_form():
    for alpha in (1.2, 1.7, 2.0):
        for xi in (0.5, 1.0, 3.0):
            assert transition_cf(alpha, xi) == pytest.approx(
                math.exp(-abs(xi) ** alpha / (2.0 * alpha))
            )


def test_lb_curve_values():
    # frozen high-precision evaluation of e^{-1/4} - e^{-1/(2 alpha)}
    assert lb_curve(1.9) == pytest.approx(0.0101802564776691, rel=1e-12)
    assert lb_curve(2.0) == 0.0
    with pytest.raises(ValueError):
        lb_curve(1.0)


def test_lb_curve_asymptotic_slope():
    # lb(alpha) / (2 - alpha) -> e^{-1/4} / 8 as alpha -> 2
    limit = math.exp(-0.25) / 8.0
    assert lb_curve(1.999) / 0.001 == pytest.approx(limit, rel=0.002)
    assert lb_curve(1.9999) / 0.0001 == pytest.approx(limit, rel=0.0002)


def test_cos_semigroup_boundary_behaviour():
    # P_t cos(x) is the real part of the CF at xi = 1
    alpha, x = 1.6, 0.7
    assert transition_cf(alpha, 1.0, x, 0.0).real == pytest.approx(math.cos(x))
    mu = math.exp(-1.0 / (2.0 * alpha))
    assert transition_cf(alpha, 1.0, x, 50.0).real == pytest.approx(mu, abs=1e-12)


@pytest.mark.parametrize("alpha", sorted({a for a, _ in KNOT_DENSITY}))
def test_density_at_knots_matches_mpmath_oracle(alpha):
    vals = ou._cos_transform(alpha)
    for (a, x), expected in KNOT_DENSITY.items():
        if a == alpha:
            assert ou._KNOTS[round(x / ou.KNOT_SPACING)] == x
            assert vals[round(x / ou.KNOT_SPACING)] == pytest.approx(expected, abs=1e-11)


def test_too_short_transform_raises(monkeypatch):
    # at 2^13 modes (period 163.84) the third tail term's images alone exceed 1e-11
    monkeypatch.setattr(ou, "FFT_MODES", 2 ** 13)
    with pytest.raises(RuntimeError, match="error bound"):
        ou._cos_transform(1.05)


def test_brownian_ergodic_density_is_gaussian():
    d = ergodic_density(2.0)
    x = d.grid
    np.testing.assert_allclose(d.values, np.exp(-(x**2)) / math.sqrt(math.pi), atol=1e-12)
    assert d.total_mass() == pytest.approx(1.0, abs=1e-6)


def test_stable_ergodic_density_shape():
    d = ergodic_density(1.5)
    assert np.all(d.values >= 0.0)
    assert d.total_mass() == pytest.approx(1.0, abs=1e-6)
    # symmetric law: density symmetric on the grid
    np.testing.assert_allclose(d.values, d.values[::-1], atol=1e-10)
    # heavier than Gaussian in the far field
    g = ergodic_density(2.0)
    far = np.searchsorted(d.grid, 5.0)
    assert d.values[far] > g.values[far]
    assert d.tail_c > 0.0 and d.tail_exponent == pytest.approx(1.5)


@pytest.mark.parametrize("alpha,expected", sorted(EXACT_TV.items()))
def test_exact_tv_against_fft_oracle(alpha, expected):
    assert exact_tv_mu(alpha) == pytest.approx(expected, abs=1e-5)


def test_exact_tv_dominates_the_cosine_bound():
    for alpha in (1.7, 1.9, 1.95, 1.99):
        assert exact_tv_mu(alpha) >= lb_curve(alpha)


def test_exact_tv_agrees_with_generic_density_route():
    alpha = 1.9
    tv = tv_from_densities(ergodic_density(alpha), ergodic_density(2.0))
    assert tv == pytest.approx(exact_tv_mu(alpha), abs=1e-6)


def test_exact_tv_rejects_alpha_out_of_range():
    with pytest.raises(ValueError):
        exact_tv_mu(1.01)
    with pytest.raises(ValueError):
        exact_tv_mu(2.0)
