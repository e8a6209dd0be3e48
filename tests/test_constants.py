"""Closed-form constants against independently computed high-precision values.

The frozen decimals below were produced with 30-digit mpmath arithmetic
from the defining Gamma-function formulas.
"""

import math

import numpy as np
import pytest

from stable_tv_lab.constants import (
    a_const,
    constant_report,
    jump_tail_mass,
    omega_sphere,
    ratio_to_limit,
    s_inverse_moment,
)

# (d, alpha) -> A(d, alpha), 12 significant digits
A_ORACLE = {
    (1, 1.0): 0.159154943092,
    (1, 1.5): 0.149603355151,
    (2, 1.5): 0.0855835648453,
    (3, 1.9): 0.0209987598867,
    (1, 1.99): 0.00495396723814,
}


@pytest.mark.parametrize("key,expected", sorted(A_ORACLE.items()))
def test_a_const_matches_oracle(key, expected):
    d, alpha = key
    assert a_const(d, alpha) == pytest.approx(expected, rel=1e-10)


def test_a_const_one_dim_alpha_one_is_cauchy_constant():
    # d = 1, alpha = 1 is the Cauchy jump kernel, A = 1/(2 pi)
    assert a_const(1, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)


def test_omega_sphere_low_dimensions():
    assert omega_sphere(1) == pytest.approx(2.0)
    assert omega_sphere(2) == pytest.approx(2.0 * math.pi)
    assert omega_sphere(3) == pytest.approx(4.0 * math.pi)


def test_ratio_to_limit_values_and_trend():
    assert ratio_to_limit(1, 1.99) == pytest.approx(0.990793447628, rel=1e-10)
    # the normalized ratio A omega / (d (2 - alpha)) increases to 1 near alpha = 2
    for d in (1, 2, 3):
        ratios = [ratio_to_limit(d, a) for a in (1.5, 1.9, 1.99, 1.999)]
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1.0) < 1e-2


def test_jump_tail_mass_consistency():
    # mass of the jump kernel outside the unit ball: A omega / (alpha - 1)
    for d, alpha in [(1, 1.5), (2, 1.2), (3, 1.9)]:
        expected = a_const(d, alpha) * omega_sphere(d) / (alpha - 1.0)
        assert jump_tail_mass(d, alpha) == pytest.approx(expected, rel=1e-12)
        assert jump_tail_mass(d, alpha) > 0.0


def test_s_inverse_moment_levy_case_is_exactly_four():
    # alpha = 1 subordinator at t = 1 is the Levy law with E[S^{-1}] = 4
    assert s_inverse_moment(1.0, 1.0) == pytest.approx(4.0, rel=1e-13)


@pytest.mark.parametrize(
    "alpha,t,expected",
    [(1.5, 2.0, 0.595319674379), (1.25, 0.5, 6.5688295161)],
)
def test_s_inverse_moment_oracle(alpha, t, expected):
    assert s_inverse_moment(alpha, t) == pytest.approx(expected, rel=1e-10)


def test_s_inverse_moment_scaling_in_t():
    # E[S_t^{-1}] = t^{-2/alpha} E[S_1^{-1}]
    alpha = 1.7
    assert s_inverse_moment(alpha, 3.0) == pytest.approx(
        3.0 ** (-2.0 / alpha) * s_inverse_moment(alpha, 1.0), rel=1e-12
    )


def test_constant_report_bundles_consistent_fields():
    r = constant_report(2, 1.5)
    assert (r.d, r.alpha) == (2, 1.5)
    assert r.A == pytest.approx(a_const(2, 1.5))
    assert r.omega == pytest.approx(omega_sphere(2))
    assert r.ratio == pytest.approx(ratio_to_limit(2, 1.5))
    assert r.tail_mass == pytest.approx(jump_tail_mass(2, 1.5))


@pytest.mark.parametrize("alpha", [0.0, 2.0, 2.5, -1.0])
def test_a_const_rejects_alpha_outside_open_interval(alpha):
    with pytest.raises(ValueError):
        a_const(1, alpha)
