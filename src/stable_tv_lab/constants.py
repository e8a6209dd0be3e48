"""Closed-form constants of the jump kernel and the subordinator.

    A(d, alpha) = alpha * Gamma((d + alpha)/2)
                  / (2^{2 - alpha} * pi^{d/2} * Gamma(1 - alpha/2))
    omega_{d-1} = 2 pi^{d/2} / Gamma(d/2)

All Gamma evaluations go through log-Gamma so that d up to ~50 does not
overflow.  E[S_t^{-1}] = Gamma(1 + 2/alpha) * 2^{2/alpha} * t^{-2/alpha} / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammaln


@dataclass(frozen=True)
class ConstantReport:
    d: int
    alpha: float
    A: float
    omega: float
    ratio: float
    tail_mass: float | None


def _check_alpha(alpha: float, lo: float = 0.0, hi: float = 2.0) -> None:
    if not lo < alpha < hi:
        raise ValueError(f"alpha must be in ({lo}, {hi}), got {alpha}")


def a_const(d: int, alpha: float) -> float:
    """Jump-kernel constant A(d, alpha), via log-Gamma."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    _check_alpha(alpha)
    log_a = (
        math.log(alpha)
        + gammaln((d + alpha) / 2.0)
        - (2.0 - alpha) * math.log(2.0)
        - (d / 2.0) * math.log(math.pi)
        - gammaln(1.0 - alpha / 2.0)
    )
    return math.exp(log_a)


def omega_sphere(d: int) -> float:
    """Surface measure of the unit sphere S^{d-1}: 2 pi^{d/2} / Gamma(d/2)."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return math.exp(math.log(2.0) + (d / 2.0) * math.log(math.pi) - gammaln(d / 2.0))


def ratio_to_limit(d: int, alpha: float) -> float:
    """A(d, alpha) * omega_{d-1} / (d (2 - alpha)); tends to 1 as alpha -> 2."""
    _check_alpha(alpha)
    return a_const(d, alpha) * omega_sphere(d) / (d * (2.0 - alpha))


def jump_tail_mass(d: int, alpha: float) -> float:
    """First moment of the jump kernel outside the unit ball.

    Equals A(d, alpha) * omega_{d-1} / (alpha - 1); diverges as alpha -> 1.
    """
    _check_alpha(alpha, lo=1.0)
    return a_const(d, alpha) * omega_sphere(d) / (alpha - 1.0)


def s_inverse_moment(alpha: float, t: float) -> float:
    """E[S_t^{-1}] = Gamma(1 + 2/alpha) * 2^{2/alpha} * t^{-2/alpha} / 2."""
    _check_alpha(alpha)
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    return 0.5 * math.exp(gammaln(1.0 + 2.0 / alpha)) * 2.0 ** (2.0 / alpha) * t ** (-2.0 / alpha)


def constant_report(d: int, alpha: float) -> ConstantReport:
    tail = jump_tail_mass(d, alpha) if alpha > 1.0 else None
    return ConstantReport(
        d=d,
        alpha=alpha,
        A=a_const(d, alpha),
        omega=omega_sphere(d),
        ratio=ratio_to_limit(d, alpha),
        tail_mass=tail,
    )
