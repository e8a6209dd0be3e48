"""Reference values computed apart from the program.

Nothing here imports stable_tv_lab: every value comes from numpy, scipy
or mpmath, straight from a closed form.  run.py computes them before any
round starts, so oracle work counts in neither setup_s nor wall_s, and
nothing is stored: each run recomputes them from its inputs.  To print
them for one seed:

    python3 perfbench/oracles.py --workload closed-form --seed 0
"""

from __future__ import annotations

import argparse
import json
import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import erf

from inputs import WORKLOADS, build, key

# Fourier grid for the TV oracle: period 4000, 2^20 modes (dx = 0.0038).
# The periodization folds back the mass beyond |x| = 2000, which is below
# 2e-7 for alpha >= 1.7, so the TV error is far under the 1e-5 tolerance.
FFT_HALF_WIDTH = 2000.0
FFT_MODES = 2 ** 20


def ergodic_tv_fft(alpha: float) -> float:
    """int |p_alpha - p_2| for the OU ergodic laws, CF exp(-|xi|^alpha / (2 alpha)).

    The densities come from one inverse real FFT of the CF sampled on the
    dual grid, which by Poisson summation is the density periodized with
    period 2 * FFT_HALF_WIDTH.
    """
    xi = (np.pi / FFT_HALF_WIDTH) * np.arange(FFT_MODES // 2 + 1)
    scale = FFT_MODES / (2.0 * FFT_HALF_WIDTH)
    p = np.fft.irfft(np.exp(-xi ** alpha / (2.0 * alpha)), n=FFT_MODES) * scale
    q = np.fft.irfft(np.exp(-xi ** 2 / 4.0), n=FFT_MODES) * scale
    dx = 2.0 * FFT_HALF_WIDTH / FFT_MODES
    return float(np.sum(np.abs(p - q)) * dx)


def ou_noise(alpha: float, t: float, dt: float | None = None):
    """(m, c): X_t = m x + noise with noise CF exp(-c |xi|^alpha).

    dt = None is the exact OU transition; otherwise the Euler chain
    x <- (1 - dt) x + dL with t / dt steps whose increments are exact in
    law, CF exp(-dt |xi|^alpha / 2).
    """
    if dt is None:
        return math.exp(-t), (1.0 - math.exp(-alpha * t)) / (2.0 * alpha)
    steps = int(round(t / dt))
    r = (1.0 - dt) ** alpha
    return (1.0 - dt) ** steps, dt * (1.0 - r ** steps) / (1.0 - r) / 2.0


def coupled_cf_gap(alpha: float, xi: float, t: float, dt: float | None = None) -> float:
    """E cos(xi X_t) - E cos(xi Y_t) from 0, X stable-driven and Y Brownian."""
    _, ca = ou_noise(alpha, t, dt)
    _, c2 = ou_noise(2.0, t, dt)
    return math.exp(-ca * abs(xi) ** alpha) - math.exp(-c2 * xi * xi)


def symmetric_mass(alpha: float, c: float, a: float) -> float:
    """P(|N| <= a) for N with CF exp(-c |xi|^alpha).

    Gaussian (alpha = 2) by erf; stable by Gil-Pelaez inversion,
    P(|N| <= a) = (2 / pi) int_0^inf sin(xi a / s) exp(-xi^alpha) / xi dxi
    with s = c^(1/alpha).
    """
    if alpha == 2.0:
        return float(erf(a / (2.0 * math.sqrt(c))))
    u = a / c ** (1.0 / alpha)
    val, _ = quad(
        lambda z: u * np.sinc(z * u / np.pi) * math.exp(-z ** alpha),
        0.0, 60.0, limit=400, epsabs=1e-14, epsrel=1e-12,
    )
    return 2.0 * val / math.pi


def indicator_gradient(alpha: float, t: float, eps: float, dt: float | None = None) -> float:
    """(P_t 1{y <= 0}(-eps) - P_t 1{y <= 0}(eps)) / (2 eps) for the OU semigroup."""
    m, c = ou_noise(alpha, t, dt)
    return symmetric_mass(alpha, c, m * eps) / (2.0 * eps)


def poisson_f0(alpha: float) -> float:
    """f_alpha(0) = int_0^1 (mu_alpha - exp(-(1 - u^alpha) / (2 alpha))) / u du at 30 digits."""
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        mu = mpmath.exp(-1 / (2 * a))
        return float(mpmath.quad(lambda u: (mu - mpmath.exp(-(1 - u ** a) / (2 * a))) / u, [0, 1]))


def compute(workload: str, inp: dict) -> dict:
    """Every reference value the workload's checks compare against."""
    if workload == "ergodic-tv-mc":
        p = inp["params"]
        return {
            "tv": {key(a): ergodic_tv_fft(a) for a in p["alpha"]},
            "cf": {
                key(a, xi): {
                    "exact": coupled_cf_gap(a, xi, p["t"]),
                    "chain": coupled_cf_gap(a, xi, p["t"], p["dt"]),
                }
                for a in p["alpha"]
                for xi in p["xi"]
            },
        }
    if workload == "semigroup-mc":
        p = inp["params"]
        ts = np.geomspace(p["t_grid"][0], p["t_grid"][1], int(p["t_nodes"]))
        grad = {}
        for driver, alpha in [("brownian", 2.0)] + [("stable", float(a)) for a in p["alpha"]]:
            for t in ts:
                t = float(t)
                eps = 0.25 * t ** (1.0 / alpha)
                chain = indicator_gradient(alpha, t, eps, t / 50.0)
                # The +eps and -eps ensembles share every draw and the Euler
                # map is increasing in x, so the paired indicator difference
                # is Bernoulli(2 eps g): its variance is known in closed form.
                prob = 2.0 * eps * chain
                grad[key(driver, alpha, t)] = {
                    "exact": indicator_gradient(alpha, t, eps),
                    "chain": chain,
                    "se": math.sqrt(prob * (1.0 - prob) / int(p["n"])) / (2.0 * eps),
                }
        return {"grad": grad}
    if workload == "closed-form":
        poisson_alphas = [2.0] + [float(a) for a in inp["poisson_rate"]["alpha"]]
        return {
            "tv": {key(a): ergodic_tv_fft(a) for a in inp["ou_rate"]["alpha"]},
            "f0": {key(a): poisson_f0(a) for a in poisson_alphas},
            "symbol": {
                key(a, xi, x): -(abs(xi) ** a / 2.0) * math.cos(xi * x)
                for a, xi, x in inp["symbol"]["points"]
            },
        }
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the oracle values of one workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    print(json.dumps(compute(args.workload, build(args.workload, args.seed)), indent=2))
