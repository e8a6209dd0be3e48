"""The three workloads' inputs, built from the seed alone.

Pure data: both run.py (which computes the oracles) and the
worker (worker.py, which calls the lab) read these, and neither the seed
nor anything else reaches the program by another route.  Every parameter
is spelled out, so a change to the lab's DEFAULT_PARAMS does not change
the benchmark.
"""

from __future__ import annotations

import os

WORKLOADS = ("ergodic-tv-mc", "semigroup-mc", "closed-form")

# Sizes below the campaign defaults so that one round fits a run.  The
# tv-theorem noise-floor check (self-distance of the Brownian sample's
# halves over 64 bins, limit 0.05) sets the smallest n: on 200 seeds of
# N(0, 1/2) samples, the Brownian path's stationary law, the floor was
# 0.036 +- 0.003 (max 0.043) at n = 100 000 but 0.050 +- 0.005 at 50 000,
# where half the seeds would fail.
TV_THEOREM_N = 100_000
GRADIENT_PROBE_N = 50_000

# Symbol points (alpha, xi, x) for the callable-extension fractional
# Laplacian: the far-field panel loop grows to z ~ 1e10^(1/alpha), so the
# four alphas span its cost range (about 2 s at 1.5, 0.2 s at 1.9).
SYMBOL_POINTS = ((1.5, 1.0, 0.3), (1.7, 2.0, 0.3), (1.8, 0.5, 0.3), (1.9, 2.0, 0.3))
SYMBOL_GRID = (-4.0, 4.0, 0.005)  # start, stop, step: the criterion-3 grid


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def build(workload: str, seed: int) -> dict:
    """The inputs of one workload; the same seed gives the same inputs."""
    if workload == "ergodic-tv-mc":
        return {
            "campaign": "tv-theorem",
            "seed": seed,
            "workers": 1,
            "params": {
                "alpha": [1.7, 1.8, 1.85, 1.9],
                "t": 5.0,
                "dt": 0.01,
                "n": TV_THEOREM_N,
                "xi": [0.5, 1.0, 2.0],
            },
        }
    if workload == "semigroup-mc":
        return {
            "campaign": "gradient-probe",
            "seed": seed,
            "workers": nproc(),
            "params": {"alpha": [1.5], "t_grid": [1e-3, 1e-1], "t_nodes": 7, "n": GRADIENT_PROBE_N},
        }
    if workload == "closed-form":
        # No random numbers: the seed is recorded and changes nothing, so
        # the spread across seeds of this workload is timing noise alone.
        return {
            "seed": seed,
            "ou_rate": {"alpha": [1.9, 1.95, 1.99, 1.995]},
            "poisson_rate": {
                "alpha": [1.8, 1.9, 1.95, 1.99],
                "x_half": 15.0,
                "x_step": 0.01,
                "residual_x": 3.0,
            },
            "symbol": {"grid": list(SYMBOL_GRID), "points": [list(p) for p in SYMBOL_POINTS]},
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def key(*values) -> str:
    """Dictionary key for oracle values, shared by run.py and worker.py."""
    return ",".join(repr(float(v)) if not isinstance(v, str) else v for v in values)
