"""Stochastic numerics lab: alpha-stable vs. Brownian SDEs.

Half-speed convention throughout: the stable driver has characteristic
function exp(-t |xi|^alpha / 2), the subordinator has Laplace transform
exp(-t (2r)^{alpha/2} / 2), and the Brownian case alpha = 2 is the
standard Gaussian with variance t.
"""

from stable_tv_lab.rng import RngStream
from stable_tv_lab.stable_sampling import (
    sample_subordinator,
    sample_stable_vector,
    empirical_char_fn,
    robust_mean,
)
from stable_tv_lab.constants import (
    a_const,
    omega_sphere,
    ratio_to_limit,
    jump_tail_mass,
    s_inverse_moment,
    constant_report,
)
from stable_tv_lab.sde import (
    DriftField,
    EulerConfig,
    drift_registry,
    probe_h1,
    probe_h2,
    run_ensemble,
    mc_semigroup,
)
from stable_tv_lab.distances import (
    GridDensity,
    RateFit,
    tv_from_densities,
    tv_from_samples_1d,
    tv_cf_lower_bound,
    rate_fit,
)
from stable_tv_lab.ou import (
    transition_cf,
    ergodic_density,
    exact_tv_mu,
    lb_curve,
)
from stable_tv_lab.pde import (
    GridFunction,
    frac_laplacian_1d,
    generator_q,
    generator_p,
    poisson_solution_grid,
    lin_norm_diff,
)

__version__ = "0.1.0"
