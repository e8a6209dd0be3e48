"""Stochastic numerics lab: alpha-stable vs. Brownian SDEs.

Half-speed convention throughout: the stable driver has characteristic
function exp(-t |xi|^alpha / 2), the subordinator has Laplace transform
exp(-t (2r)^{alpha/2} / 2), and the Brownian case alpha = 2 is the
standard Gaussian with variance t.

The public API lives in the submodules (sde, ou, pde, ...); the package
itself exports only RngStream and __version__.
"""

from stable_tv_lab.rng import RngStream

__version__ = "0.1.0"
