"""Counter-based, splittable random streams.

Built on numpy's Philox generator: the 128-bit key is assembled from
(root_seed, stream_index), so distinct stream indices give statistically
independent streams and identical (root_seed, stream_index) pairs always
replay the identical sequence, independent of worker count or call order
elsewhere in the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1


@dataclass
class RngStream:
    """Deterministic substream keyed by (root_seed, stream_index)."""

    root_seed: int
    stream_index: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.stream_index < 0:
            raise ValueError("stream_index must be non-negative")
        key = (int(self.root_seed) & _MASK64) | ((int(self.stream_index) & _MASK64) << 64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def substream(self, index: int) -> "RngStream":
        """Derive a child stream keyed by a mix of parent and child index.

        The mix is not collision-free in general.  The test suite checks the
        indices campaigns use: children 0-127 of roots 0-199, 1000-1009 and
        gradient-probe's 9000 + int(1e6 t) all have distinct keys, none of
        which is a root index.
        """
        mixed = ((self.stream_index + 1) * 0x9E3779B97F4A7C15 + index + 1) & _MASK64
        return RngStream(self.root_seed, mixed)

    # Convenience passthroughs used throughout the lab.
    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def exponential(self, size=None):
        return self._gen.standard_exponential(size)
