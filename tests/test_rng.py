"""Counter-based stream tests: replay, independence, substream hygiene."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stable_tv_lab import RngStream
from stable_tv_lab.campaigns import DEFAULT_PARAMS
from stable_tv_lab.sde import BLOCK_SIZE


def test_same_key_replays_identically():
    a = RngStream(1234, 7).normal(100)
    b = RngStream(1234, 7).normal(100)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(1234, 0).normal(100)
    b = RngStream(1234, 1).normal(100)
    c = RngStream(1235, 0).normal(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substreams_do_not_collide_across_parents():
    # roots: the campaigns' stream indices at their defaults (0-199 for the
    # sampler checks and gradient-probe's 100 j + k, 1000-1009 around
    # tv-theorem's 1000, 9000 + int(1e6 t) for gradient-probe); children:
    # the blocks of n <= 128 * BLOCK_SIZE, which covers tv-theorem's n = 400 000
    p = DEFAULT_PARAMS["gradient-probe"]
    ts = np.geomspace(*p["t_grid"], p["t_nodes"])
    roots = set(range(200)) | set(range(1000, 1010)) | {9000 + int(1e6 * t) for t in ts}
    assert max(roots) == 109_000
    assert 128 * BLOCK_SIZE >= DEFAULT_PARAMS["tv-theorem"]["n"]
    keys = [RngStream(0, r).substream(c).stream_index for r in sorted(roots) for c in range(128)]
    assert len(keys) == 27_776
    assert len(set(keys)) == len(keys)
    assert not roots & set(keys)


def test_negative_stream_index_rejected():
    with pytest.raises(ValueError):
        RngStream(0, -1)


def test_passthrough_shapes_and_ranges():
    s = RngStream(5, 5)
    u = s.uniform(size=1000)
    assert u.shape == (1000,) and np.all((0.0 <= u) & (u < 1.0))
    e = s.exponential(1000)
    assert np.all(e >= 0.0)
    assert s.normal((3, 4)).shape == (3, 4)


@given(seed=st.integers(min_value=0, max_value=2**64 - 1), idx=st.integers(min_value=0, max_value=2**32))
def test_any_uint64_seed_is_usable(seed, idx):
    draws = RngStream(seed, idx).normal(8)
    assert np.all(np.isfinite(draws))
    np.testing.assert_array_equal(draws, RngStream(seed, idx).normal(8))
