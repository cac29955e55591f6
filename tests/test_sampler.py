"""Equidistant write sampling and per-frame estimate aggregation."""

import numpy as np
import pytest

from nvmwear import SimConfig, WriteSampler
from nvmwear.engine import RunResult, estimates_csv
from nvmwear.errors import ConfigError, MetricsError
from nvmwear.memspace import MemorySpace


def feed(sampler, frames):
    hits = []
    for pos, f in enumerate(frames, start=1):
        if sampler.observe_write(f) is not None:
            hits.append(pos)
    return hits


def test_n3_samples_positions_4_and_8():
    s = WriteSampler(3, 8)
    hits = feed(s, [0, 1, 2, 3, 4, 5, 6, 7])
    assert hits == [4, 8]
    assert s.estimates[3] == 1 and s.estimates[7] == 1
    assert s.samples_taken == 2


def test_n1_every_second_write():
    s = WriteSampler(1, 1)
    hits = feed(s, [0] * 10)
    assert hits == [2, 4, 6, 8, 10]


@pytest.mark.parametrize("n", [1, 3, 100])
def test_equidistance(n):
    s = WriteSampler(n, 4)
    total = 20 * (n + 1) + n // 2
    hits = feed(s, [i % 4 for i in range(total)])
    assert hits == [k * (n + 1) for k in range(1, 21)]


def test_interval_must_be_positive():
    with pytest.raises(ConfigError):
        WriteSampler(0, 4)


def test_estimate_share():
    s = WriteSampler(1, 4)
    feed(s, [2, 2])
    assert s.estimate_share(2) == 1.0
    feed(s, [3, 3])
    assert s.estimate_share(2) == 0.5
    assert s.estimate_share(3) == 0.5


def test_share_needs_samples():
    s = WriteSampler(5, 4)
    with pytest.raises(MetricsError):
        s.estimate_share(0)


def test_sum_of_estimates_matches_samples():
    rng = np.random.default_rng(7)
    s = WriteSampler(4, 16)
    feed(s, rng.integers(0, 16, 5000).tolist())
    assert int(s.estimates.sum()) == s.samples_taken == 1000


def test_record_tick_matches_observe_write():
    """One tick must equal n misses followed by one sampled write."""
    rng = np.random.default_rng(11)
    frames = rng.integers(0, 8, 40 * 6).tolist()
    a = WriteSampler(5, 8)
    feed(a, frames)
    b = WriteSampler(5, 8)
    for k in range(len(frames) // 6):
        b.record_tick(frames[6 * k + 5])
    assert np.array_equal(a.estimates, b.estimates)
    assert a.samples_taken == b.samples_taken
    assert a.write_counter == 0 and not a.armed


def test_uniform_interleave_shares():
    # round-robin over 8 frames; 101 and 8 are coprime so samples cycle
    # through all frames and shares settle near 1/8
    s = WriteSampler(100, 8)
    feed(s, [i % 8 for i in range(101 * 1000)])
    assert s.samples_taken == 1000
    for f in range(8):
        assert abs(s.estimate_share(f) - 0.125) <= 0.02


def test_hot_frame_share():
    # 80% of writes hit frame 0; the sampled share tracks the true share
    rng = np.random.default_rng(3)
    frames = (rng.random(10**4) >= 0.8).astype(int).tolist()
    s = WriteSampler(9, 2)
    feed(s, frames)
    assert abs(s.estimate_share(0) - 0.8) <= 0.10


def test_csv_dump(layout):
    # the engine writes the estimates, numbering frames as the other logs do
    s = WriteSampler(1, 6)
    feed(s, [3, 3, 5, 5])
    space = MemorySpace(layout)
    result = RunResult(space=space, config=SimConfig(), totals={}, sampler=s)
    # frames 3 and 5 print as the layout's 4th and 6th pages, which the
    # first segment and the next, with no gap between, hold
    page0 = layout.segments[0].start // 4096
    lines = estimates_csv(result).decode().splitlines()
    assert lines == ["frame,estimate", "%d,1" % (page0 + 3),
                     "%d,1" % (page0 + 5), "#samples,2"]
