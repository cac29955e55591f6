"""Sampled write-count approximation.

Models a performance counter armed to overflow on every n-th write: after
n writes the next one traps and is recorded, then the counter restarts.
With the deterministic one-write trap latency this samples exactly every
(n+1)-th write.  Estimates are aggregated per physical frame, one 8-byte
counter per tracked frame.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ConfigError, MetricsError


class WriteSampler:
    def __init__(self, interval_n: int, n_frames: int):
        if interval_n < 1:
            raise ConfigError("sampling interval must be >= 1")
        self.interval_n = interval_n
        self.write_counter = 0
        self.armed = False
        self.estimates = np.zeros(n_frames, dtype=np.int64)
        self.samples_taken = 0

    def observe_write(self, frame: int) -> Optional[int]:
        """Feed one application write; returns the frame iff it was sampled."""
        if self.armed:
            self.estimates[frame] += 1
            self.samples_taken += 1
            self.armed = False
            self.write_counter = 0
            return frame
        self.write_counter += 1
        if self.write_counter == self.interval_n:
            self.armed = True
        return None

    def record_tick(self, frame: int):
        """Bulk equivalent of feeding interval_n misses plus one sampled write.

        The replay engine processes writes in whole sampling periods; this
        applies the same state transition observe_write would after n+1
        calls ending in a sample.
        """
        self.estimates[frame] += 1
        self.samples_taken += 1
        self.armed = False
        self.write_counter = 0

    def estimate_share(self, frame: int) -> float:
        if self.samples_taken == 0:
            raise MetricsError("no samples taken yet")
        return float(self.estimates[frame]) / self.samples_taken
